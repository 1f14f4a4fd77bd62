import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from wfhtomo.fock import OccupationBasis, StateSpec, StateVector, fidelity, make_state
from wfhtomo.mle import (
    ReconstructionParams,
    ReconstructionReport,
    _EPS_DECAY,
    _EPS_FLOOR,
    _EPS_START,
    _project,
    _simplex,
    _step,
    log_likelihood,
    r_operator,
    reconstruct,
)
from wfhtomo.optics import PartitionSpec, haar_unitary
from wfhtomo.povm import CounterConfig, HermitianCoords, MeasurementContext, Setting
from wfhtomo.probes import design_gamma
from wfhtomo.sim import Dataset, probabilities, simulate_dataset
from wfhtomo.twirl import BlockOperator, reduced_assignment, twirl_analytic

from block_reference import hermitize, matmul, pair_trace

BAL = PartitionSpec(sectors=((math.sqrt(0.5), math.sqrt(0.5)),), s1_multi=False)
BAL_MULTI = PartitionSpec(sectors=((math.sqrt(0.5), math.sqrt(0.5)),), s1_multi=True)


@dataclass
class ExpectedCounts:
    """Exact expected frequencies M_s p_s(o); stands in for integer data."""

    counts: list[dict]

    def total_shots(self) -> float:
        return sum(sum(c.values()) for c in self.counts)


def block_state(kind="coherent", N=2, **kw):
    dense = make_state(StateSpec(kind=kind, N=N, **kw)).density()
    return twirl_analytic(dense, reduced_assignment(BAL), BAL, N)


@pytest.fixture(scope="module")
def ctx():
    ps = design_gamma(2, seed=7)
    settings = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=5),
                        partition=BAL, N=2) for g in ps.gammas]
    return MeasurementContext.build(settings)


@pytest.fixture(scope="module")
def rho_true():
    return block_state(alpha=0.4 + 0.2j)


def expected_counts(state, context, M_s=10000.0):
    return ExpectedCounts([
        {o: M_s * p for o, p in probabilities(state, povm).items()}
        for povm in context.povms
    ])


def dev_from_identity(op):
    ident = BlockOperator.identity(op.N, op.tuple_length)
    return max(float(np.max(np.abs(a - b)))
               for a, b in zip(op.blocks.values(), ident.blocks.values()))


def test_params_validation():
    with pytest.raises(ValueError):
        ReconstructionParams(delta_L=-1.0)
    with pytest.raises(ValueError):
        ReconstructionParams(r_stop=0.0)
    with pytest.raises(ValueError):
        ReconstructionParams(max_iter=0)


def test_params_json_round_trip():
    p = ReconstructionParams(delta_L=1e-8, r_stop=1e-4, max_iter=100)
    q = ReconstructionParams.from_json(p.to_json())
    assert q == p
    r = ReconstructionParams.from_json(ReconstructionParams().to_json())
    assert r.r_stop is None


def test_params_method_defaults_to_diluted_and_round_trips():
    assert ReconstructionParams().method == "diluted"
    apg = ReconstructionParams(r_stop=1e-4, method="apg")
    assert ReconstructionParams.from_json(apg.to_json()) == apg
    assert ReconstructionParams.from_json({"method": "apg"}).method == "apg"


@pytest.mark.parametrize("field, value", [("delta_L", math.nan), ("delta_L", math.inf),
                                          ("r_stop", math.inf), ("max_iter", 2.5),
                                          ("max_iter", True), ("method", "newton")])
def test_params_reject_non_finite_and_non_integer(field, value):
    with pytest.raises(ValueError, match=field):
        ReconstructionParams(**{field: value})


@pytest.mark.parametrize("value", ["APG", "", None, 1, ["apg"]])
def test_params_from_json_method_must_name_one(value):
    with pytest.raises(ValueError, match="method"):
        ReconstructionParams.from_json({"method": value})


def hand_made_context(setting, povm):
    """A one-setting context of a hand-made outcome -> element map (unchecked)."""
    coords = HermitianCoords.of(setting.N, next(iter(povm.values())).tuple_length)
    return MeasurementContext([setting], [list(povm)],
                              coords.rows(coords.stack(list(povm.values()))), coords)


def one_outcome_context(op, n_outcomes=1):
    N, L = op.N, op.tuple_length
    setting = Setting(gamma=0.5, counter=CounterConfig(counters=2, N_c=5),
                      partition=BAL, N=N)
    scale = 1.0 / n_outcomes
    return hand_made_context(setting, {(j,): BlockOperator.identity(N, L).scale(scale)
                                       for j in range(n_outcomes)})


def test_log_likelihood_identity_povm(rho_true):
    ctx1 = one_outcome_context(rho_true)
    data = Dataset(counts=[{(0,): 7}], M_i=[7], seed=0)
    assert log_likelihood(rho_true, ctx1, data) == pytest.approx(0.0, abs=1e-12)


def test_log_likelihood_half_half(rho_true):
    ctx2 = one_outcome_context(rho_true, n_outcomes=2)
    data = Dataset(counts=[{(0,): 3, (1,): 1}], M_i=[4], seed=0)
    assert log_likelihood(rho_true, ctx2, data) == pytest.approx(4 * math.log(0.5))


def test_log_likelihood_with_no_counted_outcome_is_zero(rho_true):
    # an empty sum: no outcome is counted, so none can have zero probability
    ctx1 = one_outcome_context(rho_true)
    data = Dataset(counts=[{(0,): 0}], M_i=[0], seed=0)
    with np.errstate(invalid="ignore"):  # the gradient beside it is 0 / 0 at M = 0
        assert log_likelihood(rho_true, ctx1, data) == 0.0


def test_log_likelihood_minus_inf():
    N = 2
    proj = BlockOperator.zeros(N, 0)
    proj.blocks[()][0, 0] = 1.0
    rest = BlockOperator.identity(N, 0)
    rest.blocks[()][0, 0] = 0.0
    setting = Setting(gamma=0.5, counter=CounterConfig(counters=2, N_c=5),
                      partition=BAL, N=N)
    ctx1 = hand_made_context(setting, {(0,): proj, (1,): rest})
    vac = BlockOperator.zeros(N, 0)
    vac.blocks[()][0, 0] = 1.0
    data = Dataset(counts=[{(0,): 1, (1,): 1}], M_i=[2], seed=0)
    assert log_likelihood(vac, ctx1, data) == -math.inf
    with pytest.raises(ValueError):
        r_operator(vac, ctx1, data)


def test_log_likelihood_bounded_by_saturated(ctx, rho_true):
    data = simulate_dataset(rho_true, ctx, [500] * len(ctx.settings), seed=11)
    ll = log_likelihood(rho_true, ctx, data)
    sat = sum(m * math.log(m / M) for c, M in zip(data.counts, data.M_i)
              for m in c.values() if m > 0)
    assert ll <= sat + 1e-9


def test_log_likelihood_rejects_misaligned(ctx, rho_true):
    data = Dataset(counts=[{("nope",): 1}], M_i=[1], seed=0)
    with pytest.raises(ValueError):
        log_likelihood(rho_true, MeasurementContext(ctx.settings[:1], ctx.labels[:1],
                                                    ctx.P[:ctx.offsets[1]], ctx.coords), data)
    with pytest.raises(ValueError):
        log_likelihood(rho_true, ctx, Dataset(counts=[{}], M_i=[0], seed=0))


def test_r_operator_identity_at_exact_frequencies(ctx, rho_true):
    data = expected_counts(rho_true, ctx)
    R = r_operator(rho_true, ctx, data)
    assert dev_from_identity(R) <= 1e-10
    assert R.max_eigenvalue() - 1.0 <= 1e-12
    assert R.max_eigenvalue() - 1.0 >= -1e-12


def test_r_operator_invariants(ctx, rho_true):
    data = simulate_dataset(rho_true, ctx, [300] * len(ctx.settings), seed=3)
    R = r_operator(rho_true, ctx, data)
    assert R.max_abs_dev_from_hermitian() <= 1e-12
    assert R.min_eigenvalue() >= -1e-12
    assert pair_trace(rho_true, R).real == pytest.approx(1.0, abs=1e-10)
    assert R.max_eigenvalue() - 1.0 >= -1e-12


def test_diluted_step_fixed_point(ctx, rho_true):
    ident = BlockOperator.identity(2, 0)
    for eps in (0.5, 1e3, math.inf):
        new = ctx.coords.split(_step(block_diag(*rho_true.blocks.values()),
                                     block_diag(*ident.blocks.values()), eps))
        diff = max(float(np.max(np.abs(a - b)))
                   for a, b in zip(new.blocks.values(), rho_true.blocks.values()))
        assert diff <= 1e-10


def test_diluted_step_inf_is_rrr(ctx, rho_true):
    data = simulate_dataset(rho_true, ctx, [400] * len(ctx.settings), seed=9)
    R = r_operator(rho_true, ctx, data)
    new = ctx.coords.split(_step(block_diag(*rho_true.blocks.values()),
                                 block_diag(*R.blocks.values()), math.inf))
    raw = matmul(matmul(R, rho_true), R)
    scaled = raw.scale(1.0 / raw.trace().real)
    diff = max(float(np.max(np.abs(a - b)))
               for a, b in zip(new.blocks.values(), scaled.blocks.values()))
    assert diff <= 1e-12
    new.validate_state()


def test_join_dense_is_block_diag_and_split_dense_inverts_it():
    # the fit's estimate and R-hat are read back from a block_diag matrix by coords.split
    rng = np.random.default_rng(8)
    op = BlockOperator(2, {key: rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
                           for key, m in BlockOperator.zeros(2, 2).blocks.items()})
    dense = block_diag(*op.blocks.values())
    back = HermitianCoords.of(2, 2).split(dense)
    assert all(np.array_equal(back.blocks[k], m) for k, m in op.blocks.items())


def test_small_eps_never_decreases_loglik(ctx, rho_true):
    rng = np.random.default_rng(5)
    for trial in range(10):
        data = simulate_dataset(rho_true, ctx, [200] * len(ctx.settings),
                                seed=100 + trial)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        raw = g @ g.conj().T + 1e-3 * np.eye(3)
        state = BlockOperator(2, {(): raw / np.trace(raw).real})
        R = r_operator(state, ctx, data)
        stepped = ctx.coords.split(_step(block_diag(*state.blocks.values()),
                                         block_diag(*R.blocks.values()), 1e-3))
        assert log_likelihood(stepped, ctx, data) >= \
            log_likelihood(state, ctx, data) - 1e-10


def test_herm_vec_isometry():
    rng = np.random.default_rng(2)
    xs = []
    for d in (1, 3, 6):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = (a + a.conj().T) / 2
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        y = (b + b.conj().T) / 2
        coords = HermitianCoords.of(d - 1, 0)  # one block of dimension d
        vx, vy = coords.vec(x), coords.vec(y)
        assert np.trace(x @ y).real == pytest.approx(float(vx @ vy), abs=1e-10)
        assert np.allclose(coords.unvec(vx), x, atol=1e-12)
        # block operators enter through the same coordinates
        assert np.array_equal(coords.rows(coords.stack([BlockOperator(d - 1, {(): x})]))[0],
                              vx)
        xs.append(x)
    coords = HermitianCoords([1, 3, 6])
    dense = block_diag(*xs)
    assert np.allclose(coords.unvec(coords.vec(dense)), dense, atol=1e-12)
    assert np.trace(dense @ dense).real == pytest.approx(
        float(coords.vec(dense) @ coords.vec(dense)), abs=1e-10)


def reference_simplex(u):
    """The simplex projection as numpy array arithmetic: sort, cumsum, the last
    index that passes, then max(u - tau, 0)."""
    s = np.sort(u)[::-1]
    excess = np.cumsum(s) - 1.0
    k = np.nonzero(s * np.arange(1, s.size + 1) > excess)[0][-1]
    return np.maximum(u - excess[k] / (k + 1), 0.0)


_TIED = st.sampled_from([0.0, -0.0, 0.1, 0.25, -0.25, 1.0 / 3.0, 0.5, 1.0, -1.0, 2.0])
_VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(u=st.one_of(st.lists(_VALUES, min_size=1, max_size=21),  # distinct, any sign
                   st.lists(_TIED, min_size=1, max_size=21),  # ties, signed zeros
                   st.tuples(st.one_of(_TIED, _VALUES), st.integers(1, 21)).map(
                       lambda vn: [vn[0]] * vn[1]),  # all equal
                   st.lists(st.floats(-0.1, 0.3), min_size=1, max_size=21)),  # spectra
       scale=st.sampled_from([1.0, 1e-3, 1e3]))
def test_simplex_matches_numpy_formula_bit_for_bit(u, scale):
    u = np.array(u) * scale
    assert _simplex(u).tobytes() == reference_simplex(u).tobytes()


def per_block_projection(coords, dims, v):
    """Projection onto the density matrices block by block: every block's
    spectrum goes onto one simplex, and each block is rebuilt on its own."""
    A = coords.unvec(v)
    at = np.cumsum([0] + list(dims))
    blocks = [slice(a, b) for a, b in zip(at, at[1:])]
    eig = [np.linalg.eigh(A[b, b]) for b in blocks]
    lam = _simplex(np.concatenate([w for w, _ in eig]))
    out = np.zeros_like(A)
    for b, (_, V) in zip(blocks, eig):
        out[b, b] = (V * lam[b]) @ V.conj().T
    return coords.vec(out)


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(1, 8), min_size=1, max_size=6).filter(lambda d: sum(d) <= 21),
       kind=st.sampled_from(["random", "mixed", "repeated"]),
       scale=st.sampled_from([1e-3, 1.0, 30.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_project_matches_per_block_projection(dims, kind, scale, seed):
    # the projection of a block-diagonal matrix is block diagonal, so one eigh
    # of the dense matrix gives each block's projection (D <= 21 covers every fit
    # the tests and the bench run); degenerate spectra test its eigenvectors
    rng = np.random.default_rng(seed)
    coords = HermitianCoords(dims)
    if kind == "mixed":  # the fit's start, itself a state
        dense = np.eye(coords.D, dtype=np.complex128) / coords.D
    else:
        pool = rng.normal(size=3) * scale  # shared by every block: repeated across blocks
        parts = []
        for d in dims:
            if kind == "random":
                a = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * scale
                parts.append((a + a.conj().T) / 2)
            else:
                U = haar_unitary(d, rng)
                parts.append((U * rng.choice(pool, size=d)) @ U.conj().T)
        dense = block_diag(*parts)
    v = coords.vec(dense)
    got = _project(coords, v)
    assert np.max(np.abs(got - per_block_projection(coords, dims, v))) <= 1e-12
    rho = coords.unvec(got)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    if kind == "mixed":
        assert np.max(np.abs(got - v)) <= 1e-12


def reference_loglik_and_r(state, context, counts, M):
    """Log-likelihood and R-hat summed outcome by outcome with pair_trace."""
    loglik = 0.0
    R = BlockOperator.zeros(state.N, state.tuple_length)
    for povm, c in zip(context.povms, counts):
        for outcome, m in c.items():
            if m == 0:
                continue
            element = povm[outcome].op
            p = pair_trace(state, element).real
            loglik += m * math.log(p)
            R = R + element.scale(m / (M * p))
    return loglik, R


def reference_fit(context, data, params):
    """The R rho R map and eps ladder of reconstruct, in BlockOperator algebra."""
    M = data.total_shots()
    r_stop = params.r_stop if params.r_stop is not None else 1.0 / M
    op = next(iter(context.povms[0].values())).op
    ident = BlockOperator.identity(op.N, op.tuple_length)
    rho = BlockOperator.maximally_mixed(op.N, op.tuple_length)

    def evaluate(state):
        loglik, R = reference_loglik_and_r(state, context, data.counts, M)
        return loglik, R, R.max_eigenvalue() - 1.0

    loglik, R, r_k = evaluate(rho)
    eps, iterations = math.inf, 0
    while r_k > r_stop and iterations < params.max_iter:
        A = R if math.isinf(eps) else (ident + R.scale(eps)).scale(1.0 / (1.0 + eps))
        candidate = hermitize(matmul(matmul(A, rho), A))
        candidate = candidate.scale(1.0 / candidate.trace().real)
        iterations += 1
        new_loglik, new_R, new_r_k = evaluate(candidate)
        accepted = new_loglik >= loglik
        if accepted:
            rho, R, r_k, gain, loglik = candidate, new_R, new_r_k, new_loglik - loglik, new_loglik
        if not accepted or gain < params.delta_L:
            eps = _EPS_START if math.isinf(eps) else eps * _EPS_DECAY
            if eps <= _EPS_FLOOR:
                break
    return rho, iterations, loglik, r_k


@pytest.fixture(scope="module")
def ctx_multi():
    settings_ = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=5),
                         partition=BAL_MULTI, N=2) for g in design_gamma(2, seed=3).gammas]
    return MeasurementContext.build(settings_)


def test_compiled_matches_operator_forms(ctx, rho_true):
    data = simulate_dataset(rho_true, ctx, [250] * len(ctx.settings), seed=21)
    ll, R_ref = reference_loglik_and_r(rho_true, ctx, data.counts, data.total_shots())
    assert ll == pytest.approx(log_likelihood(rho_true, ctx, data), abs=1e-8)
    R = r_operator(rho_true, ctx, data)
    for k in R_ref.blocks:
        assert np.allclose(R.blocks[k], R_ref.blocks[k], atol=1e-10)
    # the fit's r_k, taken from the dense R-hat at its maximally mixed start
    mixed = BlockOperator.maximally_mixed(2, 0)
    _, R_mixed = reference_loglik_and_r(mixed, ctx, data.counts, data.total_shots())
    r_k = reconstruct(ctx, data, ReconstructionParams(max_iter=1)).rk_trace[0]
    assert r_k == pytest.approx(R_mixed.max_eigenvalue() - 1.0, abs=1e-12)


def random_block_state(N, length, rng):
    """A full-rank state whose blocks are random PSD matrices of random weight."""
    blocks = {}
    for key, block in BlockOperator.zeros(N, length).blocks.items():
        d = block.shape[0]
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        blocks[key] = rng.uniform(0.2, 1.0) * (g @ g.conj().T + 0.1 * np.eye(d))
    state = BlockOperator(N, blocks)
    return state.scale(1.0 / state.trace().real)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), multi=st.booleans())
def test_compiled_forms_match_pair_trace(ctx, ctx_multi, seed, multi):
    context = ctx_multi if multi else ctx
    rng = np.random.default_rng(seed)
    state = random_block_state(2, 1 if multi else 0, rng)
    counts = [dict(zip(povm, rng.integers(0, 40, len(povm)).tolist()))
              for povm in context.povms]
    data = Dataset(counts=counts, M_i=[sum(c.values()) for c in counts], seed=0)
    ll, R_ref = reference_loglik_and_r(state, context, counts, data.total_shots())
    assert log_likelihood(state, context, data) == pytest.approx(ll, rel=1e-12)
    # R-hat is Hermitian; the sum above also carries the elements' rounding-level
    # anti-Hermitian parts, weighted by m/p
    R, R_ref = r_operator(state, context, data), hermitize(R_ref)
    scale = max(float(np.max(np.abs(b))) for b in R_ref.blocks.values())
    for k in R_ref.blocks:
        assert np.max(np.abs(R.blocks[k] - R_ref.blocks[k])) <= 1e-12 * scale
    for povm in context.povms:
        probs = probabilities(state, povm)
        for outcome, element in povm.items():
            assert probs[outcome] == pytest.approx(pair_trace(state, element.op).real,
                                                   rel=1e-12)
        assert math.fsum(probs.values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("multi", [False, True])
@pytest.mark.parametrize("delta_L", [1e-12, 1e-2])
def test_reconstruct_fixed_iterations_match_operator_algebra(ctx, ctx_multi, rho_true,
                                                             multi, delta_L):
    context = ctx_multi if multi else ctx
    truth = twirl_analytic(coherent_vac_density(0.5, 2), [0, 0], BAL_MULTI, 2) \
        if multi else rho_true
    data = simulate_dataset(truth, context, [500] * len(context.settings), seed=31)
    params = ReconstructionParams(max_iter=50, delta_L=delta_L)
    report = reconstruct(context, data, params)
    rho, iterations, loglik, r_k = reference_fit(context, data, params)
    assert report.iterations == iterations
    assert report.loglik_trace[-1] == pytest.approx(loglik, rel=1e-12)
    assert report.rk_trace[-1] == pytest.approx(r_k, abs=1e-12)
    for k in rho.blocks:
        assert np.max(np.abs(report.estimate.blocks[k] - rho.blocks[k])) <= 1e-12


@pytest.mark.parametrize("params", [ReconstructionParams(), ReconstructionParams(method="apg"),
                                    ReconstructionParams(r_stop=1e-3)])
def test_reconstruct_of_a_dataset_that_counts_nothing_raises_value_error(ctx, params):
    # the refusal Dataset.from_json gives, for a dataset built in code
    data = Dataset(counts=[{(0, 0): 0}] * len(ctx.povms), M_i=[0] * len(ctx.povms), seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^settings count no outcome, and a fit needs"):
            reconstruct(ctx, data, params)


def test_reconstruct_immediate_at_mixed_truth(ctx):
    mixed = BlockOperator.maximally_mixed(2, 0)
    data = expected_counts(mixed, ctx)
    report = reconstruct(ctx, data, ReconstructionParams(r_stop=1e-9))
    assert report.termination == "stopped_on_r"
    assert report.iterations <= 2
    assert fidelity(report.estimate, mixed) >= 1 - 1e-6
    assert report.rk_trace[-1] <= 1e-9


def test_reconstruct_exact_frequencies_recovers_truth(ctx, rho_true):
    data = expected_counts(rho_true, ctx)
    report = reconstruct(ctx, data, ReconstructionParams(r_stop=1e-9))
    assert report.termination == "stopped_on_r"
    assert fidelity(report.estimate, rho_true) >= 1 - 1e-4
    # at the returned estimate the fixed-point equation holds
    R = r_operator(report.estimate, ctx, data)
    fp = matmul(matmul(R, report.estimate), R)
    fp = fp.scale(1.0 / fp.trace().real)
    diff = max(float(np.max(np.abs(a - b)))
               for a, b in zip(fp.blocks.values(), report.estimate.blocks.values()))
    assert diff <= 1e-6


def test_reconstruct_on_simulated_data(ctx, rho_true):
    data = simulate_dataset(rho_true, ctx, [2000] * len(ctx.settings), seed=42)
    report = reconstruct(ctx, data)
    assert report.termination == "stopped_on_r"
    assert report.rk_trace[-1] <= 1.0 / data.total_shots()
    report.estimate.validate_state()
    assert fidelity(report.estimate, rho_true) >= 0.95
    trace = report.loglik_trace
    assert all(b >= a - 1e-10 for a, b in zip(trace, trace[1:]))
    assert len(trace) <= report.iterations + 1
    # any state, truth included, beats the estimate by at most M r_k
    gap = log_likelihood(rho_true, ctx, data) - \
        log_likelihood(report.estimate, ctx, data)
    assert gap <= data.total_shots() * report.rk_trace[-1] + 1e-9


def test_reconstruct_gap_bounded_by_m_rk(ctx, rho_true):
    data = simulate_dataset(rho_true, ctx, [500] * len(ctx.settings), seed=8)
    loose = reconstruct(ctx, data, ReconstructionParams(r_stop=1e-3))
    tight = reconstruct(ctx, data, ReconstructionParams(r_stop=1e-9))
    gap = log_likelihood(tight.estimate, ctx, data) - loose.loglik_trace[-1]
    assert gap >= -1e-9
    assert gap <= data.total_shots() * loose.rk_trace[-1] + 1e-9


@pytest.fixture(scope="module")
def ctx_c4():
    """A small IC context: N=2, N_c=4 and the 9 design_gamma(2, 3) probes."""
    settings_ = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=4),
                         partition=BAL, N=2) for g in design_gamma(2, seed=3).gammas]
    return MeasurementContext.build(settings_)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shots=st.integers(20, 5000),
       r_stop=st.sampled_from([None, 1e-10]))
def test_certificate_bounds_every_accepted_iterate(ctx_c4, rho_true, seed, shots, r_stop):
    # L* - L_k <= M r_k at every iterate (Glancy, Knill & Girard 2012) and
    # L_final <= L*, whether the fit stops on r_k or exhausts its eps ladder
    data = simulate_dataset(rho_true, ctx_c4, [shots] * len(ctx_c4.settings), seed)
    report = reconstruct(ctx_c4, data, ReconstructionParams(r_stop=r_stop))
    M = data.total_shots()
    assert len(report.loglik_trace) == len(report.rk_trace)
    for L_k, r_k in zip(report.loglik_trace, report.rk_trace):
        assert report.loglik_trace[-1] - L_k <= M * r_k + 1e-9 * M


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shots=st.integers(20, 5000),
       r_stop=st.sampled_from([None, 1e-10]))
def test_apg_certificate_bounds_every_accepted_iterate(ctx_c4, rho_true, seed, shots, r_stop):
    # the same bound for the accelerated fit, which ends stopped_on_r or,
    # once a restarted step no longer raises L, stalled
    data = simulate_dataset(rho_true, ctx_c4, [shots] * len(ctx_c4.settings), seed)
    report = reconstruct(ctx_c4, data, ReconstructionParams(r_stop=r_stop, method="apg"))
    M = data.total_shots()
    assert report.termination in ("stopped_on_r", "stalled")
    assert len(report.loglik_trace) == len(report.rk_trace) == report.iterations + 1
    assert all(np.diff(report.loglik_trace) > 0)
    for L_k, r_k in zip(report.loglik_trace, report.rk_trace):
        assert report.loglik_trace[-1] - L_k <= M * r_k + 1e-9 * M


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shots=st.integers(20, 5000),
       r_stop=st.sampled_from([None, 1e-3, 1e-6]))
def test_apg_and_diluted_certified_fits_agree(ctx_c4, rho_true, seed, shots, r_stop):
    # both lie within M r_stop below the maximum, so within M r_stop of each other
    data = simulate_dataset(rho_true, ctx_c4, [shots] * len(ctx_c4.settings), seed)
    fits = [reconstruct(ctx_c4, data, ReconstructionParams(r_stop=r_stop, method=method))
            for method in ("diluted", "apg")]
    assume(all(f.termination == "stopped_on_r" for f in fits))
    M = data.total_shots()
    bound = M * (r_stop if r_stop is not None else 1.0 / M)
    assert abs(fits[0].loglik_trace[-1] - fits[1].loglik_trace[-1]) <= bound


def test_apg_counts_accepted_steps_and_honours_max_iter(ctx, rho_true):
    data = simulate_dataset(rho_true, ctx, [500] * len(ctx.settings), seed=4)
    capped = reconstruct(ctx, data, ReconstructionParams(r_stop=1e-15, max_iter=3,
                                                         method="apg"))
    assert capped.termination == "max_iter"
    assert capped.iterations == 3 and len(capped.loglik_trace) == 4
    for report in (capped, reconstruct(ctx, data, ReconstructionParams(method="apg"))):
        # the last trace entries describe the returned estimate
        report.estimate.validate_state()
        R = r_operator(report.estimate, ctx, data)
        assert report.rk_trace[-1] == pytest.approx(R.max_eigenvalue() - 1.0, abs=1e-12)
        assert report.loglik_trace[-1] == pytest.approx(
            log_likelihood(report.estimate, ctx, data), rel=1e-13)
    assert report.termination == "stopped_on_r"
    assert report.rk_trace[-1] <= 1.0 / data.total_shots()


def test_apg_stalls_below_reachable_r_stop(ctx, rho_true):
    data = simulate_dataset(rho_true, ctx, [500] * len(ctx.settings), seed=4)
    report = reconstruct(ctx, data, ReconstructionParams(r_stop=1e-300, method="apg"))
    assert report.termination == "stalled"
    assert report.iterations == len(report.loglik_trace) - 1 < 10000


def test_reconstruct_iterates_stay_physical(ctx, rho_true):
    data = simulate_dataset(rho_true, ctx, [800] * len(ctx.settings), seed=13)
    report = reconstruct(ctx, data, ReconstructionParams(r_stop=1e-7))
    report.estimate.validate_state()
    assert report.estimate.min_eigenvalue() >= -1e-9


def test_reconstruct_max_iter(ctx, rho_true):
    data = simulate_dataset(rho_true, ctx, [500] * len(ctx.settings), seed=4)
    report = reconstruct(ctx, data, ReconstructionParams(r_stop=1e-15, max_iter=3))
    assert report.termination == "max_iter"
    assert report.iterations == 3


def test_reconstruct_eps_exhausted(ctx, rho_true):
    data = simulate_dataset(rho_true, ctx, [500] * len(ctx.settings), seed=4)
    params = ReconstructionParams(delta_L=1e9, r_stop=1e-15)
    report = reconstruct(ctx, data, params)
    assert report.termination == "eps_exhausted"
    # one R rho R step, then the ladder 1e30, 5e29, ... down to the first value <= 1e-30
    assert report.iterations == 201


def test_reconstruct_warns_on_deficient_context(rho_true):
    setting = Setting(gamma=0.8, counter=CounterConfig(counters=2, N_c=5),
                      partition=BAL, N=2)
    ctx1 = MeasurementContext.build([setting])
    data = simulate_dataset(rho_true, ctx1, [500], seed=2)
    with pytest.warns(UserWarning):
        report = reconstruct(ctx1, data, ReconstructionParams(max_iter=50))
    report.estimate.validate_state()


def test_report_json(ctx, rho_true):
    data = simulate_dataset(rho_true, ctx, [300] * len(ctx.settings), seed=6)
    report = reconstruct(ctx, data, ReconstructionParams(max_iter=20, r_stop=1e-12))
    d = report.to_json()
    assert set(d) == {"estimate", "loglik_trace", "rk_trace", "termination",
                      "iterations"}
    est = BlockOperator.from_json(d["estimate"])
    assert fidelity(est, report.estimate) >= 1 - 1e-9


def coherent_vac_density(alpha, N):
    """Two-mode density of |alpha> (x) |0>, truncated and renormalized."""
    basis = OccupationBasis(2, N)
    amps = np.zeros(basis.size, dtype=np.complex128)
    term = 1.0
    for n in range(N + 1):
        amps[basis.index((n, 0))] = term
        term = term * alpha / math.sqrt(n + 1)
    return StateVector(basis, amps / np.linalg.norm(amps)).density()


def test_reconstruct_multi_block_family():
    part = PartitionSpec(sectors=((math.sqrt(0.5), math.sqrt(0.5)),), s1_multi=True)
    N = 2
    dense = coherent_vac_density(0.5, N)
    rho = twirl_analytic(dense, [0, 0], part, N)
    assert rho.tuple_length == 1
    ps = design_gamma(N, seed=3)
    settings = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=5),
                        partition=part, N=N) for g in ps.gammas]
    ctx = MeasurementContext.build(settings)
    data = simulate_dataset(rho, ctx, [3000] * len(settings), seed=77)
    report = reconstruct(ctx, data)
    assert report.termination == "stopped_on_r"
    report.estimate.validate_state()
    assert fidelity(report.estimate, rho) >= 0.95
