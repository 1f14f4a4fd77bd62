"""End-to-end acceptance suite: one test per shipped guarantee.

Each test prints a single `[criterion NN] <label>: PASS|FAIL` line (visible
with `pytest -s`) before asserting, so a run doubles as a human-readable
report. Stochastic checks use fixed seeds and windows wide enough that a
correct implementation passes deterministically.
"""
import json
import math
import pathlib
import warnings
from dataclasses import dataclass

import numpy as np

from wfhtomo.fock import (
    DenseOperator,
    OccupationBasis,
    StateSpec,
    StateVector,
    fidelity,
    make_state,
    truncation_fidelity,
)
from wfhtomo.mle import ReconstructionParams, r_operator, reconstruct
from wfhtomo.optics import (
    PartitionSpec,
    haar_unitary,
    number_power_antinormal,
    number_power_normal,
    plt_on_fock,
    standard_block,
)
from wfhtomo.povm import (
    CounterConfig,
    MeasurementContext,
    Setting,
    apply_loss,
    build_povm,
    ic_check,
    pi_kl,
)
from wfhtomo.probes import design_gamma, feasibility, interpolation_matrix
from wfhtomo.sim import born_table, probabilities, simulate_dataset
from wfhtomo.stats import parametric_bootstrap
from wfhtomo.twirl import BlockOperator, embed_full, twirl_analytic, twirl_oracle_mc

GOLDEN = pathlib.Path(__file__).parent / "data" / "determinability_golden.json"

BAL_MULTI = PartitionSpec(sectors=((math.sqrt(0.5), math.sqrt(0.5)),), s1_multi=True)
BAL_SINGLE = PartitionSpec(sectors=((math.sqrt(0.5), math.sqrt(0.5)),), s1_multi=False)
P1 = PartitionSpec(sectors=((math.sqrt(0.55), math.sqrt(0.45)),), s1_multi=False)
P2 = PartitionSpec(sectors=((math.sqrt(0.55), math.sqrt(0.45)),
                            (math.sqrt(0.3), math.sqrt(0.7))), s1_multi=False)
P2_MULTI = PartitionSpec(sectors=((0.6, 0.8), (0.5, math.sqrt(0.75))), s1_multi=True)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}{tail}",
          flush=True)


def _random_density_op(num_modes: int, cutoff: int, seed: int) -> DenseOperator:
    basis = OccupationBasis(num_modes, cutoff)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((basis.size, basis.size)) \
        + 1j * rng.standard_normal((basis.size, basis.size))
    rho = g @ g.conj().T
    return DenseOperator(basis, rho / np.trace(rho).real)


def _coherent_vac_block(alpha: complex, N: int, part: PartitionSpec) -> BlockOperator:
    """Twirled form of |alpha> (x) |vacuum> truncated at total photon number N."""
    basis = OccupationBasis(2, N)
    amps = np.zeros(basis.size, dtype=complex)
    for n in range(N + 1):
        amps[basis.index((n, 0))] = alpha ** n / math.sqrt(math.factorial(n))
    amps /= np.linalg.norm(amps)
    return twirl_analytic(StateVector(basis, amps).density(), [0, 0], part, N)


@dataclass
class ExpectedCounts:
    """Exact expected frequencies M_s p_s(o); stands in for integer data."""

    counts: list

    def total_shots(self) -> float:
        return sum(sum(c.values()) for c in self.counts)


def _expected_counts(state: BlockOperator, context: MeasurementContext,
                     M_s: float = 10000.0) -> ExpectedCounts:
    return ExpectedCounts([
        {o: M_s * p for o, p in probabilities(state, povm).items()}
        for povm in context.povms
    ])


# --- criterion 1 -----------------------------------------------------------

TABLE_GAMMAS = (0.9,
                1.1 * np.exp(1j * math.pi / 10),
                1.3 * np.exp(1j * math.pi / 5),
                1.5 * np.exp(3j * math.pi / 10),
                1.7 * np.exp(2j * math.pi / 5))


def test_criterion_01_mean_fidelity_vs_sample_size():
    N = 5
    settings = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=9),
                        partition=BAL_MULTI, N=N) for g in TABLE_GAMMAS]
    ctx = MeasurementContext.build(settings)
    rho_true = _coherent_vac_block(0.2 * np.exp(1j * math.pi / 4), N, BAL_MULTI)
    windows = {1000: (0.959, 0.02), 10000: (0.987, 0.01), 100000: (0.996, 0.005)}
    trials = 20
    means = {}
    ok = True
    with warnings.catch_warnings():
        # this five-probe context is rank 90 of 91; positivity still pins the
        # estimate, so the non-IC warning is expected here
        warnings.simplefilter("ignore", UserWarning)
        for M, (center, half) in windows.items():
            fids = []
            for trial in range(trials):
                data = simulate_dataset(rho_true, ctx, [M] * len(settings),
                                        seed=1905 + trial)
                rep = reconstruct(ctx, data,
                                  ReconstructionParams(delta_L=1e-8, r_stop=1.0 / M))
                fids.append(fidelity(rep.estimate, rho_true))
            means[M] = float(np.mean(fids))
            ok = ok and abs(means[M] - center) <= half
    detail = ", ".join(f"M={M:.0e}: {m:.4f}" for M, m in means.items())
    _report(1, "mean reconstruction fidelity at three sample sizes", ok, detail)
    assert ok, detail


# --- criterion 2 -----------------------------------------------------------

SIX_GAMMAS = tuple(0.3 * (j + 1) * np.exp(1j * j * math.pi / 6) for j in range(6))


def test_criterion_02_probe_context_rank():
    N = 5
    ctx = MeasurementContext.build(
        [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=9),
                 partition=BAL_MULTI, N=N) for g in SIX_GAMMAS])
    info = ic_check(ctx)
    ok = info["rank"] == 91 and info["required"] == 91 and info["is_ic"]
    deficits = []
    for n in (1, 2, 3):
        sctx = MeasurementContext.build(
            [Setting(gamma=0.9 + 0.4j, counter=CounterConfig(counters=2, N_c=9),
                     partition=BAL_MULTI, N=n)])
        r = ic_check(sctx)
        deficits.append(r["required"] - r["rank"])
        ok = ok and not r["is_ic"] and r["rank"] < r["required"]
    _report(2, "six-probe context rank 91; single-probe deficient", ok,
            f"rank={info['rank']}/91, single-probe deficits {deficits}")
    assert ok


# --- criterion 3 -----------------------------------------------------------

def test_criterion_03_analytic_probabilities_match_dense_oracle():
    cases = [
        (P1, [0], 1.1 * np.exp(0.4j), 3, 10),
        (P1, [0], 1.9, 4, 11),
        (BAL_MULTI, [0, 0], 0.7 - 1.2j, 3, 12),
        (P2, [0, 1], 1.5 * np.exp(-0.9j), 4, 13),
        (P2, [0, 1], 0.5 + 0.2j, 3, 14),
    ]
    worst = 0.0
    for part, assign, g, N, seed in cases:
        rho = _random_density_op(len(assign), N, seed)
        chi = twirl_analytic(rho, assign, part, N)
        ctx = MeasurementContext.build(
            [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=8),
                     partition=part, N=N)])
        probs = probabilities(chi, ctx.povms[0])
        blocks = [standard_block(*part.sectors[s]) for s in assign]
        table = born_table(rho, g, blocks)
        for k in range(9):
            for l in range(9 - k):
                worst = max(worst, abs(probs[(k, l)] - float(table[k, l])))
    ok = worst < 1e-8
    _report(3, "analytic probabilities match dense oracle", ok,
            f"worst |dp|={worst:.2e}")
    assert ok


# --- criterion 4 -----------------------------------------------------------

def _smeared_response(n_c: int, m_cut: int) -> np.ndarray:
    T = np.zeros((n_c + 2, m_cut + 1))
    for m in range(m_cut + 1):
        for o, w in ((m - 1, 0.15), (m, 0.7), (m + 1, 0.15)):
            T[min(max(o, 0), n_c + 1), m] += w
    return T


def _identity_dev(povm: dict) -> float:
    total = None
    for e in povm.values():
        total = e.op if total is None else total + e.op
    ident = BlockOperator.identity(total.N, total.tuple_length)
    return max(float(np.max(np.abs(total.blocks[key] - ident.blocks[key])))
               for key in total.blocks)


def test_criterion_04_povm_algebra():
    T = _smeared_response(3, 22)
    assembled = [
        Setting(gamma=0.8 + 0.3j, counter=CounterConfig(counters=2, N_c=4),
                partition=P1, N=3),
        Setting(gamma=1.2, counter=CounterConfig(counters=1, N_c=5),
                partition=P1, N=3),
        Setting(gamma=0.7 - 0.2j,
                counter=CounterConfig(counters=2, N_c=3, loss=(0.85, 0.9)),
                partition=P1, N=3),
        Setting(gamma=0.9, counter=CounterConfig(counters=2, N_c=3, response=(T, T)),
                partition=P1, N=4),
        Setting(gamma=0.6 + 0.4j, counter=CounterConfig(counters=2, N_c=1),
                partition=P1, N=4, detector="click"),
        Setting(gamma=1.1, counter=CounterConfig(counters=2, N_c=4),
                partition=P2, N=3),
        Setting(gamma=0.5 + 0.5j, counter=CounterConfig(counters=2, N_c=4),
                partition=BAL_MULTI, N=3),
    ]
    worst_dev = 0.0
    worst_eig = 0.0
    for setting in assembled:
        povm = build_povm(setting)
        worst_dev = max(worst_dev, _identity_dev(povm))
        worst_eig = min(worst_eig,
                        min(e.op.min_eigenvalue() for e in povm.values()))
    ok = worst_dev < 1e-8 and worst_eig > -1e-9

    # unit-efficiency loss leaves every element exactly unchanged
    g, N = 0.7 + 0.2j, 3
    rect = {(m, n): pi_kl(g, m, n, P1, N) for m in range(8) for n in range(8)}
    lossless = apply_loss(rect, 1.0, 1.0, conv_cut=7)
    nu1_dev = max(float(np.max(np.abs(lossless[key].op.blocks[()]
                                      - rect[key].op.blocks[()])))
                  for key in rect)
    ok = ok and nu1_dev == 0.0

    # composing two lossy maps equals one map at the product efficiency
    cut = 22
    rect = {(m, n): pi_kl(g, m, n, P1, N) for m in range(cut + 1)
            for n in range(cut + 1)}
    nu_a, nu_b = 0.9, 0.8
    once = apply_loss(rect, nu_a * nu_b, nu_a * nu_b, conv_cut=cut)
    twice = apply_loss(apply_loss(rect, nu_a, nu_a, conv_cut=cut),
                       nu_b, nu_b, conv_cut=cut)
    comp_dev = max(float(np.max(np.abs(once[(k, l)].op.blocks[()]
                                       - twice[(k, l)].op.blocks[()])))
                   for k in range(4) for l in range(4))
    ok = ok and comp_dev < 1e-9
    _report(4, "POVM identity resolution, PSD, loss algebra", ok,
            f"sum dev={worst_dev:.2e}, min eig={worst_eig:.2e}, "
            f"nu=1 dev={nu1_dev:.1e}, compose dev={comp_dev:.2e}")
    assert ok


# --- criterion 5 -----------------------------------------------------------

def test_criterion_05_twirl_correctness():
    rng = np.random.default_rng(31)

    # idempotence through the full-space embedding
    worst_idem = 0.0
    for part, S, assign in [(BAL_MULTI, 2, [0, 0]), (P2_MULTI, 3, [0, 0, 1]),
                            (P1, 1, [0])]:
        basis = OccupationBasis(S, 3)
        rho = _random_density_op(S, 3, 40 + S)
        once = twirl_analytic(rho, assign, part, 3)
        dense = embed_full(once, assign, basis)
        twice = twirl_analytic(dense, assign, part, 3)
        worst_idem = max(worst_idem,
                         max(float(np.max(np.abs(once.blocks[k] - twice.blocks[k])))
                             for k in once.blocks))
    ok = worst_idem <= 1e-10

    # Monte-Carlo Haar average converges at the 1/sqrt(samples) rate
    basis3 = OccupationBasis(3, 3)
    rho3 = _random_density_op(3, 3, 55)
    analytic = embed_full(twirl_analytic(rho3, [0, 0, 0], BAL_MULTI, 3),
                          [0, 0, 0], basis3)
    errs = {}
    for samples in (10_000, 40_000):
        mc = twirl_oracle_mc(rho3, [0, 0, 0], BAL_MULTI, samples=samples, seed=2024)
        errs[samples] = float(np.max(np.abs(mc.entries - analytic.entries)))
    ok = ok and errs[10_000] < 5e-3 and errs[40_000] < 2.5e-3

    # the dense state and its twirl are indistinguishable by count statistics
    rho = _random_density_op(2, 3, 11)
    chi = twirl_analytic(rho, [0, 1], P2, 3)
    ctx = MeasurementContext.build(
        [Setting(gamma=0.8 - 0.35j, counter=CounterConfig(counters=2, N_c=4),
                 partition=P2, N=3)])
    probs = probabilities(chi, ctx.povms[0])
    blocks = [standard_block(*P2.sectors[0]), standard_block(*P2.sectors[1])]
    table = born_table(rho, 0.8 - 0.35j, blocks)
    born_dev = max(abs(probs[(k, l)] - float(table[k, l])) for k in range(5) for l in range(5))
    ok = ok and born_dev < 1e-9

    # conjugating by any mode transformation that fixes mode 1 and respects
    # the sectors leaves every outcome probability unchanged
    plt_dev = 0.0
    bal_block = standard_block(*BAL_MULTI.sectors[0])
    u = np.eye(3, dtype=np.complex128)
    u[1:, 1:] = haar_unitary(2, rng)
    x = plt_on_fock(u, basis3)
    rho_rot = DenseOperator(basis3, x.entries @ rho3.entries @ x.entries.conj().T)
    t_a = born_table(rho3, 0.7 + 0.5j, [bal_block] * 3)
    t_b = born_table(rho_rot, 0.7 + 0.5j, [bal_block] * 3)
    plt_dev = max(plt_dev, float(np.max(np.abs(t_a - t_b))))

    u2 = np.diag([1.0, np.exp(0.9j), np.exp(-1.3j)])  # phases per later mode
    basis_p2 = OccupationBasis(3, 3)
    rho_p2 = _random_density_op(3, 3, 66)
    xp = plt_on_fock(u2, basis_p2)
    rho_p2_rot = DenseOperator(basis_p2,
                               xp.entries @ rho_p2.entries @ xp.entries.conj().T)
    blocks_p2 = [standard_block(*P2.sectors[0]), standard_block(*P2.sectors[0]),
                 standard_block(*P2.sectors[1])]
    t_c = born_table(rho_p2, 0.6 - 0.2j, blocks_p2)
    t_d = born_table(rho_p2_rot, 0.6 - 0.2j, blocks_p2)
    plt_dev = max(plt_dev, float(np.max(np.abs(t_c - t_d))))
    ok = ok and plt_dev < 1e-9

    _report(5, "twirl idempotence, Haar MC, statistics invariance", ok,
            f"idem={worst_idem:.1e}, mc={errs[10_000]:.1e}/{errs[40_000]:.1e}, "
            f"born={born_dev:.1e}, plt={plt_dev:.1e}")
    assert ok


# --- criterion 6 -----------------------------------------------------------

def test_criterion_06_mle_fixed_point():
    N = 2
    probes = design_gamma(N, seed=7)
    ctx = MeasurementContext.build(
        [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=5),
                 partition=BAL_SINGLE, N=N) for g in probes.gammas])
    rho = make_state(StateSpec("coherent", N=N, alpha=0.4 + 0.2j)).density()
    rho_true = twirl_analytic(rho, [0], BAL_SINGLE, N)

    data = _expected_counts(rho_true, ctx)
    R = r_operator(rho_true, ctx, data)
    ident = BlockOperator.identity(R.N, R.tuple_length)
    r_dev = max(float(np.max(np.abs(R.blocks[k] - ident.blocks[k])))
                for k in R.blocks)
    r_k = R.max_eigenvalue() - 1.0
    ok = r_dev <= 1e-10 and abs(r_k) <= 1e-9

    mixed = BlockOperator.maximally_mixed(N, 0)
    report = reconstruct(ctx, _expected_counts(mixed, ctx),
                         ReconstructionParams(r_stop=1e-9))
    fid = fidelity(report.estimate, mixed)
    ok = ok and report.termination == "stopped_on_r" and report.iterations <= 2 \
        and fid >= 1 - 1e-6
    _report(6, "MLE fixed point at exact frequencies", ok,
            f"R dev={r_dev:.1e}, r_k={r_k:.1e}, iters={report.iterations}, "
            f"fid={fid:.8f}")
    assert ok


# --- criterion 7 -----------------------------------------------------------

def _lowering_ops(basis: OccupationBasis) -> list:
    ops = []
    for m in range(basis.num_modes):
        A = np.zeros((basis.size, basis.size))
        for j, occ in enumerate(basis):
            if occ[m]:
                lowered = occ[:m] + (occ[m] - 1,) + occ[m + 1:]
                A[basis.index(lowered), j] = math.sqrt(occ[m])
        ops.append(A)
    return ops


def _ordered_power(k: int, S: int, N_tot: int, anti: bool) -> np.ndarray:
    """Sum over mode tuples (i_1..i_k) of ordered k-fold operator products.

    Normally ordered terms annihilate first, so the truncated space is closed
    under them; anti-normal terms create first and need headroom k above the
    cutoff before restricting back to totals <= N_tot.
    """
    basis = OccupationBasis(S, N_tot + k if anti else N_tot)
    low = _lowering_ops(basis)
    total = np.zeros((basis.size, basis.size))

    def descend(chain: np.ndarray, depth: int) -> None:
        nonlocal total
        if depth == k:
            total = total + (chain @ chain.T if anti else chain.T @ chain)
            return
        for A in low:
            descend(chain @ A, depth + 1)

    descend(np.eye(basis.size), 0)
    d = OccupationBasis(S, N_tot).size
    return total[:d, :d]


def test_criterion_07_ordered_number_power_identities():
    worst = 0.0
    for S in (1, 2, 3):
        for k in range(5):
            for N_tot in (4, 8):
                basis = OccupationBasis(S, N_tot)
                worst = max(worst, float(np.max(np.abs(
                    number_power_normal(k, basis).entries
                    - _ordered_power(k, S, N_tot, anti=False)))))
                worst = max(worst, float(np.max(np.abs(
                    number_power_antinormal(k, basis).entries
                    - _ordered_power(k, S, N_tot, anti=True)))))
    ok = worst <= 1e-10
    _report(7, "ordered number-power identities", ok, f"worst dev={worst:.1e}")
    assert ok


# --- criterion 8 -----------------------------------------------------------

def test_criterion_08_determinability_golden_table():
    rows = json.loads(GOLDEN.read_text())
    mismatches = 0
    for row in rows:
        c = row["config"]
        v = feasibility(c["K"], c["s1_multi"], c["counters"], c["probe_freedom"],
                        c["detector"], c["bs_balanced"], c["N"])
        if v.to_json() != row["verdict"]:
            mismatches += 1
    ok = mismatches == 0 and len(rows) == 512
    _report(8, "determinability verdicts match golden table", ok,
            f"{len(rows) - mismatches}/{len(rows)} rows")
    assert ok


# --- criterion 9 -----------------------------------------------------------

def test_criterion_09_probe_design_first_try():
    fractions = {}
    ok = True
    for N in (1, 2, 3):
        wins = 0
        for seed in range(100):
            try:
                ps = design_gamma(N, seed, max_tries=1)
            except ValueError:
                continue
            if len(ps.gammas) != (N + 1) ** 2:
                continue
            sv = np.linalg.svd(interpolation_matrix(ps), compute_uv=False)
            if int(np.sum(sv >= 1e-10 * sv[0])) == (N + 1) ** 2:
                wins += 1
        fractions[N] = wins / 100
        ok = ok and fractions[N] >= 0.95
    _report(9, "probe design first-attempt success", ok,
            ", ".join(f"N={n}: {f:.0%}" for n, f in fractions.items()))
    assert ok


# --- criterion 10 ----------------------------------------------------------

def test_criterion_10_truncation_fidelities():
    coh = truncation_fidelity(StateSpec("coherent", N=5, alpha=0.9))
    tmsv = truncation_fidelity(StateSpec("tmsv", N=10, r=0.5))
    cats = [truncation_fidelity(StateSpec("cat", N=5, alpha=a * np.exp(1j * phi)))
            for a in (0.3, 0.5, 0.7) for phi in (0.0, 1.1)]
    ok = abs(coh - 0.9998) <= 1e-4 and tmsv >= 0.9999 and min(cats) >= 0.9998
    _report(10, "canonical-state truncation fidelities", ok,
            f"coherent={coh:.6f}, tmsv={tmsv:.6f}, worst cat={min(cats):.6f}")
    assert ok


# --- criterion 11 ----------------------------------------------------------

def test_criterion_11_bootstrap_sanity():
    N = 2
    probes = design_gamma(N, seed=11)
    ctx = MeasurementContext.build(
        [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=5),
                 partition=BAL_SINGLE, N=N) for g in probes.gammas])
    rho = make_state(StateSpec("coherent", N=N, alpha=0.35 + 0.2j)).density()
    truth = twirl_analytic(rho, [0], BAL_SINGLE, N)
    M = 100_000
    data = simulate_dataset(truth, ctx, [M] * len(ctx.settings), seed=1905)
    params = ReconstructionParams(delta_L=1e-8, r_stop=1.0 / M)
    rep = reconstruct(ctx, data, params)
    boot = parametric_bootstrap(rep.estimate, ctx, data.M_i, n_boot=12,
                                params=params, seed=777, dataset=data, n_jobs=1)
    ok = abs(boot.sigma_deviation) <= 3.0
    _report(11, "bootstrap log-LR within 3 sigma", ok,
            f"sigma={boot.sigma_deviation:+.2f}, lr={boot.original_lr:.1f}")
    assert ok
