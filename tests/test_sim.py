import bisect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from wfhtomo._rng import (SplitMix64, Xoshiro256PP, _jump, _step, inverse_cdf_counts,
                          setting_seed)
from wfhtomo.fock import DenseOperator, OccupationBasis, StateSpec, make_state
from wfhtomo.optics import PartitionSpec, haar_unitary, plt_on_fock, standard_block
from wfhtomo.povm import CounterConfig, MeasurementContext, Setting
from wfhtomo.sim import (
    Dataset,
    born_oracle,
    born_table,
    format_outcome,
    parse_outcome,
    probabilities,
    simulate_dataset,
)
from wfhtomo.twirl import BlockOperator, twirl_analytic

BAL = PartitionSpec(sectors=((1 / math.sqrt(2), 1 / math.sqrt(2)),), s1_multi=False)
P1 = PartitionSpec(sectors=((math.sqrt(0.6), math.sqrt(0.4)),), s1_multi=False)


def random_density(num_modes: int, cutoff: int, seed: int) -> DenseOperator:
    basis = OccupationBasis(num_modes, cutoff)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((basis.size, basis.size)) \
        + 1j * rng.standard_normal((basis.size, basis.size))
    rho = g @ g.conj().T
    return DenseOperator(basis, rho / np.trace(rho).real)


# PRNG stream: frozen reference values so datasets stay byte-identical
# across platforms and reimplementations.

def test_splitmix64_reference_outputs():
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF
    s = SplitMix64(1234567)
    assert [hex(s.next_u64()) for _ in range(3)] == [
        "0x599ed017fb08fc85", "0x2c73f08458540fa5", "0x883ebce5a3f27c77"]


def test_xoshiro256pp_reference_outputs():
    r = Xoshiro256PP(42)
    assert [r.next_u64() for _ in range(4)] == [
        15021278609987233951, 5881210131331364753,
        18149643915985481100, 12933668939759105464]
    r2 = Xoshiro256PP(42)
    for _ in range(4):
        r2.next_u64()
    assert abs(Xoshiro256PP(42).next_double() - 0.8143051451229099) < 1e-16


def _scalar_counts(seed: int, cum: list, total: int) -> list:
    """Reference: the scalar stream, one bisect_right per draw."""
    rng = Xoshiro256PP(seed)
    tallies = [0] * len(cum)
    for _ in range(total):
        tallies[bisect.bisect_right(cum, rng.next_double())] += 1
    return tallies


@st.composite
def cumulative_tables(draw):
    weights = draw(st.lists(st.sampled_from([0.0, 1e-9, 0.3, 1.0, 2.5]) | st.floats(0.0, 1.0),
                            min_size=1, max_size=12).filter(lambda w: sum(w) > 0))
    cum = []
    acc = 0.0
    for w in weights:
        acc += w / sum(weights)
        cum.append(acc)
    cum[-1] = 1.0
    return cum


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_lane_counts_match_scalar_stream(data):
    # the lane edges (1, 255, 256, 257, 513 draws) are in every example
    totals = data.draw(st.permutations(
        [1, 255, 256, 257, 513] + data.draw(st.lists(st.integers(1, 3 * 256 + 1), max_size=3))))
    seeds = data.draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=len(totals),
                               max_size=len(totals)))
    cums = [data.draw(cumulative_tables()) for _ in totals]
    got = inverse_cdf_counts(seeds, cums, totals)
    for seed, cum, total, counts in zip(seeds, cums, totals, got):
        assert counts.tolist() == _scalar_counts(seed, cum, total)


@pytest.mark.parametrize("lane", [0, 1, 2, 3, 397])
def test_lane_starts_at_its_jump_ahead_draw(lane):
    seed = setting_seed(2023, 5)
    scalar = Xoshiro256PP(seed)
    for _ in range(lane * 256):
        scalar.next_u64()
    state = np.array([Xoshiro256PP(seed).s], dtype=np.uint64)
    for _ in range(lane):
        state = _jump(state)
    assert state[0].tolist() == scalar.s
    assert int(_step(state.T.copy())[0]) == scalar.next_u64()


def test_setting_seed_derivation():
    assert setting_seed(7, 3) == SplitMix64(7 ^ 3).next_u64()
    assert setting_seed(7, 0) != setting_seed(7, 1)


def test_outcome_label_roundtrip():
    for outcome in [(0, 0), (3, ">"), (">", ">"), (5,), ("I", 0), ("I", "I")]:
        assert parse_outcome(format_outcome(outcome)) == outcome
    with pytest.raises(ValueError):
        parse_outcome("3,4")


def test_probabilities_identity_povm():
    from wfhtomo.povm import PovmElement
    state = BlockOperator.maximally_mixed(3, 1)
    ident = BlockOperator.identity(3, 1)
    povm = {("all",): PovmElement(("all",), ident, 0.0)}
    probs = probabilities(state, povm)
    assert set(probs) == {("all",)}
    assert abs(probs[("all",)] - 1.0) < 1e-12


def test_probabilities_vacuum_product_poisson():
    vac = BlockOperator.zeros(6, 0, BAL)
    vac.blocks[()][0, 0] = 1.0
    setting = Setting(gamma=1.0, counter=CounterConfig(counters=2, N_c=5),
                      partition=BAL, N=6)
    ctx = MeasurementContext.build([setting])
    probs = probabilities(vac, ctx.povms[0])
    for k in range(5):
        for l in range(5):
            want = math.exp(-1.0) * 0.5 ** (k + l) / (math.factorial(k) * math.factorial(l))
            assert abs(probs[(k, l)] - want) < 1e-12
    assert abs(sum(probs.values()) - 1.0) < 1e-12


def test_probabilities_coherent_product_poisson():
    alpha, g = 0.4 + 0.3j, 0.8 - 0.2j
    eta, zeta = P1.sectors[0]
    N = 12
    rho = make_state(StateSpec(kind="coherent", N=N, alpha=alpha)).density()
    chi = twirl_analytic(rho, [0], P1, N)
    setting = Setting(gamma=g, counter=CounterConfig(counters=2, N_c=4),
                      partition=P1, N=N)
    ctx = MeasurementContext.build([setting])
    probs = probabilities(chi, ctx.povms[0])
    m1 = abs(eta * alpha + zeta * g) ** 2
    m2 = abs(zeta * alpha - eta * g) ** 2
    for k in range(4):
        for l in range(4):
            want = (math.exp(-m1) * m1 ** k / math.factorial(k)
                    * math.exp(-m2) * m2 ** l / math.factorial(l))
            assert abs(probs[(k, l)] - want) < 1e-9


def test_probabilities_linear_in_state():
    setting = Setting(gamma=0.7, counter=CounterConfig(counters=2, N_c=3),
                      partition=P1, N=3)
    ctx = MeasurementContext.build([setting])
    rng = np.random.default_rng(5)

    def rand_state():
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        return BlockOperator(3, {(): m / np.trace(m).real}, P1)

    a, b = rand_state(), rand_state()
    w = 0.3
    mix = a.scale(w) + b.scale(1 - w)
    pa = probabilities(a, ctx.povms[0])
    pb = probabilities(b, ctx.povms[0])
    pm = probabilities(mix, ctx.povms[0])
    for key in pm:
        assert abs(pm[key] - (w * pa[key] + (1 - w) * pb[key])) < 1e-12


def test_probabilities_rejects_bad_normalization():
    from wfhtomo.povm import PovmElement
    state = BlockOperator.maximally_mixed(2, 0, P1)
    half = BlockOperator.identity(2, 0, P1).scale(0.5)
    povm = {("h",): PovmElement(("h",), half, 0.0)}
    with pytest.raises(ValueError):
        probabilities(state, povm)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_probabilities_rejects_non_finite(bad):
    setting = Setting(gamma=0.7, counter=CounterConfig(counters=2, N_c=3),
                      partition=P1, N=3)
    ctx = MeasurementContext.build([setting])
    state = BlockOperator.maximally_mixed(3, 0, P1)
    state.blocks[()][1, 1] = bad
    with pytest.raises(ValueError):
        probabilities(state, ctx.povms[0])
    with pytest.raises(ValueError):
        simulate_dataset(state, ctx, [10], seed=1)


def test_born_oracle_vacuum_trivial():
    basis = OccupationBasis(1, 2)
    vac = np.zeros((3, 3), dtype=np.complex128)
    vac[0, 0] = 1.0
    rho = DenseOperator(basis, vac)
    blk = standard_block(1 / math.sqrt(2), 1 / math.sqrt(2))
    assert abs(born_oracle(rho, 0.0, [blk], 0, 0) - 1.0) < 1e-14
    assert born_oracle(rho, 0.0, [blk], 1, 0) == 0.0


def test_born_oracle_table_normalization():
    rho = random_density(2, 3, seed=2)
    b1 = standard_block(math.sqrt(0.7), math.sqrt(0.3))
    b2 = standard_block(math.sqrt(0.4), math.sqrt(0.6))
    table = born_table(rho, 0.9 + 0.4j, [b1, b2])
    assert abs(table.sum() - 1.0) < 1e-9
    assert table.min() > -1e-14


def test_born_oracle_rejects_small_cutoff():
    basis = OccupationBasis(1, 2)
    vac = np.zeros((3, 3), dtype=np.complex128)
    vac[0, 0] = 1.0
    rho = DenseOperator(basis, vac)
    blk = standard_block(0.6, 0.8)
    with pytest.raises(ValueError):
        born_oracle(rho, 2.0, [blk], 0, 0, joint_cutoff=4)


def _full_joint_table(rho: DenseOperator, gamma: complex, blocks, cutoff: int):
    """Literal construction: one PLT on all 2S modes, probe in mode S."""
    S = rho.basis.num_modes
    m = np.zeros((2 * S, 2 * S), dtype=np.complex128)
    for i, b in enumerate(blocks):
        m[i, i] = b[0, 0]
        m[i, S + i] = b[0, 1]
        m[S + i, i] = b[1, 0]
        m[S + i, S + i] = b[1, 1]
    joint = OccupationBasis(2 * S, cutoff)
    u = plt_on_fock(m, joint).entries
    n_in = rho.basis.cutoff
    c_probe = cutoff - n_in
    probe = np.array([gamma ** n / math.sqrt(math.factorial(n))
                      for n in range(c_probe + 1)], dtype=np.complex128)
    probe *= math.exp(-abs(gamma) ** 2 / 2)
    evals, evecs = np.linalg.eigh(rho.entries)
    table = np.zeros((cutoff + 1, cutoff + 1))
    for r in range(len(evals)):
        if evals[r] <= 1e-14:
            continue
        vec = np.zeros(joint.size, dtype=np.complex128)
        for idx, occ in enumerate(rho.basis.states):
            for n in range(c_probe + 1):
                full = occ + (n,) + (0,) * (S - 1)
                if sum(full) <= cutoff:
                    vec[joint.index(full)] = evecs[idx, r] * probe[n]
        out = u @ vec
        for idx, occ in enumerate(joint.states):
            k = sum(occ[:S])
            l = sum(occ[S:])
            table[k, l] += evals[r] * abs(out[idx]) ** 2
    return table


@pytest.mark.parametrize("num_modes,cutoff,gamma", [
    (1, 2, 0.6 - 0.3j),
    (2, 2, 0.5 + 0.4j),
])
def test_born_oracle_matches_literal_joint_construction(num_modes, cutoff, gamma):
    rho = random_density(num_modes, cutoff, seed=num_modes)
    blocks = [standard_block(math.sqrt(0.6), math.sqrt(0.4)),
              standard_block(math.sqrt(0.35), math.sqrt(0.65))][:num_modes]
    joint_cutoff = cutoff + 10
    lit = _full_joint_table(rho, gamma, blocks, joint_cutoff)
    for k in range(joint_cutoff + 1):
        for l in range(joint_cutoff + 1 - k):
            got = born_oracle(rho, gamma, blocks, k, l, joint_cutoff=joint_cutoff)
            assert abs(got - lit[k, l]) < 1e-11


def test_born_oracle_plt_invariance():
    # mixing same-sector modes (other than mode 1) before the BS leaves the
    # count statistics unchanged
    rho = random_density(3, 2, seed=9)
    blk = standard_block(math.sqrt(0.55), math.sqrt(0.45))
    blocks = [blk, blk, blk]
    g = 0.7 + 0.5j
    u = np.eye(3, dtype=np.complex128)
    u[1:, 1:] = haar_unitary(2, np.random.default_rng(4))
    x = plt_on_fock(u, rho.basis)
    rho_rot = DenseOperator(rho.basis, x.entries @ rho.entries @ x.entries.conj().T)
    t_a = born_table(rho, g, blocks)
    t_b = born_table(rho_rot, g, blocks)
    assert np.max(np.abs(t_a - t_b)) < 1e-9


def test_born_oracle_twirl_indistinguishability():
    # the dense state and its twirled block form give identical statistics
    part = PartitionSpec(sectors=((math.sqrt(0.55), math.sqrt(0.45)),
                                  (math.sqrt(0.3), math.sqrt(0.7))), s1_multi=False)
    rho = random_density(2, 3, seed=11)
    chi = twirl_analytic(rho, [0, 1], part, 3)
    blocks = [standard_block(*part.sectors[0]), standard_block(*part.sectors[1])]
    g = 0.8 - 0.35j
    setting = Setting(gamma=g, counter=CounterConfig(counters=2, N_c=4),
                      partition=part, N=3)
    ctx = MeasurementContext.build([setting])
    probs = probabilities(chi, ctx.povms[0])
    for k in range(5):
        for l in range(5):
            assert abs(probs[(k, l)] - born_oracle(rho, g, blocks, k, l)) < 1e-9


def _small_context():
    settings = [Setting(gamma=g, counter=CounterConfig(counters=2, N_c=3),
                        partition=P1, N=2) for g in (0.5, 0.9 + 0.4j)]
    return MeasurementContext.build(settings)


def _small_state():
    rho = make_state(StateSpec(kind="coherent", N=2, alpha=0.4 + 0.1j)).density()
    return twirl_analytic(rho, [0], P1, 2)


def test_simulate_dataset_counts_and_determinism():
    ctx = _small_context()
    state = _small_state()
    ds1 = simulate_dataset(state, ctx, [500, 700], seed=99)
    ds2 = simulate_dataset(state, ctx, [500, 700], seed=99)
    assert ds1.M_i == [500, 700]
    for c, m in zip(ds1.counts, ds1.M_i):
        assert sum(c.values()) == m
        assert all(v >= 0 for v in c.values())
    assert json.dumps(ds1.to_json(), sort_keys=True) == \
        json.dumps(ds2.to_json(), sort_keys=True)
    ds3 = simulate_dataset(state, ctx, [500, 700], seed=100)
    assert json.dumps(ds1.to_json(), sort_keys=True) != \
        json.dumps(ds3.to_json(), sort_keys=True)


def test_simulate_dataset_frozen_counts():
    # regression pin: exact counts for one small draw, so any change to the
    # sampling stream is caught
    ctx = _small_context()
    state = _small_state()
    ds = simulate_dataset(state, ctx, [20, 20], seed=42)
    top = max(ds.counts[0], key=ds.counts[0].get)
    assert top == (0, 0)
    again = simulate_dataset(state, ctx, [20, 20], seed=42)
    assert ds.counts == again.counts


def test_simulate_dataset_settings_draw_independent_streams():
    ctx = _small_context()
    state = _small_state()
    base = simulate_dataset(state, ctx, [500, 700], seed=99)
    assert simulate_dataset(state, ctx, [500, 1300], seed=99).counts[0] == base.counts[0]
    assert simulate_dataset(state, ctx, [9, 700], seed=99).counts[1] == base.counts[1]
    wider = MeasurementContext.build(ctx.settings + [
        Setting(gamma=-0.3j, counter=CounterConfig(counters=2, N_c=3), partition=P1, N=2)])
    appended = simulate_dataset(state, wider, [500, 700, 300], seed=99)
    assert appended.counts[:2] == base.counts


def test_simulate_dataset_chi_squared():
    ctx = _small_context()
    state = _small_state()
    M = 10 ** 6
    ds = simulate_dataset(state, ctx, [M, M], seed=7)
    for i, povm in enumerate(ctx.povms):
        probs = probabilities(state, povm)
        chi2 = 0.0
        dof = -1
        for outcome, p in probs.items():
            exp = p * M
            if exp < 10:
                continue
            obs = ds.counts[i].get(outcome, 0)
            chi2 += (obs - exp) ** 2 / exp
            dof += 1
        assert sps.chi2.sf(chi2, dof) > 0.001


def test_simulate_dataset_validates_m():
    ctx = _small_context()
    state = _small_state()
    with pytest.raises(ValueError):
        simulate_dataset(state, ctx, [100], seed=1)
    with pytest.raises(ValueError):
        simulate_dataset(state, ctx, [100, 0], seed=1)


def test_dataset_json_roundtrip():
    ctx = _small_context()
    state = _small_state()
    ds = simulate_dataset(state, ctx, [50, 60], seed=3)
    blob = json.dumps(ds.to_json())
    ds2 = Dataset.from_json(json.loads(blob))
    assert ds2.counts == ds.counts
    assert ds2.M_i == ds.M_i
    assert ds2.seed == ds.seed
    assert ds2.gammas == [s.gamma for s in ctx.settings]


def test_dataset_validates_totals():
    with pytest.raises(ValueError):
        Dataset(counts=[{(0, 0): 3}], M_i=[4], seed=0)
