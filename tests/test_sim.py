import bisect
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from wfhtomo import _rng
from wfhtomo._rng import (_BLOCK, _G, _LANE, _SHIFT, SplitMix64, Xoshiro256PP, _bins, _guide,
                          _lanes, _step, inverse_cdf_counts, setting_seed)
from wfhtomo.fock import DenseOperator, OccupationBasis, StateSpec, make_state
from wfhtomo.optics import PartitionSpec, haar_unitary, plt_on_fock, standard_block
from wfhtomo.povm import CounterConfig, MeasurementContext, Setting
from wfhtomo.probes import design_gamma
from wfhtomo.sim import (
    Dataset,
    _checked,
    born_table,
    format_outcome,
    parse_outcome,
    probabilities,
    simulate_dataset,
)
from wfhtomo.twirl import BlockOperator, twirl_analytic, twirled_closed_form

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


# lane and block edges: a short, a full and a just-longer lane, a block of lanes and
# either side of it, and 255, 256, 257, 513
EDGE_TOTALS = [1, _LANE - 1, _LANE, _LANE + 1, _LANE * _BLOCK - 1, _LANE * _BLOCK,
               _LANE * _BLOCK + 1, 255, 256, 257, 513]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_lane_counts_match_scalar_stream(data):
    # the lane and block edges are in every example
    totals = data.draw(st.permutations(
        EDGE_TOTALS + data.draw(st.lists(st.integers(1, 3 * 256 + 1), max_size=3))))
    seeds = data.draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=len(totals),
                               max_size=len(totals)))
    cums = [data.draw(cumulative_tables()) for _ in totals]
    got = inverse_cdf_counts(seeds, cums, totals)
    for seed, cum, total, counts in zip(seeds, cums, totals, got):
        assert counts.tolist() == _scalar_counts(seed, cum, total)


GRID = 2.0 ** -53  # spacing of the draws u = k * 2**-53
BUCKET = 2.0 ** (_SHIFT - 53)  # width of a guide bucket in u

# cumulative tables at the guide table's edge cases
TALLY_TABLES = [
    [BUCKET * 256, BUCKET * 512, BUCKET * 513, 1.0],  # thresholds on bucket edges
    [0.25 + j * GRID for j in range(1, 6)] + [1.0],  # consecutive 2**-53 grid points
    [BUCKET - GRID, BUCKET, BUCKET + GRID, 1 - GRID, 1.0],  # either side of an edge
    [(2 ** 40 + 0.5) * GRID, 0.1 + 0.5 * GRID, 1.0],  # between grid points
    [0.0, 0.0, 0.1, 0.1, 0.1, 1.0, 1.0],  # zero-probability outcomes
    [0.1 + j * 1e-6 for j in range(5)] + [1.0],  # several thresholds in one bucket
    [0.5, 1.0 + 2 * GRID, 1.0],  # a running sum past 1 before the last entry is set
    [1.0],
]


def test_guide_bins_match_bisect_at_chosen_draws():
    table, keys = _guide([np.array(c) for c in TALLY_TABLES])
    base = 0
    for s, cum in enumerate(TALLY_TABLES):
        ks = {0, 2 ** 53 - 1}
        for c in cum:
            t = math.ceil(c * 2 ** 53)  # c * 2**53 is exact
            edge = t >> _SHIFT << _SHIFT
            ks |= {t - 1, t, t + 1, edge - 1, edge, edge + 2 ** _SHIFT - 1}
        k = np.array(sorted(x for x in ks if 0 <= x < 2 ** 53), dtype=np.int64)
        raw = (k << 11 | k & 0x7FF).astype(np.uint64)  # any low 11 bits: the draw is raw >> 11
        got = _bins(table, keys, s << _G, raw)
        want = [base + s + bisect.bisect_right(cum, x * GRID) for x in k.tolist()]
        assert got.tolist() == want
        assert (table[s] >= 0).sum() >= 2 ** _G - len(cum)  # at most one -1 per threshold
        base += len(cum)


@st.composite
def snapped_tables(draw):
    """Cumulative tables whose entries sit on guide-bucket edges or a few 2**-53
    steps off them, so that draws land in buckets that need the exact search."""
    entries = draw(st.lists(st.tuples(st.integers(0, 2 ** _G), st.integers(-3, 3)),
                            min_size=1, max_size=12))
    cum = sorted(min(max(b * BUCKET + j * GRID, 0.0), 1.0) for b, j in entries)
    cum[-1] = 1.0
    return cum


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_lane_counts_match_scalar_stream_at_bucket_edges(data):
    totals = data.draw(st.lists(st.integers(1, 3 * 256 + 1), min_size=1, max_size=4))
    seeds = data.draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=len(totals),
                               max_size=len(totals)))
    cums = [data.draw(snapped_tables()) for _ in totals]
    got = inverse_cdf_counts(seeds, cums, totals)
    for seed, cum, total, counts in zip(seeds, cums, totals, got):
        assert counts.tolist() == _scalar_counts(seed, cum, total)


def test_lane_counts_match_scalar_stream_past_1023_streams():
    # one guide table holds at most 1023 settings; more are binned in turn
    n = 1030
    cums = [[0.25, 0.5 + i * GRID, 1.0] for i in range(n)]
    totals = [1 + i % 3 for i in range(n)]
    got = inverse_cdf_counts(list(range(n)), cums, totals)
    assert [c.tolist() for c in got] == [_scalar_counts(i, cums[i], totals[i])
                                         for i in range(n)]


def test_lane_pass_memory_on_the_quick_start_bootstrap_group(monkeypatch):
    # tracemalloc peak of one sampler call on the README's 2-seed bootstrap group:
    # 16 quick-start settings of 20,000 shots each
    probes = design_gamma(3, 7)
    partition = PartitionSpec(sectors=((0.5 ** 0.5, 0.5 ** 0.5),), s1_multi=True)
    counter = CounterConfig(counters=2, N_c=6)
    ctx = MeasurementContext.build([Setting(gamma=g, counter=counter, partition=partition,
                                            N=probes.N) for g in probes.gammas])
    calls = []
    monkeypatch.setattr("wfhtomo.sim.inverse_cdf_counts",
                        lambda *args: calls.append(args) or inverse_cdf_counts(*args))
    state = twirled_closed_form("cat", {"alpha": 0.5}, 3)
    simulate_dataset(state, ctx, [20000] * 16, [777, 778])  # also builds the jump tables
    tracemalloc.start()
    try:
        inverse_cdf_counts(*calls[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.80 * 2 ** 20


@pytest.mark.parametrize("passes", [1, 40, 100])
def test_lane_counts_match_scalar_stream_in_short_passes(monkeypatch, passes):
    # a pass holds at most _PASS draws: fewer steps per pass, and a remainder pass
    monkeypatch.setattr(_rng, "_PASS", passes)
    totals = [1, 255, 256, 257, 513]
    seeds = [setting_seed(11, i) for i in range(len(totals))]
    cums = [TALLY_TABLES[i] for i in range(len(totals))]
    got = inverse_cdf_counts(seeds, cums, totals)
    for seed, cum, total, counts in zip(seeds, cums, totals, got):
        assert counts.tolist() == _scalar_counts(seed, cum, total)


# lanes either side of the first two block edges, and the last lane of a 20k-draw stream
@pytest.mark.parametrize("lane", [0, 1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1,
                                  2 * _BLOCK, 2 * _BLOCK + 1, -(-20000 // _LANE) - 1, 78, 397])
def test_lane_starts_at_its_jump_ahead_draw(lane):
    seed = setting_seed(2023, 5)
    scalar = Xoshiro256PP(seed)
    for _ in range(lane * _LANE):
        scalar.next_u64()
    # stream 0 has lane + 1 full lanes and stream 1 one: columns 0 and 1 hold their
    # lanes 0, and column l + 1 stream 0's lane l >= 1
    state, owner, left = _lanes([seed, 7], np.array([(lane + 1) * _LANE, _LANE]))
    assert left.size == 0 and owner.tolist() == [0, 1] + [0] * lane
    column = state[:, lane + 1 if lane else 0]
    assert column.tolist() == scalar.s
    assert int(_step(column[:, None].copy())[0]) == scalar.next_u64()


@pytest.mark.parametrize("lanes", [1, 7, 2512])
def test_step_with_a_scratch_row_matches_one_without(lanes):
    # the scratch row holds only temporaries: outputs and states are the same bits
    state, _, _ = _lanes(list(range(lanes)), np.full(lanes, _LANE))
    plain, reused = state.copy(), state.copy()
    scratch, out = np.empty(lanes, dtype=np.uint64), np.empty(lanes, dtype=np.uint64)
    for _ in range(3):
        want = _step(plain)
        assert _step(reused, out, scratch) is out
        assert np.array_equal(out, want) and np.array_equal(reused, plain)


def test_lanes_put_each_stream_short_last_lane_last():
    totals = np.array([2 * _LANE + 5, _LANE, 3, _LANE * _BLOCK + 1])
    state, owner, left = _lanes([11, 12, 13, 14], totals)
    lanes = -(-totals // _LANE)
    assert len(owner) == lanes.sum()
    assert owner[len(owner) - 3:].tolist() == [0, 2, 3] and left.tolist() == [5, 3, 1]
    for i, seed in enumerate([11, 12, 13, 14]):  # each stream's lanes in order
        scalar = Xoshiro256PP(seed)
        for column in np.flatnonzero(owner == i):
            assert state[:, column].tolist() == scalar.s
            for _ in range(_LANE):
                scalar.next_u64()


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_lane_counts_match_scalar_stream_on_shared_tables(data):
    # streams that share one cumulative table share its guide row, with their own tallies
    cum = data.draw(cumulative_tables())
    totals = data.draw(st.lists(st.sampled_from(EDGE_TOTALS) | st.integers(1, 3000),
                                min_size=2, max_size=6, unique=True))
    seeds = data.draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=len(totals),
                               max_size=len(totals)))
    other = data.draw(cumulative_tables())
    cums = [cum if i % 3 else list(other) for i in range(len(totals))]
    got = inverse_cdf_counts(seeds, cums, totals)
    for seed, c, total, counts in zip(seeds, cums, totals, got):
        assert counts.tolist() == _scalar_counts(seed, c, total)


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
    vac = BlockOperator.zeros(6, 0)
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
        return BlockOperator(3, {(): m / np.trace(m).real})

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
    state = BlockOperator.maximally_mixed(2, 0)
    half = BlockOperator.identity(2, 0).scale(0.5)
    povm = {("h",): PovmElement(("h",), half, 0.0)}
    with pytest.raises(ValueError):
        probabilities(state, povm)


def checked_by_loop(outcomes, p):
    """The outcome-by-outcome check that sim._checked vectorises, as its reference."""
    out, total = {}, 0.0
    for outcome, value in zip(outcomes, p.tolist()):
        if value < -1e-12:
            raise ValueError(f"outcome {outcome} has probability {value:.3e} < -1e-12")
        value = max(value, 0.0)
        out[outcome] = value
        total += value
    if not abs(total - 1.0) <= 1e-6:
        raise ValueError(f"probabilities sum to {total!r}, off by more than 1e-6")
    return out


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       st.integers(0, 11), st.sampled_from([None, -0.0, -1e-13, -2e-12, 1e-6, math.nan, math.inf]))
def test_checked_matches_the_outcome_loop(weights, at, value):
    p = np.array(weights) / (sum(weights) or 1.0)
    if value is not None:
        p[at % len(p)] = value
    outcomes = [(k, ">") for k in range(len(p))]
    try:
        want = checked_by_loop(outcomes, p)
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            _checked(outcomes, p)
    else:
        assert np.array(list(want.values())).tobytes() == _checked(outcomes, p).tobytes()


@pytest.mark.parametrize("state", [BlockOperator.maximally_mixed(2, 1),
                                   BlockOperator.maximally_mixed(3, 0)],
                         ids=["other-cutoff", "other-tuple-length"])
def test_probabilities_rejects_a_state_of_another_structure(state):
    setting = Setting(gamma=0.7, counter=CounterConfig(counters=2, N_c=3),
                      partition=PartitionSpec(sectors=P1.sectors, s1_multi=True), N=3)
    povm = MeasurementContext.build([setting]).povms[0]
    with pytest.raises(ValueError, match="block structure mismatch"):
        probabilities(state, povm)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_probabilities_rejects_non_finite(bad):
    setting = Setting(gamma=0.7, counter=CounterConfig(counters=2, N_c=3),
                      partition=P1, N=3)
    ctx = MeasurementContext.build([setting])
    state = BlockOperator.maximally_mixed(3, 0)
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
    table = born_table(rho, 0.0, [blk])
    assert abs(table[0, 0] - 1.0) < 1e-14
    assert table[1, 0] == 0.0


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
        born_table(rho, 2.0, [blk], joint_cutoff=4)


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
    table = born_table(rho, gamma, blocks, joint_cutoff=joint_cutoff)
    for k in range(joint_cutoff + 1):
        for l in range(joint_cutoff + 1 - k):
            assert abs(float(table[k, l]) - lit[k, l]) < 1e-11


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
    table = born_table(rho, g, blocks)
    for k in range(5):
        for l in range(5):
            assert abs(probs[(k, l)] - float(table[k, l])) < 1e-9


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
    assert [len(c) for c in ds.counts] == [25, 25]
    assert [{o: n for o, n in c.items() if n} for c in ds.counts] == [
        {(0, 0): 13, (0, 1): 1, (1, 0): 4, (2, 0): 2},
        {(0, 0): 6, (0, 1): 2, (1, 0): 5, (1, 1): 2, (2, 0): 2, (2, 1): 2, (2, 2): 1}]
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


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from([1, 255, 256, 257, 20000]), min_size=2, max_size=2),
       st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=4))
def test_simulate_dataset_seed_list_matches_one_call_per_seed(M_i, seeds):
    ctx = _small_context()
    state = _small_state()
    group = simulate_dataset(state, ctx, M_i, seeds)
    assert [json.dumps(d.to_json()) for d in group] == \
        [json.dumps(simulate_dataset(state, ctx, M_i, s).to_json()) for s in seeds]


def test_simulate_dataset_seed_list_in_capped_passes():
    # 14 streams of 157 lanes: 5 steps per pass (_PASS // 2198), and a remainder pass
    ctx = _small_context()
    state = _small_state()
    seeds = list(range(7))
    group = simulate_dataset(state, ctx, [20000, 19999], seeds)
    assert [d.counts for d in group] == \
        [simulate_dataset(state, ctx, [20000, 19999], s).counts for s in seeds]


def test_simulate_dataset_with_no_seeds_returns_no_datasets():
    # one dataset per seed in the list, so none for an empty list
    assert simulate_dataset(_small_state(), _small_context(), [500, 700], []) == []


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


@pytest.mark.parametrize("gammas", [[0.5], [0.5, 0.9 + 0.4j, 0.1]])
def test_dataset_rejects_gammas_of_another_length(gammas):
    # one probe amplitude per setting; a list one short or long is refused here,
    # not left to fail as an IndexError when a context reads the counts
    with pytest.raises(ValueError, match=f"^gammas has {len(gammas)} entries, counts 2$"):
        Dataset(counts=[{(0, 0): 1}, {(0, 0): 2}], seed=0, gammas=gammas)


@pytest.mark.parametrize("label", ["(1,,2)", "()", "(1,)", "(,>)", "( , )"])
def test_parse_outcome_refuses_an_empty_part(label):
    # "(1,,2)" is no (1, 2): a stray comma would make the key count another outcome
    with pytest.raises(ValueError, match=re.escape(f"outcome label {label!r} has an empty part")):
        parse_outcome(label)


def test_dataset_from_json_refuses_a_key_with_an_empty_part():
    payload = {"settings": [{"counts": {"(0,0)": 3, "(1,,2)": 1}}], "seed": 0}
    with pytest.raises(ValueError, match=re.escape("outcome label '(1,,2)' has an empty part")):
        Dataset.from_json(payload)
