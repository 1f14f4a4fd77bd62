import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfhtomo.fock import DenseOperator, OccupationBasis, StateSpec, fidelity, make_state
from wfhtomo.optics import PartitionSpec, haar_unitary, plt_on_fock
from wfhtomo import twirl
from wfhtomo.twirl import (
    _STACK_BYTES,
    _indices,
    BlockOperator,
    block_tuples,
    embed_full,
    reduced_assignment,
    slot_sectors,
    twirl_analytic,
    twirl_oracle_mc,
    twirled_closed_form,
)

from block_reference import matmul, pair_trace

P1_MULTI = PartitionSpec(sectors=((1 / math.sqrt(2), 1 / math.sqrt(2)),), s1_multi=True)
P1_SINGLE = PartitionSpec(sectors=((0.6, 0.8),), s1_multi=False)
P2 = PartitionSpec(sectors=((0.6, 0.8), (0.5, math.sqrt(0.75))), s1_multi=True)
P2_SINGLE = PartitionSpec(sectors=P2.sectors, s1_multi=False)


def block_maxdiff(a: BlockOperator, b: BlockOperator) -> float:
    assert set(a.blocks) == set(b.blocks)
    return max(float(np.max(np.abs(a.blocks[k] - b.blocks[k]))) for k in a.blocks)


def _random_density(dim: int, rng) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_block_tuples():
    assert block_tuples(2, 0) == [()]
    assert block_tuples(1, 2) == [(0, 0), (0, 1), (1, 0)]
    assert len(block_tuples(3, 1)) == 4


def test_block_tuples_match_brute_force_graded_lex():
    for N in range(6):
        for length in range(4):
            brute = [t for t in itertools.product(range(N + 1), repeat=length) if sum(t) <= N]
            assert block_tuples(N, length) == sorted(brute, key=lambda t: (sum(t), t))


def test_block_operator_structure_validation():
    with pytest.raises(ValueError):
        BlockOperator(2, {(0,): np.zeros((3, 3))})  # missing tuples
    with pytest.raises(ValueError):
        BlockOperator(2, {(0,): np.zeros((2, 2)), (1,): np.zeros((2, 2)),
                          (2,): np.zeros((1, 1))})  # wrong dim at (0,)
    op = BlockOperator.identity(2, 1)
    assert op.total_dim == 3 + 2 + 1
    assert abs(op.trace() - 6) < 1e-14


def test_block_operator_json_roundtrip():
    rng = np.random.default_rng(3)
    op = BlockOperator.zeros(3, 2)
    for k in op.blocks:
        d = op.blocks[k].shape[0]
        op.blocks[k] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    op2 = BlockOperator.from_json(op.to_json())
    assert op2.N == op.N
    assert block_maxdiff(op, op2) < 1e-15


def test_block_operator_algebra():
    rng = np.random.default_rng(4)
    a = BlockOperator.zeros(2, 1)
    b = BlockOperator.zeros(2, 1)
    for k in a.blocks:
        d = a.blocks[k].shape[0]
        a.blocks[k] = _random_density(d, rng)
        b.blocks[k] = _random_density(d, rng)
    a = a.scale(1.0 / a.trace().real)
    b = b.scale(1.0 / b.trace().real)
    s = a + b
    assert abs(s.trace() - 2.0) < 1e-12
    prod = matmul(a, b)
    expected = sum(np.trace(a.blocks[k] @ b.blocks[k]) for k in a.blocks)
    assert abs(prod.trace() - expected) < 1e-12
    assert abs(pair_trace(a, b) - expected) < 1e-12
    assert a.max_abs_dev_from_hermitian() < 1e-12  # densities are Hermitian


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("block", [0, 1, 2])
def test_validate_state_rejects_nan_in_any_block(block):
    state = BlockOperator.maximally_mixed(2, 1)
    state.validate_state()
    key = list(state.blocks)[block]
    state.blocks[key][0, -1] = math.nan
    with pytest.raises(ValueError, match="Hermitian"):
        state.validate_state()


def test_twirl_vacuum():
    basis = OccupationBasis(2, 3)
    rho = np.zeros((basis.size, basis.size), dtype=complex)
    rho[0, 0] = 1.0
    out = twirl_analytic(DenseOperator(basis, rho), [0, 0], P1_MULTI, 3)
    assert abs(out.blocks[(0,)][0, 0] - 1.0) < 1e-14
    total = sum(np.sum(np.abs(m)) for k, m in out.blocks.items() if k != (0,))
    assert total < 1e-14
    assert abs(np.sum(np.abs(out.blocks[(0,)])) - 1.0) < 1e-14


def test_twirl_product_state_already_block():
    # |psi><psi|_1 (x) |1><1|_2 twirls to chi_1 = |psi><psi|
    N = 3
    basis = OccupationBasis(2, N)
    psi = np.array([0.6, 0.8j, 0.0], dtype=complex)  # mode-1 support <= N-1
    rho = np.zeros((basis.size, basis.size), dtype=complex)
    for x in range(3):
        for y in range(3):
            rho[basis.index((x, 1)), basis.index((y, 1))] = psi[x] * np.conj(psi[y])
    out = twirl_analytic(DenseOperator(basis, rho), [0, 0], P1_MULTI, N)
    np.testing.assert_allclose(out.blocks[(1,)], np.outer(psi, psi.conj()), atol=1e-14)
    for k in out.blocks:
        if k != (1,):
            assert np.max(np.abs(out.blocks[k])) < 1e-14


def test_twirl_rejects_leakage():
    basis = OccupationBasis(2, 4)
    rho = np.zeros((basis.size, basis.size), dtype=complex)
    rho[basis.index((2, 2)), basis.index((2, 2))] = 1.0
    with pytest.raises(ValueError):
        twirl_analytic(DenseOperator(basis, rho), [0, 0], P1_MULTI, 3)


def test_twirl_preserves_trace_and_psd():
    rng = np.random.default_rng(8)
    basis = OccupationBasis(3, 4)
    for _ in range(3):
        rho = DenseOperator(basis, _random_density(basis.size, rng))
        out = twirl_analytic(rho, [0, 0, 1], P2, 4)
        out.validate_state()


def test_twirl_idempotent_via_full_embedding():
    rng = np.random.default_rng(9)
    basis = OccupationBasis(3, 4)
    rho = DenseOperator(basis, _random_density(basis.size, rng))
    once = twirl_analytic(rho, [0, 0, 1], P2, 4)
    dense = embed_full(once, [0, 0, 1], basis)
    assert abs(np.trace(dense.entries) - 1.0) < 1e-12
    twice = twirl_analytic(dense, [0, 0, 1], P2, 4)
    assert block_maxdiff(once, twice) < 1e-10


@pytest.mark.parametrize("part, assign", [
    (P1_MULTI, [0, 0, 0]), (P2, [0, 0, 1]),
    (PartitionSpec(sectors=P2.sectors, s1_multi=False), [0, 1, 1])])
def test_embed_full_of_json_read_block_is_bitwise_equal(part, assign):
    # the JSON form carries no partition: embed_full reads it from the assignment
    rng = np.random.default_rng(16)
    basis = OccupationBasis(3, 3)
    block = twirl_analytic(DenseOperator(basis, _random_density(basis.size, rng)),
                           assign, part, 3)
    back = BlockOperator.from_json(json.loads(json.dumps(block.to_json())))
    assert embed_full(back, assign, basis).entries.tobytes() == \
        embed_full(block, assign, basis).entries.tobytes()


@pytest.mark.parametrize("assign", [[0, 0, 1], [0, 1, 2]])
def test_embed_full_rejects_assignment_of_other_sector_count(assign):
    # tuple length 1 fits 1 sector with s1_multi or 2 sectors without it
    with pytest.raises(ValueError, match="tuple length 1"):
        embed_full(BlockOperator.maximally_mixed(2, 1), assign, OccupationBasis(3, 2))


def test_twirl_idempotent_via_reduced_embedding():
    rng = np.random.default_rng(10)
    for part, S, assign in [(P1_MULTI, 2, [0, 0]), (P2, 3, [0, 0, 1]),
                            (P1_SINGLE, 1, [0])]:
        basis = OccupationBasis(S, 3)
        rho = DenseOperator(basis, _random_density(basis.size, rng))
        once = twirl_analytic(rho, assign, part, 3)
        red = embed_full(once, reduced_assignment(part),
                         OccupationBasis(1 + once.tuple_length, once.N))
        twice = twirl_analytic(red, reduced_assignment(part), part, 3)
        assert block_maxdiff(once, twice) < 1e-10


def test_twirled_cat_matches_analytic():
    for alpha in [0.8, 1.1 * np.exp(0.4j)]:
        N = 5
        vec = make_state(StateSpec("cat", N=N, alpha=alpha))
        out = twirl_analytic(vec.density(), [0, 0], P1_MULTI, N)
        closed = twirled_closed_form("cat", {"alpha": alpha}, N)
        assert block_maxdiff(out, closed) < 1e-12


def test_twirled_tmsv_matches_analytic():
    N = 6
    r, phi = 0.7, 0.9
    vec = make_state(StateSpec("tmsv", N=N // 2, r=r, phi=phi))
    out = twirl_analytic(vec.density(), [0, 0], P1_MULTI, N)
    closed = twirled_closed_form("tmsv", {"r": r}, N)
    assert block_maxdiff(out, closed) < 1e-12


def test_twirled_tmsv_structure():
    N = 5
    r = 0.5
    out = twirled_closed_form("tmsv", {"r": r}, N)
    t2 = math.tanh(r) ** 2
    z = sum(t2 ** n for n in range(N // 2 + 1))
    for n in range(N // 2 + 1):
        block = out.blocks[(n,)]
        assert abs(block[n, n] - t2 ** n / z) < 1e-12
        assert np.sum(np.abs(block)) - abs(block[n, n]) < 1e-14
    assert abs(out.trace() - 1.0) < 1e-12
    vac = twirled_closed_form("tmsv", {"r": 0.0}, 4)
    assert abs(vac.blocks[(0,)][0, 0] - 1.0) < 1e-14


def test_twirled_closed_form_rejections():
    with pytest.raises(ValueError):
        twirled_closed_form("cat", {"alpha": 0}, 4)
    with pytest.raises(ValueError):
        twirled_closed_form("tmsv", {"r": -1.0}, 4)
    with pytest.raises(ValueError):
        twirled_closed_form("gaussian", {}, 4)


def test_oracle_trivial_group_returns_rho():
    rng = np.random.default_rng(12)
    basis = OccupationBasis(1, 3)
    rho = DenseOperator(basis, _random_density(basis.size, rng))
    out = twirl_oracle_mc(rho, [0], P1_SINGLE, samples=1, seed=42)
    np.testing.assert_allclose(out.entries, rho.entries, atol=1e-14)


def test_oracle_deterministic():
    rng = np.random.default_rng(13)
    basis = OccupationBasis(2, 2)
    rho = DenseOperator(basis, _random_density(basis.size, rng))
    a = twirl_oracle_mc(rho, [0, 0], P1_MULTI, samples=50, seed=7)
    b = twirl_oracle_mc(rho, [0, 0], P1_MULTI, samples=50, seed=7)
    np.testing.assert_allclose(a.entries, b.entries, atol=0)


# samples = stacks * chunk + extra: 1, chunk - 1, chunk, chunk + 1, 2 chunk + 3, where
# chunk is the oracle's stack length over the rest basis (modes 2-5)
@pytest.mark.parametrize("stacks,extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
def test_oracle_matches_per_sample_loop_across_stack_edges(stacks, extra):
    # sector 1 holds modes 1-3, sector 2 modes 4-5: Haar groups [1, 2] and [3, 4]
    basis = OccupationBasis(5, 2)
    samples = stacks * (_STACK_BYTES // (16 * OccupationBasis(4, 2).size ** 2)) + extra
    rho = DenseOperator(basis, _random_density(basis.size, np.random.default_rng(16)))
    rng = np.random.default_rng(99)
    acc = np.zeros_like(rho.entries)
    for _ in range(samples):
        X = np.eye(5, dtype=np.complex128)
        for modes in ([1, 2], [3, 4]):
            X[np.ix_(modes, modes)] = haar_unitary(2, rng)
        U = plt_on_fock(X, basis).entries
        acc += U @ rho.entries @ U.conj().T
    out = twirl_oracle_mc(rho, [0, 0, 0, 1, 1], P2, samples=samples, seed=99)
    assert np.max(np.abs(out.entries - acc / samples)) <= 1e-13


def test_oracle_matches_per_sample_loop_across_a_haar_stack_edge():
    # the oracle draws its Haar blocks per Haar stack, the whole number of Fock
    # stacks whose (4, 4) mode matrices fill _STACK_BYTES; one sample past the
    # first Haar stack, with one 4-mode group [1, 2, 3, 4]
    basis = OccupationBasis(5, 2)
    chunk = _STACK_BYTES // (16 * OccupationBasis(4, 2).size ** 2)
    samples = chunk * (_STACK_BYTES // (16 * 4 ** 2 * chunk)) + 1
    assert samples > 2 * chunk
    rho = DenseOperator(basis, _random_density(basis.size, np.random.default_rng(20)))
    rng = np.random.default_rng(21)
    acc = np.zeros_like(rho.entries)
    for _ in range(samples):
        X = np.eye(5, dtype=np.complex128)
        X[1:, 1:] = haar_unitary(4, rng)
        U = plt_on_fock(X, basis).entries
        acc += U @ rho.entries @ U.conj().T
    out = twirl_oracle_mc(rho, [0] * 5, P1_MULTI, samples=samples, seed=21)
    assert np.max(np.abs(out.entries - acc / samples)) <= 1e-13


@pytest.mark.parametrize("num_modes,assignment,partition", [
    (3, [0, 0, 0], P1_MULTI),  # one Haar group, modes [1, 2]
    (5, [0, 0, 0, 1, 1], P2),  # two groups, [1, 2] and [3, 4]
    (4, [0, 0, 0, 0], P1_MULTI),  # one 3-mode group, [1, 2, 3]
])
def test_oracle_draws_are_bitwise_per_sample_haar(num_modes, assignment, partition):
    # the oracle's stacked draws and Gram-Schmidt against haar_unitary sample by sample,
    # group by group; each stack is mapped onto the rest basis (modes 2..S) and
    # its in-shell products R[a, c] conj(R[b, d]) summed in the oracle's own stacks
    basis = OccupationBasis(num_modes, 2)
    rest = OccupationBasis(num_modes - 1, 2)
    rho = DenseOperator(basis, _random_density(basis.size, np.random.default_rng(17)))
    groups = [[m for m in range(1, num_modes) if assignment[m] == k]
              for k in range(partition.K)]
    pairs = [(a, c) for a in range(rest.size) for c in range(rest.size)
             if sum(rest.states[a]) == sum(rest.states[c])]
    a, c = np.array(pairs).T
    chunk = _STACK_BYTES // (16 * rest.size ** 2)
    samples = 2 * chunk + 3
    rng = np.random.default_rng(5)
    sop = np.zeros((len(pairs), len(pairs)), dtype=np.complex128)
    for start in range(0, samples, chunk):
        X = np.tile(np.eye(num_modes, dtype=np.complex128), (min(chunk, samples - start), 1, 1))
        for x in X:
            for modes in groups:
                x[np.ix_(modes, modes)] = haar_unitary(len(modes), rng)
        F = plt_on_fock(X[:, 1:, 1:], rest)[:, a, c]
        sop += F.T @ F.conj()
    # out[(n, a), (m, b)] sums sop[(a, c), (b, d)] rho[(n, c), (m, d)], c outer, d inner
    terms = [(i, p, basis.index((occ[0],) + rest.states[pairs[p][1]]))
             for i, occ in enumerate(basis.states)
             for p in range(len(pairs)) if rest.states[pairs[p][0]] == occ[1:]]
    row, pair, src = (list(t) for t in zip(*terms))
    product = sop[np.ix_(pair, pair)] * rho.entries[np.ix_(src, src)]
    acc = np.zeros_like(rho.entries)
    for t, i in enumerate(row):
        for u, j in enumerate(row):
            acc[i, j] += product[t, u]
    out = twirl_oracle_mc(rho, assignment, partition, samples=samples, seed=5)
    assert out.entries.tobytes() == (acc / samples).tobytes()


@pytest.mark.parametrize("bad", [0, 162, 163, 999])
def test_oracle_checks_every_sample_of_its_haar_stack(monkeypatch, bad):
    # the bench shape draws one Haar stack of 1000 samples and maps it in Fock
    # stacks of 163; one matrix off unitarity by 1e-6, in any of them, is refused
    draw = twirl._haar_stack

    def off(*args):
        X = draw(*args)
        X[bad] *= 1.0 + 1e-6
        return X
    monkeypatch.setattr(twirl, "_haar_stack", off)
    basis = OccupationBasis(3, 3)
    rho = DenseOperator(basis, _random_density(basis.size, np.random.default_rng(22)))
    with pytest.raises(ValueError, match="not unitary"):
        twirl_oracle_mc(rho, [0, 0, 0], P1_MULTI, samples=1000, seed=23)


_ETAS = ((0.6, 0.8), (0.5, math.sqrt(0.75)), (0.8, 0.6), (0.28, 0.96))


@st.composite
def _oracle_case(draw):
    # mode 1 in sector 1; every other mode in sector 1 or in a sector numbered
    # by first appearance, so that each sector holds at least one mode
    S = draw(st.integers(1, 4))
    cutoff = draw(st.integers(1, 3))
    raw = draw(st.lists(st.integers(0, S - 1), min_size=S - 1, max_size=S - 1))
    named = list(dict.fromkeys(s for s in raw if s))
    assignment = [0] + [named.index(s) + 1 if s else 0 for s in raw]
    K = max(assignment) + 1
    partition = PartitionSpec(sectors=_ETAS[:K], s1_multi=assignment.count(0) > 1)
    chunk = _STACK_BYTES // (16 * OccupationBasis(S - 1, cutoff).size ** 2) if S > 1 else 1
    samples = draw(st.integers(1, chunk + 2))
    return S, cutoff, assignment, partition, samples, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=25, deadline=None)
@example((1, 3, [0], P1_SINGLE, 2, 0))
@example((2, 2, [0, 1], P2_SINGLE, 3, 1))  # mode 1 alone in sector 1
@example((4, 2, [0, 0, 1, 1], P2, 164, 2))  # two Haar groups, one stack and one sample
@example((4, 2, [0, 1, 1, 2], PartitionSpec(sectors=_ETAS[:3], s1_multi=False), 2, 3))
@given(_oracle_case())
def test_oracle_property_matches_loop_hermitian_trace(case):
    S, cutoff, assignment, partition, samples, seed = case
    basis = OccupationBasis(S, cutoff)
    rho = DenseOperator(basis, _random_density(basis.size, np.random.default_rng(seed)))
    groups = [[m for m in range(1, S) if assignment[m] == k] for k in range(partition.K)]
    rng = np.random.default_rng(seed)
    acc = np.zeros_like(rho.entries)
    for _ in range(samples):
        X = np.eye(S, dtype=np.complex128)
        for modes in groups:
            if modes:
                X[np.ix_(modes, modes)] = haar_unitary(len(modes), rng)
        U = plt_on_fock(X, basis).entries
        acc += U @ rho.entries @ U.conj().T
    out = twirl_oracle_mc(rho, assignment, partition, samples=samples, seed=seed).entries
    assert np.max(np.abs(out - acc / samples)) <= 1e-13
    assert np.max(np.abs(out - out.conj().T)) <= 1e-13
    assert abs(np.trace(out) - np.trace(rho.entries)) <= 1e-12


@pytest.mark.parametrize("samples", [True, 2.5, np.float64(3.0), "3", None, 0, -2])
def test_oracle_refuses_samples_that_are_not_positive_integers(samples):
    basis = OccupationBasis(2, 2)
    rho = DenseOperator(basis, _random_density(basis.size, np.random.default_rng(18)))
    with pytest.raises(ValueError, match="samples"):
        twirl_oracle_mc(rho, [0, 0], P1_MULTI, samples=samples, seed=0)


def test_oracle_accepts_numpy_integer_samples():
    basis = OccupationBasis(2, 2)
    rho = DenseOperator(basis, _random_density(basis.size, np.random.default_rng(18)))
    a = twirl_oracle_mc(rho, [0, 0], P1_MULTI, samples=np.int64(5), seed=3)
    b = twirl_oracle_mc(rho, [0, 0], P1_MULTI, samples=5, seed=3)
    assert a.entries.tobytes() == b.entries.tobytes()


@pytest.mark.parametrize("S, cutoff", [(1, 0), (1, 6), (2, 3), (3, 4), (5, 2), (4, 0)])
def test_index_arithmetic_matches_basis_index(S, cutoff):
    # the oracle's (row, pair, source) triples take their basis indices from _indices
    basis = OccupationBasis(S, cutoff)
    occ = np.array(basis.states, dtype=np.int64).reshape(basis.size, S)
    order = np.random.default_rng(S + cutoff).permutation(basis.size)
    got = _indices(basis, occ[order].reshape(1, basis.size, S))
    assert got.shape == (1, basis.size)
    assert got[0].tolist() == [basis.index(occ[i]) for i in order]


def test_oracle_memory_on_the_criterion_05_shape():
    # tracemalloc peak of one 1000-sample oracle call: 3 modes, N = 3, all in sector 1
    basis = OccupationBasis(3, 3)
    rho = DenseOperator(basis, _random_density(basis.size, np.random.default_rng(19)))
    tracemalloc.start()
    try:
        twirl_oracle_mc(rho, [0, 0, 0], P1_MULTI, samples=1000, seed=2024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * 2 ** 20


def test_oracle_converges_to_analytic():
    rng = np.random.default_rng(14)
    basis = OccupationBasis(3, 3)
    v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    v /= np.linalg.norm(v)
    rho = DenseOperator(basis, np.outer(v, v.conj()))
    part = PartitionSpec(sectors=((1 / math.sqrt(2), 1 / math.sqrt(2)),), s1_multi=True)
    analytic = embed_full(twirl_analytic(rho, [0, 0, 0], part, 3), [0, 0, 0], basis)
    mc = twirl_oracle_mc(rho, [0, 0, 0], part, samples=10_000, seed=2024)
    assert np.max(np.abs(mc.entries - analytic.entries)) < 5e-3


def test_block_fidelity_matches_dense_embedding():
    rng = np.random.default_rng(15)
    basis = OccupationBasis(2, 3)
    a = twirl_analytic(DenseOperator(basis, _random_density(basis.size, rng)),
                       [0, 0], P1_MULTI, 3)
    b = twirl_analytic(DenseOperator(basis, _random_density(basis.size, rng)),
                       [0, 0], P1_MULTI, 3)
    f_block = fidelity(a, b)
    reduced = reduced_assignment(P1_MULTI), OccupationBasis(1 + a.tuple_length, a.N)
    f_dense = fidelity(embed_full(a, *reduced), embed_full(b, *reduced))
    assert abs(f_block - f_dense) < 1e-9


def test_assignment_validation():
    basis = OccupationBasis(2, 2)
    rho = DenseOperator(basis, np.diag([1.0] + [0.0] * (basis.size - 1)))
    with pytest.raises(ValueError):
        twirl_analytic(rho, [1, 0], P2, 2)  # mode 1 not in sector 1
    with pytest.raises(ValueError):
        twirl_analytic(rho, [0, 0], P2, 2)  # sector 2 empty
    with pytest.raises(ValueError):
        twirl_analytic(rho, [0, 1], P2, 2)  # s1_multi mismatch (P2 says multi)
    for call in (lambda: twirl_analytic(rho, [0, 0, 1], P2, 2),
                 lambda: twirl_oracle_mc(rho, [0, 0, 1], P2, samples=1, seed=0),
                 lambda: embed_full(BlockOperator.maximally_mixed(2, 2), [0, 0, 1], basis)):
        with pytest.raises(ValueError, match="mode count"):
            call()


@pytest.mark.parametrize("K, s1_multi, slots", [
    (1, True, [0]), (1, False, []), (2, True, [0, 1]), (2, False, [1]), (3, False, [1, 2])])
def test_slot_sectors_and_reduced_assignment(K, s1_multi, slots):
    part = PartitionSpec(sectors=((0.6, 0.8), (0.5, math.sqrt(0.75)), (0.8, 0.6))[:K],
                         s1_multi=s1_multi)
    assert list(slot_sectors(K, s1_multi)) == slots
    assert reduced_assignment(part) == [0] + slots


@pytest.mark.parametrize("part, assign, twirled, embedded", [
    (P2_SINGLE, [0, 1], "a321da4c1d78a6ba466526e4c10d8d2899effdce251434e8802ed0faddc6c785",
     "c044d7b86bffd43f6c14e37a9d16c24d25fd08d023bae2e3bb5b2239b73a4780"),
    (P2, [0, 0, 1], "bf297f447be136d1936beb463fae8e9fd8882a7120e46c4b35d7a92fb997126b",
     "302bd4e323161356a427ecf93a78c9015a1f6dc000072e908bf0761d28125671")])
def test_twirl_and_embedding_bytes_are_pinned(part, assign, twirled, embedded):
    # a Hermitian matrix from literal numbers (no RNG, no BLAS) at cutoff 3
    basis = OccupationBasis(len(assign), 3)
    n = basis.size
    rho = DenseOperator(basis, np.array([[complex(1 + i + j, i - j) / (3 + 5 * i * j)
                                          for j in range(n)] for i in range(n)]))
    op = twirl_analytic(rho, assign, part, 3)
    assert hashlib.sha256(b"".join(m.tobytes() for m in op.blocks.values())).hexdigest() == twirled
    assert hashlib.sha256(embed_full(op, assign, basis).entries.tobytes()).hexdigest() == embedded
