import itertools
import math

import numpy as np
import pytest

from wfhtomo.fock import DenseOperator, OccupationBasis, StateSpec, fidelity, make_state
from wfhtomo.optics import PartitionSpec, haar_unitary, plt_on_fock
from wfhtomo.twirl import (
    _STACK_BYTES,
    BlockOperator,
    block_tuples,
    embed_full,
    embed_reduced,
    reduced_assignment,
    twirl_analytic,
    twirl_oracle_mc,
    twirled_closed_form,
)

P1_MULTI = PartitionSpec(sectors=((1 / math.sqrt(2), 1 / math.sqrt(2)),), s1_multi=True)
P1_SINGLE = PartitionSpec(sectors=((0.6, 0.8),), s1_multi=False)
P2 = PartitionSpec(sectors=((0.6, 0.8), (0.5, math.sqrt(0.75))), s1_multi=True)


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
    prod = a @ b
    expected = sum(np.trace(a.blocks[k] @ b.blocks[k]) for k in a.blocks)
    assert abs(prod.trace() - expected) < 1e-12
    assert abs(a.pair_trace(b) - expected) < 1e-12
    assert block_maxdiff(a.dagger(), a) < 1e-12  # densities are Hermitian


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


def test_twirl_idempotent_via_reduced_embedding():
    rng = np.random.default_rng(10)
    for part, S, assign in [(P1_MULTI, 2, [0, 0]), (P2, 3, [0, 0, 1]),
                            (P1_SINGLE, 1, [0])]:
        basis = OccupationBasis(S, 3)
        rho = DenseOperator(basis, _random_density(basis.size, rng))
        once = twirl_analytic(rho, assign, part, 3)
        red = embed_reduced(once)
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


# samples = stacks * chunk + extra: 1, chunk - 1, chunk, chunk + 1, 2 chunk + 3
@pytest.mark.parametrize("stacks,extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
def test_oracle_matches_per_sample_loop_across_stack_edges(stacks, extra):
    # sector 1 holds modes 1-3, sector 2 modes 4-5: Haar groups [1, 2] and [3, 4]
    basis = OccupationBasis(5, 2)
    samples = stacks * (_STACK_BYTES // (16 * basis.size ** 2)) + extra
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


@pytest.mark.parametrize("num_modes,assignment,partition", [
    (3, [0, 0, 0], P1_MULTI),  # one Haar group, modes [1, 2]
    (5, [0, 0, 0, 1, 1], P2),  # two groups, [1, 2] and [3, 4]
])
def test_oracle_draws_are_bitwise_per_sample_haar(num_modes, assignment, partition):
    # the oracle's stacked draws and QR against haar_unitary sample by sample,
    # group by group, mapped and summed in the oracle's own stacks
    basis = OccupationBasis(num_modes, 2)
    rho = DenseOperator(basis, _random_density(basis.size, np.random.default_rng(17)))
    groups = [[m for m in range(1, num_modes) if assignment[m] == k]
              for k in range(partition.K)]
    chunk = _STACK_BYTES // (16 * basis.size ** 2)
    samples = 2 * chunk + 3
    rng = np.random.default_rng(5)
    acc = np.zeros_like(rho.entries)
    for start in range(0, samples, chunk):
        X = np.tile(np.eye(num_modes, dtype=np.complex128), (min(chunk, samples - start), 1, 1))
        for x in X:
            for modes in groups:
                x[np.ix_(modes, modes)] = haar_unitary(len(modes), rng)
        U = plt_on_fock(X, basis)
        acc += (U @ rho.entries @ U.conj().transpose(0, 2, 1)).sum(0)
    out = twirl_oracle_mc(rho, assignment, partition, samples=samples, seed=5)
    assert out.entries.tobytes() == (acc / samples).tobytes()


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
    f_dense = fidelity(embed_reduced(a), embed_reduced(b))
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
