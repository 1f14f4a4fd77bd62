import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfhtomo.fock import OccupationBasis
from wfhtomo.optics import (
    ModeMatrix,
    PartitionSpec,
    haar_from_normals,
    haar_unitary,
    number_power_antinormal,
    number_power_normal,
    plt_on_fock,
    _shell_plan,
    standard_block,
    standardize_bs,
)

from haar_reference import haar_reference
from plt_reference import plt_reference


def _phased_block(eta: float, p1: float = 0.0, p2: float = 0.0, p3: float = 0.0) -> np.ndarray:
    zeta = math.sqrt(1 - eta * eta)
    core = np.array([[eta, zeta], [-zeta, eta]], dtype=complex)
    d1 = np.diag([np.exp(1j * p1), np.exp(1j * p2)])
    d2 = np.diag([1.0, np.exp(1j * p3)])
    return d1 @ core @ d2


def test_standardize_balanced_complex_block():
    b = np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2)
    p = standardize_bs([b])
    assert p.K == 1
    assert not p.s1_multi
    eta, zeta = p.sectors[0]
    assert abs(eta - 1 / math.sqrt(2)) < 1e-12
    assert abs(zeta - 1 / math.sqrt(2)) < 1e-12


def test_standardize_groups_equal_eta():
    p = standardize_bs([_phased_block(0.7, 0.2), _phased_block(0.7, 1.4, 0.3)])
    assert p.K == 1
    assert p.s1_multi
    assert abs(p.sectors[0][0] - 0.7) < 1e-12


def test_standardize_experimental_ratios():
    b1 = _phased_block(math.sqrt(0.4946), 0.5)
    b2 = _phased_block(math.sqrt(0.2642), 1.1, 0.2, 0.7)
    p = standardize_bs([b1, b2])
    assert p.K == 2
    assert not p.s1_multi
    assert abs(p.sectors[0][0] - math.sqrt(0.4946)) < 1e-12
    assert abs(p.sectors[0][1] - math.sqrt(0.5054)) < 1e-9
    assert abs(p.sectors[1][0] - math.sqrt(0.2642)) < 1e-12
    assert abs(p.sectors[1][1] - math.sqrt(0.7358)) < 1e-9


def test_standardize_mode1_sector_first():
    p = standardize_bs([_phased_block(0.6), _phased_block(0.8), _phased_block(0.6)])
    assert p.K == 2
    assert p.s1_multi
    assert abs(p.sectors[0][0] - 0.6) < 1e-12
    assert abs(p.sectors[1][0] - 0.8) < 1e-12


def test_standardize_rejections():
    with pytest.raises(ValueError):
        standardize_bs([np.eye(2)])  # trivial: eta = 1
    with pytest.raises(ValueError):
        standardize_bs([np.array([[0, 1], [1, 0]], dtype=complex)])  # trivial: eta = 0
    with pytest.raises(ValueError):
        standardize_bs([np.array([[0.7, 0.7], [0.7, -0.7]])])  # not unitary


def test_partition_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec(sectors=((0.6, 0.8), (0.6, 0.8)), s1_multi=False)
    with pytest.raises(ValueError):
        PartitionSpec(sectors=((0.6, 0.7),), s1_multi=False)
    with pytest.raises(ValueError):
        PartitionSpec(sectors=((1.0, 0.0),), s1_multi=False)
    p = PartitionSpec(sectors=((0.6, 0.8),), s1_multi=True)
    assert PartitionSpec.from_json(p.to_json()) == p


def test_plt_identity_and_swap():
    basis = OccupationBasis(2, 2)
    ident = plt_on_fock(np.eye(2), basis)
    np.testing.assert_allclose(ident.entries, np.eye(basis.size), atol=1e-14)
    swap = plt_on_fock(np.array([[0, 1], [1, 0]]), basis)
    col = swap.entries[:, basis.index((1, 0))]
    expected = np.zeros(basis.size)
    expected[basis.index((0, 1))] = 1.0
    np.testing.assert_allclose(col, expected, atol=1e-14)


def test_plt_balanced_single_photon():
    basis = OccupationBasis(2, 1)
    s = 1 / math.sqrt(2)
    u = plt_on_fock(standard_block(s, s), basis)
    col = u.entries[:, basis.index((1, 0))]
    expected = np.zeros(basis.size, dtype=complex)
    expected[basis.index((1, 0))] = s
    expected[basis.index((0, 1))] = s
    np.testing.assert_allclose(col, expected, atol=1e-14)


def _brute_force_plt(U: np.ndarray, basis: OccupationBasis) -> np.ndarray:
    """Independent construction: apply transformed creation operators literally."""
    dim = basis.size
    S = basis.num_modes
    adag = []
    for j in range(S):
        m = np.zeros((dim, dim))
        for b, occ in enumerate(basis.states):
            if sum(occ) < basis.cutoff:
                tgt = list(occ)
                tgt[j] += 1
                m[basis.index(tgt), b] = math.sqrt(occ[j] + 1)
        adag.append(m)
    combos = [sum(U[j, i] * adag[j] for j in range(S)) for i in range(S)]
    out = np.zeros((dim, dim), dtype=complex)
    for col, occ in enumerate(basis.states):
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        for i in range(S):
            for _ in range(occ[i]):
                v = combos[i] @ v
        norm = math.sqrt(math.prod(math.factorial(n) for n in occ))
        out[:, col] = v / norm
    return out


def test_plt_matches_brute_force():
    rng = np.random.default_rng(11)
    for S, N in [(2, 3), (3, 2)]:
        basis = OccupationBasis(S, N)
        U = haar_unitary(S, rng)
        fast = plt_on_fock(U, basis).entries
        slow = _brute_force_plt(U, basis)
        np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_plt_unitary_and_number_conserving():
    rng = np.random.default_rng(5)
    for S, N in [(2, 6), (3, 4)]:
        basis = OccupationBasis(S, N)
        U = haar_unitary(S, rng)
        V = plt_on_fock(U, basis).entries
        np.testing.assert_allclose(V.conj().T @ V, np.eye(basis.size), atol=1e-10)
        ntot = np.diag(basis.totals.astype(float))
        assert np.max(np.abs(V @ ntot - ntot @ V)) < 1e-10


def test_plt_homomorphism():
    rng = np.random.default_rng(29)
    for S, N in [(2, 5), (3, 6)]:
        basis = OccupationBasis(S, N)
        U = haar_unitary(S, rng)
        W = haar_unitary(S, rng)
        lhs = plt_on_fock(U, basis).entries @ plt_on_fock(W, basis).entries
        rhs = plt_on_fock(U @ W, basis).entries
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def _haar_stack(S: int, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([haar_unitary(S, rng) for _ in range(size)])


@settings(max_examples=40, deadline=None)
@given(S=st.integers(1, 3), cutoff=st.integers(0, 4), size=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_plt_stack_matches_single_calls_and_composes(S, cutoff, size, seed):
    basis = OccupationBasis(S, cutoff)
    U = _haar_stack(S, size, seed)
    W = _haar_stack(S, size, seed + 1)
    stacked = plt_on_fock(U, basis)
    assert stacked.shape == (size, basis.size, basis.size)
    single = np.stack([plt_on_fock(u, basis).entries for u in U])
    assert np.max(np.abs(stacked - single)) <= 1e-13
    composed = plt_on_fock(U @ W, basis)
    assert np.max(np.abs(stacked @ plt_on_fock(W, basis) - composed)) <= 1e-13


@settings(max_examples=40, deadline=None)
@example(S=1, cutoff=0, size=1, seed=0)
@example(S=1, cutoff=5, size=2, seed=1)
@example(S=4, cutoff=0, size=3, seed=2)
@example(S=4, cutoff=5, size=5, seed=3)
@given(S=st.integers(1, 4), cutoff=st.integers(0, 5), size=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_plt_shell_map_matches_per_mode_reference(S, cutoff, size, seed):
    # shells held as (rows, B, cols) with a shared plan, against the recursion on
    # the dense stack that rebuilds its tables on every call: the same products
    # and sums in the same order, so the same bits
    basis = OccupationBasis(S, cutoff)
    U = _haar_stack(S, size, seed)
    assert plt_on_fock(U, basis).tobytes() == plt_reference(U, basis).tobytes()


@pytest.mark.parametrize("S, cutoff", [(1, 0), (1, 4), (3, 0), (2, 3), (3, 3), (4, 2)])
def test_plt_is_exactly_zero_off_shell(S, cutoff):
    basis = OccupationBasis(S, cutoff)
    dense = plt_on_fock(_haar_stack(S, 3, 41), basis)
    off = basis.totals[:, None] != basis.totals
    assert not np.any(dense[:, off])
    assert np.all(np.abs(dense[:, ~off]).sum(axis=0) > 0)


def test_plt_shell_plan_is_shared_and_read_only():
    # one plan per (S, cutoff) serves every call, so no call may write into it
    basis = OccupationBasis(3, 3)
    before = plt_on_fock(_haar_stack(3, 2, 5), basis)
    plan = _shell_plan(3, 3)
    assert plan is _shell_plan(3, 3) and len(plan) == 3
    for mid, hi, *arrays in plan:
        assert all(not x.flags.writeable for x in arrays)
        with pytest.raises(ValueError):
            arrays[0][...] = 0
    assert plt_on_fock(_haar_stack(3, 2, 5), basis).tobytes() == before.tobytes()


@pytest.mark.parametrize("S", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cutoff", [0, 1, 2, 3, 4, 5])
def test_plt_shell_plan_runs_match_their_rows(S, cutoff):
    # a recorded run [start, stop) is its mode's target row; a row without one
    # is not a run of consecutive targets
    for shell, (mid, hi, rows, *_, runs) in enumerate(_shell_plan(S, cutoff), start=1):
        assert runs.shape == (S, 2) and not runs.flags.writeable
        for j, (row, (start, stop)) in enumerate(zip(rows, runs)):
            if stop < 0:
                assert (start, stop) == (0, -1)
                assert np.any(np.diff(row) != 1)
            else:
                assert np.array_equal(row, np.arange(start, stop))
            assert (stop >= 0) == (S <= 2 or shell == 1 or j == 0)


def test_mode_matrix_sub_stack_is_a_view_that_maps_like_the_slice():
    X = _haar_stack(3, 7, 11)
    checked = ModeMatrix(X)
    basis = OccupationBasis(3, 3)
    for i, j in [(0, 7), (2, 5), (6, 7)]:
        sub = checked[i:j]
        assert isinstance(sub, ModeMatrix) and sub.entries.base is X
        assert plt_on_fock(sub, basis).tobytes() == plt_on_fock(X[i:j], basis).tobytes()
    one = plt_on_fock(checked[4], basis)
    assert one.entries.tobytes() == plt_on_fock(X[4], basis).entries.tobytes()
    with pytest.raises(TypeError):
        checked[4][0]


@settings(max_examples=20, deadline=None)
@given(S=st.integers(1, 3), size=st.integers(1, 4), data=st.data(),
       seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-9, 1.0) | st.floats(-1.0, -1e-9) | st.just(math.nan))
def test_plt_stack_rejects_one_non_unitary_matrix(S, size, data, seed, scale):
    U = _haar_stack(S, size, seed)
    U[data.draw(st.integers(0, size - 1))] *= 1.0 + scale
    with pytest.raises(ValueError, match="not unitary"):
        plt_on_fock(U, OccupationBasis(S, 2))


def test_plt_coherent_transport():
    # U|v> is coherent with amplitude vector U v
    basis = OccupationBasis(2, 12)
    B = _phased_block(0.6, 0.5, 1.1, 0.3)
    v_in = np.array([0.2, 0.4], dtype=complex)
    v_out = B @ v_in

    def coh2(v):
        amps = np.zeros(basis.size, dtype=complex)
        for i, (n, m) in enumerate(basis):
            amps[i] = (v[0] ** n / math.sqrt(math.factorial(n))) * \
                      (v[1] ** m / math.sqrt(math.factorial(m)))
        return amps * math.exp(-(abs(v[0]) ** 2 + abs(v[1]) ** 2) / 2)

    U = plt_on_fock(B, basis).entries
    got = U @ coh2(v_in)
    np.testing.assert_allclose(got, coh2(v_out), atol=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(), (1,), (2,), (3,), (4,), (5,)])
def test_haar_matches_phase_fixed_qr_reference(n, shape):
    # () is a single (2, n, n) input, as haar_unitary passes it
    z = np.random.default_rng([n, *shape]).standard_normal(shape + (2, n, n))
    got = haar_from_normals(z)
    assert got.shape == shape + (n, n)
    assert np.max(np.abs(got - haar_reference(z))) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_haar_stack_matches_single_calls_bit_for_bit(n):
    rng = np.random.default_rng(n)
    z = rng.standard_normal((2, 3, 2, n, n))
    stacked = haar_from_normals(z)
    single = np.array([[haar_from_normals(m) for m in row] for row in z])
    assert stacked.tobytes() == single.tobytes()
    # haar_unitary draws its normals as one (2, n, n) block
    again = np.random.default_rng(n)
    assert haar_unitary(n, again).tobytes() == single[0, 0].tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
def test_haar_is_unitary_on_near_dependent_columns(n, eps):
    # every column is column 0 plus eps times noise; the second projection
    # keeps the basis orthonormal to rounding, well inside ModeMatrix's 1e-10
    z = np.random.default_rng(n).standard_normal((50, 2, n, n))
    z[..., 1:] = z[..., :1] + eps * z[..., 1:]
    q = haar_from_normals(z)
    gram = np.einsum("bji,bjk->bik", q.conj(), q)
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12
    ModeMatrix(q)


def test_plt_dimension_mismatch():
    with pytest.raises(ValueError):
        plt_on_fock(np.eye(3), OccupationBasis(2, 2))
    with pytest.raises(ValueError):
        ModeMatrix(np.array([[1, 1], [0, 1]], dtype=complex))


def _ladders(basis: OccupationBasis):
    dim = basis.size
    a_ops = []
    for j in range(basis.num_modes):
        m = np.zeros((dim, dim))
        for b, occ in enumerate(basis.states):
            if occ[j] > 0:
                tgt = list(occ)
                tgt[j] -= 1
                m[basis.index(tgt), b] = math.sqrt(occ[j])
        a_ops.append(m)
    return a_ops


def _brute_normal(k: int, basis: OccupationBasis) -> np.ndarray:
    a_ops = _ladders(basis)
    dim = basis.size
    out = np.zeros((dim, dim))
    idxs = [[]] if k == 0 else None
    import itertools
    for combo in itertools.product(range(basis.num_modes), repeat=k):
        term = np.eye(dim)
        for i in combo:
            term = a_ops[i] @ term
        for i in combo:
            term = a_ops[i].T @ term
        out += term
    return out


def _brute_antinormal(k: int, basis: OccupationBasis) -> np.ndarray:
    # raise first, so build on a padded basis and restrict (graded order makes
    # the unpadded basis a prefix of the padded one)
    padded = OccupationBasis(basis.num_modes, basis.cutoff + k)
    a_ops = _ladders(padded)
    dim = padded.size
    out = np.zeros((dim, dim))
    import itertools
    for combo in itertools.product(range(basis.num_modes), repeat=k):
        term = np.eye(dim)
        for i in combo:
            term = a_ops[i].T @ term
        for i in combo:
            term = a_ops[i] @ term
        out += term
    n = basis.size
    return out[:n, :n]


def test_number_power_examples():
    b1 = OccupationBasis(1, 4)
    assert np.allclose(number_power_normal(0, b1).entries, np.eye(5))
    assert abs(number_power_normal(2, b1).entries[3, 3] - 6.0) < 1e-12
    assert abs(number_power_antinormal(1, b1).entries[2, 2] - 3.0) < 1e-12  # m+1 at m=2
    b2 = OccupationBasis(2, 3)
    assert abs(number_power_antinormal(1, b2).entries[0, 0] - 2.0) < 1e-12
    assert np.allclose(number_power_antinormal(0, b2).entries, np.eye(b2.size))


def test_number_power_brute_force():
    for S, N in [(1, 8), (2, 5), (3, 4)]:
        basis = OccupationBasis(S, N)
        for k in range(0, 5):
            np.testing.assert_allclose(
                number_power_normal(k, basis).entries.real,
                _brute_normal(k, basis), atol=1e-10)
            np.testing.assert_allclose(
                number_power_antinormal(k, basis).entries.real,
                _brute_antinormal(k, basis), atol=1e-10)


def test_number_power_coherent_expectation():
    # <alpha| (n)_k |alpha> = |alpha|^(2k)
    basis = OccupationBasis(1, 40)
    alpha = 0.8
    probs = np.array([math.exp(-alpha ** 2) * alpha ** (2 * n) / math.factorial(n)
                      for n in range(41)])
    for k in range(1, 5):
        vals = np.diag(number_power_normal(k, basis).entries).real
        assert abs(float(probs @ vals) - alpha ** (2 * k)) < 1e-8
