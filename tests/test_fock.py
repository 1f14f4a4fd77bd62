import math

import numpy as np
import pytest

from wfhtomo.fock import (
    DenseOperator,
    OccupationBasis,
    StateSpec,
    fidelity,
    make_state,
    truncation_fidelity,
)
from wfhtomo.twirl import BlockOperator


def test_basis_single_mode():
    b = OccupationBasis(1, 2)
    assert list(b) == [(0,), (1,), (2,)]


def test_basis_graded_lex_two_modes():
    b = OccupationBasis(2, 1)
    assert list(b) == [(0, 0), (0, 1), (1, 0)]


def test_basis_sizes_match_binomial():
    for S in range(1, 6):
        for N in range(0, 9):
            b = OccupationBasis(S, N)
            assert b.size == math.comb(N + S, S)
            assert len(set(b.states)) == b.size  # duplicate-free


def test_basis_graded_then_lex():
    b = OccupationBasis(3, 4)
    totals = [sum(s) for s in b.states]
    assert totals == sorted(totals)
    for t in range(5):
        group = [s for s in b.states if sum(s) == t]
        assert group == sorted(group)


def test_basis_index_roundtrip():
    b = OccupationBasis(3, 3)
    for i, s in enumerate(b):
        assert b.index(s) == i
    with pytest.raises(ValueError):
        b.index((4, 0, 0))
    with pytest.raises(ValueError):
        b.index((1, 1))


def test_make_state_coherent_vacuum():
    v = make_state(StateSpec("coherent", N=3, alpha=0))
    expected = np.zeros(4)
    expected[0] = 1.0
    np.testing.assert_allclose(v.amplitudes, expected, atol=1e-15)


def test_make_state_coherent_alpha1_n1():
    v = make_state(StateSpec("coherent", N=1, alpha=1.0))
    np.testing.assert_allclose(v.amplitudes, np.array([1, 1]) / math.sqrt(2), atol=1e-14)


def test_make_state_tmsv_r0():
    v = make_state(StateSpec("tmsv", N=4, r=0.0, phi=1.3))
    assert v.basis == OccupationBasis(2, 8)
    assert abs(v.amplitudes[v.basis.index((0, 0))] - 1.0) < 1e-14
    assert np.count_nonzero(np.abs(v.amplitudes) > 1e-15) == 1


def test_make_state_tmsv_coefficients():
    r, phi, N = 0.7, 0.4, 5
    v = make_state(StateSpec("tmsv", N=N, r=r, phi=phi))
    q = -np.exp(1j * phi) * math.tanh(r)
    raw = np.zeros(v.basis.size, dtype=complex)
    for n in range(N + 1):
        raw[v.basis.index((n, n))] = q ** n
    raw /= np.linalg.norm(raw)
    np.testing.assert_allclose(v.amplitudes, raw, atol=1e-14)


def test_make_state_cat_from_coherent_superposition():
    # independent construction: c (|a>|-a> - |-a>|a>), then truncate by total
    alpha, N = 0.8, 6
    big = 30
    ca = np.array([alpha ** n / math.sqrt(math.factorial(n)) for n in range(big + 1)])
    cm = np.array([(-alpha) ** n / math.sqrt(math.factorial(n)) for n in range(big + 1)])
    basis = OccupationBasis(2, N)
    raw = np.zeros(basis.size, dtype=complex)
    for i, (n, m) in enumerate(basis):
        raw[i] = ca[n] * cm[m] - cm[n] * ca[m]
    raw /= np.linalg.norm(raw)
    v = make_state(StateSpec("cat", N=N, alpha=alpha))
    # global phase must match too (both use the same sign convention)
    np.testing.assert_allclose(v.amplitudes, raw, atol=1e-12)


def test_make_state_norms():
    specs = [
        StateSpec("coherent", N=4, alpha=1.2 + 0.3j),
        StateSpec("tmsv", N=3, r=0.9, phi=2.0),
        StateSpec("cat", N=5, alpha=0.9 * np.exp(0.7j)),
    ]
    for s in specs:
        assert abs(np.linalg.norm(make_state(s).amplitudes) - 1.0) < 1e-12


def test_make_state_rejections():
    with pytest.raises(ValueError):
        StateSpec("tmsv", N=3, r=-0.1)
    with pytest.raises(ValueError):
        make_state(StateSpec("cat", N=3, alpha=0))
    with pytest.raises(ValueError):
        StateSpec("squeezed", N=3, alpha=1.0)


def test_statespec_json_roundtrip():
    for s in [StateSpec("coherent", N=5, alpha=0.2 + 0.2j),
              StateSpec("tmsv", N=4, r=0.5, phi=0.25),
              StateSpec("cat", N=6, alpha=1.0j)]:
        s2 = StateSpec.from_json(s.to_json())
        assert s2 == s


def test_truncation_fidelity_examples():
    assert abs(truncation_fidelity(StateSpec("coherent", N=5, alpha=0.9)) - 0.9998) < 1e-4
    assert truncation_fidelity(StateSpec("tmsv", N=10, r=0.5)) >= 0.9999
    assert truncation_fidelity(StateSpec("coherent", N=2, alpha=0)) == 1.0


def _numeric_truncation_fidelity(spec: StateSpec, big: int) -> float:
    """Oracle: build the state at a much larger cutoff, project onto total <= N."""
    if spec.kind == "coherent":
        full = np.array([spec.alpha ** n / math.sqrt(math.factorial(n)) for n in range(big + 1)],
                        dtype=complex)
        full *= math.exp(-abs(spec.alpha) ** 2 / 2)
        keep = np.abs(np.arange(big + 1)) <= spec.N
    elif spec.kind == "tmsv":
        basis = OccupationBasis(2, 2 * big)
        full = np.zeros(basis.size, dtype=complex)
        q = -np.exp(1j * spec.phi) * math.tanh(spec.r)
        for n in range(big + 1):
            full[basis.index((n, n))] = q ** n / math.cosh(spec.r)
        keep = np.array([n <= spec.N and m <= spec.N and n == m for (n, m) in basis])
    else:
        basis = OccupationBasis(2, big)
        a = spec.alpha
        ca = np.array([a ** n / math.sqrt(math.factorial(n)) for n in range(big + 1)])
        cm = np.array([(-a) ** n / math.sqrt(math.factorial(n)) for n in range(big + 1)])
        full = np.zeros(basis.size, dtype=complex)
        for i, (n, m) in enumerate(basis):
            full[i] = ca[n] * cm[m] - cm[n] * ca[m]
        full *= math.exp(-abs(a) ** 2)
        norm2 = 2 * (1 - math.exp(-4 * abs(a) ** 2))
        full /= math.sqrt(norm2)
        keep = np.array([n + m <= spec.N for (n, m) in basis])
    assert abs(np.linalg.norm(full) - 1.0) < 1e-12  # big cutoff captures the state
    return float(np.linalg.norm(full[keep]) ** 2)


def test_truncation_fidelity_matches_numeric_projection():
    cases = [
        StateSpec("coherent", N=3, alpha=1.1 * np.exp(0.3j)),
        StateSpec("coherent", N=6, alpha=0.9),
        StateSpec("tmsv", N=4, r=0.6, phi=1.0),
        StateSpec("cat", N=5, alpha=0.8),
        StateSpec("cat", N=4, alpha=1.2 * np.exp(1.1j)),
    ]
    for spec in cases:
        num = _numeric_truncation_fidelity(spec, big=30 if spec.kind != "coherent" else 40)
        assert abs(truncation_fidelity(spec) - num) < 1e-8, spec


def _dense_from_vec(vec: np.ndarray, basis: OccupationBasis) -> DenseOperator:
    return DenseOperator(basis, np.outer(vec, vec.conj()))


def test_fidelity_trivial_cases():
    basis = OccupationBasis(1, 2)
    v0 = np.array([1, 0, 0], dtype=complex)
    v1 = np.array([0, 1, 0], dtype=complex)
    plus = np.array([1, 1, 0], dtype=complex) / math.sqrt(2)
    r0 = _dense_from_vec(v0, basis)
    r1 = _dense_from_vec(v1, basis)
    rp = _dense_from_vec(plus, basis)
    assert abs(fidelity(r0, r0) - 1.0) < 1e-12
    assert abs(fidelity(r0, r1)) < 1e-12
    assert abs(fidelity(r0, rp) - 0.5) < 1e-12


def _random_density(dim: int, rng) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_fidelity_symmetric_and_pure_overlap():
    rng = np.random.default_rng(7)
    basis = OccupationBasis(2, 2)
    for _ in range(5):
        a = DenseOperator(basis, _random_density(basis.size, rng))
        b = DenseOperator(basis, _random_density(basis.size, rng))
        f_ab = fidelity(a, b)
        f_ba = fidelity(b, a)
        assert abs(f_ab - f_ba) < 1e-9
        assert 0.0 <= f_ab <= 1.0
        assert abs(fidelity(a, a) - 1.0) < 1e-9
    for _ in range(5):
        u = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        w = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        u /= np.linalg.norm(u)
        w /= np.linalg.norm(w)
        f = fidelity(_dense_from_vec(u, basis), _dense_from_vec(w, basis))
        assert abs(f - abs(np.vdot(u, w)) ** 2) < 1e-8


def test_fidelity_errors():
    b2 = OccupationBasis(1, 2)
    b3 = OccupationBasis(1, 3)
    rho2 = DenseOperator(b2, np.eye(3) / 3)
    rho3 = DenseOperator(b3, np.eye(4) / 4)
    with pytest.raises(ValueError):
        fidelity(rho2, rho3)
    with pytest.raises(ValueError):
        fidelity(rho2, DenseOperator(b2, np.eye(3)))  # trace 3, not a state
    # same cutoff, different tuple sets: no block of one state pairs with the other's
    with pytest.raises(ValueError, match="block structure mismatch"):
        fidelity(BlockOperator.maximally_mixed(2, 0), BlockOperator.maximally_mixed(2, 1))
