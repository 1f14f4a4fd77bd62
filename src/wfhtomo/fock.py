"""Truncated Fock-space bases, dense multimode operators, canonical states, fidelity.

Every module in the package indexes truncated Fock spaces through
:class:`OccupationBasis`, which fixes a graded-lexicographic ordering of
occupation tuples once and for all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "OccupationBasis",
    "DenseOperator",
    "StateSpec",
    "StateVector",
    "make_state",
    "truncation_fidelity",
    "poisson_table",
    "kept_singular_values",
    "fidelity",
    "complex_to_json",
    "complex_from_json",
    "int_from_json",
    "float_from_json",
    "list_from_json",
    "field_from_json",
    "is_json_number",
    "is_json_matrix",
    "JsonFieldError",
]


def complex_to_json(z: complex) -> dict:
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def complex_from_json(d: dict) -> complex:
    return complex(float_from_json(d, "re"), float_from_json(d, "im"))


class JsonFieldError(ValueError):
    """A JSON field of the wrong type. The message starts with the field's
    path, which each enclosing object extends: ``settings[0].counter.n_c``."""

    def within(self, parent: str) -> "JsonFieldError":
        return JsonFieldError(f"{parent}.{self}")


def field_from_json(d: dict, key: str, parse):
    """parse(d[key]), where d[key] must be a JSON object and a JsonFieldError
    from parse gets key prepended to its path."""
    v = d[key]
    if not isinstance(v, dict):
        raise JsonFieldError(f"{key} must be a JSON object, got {v!r}")
    try:
        return parse(v)
    except JsonFieldError as exc:
        raise exc.within(key) from exc


def int_from_json(d: dict, key: str) -> int:
    """d[key], which must be a JSON integer: a float or a bool is refused."""
    v = d[key]
    if type(v) is not int:
        raise JsonFieldError(f"{key} must be a JSON integer, got {v!r}")
    return v


def float_from_json(d: dict, key: str) -> float:
    """d[key], which must be a JSON number: a string or a bool is refused."""
    v = d[key]
    if not is_json_number(v):
        raise JsonFieldError(f"{key} must be a JSON number, got {v!r}")
    return float(v)


def list_from_json(d: dict, key: str, parse) -> list:
    """[parse(v) for v in d[key]], where d[key] must be a JSON array of JSON
    objects (every list in the formats holds objects) and a JsonFieldError
    from parse gets key[i] prepended to its path."""
    v = d[key]
    if not isinstance(v, list):
        raise JsonFieldError(f"{key} must be a JSON array, got {v!r}")
    return [field_from_json({f"{key}[{i}]": item}, f"{key}[{i}]", parse)
            for i, item in enumerate(v)]


def is_json_number(v) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_json_matrix(m) -> bool:
    """A JSON array of equally long arrays of numbers."""
    return isinstance(m, list) and len(m) > 0 and all(
        isinstance(r, list) and len(r) == len(m[0]) and all(map(is_json_number, r)) for r in m)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class OccupationBasis:
    """Occupation tuples (n_1..n_S) with sum <= cutoff, graded-lex ordered.

    Graded-lex: smaller total photon number first, plain lexicographic order
    within each total. Size is binomial(cutoff + S, S).
    """

    __slots__ = ("num_modes", "cutoff", "states", "_index", "totals")

    def __init__(self, num_modes: int, cutoff: int):
        if num_modes < 1:
            raise ValueError("num_modes must be >= 1")
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        self.num_modes = int(num_modes)
        self.cutoff = int(cutoff)
        states: list[tuple[int, ...]] = []
        for total in range(self.cutoff + 1):
            states.extend(_compositions(total, self.num_modes))
        self.states = tuple(states)
        self._index = {s: i for i, s in enumerate(self.states)}
        self.totals = np.array([sum(s) for s in self.states], dtype=np.int64)

    @property
    def size(self) -> int:
        return len(self.states)

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.states)

    def index(self, occupation: Sequence[int]) -> int:
        key = tuple(int(n) for n in occupation)
        try:
            return self._index[key]
        except KeyError:
            raise ValueError(f"occupation {key} not in basis "
                             f"(S={self.num_modes}, cutoff={self.cutoff})") from None

    def __eq__(self, other) -> bool:
        return (isinstance(other, OccupationBasis)
                and self.num_modes == other.num_modes
                and self.cutoff == other.cutoff)

    def __hash__(self) -> int:
        return hash((self.num_modes, self.cutoff))

    def __repr__(self) -> str:
        return f"OccupationBasis(num_modes={self.num_modes}, cutoff={self.cutoff})"


@dataclass
class DenseOperator:
    """Dense complex matrix indexed by an OccupationBasis (both rows and columns)."""

    basis: OccupationBasis
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        if self.entries.shape != (self.basis.size, self.basis.size):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match basis size {self.basis.size}")


_KINDS = ("coherent", "tmsv", "cat")


@dataclass
class StateSpec:
    """Canonical input states: coherent (1 mode), two-mode squeezed vacuum, cat.

    coherent/cat carry a complex amplitude ``alpha``; tmsv carries squeezing
    ``r >= 0`` and phase ``phi``. ``N`` is the truncation photon number.
    """

    kind: str
    N: int
    alpha: complex | None = None
    r: float | None = None
    phi: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.N < 0:
            raise ValueError("N must be >= 0")
        if self.kind in ("coherent", "cat"):
            if self.alpha is None:
                raise ValueError(f"{self.kind} state requires alpha")
            self.alpha = complex(self.alpha)
        if self.kind == "tmsv":
            if self.r is None:
                raise ValueError("tmsv state requires r")
            if self.r < 0:
                raise ValueError("squeezing r must be >= 0")
            self.r = float(self.r)
            self.phi = float(self.phi)

    def to_json(self) -> dict:
        d: dict = {"kind": self.kind, "N": int(self.N)}
        if self.kind in ("coherent", "cat"):
            d["alpha"] = complex_to_json(self.alpha)
        else:
            d["r"] = self.r
            d["phi"] = self.phi
        return d

    @classmethod
    def from_json(cls, d: dict) -> "StateSpec":
        kind, N = d["kind"], int_from_json(d, "N")
        if kind in ("coherent", "cat"):
            return cls(kind=kind, N=N, alpha=field_from_json(d, "alpha", complex_from_json))
        return cls(kind=kind, N=N, r=float_from_json(d, "r"),
                   phi=float_from_json(d, "phi") if "phi" in d else 0.0)


@dataclass
class StateVector:
    """Normalized amplitude vector over a truncated Fock basis."""

    basis: OccupationBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.basis.size,):
            raise ValueError("amplitude vector length does not match basis size")

    def density(self) -> DenseOperator:
        v = self.amplitudes
        return DenseOperator(self.basis, np.outer(v, v.conj()))


def _coherent_amps(alpha: complex, N: int) -> np.ndarray:
    # unnormalized alpha^n / sqrt(n!)
    out = np.empty(N + 1, dtype=np.complex128)
    out[0] = 1.0
    for n in range(1, N + 1):
        out[n] = out[n - 1] * alpha / math.sqrt(n)
    return out


def make_state(spec: StateSpec) -> StateVector:
    """Truncated, renormalized amplitude vector for the canonical state kinds.

    coherent lives on OccupationBasis(1, N); tmsv on OccupationBasis(2, 2N)
    (the largest kept component is |N,N>); cat on OccupationBasis(2, N)
    (truncation by total photon number).
    """
    if spec.kind == "coherent":
        basis = OccupationBasis(1, spec.N)
        amps = _coherent_amps(spec.alpha, spec.N)
    elif spec.kind == "tmsv":
        basis = OccupationBasis(2, 2 * spec.N)
        amps = np.zeros(basis.size, dtype=np.complex128)
        q = -np.exp(1j * spec.phi) * math.tanh(spec.r)
        for n in range(spec.N + 1):
            amps[basis.index((n, n))] = q ** n
    else:  # cat
        if spec.alpha == 0:
            raise ValueError("cat state requires alpha != 0")
        if spec.N < 1:
            raise ValueError("cat state requires N >= 1 (truncated vector vanishes at N=0)")
        basis = OccupationBasis(2, spec.N)
        amps = np.zeros(basis.size, dtype=np.complex128)
        a = spec.alpha
        for i, (n, m) in enumerate(basis):
            sign = ((-1) ** m - (-1) ** n)  # 0 unless n+m odd
            if sign:
                amps[i] = sign * a ** (n + m) / math.sqrt(math.factorial(n) * math.factorial(m))
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValueError("truncated state vector vanishes")
    return StateVector(basis, amps / norm)


def truncation_fidelity(spec: StateSpec) -> float:
    """Overlap-squared between the exact state and its truncated, renormalized version."""
    if spec.kind == "coherent":
        return math.fsum(poisson_table([abs(spec.alpha) ** 2], spec.N)[0][0])
    if spec.kind == "tmsv":
        t2 = math.tanh(spec.r) ** 2
        s = math.fsum(t2 ** n for n in range(spec.N + 1))
        return s / math.cosh(spec.r) ** 2
    # cat: weight of the total-photon-number <= N part of the exact state, whose
    # total is odd and, but for that, Poisson(2 |alpha|^2)
    x = abs(spec.alpha) ** 2
    return 2.0 * math.fsum(poisson_table([2 * x], spec.N)[0][0, 1::2]) / -math.expm1(-4 * x)


def poisson_table(mu, top: int) -> tuple[np.ndarray, np.ndarray]:
    """pmf[g, n] = P(X = n) and tail[g, s] = P(X >= s), n, s = 0..top, for
    X ~ Poisson(mu[g]): exp(n log mu - lgamma(n + 1) - mu), exact at mu = 0.

    A tail below 1/2 is summed from the far end down, so that it keeps its
    relative precision; a larger one is 1 less the masses below it, so that
    one within rounding of 1 is 1. Each row depends on its own mean alone.
    """
    mu = np.asarray(mu, dtype=float)[:, None]
    # a scalar log per mean, as exp(n log mu - mu) is sensitive to its last bit
    log_mu = np.array([math.log(m) if m > 0 else 0.0 for m in mu[:, 0].tolist()])[:, None]
    n = np.arange(top + 1)
    pmf = np.exp(n * log_mu - np.array(list(map(math.lgamma, range(1, top + 2)))) - mu)
    pmf[mu[:, 0] == 0] = n == 0
    below = np.cumsum(np.concatenate([0.0 * mu, pmf[:, :-1]], axis=1), axis=1)  # P(X < s)
    # a row with P(X < top) > 1/2 has mu < top, so its masses past top (each mu/(n + 1)
    # times the one before) halve at least 64 times by 2 top + 64: the rest is below rounding
    seed = np.where(below[:, -1:] > 0.5, pmf[:, -1:], 0.0)
    far = seed * np.cumprod(mu / np.arange(top + 1, 2 * top + 65), axis=1)
    above = np.cumsum(np.concatenate([pmf, far], axis=1)[:, ::-1], axis=1)[:, ::-1]
    return pmf, np.where(below > 0.5, above[:, :top + 1], 1.0 - below)


def kept_singular_values(m: np.ndarray) -> np.ndarray:
    """The singular values of m at least 1e-10 times the largest, largest
    first: the numerical-rank rule, whose count is the rank; none for an
    empty or zero matrix."""
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return sv[:0]
    return sv[sv >= 1e-10 * sv[0]]


def _tr_sqrt_sandwich(a: np.ndarray, b: np.ndarray) -> float:
    """tr sqrt(sqrt(a) b sqrt(a)) with eigenvalue clamping at 0."""
    wa, va = np.linalg.eigh(a)
    wa = np.clip(wa, 0.0, None)
    sqrt_a = (va * np.sqrt(wa)) @ va.conj().T
    m = sqrt_a @ b @ sqrt_a
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    return float(np.sum(np.sqrt(w)))


def _check_density(mat: np.ndarray, label: str) -> None:
    tr = np.trace(mat).real
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"{label} is not trace-1 (trace = {tr!r})")


def fidelity(rho1, rho2) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2.

    Accepts two DenseOperators on the same basis or two ``BlockOperator``s
    with matching cutoff and tuple set, as ``BlockOperator._zip`` checks them
    (told apart by their ``blocks``). For block-diagonal states the multiplicity
    factors cancel, so the fidelity is the squared sum of per-block
    contributions.
    """
    if hasattr(rho1, "blocks") and hasattr(rho2, "blocks"):
        pairs = {k: (a, b) for k, a, b in rho1._zip(rho2)}  # _zip checks the block structure
        tr1 = sum(np.trace(b).real for b in rho1.blocks.values())
        tr2 = sum(np.trace(b).real for b in rho2.blocks.values())
        if abs(tr1 - 1.0) > 1e-9 or abs(tr2 - 1.0) > 1e-9:
            raise ValueError("block operators must be trace-1 states")
        total = sum(_tr_sqrt_sandwich(*pairs[k]) for k in sorted(pairs))
        return min(1.0, total ** 2)
    if isinstance(rho1, DenseOperator) and isinstance(rho2, DenseOperator):
        if rho1.basis != rho2.basis:
            raise ValueError("basis mismatch between states")
        _check_density(rho1.entries, "rho1")
        _check_density(rho2.entries, "rho2")
        return min(1.0, _tr_sqrt_sandwich(rho1.entries, rho2.entries) ** 2)
    raise TypeError("fidelity requires two DenseOperators or two block operators")
