"""Beam-splitter standardization, passive linear transformations on Fock space,
and normal/anti-normal ordered powers of the total number operator."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import DenseOperator, JsonFieldError, OccupationBasis

__all__ = [
    "PartitionSpec",
    "ModeMatrix",
    "standardize_bs",
    "plt_on_fock",
    "number_power_normal",
    "number_power_antinormal",
    "standard_block",
    "haar_unitary",
    "haar_from_normals",
]

_GROUP_TOL = 1e-9


@dataclass(frozen=True)
class PartitionSpec:
    """Distinct beam-splitter sectors in standardized real form.

    ``sectors`` holds K pairs (eta_i, zeta_i) with eta_i^2 + zeta_i^2 = 1 and
    pairwise distinct eta; the sector containing input mode 1 comes first.
    ``s1_multi`` records whether the first sector contains more than one input
    mode (the only piece of the sector sizes anything downstream depends on).
    """

    sectors: tuple[tuple[float, float], ...]
    s1_multi: bool

    def __post_init__(self):
        object.__setattr__(self, "sectors",
                           tuple((float(e), float(z)) for e, z in self.sectors))
        if len(self.sectors) < 1:
            raise ValueError("at least one sector required")
        for e, z in self.sectors:
            if not (0.0 < e < 1.0 and 0.0 < z < 1.0):
                raise ValueError(f"sector (eta={e}, zeta={z}) must lie strictly inside (0,1)")
            if abs(e * e + z * z - 1.0) > 1e-12:
                raise ValueError(f"sector (eta={e}, zeta={z}) violates eta^2+zeta^2=1")
        etas = [e for e, _ in self.sectors]
        for i in range(len(etas)):
            for j in range(i + 1, len(etas)):
                if abs(etas[i] - etas[j]) <= _GROUP_TOL:
                    raise ValueError("sector eta values must be pairwise distinct")

    @property
    def K(self) -> int:
        return len(self.sectors)

    def to_json(self) -> dict:
        return {
            "sectors": [{"eta": e, "zeta": z} for e, z in self.sectors],
            "s1_multi": bool(self.s1_multi),
        }

    @classmethod
    def from_json(cls, d: dict) -> "PartitionSpec":
        s1_multi = d["s1_multi"]
        if not isinstance(s1_multi, bool):
            raise JsonFieldError(f"s1_multi must be a JSON boolean, got {s1_multi!r}")
        return cls(
            sectors=tuple((float(s["eta"]), float(s["zeta"])) for s in d["sectors"]),
            s1_multi=s1_multi,
        )


@dataclass(frozen=True)
class ModeMatrix:
    """Unitary matrix acting on the vector of mode operators, or a stack
    (B, S, S) of them; every matrix must be unitary within 1e-10."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
            raise ValueError("mode matrix must be square")
        # written as "not within" so that a NaN fails
        if not np.all(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])) <= 1e-10):
            raise ValueError("mode matrix is not unitary within 1e-10")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]


def standard_block(eta: float, zeta: float) -> np.ndarray:
    """Standardized real 2x2 beam-splitter block [[eta, zeta], [zeta, -eta]]."""
    return np.array([[eta, zeta], [zeta, -eta]], dtype=np.complex128)


def standardize_bs(blocks: Sequence[np.ndarray]) -> PartitionSpec:
    """Group per-mode 2x2 beam-splitter blocks into sectors of equal |eta|.

    Block i couples the signal mode a_i with its probe partner b_i. Blocks are
    grouped when their |eta| values agree within 1e-9; each group is reported
    as one real (eta, zeta) sector, with the group containing mode 1 first.
    """
    if len(blocks) == 0:
        raise ValueError("need at least one beam-splitter block")
    mags: list[float] = []
    for i, raw in enumerate(blocks):
        b = np.asarray(raw, dtype=np.complex128)
        if b.shape != (2, 2):
            raise ValueError(f"block {i} is not 2x2")
        if np.max(np.abs(b.conj().T @ b - np.eye(2))) > 1e-10:
            raise ValueError(f"block {i} is not unitary within 1e-10")
        eta = abs(b[0, 0])
        if eta <= _GROUP_TOL or eta >= 1.0 - _GROUP_TOL:
            raise ValueError(
                f"block {i} is a trivial beam splitter (|eta| = {eta}); "
                "every block must mix both modes")
        mags.append(eta)
    reps: list[float] = []
    counts: list[int] = []
    for eta in mags:
        for s, rep in enumerate(reps):
            if abs(eta - rep) <= _GROUP_TOL:
                counts[s] += 1
                break
        else:
            reps.append(eta)
            counts.append(1)
    sectors = tuple((eta, math.sqrt(1.0 - eta * eta)) for eta in reps)
    return PartitionSpec(sectors=sectors, s1_multi=counts[0] > 1)


def plt_on_fock(U_M, basis: OccupationBasis) -> DenseOperator | np.ndarray:
    """Fock-space unitary of a passive linear transformation.

    The transformation sends a_i^dag to sum_j U[j,i] a_j^dag (creation
    operators transform by the columns of U, so coherent amplitude vectors
    transform as v -> U v and the map U -> plt_on_fock(U) is a homomorphism).
    The image of |n> is the normalized product of transformed creation
    operators acting on vacuum. Columns are built recursively over the graded
    basis: the column for n equals (transformed creation op of the first
    occupied mode) applied to the column for n - e_i, divided by sqrt(n_i);
    all columns of one total photon number are built at once. The result is
    exactly block diagonal in total photon number.

    One (S, S) matrix (or a ``ModeMatrix``) gives a ``DenseOperator``; a
    stack (B, S, S) gives the (B, dim, dim) array of its unitaries, built by
    one recursion over the whole stack.
    """
    U = (U_M if isinstance(U_M, ModeMatrix) else ModeMatrix(U_M)).entries
    single = U.ndim == 2
    U = U[None] if single else U
    S = basis.num_modes
    if U.shape[1] != S:
        raise ValueError(f"mode matrix dimension {U.shape[1]} != num_modes {S}")
    dim = basis.size
    # the graded order puts the states below the cutoff first; applying
    # a_j^dag to one of them, b, lands on raise_idx[j, b] with amplitude
    # raise_amp[j, b]. Distinct b land on distinct targets, so a plain
    # fancy-index += accumulates each term once.
    low = int(np.count_nonzero(basis.totals < basis.cutoff))
    lower = basis.states[:low]
    raise_idx = np.array([[basis.index(n[:j] + (n[j] + 1,) + n[j + 1:]) for n in lower]
                          for j in range(S)], dtype=np.int64)
    raise_amp = np.sqrt(np.array(lower, dtype=np.float64).reshape(low, S).T + 1.0)
    # column t is a_i^dag on column prev[t] = t - e_i, over sqrt(t_i), for
    # i = first[t] its first occupied mode: the smallest i is written last
    first, prev, norm = np.zeros(dim, dtype=np.int64), np.zeros(dim, dtype=np.int64), np.ones(dim)
    for i in reversed(range(S)):
        first[raise_idx[i]], prev[raise_idx[i]], norm[raise_idx[i]] = i, range(low), raise_amp[i]
    # the columns of one photon-number shell [mid, hi) are built at once from
    # the shell below, [lo, mid), the only rows their predecessors occupy
    bounds = np.searchsorted(basis.totals, np.arange(basis.cutoff + 2))
    out = np.zeros((len(U), dim, dim), dtype=np.complex128)
    out[:, 0, 0] = 1.0
    for lo, mid, hi in zip(bounds, bounds[1:], bounds[2:]):
        w = out[:, lo:mid, prev[mid:hi]]
        shell = out[:, mid:hi, mid:hi]
        for j in range(S):
            shell[:, raise_idx[j, lo:mid] - mid] += \
                U[:, j, first[mid:hi]][:, None] * raise_amp[j, lo:mid, None] * w
        shell /= norm[mid:hi]
    return DenseOperator(basis, out[0]) if single else out


def number_power_normal(k: int, basis: OccupationBasis) -> DenseOperator:
    """Normally ordered k-th power of the total number operator.

    Diagonal with eigenvalue equal to the falling factorial
    (n)_k = n (n-1) ... (n-k+1) of the total photon number n.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n = basis.totals.astype(np.float64)
    vals = np.ones(basis.size)
    for j in range(k):
        vals = vals * (n - j)
    return DenseOperator(basis, np.diag(vals.astype(np.complex128)))


def number_power_antinormal(k: int, basis: OccupationBasis) -> DenseOperator:
    """Anti-normally ordered k-th power of the total number operator.

    Diagonal with eigenvalue (n + S - 1 + k)_k where S is the mode count.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n = basis.totals.astype(np.float64)
    shift = basis.num_modes - 1 + k
    vals = np.ones(basis.size)
    for j in range(k):
        vals = vals * (n + shift - j)
    return DenseOperator(basis, np.diag(vals.astype(np.complex128)))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via phase-fixed QR of a Ginibre matrix."""
    return haar_from_normals(rng.standard_normal((2, dim, dim)))


def haar_from_normals(normals: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normals of shape (..., 2, dim, dim): the
    real then the imaginary parts of Ginibre matrices, whose QR factors are
    phase-fixed by the diagonal of R; one stacked QR serves the whole stack."""
    g = (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / math.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
