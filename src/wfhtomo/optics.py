"""Beam-splitter standardization, passive linear transformations on Fock space,
and normal/anti-normal ordered powers of the total number operator."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import (DenseOperator, JsonFieldError, OccupationBasis, float_from_json,
                   list_from_json)

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
        def sector(s: dict) -> tuple[float, float]:
            return float_from_json(s, "eta"), float_from_json(s, "zeta")
        return cls(sectors=tuple(list_from_json(d, "sectors", sector)), s1_multi=s1_multi)


@dataclass(frozen=True)
class ModeMatrix:
    """Unitary matrix acting on the vector of mode operators, or a stack
    (B, S, S) of them; every matrix must be unitary within 1e-10. The check
    runs once, when the whole stack is built: indexing a stack gives its
    samples, a view where numpy gives one, without checking them again."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
            raise ValueError("mode matrix must be square")
        # written as "not within" so that a NaN fails
        gram = np.einsum("...ji,...jk->...ik", m.conj(), m)
        if not np.all(np.abs(gram - np.eye(m.shape[-1])) <= 1e-10):
            raise ValueError("mode matrix is not unitary within 1e-10")
        object.__setattr__(self, "entries", m)

    def __getitem__(self, key) -> "ModeMatrix":
        if self.entries.ndim != 3:
            raise TypeError("only a stack of mode matrices can be indexed")
        sub = self.entries[key, :, :]
        if sub.ndim not in (2, 3):
            raise IndexError("a stack index must give one matrix or a stack")
        checked = object.__new__(ModeMatrix)
        object.__setattr__(checked, "entries", sub)
        return checked


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


@functools.lru_cache(maxsize=16)
def _shell_plan(num_modes: int, cutoff: int) -> tuple:
    """The photon-number-shell recursion of ``plt_on_fock`` on one graded basis.

    For each shell n >= 1, the states [mid, hi), one tuple (mid, hi, rows,
    amp, first, prev, scale, runs): a_j^dag takes state b of shell n - 1 to
    state rows[j, b] of shell n with amplitude amp[j, b] = sqrt(b_j + 1)
    (complex, so that no product casts it), and column t of shell n is a_i^dag
    on column prev[t] of shell n - 1 over sqrt(t_i), for i = first[t] its
    first occupied mode; ``scale`` holds 1 / sqrt(t_i) twice per column, once
    for each part. ``runs[j]`` is [start, stop) when rows[j] is the run
    start, start + 1, ..., stop - 1, else [0, -1]. Indices are relative to
    their shell. A plan holds O(S * dim) numbers and is kept per (S, cutoff),
    so repeated maps on one basis build it once; every caller shares its
    arrays, so they are read-only.
    """
    basis = OccupationBasis(num_modes, cutoff)
    S, dim = basis.num_modes, basis.size
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
    bounds = np.searchsorted(basis.totals, np.arange(basis.cutoff + 2))
    shells = []  # shell [mid, hi) is built from the one below, [lo, mid)
    for lo, mid, hi in zip(bounds, bounds[1:], bounds[2:]):
        rows = raise_idx[:, lo:mid] - mid
        run = np.all(rows == rows[:, :1] + np.arange(mid - lo), axis=1)
        runs = np.where(run[:, None], rows[:, [0, -1]] + [0, 1], [0, -1])
        arrays = (rows, raise_amp[:, lo:mid, None, None].astype(np.complex128),
                  first[mid:hi], prev[mid:hi] - lo, np.repeat(1.0 / norm[mid:hi], 2), runs)
        for x in arrays:
            x.flags.writeable = False
        shells.append((int(mid), int(hi)) + arrays)
    return tuple(shells)


def plt_on_fock(U_M, basis: OccupationBasis) -> DenseOperator | np.ndarray:
    """Fock-space unitary of a passive linear transformation.

    The transformation sends a_i^dag to sum_j U[j,i] a_j^dag (creation
    operators transform by the columns of U, so coherent amplitude vectors
    transform as v -> U v and the map U -> plt_on_fock(U) is a homomorphism).
    The image of |n> is the normalized product of transformed creation
    operators acting on vacuum, so the result is exactly block diagonal in
    total photon number: on the n-photon shell it is the symmetric power of U.
    Shells are built one from the one below (``_shell_plan``): column t is
    (transformed creation op of its first occupied mode i) applied to column
    t - e_i, divided by sqrt(t_i). A shell is held as (rows, B, cols), so
    that each mode's raise adds into whole rows over the stack: in place on
    a slice where its targets are one run, else by one fancy-index ``+=``.
    A shell's products go into two buffers that its modes reuse, and its
    division is a real multiply by 1 / sqrt(t_i) with the same bits. The
    shell is then copied into its diagonal block.

    One (S, S) matrix (or a ``ModeMatrix``, whose matrices are checked when it
    is built) gives a ``DenseOperator``; a stack (B, S, S) gives the
    (B, dim, dim) array of its unitaries.
    """
    U = (U_M if isinstance(U_M, ModeMatrix) else ModeMatrix(U_M)).entries
    single = U.ndim == 2
    U = U[None] if single else U
    S, B = basis.num_modes, len(U)
    if U.shape[1] != S:
        raise ValueError(f"mode matrix dimension {U.shape[1]} != num_modes {S}")
    out = np.zeros((B, basis.size, basis.size), dtype=np.complex128)
    out[:, 0, 0] = 1.0
    shell = np.ones((1, B, 1), dtype=np.complex128)  # the vacuum
    for mid, hi, rows, amp, first, prev, scale, runs in _shell_plan(S, basis.cutoff):
        w = shell[:, :, prev]
        transformed = U[:, :, first].transpose(1, 0, 2)  # (S, B, cols)
        shell = np.zeros((hi - mid, B, hi - mid), dtype=np.complex128)
        # each mode's term (U[j, i] amp) w, in that order; not in place, where
        # numpy's complex product can round differently on a one-element array
        scaled, term = np.empty_like(w), np.empty_like(w)
        for j, (start, stop) in enumerate(runs.tolist()):
            np.multiply(transformed[j], amp[j], out=scaled)
            np.multiply(scaled, w, out=term)
            if stop < 0:
                shell[rows[j]] += term
            else:
                np.add(shell[start:stop], term, out=shell[start:stop])
        # numpy divides x by c + 0j as ((re x) + (im x) 0) (1 / c) per part; the
        # sums start at +0, so no part is -0, and each is its part times 1 / c
        parts = shell.view(np.float64)
        parts *= scale
        out[:, mid:hi, mid:hi] = shell.transpose(1, 0, 2)
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
    """Haar-distributed random unitary: the Gram-Schmidt basis of a Ginibre
    matrix's columns (``haar_from_normals``)."""
    return haar_from_normals(rng.standard_normal((2, dim, dim)))


def _ordered_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Sum over one axis as a chain of elementwise adds in index order, so
    that each element's bits do not depend on the shape around it (numpy's
    own reductions pick their order by shape and stride)."""
    parts = np.moveaxis(x, axis, 0)
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def haar_from_normals(normals: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normals of shape (..., 2, dim, dim): the
    real then the imaginary parts of Ginibre matrices G.

    Each unitary is the Gram-Schmidt basis of G's columns, that is, G's QR
    factor with diag R > 0, which is Haar distributed (Mezzadri, Notices AMS
    54, 592 (2007)). Each column is projected off the ones before it twice,
    which keeps the basis orthonormal to rounding (Giraud, Langou & Rozloznik,
    Comput. Math. Appl. 50, 1069 (2005)). The whole stack runs as real
    elementwise arithmetic with every sum written out in index order, so a
    matrix gets the same bits in any stack, alone included.
    """
    lead, dim = normals.shape[:-3], normals.shape[-1]
    # g[p, i, k] is part p of entry (i, k) over the stack, so that a single
    # matrix is a stack of one too, and never runs numpy's scalar arithmetic
    g = normals.reshape(-1, 2, dim, dim).transpose(1, 2, 3, 0)
    q = np.empty(g.shape)
    for k in range(dim):
        v, basis = g[:, :, k], q[:, :, :k]
        for _ in range(2 if k else 0):
            # s[a, c, j] = sum_i basis[a, i, j] v[c, i], and r[:, j] the real
            # and imaginary parts of <q_j, v> = sum_i conj(q_ij) v_i
            s = _ordered_sum(basis[:, None] * v[None, :, :, None], 2)
            r = np.stack([s[0, 0] + s[1, 1], s[0, 1] - s[1, 0]])
            t = _ordered_sum(r[:, None, None] * basis[None], 3)  # sum_j r_j q_j
            v = v - np.stack([t[0, 0] - t[1, 1], t[0, 1] + t[1, 0]])
        q[:, :, k] = v / np.sqrt(_ordered_sum((v * v).reshape(2 * dim, -1), 0))
    return (q[0] + 1j * q[1]).transpose(2, 0, 1).reshape(lead + (dim, dim))
