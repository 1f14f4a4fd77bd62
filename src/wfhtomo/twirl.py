"""Twirling of input states over the beam-splitter symmetry group.

A twirled state is block diagonal: one matrix chi_i per tuple of sector photon
totals (sectors counted over the non-mode-1 modes). :class:`BlockOperator`
holds that representation; it is also the natural container for POVM elements
and every operator the reconstruction touches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .fock import DenseOperator, OccupationBasis
from .optics import PartitionSpec, haar_from_normals, plt_on_fock
from .optics import haar_unitary  # noqa: F401  (bench/tracing.py wraps it under this name)

__all__ = [
    "BlockOperator",
    "block_tuples",
    "twirl_analytic",
    "twirl_oracle_mc",
    "twirled_closed_form",
    "embed_reduced",
    "embed_full",
    "reduced_assignment",
]


def block_tuples(N: int, length: int) -> list[tuple[int, ...]]:
    """All sector-photon tuples of the given length with sum <= N, graded-lex."""
    return list(OccupationBasis(length, N).states) if length else [()]


@dataclass
class BlockOperator:
    """Operator block diagonal over sector-photon tuples.

    ``blocks[i_tuple]`` is a complex matrix of dimension N - sum(i_tuple) + 1
    acting on the mode-1 Fock amplitudes; every tuple with sum <= N is
    present. Tuple length is K when sector 1 holds more than one mode, K - 1
    otherwise. ``partition`` is an optional annotation (the block algebra
    never needs it, and the JSON form omits it).
    """

    N: int
    blocks: dict[tuple[int, ...], np.ndarray]
    partition: PartitionSpec | None = None

    def __post_init__(self):
        self.N = int(self.N)
        norm: dict[tuple[int, ...], np.ndarray] = {}
        lengths = set()
        for key, mat in self.blocks.items():
            k = tuple(map(int, key))
            lengths.add(len(k))
            m = np.asarray(mat, dtype=np.complex128)
            d = self.N - sum(k) + 1
            if sum(k) > self.N:
                raise ValueError(f"tuple {k} exceeds cutoff N={self.N}")
            if m.shape != (d, d):
                raise ValueError(f"block {k} has shape {m.shape}, expected {(d, d)}")
            norm[k] = m
        if len(lengths) > 1:
            raise ValueError("all tuples must have the same length")
        length = lengths.pop() if lengths else 0
        # distinct non-negative tuples with sum <= N: a full count is the full set
        if (any(min(k, default=0) < 0 for k in norm)
                or len(norm) != math.comb(self.N + length, length)):
            expected = set(block_tuples(self.N, length))
            raise ValueError(f"incomplete tuple set (missing {sorted(expected - set(norm))}, "
                             f"unexpected {sorted(set(norm) - expected)})")
        self.blocks = {k: norm[k] for k in sorted(norm, key=lambda t: (sum(t), t))}

    @property
    def tuple_length(self) -> int:
        return len(next(iter(self.blocks)))

    @property
    def total_dim(self) -> int:
        return sum(m.shape[0] for m in self.blocks.values())

    def keys(self) -> Iterator[tuple[int, ...]]:
        return iter(self.blocks)

    # block algebra -------------------------------------------------------
    def _zip(self, other: "BlockOperator"):
        if not isinstance(other, BlockOperator):
            raise TypeError("expected BlockOperator")
        if self.N != other.N or set(self.blocks) != set(other.blocks):
            raise ValueError("block structure mismatch")
        for k in self.blocks:
            yield k, self.blocks[k], other.blocks[k]

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        return BlockOperator(self.N, {k: a + b for k, a, b in self._zip(other)},
                             self.partition or other.partition)

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        return BlockOperator(self.N, {k: a - b for k, a, b in self._zip(other)},
                             self.partition or other.partition)

    def scale(self, c: complex) -> "BlockOperator":
        return BlockOperator(self.N, {k: c * m for k, m in self.blocks.items()},
                             self.partition)

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        return BlockOperator(self.N, {k: a @ b for k, a, b in self._zip(other)},
                             self.partition or other.partition)

    def dagger(self) -> "BlockOperator":
        return BlockOperator(self.N, {k: m.conj().T for k, m in self.blocks.items()},
                             self.partition)

    def trace(self) -> complex:
        return complex(sum(np.trace(m) for m in self.blocks.values()))

    def pair_trace(self, other: "BlockOperator") -> complex:
        """sum_i tr(A_i B_i): the Hilbert-Schmidt-style pairing used by Born probabilities."""
        return complex(sum(np.sum(a.T * b) for _, a, b in self._zip(other)))

    def hermitize(self) -> "BlockOperator":
        return BlockOperator(self.N, {k: (m + m.conj().T) / 2 for k, m in self.blocks.items()},
                             self.partition)

    # np.max/np.min over the blocks, so that a NaN in any block propagates
    def max_abs_dev_from_hermitian(self) -> float:
        return float(np.max([np.max(np.abs(m - m.conj().T)) for m in self.blocks.values()]))

    def min_eigenvalue(self) -> float:
        return float(np.min([np.min(np.linalg.eigvalsh((m + m.conj().T) / 2))
                             for m in self.blocks.values()]))

    def max_eigenvalue(self) -> float:
        return max(float(np.max(np.linalg.eigvalsh((m + m.conj().T) / 2)))
                   for m in self.blocks.values())

    def validate_state(self, herm_tol: float = 1e-10, psd_tol: float = -1e-9,
                       trace_tol: float = 1e-9) -> None:
        # written as "not within" so that a NaN fails every check
        dev = self.max_abs_dev_from_hermitian()
        if not dev <= herm_tol:
            raise ValueError(f"state blocks are not Hermitian (deviation {dev:.3e})")
        low = self.min_eigenvalue()
        if not low >= psd_tol:
            raise ValueError(f"state blocks are not PSD (minimum eigenvalue {low:.3e})")
        tr = self.trace()
        if not (abs(tr.real - 1.0) <= trace_tol and abs(tr.imag) <= trace_tol):
            raise ValueError(f"state trace is not 1 (trace {tr:.6g})")

    # constructors --------------------------------------------------------
    @classmethod
    def zeros(cls, N: int, length: int, partition: PartitionSpec | None = None) -> "BlockOperator":
        return cls(N, {t: np.zeros((N - sum(t) + 1, N - sum(t) + 1), dtype=np.complex128)
                       for t in block_tuples(N, length)}, partition)

    @classmethod
    def identity(cls, N: int, length: int, partition: PartitionSpec | None = None) -> "BlockOperator":
        return cls(N, {t: np.eye(N - sum(t) + 1, dtype=np.complex128)
                       for t in block_tuples(N, length)}, partition)

    @classmethod
    def maximally_mixed(cls, N: int, length: int,
                        partition: PartitionSpec | None = None) -> "BlockOperator":
        ident = cls.identity(N, length, partition)
        return ident.scale(1.0 / ident.total_dim)

    # JSON ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "N": self.N,
            "tuples": [
                {"i": list(k), "re": m.real.tolist(), "im": m.imag.tolist()}
                for k, m in self.blocks.items()
            ],
        }

    @classmethod
    def from_json(cls, d: dict, partition: PartitionSpec | None = None) -> "BlockOperator":
        blocks = {}
        for item in d["tuples"]:
            key = tuple(int(v) for v in item["i"])
            blocks[key] = np.array(item["re"], dtype=float) + 1j * np.array(item["im"], dtype=float)
        return cls(int(d["N"]), blocks, partition)


def _check_assignment(sector_assignment: Sequence[int], partition: PartitionSpec) -> list[int]:
    assign = [int(s) for s in sector_assignment]
    K = partition.K
    if any(s < 0 or s >= K for s in assign):
        raise ValueError("sector assignment index out of range")
    if assign[0] != 0:
        raise ValueError("mode 1 must be assigned to sector 1")
    if set(assign) != set(range(K)):
        raise ValueError("every sector must contain at least one mode")
    s1_count = sum(1 for s in assign if s == 0)
    if (s1_count > 1) != partition.s1_multi:
        raise ValueError("sector assignment inconsistent with partition.s1_multi")
    return assign


def _aux_tuple(occ: tuple[int, ...], assign: list[int], partition: PartitionSpec) -> tuple[int, ...]:
    """Sector photon totals of the non-mode-1 modes, in the block-key convention."""
    K = partition.K
    totals = [0] * K
    for mode in range(1, len(occ)):
        totals[assign[mode]] += occ[mode]
    return tuple(totals) if partition.s1_multi else tuple(totals[1:])


def twirl_analytic(rho: DenseOperator, sector_assignment: Sequence[int],
                   partition: PartitionSpec, N: int) -> BlockOperator:
    """Block representative of the twirled state.

    chi_i(x, y) = sum over non-mode-1 occupation patterns n' with sector
    totals i of <x, n'| rho |y, n'>.
    """
    basis = rho.basis
    assign = _check_assignment(sector_assignment, partition)
    if len(assign) != basis.num_modes:
        raise ValueError("sector assignment length must equal mode count")
    leak = sum(rho.entries[i, i].real for i in range(basis.size)
               if basis.totals[i] > N)
    if leak > 1e-9:
        raise ValueError(f"state has weight {leak:.3e} above photon cutoff N={N}")
    length = partition.K if partition.s1_multi else partition.K - 1
    out = BlockOperator.zeros(N, length, partition)
    # group basis indices by the non-mode-1 occupation pattern
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for idx, occ in enumerate(basis.states):
        if basis.totals[idx] > N:
            continue
        groups.setdefault(occ[1:], []).append((occ[0], idx))
    for rest, members in groups.items():
        key = _aux_tuple((0,) + rest, assign, partition)
        block = out.blocks[key]
        for x, i in members:
            for y, j in members:
                block[x, y] += rho.entries[i, j]
    return out


# size of one stack of Fock unitaries in twirl_oracle_mc; a larger stack
# gains little speed and raises peak memory
_STACK_BYTES = 256 * 1024


def twirl_oracle_mc(rho: DenseOperator, sector_assignment: Sequence[int],
                    partition: PartitionSpec, samples: int, seed: int) -> DenseOperator:
    """Monte-Carlo Haar average of X rho X^dag over block PLTs fixing mode 1.

    The Haar blocks are drawn sample by sample, group by group, from one
    generator, as ``haar_unitary`` would draw them one at a time: one normal
    draw per stack of samples, one stacked QR per group. ``plt_on_fock`` maps
    the samples in stacks of ``_STACK_BYTES``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    assign = _check_assignment(sector_assignment, partition)
    basis = rho.basis
    S = basis.num_modes
    if len(assign) != S:
        raise ValueError("sector assignment length must equal mode count")
    # mode groups the Haar blocks act on: per sector, its modes minus mode 1
    groups = [[m for m in range(1, S) if assign[m] == k] for k in range(partition.K)]
    blocks = [(len(modes), np.ix_(modes, modes)) for modes in groups if modes]
    width = [2 * size * size for size, _ in blocks]  # normals per sample and group
    rng = np.random.default_rng(seed)
    chunk = max(1, _STACK_BYTES // (16 * basis.size ** 2))
    acc = np.zeros_like(rho.entries)
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        X = np.tile(np.eye(S, dtype=np.complex128), (count, 1, 1))
        normals = np.split(rng.standard_normal((count, sum(width))), np.cumsum(width)[:-1], axis=1)
        for (size, block), z in zip(blocks, normals):
            X[(slice(None),) + block] = haar_from_normals(z.reshape(count, 2, size, size))
        U = plt_on_fock(X, basis)
        V = U @ rho.entries
        acc += (V @ np.conj(U, out=U).transpose(0, 2, 1)).sum(0)  # U^dag, conjugated in place
    return DenseOperator(basis, acc / samples)


def twirled_closed_form(kind: str, params: Mapping, N: int) -> BlockOperator:
    """Closed-form twirled representatives of the two-mode canonical states.

    Both live on one signal mode plus one sector-1 partner mode (tuple
    length 1). The result is truncated at total photon number N and
    renormalized to unit trace.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if kind == "tmsv":
        r = float(params["r"])
        if r < 0:
            raise ValueError("squeezing r must be >= 0")
        t2 = math.tanh(r) ** 2
        half = N // 2
        z = math.fsum(t2 ** n for n in range(half + 1))
        out = BlockOperator.zeros(N, 1)
        for n in range(half + 1):
            out.blocks[(n,)][n, n] = t2 ** n / z
        return out
    if kind == "cat":
        alpha = complex(params["alpha"])
        if alpha == 0:
            raise ValueError("cat state requires alpha != 0")
        a2 = abs(alpha) ** 2
        out = BlockOperator.zeros(N, 1)
        for n in range(N + 1):
            d = N - n + 1
            up = np.array([alpha ** x / math.sqrt(math.factorial(x)) for x in range(d)])
            um = np.array([(-alpha) ** x / math.sqrt(math.factorial(x)) for x in range(d)])
            cross = np.outer(up, um.conj()) + np.outer(um, up.conj())
            block = np.outer(up, up.conj()) + np.outer(um, um.conj()) + (-1) ** (n + 1) * cross
            out.blocks[(n,)] = (a2 ** n / math.factorial(n)) * block
        tr = out.trace().real
        if tr <= 0:
            raise ValueError("truncated twirled cat state vanishes")
        return out.scale(1.0 / tr)
    raise ValueError(f"unknown kind {kind!r}")


def reduced_assignment(partition: PartitionSpec) -> list[int]:
    """Mode-to-sector map of the reduced representative (mode 1 plus one
    auxiliary mode per tuple slot)."""
    if partition.s1_multi:
        return [0] + list(range(partition.K))
    return [0] + list(range(1, partition.K))


def embed_reduced(op: BlockOperator) -> DenseOperator:
    """Dense embedding on mode 1 plus one auxiliary mode per tuple slot.

    Sector k's photons are placed in the sector's auxiliary mode, so the
    result is sum_i chi_i (x,y) |x, i><y, i| on a (1 + tuple_length)-mode
    basis with cutoff N.
    """
    L = op.tuple_length
    basis = OccupationBasis(1 + L, op.N)
    dense = np.zeros((basis.size, basis.size), dtype=np.complex128)
    for key, block in op.blocks.items():
        d = block.shape[0]
        idxs = [basis.index((x,) + key) for x in range(d)]
        dense[np.ix_(idxs, idxs)] = block
    return DenseOperator(basis, dense)


def embed_full(op: BlockOperator, sector_assignment: Sequence[int],
               basis: OccupationBasis) -> DenseOperator:
    """Dense embedding on the original S modes with uniform multiplicity factors.

    For each tuple i the multiplicity space (all non-mode-1 occupation
    patterns with those sector totals) carries chi_i / d_i on each pattern.
    Requires op.partition to resolve the sector structure.
    """
    if op.partition is None:
        raise ValueError("embed_full requires a BlockOperator with a partition")
    assign = _check_assignment(sector_assignment, op.partition)
    if len(assign) != basis.num_modes:
        raise ValueError("sector assignment length must equal mode count")
    if basis.cutoff < op.N:
        raise ValueError("embedding basis cutoff must be at least the block cutoff")
    patterns: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    seen = set()
    for occ in basis.states:
        rest = occ[1:]
        if rest in seen:
            continue
        seen.add(rest)
        key = _aux_tuple((0,) + rest, assign, op.partition)
        if key in op.blocks:
            patterns.setdefault(key, []).append(rest)
    dense = np.zeros((basis.size, basis.size), dtype=np.complex128)
    for key, rests in patterns.items():
        block = op.blocks[key]
        mult = len(rests)
        for rest in rests:
            idxs = [basis.index((x,) + rest) for x in range(block.shape[0])]
            dense[np.ix_(idxs, idxs)] += block / mult
    return DenseOperator(basis, dense)
