"""Twirling of input states over the beam-splitter symmetry group.

A twirled state is block diagonal: one matrix chi_i per tuple of sector photon
totals (sectors counted over the non-mode-1 modes). :class:`BlockOperator`
holds that representation for states and POVM elements at the JSON and API
boundary; fits run on dense block-diagonal matrices and the real coordinates
of ``povm.HermitianCoords``, the owner of the blocks' flat layout.
``slot_sectors`` says which sectors back a tuple's slots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .fock import (DenseOperator, JsonFieldError, OccupationBasis, int_from_json, is_json_matrix,
                   list_from_json)
from .optics import ModeMatrix, PartitionSpec, haar_from_normals, plt_on_fock
from .optics import haar_unitary  # noqa: F401  (bench/tracing.py wraps it under this name)

__all__ = [
    "BlockOperator",
    "block_tuples",
    "twirl_analytic",
    "twirl_oracle_mc",
    "twirled_closed_form",
    "embed_full",
    "reduced_assignment",
    "slot_sectors",
]


def block_tuples(N: int, length: int) -> list[tuple[int, ...]]:
    """All sector-photon tuples of the given length with sum <= N, graded-lex."""
    return list(OccupationBasis(length, N).states) if length else [()]


@dataclass
class BlockOperator:
    """Operator block diagonal over sector-photon tuples.

    ``blocks[i_tuple]`` is a complex matrix of dimension N - sum(i_tuple) + 1
    acting on the mode-1 Fock amplitudes; every tuple with sum <= N is
    present. The tuple length is ``len(slot_sectors(K, s1_multi))``; the
    operator records neither, and ``embed_full`` reads both from a sector
    assignment.
    """

    N: int
    blocks: dict[tuple[int, ...], np.ndarray]

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

    # block algebra -------------------------------------------------------
    def _zip(self, other: "BlockOperator"):
        if not isinstance(other, BlockOperator):
            raise TypeError("expected BlockOperator")
        if self.N != other.N or set(self.blocks) != set(other.blocks):
            raise ValueError("block structure mismatch")
        for k in self.blocks:
            yield k, self.blocks[k], other.blocks[k]

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        return BlockOperator(self.N, {k: a + b for k, a, b in self._zip(other)})

    def scale(self, c: complex) -> "BlockOperator":
        return BlockOperator(self.N, {k: c * m for k, m in self.blocks.items()})

    def trace(self) -> complex:
        return complex(sum(np.trace(m) for m in self.blocks.values()))

    # np.max/np.min over the blocks, so that a NaN in any block propagates
    def max_abs_dev_from_hermitian(self) -> float:
        return float(np.max([np.max(np.abs(m - m.conj().T)) for m in self.blocks.values()]))

    def min_eigenvalue(self) -> float:
        return float(np.min([np.min(np.linalg.eigvalsh((m + m.conj().T) / 2))
                             for m in self.blocks.values()]))

    def max_eigenvalue(self) -> float:
        return max(float(np.max(np.linalg.eigvalsh((m + m.conj().T) / 2)))
                   for m in self.blocks.values())

    def validate_state(self) -> None:
        """Raise ValueError unless the blocks are Hermitian within 1e-10, have
        no eigenvalue below -1e-9, and have a trace within 1e-9 of 1."""
        # written as "not within" so that a NaN fails every check
        dev = self.max_abs_dev_from_hermitian()
        if not dev <= 1e-10:
            raise ValueError(f"state blocks are not Hermitian (deviation {dev:.3e})")
        low = self.min_eigenvalue()
        if not low >= -1e-9:
            raise ValueError(f"state blocks are not PSD (minimum eigenvalue {low:.3e})")
        tr = self.trace()
        if not (abs(tr.real - 1.0) <= 1e-9 and abs(tr.imag) <= 1e-9):
            raise ValueError(f"state trace is not 1 (trace {tr:.6g})")

    # constructors --------------------------------------------------------
    @classmethod
    def zeros(cls, N: int, length: int) -> "BlockOperator":
        return cls(N, {t: np.zeros((N - sum(t) + 1, N - sum(t) + 1), dtype=np.complex128)
                       for t in block_tuples(N, length)})

    @classmethod
    def identity(cls, N: int, length: int) -> "BlockOperator":
        return cls(N, {t: np.eye(N - sum(t) + 1, dtype=np.complex128)
                       for t in block_tuples(N, length)})

    @classmethod
    def maximally_mixed(cls, N: int, length: int) -> "BlockOperator":
        ident = cls.identity(N, length)
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
    def from_json(cls, d: dict) -> "BlockOperator":
        def block(item):
            if not (isinstance(item["i"], list) and all(type(v) is int for v in item["i"])):
                raise JsonFieldError(f"i must be a JSON array of integers, got {item['i']!r}")
            for part in ("re", "im"):
                if not is_json_matrix(item[part]):
                    raise JsonFieldError(f"{part} must be a JSON matrix of numbers")
            return tuple(item["i"]), (np.array(item["re"], dtype=float)
                                      + 1j * np.array(item["im"], dtype=float))
        return cls(int_from_json(d, "N"), dict(list_from_json(d, "tuples", block)))


def slot_sectors(K: int, s1_multi: bool) -> range:
    """Sector index backing each block-tuple slot: every sector when sector 1
    holds several modes, else sectors 2..K. Its length is the tuple length."""
    return range(0 if s1_multi else 1, K)


def _check_assignment(sector_assignment: Sequence[int], num_modes: int, K: int,
                      s1_multi: bool) -> list[int]:
    """The assignment as a list of ints, checked against the mode count, K
    sectors and s1_multi."""
    assign = [int(s) for s in sector_assignment]
    if len(assign) != num_modes:
        raise ValueError("sector assignment length must equal mode count")
    if any(s < 0 or s >= K for s in assign):
        raise ValueError("sector assignment index out of range")
    if assign[0] != 0:
        raise ValueError("mode 1 must be assigned to sector 1")
    if set(assign) != set(range(K)):
        raise ValueError("every sector must contain at least one mode")
    if (assign.count(0) > 1) != s1_multi:
        raise ValueError("sector assignment inconsistent with partition.s1_multi")
    return assign


def _patterns(basis: OccupationBasis, assign: list[int], slots: range,
              N: int) -> dict[tuple[int, ...], list[list[int]]]:
    """Block key -> one index list per non-mode-1 occupation pattern n' whose
    slot totals are the key: the basis indices of (x, n'), x = 0, 1, ..., over
    the states with at most N photons."""
    rows: dict[tuple[int, ...], list[int]] = {}
    for idx, occ in enumerate(basis.states):
        if basis.totals[idx] <= N:
            rows.setdefault(occ[1:], []).append(idx)
    out: dict[tuple[int, ...], list[list[int]]] = {}
    for rest, idxs in rows.items():
        key = tuple(sum(n for n, s in zip(rest, assign[1:]) if s == k) for k in slots)
        out.setdefault(key, []).append(idxs)
    return out


def twirl_analytic(rho: DenseOperator, sector_assignment: Sequence[int],
                   partition: PartitionSpec, N: int) -> BlockOperator:
    """Block representative of the twirled state.

    chi_i(x, y) = sum over non-mode-1 occupation patterns n' with sector
    totals i of <x, n'| rho |y, n'>.
    """
    basis = rho.basis
    assign = _check_assignment(sector_assignment, basis.num_modes, partition.K,
                               partition.s1_multi)
    leak = sum(rho.entries[i, i].real for i in range(basis.size)
               if basis.totals[i] > N)
    if leak > 1e-9:
        raise ValueError(f"state has weight {leak:.3e} above photon cutoff N={N}")
    slots = slot_sectors(partition.K, partition.s1_multi)
    out = BlockOperator.zeros(N, len(slots))
    for key, rows in _patterns(basis, assign, slots, N).items():
        block = out.blocks[key]
        for idxs in rows:
            d = len(idxs)
            block[:d, :d] += rho.entries[np.ix_(idxs, idxs)]
    return out


# size of one stack of rest-mode Fock unitaries in twirl_oracle_mc; a larger
# stack gains little speed and raises peak memory
_STACK_BYTES = 256 * 1024


def _haar_stack(rng: np.random.Generator, count: int, modes: int,
                blocks: list[tuple[int, tuple]]) -> np.ndarray:
    """(count, modes, modes) identities with a Haar block at each (size,
    np.ix_ index) of ``blocks``, drawn sample by sample, block by block, from
    one normal draw; the normals are freed on return."""
    X = np.tile(np.eye(modes, dtype=np.complex128), (count, 1, 1))
    width = [2 * size * size for size, _ in blocks]  # normals per sample and block
    normals = np.split(rng.standard_normal((count, sum(width))), np.cumsum(width)[:-1], axis=1)
    for (size, block), z in zip(blocks, normals):
        X[(slice(None),) + block] = haar_from_normals(z.reshape(count, 2, size, size))
    return X


def twirl_oracle_mc(rho: DenseOperator, sector_assignment: Sequence[int],
                    partition: PartitionSpec, samples: int, seed: int) -> DenseOperator:
    """Monte-Carlo Haar average of X rho X^dag over block PLTs fixing mode 1.

    The Haar blocks are drawn sample by sample, group by group, from one
    generator, as ``haar_unitary`` would draw them one at a time: one normal
    draw and one stacked Gram-Schmidt per group for each Haar stack of
    samples, a whole number of Fock stacks. Each Haar stack is checked for
    unitarity once, as one ``ModeMatrix``, whose sub-stacks the Fock map
    takes without a second check. As X fixes mode 1, its Fock unitary is
    I (x) R, R = plt_on_fock(X[1:, 1:]) on the other modes, block diagonal in
    their photon number. ``plt_on_fock`` maps the samples onto that rest
    basis in stacks of ``_STACK_BYTES``; one GEMM per stack adds to
    Sop[(a, c), (b, d)] = sum over samples of R[a, c] conj(R[b, d]), for the
    in-shell pairs |a| = |c|, |b| = |d|, and at the end
    out[(n, a), (m, b)] = sum_{c, d} Sop[(a, c), (b, d)] rho[(n, c), (m, d)] / samples.
    """
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    basis = rho.basis
    S = basis.num_modes
    assign = _check_assignment(sector_assignment, S, partition.K, partition.s1_multi)
    if S == 1:  # no mode to mix: every X is the identity
        return DenseOperator(basis, rho.entries.copy())
    rest = OccupationBasis(S - 1, basis.cutoff)
    # mode groups the Haar blocks act on, per sector, indexed within the rest modes
    groups = [[m - 1 for m in range(1, S) if assign[m] == k] for k in range(partition.K)]
    blocks = [(len(modes), np.ix_(modes, modes)) for modes in groups if modes]
    a, c = np.nonzero(rest.totals[:, None] == rest.totals)  # in-shell pairs (a, c)
    rng = np.random.default_rng(seed)
    chunk = max(1, _STACK_BYTES // (16 * rest.size ** 2))
    # the Haar stack: the whole number of Fock stacks whose mode matrices fit
    # in _STACK_BYTES, at least one
    haar = chunk * max(1, _STACK_BYTES // (16 * (S - 1) ** 2 * chunk))
    sop = np.zeros((len(a), len(a)), dtype=np.complex128)
    for start in range(0, samples, haar):
        count = min(haar, samples - start)
        X = ModeMatrix(_haar_stack(rng, count, S - 1, blocks))
        for i in range(0, count, chunk):
            F = plt_on_fock(X[i:i + chunk], rest)[:, a, c]
            sop += F.T @ F.conj()
    # (row, pair, source): row (n, a) reads rho's row (n, c) through each pair (a, c), in order
    shell = [[] for _ in range(rest.size)]  # shell[a]: its pairs' indices p and states c
    for p, (i, j) in enumerate(zip(a.tolist(), c.tolist())):
        shell[i].append((p, rest.states[j]))
    row, pair, src = np.array([(i, p, basis.index(occ[:1] + state))
                               for i, occ in enumerate(basis.states)
                               for p, state in shell[rest.index(occ[1:])]]).T
    acc = np.zeros_like(rho.entries)
    np.add.at(acc, (row[:, None], row), sop[np.ix_(pair, pair)] * rho.entries[np.ix_(src, src)])
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
    auxiliary mode per tuple slot): ``embed_full`` with it on a
    (1 + tuple_length)-mode basis puts chi_i at |x, i><y, i|."""
    return [0] + list(slot_sectors(partition.K, partition.s1_multi))


def embed_full(op: BlockOperator, sector_assignment: Sequence[int],
               basis: OccupationBasis) -> DenseOperator:
    """Dense embedding on the original S modes with uniform multiplicity factors.

    For each tuple i the multiplicity space (all non-mode-1 occupation
    patterns with those sector totals) carries chi_i / d_i on each pattern.
    The assignment gives the sector structure: K = max(assignment) + 1
    sectors, and s1_multi when sector 1 holds more than one mode.
    """
    assign = [int(s) for s in sector_assignment]
    K, s1_multi = max(assign, default=0) + 1, assign.count(0) > 1
    _check_assignment(assign, basis.num_modes, K, s1_multi)
    slots = slot_sectors(K, s1_multi)
    if op.tuple_length != len(slots):
        raise ValueError(f"block tuple length {op.tuple_length} does not fit an assignment "
                         f"of {K} sector(s) with s1_multi={s1_multi}")
    if basis.cutoff < op.N:
        raise ValueError("embedding basis cutoff must be at least the block cutoff")
    dense = np.zeros((basis.size, basis.size), dtype=np.complex128)
    for key, rows in _patterns(basis, assign, slots, op.N).items():
        block = op.blocks[key] / len(rows)
        for idxs in rows:
            dense[np.ix_(idxs, idxs)] += block
    return DenseOperator(basis, dense)
