"""POVM elements of the weak-field-homodyne photon counter over block state space.

Outcomes are tuples: two-counter counting outcomes (k, l) where each part is a
photon count or ">" (overflow past the counter range), single-counter outcomes
(k,) / (">",), and click-detector outcomes with parts 0 (no click) or "I"
(click). All elements are block operators over the sector-photon tuples of a
partition, truncated at max photon number N.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import (JsonFieldError, complex_from_json, complex_to_json, field_from_json,
                   int_from_json, is_json_matrix, is_json_number, list_from_json,
                   kept_singular_values, poisson_table)
from .optics import PartitionSpec
from .twirl import BlockOperator, block_tuples, slot_sectors

__all__ = [
    "CounterConfig", "PovmElement", "Setting", "MeasurementContext", "HermitianCoords",
    "DatasetMismatch", "pi_kl", "pi_k", "apply_loss", "compose_response", "identity_response",
    "build_povm", "ic_check",
]

@dataclass(frozen=True)
class CounterConfig:
    """Detector description: counter count, resolvable range, and imperfections.

    ``loss`` is a pair of transmission probabilities (nu_1, nu_2); ``response``
    is a pair of conditional-probability matrices with rows indexed by the
    detected outcome (0..N_c then ">") and columns by the number of photons
    present (0..M_cut). For a single counter each optional is a 1-tuple.
    """

    counters: int
    N_c: int
    loss: tuple[float, ...] | None = None
    response: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.counters not in (1, 2):
            raise ValueError("counters must be 1 or 2")
        if self.N_c < 0:
            raise ValueError("N_c must be >= 0")
        if self.loss is not None:
            nus = tuple(float(v) for v in self.loss)
            if len(nus) != self.counters:
                raise ValueError("loss must give one transmission per counter")
            if not all(0.0 <= nu <= 1.0 for nu in nus):
                raise ValueError("transmission nu must lie in [0,1]")
            object.__setattr__(self, "loss", nus)
        if self.response is not None:
            mats = tuple(np.asarray(t, dtype=float) for t in self.response)
            if len(mats) != self.counters:
                raise ValueError("response must give one matrix per counter")
            if any(m.ndim != 2 for m in mats):
                raise ValueError("response must give 2-D matrices (outcomes x photons)")
            cols = {m.shape[1] for m in mats}
            if len(cols) != 1:
                raise ValueError("response matrices must share a column count")
            for m in mats:
                if not np.all(np.isfinite(m)):
                    raise ValueError("response matrices must be finite")
                if m.shape[0] != self.N_c + 2:
                    raise ValueError("response must have N_c + 2 rows (counts then overflow)")
                if np.max(np.abs(m.sum(axis=0) - 1.0)) > 1e-10:
                    raise ValueError("response columns must sum to 1")
            object.__setattr__(self, "response", mats)

    def to_json(self) -> dict:
        return {"counters": self.counters, "n_c": self.N_c,
                "loss": list(self.loss) if self.loss is not None else None,
                "response": ([m.tolist() for m in self.response]
                             if self.response is not None else None)}

    @classmethod
    def from_json(cls, d: dict) -> "CounterConfig":
        loss = d.get("loss")
        response = d.get("response")
        if loss is not None and not (isinstance(loss, list) and all(map(is_json_number, loss))):
            raise JsonFieldError(f"loss must be a JSON array of numbers, got {loss!r}")
        if response is not None and not (isinstance(response, list)
                                         and all(map(is_json_matrix, response))):
            raise JsonFieldError("response must be a JSON array of matrices of numbers")
        return cls(counters=int_from_json(d, "counters"), N_c=int_from_json(d, "n_c"),
                   loss=loss, response=response)


@dataclass
class PovmElement:
    outcome: tuple
    op: BlockOperator
    gamma: complex

    def to_json(self) -> dict:
        return {
            "outcome": [p if isinstance(p, str) else int(p) for p in self.outcome],
            "gamma": complex_to_json(self.gamma),
            "op": self.op.to_json(),
        }


class HermitianCoords:
    """The flat layout of block operators, and the real coordinates of
    Hermitian block-diagonal matrices.

    A stack row holds an operator's blocks raveled and concatenated; the dense
    form puts them on the diagonal of one D x D matrix. Only a layout from
    ``of(N, length)``, over the tuples ``twirl.block_tuples(N, length)``, knows
    its N and block keys, and so stacks block operators and builds them back.
    Coordinates run block by block: the diagonal, then sqrt(2) Re and sqrt(2)
    Im of the upper triangle, so tr(X Y) = vec(X) . vec(Y) for Hermitian X, Y.
    """

    def __init__(self, dims: list[int]):
        self.N = self.keys = None  # the cutoff and block keys, which of() sets
        self.dims = dims = np.array(dims, dtype=np.int64)
        self.D = int(dims.sum())
        self.start = np.cumsum(dims) - dims  # block offsets along the diagonal
        self.at = np.append(0, np.cumsum(dims ** 2))  # stack-row block offsets, then its length
        # each stack entry's block, that block's first entry and dimension, row i and column j
        entry, block = np.arange(self.at[-1]), np.repeat(np.arange(len(dims)), dims ** 2)
        first, d = self.at[block], dims[block]
        self.ij = i, j = np.divmod(entry - first, d)
        self.mirror = first + j * d + i  # each entry's transpose in a stack row
        self.identity = (i == j).astype(np.complex128)
        # a block's coordinates: the diagonal, then the upper triangle row by row as Re,
        # then as Im; an entry i <= j has its place, and one i < j a second, half on
        upper, half = i < j, d * (d - 1) // 2
        place = first + np.where(upper, d + i * d - i * (i + 1) // 2 + j - i - 1, i)
        stack, imag = np.empty_like(entry), np.zeros_like(entry)
        stack[place[i <= j]] = entry[i <= j]
        stack[(place + half)[upper]], imag[(place + half)[upper]] = entry[upper], 1
        self._entry = block, i, j, imag = block[stack], i[stack], j[stack], imag
        self.weight = np.where(i != j, math.sqrt(2.0), 1.0)
        # positions in the float64 view of a stack row, read at (i, j) and (j, i) for
        # its Hermitian part; those in a dense matrix are built on first use (vec)
        self._stack = 2 * stack + imag
        self._stack_mirror = 2 * self.mirror[stack] + imag
        self._sign = np.where(imag == 1, -1.0, 1.0)

    @cached_property
    def _dense(self) -> np.ndarray:
        """Each coordinate's position in the float64 view of a raveled D x D matrix."""
        block, i, j, imag = self._entry
        return 2 * ((self.start[block] + i) * self.D + self.start[block] + j) + imag

    @cached_property
    def _to(self) -> np.ndarray:
        """Where unvec writes each coordinate: at (row, col), then its conjugate at (col, row)."""
        block, i, j, imag = self._entry
        return np.concatenate([self._dense, (2 * ((self.start[block] + j) * self.D
                                                  + self.start[block] + i) + imag)[i != j]])

    @cached_property
    def _from(self) -> np.ndarray:
        _, i, j, _ = self._entry
        return np.concatenate([np.arange(len(i)), np.flatnonzero(i != j)])

    @cached_property
    def _coef(self) -> np.ndarray:
        _, i, j, _ = self._entry
        return np.concatenate([1.0 / self.weight, self._sign[i != j] / math.sqrt(2.0)])

    @classmethod
    def of(cls, N: int, length: int) -> "HermitianCoords":
        """The layout of the block operators at cutoff N over tuples of the given length."""
        keys = block_tuples(N, length)
        layout = cls([N - sum(key) + 1 for key in keys])
        layout.N, layout.keys = N, keys
        return layout

    def stack(self, ops: list[BlockOperator]) -> np.ndarray:
        """One stack row per operator; each must have the layout's N and block keys."""
        if any(op.N != self.N or list(op.blocks) != self.keys for op in ops):
            raise ValueError("block structure mismatch")
        return np.concatenate([m for op in ops for m in op.blocks.values()],
                              axis=None).reshape(len(ops), -1)

    def unstack(self, row: np.ndarray) -> BlockOperator:
        """The block operator of a stack row."""
        return BlockOperator(self.N, {key: row[a:a + d * d].reshape(d, d)
                                      for key, a, d in zip(self.keys, self.at, self.dims)})

    def split(self, mat: np.ndarray) -> BlockOperator:
        """The block operator on the diagonal of a dense block-diagonal matrix."""
        return BlockOperator(self.N, {key: mat[a:a + d, a:a + d].copy()
                                      for key, a, d in zip(self.keys, self.start, self.dims)})

    def rows(self, stack: np.ndarray, read: np.ndarray | None = None) -> np.ndarray:
        """Coordinates of the Hermitian part of each row of a stack: for a Hermitian X,
        rows(E) . vec(X) = Re tr(E X); with a read map, of the rows stack[..., read[o]]."""
        flat = np.ascontiguousarray(stack, dtype=np.complex128).view(np.float64)
        read = np.arange(self.at[-1])[None] if read is None else read
        # each coordinate's float at (j, i), then at (i, j), through read; halved before
        # the weight, so that a row and its Hermitian part give the same coordinates bit
        # for bit, subnormal entries included; in place, so one gather is live besides out
        pick = (2 * read.take(at // 2, 1) + at % 2 for at in (self._stack_mirror, self._stack))
        out = np.take(flat, next(pick), axis=-1)
        out *= self._sign
        out += np.take(flat, next(pick), axis=-1)
        out /= 2.0
        out *= self.weight
        return np.asfortranarray(out.reshape(-1, len(self.weight)))  # the order P @ x sums in

    def vec(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of a dense block-diagonal Hermitian matrix."""
        flat = np.ascontiguousarray(mat, dtype=np.complex128).reshape(-1).view(np.float64)
        return flat[self._dense] * self.weight

    def unvec(self, x: np.ndarray) -> np.ndarray:
        """The dense block-diagonal Hermitian matrix with coordinates x."""
        out = np.zeros(2 * self.D * self.D)
        out[self._to] = x[self._from] * self._coef
        return out.view(np.complex128).reshape(self.D, self.D)


def _layout(partition: PartitionSpec, N: int) -> HermitianCoords:
    """The layout of the elements over partition at cutoff N."""
    return HermitianCoords.of(N, len(slot_sectors(partition.K, partition.s1_multi)))


def _wrap(labels: list, rows: np.ndarray, layout: HermitianCoords, gamma: complex) -> dict:
    """One element per label from the layout's stack rows, kept as (E + E^dag) / 2."""
    rows = (rows + rows[:, layout.mirror].conj()) / 2
    return {label: PovmElement(label, layout.unstack(row), complex(gamma))
            for label, row in zip(labels, rows)}


def _counts(top: int, overflow: bool = False, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Count sets {first}, ..., {top}, then {> top} when overflow is set, as
    (start, tail) arrays: a set is {start} or, where tail, {n >= start}."""
    start = np.arange(first, top + 1 + overflow)
    return start, start > top


def _count_weights(es: tuple, alphas: np.ndarray, nus: tuple, sets: tuple, shifts: np.ndarray,
                   fact: np.ndarray) -> tuple[list, list]:
    """W[c][g, s, i, j]: counter c's factor of the element for the amplitude
    alphas[c, g], summed over each count set s the mode-1 pair supplies once
    0..N auxiliary photons are counted, raveled per g with a 0 after
    (_block_rows); and index[c][x, s'], the s of the set s' of sets[c] less x
    photons; fact[n] = n!, n = 0..N.

    A counter mode e a + alpha read with transmission nu contributes
    sum_{n in s} nu^n e^{-mu} (e a^dag + alpha*)^n ... (e a + alpha)^n / n!
    (mu = nu |alpha|^2). Expanding both binomials and summing over n leaves
    (a^dag)^i ... a^j with weight e^{i+j} sum_t nu^r alpha*^{j-t} alpha^{i-t}
    P(s - r) / ((i-t)! (j-t)! t!), where r = i + j - t and P(s - r) is the
    Poisson(mu) mass of the count set shifted down by r.

    What no amplitude enters is built once: the (i, j, t) triples and the 0/1
    map that sums over t, and, per count-set pair (start, tail) passed, its set
    codes, their inverse index and the mass read map. Both counters share these
    when the caller passes them one pair (every two-counter and click context
    does), and then one gather, product and summing matmul serve both. One
    poisson_table call covers both counters' means, as each row depends on its
    own mean alone. A mass also keeps its bits at any top of the table, but a
    tail is summed from the far end, so its bits move with the top: a pair
    that reads tails gets a table of its own top, as a counter built alone
    does, and one table serves both pairs unless the one with the lower top
    reads tails (no caller passes such pairs).
    """
    dim, G = len(fact), alphas.shape[1]
    i, j, t = np.indices((dim,) * 3, sparse=True)
    i, j, t = np.nonzero(t <= np.minimum(i, j))  # the triples t <= min(i, j)
    r = i + j - t
    # alpha^n and alpha*^n for n = 0..N, each power as numpy computes it elementwise
    power, n = alphas[:, :, None], np.arange(dim)
    power = np.concatenate([np.conj(power) ** n, power ** n], axis=2)  # [c, g, conj | plain, n]
    coef = (np.array(es)[:, None, None] ** (i + j) * np.array(nus)[:, None, None] ** r
            * power[:, :, j - t] * power[:, :, dim + i - t] / (fact[i - t] * fact[j - t] * fact[t]))
    mu = [nu * abs(v) ** 2 for nu, alpha in zip(nus, alphas.tolist()) for v in alpha]
    readers = [[0, 1]] if sets[0] is sets[1] else [[0], [1]]  # the counters of each pair
    codes = []
    for start, tail in (sets[c[0]] for c in readers):
        # a set below 0 is empty, one reaching down to 0 holds every count
        starts = start - shifts
        code = 2 * np.where(tail, np.maximum(starts, 0), np.maximum(starts, -1)) + tail
        codes.append(np.unique(code, return_inverse=True))  # sorted by (start, tail)
    tops = [max(int(code[-1]) // 2, 0) for code, _ in codes]
    # a pair with tails reads a table of its own top, any other the largest
    largest = max(tops)
    tops = [top if (code % 2).any() else largest for top, (code, _) in zip(tops, codes)]
    tables = {}
    for top in set(tops):
        pmf, upper = poisson_table(mu, top)
        # one gather from [pmf, upper, 0]: a tail set's upper mass, else the mass (0 below
        # 0); complex, so that the product with the coefficients casts nothing
        tables[top] = np.concatenate([pmf, upper, np.zeros((2 * G, 1))], axis=1).reshape(
            2, G, -1).astype(np.complex128)
    sums = (i * dim + j)[:, None] == np.arange(dim * dim)  # the 0/1 map of (i, j, t) to (i, j)
    weights, index = [None, None], [None, None]
    for members, (code, inverse), top in zip(readers, codes, tops):
        start, tail = code // 2, code % 2 == 1
        at = start[:, None] - r
        at = np.where(tail[:, None], top + 1 + np.maximum(at, 0), np.where(at < 0, -1, at))
        # summed over t by a product with the 0/1 map
        w = np.empty((len(members), G, len(code) * dim * dim + 1), dtype=np.complex128)
        w[..., -1] = 0.0
        mass = tables[top][members][:, :, at]
        _rows_matmul(np.multiply(coef[members][:, :, None], mass, out=mass), sums,
                     out=w[..., :-1].reshape(len(members), G, len(code), dim * dim))
        for c, w_c in zip(members, w):
            weights[c], index[c] = w_c, inverse.reshape(len(shifts), -1)
    return weights, index


def _rows_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b (into out), each row's bits independent of how many rows a has: numpy
    sends a one-row product to a BLAS dot, which sums in another order than gemv or gemm."""
    if a.shape[-2] > 1:
        return np.matmul(a, b, out=out)
    product = (np.concatenate([a, np.zeros_like(a)], axis=-2) @ b)[..., :1, :]
    if out is None:
        return product
    out[...] = product
    return out


def _aux_weights(partition: PartitionSpec, layout: HermitianCoords, nu1: float,
                 nu2: float) -> np.ndarray:
    """w[b, x, y]: the chance that block b's auxiliary photons put x at counter 1
    and y at counter 2; each reaches them with nu1 eta_s^2, nu2 zeta_s^2, or is lost."""
    shares = [(nu1 * e ** 2, nu2 * z ** 2, (1 - nu1) * e ** 2 + (1 - nu2) * z ** 2)
              for e, z in (partition.sectors[slot]
                           for slot in slot_sectors(partition.K, partition.s1_multi))]
    w = np.zeros((len(layout.keys), layout.N + 1, layout.N + 1))
    for b, key in enumerate(layout.keys):
        splits = ([(x, y, math.comb(i, x) * math.comb(i - x, y) * p1 ** x * p2 ** y
                    * p0 ** (i - x - y)) for x in range(i + 1) for y in range(i + 1 - x)]
                  for i, (p1, p2, p0) in zip(key, shares))  # per slot of the key
        for parts in itertools.product(*splits):
            x, y = sum(p[0] for p in parts), sum(p[1] for p in parts)
            w[b, x, y] += math.prod(p[2] for p in parts)
    return w


def _block_rows(u: np.ndarray, v: np.ndarray, index1: np.ndarray, index2: np.ndarray,
                w: np.ndarray, at: np.ndarray, dims: np.ndarray, left: np.ndarray,
                right: np.ndarray) -> np.ndarray:
    """out[g, s1, n2 * at[b]:n2 * at[b + 1]], as [s2, r, c] of block b (dimension
    d = dims[b]): the sum over x, y of w[b, x, y] conv(u[g, index1[x, s1]],
    v[g, index2[y, s2]]), conv(A, B)[r, c] = sum_{p, q} A[r - p, q] B[p, c - q]
    cut at d. u, v and out hold their matrices raveled per g, with a 0 after
    that the entries of left and right past the end read (_counting_rows).

    One product per block sums over (x, y, p, q), s2 and r down its rows, s1 and
    g along its stack, and writes into out: its summed and column lengths are the
    layout's, so each entry comes out bit for bit as in any other batch of
    gammas or sets. They keep that shape: folding s1 into the columns made the
    load about 10 % faster, but changed the bits of P on six of six contexts.
    np.take lays each product's operands out contiguously, as numpy sums a
    product of others itself, in another order than BLAS. The nonzero (x, y) of
    every block, their weights and the sets' offsets in u and v are found once,
    for all blocks."""
    G, dim, n1, n2 = len(u), len(left), index1.shape[1], index2.shape[1]
    out = np.empty((G, n1 * n2 * at[-1] + 1), dtype=np.complex128)
    out[:, -1] = 0.0
    blocks = out[:, :-1].reshape(G, n1, n2 * at[-1])
    b, x, y = np.nonzero(w)
    scale = w[b, x, y].astype(np.complex128)[:, None, None]
    first1, first2 = (index1 * dim * dim)[x].T, (index2 * dim * dim)[y].T  # [s1 | s2, pair]
    ends = np.searchsorted(b, np.arange(len(w)) + 1).tolist()
    for lo, hi, a, d in zip([0] + ends, ends, at, dims):
        lhs = np.take(v, first2[:, None, lo:hi, None, None] + left[:d, None, :d, :d], axis=1,
                      mode="clip")
        lhs *= scale[lo:hi]
        rhs = np.take(u, first1[:, lo:hi, None, None, None] + right[:d, :d, :d], axis=1,
                      mode="clip")
        _rows_matmul(lhs.reshape(G, 1, n2 * d, -1), rhs.reshape(G, n1, -1, d),
                     out=blocks[..., n2 * a:n2 * (a + d * d)].reshape(G, n1, n2 * d, d))
        del lhs, rhs  # freed before the next block's operands are gathered
    out += 0.0  # makes a product's -0 a 0, as the Hermitian part of the row (_wrap) has it
    return out


def _counting_rows(gammas: list, partition: PartitionSpec, layout: HermitianCoords,
                   nus: tuple, sets: tuple, order: np.ndarray | None = None) -> tuple:
    """The elements for the count sets sets[0] x sets[1] (see _counts) at each of gammas,
    as the kernel's output out, the read map of their stack rows out[g, read[o]] for
    the pairs o = s1 * len(sets[1]) + s2 in order (all pairs when None), and the largest
    modulus of an entry of each gamma's sum of elements less the identity, summed over s1
    down the output, then over s2 by its columns.

    With counter modes A = eta a + zeta gamma and B = zeta a - eta gamma read with
    transmissions nu1, nu2, the mode-1 element for counts (k, l) is the normally
    ordered :(nu1 A^dag A)^k (nu2 B^dag B)^l e^{-nu1 A^dag A - nu2 B^dag B}:/(k! l!)
    = nu1^k nu2^l e^{-(nu1 zeta^2 + nu2 eta^2)|gamma|^2} G^dag diag(x^n) G/(k! l!),
    G = e^{-s* a} A^k B^l, s = eta zeta gamma (nu1 - nu2), x = 1 - nu1 eta^2 - nu2 zeta^2,
    exact on the truncated space as only lowering operators act on the right.
    Each counter's factor is sum W[p, q] (a^dag)^p ... a^q (_count_weights), and
    (a^dag)^p M a^q has entries sqrt(r! c!) M'[r - p, c - q] for M = e^{-s a^dag}
    diag(x^n) e^{-s* a}, M'[u, v] = M[u, v] / sqrt(u! v!). So the element
    is sqrt(r! c!) conv(W1, conv(W2, M'))[r, c] (_block_rows); an overflow set
    {n >= start} is summed in W like any other. Auxiliary-sector photons shift
    the count sets the mode-1 pair must supply (_aux_weights).
    """
    if partition.K > 2:
        raise ValueError("analytic elements support K <= 2 only; use the dense oracle")
    eta, zeta = partition.sectors[0]
    G, dim = len(gammas), layout.N + 1
    shifts = np.arange(dim if slot_sectors(partition.K, partition.s1_multi) else 1)[:, None]
    gammas = np.array(gammas, dtype=np.complex128)
    fact = np.cumprod(np.arange(dim, dtype=float).clip(1.0))  # n!
    # the read maps of conv in both _block_rows calls; a 0 entry is read past the end
    i, j, k = np.indices((dim,) * 3, sparse=True)
    gather = (np.where(j <= i, (i - j) * dim + k, 2 ** 62),  # [r, p, q]: A[r - p, q]
              np.where(j <= k, i * dim + k - j, 2 ** 62))  # [p, q, c]: B[p, c - q]
    u, n = np.nonzero(np.tri(dim, dtype=bool))
    x = (1 - nus[0]) * eta ** 2 + (1 - nus[1]) * zeta ** 2  # 1 - nu1 eta^2 - nu2 zeta^2
    t = np.zeros((G, dim, dim), dtype=np.complex128)  # T[u, n] = (-s)^(u - n) / (u - n)!
    t[:, u, n] = (-eta * zeta * (nus[0] - nus[1]) * gammas[:, None]) ** (u - n) / fact[u - n]
    # M' = T diag(x^n / n!) T^dag
    middle = (t * (x ** np.arange(dim) / fact)) @ np.conj(t).transpose(0, 2, 1)
    (u, v), index = _count_weights((eta, zeta), np.array([[zeta], [-eta]]) * gammas, nus, sets,
                                   shifts, fact)
    v = _block_rows(v, np.concatenate([middle.reshape(G, -1), np.zeros((G, 1))], 1),  # conv(W2, M')
                    np.arange(index[1].max() + 1)[None], np.zeros((1, 1), int),
                    np.ones((1, 1, 1)), [0, dim * dim], [dim], *gather)
    rows = _block_rows(u, v, *index, _aux_weights(partition, layout, *nus), layout.at,
                       layout.dims, *gather)
    del u, v  # freed before the rows are gathered
    # pair (s1, s2) reads s2's columns (below) of s1's part, each row's blocks side by side
    (n1, n2), size = (len(m[0]) for m in index), np.repeat(layout.dims ** 2, layout.dims ** 2)
    s1, s2 = np.divmod(np.arange(n1 * n2) if order is None else order, n2)
    below = (np.arange(n2)[:, None] * size + np.arange(layout.at[-1])
             + (n2 - 1) * np.repeat(layout.at[:-1], layout.dims ** 2))
    read = (s1 * n2 * layout.at[-1])[:, None] + below[s2]
    scale = np.empty(below.size)  # sqrt(r! c!) at each entry (r, c), on each s1's columns
    scale[below] = (fact[layout.ij[0]] * fact[layout.ij[1]]) ** 0.5
    rows *= np.append(np.tile(scale, n1), 1.0)
    total = np.take(rows[:, :-1].reshape(G, n1, -1).sum(axis=1), below, axis=1).sum(axis=1)
    return rows, read, np.max(np.abs(total - layout.identity), axis=1)


def pi_kl(gamma: complex, k: int, l: int, partition: PartitionSpec, N: int) -> PovmElement:
    """Ideal two-counter element for k photons at counter 1 and l at counter 2."""
    if k < 0 or l < 0:
        raise ValueError("counts must be >= 0")
    sets = (_counts(k, first=k), _counts(l, first=l))
    layout = _layout(partition, N)
    out, read, _ = _counting_rows([complex(gamma)], partition, layout, (1.0, 1.0), sets)
    return _wrap([(k, l)], out[0, read], layout, gamma)[(k, l)]


def pi_k(gamma: complex, k: int, partition: PartitionSpec, N: int, *,
         counter: int = 1) -> PovmElement:
    """Single-counter element: k photons at the chosen counter, the other summed out."""
    if counter not in (1, 2):
        raise ValueError("counter must be 1 or 2")
    if k < 0:
        raise ValueError("counts must be >= 0")
    counted, other = _counts(k, first=k), _counts(0)
    nus, sets = ((1.0, 0.0), (counted, other)) if counter == 1 else ((0.0, 1.0), (other, counted))
    layout = _layout(partition, N)
    out, read, _ = _counting_rows([complex(gamma)], partition, layout, nus, sets)
    return _wrap([(k,)], out[0, read], layout, gamma)[(k,)]


def _thinning_matrix(nu: float, cut: int) -> np.ndarray:
    """w[k, m] = P(k photons survive | m present) under transmission nu."""
    return np.array([[math.comb(m, k) * nu ** k * (1 - nu) ** (m - k) if k <= m else 0.0
                       for m in range(cut + 1)] for k in range(cut + 1)])


def apply_loss(elements: dict, nu_1: float, nu_2: float, conv_cut: int = 25) -> dict:
    """Binomial-thinning loss channel applied to ideal counting elements.

    Pi'_{kl} = sum_{m>=k} sum_{n>=l} C(m,k) C(n,l) nu_1^k (1-nu_1)^(m-k)
    nu_2^l (1-nu_2)^(n-l) Pi_{mn}, with both sums truncated at conv_cut.
    Input keys are (m, n) pairs; returns elements over the same keys. The
    POVM build sums loss in closed form, so this serves as the reference for
    that sum.
    """
    if not (0.0 <= nu_1 <= 1.0 and 0.0 <= nu_2 <= 1.0):
        raise ValueError("transmission nu must lie in [0,1]")
    keys = list(elements)
    if len(keys[0]) != 2:
        raise ValueError("apply_loss takes two-counter (m, n) elements")
    first = elements[keys[0]]
    if first.op.N > conv_cut:
        raise ValueError("conv_cut must be at least the photon cutoff N")
    cut_m, cut_n = (min(conv_cut, max(key[c] for key in keys)) for c in (0, 1))
    grid = list(itertools.product(range(cut_m + 1), range(cut_n + 1)))
    for key in grid:
        if key not in elements:
            raise ValueError(f"missing input element {key}")
    layout = HermitianCoords.of(first.op.N, first.op.tuple_length)
    rows = (np.kron(_thinning_matrix(nu_1, cut_m), _thinning_matrix(nu_2, cut_n))
            @ layout.stack([elements[key].op for key in grid]))
    return {(m, n): PovmElement((m, n), layout.unstack(
        rows[m * (cut_n + 1) + n] if m <= cut_m and n <= cut_n else np.zeros_like(rows[0])),
        first.gamma) for m, n in keys}


def compose_response(T: np.ndarray, nu: float) -> np.ndarray:
    """Fold a transmission nu into a detector response: T'[n,m] = sum_j T[n,j]
    C(m,j) nu^j (1-nu)^(m-j)."""
    T = np.asarray(T, dtype=float)
    return T @ _thinning_matrix(nu, T.shape[1] - 1)


def identity_response(N_c: int, M_cut: int) -> np.ndarray:
    """Ideal counter as a response matrix: counts reported faithfully up to N_c,
    anything above lands in the overflow row."""
    T = np.zeros((N_c + 2, M_cut + 1))
    T[np.minimum(np.arange(M_cut + 1), N_c + 1), np.arange(M_cut + 1)] = 1.0
    return T


def _respond(v: np.ndarray, config: CounterConfig) -> tuple[list, np.ndarray]:
    """Outcome labels and rows from flattened ideal elements (photons present
    0..M_cut, row-major over counters) and the config's responses, loss folded in."""
    mats = config.response
    if config.loss is not None:
        mats = tuple(compose_response(t, nu) for t, nu in zip(mats, config.loss))
    labels = [*range(config.N_c + 1), ">"]  # counts, then overflow
    if config.counters == 1:
        return [(o,) for o in labels], mats[0] @ v
    weights = np.einsum("km,ln->klmn", *mats).reshape(len(labels) ** 2, -1)
    return [(o1, o2) for o1 in labels for o2 in labels], weights @ v


@dataclass(frozen=True)
class Setting:
    """One probe setting: amplitude, detector configuration, partition, cutoff."""

    gamma: complex
    counter: CounterConfig
    partition: PartitionSpec
    N: int
    detector: str = "counting"

    def __post_init__(self):
        if self.detector not in ("counting", "click"):
            raise ValueError("detector must be counting or click")
        if self.detector == "click" and self.counter.counters != 2:
            raise ValueError(f"click detectors need counters = 2, got {self.counter.counters}")
        if self.detector == "click" and (self.counter.loss or self.counter.response):
            raise ValueError("click detectors with loss/response are not supported")
        gamma = complex(self.gamma)
        if not (math.isfinite(gamma.real) and math.isfinite(gamma.imag)):
            raise ValueError(f"gamma must be finite, got {gamma}")
        object.__setattr__(self, "gamma", gamma)

    def to_json(self) -> dict:
        return {"gamma": complex_to_json(self.gamma), "counter": self.counter.to_json(),
                "partition": self.partition.to_json(), "N": int(self.N), "detector": self.detector}

    @classmethod
    def from_json(cls, d: dict, field=field_from_json) -> "Setting":
        """A setting from JSON; field(d, key, parse) reads its counter and partition."""
        counter = field(d, "counter", CounterConfig.from_json)
        return cls(gamma=field_from_json(d, "gamma", complex_from_json), counter=counter,
                   partition=field(d, "partition", PartitionSpec.from_json),
                   N=int_from_json(d, "N"), detector=d.get("detector", "counting"))


def _passes(settings: list[Setting], layout: HermitianCoords):
    """One kernel pass per group of settings alike but for gamma (counters by their JSON):
    members, outcome labels in a fixed order, and the pass (_counting_rows)."""
    groups: dict[tuple, list[int]] = {}
    counters = {id(s.counter): s.counter for s in settings}  # settings keeps each alive
    key = {i: repr(c.to_json()) for i, c in counters.items()}  # once per distinct counter
    for s, setting in enumerate(settings):
        groups.setdefault((setting.detector, key[id(setting.counter)]), []).append(s)
    for members in groups.values():
        first, gammas = settings[members[0]], [settings[s].gamma for s in members]
        cfg, part = first.counter, first.partition
        if first.detector == "click":
            if part.K != 1:
                raise ValueError("click POVM requires K = 1")
            click = _counts(0, overflow=True)  # a click overflows 0
            labels = [(0, 0), ("I", 0), (0, "I"), ("I", "I")]  # pairs 0, 2, 1, 3 of the 2 x 2
            kernel = _counting_rows(gammas, part, layout, (1.0, 1.0), (click, click),
                                    np.array([0, 2, 1, 3]))
        elif cfg.response is not None:  # ideal counts of every photon number the responses cover
            present = _counts(cfg.response[0].shape[1] - 1)
            # a single counter's absent partner reads nothing
            nus, other = ((1.0, 0.0), _counts(0)) if cfg.counters == 1 else ((1.0, 1.0), present)
            out, read, _ = _counting_rows(gammas, part, layout, nus, (present, other))
            labels, rows = _respond(np.take(out, read, axis=1), cfg)  # then read in order
            kernel = (rows.reshape(len(gammas), -1), np.arange(rows[0].size).reshape(rows[0].shape),
                      np.max(np.abs(rows.sum(axis=1) - layout.identity), axis=1))
            del out, read, rows  # the kernel holds what the group needs
        else:
            nus = cfg.loss or (1.0, 1.0)
            counts = _counts(cfg.N_c, overflow=True)
            names = [*range(cfg.N_c + 1), ">"]
            if cfg.counters == 1:
                kernel = _counting_rows(gammas, part, layout, (nus[0], 0.0), (counts, _counts(0)))
                labels = [(o,) for o in names]
            else:
                # counts in range first, then overflow at counter 2, at counter 1, at both
                over = np.arange(len(names)) > cfg.N_c
                order = np.argsort(2 * over[:, None] + over, axis=None, kind="stable")
                grid = list(itertools.product(names, names))
                labels = [grid[o] for o in order.tolist()]
                kernel = _counting_rows(gammas, part, layout, nus, (counts, counts), order)
        yield members, labels, *kernel
        del kernel  # freed before the next group's pass


def build_povm(setting: Setting) -> dict:
    """Complete outcome map for one setting, in a fixed construction order."""
    layout = _layout(setting.partition, setting.N)
    _, labels, out, read, _ = next(_passes([setting], layout))
    return _wrap(labels, out[0, read], layout, setting.gamma)


class DatasetMismatch(ValueError):
    """A dataset that does not fit the measurement context it is fitted in."""


@dataclass
class MeasurementContext:
    """All probe settings of an experiment at one partition and cutoff N, and
    their real design matrix, built once with the context.

    Setting s has outcomes labels[s]; they own rows ``offsets[s]:offsets[s + 1]`` of
    ``P``, the coordinates (``coords``) of their elements, in that order (``row_of[s]``,
    built on first use, maps each outcome to its row), so a state with coordinates x
    has Born probabilities ``P @ x``. ``rank`` is P's rank, computed on first use
    (sampling never reads it), and ``P.shape[1]`` the real parameters of a state.
    """

    settings: list[Setting]
    labels: list[list]
    P: np.ndarray
    coords: HermitianCoords

    def __post_init__(self):
        self.offsets = np.cumsum([0] + [len(labels) for labels in self.labels])

    @classmethod
    def build(cls, settings: list[Setting]) -> "MeasurementContext":
        """The context of settings, which must share one partition and N;
        those that differ only in gamma are built together (_passes), and
        every setting's POVM must sum to identity."""
        if not settings:
            raise ValueError("context needs at least one setting")
        first = settings[0]
        for s, name in itertools.product(range(len(settings)), ("partition", "N")):
            if getattr(settings[s], name) != getattr(first, name):
                raise ValueError(f"settings[{s}].{name} differs from settings[0].{name}: "
                                 "a context holds one partition and one N")
        layout = _layout(first.partition, first.N)
        labels, rows, dev = ([None] * len(settings) for _ in range(3))
        for members, names, out, read, devs in _passes(settings, layout):
            P = layout.rows(out, read)
            for s, rows[s], dev[s] in zip(members, P.reshape(len(members), len(names), -1), devs):
                labels[s] = names
            del out, read  # freed before the next group's pass
        for s, setting in enumerate(settings):
            if not dev[s] <= 1e-8:
                raise ValueError(f"POVM for gamma={setting.gamma} sums to identity only "
                                 f"within {dev[s]:.3e}")
        if len(members) < len(settings):  # several passes: their rows stacked by one copy
            P = np.concatenate([r.T for r in rows], 1).T  # by column, as HermitianCoords.rows
        return cls(list(settings), labels, P, layout)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """The singular values of P that the rank keeps, largest first."""
        return kept_singular_values(np.linalg.qr(self.P, mode="r"))  # R has P's

    @property
    def rank(self) -> int:
        return len(self.singular_values)

    @property
    def ic_margin(self) -> float:
        """The smallest kept singular value of P over the largest: how far the
        design is from losing a direction."""
        return float(self.singular_values[-1] / self.singular_values[0])

    @cached_property
    def row_of(self) -> list[dict]:
        """Each setting's map of outcome to row of P, built on first use."""
        return [dict(zip(labels, range(at, at + len(labels))))
                for labels, at in zip(self.labels, self.offsets)]

    @cached_property
    def povms(self) -> list[dict]:
        """Each setting's outcome map of Hermitised elements, built again on first use."""
        povms = {s: _wrap(labels, out[g, read], self.coords, self.settings[s].gamma)
                 for members, labels, out, read, _ in _passes(self.settings, self.coords)
                 for g, s in enumerate(members)}
        return [povms[s] for s in range(len(povms))]

    def vec(self, op: BlockOperator) -> np.ndarray:
        """Coordinates of a block operator of the context's structure."""
        return self.coords.rows(self.coords.stack([op]))[0]

    def counts(self, dataset) -> np.ndarray:
        """The dataset's counts as one vector over the rows of P.

        This is where a dataset is checked against the context: it must have
        one entry per setting, count only outcomes of that setting's POVM and,
        when it records probe amplitudes, match every probe within 1e-12.
        """
        if len(dataset.counts) != len(self.row_of):
            raise DatasetMismatch(f"dataset has {len(dataset.counts)} settings, "
                                  f"context has {len(self.row_of)}")
        gammas = getattr(dataset, "gammas", None)
        m = np.zeros(len(self.P))
        for s, (setting, row_of, counts) in enumerate(zip(self.settings, self.row_of,
                                                          dataset.counts)):
            if gammas is not None and not abs(complex(gammas[s]) - setting.gamma) <= 1e-12:
                raise DatasetMismatch(f"settings[{s}].gamma is {complex(gammas[s])}, "
                                      f"but the context probe is {setting.gamma}")
            unknown = counts.keys() - row_of.keys()
            if unknown:
                raise DatasetMismatch(f"settings[{s}].counts has outcomes absent from "
                                      f"the POVM: {sorted(map(str, unknown))}")
            m[[row_of[o] for o in counts]] = list(counts.values())
        return m

    def to_json(self) -> dict:
        return {"settings": [s.to_json() for s in self.settings]}

    @classmethod
    def from_json(cls, d: dict) -> "MeasurementContext":
        # Older files carry "tail_tol" and "conv_cut"; the elements are exact,
        # so both are ignored. A counter or partition that settings repeat is
        # parsed and checked once, found by the repr of its JSON (types kept).
        parsed = {}

        def once(s: dict, key: str, parse):
            raw = key, repr(s.get(key))
            if raw not in parsed:
                parsed[raw] = field_from_json(s, key, parse)
            return parsed[raw]
        return cls.build(list_from_json(d, "settings", lambda s: Setting.from_json(s, once)))


def ic_check(context: MeasurementContext) -> dict:
    """Rank test for informational completeness of a context.

    The context is IC when its design matrix P, whose rank it computes once,
    has full column rank, one column per real parameter of a block operator.
    For Hermitian elements this is the rank over the complex block entries:
    both spans have the Gram matrix tr(E_a E_b). ``ic_margin`` is the smallest
    singular value of P that the rank keeps over the largest.
    """
    required = context.P.shape[1]
    return {"rank": context.rank, "required": required, "is_ic": context.rank == required,
            "ic_margin": context.ic_margin}
