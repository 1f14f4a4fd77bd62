"""POVM elements of the weak-field-homodyne photon counter over block state space.

Outcomes are tuples: two-counter counting outcomes (k, l) where each part is a
photon count or ">" (overflow past the counter range), single-counter outcomes
(k,) / (">",), and click-detector outcomes with parts 0 (no click) or "I"
(click). All elements are block operators over the sector-photon tuples of a
partition, truncated at max photon number N.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fock import (JsonFieldError, complex_from_json, complex_to_json, field_from_json,
                   int_from_json, is_json_matrix, is_json_number)
from .optics import PartitionSpec
from .twirl import BlockOperator, block_tuples

__all__ = [
    "CounterConfig", "PovmElement", "Setting", "MeasurementContext", "CompiledContext",
    "HermitianCoords", "DatasetMismatch", "pi_kl", "pi_k", "overflow_elements", "apply_loss",
    "apply_detector_response", "compose_response", "identity_response", "click_povm",
    "build_povm", "ic_check",
]

# settings per kernel call; past eight, a load's peak RSS rises more than its time falls
_GROUP_SIZE = 8


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
        return {
            "counters": self.counters,
            "n_c": self.N_c,
            "loss": list(self.loss) if self.loss is not None else None,
            "response": [m.tolist() for m in self.response] if self.response is not None else None,
        }

    @classmethod
    def from_json(cls, d: dict) -> "CounterConfig":
        loss = d.get("loss")
        response = d.get("response")
        if loss is not None and not (isinstance(loss, list) and all(map(is_json_number, loss))):
            raise JsonFieldError(f"loss must be a JSON array of numbers, got {loss!r}")
        if response is not None and not (isinstance(response, list)
                                         and all(map(is_json_matrix, response))):
            raise JsonFieldError("response must be a JSON array of matrices of numbers")
        return cls(
            counters=int_from_json(d, "counters"),
            N_c=int_from_json(d, "n_c"),
            loss=tuple(loss) if loss is not None else None,
            response=tuple(np.array(m, dtype=float) for m in response)
            if response is not None else None,
        )


@dataclass
class PovmElement:
    outcome: tuple
    op: BlockOperator
    gamma: complex
    meta: dict = field(default_factory=dict)

    def validate_psd(self, tol: float = -1e-9) -> None:
        if self.op.min_eigenvalue() < tol:
            raise ValueError(f"element {self.outcome} is not PSD within {tol}")

    def to_json(self) -> dict:
        return {
            "outcome": [p if isinstance(p, str) else int(p) for p in self.outcome],
            "gamma": complex_to_json(self.gamma),
            "op": self.op.to_json(),
            "meta": dict(self.meta),
        }


def _slot_sectors(partition: PartitionSpec) -> list[int]:
    """Sector index backing each block-tuple slot."""
    return list(range(0 if partition.s1_multi else 1, partition.K))


def _template(N: int, partition: PartitionSpec) -> BlockOperator:
    return BlockOperator.zeros(N, len(_slot_sectors(partition)), partition)


def _identity_row(N: int, partition: PartitionSpec) -> np.ndarray:
    return _stack_ops([BlockOperator.identity(N, len(_slot_sectors(partition)), partition)])[0]


def _wrap(labels: list, rows: np.ndarray, template: BlockOperator, gamma: complex) -> dict:
    """One element per label from flattened block rows (the layout of _stack_ops),
    each kept as its Hermitian part (E + E^dag) / 2."""
    at = 0
    mirror = []  # position of the transposed entry in a row, block by block
    for m in template.blocks.values():
        mirror.append(at + np.arange(m.size).reshape(m.shape).T.ravel())
        at += m.size
    rows = (rows + rows[:, np.concatenate(mirror)].conj()) / 2
    return {label: PovmElement(label, _unstack_op(row, template), complex(gamma))
            for label, row in zip(labels, rows)}


def _counts(top: int, overflow: bool = False, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Count sets {first}, ..., {top}, then {> top} when overflow is set, as
    (start, tail) arrays: a set is {start} or, where tail, {n >= start}."""
    start = np.arange(first, top + 1 + overflow)
    return start, start > top


def _poisson_mass(mu, start: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """P(X = start), or P(X >= start) where tail, for X ~ Poisson(mu), indexed
    [g, *shape] over the means mu[g] (start and tail broadcast to shape).

    Both are evaluated directly rather than as complements, so small masses
    keep their relative precision; each only where it is not 0 or 1.
    """
    from scipy.special import gammainc, gammaln

    start, tail = np.broadcast_arrays(start, tail)
    shape, start, tail = start.shape, start.ravel(), tail.ravel()
    mu = np.asarray(mu, dtype=float)
    out = np.tile(np.where(tail, start <= 0, start == 0).astype(float), (len(mu), 1))
    g = np.flatnonzero(mu > 0.0)[:, None]  # at mu = 0 the masses above are exact
    pmf, upper = np.flatnonzero(~tail & (start >= 0)), np.flatnonzero(tail & (start > 0))
    # a scalar log per mean, as exp(k log mu - mu) is sensitive to its last bit
    log_mu = np.array([math.log(m) for m in mu[g[:, 0]]])[:, None]
    out[g, pmf] = np.exp(start[pmf] * log_mu - mu[g] - gammaln(start[pmf] + 1))
    out[g, upper] = gammainc(start[upper], mu[g])
    return out.reshape(len(mu), *shape)


def _count_weights(e: float, alpha: np.ndarray, nu: float, start: np.ndarray,
                   tail: np.ndarray, dim: int) -> np.ndarray:
    """W[g, s, i, j]: one counter's factor of the element for the amplitude
    alpha[g, 0], summed over count set s.

    A counter mode e a + alpha read with transmission nu contributes
    sum_{n in s} nu^n e^{-mu} (e a^dag + alpha*)^n ... (e a + alpha)^n / n!
    (mu = nu |alpha|^2). Expanding both binomials and summing over n leaves
    (a^dag)^i ... a^j with weight e^{i+j} sum_t nu^r alpha*^{j-t} alpha^{i-t}
    P(s - r) / ((i-t)! (j-t)! t!), where r = i + j - t and P(s - r) is the
    Poisson(mu) mass of the count set shifted down by r.
    """
    i, j, t = np.array([(i, j, t) for i in range(dim) for j in range(dim)
                        for t in range(min(i, j) + 1)]).T
    r = i + j - t
    fact = np.cumprod(np.r_[1.0, np.arange(1.0, dim)])
    coef = (e ** (i + j) * nu ** r * np.conj(alpha) ** (j - t) * alpha ** (i - t)
            / (fact[i - t] * fact[j - t] * fact[t]))
    mu = [nu * abs(complex(v)) ** 2 for v in alpha[:, 0]]
    weights = np.zeros((len(alpha), len(start), dim * dim), dtype=np.complex128)
    np.add.at(weights, (slice(None), slice(None), i * dim + j),
              coef[:, None] * _poisson_mass(mu, start[:, None] - r, tail[:, None]))
    return weights.reshape(len(alpha), -1, dim, dim)


def _counting_rows(gammas: list, partition: PartitionSpec, N: int, nus: tuple,
                   sets: tuple) -> np.ndarray:
    """Every counting element for the count sets sets[0] x sets[1] (see _counts),
    at each probe amplitude of gammas.

    Entry [g, s1, s2] holds the element for gammas[g], its blocks flattened as
    by _stack_ops. With counter modes A = eta a + zeta gamma and B = zeta a -
    eta gamma read with transmissions nu1, nu2, the mode-1 element for counts
    (k, l) is the normally ordered
    :(nu1 A^dag A)^k (nu2 B^dag B)^l e^{-nu1 A^dag A - nu2 B^dag B}:/(k! l!)
    = nu1^k nu2^l e^{-(nu1 zeta^2 + nu2 eta^2)|gamma|^2} G^dag diag(x^n) G/(k! l!),
    G = e^{-s* a} A^k B^l, s = eta zeta gamma (nu1 - nu2), x = 1 - nu1 eta^2 - nu2 zeta^2,
    exact on the truncated space as only lowering operators act on the right.
    Sums over count sets are closed-form (_count_weights); a marginal sets the
    other counter's nu to 0. Auxiliary-sector photons split trinomially between
    counter 1, counter 2 and loss (nu1 eta_s^2, nu2 zeta_s^2, the rest), which
    shifts the count sets the mode-1 pair must supply. All but the counter
    factors, e^{-s* a} and the sandwich is built once for all gammas; each
    gamma's rows come out bit for bit as they would alone.
    """
    if partition.K > 2:
        raise ValueError("analytic elements support K <= 2 only; use the dense oracle")
    eta, zeta = partition.sectors[0]
    nu1, nu2 = nus
    dim = N + 1
    slots = _slot_sectors(partition)
    shifts = np.arange(N + 1 if slots else 1)[:, None]
    factors, index = [], []
    for (start, tail), e, c, nu in zip(sets, (eta, zeta), (zeta, -eta), nus):
        # the sets the mode-1 pair supplies once 0..N auxiliary photons are counted
        # (a set below 0 is empty, one reaching down to 0 holds every count)
        starts, tails = (start - shifts).ravel(), np.tile(tail, len(shifts))
        code = 2 * np.where(tails, np.maximum(starts, 0), np.maximum(starts, -1)) + tails
        code, inv = np.unique(code, return_inverse=True)  # sorted by (start, tail)
        alpha = np.array([[c * g] for g in gammas], dtype=np.complex128)
        factors.append(_count_weights(e, alpha, nu, code // 2, code % 2 == 1, dim))
        index.append(inv.reshape(len(shifts), -1))
    w1, w2 = factors[0][:, :, None], factors[1][:, None]  # [g, s1, s2, i, j]
    # coefficient of (a^dag)^p ... a^q: the product of the two counters' factors
    coef = np.zeros(np.broadcast_shapes(w1.shape, w2.shape), dtype=np.complex128)
    for i in range(dim):
        for j in range(dim):
            coef[..., i:, j:] += w1[..., i, j, None, None] * w2[..., :dim - i, :dim - j]
    # a^p is nonzero only at (m, n = m + p), where it is ladder = sqrt(n!/m!); each
    # product of ladder operators below is written out entry by entry
    m, n = np.triu_indices(dim)
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    ladder = np.stack([np.linalg.matrix_power(lower, p) for p in range(dim)])[n - m, m, n]
    fact = np.cumprod(np.r_[1.0, np.arange(1.0, dim)])
    s = np.array([eta * zeta * g * (nu1 - nu2) for g in gammas], dtype=np.complex128)
    shift_op = np.zeros((len(gammas), dim, dim), dtype=np.complex128)  # e^{-s* a}
    shift_op[:, m, n] = (-np.conj(s[:, None])) ** (n - m) / fact[n - m] * ladder
    x = (1 - nu1) * eta ** 2 + (1 - nu2) * zeta ** 2  # 1 - nu1 eta^2 - nu2 zeta^2
    middle = np.conj(shift_op).transpose(0, 2, 1) @ (x ** np.arange(dim)[:, None] * shift_op)
    sandwich = np.zeros((len(gammas), dim, dim, dim, dim), dtype=np.complex128)
    sandwich[:, (n - m)[:, None], n - m, n[:, None], n] = (  # (a^p)^T middle a^q at [p, q]
        ladder[:, None] * middle[:, m[:, None], m]) * ladder
    mode1 = (coef.reshape(len(gammas), -1, dim * dim)
             @ sandwich.reshape(len(gammas), dim * dim, -1)).reshape(coef.shape)
    del coef
    shares = [(nu1 * e ** 2, nu2 * z ** 2, (1 - nu1) * e ** 2 + (1 - nu2) * z ** 2)
              for e, z in (partition.sectors[slot] for slot in slots)]
    keys = block_tuples(N, len(slots))
    w = np.zeros((len(keys), len(shifts), len(shifts)))  # x aux photons at counter 1, y at 2
    for b, key in enumerate(keys):
        for parts in itertools.product(*(_splits(i, *sh) for i, sh in zip(key, shares))):
            x, y = sum(p[0] for p in parts), sum(p[1] for p in parts)
            w[b, x, y] += math.prod(p[2] for p in parts)
    # block b = sum over x, y (x-major) of w[b, x, y] times the mode-1 element for
    # s1, s2 less x and y auxiliary photons, one (x, y) gather at a time
    dims = [N - sum(key) + 1 for key in keys]
    at = np.cumsum([0] + [d * d for d in dims])
    out = np.zeros((len(gammas), index[0].shape[1], index[1].shape[1], at[-1]), dtype=np.complex128)
    blocks = [out[..., a:a + d * d].reshape(*out.shape[:3], d, d) for a, d in zip(at, dims)]
    for x, y in np.argwhere(w.any(axis=0)):
        term = mode1[:, index[0][x][:, None], index[1][y]]
        for block, w_key, d in zip(blocks, w, dims):
            if w_key[x, y]:
                block += w_key[x, y] * term[..., :d, :d]
    return out


def _splits(i: int, p1: float, p2: float, p0: float) -> list[tuple[int, int, float]]:
    """(x, y, weight): x of i photons reach counter 1, y counter 2, the rest are lost."""
    return [(x, y, math.comb(i, x) * math.comb(i - x, y) * p1 ** x * p2 ** y * p0 ** (i - x - y))
            for x in range(i + 1) for y in range(i + 1 - x)]


def _with_overflow(gammas: list, partition: PartitionSpec, N: int, nus: tuple,
                   top: int) -> np.ndarray:
    """Elements for counts 0..top and the overflow {> top} at each counter,
    indexed [g, s1, s2] as by _counting_rows.

    A counter's overflow is the complement of its in-range counts, exact to
    rounding in absolute terms. When the probe alone overflows that counter
    with probability below 1e-6 the complement would keep few significant
    digits, so the closed-form sum over the overflow set stays. The rule holds
    per gamma; the marginals are built once, for the gammas that take it.
    """
    counts = _counts(top, overflow=True)
    rows = _counting_rows(gammas, partition, N, nus, (counts, counts))
    eta, zeta = partition.sectors[0]
    overflow = (np.array([top + 1]), np.array([True]))
    big1, big2 = (_poisson_mass([nu * abs(e * g) ** 2 for g in gammas], *overflow)[:, 0] >= 1e-6
                  for nu, e in zip(nus, (zeta, eta)))
    big = np.flatnonzero(big1 | big2)
    if big.size:
        n = top + 1
        sub = [gammas[b] for b in big]
        only1 = _counting_rows(sub, partition, N, (nus[0], 0.0), (_counts(top), _counts(0)))
        only2 = _counting_rows(sub, partition, N, (0.0, nus[1]), (_counts(0), _counts(top)))
        ident = _identity_row(N, partition)
        for b, marginal1, marginal2 in zip(big, only1[:, :, 0], only2[:, 0]):
            # summed gamma by gamma: numpy's summation order follows the array's layout
            over_k, over_l, over_both = _complement(rows[b, :n, :n], marginal1, marginal2, ident)
            if big2[b]:
                rows[b, :n, n] = over_k
            if big1[b]:
                rows[b, n, :n] = over_l
            if big1[b] and big2[b]:
                rows[b, n, n] = over_both
    return rows


def pi_kl(gamma: complex, k: int, l: int, partition: PartitionSpec, N: int) -> PovmElement:
    """Ideal two-counter element for k photons at counter 1 and l at counter 2."""
    if k < 0 or l < 0:
        raise ValueError("counts must be >= 0")
    sets = (_counts(k, first=k), _counts(l, first=l))
    rows = _counting_rows([complex(gamma)], partition, N, (1.0, 1.0), sets)
    return _wrap([(k, l)], rows[0, 0], _template(N, partition), gamma)[(k, l)]


def pi_k(gamma: complex, k: int, partition: PartitionSpec, N: int, *,
         counter: int = 1) -> PovmElement:
    """Single-counter element: k photons at the chosen counter, the other summed out."""
    if counter not in (1, 2):
        raise ValueError("counter must be 1 or 2")
    if k < 0:
        raise ValueError("counts must be >= 0")
    read, unread = _counts(k, first=k), _counts(0)
    nus, sets = ((1.0, 0.0), (read, unread)) if counter == 1 else ((0.0, 1.0), (unread, read))
    rows = _counting_rows([complex(gamma)], partition, N, nus, sets)
    el = _wrap([(k,)], rows[0, 0], _template(N, partition), gamma)[(k,)]
    el.meta = {"counter": counter, "tail_bound": 0.0}
    return el


def _complement(grid: np.ndarray, only1: np.ndarray, only2: np.ndarray,
                ident: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Overflow rows (k, >), (>, l) and (>, >) as complements of the in-range
    grid, given each counter's in-range marginals and the identity."""
    return (only1 - grid.sum(axis=1), only2 - grid.sum(axis=0),
            ident - only1.sum(axis=0) - only2.sum(axis=0) + grid.sum(axis=(0, 1)))


def overflow_elements(elements: dict, pi_row: list[PovmElement], pi_col: list[PovmElement],
                      N_c: int) -> dict:
    """Overflow outcomes by complement.

    Pi_{k,>} = Pi_k - sum_{l<=N_c} Pi_{kl}; Pi_{>,l} symmetrically;
    Pi_{>,>} = I - sum_k Pi_k - sum_l Pi_{.,l} + sum_{kl} Pi_{kl}.
    """
    if len(pi_row) != N_c + 1 or len(pi_col) != N_c + 1:
        raise ValueError("need single-counter elements for every count <= N_c")
    template = pi_row[0].op
    grid = _stack_ops([elements[(k, l)].op for k in range(N_c + 1) for l in range(N_c + 1)])
    over_k, over_l, over_both = _complement(
        grid.reshape(N_c + 1, N_c + 1, -1), _stack_ops([e.op for e in pi_row]),
        _stack_ops([e.op for e in pi_col]), _identity_row(template.N, template.partition))
    labels = ([(k, ">") for k in range(N_c + 1)] + [(">", l) for l in range(N_c + 1)]
              + [(">", ">")])
    out = _wrap(labels, np.vstack([over_k, over_l, over_both]), template, pi_row[0].gamma)
    for e in out.values():
        low = e.op.min_eigenvalue()
        if low < -1e-6:
            raise ValueError(f"overflow element {e.outcome} has eigenvalue {low:.3e}; "
                             "inconsistent truncation of the inputs")
    return out


def _thinning_matrix(nu: float, cut: int) -> np.ndarray:
    """w[k, m] = P(k photons survive | m present) under transmission nu."""
    return np.array([[math.comb(m, k) * nu ** k * (1 - nu) ** (m - k) if k <= m else 0.0
                       for m in range(cut + 1)] for k in range(cut + 1)])


def _stack_ops(ops: list[BlockOperator]) -> np.ndarray:
    """One row per operator: its blocks raveled and concatenated."""
    return np.concatenate([m for op in ops for m in op.blocks.values()],
                          axis=None).reshape(len(ops), -1)


def _unstack_op(row: np.ndarray, template: BlockOperator) -> BlockOperator:
    parts = np.split(row, np.cumsum([m.size for m in template.blocks.values()])[:-1])
    return BlockOperator(template.N, {key: part.reshape(m.shape) for (key, m), part
                                      in zip(template.blocks.items(), parts)}, template.partition)


def _split_dense(mat: np.ndarray, like: BlockOperator) -> BlockOperator:
    """The diagonal blocks of a dense block-diagonal matrix, in like's structure."""
    at = np.cumsum([0] + [m.shape[0] for m in like.blocks.values()])
    return BlockOperator(like.N, {key: mat[a:b, a:b].copy() for key, a, b
                                  in zip(like.blocks, at, at[1:])}, like.partition)


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
    rows = (np.kron(_thinning_matrix(nu_1, cut_m), _thinning_matrix(nu_2, cut_n))
            @ _stack_ops([elements[key].op for key in grid]))
    return {(m, n): PovmElement((m, n), _unstack_op(
        rows[m * (cut_n + 1) + n] if m <= cut_m and n <= cut_n else np.zeros_like(rows[0]),
        first.op), first.gamma) for m, n in keys}


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


def _overflow_label(row: int, N_c: int):
    return row if row <= N_c else ">"


def _respond(v: np.ndarray, config: CounterConfig) -> tuple[list, np.ndarray]:
    """Outcome labels and rows from flattened ideal elements (photons present
    0..M_cut, row-major over counters) and the config's responses, loss folded in."""
    mats = config.response
    if config.loss is not None:
        mats = tuple(compose_response(t, nu) for t, nu in zip(mats, config.loss))
    labels = [_overflow_label(r, config.N_c) for r in range(config.N_c + 2)]
    if config.counters == 1:
        return [(o,) for o in labels], mats[0] @ v
    weights = np.einsum("km,ln->klmn", *mats).reshape(len(labels) ** 2, -1)
    return [(o1, o2) for o1 in labels for o2 in labels], weights @ v


def apply_detector_response(elements: dict, config: CounterConfig) -> dict:
    """Convolve ideal counting elements with measured detector responses.

    Pi''_{o1,o2} = sum_{m,n} T'_1[o1,m] T'_2[o2,n] Pi_{mn}. Output outcomes
    are (0..N_c and ">") per counter, so the overflow rows replace a separate
    complement step.
    """
    if config.response is None:
        raise ValueError("counter config carries no response matrices")
    if len(next(iter(elements))) != config.counters:
        raise ValueError("element outcome arity does not match counter count")
    present = range(config.response[0].shape[1])
    keys = list(itertools.product(present, repeat=config.counters))
    for key in keys:
        if key not in elements:
            raise ValueError(f"missing ideal element {key} for response convolution")
    first = elements[keys[0]]
    return _wrap(*_respond(_stack_ops([elements[key].op for key in keys]), config), first.op,
                 first.gamma)


def click_povm(gamma: complex, partition: PartitionSpec, N: int) -> dict:
    """Four-outcome click/no-click POVM for a K=1 partition.

    Pi_00 = e^{-|gamma|^2} |vac><vac|; a click is the count set {n >= 1} of
    its counter, so every element comes straight from the counting kernel.
    """
    return build_povm(Setting(gamma, CounterConfig(counters=2, N_c=0), partition, N,
                              detector="click"))


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
        if self.detector == "click" and (self.counter.loss or self.counter.response):
            raise ValueError("click detectors with loss/response are not supported")
        gamma = complex(self.gamma)
        if not np.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {gamma}")
        object.__setattr__(self, "gamma", gamma)

    def to_json(self) -> dict:
        return {
            "gamma": complex_to_json(self.gamma),
            "counter": self.counter.to_json(),
            "partition": self.partition.to_json(),
            "N": int(self.N),
            "detector": self.detector,
        }

    @classmethod
    def from_json(cls, d: dict) -> "Setting":
        counter = field_from_json(d, "counter", CounterConfig.from_json)
        return cls(
            gamma=complex_from_json(d["gamma"]),
            counter=counter,
            partition=field_from_json(d, "partition", PartitionSpec.from_json),
            N=int_from_json(d, "N"),
            detector=d.get("detector", "counting"),
        )


def _group_rows(settings: list[Setting]) -> list[tuple[list, np.ndarray]]:
    """Outcome labels and element rows (the layout of _stack_ops, as the kernel
    computes them, in a fixed construction order) of each of settings, which
    differ only in gamma and are built by one kernel call per _GROUP_SIZE gammas."""
    if len(settings) > _GROUP_SIZE:
        return _group_rows(settings[:_GROUP_SIZE]) + _group_rows(settings[_GROUP_SIZE:])
    first = settings[0]
    gammas = [s.gamma for s in settings]
    cfg, part, N = first.counter, first.partition, first.N
    if first.detector == "click":
        if part.K != 1:
            raise ValueError("click POVM requires K = 1")
        rows = _with_overflow(gammas, part, N, (1.0, 1.0), 0)  # a click overflows 0
        labels, rows = [(0, 0), ("I", 0), (0, "I"), ("I", "I")], rows[:, [0, 1, 0, 1], [0, 0, 1, 1]]
    elif cfg.response is not None:  # ideal counts of every photon number the responses cover
        present = _counts(cfg.response[0].shape[1] - 1)
        # a single counter's absent partner reads nothing
        nus, other = ((1.0, 0.0), _counts(0)) if cfg.counters == 1 else ((1.0, 1.0), present)
        rows = _counting_rows(gammas, part, N, nus, (present, other))
        labels, rows = _respond(rows.reshape(len(gammas), -1, rows.shape[-1]), cfg)
    else:
        nus = cfg.loss or (1.0, 1.0)
        names = [_overflow_label(k, cfg.N_c) for k in range(cfg.N_c + 2)]
        if cfg.counters == 1:
            rows = _with_overflow(gammas, part, N, (nus[0], 0.0), cfg.N_c)
            labels, rows = [(o,) for o in names], rows[:, :, 0]
        else:
            rows = _with_overflow(gammas, part, N, nus, cfg.N_c)
            # counts in range first, then overflow at counter 2, at counter 1, at both
            n = cfg.N_c + 1
            order = ([(k, l) for k in range(n) for l in range(n)] + [(k, n) for k in range(n)]
                     + [(n, l) for l in range(n)] + [(n, n)])
            k, l = np.array(order).T
            labels, rows = [(names[k], names[l]) for k, l in order], rows[:, k, l]
    return [(labels, r) for r in rows]


def build_povm(setting: Setting) -> dict:
    """Complete outcome map for one setting, in a fixed construction order."""
    return _wrap(*_group_rows([setting])[0], _template(setting.N, setting.partition),
                 setting.gamma)


@dataclass
class MeasurementContext:
    """All probe settings of an experiment; setting s has outcomes labels[s]
    and their elements as the rows of rows[s] (the layout of _stack_ops)."""

    settings: list[Setting]
    labels: list[list]
    rows: list[np.ndarray]

    @classmethod
    def build(cls, settings: list[Setting]) -> "MeasurementContext":
        """The context of settings; those that differ only in gamma are built
        together (_group_rows), and every setting's POVM must sum to identity."""
        if not settings:
            raise ValueError("context needs at least one setting")
        groups: dict[tuple, list[int]] = {}
        for s, setting in enumerate(settings):  # alike but for gamma; counters compared as JSON
            groups.setdefault((setting.partition, setting.N, setting.detector,
                               json.dumps(setting.counter.to_json())), []).append(s)
        labels, rows, dev = ([None] * len(settings) for _ in range(3))
        for members in groups.values():
            ident = _identity_row(settings[members[0]].N, settings[members[0]].partition)
            group = _group_rows([settings[s] for s in members])
            for s, (labels[s], rows[s]) in zip(members, group):
                dev[s] = float(np.max(np.abs(rows[s].sum(axis=0) - ident)))
        for s, setting in enumerate(settings):
            if not dev[s] <= 1e-8:
                raise ValueError(f"POVM for gamma={setting.gamma} sums to identity only "
                                 f"within {dev[s]:.3e}")
        return cls(list(settings), labels, rows)

    @classmethod
    def from_povms(cls, settings: list[Setting], povms: list[dict]) -> "MeasurementContext":
        """A context from hand-made outcome maps, one per setting (unchecked)."""
        return cls(list(settings), [list(povm) for povm in povms],
                   [_stack_ops([e.op for e in povm.values()]) for povm in povms])

    @cached_property
    def povms(self) -> list[dict]:
        """Each setting's outcome map of Hermitised elements, built on first use."""
        return [_wrap(labels, rows, _template(s.N, s.partition), s.gamma)
                for s, labels, rows in zip(self.settings, self.labels, self.rows)]

    @cached_property
    def compiled(self) -> "CompiledContext":
        """The context's design matrix, index maps and rank, built on first use."""
        return CompiledContext(self)

    def to_json(self) -> dict:
        return {"settings": [s.to_json() for s in self.settings]}

    @classmethod
    def from_json(cls, d: dict) -> "MeasurementContext":
        # Older files carry "tail_tol" and "conv_cut"; the elements are exact,
        # so both are ignored.
        settings = []
        for i, s in enumerate(d["settings"]):
            try:
                settings.append(Setting.from_json(s))
            except JsonFieldError as exc:
                raise exc.within(f"settings[{i}]") from exc
        return cls.build(settings)


class DatasetMismatch(ValueError):
    """A dataset that does not fit the measurement context it is fitted in."""


class HermitianCoords:
    """Index maps between Hermitian block-diagonal matrices and real vectors.

    Coordinates run block by block: the diagonal, then sqrt(2) Re and
    sqrt(2) Im of the upper triangle, so tr(X Y) = vec(X) . vec(Y) for
    Hermitian X and Y. A state is one dense block-diagonal D x D matrix;
    block operators enter as the flattened block rows of _stack_ops.
    """

    def __init__(self, dims: list[int]):
        dims = np.array(dims, dtype=np.int64)
        self.D = int(dims.sum())
        start = np.cumsum(dims) - dims  # block offsets along the diagonal
        flat = np.cumsum(dims ** 2) - dims ** 2  # block offsets in a stack row
        parts = []
        for b, d in enumerate(dims):
            iu, ju = np.triu_indices(d, 1)
            diag = np.arange(d)
            parts.append((np.full(d + 2 * iu.size, b), np.r_[diag, iu, iu], np.r_[diag, ju, ju],
                          np.r_[np.zeros(d + iu.size, np.int64), np.ones(iu.size, np.int64)]))
        block, i, j, imag = (np.concatenate(a) for a in zip(*parts))
        off = i != j
        self.weight = np.where(off, math.sqrt(2.0), 1.0)
        # positions in the float64 views of a stack row and of a raveled D x D
        # matrix; a stack row is read at (i, j) and (j, i), for its Hermitian part
        self._stack = 2 * (flat[block] + i * dims[block] + j) + imag
        self._stack_mirror = 2 * (flat[block] + j * dims[block] + i) + imag
        self._sign = np.where(imag == 1, -1.0, 1.0)
        row, col = start[block] + i, start[block] + j
        self._dense = 2 * (row * self.D + col) + imag
        # unvec writes each coordinate at (row, col), and its conjugate at (col, row)
        self._to = np.r_[self._dense, (2 * (col * self.D + row) + imag)[off]]
        self._from = np.r_[np.arange(i.size), np.nonzero(off)[0]]
        self._coef = np.r_[1.0 / self.weight, self._sign[off] / math.sqrt(2.0)]

    def rows(self, stack) -> np.ndarray:
        """Coordinates of the Hermitian part of each row of a stack of block
        operators (the layout of _stack_ops; a list of block operators is
        stacked first): for a Hermitian X, rows(E) . vec(X) = Re tr(E X)."""
        if not isinstance(stack, np.ndarray):
            stack = _stack_ops(stack)
        flat = np.ascontiguousarray(stack, dtype=np.complex128).view(np.float64)
        # halved before the weight, so that a row and its Hermitian part give the
        # same coordinates bit for bit, subnormal entries included
        return (flat[:, self._stack] + self._sign * flat[:, self._stack_mirror]) / 2.0 \
            * self.weight

    def vec(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of a dense block-diagonal Hermitian matrix."""
        flat = np.ascontiguousarray(mat, dtype=np.complex128).reshape(-1).view(np.float64)
        return flat[self._dense] * self.weight

    def unvec(self, x: np.ndarray) -> np.ndarray:
        """The dense block-diagonal Hermitian matrix with coordinates x."""
        out = np.zeros(2 * self.D * self.D)
        out[self._to] = x[self._from] * self._coef
        return out.view(np.complex128).reshape(self.D, self.D)


class CompiledContext:
    """A measurement context compiled once into one real design matrix.

    Row r of ``P`` holds the coordinates (HermitianCoords) of one element,
    so the Born probabilities of a state with coordinates x are ``P @ x``.
    Rows run over the settings in order, setting s owning rows
    ``offsets[s]:offsets[s + 1]`` in its outcome construction order;
    ``row_of[s]`` maps each of its outcomes to its row.
    ``rank`` is the rank of ``P``; ``P.shape[1]`` is the number of real
    parameters of a state.
    """

    def __init__(self, context: MeasurementContext):
        if len({(s.partition, s.N) for s in context.settings}) != 1:
            raise ValueError("the context needs a single (partition, N) across settings")
        self.template = _template(context.settings[0].N, context.settings[0].partition)
        self.coords = HermitianCoords([m.shape[0] for m in self.template.blocks.values()])
        self.P = self.coords.rows(np.concatenate(context.rows))
        self.offsets = np.cumsum([0] + [len(labels) for labels in context.labels])
        self.row_of = [dict(zip(labels, range(at, at + len(labels))))
                       for labels, at in zip(context.labels, self.offsets)]
        self.gammas = [s.gamma for s in context.settings]
        # singular values of the tall P come from its small R factor
        sv = np.linalg.svd(np.linalg.qr(self.P, mode="r"), compute_uv=False)
        self.rank = int(np.sum(sv >= 1e-10 * sv[0])) if sv.size and sv[0] > 0 else 0

    def vec(self, op: BlockOperator) -> np.ndarray:
        """Coordinates of a block operator of the context's structure."""
        if op.N != self.template.N or op.blocks.keys() != self.template.blocks.keys():
            raise ValueError("block structure mismatch")
        return self.coords.rows([op])[0]

    def operator(self, mat: np.ndarray) -> BlockOperator:
        """A dense block-diagonal matrix as a block operator."""
        return _split_dense(mat, self.template)

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
        for s, (row_of, counts) in enumerate(zip(self.row_of, dataset.counts)):
            if gammas is not None and not abs(complex(gammas[s]) - self.gammas[s]) <= 1e-12:
                raise DatasetMismatch(f"settings[{s}].gamma is {complex(gammas[s])}, "
                                      f"but the context probe is {self.gammas[s]}")
            unknown = counts.keys() - row_of.keys()
            if unknown:
                raise DatasetMismatch(f"settings[{s}].counts has outcomes absent from "
                                      f"the POVM: {sorted(map(str, unknown))}")
            m[[row_of[o] for o in counts]] = list(counts.values())
        return m


def ic_check(context: MeasurementContext) -> dict:
    """Rank test for informational completeness of a context.

    The context is IC when its design matrix (CompiledContext.P) has full
    column rank, one column per real parameter of a block operator. For
    Hermitian elements this is the rank over the complex block entries: both
    spans have the Gram matrix tr(E_a E_b). The rank is computed once per
    context.
    """
    compiled = context.compiled
    required = compiled.P.shape[1]
    return {"rank": compiled.rank, "required": required, "is_ic": compiled.rank == required}
