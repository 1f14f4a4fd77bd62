"""Born probabilities, a dense brute-force oracle, and seeded dataset sampling."""
from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ._rng import inverse_cdf_counts, setting_seed
from .fock import DenseOperator, OccupationBasis, complex_from_json, complex_to_json
from .optics import plt_on_fock
from .povm import HermitianCoords, MeasurementContext
from .twirl import BlockOperator

__all__ = [
    "Dataset",
    "probabilities",
    "born_oracle",
    "born_table",
    "simulate_dataset",
    "format_outcome",
    "parse_outcome",
]


def format_outcome(outcome: tuple) -> str:
    return "(" + ",".join(str(p) for p in outcome) + ")"


def parse_outcome(s: str) -> tuple:
    body = s.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"malformed outcome label {s!r}")
    parts = [p.strip() for p in body[1:-1].split(",") if p.strip() != ""]
    return tuple(p if p in (">", "I") else int(p) for p in parts)


def _checked(outcomes, p: np.ndarray) -> dict:
    """Outcome -> probability, clipping rounding below zero; rejects a
    probability below -1e-12, and a total off 1 by more than 1e-6 or not
    finite."""
    out = {}
    total = 0.0
    for outcome, value in zip(outcomes, p.tolist()):
        if value < -1e-12:
            raise ValueError(f"outcome {outcome} has probability {value:.3e} < -1e-12")
        value = max(value, 0.0)
        out[outcome] = value
        total += value
    if not abs(total - 1.0) <= 1e-6:  # also fails on a NaN or infinite total
        raise ValueError(f"probabilities sum to {total!r}, off by more than 1e-6")
    return out


def probabilities(state: BlockOperator, povm: dict) -> dict:
    """Born probabilities p(o) = sum_blocks tr(chi Pi-block) for every outcome."""
    ops = [e.op for e in povm.values()]
    if any(op.N != state.N or op.blocks.keys() != state.blocks.keys() for op in ops):
        raise ValueError("block structure mismatch")
    coords = HermitianCoords([m.shape[0] for m in state.blocks.values()])
    return _checked(povm, coords.rows(ops) @ coords.rows([state])[0])


def _pair_grid_unitary(block: np.ndarray, cutoff: int) -> np.ndarray:
    """Fock unitary of one signal/probe pair on the (cutoff+1)^2 occupation grid."""
    basis = OccupationBasis(2, cutoff)
    u = plt_on_fock(block, basis).entries
    g = np.zeros((cutoff + 1,) * 4, dtype=np.complex128)
    for col, (na, nb) in enumerate(basis.states):
        for row_idx in np.nonzero(u[:, col])[0]:
            ma, mb = basis.states[row_idx]
            g[ma, mb, na, nb] = u[row_idx, col]
    return g


_TABLE_CACHE: OrderedDict = OrderedDict()
_TABLE_CACHE_MAX = 8


def born_table(rho: DenseOperator, gamma: complex, bs_blocks, joint_cutoff: int | None = None
               ) -> np.ndarray:
    """Full (k, l) probability table of the brute-force configuration.

    The beam splitter factorizes over (signal, partner) pairs, so the joint
    unitary is applied pair by pair to the amplitude tensor of each
    eigenvector of rho; only pair 1 carries probe photons. Entry [k, l] is
    the probability of k photons total at counter 1 and l at counter 2.
    """
    gamma = complex(gamma)
    S = rho.basis.num_modes
    if len(bs_blocks) != S:
        raise ValueError("need one beam-splitter block per signal mode")
    n_in = rho.basis.cutoff
    if joint_cutoff is None:
        ag = abs(gamma)
        joint_cutoff = n_in + math.ceil(ag * ag + 6 * ag + 6)
    c_probe = joint_cutoff - n_in
    ag2 = abs(gamma) ** 2
    deficit = 1.0 - math.exp(-ag2) * math.fsum(ag2 ** n / math.factorial(n)
                                               for n in range(c_probe + 1))
    if deficit > 1e-10:
        raise ValueError(f"joint_cutoff {joint_cutoff} leaves probe weight {deficit:.3e} "
                         "above the truncation")
    blocks = [np.asarray(b, dtype=np.complex128) for b in bs_blocks]
    key = hashlib.sha256(
        rho.entries.tobytes()
        + repr((S, n_in, gamma, joint_cutoff)).encode()
        + b"".join(b.tobytes() for b in blocks)
    ).hexdigest()
    hit = _TABLE_CACHE.get(key)
    if hit is not None:
        _TABLE_CACHE.move_to_end(key)
        return hit

    probe = np.array([gamma ** n / math.sqrt(math.factorial(n)) for n in range(c_probe + 1)],
                     dtype=np.complex128) * math.exp(-ag2 / 2)
    pair_cuts = [joint_cutoff] + [n_in] * (S - 1)
    grids = [_pair_grid_unitary(blocks[i], pair_cuts[i]) for i in range(S)]

    evals, evecs = np.linalg.eigh((rho.entries + rho.entries.conj().T) / 2)
    dim = joint_cutoff + (S - 1) * n_in + 1  # max total photons either side
    table = np.zeros((dim, dim))
    basis = rho.basis
    shape_in = (n_in + 1,) * S
    g1 = grids[0][:, :, : n_in + 1, : c_probe + 1]
    for r in range(len(evals)):
        lam = float(evals[r])
        if lam <= 1e-14:
            continue
        psi = np.zeros(shape_in, dtype=np.complex128)
        for idx, occ in enumerate(basis.states):
            psi[occ] = evecs[idx, r]
        # axes grow to (a1', b1', a2', b2', ...) as pairs are transformed
        amp = np.tensordot(psi, probe, axes=0)  # axes (a1..aS, b1)
        amp = np.moveaxis(amp, -1, 1)  # (a1, b1, a2..aS)
        amp = np.einsum("klab,ab...->kl...", g1, amp)
        for i in range(1, S):
            v = grids[i][:, :, :, 0]  # partner mode starts in vacuum
            amp = np.moveaxis(np.tensordot(v, amp, axes=([2], [2 * i])),
                              (0, 1), (2 * i, 2 * i + 1))
        p = np.abs(amp) ** 2
        # bin output occupations into (counter-1 total, counter-2 total)
        k_tot = np.zeros(amp.shape, dtype=np.int64)
        l_tot = np.zeros(amp.shape, dtype=np.int64)
        for ax in range(2 * S):
            sh = [1] * (2 * S)
            sh[ax] = amp.shape[ax]
            ramp = np.arange(amp.shape[ax]).reshape(sh)
            if ax % 2 == 0:
                k_tot = k_tot + ramp
            else:
                l_tot = l_tot + ramp
        np.add.at(table, (k_tot, l_tot), lam * p)
    _TABLE_CACHE[key] = table
    if len(_TABLE_CACHE) > _TABLE_CACHE_MAX:
        _TABLE_CACHE.popitem(last=False)
    return table


def born_oracle(rho: DenseOperator, gamma: complex, bs_blocks, k: int, l: int,
                joint_cutoff: int | None = None) -> float:
    """Probability of k counts at counter 1 and l at counter 2 (brute force)."""
    table = born_table(rho, gamma, bs_blocks, joint_cutoff)
    if k >= table.shape[0] or l >= table.shape[1]:
        return 0.0
    return float(table[k, l])


@dataclass
class Dataset:
    """Per-setting outcome counts from a simulated or real experiment."""

    counts: list[dict]
    M_i: list[int]
    seed: int
    gammas: list[complex] | None = None

    def __post_init__(self):
        if len(self.counts) != len(self.M_i):
            raise ValueError("counts and M_i must align")
        for c, m in zip(self.counts, self.M_i):
            total = sum(c.values())
            if total != m:
                raise ValueError(f"counts sum to {total}, expected {m}")

    def total_shots(self) -> int:
        return int(sum(self.M_i))

    def to_json(self) -> dict:
        settings = []
        for i, c in enumerate(self.counts):
            entry = {"counts": {format_outcome(o): int(n) for o, n in c.items()}}
            if self.gammas is not None:
                entry["gamma"] = complex_to_json(self.gammas[i])
            settings.append(entry)
        return {"settings": settings, "seed": int(self.seed)}

    @classmethod
    def from_json(cls, d: dict) -> "Dataset":
        counts = []
        gammas = []
        have_gamma = True
        for i, s in enumerate(d["settings"]):
            for k, v in s["counts"].items():
                if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                    raise ValueError(f'settings[{i}].counts["{k}"] must be a '
                                     f"non-negative integer, got {v!r}")
            counts.append({parse_outcome(k): v for k, v in s["counts"].items()})
            if "gamma" in s:
                gammas.append(complex_from_json(s["gamma"]))
            else:
                have_gamma = False
        return cls(counts=counts,
                   M_i=[sum(c.values()) for c in counts],
                   seed=int(d.get("seed", 0)),
                   gammas=gammas if have_gamma else None)


def simulate_dataset(state: BlockOperator, context: MeasurementContext,
                     M_i, seed: int) -> Dataset:
    """Multinomial sampling of every setting, deterministic given the seed.

    Sampling uses inverse-CDF draws from a xoshiro256++ stream seeded per
    setting with splitmix64(seed XOR setting index), over the context's
    outcome construction order; the streams are drawn in lanes
    (``_rng.inverse_cdf_counts``).
    """
    M_i = [int(m) for m in M_i]
    if len(M_i) != len(context.settings):
        raise ValueError("M_i must give one total per setting")
    if any(m < 1 for m in M_i):
        raise ValueError("every M_i must be >= 1")
    compiled = context.compiled
    p_all = compiled.P @ compiled.vec(state)
    outcomes, cums = [], []
    for i, povm in enumerate(context.povms):
        probs = _checked(povm, p_all[compiled.offsets[i]:compiled.offsets[i + 1]])
        cum = []
        acc = 0.0
        for value in probs.values():
            acc += value
            cum.append(acc)
        cum[-1] = 1.0  # guard against float shortfall; u < 1 always lands
        outcomes.append(list(probs))
        cums.append(cum)
    tallies = inverse_cdf_counts([setting_seed(seed, i) for i in range(len(M_i))], cums, M_i)
    return Dataset(counts=[dict(zip(o, t.tolist())) for o, t in zip(outcomes, tallies)],
                   M_i=M_i, seed=int(seed), gammas=[s.gamma for s in context.settings])
