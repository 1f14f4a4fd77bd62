"""Born probabilities, a dense brute-force oracle, and seeded dataset sampling."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._rng import inverse_cdf_counts, setting_seed
from .fock import (DenseOperator, JsonFieldError, OccupationBasis, complex_from_json,
                   complex_to_json, field_from_json, int_from_json, list_from_json,
                   poisson_table)
from .optics import plt_on_fock
from .povm import HermitianCoords, MeasurementContext
from .twirl import BlockOperator

__all__ = [
    "Dataset",
    "probabilities",
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
    parts = [p.strip() for p in body[1:-1].split(",")]
    if "" in parts:  # "(1,,2)" or "()": no outcome has an empty part
        raise ValueError(f"outcome label {s!r} has an empty part")
    return tuple(p if p in (">", "I") else int(p) for p in parts)


def _checked(outcomes, p: np.ndarray) -> np.ndarray:
    """The probabilities p of outcomes, rounding below zero clipped (a -0.0
    stays, as max(v, 0.0) keeps it); rejects a probability below -1e-12, and a
    total off 1 by more than 1e-6 or not finite."""
    low = np.flatnonzero(p < -1e-12)
    if low.size:
        raise ValueError(f"outcome {list(outcomes)[low[0]]} has probability "
                         f"{p[low[0]]:.3e} < -1e-12")
    p = np.where(p < 0.0, 0.0, p)
    total = 0.0 + float(np.cumsum(p)[-1])  # a running sum from 0.0, in outcome order
    if not abs(total - 1.0) <= 1e-6:  # also fails on a NaN or infinite total
        raise ValueError(f"probabilities sum to {total!r}, off by more than 1e-6")
    return p


def probabilities(state: BlockOperator, povm: dict) -> dict:
    """Born probabilities p(o) = sum_blocks tr(chi Pi-block) for every outcome."""
    coords = HermitianCoords.of(state.N, state.tuple_length)
    p = (coords.rows(coords.stack([e.op for e in povm.values()]))
         @ coords.rows(coords.stack([state]))[0])
    return dict(zip(povm, _checked(povm, p).tolist()))


def _pair_grid_unitary(block: np.ndarray, cutoff: int) -> np.ndarray:
    """Fock unitary of one signal/probe pair on the (cutoff+1)^2 occupation grid."""
    basis = OccupationBasis(2, cutoff)
    a, b = np.array(basis.states).T
    g = np.zeros((cutoff + 1,) * 4, dtype=np.complex128)
    g[a[:, None], b[:, None], a, b] = plt_on_fock(block, basis).entries
    return g


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
    deficit = poisson_table([ag2], c_probe + 1)[1][0, -1]
    if deficit > 1e-10:
        raise ValueError(f"joint_cutoff {joint_cutoff} leaves probe weight {deficit:.3e} "
                         "above the truncation")
    blocks = [np.asarray(b, dtype=np.complex128) for b in bs_blocks]
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
    return table


# the refusal of a dataset whose counts sum to 0, at the JSON boundary and in a fit
NOTHING_COUNTED = "settings count no outcome, and a fit needs at least one"


@dataclass
class Dataset:
    """Per-setting outcome counts of an experiment; ``M_i`` holds each setting's total."""

    counts: list[dict]
    seed: int
    gammas: list[complex] | None = None
    M_i: list[int] = field(init=False)

    def __post_init__(self):
        if self.gammas is not None and len(self.gammas) != len(self.counts):
            raise ValueError(f"gammas has {len(self.gammas)} entries, counts {len(self.counts)}")
        self.M_i = [sum(c.values()) for c in self.counts]

    def total_shots(self) -> int:
        return int(sum(self.M_i))

    def to_json(self) -> dict:
        label = {o: format_outcome(o) for o in set().union(*self.counts)}  # once per outcome
        settings = []
        for i, c in enumerate(self.counts):
            entry = {"counts": {label[o]: int(n) for o, n in c.items()}}
            if self.gammas is not None:
                entry["gamma"] = complex_to_json(self.gammas[i])
            settings.append(entry)
        return {"settings": settings, "seed": int(self.seed)}

    @classmethod
    def from_json(cls, d: dict) -> "Dataset":
        outcomes = {}  # label -> outcome; each distinct label of this load is parsed once

        def setting(s: dict) -> tuple[dict, complex | None]:
            counts = field_from_json(s, "counts", dict)
            for k, v in counts.items():
                if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                    raise JsonFieldError(f'counts["{k}"] must be a non-negative integer, '
                                         f"got {v!r}")
            gamma = field_from_json(s, "gamma", complex_from_json) if "gamma" in s else None
            labels = {}  # outcome -> its label in this setting
            for k in counts:
                if k not in outcomes:
                    outcomes[k] = parse_outcome(k)
                first = labels.setdefault(outcomes[k], k)
                if first != k:
                    raise JsonFieldError(f'counts["{first}"] and counts["{k}"] name the same '
                                         f"outcome {format_outcome(outcomes[k])}")
            return {o: counts[k] for o, k in labels.items()}, gamma
        parsed = list_from_json(d, "settings", setting)
        if not any(n for counts, _ in parsed for n in counts.values()):
            raise JsonFieldError(NOTHING_COUNTED)
        gammas = [g for _, g in parsed]
        return cls(counts=[c for c, _ in parsed],
                   seed=int_from_json(d, "seed") if "seed" in d else 0,
                   gammas=None if None in gammas else gammas)


def simulate_dataset(state: BlockOperator, context: MeasurementContext,
                     M_i, seed: int | Sequence[int]) -> Dataset | list[Dataset]:
    """Multinomial sampling of every setting, deterministic given the seed.

    Sampling uses inverse-CDF draws from a xoshiro256++ stream seeded per
    setting with splitmix64(seed XOR setting index), over the context's
    outcome construction order; the streams are drawn in lanes
    (``_rng.inverse_cdf_counts``). Given a list of seeds, it returns one
    dataset per seed, each the dataset of that seed alone, with every
    stream of every seed drawn in one lane pass.
    """
    M_i = [int(m) for m in M_i]
    if len(M_i) != len(context.settings):
        raise ValueError("M_i must give one total per setting")
    if any(m < 1 for m in M_i):
        raise ValueError("every M_i must be >= 1")
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    p_all = context.P @ context.vec(state)
    cums = []
    for i, labels in enumerate(context.labels):
        # a running sum, in outcome order
        cum = np.cumsum(_checked(labels, p_all[context.offsets[i]:context.offsets[i + 1]]))
        cum[-1] = 1.0  # guard against float shortfall; u < 1 always lands
        cums.append(cum)
    n = len(M_i)
    tallies = inverse_cdf_counts([setting_seed(s, i) for s in seeds for i in range(n)],
                                 cums * len(seeds), M_i * len(seeds))
    gammas = [s.gamma for s in context.settings]
    datasets = [Dataset(counts=[dict(zip(o, t.tolist()))
                                for o, t in zip(context.labels, tallies[j * n:(j + 1) * n])],
                        seed=int(s), gammas=gammas) for j, s in enumerate(seeds)]
    return datasets[0] if single else datasets
