"""Probe-set design and the determinability decision table.

Probe sufficiency is certified through the bivariate interpolation matrix
J(N, Gamma) whose columns are the monomials gamma^n (gamma*)^m evaluated at
the probe amplitudes: a full-rank square matrix means the measurement
statistics at those probes pin down every observable moment of the twirled
state up to photon number N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (complex_from_json, complex_to_json, int_from_json, kept_singular_values,
                   list_from_json)
from .twirl import slot_sectors

__all__ = [
    "ProbeSet",
    "Verdict",
    "interpolation_matrix",
    "design_gamma",
    "block_parameter_count",
    "feasibility",
]

_DISTINCT_TOL = 1e-9


@dataclass(frozen=True)
class ProbeSet:
    """Distinct probe amplitudes targeted at states with at most N photons."""

    gammas: tuple
    N: int

    def __post_init__(self):
        gammas = tuple(complex(g) for g in self.gammas)
        if not gammas:
            raise ValueError("probe set must be nonempty")
        if self.N < 0:
            raise ValueError("N must be >= 0")
        for i, g in enumerate(gammas):
            if not (math.isfinite(g.real) and math.isfinite(g.imag)):
                raise ValueError(f"amplitude {i} is not finite: {g!r}")
        for i in range(len(gammas)):
            for j in range(i + 1, len(gammas)):
                d = gammas[i] - gammas[j]
                distance = math.hypot(d.real, d.imag)  # abs(d) raises on overflow
                if not math.isfinite(distance):
                    raise ValueError(f"amplitudes {i} and {j} differ by more than a float holds")
                if distance <= _DISTINCT_TOL:
                    raise ValueError(f"amplitudes {i} and {j} coincide")
        object.__setattr__(self, "gammas", gammas)

    def __len__(self) -> int:
        return len(self.gammas)

    def to_json(self) -> dict:
        return {"gammas": [complex_to_json(g) for g in self.gammas], "N": int(self.N)}

    @classmethod
    def from_json(cls, d: dict) -> "ProbeSet":
        return cls(gammas=tuple(list_from_json(d, "gammas", complex_from_json)),
                   N=int_from_json(d, "N"))


def interpolation_matrix(probe_set: ProbeSet, form: str = "complex") -> np.ndarray:
    """|Gamma| x (N+1)^2 evaluation matrix of the bivariate monomial basis.

    Columns run through gamma^n (gamma*)^m with m major (m = 0..N outer,
    n = 0..N inner); the real form uses x^n y^m with x = Re, y = Im.
    """
    if form not in ("complex", "real"):
        raise ValueError("form must be complex or real")
    N = probe_set.N
    rows = len(probe_set)
    out = np.zeros((rows, (N + 1) ** 2),
                   dtype=np.complex128 if form == "complex" else float)
    for i, g in enumerate(probe_set.gammas):
        if form == "complex":
            a, b = g, np.conj(g)
        else:
            a, b = g.real, g.imag
        pow_a = np.array([a ** n for n in range(N + 1)])
        pow_b = np.array([b ** m for m in range(N + 1)])
        out[i, :] = np.outer(pow_b, pow_a).reshape(-1)
    return out


def design_gamma(N: int, seed: int, max_tries: int = 20) -> ProbeSet:
    """Random probe set of size (N+1)^2 with full-rank interpolation matrix.

    Magnitudes are drawn uniformly from [0.3, 3] and phases from [0, pi];
    the draw repeats until the matrix is full-rank. Deterministic in seed.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    rng = np.random.default_rng(seed)
    size = (N + 1) ** 2
    for _ in range(max_tries):
        mags = rng.uniform(0.3, 3.0, size=size)
        phases = rng.uniform(0.0, np.pi, size=size)
        try:
            ps = ProbeSet(gammas=tuple(mags * np.exp(1j * phases)), N=N)
        except ValueError:  # two amplitudes coincide
            continue
        if len(kept_singular_values(interpolation_matrix(ps))) == size:
            return ps
    raise ValueError(f"no full-rank probe set of size {size} found "
                     f"in {max_tries} tries")


@dataclass(frozen=True)
class Verdict:
    """Answer of the determinability decision table."""

    determinable: bool
    theorem: str
    notes: str

    def __post_init__(self):
        if not self.theorem:
            raise ValueError("theorem must be nonempty")

    def to_json(self) -> dict:
        return {"determinable": self.determinable, "theorem": self.theorem,
                "notes": self.notes}


def block_parameter_count(L: int, N: int) -> int:
    """Free complex entries of the block form with L sector slots at cutoff N."""
    total = 0
    for s in range(N + 1):
        mult = math.comb(s + L - 1, L - 1) if L > 0 else (1 if s == 0 else 0)
        total += mult * (N - s + 1) ** 2
    return total


def feasibility(K: int, s1_multi: bool, counters: int, probe_freedom: str,
                detector: str, bs_balanced: bool, N: int) -> Verdict:
    """Determinability of the twirled state for one measurement configuration.

    The verdict tabulates the invertibility results: it reports sufficiency
    of the cited result, so determinable=False for configurations no result
    covers (fixed probe magnitude or click detectors at K >= 2).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if counters not in (1, 2):
        raise ValueError("counters must be 1 or 2")
    if probe_freedom not in ("full", "fixed_magnitude"):
        raise ValueError("probe_freedom must be full or fixed_magnitude")
    if detector not in ("counting", "click"):
        raise ValueError("detector must be counting or click")
    if N < 0:
        raise ValueError("N must be >= 0")

    params = block_parameter_count(len(slot_sectors(K, s1_multi)), N)
    uncovered = ("no invertibility result covers this configuration; the "
                 "table reports sufficient conditions only")

    if detector == "click":
        if K == 1 and probe_freedom == "full":
            bound = 1 if bs_balanced else 2
            det = N <= bound
            theorem = ("click detectors, probe amplitudes free: determinable "
                       "iff N <= 2 for an unbalanced splitter, N <= 1 for a "
                       "balanced one")
            if det:
                notes = ("uses all four click outcomes over a neighborhood of "
                         "probe amplitudes; the double-click outcome is "
                         "redundant given the other three")
            else:
                notes = (f"N = {N} exceeds the bound {bound}: the dark-count "
                         "expectations only expose fixed mixtures of "
                         "higher-moment entries")
            return Verdict(det, theorem, notes)
        return Verdict(False, "click-detector analysis covers only K = 1 "
                              "with full probe freedom", uncovered)

    if probe_freedom == "fixed_magnitude":
        if K == 1:
            if counters == 2:
                return Verdict(
                    True,
                    "two counters at fixed probe magnitude determine the "
                    "state (a bounded photon number gives a determinate "
                    "moment sequence)",
                    "phase sweeps substitute for magnitude freedom when the "
                    "difference of the two count totals is available; "
                    f"{params} free block entries",
                )
            det = N <= 1
            theorem = ("one counter at fixed probe magnitude: determinable "
                       "iff N <= 1")
            if det:
                notes = "phase interpolation recovers every needed moment"
            else:
                notes = ("for N >= 2 the phase-independent coefficients mix "
                         "distinct diagonal moments that cannot be separated")
            return Verdict(det, theorem, notes)
        return Verdict(False, "fixed-magnitude analysis covers only K = 1",
                       uncovered)

    # counting detectors, full probe freedom
    if counters == 2:
        if s1_multi:
            det = K <= 2
            theorem = ("two counters, first sector with several modes: "
                       "determinable iff K <= 2")
        else:
            det = K <= 3
            theorem = ("two counters, first sector a single mode: "
                       "determinable iff K <= 3")
    else:
        if s1_multi:
            det = K == 1
            theorem = ("one counter, first sector with several modes: "
                       "determinable iff K = 1")
        else:
            det = K <= 2
            theorem = ("one counter, first sector a single mode: "
                       "determinable iff K <= 2")
    if det:
        notes = (f"{params} free block entries; {params - 1} outcome "
                 "probabilities suffice once the trace condition is used")
        if K <= 2:
            notes += (f"; a probe set of size (N+1)^2 = {(N + 1) ** 2} with "
                      "full-rank interpolation matrix suffices")
        else:
            notes += ("; proven for probe amplitudes spanning a neighborhood "
                      "of zero, with no finite probe-count bound")
    else:
        notes = ("the per-sector count totals enter only through their sum, "
                 "leaving more unknowns than independent expectations")
    return Verdict(det, theorem, notes)
