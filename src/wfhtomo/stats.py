"""Bootstrap model checking.

The likelihood-ratio statistic -2(L - L_u) compares a reconstructed state
against the saturated model that assigns each setting its empirical outcome
frequencies; parametric bootstrapping resimulates and refits from the
estimate to place the observed ratio inside its sampling distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .mle import ReconstructionParams, log_likelihood, reconstruct
from .povm import MeasurementContext
from .sim import Dataset, simulate_dataset
from .twirl import BlockOperator
from ._rng import setting_seed

__all__ = [
    "BootstrapReport",
    "Refit",
    "log_lr",
    "parametric_bootstrap",
    "refit_replicates",
]


@dataclass
class BootstrapReport:
    """``replicates`` holds each refit's {termination, iterations, r_k}; a
    replicate that did not reach the certificate is flagged there and
    counted by ``nonconverged``, not dropped from ``boot_lrs``. ``method``
    names the fit method of the refits; the JSON form writes it into every
    replicate entry. ``p_value`` is the share of replicates whose LR reaches
    the observed one, (1 + #{boot LR >= observed}) / (B + 1) (Davison &
    Hinkley 1997); unlike ``sigma_deviation`` it assumes no symmetric spread."""

    original_lr: float
    boot_lrs: list[float]
    sigma_deviation: float
    replicates: list[dict]
    method: str

    def __post_init__(self):
        if not self.boot_lrs:
            raise ValueError("boot_lrs must be nonempty")

    @property
    def p_value(self) -> float:
        return (1 + sum(lr >= self.original_lr for lr in self.boot_lrs)) / (len(self.boot_lrs) + 1)

    @property
    def nonconverged(self) -> int:
        return sum(r["termination"] != "stopped_on_r" for r in self.replicates)

    def to_json(self) -> dict:
        return {
            "original_lr": float(self.original_lr),
            "boot_lrs": [float(v) for v in self.boot_lrs],
            "sigma_deviation": float(self.sigma_deviation),
            "p_value": self.p_value,
            "replicates": [{"method": self.method, **r} for r in self.replicates],
        }


def _saturated(counts: Mapping, s: int) -> float:
    """L_u of setting s."""
    M = sum(counts.values())
    if M <= 0:
        raise ValueError(f"settings[{s}].counts must contain at least one observation")
    return sum(m * math.log(m / M) for m in counts.values() if m > 0)


def log_lr(loglik: float, counts: Sequence[Mapping]) -> float:
    """-2 (loglik - L_u) against the saturated per-setting frequency model.

    ``counts`` holds one outcome->count map per setting; L_u sums
    m(o) log(m(o)/M_s) over nonzero counts.
    """
    if not counts:
        raise ValueError("counts must be nonempty")
    l_u = sum(_saturated(c, s) for s, c in enumerate(counts))
    return -2.0 * (loglik - l_u)


class Refit(NamedTuple):
    """One replicate's fit without its traces or dataset; lr is its log LR."""

    seed: int
    estimate: BlockOperator
    termination: str
    iterations: int
    loglik: float
    r_k: float
    lr: float


_GROUP = 4  # most replicates drawn in one lane pass


def _refit_group(task) -> list[Refit]:
    """Draw a run of replicates in one lane pass, then fit them in order,
    each from the state they were drawn from when ``warm``."""
    context, state, M_i, params, seeds, warm = task
    fits = []
    for data in simulate_dataset(state, context, M_i, seeds):
        fit = reconstruct(context, data, params, start=state if warm else None)
        fits.append(Refit(data.seed, fit.estimate, fit.termination, fit.iterations,
                          fit.loglik_trace[-1], fit.rk_trace[-1],
                          log_lr(fit.loglik_trace[-1], data.counts)))
    return fits


def refit_replicates(state: BlockOperator, context: MeasurementContext, M_i: Sequence[int],
                     n: int, params: ReconstructionParams | None, seed: int,
                     n_jobs: int = 1) -> list[Refit]:
    """Simulate n datasets from ``state``, replicate j with seed
    ``setting_seed(seed, j)``, and fit each as ``reconstruct`` does: serially,
    or in n_jobs worker processes with the same results."""
    return _refits(state, context, M_i, n, params, seed, n_jobs, warm=False)


def _refits(state, context, M_i, n, params, seed, n_jobs, warm) -> list[Refit]:
    """``refit_replicates``, whose APG fits start at ``state`` when ``warm``.
    The bootstrap and trial sweeps share it. A task is a run of at most
    _GROUP consecutive replicates, drawn together; runs are short enough that
    every requested worker gets one."""
    seeds = [setting_seed(seed, j) for j in range(n)]
    workers = max(1, min(n_jobs, n))
    size = max(1, min(_GROUP, -(-n // workers)))
    tasks = [(context, state, M_i, params, seeds[j:j + size], warm) for j in range(0, n, size)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported only where a pool starts
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(_refit_group, tasks))
    else:
        groups = map(_refit_group, tasks)
    return [fit for group in groups for fit in group]


def parametric_bootstrap(estimate, context: MeasurementContext,
                         M_i: Sequence[int], n_boot: int,
                         params: ReconstructionParams | None,
                         seed: int, dataset: Dataset,
                         n_jobs: int = 1) -> BootstrapReport:
    """Bootstrap distribution of the log LR under the fitted state.

    Each replicate simulates a dataset from ``estimate`` with a seed derived
    from (seed, replicate index), refits it with the same reconstruction
    parameters, and records its LR; ``dataset`` supplies the observed counts
    whose LR is placed within that distribution. An APG refit starts at
    ``estimate``, which gives every count it was drawn with a positive
    probability; its certificate bounds its log-likelihood gap by M r_k
    wherever it starts. A diluted refit starts at the maximally mixed state.
    """
    if n_boot < 2:
        raise ValueError("n_boot must be >= 2")
    method = (params or ReconstructionParams()).method
    original = log_lr(log_likelihood(estimate, context, dataset), dataset.counts)
    fits = _refits(estimate, context, M_i, n_boot, params, seed, n_jobs, warm=method == "apg")
    boot = [f.lr for f in fits]
    spread = float(np.std(boot, ddof=1))
    if spread == 0.0:
        sigma = 0.0 if original == boot[0] else math.inf
    else:
        sigma = (original - float(np.mean(boot))) / spread
    return BootstrapReport(original_lr=original, boot_lrs=boot,
                           sigma_deviation=sigma,
                           replicates=[{"termination": f.termination,
                                        "iterations": f.iterations, "r_k": f.r_k} for f in fits],
                           method=method)
