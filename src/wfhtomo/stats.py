"""Bootstrap model checking, Poissonian calibration MLE, and sinusoid fits.

The likelihood-ratio statistic -2(L - L_u) compares a reconstructed state
against the saturated model that assigns each setting its empirical outcome
frequencies; parametric bootstrapping resimulates and refits from the
estimate to place the observed ratio inside its sampling distribution.
poisson_mle fits a Poisson mean through an arbitrary detector response, and
sinusoid_fit does weighted least squares for c sin(a v + b) + d traces.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .fock import poisson_table
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
    "poisson_mle",
    "refit_replicates",
    "sinusoid_fit",
]


@dataclass
class BootstrapReport:
    """``replicates`` holds each refit's {termination, iterations, r_k}; a
    replicate that did not reach the certificate is flagged there and
    counted by ``nonconverged``, not dropped from ``boot_lrs``. ``method``
    names the fit method of the refits; the JSON form writes it into every
    replicate entry."""

    original_lr: float
    boot_lrs: list[float]
    sigma_deviation: float
    replicates: list[dict] = field(default_factory=list)
    method: str = "diluted"

    def __post_init__(self):
        if not self.boot_lrs:
            raise ValueError("boot_lrs must be nonempty")

    @property
    def nonconverged(self) -> int:
        return sum(r["termination"] != "stopped_on_r" for r in self.replicates)

    def to_json(self) -> dict:
        return {
            "original_lr": float(self.original_lr),
            "boot_lrs": [float(v) for v in self.boot_lrs],
            "sigma_deviation": float(self.sigma_deviation),
            "replicates": [{"method": self.method, **r} for r in self.replicates],
        }


def _saturated(counts: Mapping) -> float:
    M = sum(counts.values())
    if M <= 0:
        raise ValueError("counts must contain at least one observation")
    return sum(m * math.log(m / M) for m in counts.values() if m > 0)


def log_lr(loglik: float, counts: Sequence[Mapping]) -> float:
    """-2 (loglik - L_u) against the saturated per-setting frequency model.

    ``counts`` holds one outcome->count map per setting; L_u sums
    m(o) log(m(o)/M_s) over nonzero counts.
    """
    if not counts:
        raise ValueError("counts must be nonempty")
    l_u = sum(_saturated(c) for c in counts)
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


def _refit(task) -> Refit:
    context, state, M_i, params, seed = task
    data = simulate_dataset(state, context, M_i, seed)
    fit = reconstruct(context, data, params)
    return Refit(seed, fit.estimate, fit.termination, fit.iterations, fit.loglik_trace[-1],
                 fit.rk_trace[-1], log_lr(fit.loglik_trace[-1], data.counts))


def refit_replicates(state: BlockOperator, context: MeasurementContext, M_i: Sequence[int],
                     n: int, params: ReconstructionParams | None, seed: int,
                     n_jobs: int = 1) -> list[Refit]:
    """Simulate n datasets from ``state``, replicate j with seed
    ``setting_seed(seed, j)``, and fit each: serially, or in n_jobs worker
    processes with the same results. The bootstrap and trial sweeps share it."""
    tasks = [(context, state, M_i, params, setting_seed(seed, j)) for j in range(n)]
    workers = min(n_jobs, n)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_refit, tasks))
    return [_refit(t) for t in tasks]


def parametric_bootstrap(estimate, context: MeasurementContext,
                         M_i: Sequence[int], n_boot: int,
                         params: ReconstructionParams | None,
                         seed: int, dataset: Dataset,
                         n_jobs: int = 1) -> BootstrapReport:
    """Bootstrap distribution of the log LR under the fitted state.

    Each replicate simulates a dataset from ``estimate`` with a seed derived
    from (seed, replicate index), refits it with the same reconstruction
    parameters, and records its LR; ``dataset`` supplies the observed counts
    whose LR is placed within that distribution.
    """
    if n_boot < 2:
        raise ValueError("n_boot must be >= 2")
    original = log_lr(log_likelihood(estimate, context, dataset), dataset.counts)
    fits = refit_replicates(estimate, context, M_i, n_boot, params, seed, n_jobs)
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
                           method=(params or ReconstructionParams()).method)


def _counts_vector(counts: Mapping, n_rows: int) -> np.ndarray:
    vec = np.zeros(n_rows)
    for key, m in counts.items():
        if m < 0:
            raise ValueError("counts must be nonnegative")
        if key == ">" or key == (">",):
            row = n_rows - 1
        else:
            row = int(key[0]) if isinstance(key, tuple) else int(key)
            if not 0 <= row <= n_rows - 2:
                raise ValueError(f"count key {key!r} outside the response rows")
        vec[row] += m
    return vec


def poisson_mle(counts: Mapping, response: np.ndarray) -> dict:
    """Fit mu >= 0 in p(n) = sum_m T'[n,m] e^(-mu) mu^m / m! to counts.

    Rows of ``response`` are detected outcomes 0..N_c followed by the
    overflow row; count keys are integers or ">". Returns mu_hat and the
    per-shot Fisher information at mu_hat.
    """
    T = np.asarray(response, dtype=float)
    col_sums = T.sum(axis=0)
    if np.any(np.abs(col_sums - 1.0) > 1e-6):
        raise ValueError("response must be column-stochastic")
    m_vec = _counts_vector(counts, T.shape[0])
    M = m_vec.sum()
    if M <= 0:
        raise ValueError("all counts are zero")
    m_cut = T.shape[1] - 1

    def response_moments(mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """T pi(mu) and T times the first and second mu-derivatives of pi(mu),
        pi_m(mu) = e^(-mu) mu^m / m! for m = 0..m_cut."""
        pi = poisson_table([mu], m_cut)[0][0]
        shifted = np.r_[0.0, pi[:-1]]
        return T @ pi, T @ (shifted - pi), T @ (np.r_[0.0, shifted[:-1]] - 2.0 * shifted + pi)

    def grad_curv(mu: float) -> tuple[float, float]:
        q, q1, q2 = response_moments(mu)
        obs = m_vec > 0
        if np.any(q[obs] <= 0.0):
            return math.inf, -math.inf  # push away from vanishing support
        g = float(np.sum(m_vec[obs] * q1[obs] / q[obs]))
        h = float(np.sum(m_vec[obs] * (q2[obs] * q[obs] - q1[obs] ** 2) / q[obs] ** 2))
        return g, h

    g0, _ = grad_curv(0.0)
    if g0 <= 0.0:
        mu_hat = 0.0
    else:
        # bracket a sign change of the gradient, then safeguarded Newton
        lo, hi = 0.0, max(1.0, float(m_vec @ np.arange(T.shape[0])) / M)
        while grad_curv(hi)[0] > 0.0:
            lo, hi = hi, hi * 2.0
            if hi > 1e12:
                raise ValueError("gradient never becomes negative; "
                                 "response cannot explain the counts")
        mu = 0.5 * (lo + hi)
        for _ in range(200):
            g, h = grad_curv(mu)
            if abs(g) < 1e-12 * M:
                break
            if g > 0:
                lo = mu
            else:
                hi = mu
            step_ok = h < 0.0 and math.isfinite(g)
            nxt = mu - g / h if step_ok else math.nan
            mu = nxt if step_ok and lo < nxt < hi else 0.5 * (lo + hi)
        mu_hat = mu

    q, q1, _ = response_moments(mu_hat)
    pos = q > 0.0
    fisher = float(np.sum(q1[pos] ** 2 / q[pos]))
    return {"mu_hat": float(mu_hat), "fisher_info": fisher}


def _sin_model(v, a, b, c, d):
    return c * np.sin(a * v + b) + d


def sinusoid_fit(v: Sequence[float], y: Sequence[float], w: Sequence[float]) -> dict:
    """Weighted least-squares fit of c sin(a v + b) + d.

    Multi-starts the phase over {0, pi/2, pi, 3pi/2} (and a small frequency
    grid), keeps the lowest chi-squared solution, and canonicalizes it to
    a > 0, c >= 0, b in [0, 2 pi). The chi-squared cutoff reported alongside
    the fit has tail probability 0.001.
    """
    from scipy import optimize, stats as sp_stats  # here: importing them costs 0.3 s

    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != y.shape or v.shape != w.shape:
        raise ValueError("v, y, w must have equal lengths")
    if v.size < 5:
        raise ValueError("need at least 5 points")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    sigma = 1.0 / np.sqrt(w)
    d0 = float(np.average(y, weights=w))
    spread = float(np.sqrt(np.average((y - d0) ** 2, weights=w)))
    c0 = math.sqrt(2.0) * spread
    span = float(np.ptp(v)) or 1.0

    def chi2_of(p):
        return float(np.sum(w * (y - _sin_model(v, *p)) ** 2))

    best = None
    for freq_scale in (0.5, 1.0, 2.0, 4.0):
        a0 = 2.0 * math.pi * freq_scale / span
        for b0 in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
            try:
                with warnings.catch_warnings():
                    # degenerate (zero-amplitude) data is reported via notes
                    warnings.simplefilter("ignore", optimize.OptimizeWarning)
                    popt, _ = optimize.curve_fit(
                        _sin_model, v, y, p0=[a0, b0, c0 or spread or 1.0, d0],
                        sigma=sigma, absolute_sigma=True, maxfev=10000)
            except RuntimeError:
                continue
            c2 = chi2_of(popt)
            if not math.isfinite(c2):
                continue
            if best is None or c2 < best[1]:
                best = (popt, c2)
    if best is None:
        raise RuntimeError("sinusoid fit did not converge from any start")
    (a, b, c, d), chi2 = best

    # canonical form: flip the sign symmetries onto a > 0, c >= 0, b in [0, 2pi)
    if a < 0:
        a, b, c = -a, -b, -c
    if c < 0:
        c, b = -c, b + math.pi
    b = b % (2.0 * math.pi)
    dof = int(v.size) - 4
    notes = []
    scale = max(spread, abs(d0), 1e-30)
    if abs(c) <= 1e-8 * scale:
        notes.append("amplitude is consistent with zero; a and b are unidentifiable")
    cutoff = float(sp_stats.chi2.isf(0.001, dof)) if dof > 0 else math.inf
    if chi2 > cutoff:
        notes.append(f"chi2 {chi2:.6g} exceeds the p=0.001 cutoff {cutoff:.6g}")
    return {"a": float(a), "b": float(b), "c": float(c), "d": float(d),
            "chi2": chi2, "dof": dof, "chi2_cutoff": cutoff,
            "notes": "; ".join(notes)}
