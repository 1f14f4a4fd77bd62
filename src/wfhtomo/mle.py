"""Maximum-likelihood state reconstruction from photon-counting data.

The estimator climbs the log-likelihood with the R-rho-R fixed-point map,
falling back to diluted steps (I + eps R)/(1 + eps) on stagnation or
non-monotone behavior, with eps reduced geometrically down a ladder. The
stopping bound r_k = max eig(R-hat) - 1 dominates the likelihood gap to the
maximizer, so iteration ends once r_k falls below the requested threshold.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.linalg import block_diag

from .povm import MeasurementContext, _split_dense, ic_check
from .sim import Dataset
from .twirl import BlockOperator

@dataclass(frozen=True)
class ReconstructionParams:
    delta_L: float = 1e-12
    r_stop: float | None = None  # None: 1 / total shots, chosen at run time
    eps_start: float = 1e30
    eps_floor: float = 1e-30
    eps_decay: float = 0.5
    max_iter: int = 500000

    def __post_init__(self):
        if self.delta_L < 0:
            raise ValueError("delta_L must be >= 0")
        if self.r_stop is not None and not self.r_stop > 0:
            raise ValueError("r_stop must be > 0")
        if not self.eps_floor < self.eps_start:
            raise ValueError("eps_floor must be below eps_start")
        if not 0 < self.eps_decay < 1:
            raise ValueError("eps_decay must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "ReconstructionParams":
        if not isinstance(d, dict):
            raise TypeError(f"params must be a JSON object, got {type(d).__name__}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))}")
        for name, v in d.items():
            # bool is an int subclass, and 2.7 iterations are not 2
            if name == "max_iter" and type(v) is not int:
                raise ValueError(f"max_iter must be a JSON integer, got {v!r}")
            if type(v) not in (int, float, type(None)):
                raise ValueError(f"{name} must be a JSON number, got {v!r}")
        return cls(**{name: v if name == "max_iter" else float(v)
                      for name, v in d.items() if v is not None})


@dataclass
class ReconstructionReport:
    estimate: BlockOperator
    loglik_trace: list[float]
    rk_trace: list[float]
    termination: str  # stopped_on_r | eps_exhausted | max_iter
    iterations: int

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate.to_json(),
            "loglik_trace": [float(v) for v in self.loglik_trace],
            "rk_trace": [float(v) for v in self.rk_trace],
            "termination": self.termination,
            "iterations": int(self.iterations),
        }


class _ZeroProbability(ValueError):
    """A counted outcome whose probability is not positive."""


def _likelihood(context: MeasurementContext, dataset):
    """x -> (log-likelihood m . log p, dense R-hat with coordinates P^T (m/p) / M)
    at a real state vector x, with p = P x over the outcomes the dataset counts."""
    m = context.compiled.counts(dataset)
    P, m, M = context.compiled.P[m > 0], m[m > 0], float(dataset.total_shots())

    def at(x: np.ndarray) -> tuple[float, np.ndarray]:
        p = P @ x
        if not np.all(p > 0.0):
            raise _ZeroProbability("a counted outcome has zero probability")
        return float(m @ np.log(p)), context.compiled.coords.unvec(P.T @ (m / p) / M)
    return at


def log_likelihood(state: BlockOperator, context: MeasurementContext,
                   dataset: Dataset) -> float:
    """sum_i m(i) log tr(E_i rho), natural log; -inf when a counted outcome
    has nonpositive probability."""
    try:
        return _likelihood(context, dataset)(context.compiled.vec(state))[0]
    except _ZeroProbability:
        return -math.inf


def r_operator(state: BlockOperator, context: MeasurementContext,
               dataset: Dataset) -> BlockOperator:
    """R-hat = (1/M) sum_i m(i)/p(i) E_i over all settings and outcomes."""
    compiled = context.compiled
    return compiled.operator(_likelihood(context, dataset)(compiled.vec(state))[1])


def _step(rho: np.ndarray, R: np.ndarray, eps: float) -> np.ndarray:
    """A rho A / tr(A rho A) on dense block-diagonal matrices."""
    A = R if math.isinf(eps) else (np.eye(len(R)) + eps * R) / (1.0 + eps)
    new = A @ rho @ A
    new = (new + new.conj().T) / 2.0
    tr = float(np.trace(new).real)
    if tr < 1e-300:
        raise ValueError("iterate trace collapsed")
    return new / tr


def diluted_step(state: BlockOperator, R: BlockOperator, eps: float) -> BlockOperator:
    """rho -> A rho A with A = (I + eps R)/(1 + eps); eps = inf gives A = R."""
    if not (eps > 0):
        raise ValueError("eps must be positive (math.inf selects the R rho R map)")
    if state.N != R.N or state.blocks.keys() != R.blocks.keys():
        raise ValueError("block structure mismatch")
    new = _step(block_diag(*state.blocks.values()), block_diag(*R.blocks.values()), eps)
    return _split_dense(new, R if R.partition is not None else state)


def reconstruct(context: MeasurementContext, dataset: Dataset,
                params: ReconstructionParams | None = None) -> ReconstructionReport:
    """Run the full estimator from the maximally mixed state.

    Phase 1 applies the R rho R map; the first stagnation (delta log-lik
    below delta_L) or likelihood decrease switches to the eps ladder, which
    keeps stepping with (I + eps R)/(1 + eps) and shrinks eps on further
    stagnation until r_k <= r_stop, eps reaches its floor, or the iteration
    budget runs out. Likelihood-decreasing candidates are discarded.
    """
    if params is None:
        params = ReconstructionParams()
    coords = context.compiled.coords
    likelihood = _likelihood(context, dataset)
    r_stop = params.r_stop if params.r_stop is not None else 1.0 / dataset.total_shots()

    icr = ic_check(context)
    if not icr["is_ic"]:
        warnings.warn(f"context is not informationally complete "
                      f"(rank {icr['rank']} of {icr['required']}); "
                      f"the estimate may not be unique", stacklevel=2)

    def evaluate(rho: np.ndarray):
        """(log-likelihood, R-hat, r_k) at a dense state."""
        loglik, R = likelihood(coords.vec(rho))
        return loglik, R, float(np.linalg.eigvalsh(R)[-1]) - 1.0

    rho = np.eye(coords.D, dtype=np.complex128) / coords.D
    loglik, R, r_k = evaluate(rho)
    loglik_trace, rk_trace = [loglik], [r_k]

    eps = math.inf
    iterations = 0
    while True:
        if r_k <= r_stop:
            termination = "stopped_on_r"
            break
        if iterations >= params.max_iter:
            termination = "max_iter"
            break
        candidate = _step(rho, R, eps)
        iterations += 1
        new_loglik, new_R, new_r_k = evaluate(candidate)
        accepted = new_loglik >= loglik
        stagnant = (new_loglik - loglik) < params.delta_L
        if accepted:
            rho, loglik, R, r_k = candidate, new_loglik, new_R, new_r_k
            loglik_trace.append(loglik)
            rk_trace.append(r_k)
        if not accepted or stagnant:
            if math.isinf(eps):
                eps = params.eps_start
            else:
                eps *= params.eps_decay
                if eps <= params.eps_floor:
                    termination = "eps_exhausted"
                    break

    return ReconstructionReport(estimate=context.compiled.operator(rho),
                                loglik_trace=loglik_trace, rk_trace=rk_trace,
                                termination=termination, iterations=iterations)
