"""Maximum-likelihood state reconstruction from photon-counting data.

Two methods climb the same log-likelihood and stop on the same certificate:
r_k = max eig(R-hat) - 1 bounds the likelihood gap to the maximizer by M r_k
(Glancy, Knill & Girard, NJP 14, 095017 (2012)), so a fit ends once r_k falls
below the requested threshold.

- ``"diluted"``, the paper's estimator and the default of
  ``ReconstructionParams``: the R-rho-R fixed-point map, falling back to
  diluted steps (I + eps R)/(1 + eps) on stagnation or non-monotone behavior,
  with eps halved down a fixed ladder from 1e30 to 1e-30.
- ``"apg"``, the default of the CLI's ``reconstruct``, ``--trials`` and
  ``bootstrap``: accelerated projected gradient (FISTA) on -L/M with
  backtracking and a monotone restart; each step projects onto the density
  matrices through one spectrum of the block-diagonal iterate (Shang, Zhang &
  Ng, PRA 95, 062336 (2017); Smolin, Gambetta & Smith, PRL 108, 070502 (2012)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from .povm import MeasurementContext, ic_check
from .sim import NOTHING_COUNTED, Dataset
from .twirl import BlockOperator

METHODS = ("diluted", "apg")

# the diluted fit's eps ladder: the first eps, the factor each further
# stagnation applies, and the floor at which the fit ends eps_exhausted
_EPS_START = 1e30
_EPS_DECAY = 0.5
_EPS_FLOOR = 1e-30


@dataclass(frozen=True)
class ReconstructionParams:
    """Stop rule and budget of a fit; delta_L tunes only the diluted fit."""

    delta_L: float = 1e-12
    r_stop: float | None = None  # None: 1 / total shots, chosen at run time
    max_iter: int = 500000
    method: str = "diluted"

    def __post_init__(self):
        for name in ("delta_L", "r_stop"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.delta_L < 0:
            raise ValueError("delta_L must be >= 0")
        if self.r_stop is not None and not self.r_stop > 0:
            raise ValueError("r_stop must be > 0")
        if not isinstance(self.max_iter, (int, np.integer)) or isinstance(self.max_iter, bool):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")

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
            if name == "method":
                if v not in METHODS:  # a JSON string, and one of the two
                    raise ValueError(f"method must be one of {METHODS}, got {v!r}")
                continue
            # bool is an int subclass, and 2.7 iterations are not 2
            if name == "max_iter" and type(v) is not int:
                raise ValueError(f"max_iter must be a JSON integer, got {v!r}")
            if type(v) not in (int, float, type(None)):
                raise ValueError(f"{name} must be a JSON number, got {v!r}")
        return cls(**{name: v if name in ("max_iter", "method") else float(v)
                      for name, v in d.items() if v is not None})


@dataclass
class ReconstructionReport:
    estimate: BlockOperator
    loglik_trace: list[float]
    rk_trace: list[float]
    termination: str  # stopped_on_r | eps_exhausted | stalled | max_iter
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
    """x -> (log-likelihood m . log p, coordinates P^T (m/p) / M of R-hat)
    at a real state vector x, with p = P x over the outcomes the dataset
    counts. In these orthonormal coordinates P^T (m/p) / M is also the
    gradient of L / M."""
    m = context.counts(dataset)
    P, m, M = context.P[m > 0], m[m > 0], float(dataset.total_shots())

    def at(x: np.ndarray) -> tuple[float, np.ndarray]:
        p = P @ x
        if not p.min(initial=math.inf) > 0.0:  # false on a NaN; inf if nothing is counted
            raise _ZeroProbability("a counted outcome has zero probability")
        return float(m @ np.log(p)), P.T @ (m / p) / M
    return at


def log_likelihood(state: BlockOperator, context: MeasurementContext,
                   dataset: Dataset) -> float:
    """sum_i m(i) log tr(E_i rho), natural log; -inf when a counted outcome
    has nonpositive probability."""
    try:
        return _likelihood(context, dataset)(context.vec(state))[0]
    except _ZeroProbability:
        return -math.inf


def r_operator(state: BlockOperator, context: MeasurementContext,
               dataset: Dataset) -> BlockOperator:
    """R-hat = (1/M) sum_i m(i)/p(i) E_i over all settings and outcomes."""
    g = _likelihood(context, dataset)(context.vec(state))[1]
    return context.coords.split(context.coords.unvec(g))


def _r_k(R: np.ndarray) -> float:
    """The certificate max eig(R-hat) - 1 of a dense R-hat."""
    return float(np.linalg.eigvalsh(R)[-1]) - 1.0


def _step(rho: np.ndarray, R: np.ndarray, eps: float) -> np.ndarray:
    """A rho A / tr(A rho A) on dense block-diagonal matrices."""
    A = R if math.isinf(eps) else (np.eye(len(R)) + eps * R) / (1.0 + eps)
    new = A @ rho @ A
    new = (new + new.conj().T) / 2.0
    tr = float(np.trace(new).real)
    if tr < 1e-300:
        raise ValueError("iterate trace collapsed")
    return new / tr


def reconstruct(context: MeasurementContext, dataset: Dataset,
                params: ReconstructionParams | None = None,
                start: BlockOperator | None = None) -> ReconstructionReport:
    """Run the estimator named by ``params.method``; both record one trace
    entry per accepted iterate and stop once r_k <= r_stop.

    An APG fit starts at ``start``, or at the maximally mixed state when it
    is None; every counted outcome must have positive probability there. The
    diluted fit always starts at the maximally mixed state, because R rho R
    cannot leave a rank-deficient start's support, so it takes no ``start``.
    """
    if params is None:
        params = ReconstructionParams()
    if start is not None and params.method != "apg":
        raise ValueError(f"a {params.method} fit starts at the maximally mixed state, "
                         f"not at a given start")
    if dataset.total_shots() == 0:
        raise ValueError(NOTHING_COUNTED)
    likelihood = _likelihood(context, dataset)
    r_stop = params.r_stop if params.r_stop is not None else 1.0 / dataset.total_shots()

    icr = ic_check(context)
    if not icr["is_ic"]:
        warnings.warn(f"context is not informationally complete "
                      f"(rank {icr['rank']} of {icr['required']}); "
                      f"the estimate may not be unique", stacklevel=2)

    coords, M = context.coords, float(dataset.total_shots())
    if params.method == "apg":
        x = coords.vec(np.eye(coords.D, dtype=np.complex128) / coords.D) if start is None \
            else context.vec(start)
        fit = _apg(coords, likelihood, M, r_stop, params, x)
    else:
        fit = _diluted(coords, likelihood, M, r_stop, params)
    rho, loglik_trace, rk_trace, termination, iterations = fit
    return ReconstructionReport(estimate=context.coords.split(rho),
                                loglik_trace=loglik_trace, rk_trace=rk_trace,
                                termination=termination, iterations=iterations)


def _diluted(coords, likelihood, M, r_stop, params):
    """Diluted iterative maximum likelihood.

    Phase 1 applies the R rho R map; the first stagnation (delta log-lik
    below delta_L) or likelihood decrease switches to the eps ladder, which
    keeps stepping with (I + eps R)/(1 + eps) from eps = _EPS_START and
    multiplies eps by _EPS_DECAY on further stagnation until r_k <= r_stop,
    eps reaches _EPS_FLOOR, or the iteration budget runs out.
    Likelihood-decreasing candidates are discarded; ``iterations`` counts
    every candidate.
    """

    def evaluate(rho: np.ndarray):
        """(log-likelihood, R-hat, r_k) at a dense state."""
        loglik, g = likelihood(coords.vec(rho))
        R = coords.unvec(g)
        return loglik, R, _r_k(R)

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
                eps = _EPS_START
            else:
                eps *= _EPS_DECAY
                if eps <= _EPS_FLOOR:
                    termination = "eps_exhausted"
                    break
    return rho, loglik_trace, rk_trace, termination, iterations


# APG step factors: a trial step that breaks the quadratic bound, or meets a
# counted outcome of zero probability, shrinks the step, at most _APG_BACKTRACKS
# times (0.3^60 is far below rounding); each iteration first lets it grow.
_APG_T0 = 1.0
_APG_SHRINK = 0.3
_APG_GROW = 1.5
_APG_BACKTRACKS = 60


def _simplex(u: np.ndarray) -> np.ndarray:
    """Euclidean projection of u (finite) onto the probability simplex:
    max(u - tau, 0), tau = (s_1 + ... + s_k - 1) / k over u sorted descending,
    k the last index with s_k k > s_1 + ... + s_k - 1.

    A fit projects at most D = 21 numbers a step, so the sort and the running
    sum run on Python floats, which add in np.cumsum's order: tau is the numpy
    formula's bit for bit, without the fixed cost of its ten numpy calls."""
    total = 0.0
    for k, s in enumerate(sorted(u.tolist(), reverse=True), 1):
        total += s
        if s * k > total - 1.0:
            tau = (total - 1.0) / k
    return np.maximum(u - tau, 0.0)


def _project(coords, v: np.ndarray) -> np.ndarray:
    """The density matrix nearest in Frobenius norm to the Hermitian matrix
    with coordinates v: its spectrum goes onto the simplex (Smolin, Gambetta &
    Smith 2012). That map is block diagonal on a block-diagonal matrix, so one
    eigh of the dense matrix serves; coords.vec drops rounding off the blocks."""
    w, V = np.linalg.eigh(coords.unvec(v))
    return coords.vec((V * _simplex(w)) @ V.conj().T)


def _momentum(theta: float) -> float:
    """FISTA's next theta (Beck & Teboulle 2009)."""
    return (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0


def _apg(coords, likelihood, M, r_stop, params, x):
    """Accelerated projected gradient (FISTA) on -L/M over density matrices,
    from the state with coordinates x.

    Each trial step x+ = proj(y + t g(y)) from the extrapolated point y is
    accepted once it meets the quadratic bound of a backtracking line search;
    a counted outcome of zero probability rejects it like a broken bound. A
    step that does not raise L above the current iterate restarts the
    momentum and steps again from the iterate; when that step does not raise
    L either, the fit ends ``stalled``. ``iterations`` counts accepted steps.
    """

    def descend(y, L_y, g_y, t):
        """Backtrack from y: (x+, L(x+), g(x+), t) for the first step size t
        whose x+ satisfies L(x+)/M >= L(y)/M + g.d - |d|^2 / 2t, d = x+ - y;
        None when every trial fails."""
        for _ in range(_APG_BACKTRACKS):
            x = _project(coords, y + t * g_y)
            d = x - y
            try:
                L_x, g_x = likelihood(x)
            except _ZeroProbability:
                t *= _APG_SHRINK
                continue
            if (L_x - L_y) / M >= g_y @ d - (d @ d) / (2.0 * t):
                return x, L_x, g_x, t
            t *= _APG_SHRINK
        return None

    loglik, g = likelihood(x)
    r_k = _r_k(coords.unvec(g))
    loglik_trace, rk_trace = [loglik], [r_k]

    x_prev, theta, t = x, 1.0, _APG_T0
    iterations = 0
    while True:
        if r_k <= r_stop:
            termination = "stopped_on_r"
            break
        if iterations >= params.max_iter:
            termination = "max_iter"
            break
        y, L_y, g_y = x, loglik, g
        if theta > 1.0:
            z = x + ((theta - 1.0) / _momentum(theta)) * (x - x_prev)
            try:
                L_y, g_y = likelihood(z)
                y = z
            except _ZeroProbability:  # the momentum left the states: restart
                theta = 1.0
        step = descend(y, L_y, g_y, t * _APG_GROW)
        if step is None or not step[1] > loglik:
            if theta == 1.0:
                termination = "stalled"
                break
            theta = 1.0
            continue
        x_prev, (x, loglik, g, t) = x, step
        r_k = _r_k(coords.unvec(g))
        theta = _momentum(theta)
        iterations += 1
        loglik_trace.append(loglik)
        rk_trace.append(r_k)
    return coords.unvec(x), loglik_trace, rk_trace, termination, iterations
