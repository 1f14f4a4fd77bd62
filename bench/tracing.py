"""In-memory span tracing around the library's public functions.

A ``Tracer`` replaces selected attributes, at the place where callers look
them up (``wfhtomo.cli.reconstruct`` for the CLI, ``wfhtomo.stats.reconstruct``
for the bootstrap), with wrappers that record one ``Span`` per call, and puts
every original object back on exit. Nothing under ``src/`` is edited: an
untraced run never builds a ``Tracer``, so it runs the library untouched.
"""
from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, field

# (span name, "module" or "module:Class", attribute). A function imported by
# name into several modules is wrapped in each of them under one span name.
TARGETS = (
    ("cli.main", "wfhtomo.cli", "main"),
    ("povm.context_build", "wfhtomo.povm:MeasurementContext", "build"),
    ("povm.build_povm", "wfhtomo.povm", "build_povm"),
    ("povm.pi_kl", "wfhtomo.povm", "pi_kl"),
    ("povm.pi_k", "wfhtomo.povm", "pi_k"),
    ("povm.apply_loss", "wfhtomo.povm", "apply_loss"),
    ("povm.ic_check", "wfhtomo.cli", "ic_check"),
    ("povm.ic_check", "wfhtomo.mle", "ic_check"),
    ("sim.simulate", "wfhtomo.cli", "simulate_dataset"),
    ("sim.simulate", "wfhtomo.stats", "simulate_dataset"),
    ("sim.probabilities", "wfhtomo.sim", "probabilities"),
    ("mle.reconstruct", "wfhtomo.cli", "reconstruct"),
    ("mle.reconstruct", "wfhtomo.stats", "reconstruct"),
    ("mle.log_likelihood", "wfhtomo.stats", "log_likelihood"),
    ("stats.bootstrap", "wfhtomo.cli", "parametric_bootstrap"),
    ("twirl.twirl_oracle_mc", "wfhtomo.twirl", "twirl_oracle_mc"),
    ("twirl.twirl_analytic", "wfhtomo.twirl", "twirl_analytic"),
    ("optics.plt_on_fock", "wfhtomo.twirl", "plt_on_fock"),
    ("optics.haar_unitary", "wfhtomo.twirl", "haar_unitary"),
    ("fock.fidelity", "wfhtomo.cli", "fidelity"),
    ("fock.fidelity", "wfhtomo.fock", "fidelity"),
)


def resolve_owner(path: str):
    """The module, or the class inside it, named by a TARGETS owner path."""
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


# Only these spans hold on to their call's arguments and result, so that a
# trace of many small calls stays small.
KEPT = frozenset({"mle.reconstruct", "sim.simulate"})


@dataclass
class Tracer:
    """Records spans of wrapped calls; use as a context manager."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple] = field(default_factory=list)

    def _wrap(self, name: str, func):
        keep = name in KEPT

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(),
                        parent=self._stack[-1] if self._stack else None)
            if keep:
                span.args, span.kwargs = args, kwargs
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = func(*args, **kwargs)
                if keep:
                    span.result = result
                return result
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, path, attr in TARGETS:
            owner = resolve_owner(path)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.duration - _covered(kids)
            for span, kids in zip(spans, children)]


def top_level_covered(spans: list[Span]) -> float:
    """Time covered by spans with no parent: the library's share of a window."""
    return _covered([(s.start, s.end) for s in spans if s.parent is None])


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def tail_percentile(samples):
    """(p, value) for the highest percentile in TAIL_LADDER that has at least
    MIN_BEYOND samples above it, by the nearest-rank rule; None when the run
    holds too few samples for any of them."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        idx = max(0, math.ceil(round(p * n / 100.0, 9)) - 1)
        if n - 1 - idx >= MIN_BEYOND:
            return p, ordered[idx]
    return None
