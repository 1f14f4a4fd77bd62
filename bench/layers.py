"""Per-layer metrics of a traced run, computed from its spans.

Counts and times are per timed operation unless the name says otherwise;
a layer that does no work on a workload reports 0.
"""
from __future__ import annotations

import dataclasses
import statistics
import time
import warnings
from collections import defaultdict

from wfhtomo import mle

from tracing import Span, self_times

LAYERS = ("cli", "povm", "sim", "mle", "stats", "optics", "twirl", "fock")


def _arg(span: Span, index: int, name: str):
    return span.args[index] if len(span.args) > index else span.kwargs.get(name)


def fixed_cost_s(spans: list[Span], repeats: int = 5) -> float:
    """Median wall time of a one-iteration fit (``max_iter=1``) on the last
    traced fit's context and dataset: the per-call cost every fit pays
    before iterating (linearisation, IC rank check, one step)."""
    fits = [s for s in spans if s.name == "mle.reconstruct"]
    if not fits:
        return 0.0
    context, dataset = _arg(fits[-1], 0, "context"), _arg(fits[-1], 1, "dataset")
    params = _arg(fits[-1], 2, "params") or mle.ReconstructionParams()
    probe = dataclasses.replace(params, max_iter=1)
    times = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the criterion-01 context is not IC
        for _ in range(repeats):
            start = time.perf_counter()
            mle.reconstruct(context, dataset, probe)
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def matvec_flops_per_iter(context) -> int:
    """Computed, not measured: one iteration multiplies the (outcomes x real
    parameters) design matrix by a vector and its transpose by another, at
    two flops per multiply-add."""
    outcomes = sum(len(povm) for povm in context.povms)
    template = next(iter(context.povms[0].values())).op
    params = sum(block.shape[0] ** 2 for block in template.blocks.values())
    return 4 * outcomes * params


def layer_metrics(spans: list[Span], n_ops: int, fixed_s: float) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    named: dict[str, list[Span]] = defaultdict(list)
    own_by_name: dict[str, float] = defaultdict(float)
    own_by_layer: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        named[span.name].append(span)
        own_by_name[span.name] += own
        own_by_layer[span.layer] += own

    def count(name):
        return len(named[name])

    def total(name):
        return sum(s.duration for s in named[name])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{layer}.self_s": (own_by_layer[layer] / n_ops, "s") for layer in LAYERS}
    m["cli.self_s"] = (ratio(own_by_layer["cli"], count("cli.main")), "s")

    builds = [s.duration for s in named["povm.context_build"]]
    m["povm.context_build_s"] = (statistics.median(builds) if builds else 0.0, "s")
    m["povm.build_povm.calls"] = (count("povm.build_povm") / n_ops, "count")
    m["povm.build_povm.s_per_setting"] = (ratio(total("povm.build_povm"),
                                                count("povm.build_povm")), "s")
    m["povm.pi_kl.calls"] = (count("povm.pi_kl") / n_ops, "count")
    m["povm.pi_k.calls"] = (count("povm.pi_k") / n_ops, "count")
    m["povm.apply_loss.s"] = (total("povm.apply_loss") / n_ops, "s")
    m["povm.ic_check.calls"] = (count("povm.ic_check") / n_ops, "count")
    m["povm.ic_check.s"] = (total("povm.ic_check") / n_ops, "s")

    draws = sum(sum(_arg(s, 2, "M_i")) for s in named["sim.simulate"])
    m["sim.simulate.s"] = (total("sim.simulate") / n_ops, "s")
    m["sim.probabilities.s"] = (total("sim.probabilities") / n_ops, "s")
    m["sim.draws"] = (draws / n_ops, "count")
    # simulate's self time is the sampling loop: probabilities are its children
    m["sim.us_per_draw"] = (ratio(own_by_name["sim.simulate"], draws) * 1e6, "us")

    fits = named["mle.reconstruct"]
    iterations = [s.result.iterations for s in fits]
    certified = sum(s.result.termination == "stopped_on_r" for s in fits)
    m["mle.fits"] = (len(fits) / n_ops, "count")
    m["mle.iterations"] = (sum(iterations) / n_ops, "count")
    m["mle.iterations_median"] = (statistics.median(iterations) if fits else 0.0,
                                  "count")
    m["mle.fixed_cost_s"] = (fixed_s, "s")
    m["mle.ms_per_iter"] = (ratio(total("mle.reconstruct") - len(fits) * fixed_s,
                                  sum(iterations)) * 1e3, "ms")
    m["mle.certified_ratio"] = (ratio(certified, len(fits)), "1")
    m["mle.log_likelihood.s"] = (total("mle.log_likelihood") / n_ops, "s")
    m["mle.matvec_flops_per_iter"] = (
        matvec_flops_per_iter(_arg(fits[-1], 0, "context")) if fits else 0, "flop")

    boot_ids = {i for i, s in enumerate(spans) if s.name == "stats.bootstrap"}
    replicates = [s for s in fits if s.parent in boot_ids]
    replicate_wall = 0.0
    for i in boot_ids:
        # the first log-likelihood inside a bootstrap scores the observed data
        first_ll = next((s for s in named["mle.log_likelihood"] if s.parent == i), None)
        replicate_wall += spans[i].duration - (first_ll.duration if first_ll else 0.0)
    m["stats.replicates"] = (len(replicates) / n_ops, "count")
    m["stats.replicate_s"] = (ratio(replicate_wall, len(replicates)), "s")
    m["stats.nonconverged"] = (sum(s.result.termination != "stopped_on_r"
                                   for s in replicates) / n_ops, "count")

    m["optics.plt_on_fock.calls"] = (count("optics.plt_on_fock") / n_ops, "count")
    m["optics.plt_on_fock.ms_per_call"] = (ratio(total("optics.plt_on_fock"),
                                                 count("optics.plt_on_fock")) * 1e3, "ms")
    m["optics.haar_unitary.s"] = (total("optics.haar_unitary") / n_ops, "s")
    m["twirl.twirl_analytic.s"] = (total("twirl.twirl_analytic") / n_ops, "s")
    m["fock.fidelity.s"] = (total("fock.fidelity") / n_ops, "s")
    return m

