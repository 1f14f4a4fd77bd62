"""Benchmark of the wfhtomo pipeline; see bench/README.md.

    python3 bench/run.py --workload quickstart --seed 1905 --seconds 20 --trace 0

Builds nothing: it imports the package from ``src/`` of the checkout it sits
in, and fails (exit 2, no result line) when that package is missing. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
named metric with its unit, and the environment. Untraced times are in
reference seconds: seconds of the program's own work scaled by the machine's
speed, sampled while it runs (see ``calibrate``).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, tail_percentile, top_level_covered

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
# Every run is one process with --jobs 1; BLAS and OpenMP pools get one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_package():
    """Import the workloads against ``src/wfhtomo`` of this checkout only."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wfhtomo
    found = Path(wfhtomo.__file__).resolve()
    if not found.is_relative_to(SRC.resolve()):
        raise ImportError(f"wfhtomo resolved to {found}, outside {SRC}")
    import layers
    import workloads
    return layers, workloads


def environment() -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k]['name']} {deps[k].get('version', '')}".strip()
                for k in ("blas", "lapack")}
    except (KeyError, TypeError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def closed_loop(workload, tally, seconds: float) -> list[dict]:
    """Run operations back to back; stop before one would overrun ``seconds``
    of wall time. At least one operation always runs."""
    from calibrate import now
    records = []
    start = time.perf_counter()
    while True:
        t0 = now()
        record = workload.op(tally)
        record["op_s"] = now() - t0
        records.append(record)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["op_s"] for r in records) > seconds:
            return records


def named_metrics(workload, records) -> dict[str, tuple[float, str, str]]:
    """Every latency of the records as its median, plus the workload's own
    throughput metrics: name -> (value, unit, note)."""
    out = {}
    for name in records[0]:
        if not name.endswith("_s") or name == "op_s":
            continue
        samples = [r[name] for r in records if name in r]
        note = f"median of n={len(samples)}"
        tail = tail_percentile(samples)
        if tail is not None:
            note += f", p{tail[0]:g}={tail[1]:.6g}"
        out[name] = (statistics.median(samples), "s", note)
    for name, (value, unit) in workload.summarise(records).items():
        out[name] = (value, unit, "")
    return out


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:34s} {value:<22.10g} {unit:6s} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1905)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    start = time.perf_counter()
    import calibrate  # after the pins: numpy reads them when first imported
    clock = calibrate.Clock()
    try:
        with clock:
            layers, workloads = import_package()
            import_s = calibrate.now() - start
    except ImportError as exc:
        print(f"error: cannot import the wfhtomo package from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        tally = workloads.Tally()
        setups = []
        with clock:
            for _ in range(SETUP_REPS):
                t0 = calibrate.now()
                workload.setup()
                setups.append(calibrate.now() - t0)
        setup_s = (import_s + statistics.median(setups)) * clock.speed()
        setup_speed, setup_kernels = clock.speed(), len(clock.samples)

        print(f"# wfhtomo bench: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("# environment " + json.dumps(environment()))
        if args.trace:
            result = traced_run(layers, workload, tally, args.seconds)
        else:
            with clock:
                records = closed_loop(workload, tally, args.seconds)
            speed = clock.speed(setup_kernels)
            for record in records:
                for name in record:
                    if name.endswith("_s"):
                        record[name] *= speed
            print(f"# machine speed (calibrate.NOMINAL_S / reference kernel): "
                  f"set-up {setup_speed:.4f} over {setup_kernels} kernels, window "
                  f"{speed:.4f} over {len(clock.samples) - setup_kernels}")
            print_metric("setup_s", setup_s, "s", f"(import {import_s:.3f} s + median "
                         f"of {SETUP_REPS} set-ups) x set-up speed")
            for name, (value, unit, note) in named_metrics(workload, records).items():
                print_metric(name, value, unit, note)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MiB"),
                      "op_s": (workload.op_seconds(records), "s")}
            print_metric("peak_rss_mb", rss, "MiB")
            print_metric("op_s", result["op_s"][0], "s", f"mean of {len(records)} operations")
        print_metric("failed_frac", tally.failed / max(tally.attempted, 1), "1",
                     f"{tally.failed} of {tally.attempted} operations")
        for problem in tally.problems[:20]:
            print(f"  FAILED {problem}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in result.items()}}))
    return 0


def traced_run(layers, workload, tally, seconds: float) -> dict:
    """Half the window untraced, half traced; per-layer metrics per operation."""
    reference = closed_loop(workload, tally, seconds / 2)
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer:
        traced = closed_loop(workload, tally, seconds / 2)
    window = time.perf_counter() - t0
    spans = tracer.spans
    n_ops = len(traced)

    metrics = layers.layer_metrics(spans, n_ops, layers.fixed_cost_s(spans))
    replicates = round(metrics["stats.replicates"][0] * n_ops)
    unconverged = round(metrics["stats.nonconverged"][0] * n_ops)
    tally.record(replicates, unconverged,
                 f"{unconverged} bootstrap replicates ended without the certificate")
    overhead = workload.op_seconds(traced) / workload.op_seconds(reference) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "1")

    untraced = named_metrics(workload, reference)
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit)
    print("# layer self time per operation -> end-to-end metric it should move "
          "(untraced value)")
    for layer in layers.LAYERS:
        target = workload.layer_map[layer]
        value, unit, _ = untraced[target]
        print(f"  {layer + '.self_s':16s} {metrics[layer + '.self_s'][0]:<12.6g} s"
              f"  -> {target} = {value:.6g} {unit}")
    bench_self = (window - top_level_covered(spans)) / n_ops
    print(f"  {'bench.self_s':16s} {bench_self:<12.6g} s  (benchmark code between calls)")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
