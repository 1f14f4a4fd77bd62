"""Tests of the benchmark's own helpers: percentiles, self time, tracing.

Run with ``python3 -m pytest bench/tests``.
"""
import json
import math

import pytest

import run
import tracing
from tracing import Span, Tracer, resolve_owner, self_times, tail_percentile


def _originals():
    return {(path, attr): vars(resolve_owner(path))[attr]
            for _, path, attr in tracing.TARGETS}


def _assert_untouched(originals):
    for (path, attr), original in originals.items():
        assert vars(resolve_owner(path))[attr] is original, f"{path}.{attr}"


@pytest.mark.parametrize("n, expected", [
    (9, None),
    (20, None),
    (39, None),
    (40, (75.0, 30)),
    (99, (75.0, 75)),
    (100, (90.0, 90)),
    (1000, (99.0, 990)),
    (10000, (99.9, 9990)),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = list(range(n, 0, -1))  # 1..n, unsorted on purpose
    assert tail_percentile(samples) == expected
    if expected is not None:
        assert sum(s > expected[1] for s in samples) >= 10


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        Span("cli.main", 0.0, 10.0),
        Span("povm.context_build", 1.0, 4.0, parent=0),
        Span("povm.build_povm", 2.0, 3.0, parent=1),
        Span("mle.reconstruct", 5.0, 9.0, parent=0),
        Span("povm.ic_check", 5.0, 5.5, parent=3),
        Span("povm.ic_check", 6.0, 6.5, parent=3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 0.5, 0.5])
    assert tracing.top_level_covered(spans) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    spans = [Span("a.x", 0.0, 10.0), Span("b.y", 1.0, 5.0, parent=0),
             Span("b.z", 3.0, 7.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_layer_metrics_of_a_synthetic_trace():
    import layers
    spans = [Span("cli.main", 0.0, 4.0), Span("cli.main", 4.0, 10.0),
             Span("povm.context_build", 0.5, 3.5, parent=0),
             Span("povm.pi_kl", 1.0, 2.0, parent=2),
             Span("optics.plt_on_fock", 5.0, 6.0, parent=1)]
    m = layers.layer_metrics(spans, n_ops=2, fixed_s=0.0)
    assert m["cli.self_s"] == (pytest.approx(3.0), "s")  # (1 + 5) s over 2 commands
    assert m["povm.self_s"] == (pytest.approx(1.5), "s")  # (2 + 1) s over 2 operations
    assert m["optics.self_s"] == (pytest.approx(0.5), "s")
    assert m["povm.pi_kl.calls"] == (0.5, "count")
    assert m["mle.fits"] == (0.0, "count") and m["mle.ms_per_iter"] == (0.0, "ms")
    assert set(m) >= {f"{layer}.self_s" for layer in layers.LAYERS}


def test_tracer_restores_every_attribute_even_on_error():
    originals = _originals()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            for (path, attr), original in originals.items():
                assert vars(resolve_owner(path))[attr] is not original
            1 / 0
    _assert_untouched(originals)


def _run(monkeypatch, capsys, trace):
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")  # restored after the test
    code = run.main(["--workload", "twirl-oracle", "--seed", "5",
                     "--seconds", "0.2", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    return result


def test_traced_run_puts_every_original_back(monkeypatch, capsys):
    originals = _originals()
    result = _run(monkeypatch, capsys, trace=1)
    _assert_untouched(originals)
    assert result["metrics"]["optics.plt_on_fock.calls"]["value"] > 0
    assert math.isfinite(result["metrics"]["trace.overhead_frac"]["value"])


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    originals = _originals()
    installs = []
    monkeypatch.setattr(Tracer, "install", lambda self: installs.append(self))
    result = _run(monkeypatch, capsys, trace=0)
    assert installs == []
    _assert_untouched(originals)
    assert set(result["metrics"]) == {"setup_s", "peak_rss_mb", "op_s"}


def test_clock_leaves_kernels_out_of_now_and_restores_the_timer():
    import signal
    import time

    import calibrate

    previous = signal.getsignal(signal.SIGALRM)
    clock = calibrate.Clock()
    with clock:
        first = len(clock.samples)  # the kernel run on entry
        wall, t0 = time.perf_counter(), calibrate.now()
        while time.perf_counter() - wall < 0.6:  # long enough for two ticks
            pass
        own, wall = calibrate.now() - t0, time.perf_counter() - wall
    kernels = clock.samples[first:]
    assert first == 1 and len(kernels) >= 2
    assert own == pytest.approx(wall - sum(kernels), abs=1e-3)
    assert clock.speed() == pytest.approx(
        sum(calibrate.NOMINAL_S / k for k in clock.samples) / len(clock.samples))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
