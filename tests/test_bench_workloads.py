"""One set-up and one operation of each workload BENCHMARK.json gates, with
no failed check, so that a change to the package that breaks a gated
workload fails here before the benchmark runs it."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
GATED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    # bench/workloads.py is imported from its file and left as it is; it
    # imports calibrate and layers from its own directory
    patch = pytest.MonkeyPatch()
    patch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("_bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    patch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    patch.undo()


@pytest.mark.parametrize("name", GATED)
def test_gated_workload_runs_one_operation(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](1905, tmp_path)  # bench/run.py's default seed
    workload.setup()
    tally = workloads.Tally()
    workload.op(tally)
    assert tally.attempted > 0
    assert (tally.failed, tally.problems) == (0, [])
