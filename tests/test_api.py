"""Every name a module exports, and every attribute the bench tracer wraps,
resolves, so that deleting a function still named there fails here."""
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import wfhtomo

MODULES = sorted(m.name for m in pkgutil.iter_modules(wfhtomo.__path__, "wfhtomo."))
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


def test_bench_tracing_targets_resolve(monkeypatch):
    # bench/tracing.py is imported from its file and left as it is
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    assert [(path, attr) for _, path, attr in tracing.TARGETS
            if not hasattr(tracing.resolve_owner(path), attr)] == []
