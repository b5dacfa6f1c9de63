"""The benchmark's tracer wraps package attributes by name; each must exist."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    assert tracer.TARGETS
    for module_name, attr, *_ in tracer.TARGETS:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)
