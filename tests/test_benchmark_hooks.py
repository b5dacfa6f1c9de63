"""The benchmark's tracer wraps package attributes by name and reads their
arguments and results; each must exist and keep the shape the tracer reads."""

import importlib
import sys
from pathlib import Path

import pytest

import alphacirc.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    """perfbench's tracer module, imported without writing into perfbench/."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    return importlib.import_module("tracer")


def test_tracer_targets_resolve(tracer):
    assert tracer.TARGETS
    for module_name, attr, *_ in tracer.TARGETS:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)


def test_tracer_spans_every_target(tracer, tmp_path, capsys):
    # real calls run the wrappers' argument readers, such as `_lee_info`
    # reading `spec.k` and `spec.ring.size`
    with tracer.Tracer() as tr:
        for family in ("double-nega", "bordered-circ"):
            out = str(tmp_path / f"{family}.txt")
            search = ["search", "--ring", "z4", "--length", "8", "--family", family, "--out", out]
            assert alphacirc.cli.main(search) == 0
            assert alphacirc.cli.main(["verify", "--in", out]) == 0
    assert {span[0] for span in tr.spans} == {target[2] for target in tracer.TARGETS}
    lee_infos = [span[4] for span in tr.spans if span[0] == "distance.min_lee_distance"]
    assert all(info is not None for info in lee_infos)
    metrics = tracer.layer_metrics(tr.spans)
    assert metrics["search.lifts_examined"][0] == metrics["lifting.lifts_out"][0] > 0
