"""The benchmark's tracer wraps package attributes by name and reads their
arguments and results; each must exist and keep the shape the tracer reads."""

import importlib
import json
import sys
from pathlib import Path

import pytest

import alphacirc.cli

ROOT = Path(__file__).resolve().parents[1]


def _import_script(monkeypatch, directory: str, name: str):
    """A benchmark module imported from its directory without writing there."""
    monkeypatch.syspath_prepend(str(ROOT / directory))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module(name)


@pytest.fixture
def tracer(monkeypatch):
    return _import_script(monkeypatch, "perfbench", "tracer")


def test_benchmark_command_lines_parse(monkeypatch, tmp_path):
    # every command line the two benchmarks hand to the CLI: a dropped or
    # renamed option would otherwise only show as failed benchmark runs
    workloads = _import_script(monkeypatch, "perfbench", "workloads")
    frontier = _import_script(monkeypatch, "bench", "frontier")
    searches = [s for group in workloads.WORKLOADS.values() for s in group]
    argvs = [s.search_argv(str(tmp_path / "out.txt"), str(tmp_path / "state.json"))
             for s in searches + list(workloads.SELF_CHECK)]
    argvs.append(["verify", "--in", str(tmp_path / "out.txt")])
    argvs += [[arg.format(dir=tmp_path) for arg in argv]
              for steps in frontier.CASES.values() for _, argv in steps]
    parser = alphacirc.cli._build_parser()
    for argv in argvs:
        assert parser.parse_args(argv).command == argv[0]


@pytest.mark.parametrize(
    "outcomes, code, agree",
    [
        ({"before": [(0, "x"), (0, "x")], "after": [(0, "x"), (0, "x")]}, 0, True),
        ({"before": [(0, "x"), (0, "x")], "after": [(0, "y"), (0, "y")]}, 0, False),
        ({"before": [(0, "x"), (0, "x")], "after": [(0, "x"), (2, "x")]}, 1, True),
        ({"before": [(0, "x"), (0, "y")], "after": [(0, "x"), (0, "x")]}, 1, False),
    ],
    ids=["same", "checkouts-differ", "failed-command", "runs-differ"],
)
def test_frontier_exit_and_agreement(monkeypatch, tmp_path, outcomes, code, agree):
    # exit 1 on a failed command or on a digest that changes between runs of
    # one checkout; a difference between the checkouts is only reported
    frontier = _import_script(monkeypatch, "bench", "frontier")
    before = tmp_path / "before"
    trees = {frontier.ROOT: iter(outcomes["after"]), before.resolve(): iter(outcomes["before"])}

    def fake_run(checkout, argv, workdir):
        exit_code, digest = next(trees[checkout])
        return {"wall_s": 0.0, "peak_rss_mb": 0.0, "exit": exit_code, "sha256": digest,
                "stdout_last": ""}

    monkeypatch.setattr(frontier, "run_command", fake_run)
    out = tmp_path / "report.json"
    argv = ["--runs", "2", "--case", "z4-n40-double-nega-certificate", "--before", str(before),
            "--out", str(out)]
    assert frontier.main(argv) == code
    report = json.loads(out.read_text())
    assert report["cases"]["z4-n40-double-nega-certificate"]["digests_agree"] is agree


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
