"""Search-and-certify benchmark for alphacirc.

Run from the root of a checkout:

    python3 perfbench/run.py --workload z4-table --seed 1 --seconds 60 --trace 0

One process runs the workload's searches through `alphacirc.cli.main`, one
at a time with `--threads 1` (a closed loop with a single client), and
re-checks every results file with `alphacirc verify`.  It repeats whole
passes over the workload, each in a seeded order, while another pass still
fits in `--seconds`, and reports medians over the passes.  `setup_s` is the
median wall time of fresh processes that import alphacirc and build the
inputs, run between searches throughout the timed passes.

With `--trace 1` it instead runs the tracer's self-check, one untraced pass
and the same pass traced, and reports per-layer metrics of the traced pass.

Every operation (a search, a verify, a tracer self-check) is checked; the
last line of stdout is a JSON object with `correct`, `attempted`, `failed`
and `metrics`.  A report with the code's provenance and the machine is
written to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checkout
import tracer
import workloads

SETUP_SAMPLES = 12
PROBE_TIMEOUT_S = 60


@dataclass
class PassResult:
    """One pass over a list of searches, each followed by a verify of its file."""

    labels: list[str] = field(default_factory=list)
    search_s: float = 0.0
    verify_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    results_bytes: int = 0
    checkpoint_bytes: int = 0


def _call_cli(cli, argv: list[str]) -> tuple[int | None, float, str]:
    """Run `alphacirc.cli.main(argv)`; return (exit code or None, wall s, output)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(argv)
    except (Exception, SystemExit):
        # A raising operation is a failed operation, not a failed benchmark.
        rc = None
        out.write(traceback.format_exc())
    return rc, time.perf_counter() - start, out.getvalue()


def run_pass(cli, order, workdir: Path, after_search=lambda: None) -> PassResult:
    workdir.mkdir()
    res = PassResult()
    for s in order:
        out, ckpt = workdir / f"{s.label}.txt", workdir / f"{s.label}.ckpt.json"
        res.labels.append(s.label)

        rc, dt, text = _call_cli(cli, s.search_argv(str(out), str(ckpt)))
        res.search_s += dt
        res.attempted += 1
        found = re.search(r"best_d_lee=(\d+)", text)
        if rc != 0 or found is None or int(found.group(1)) != s.expected_d_lee:
            res.failures.append(f"search {s.label}: exit {rc}, expected "
                                f"best_d_lee={s.expected_d_lee}\n{text[-2000:]}")

        rc, dt, text = _call_cli(cli, ["verify", "--in", str(out)])
        res.verify_s += dt
        res.attempted += 1
        body = out.read_text(encoding="utf-8") if out.exists() else ""
        d_lee = [int(d) for d in re.findall(r"^[^#].* d_lee=(\d+) ", body, re.M)]
        checked = re.search(r"checked (\d+) records, 0 failures", text)
        if (rc != 0 or checked is None or int(checked.group(1)) != len(d_lee)
                or max(d_lee, default=None) != s.expected_d_lee):
            res.failures.append(f"verify {s.label}: exit {rc}, {len(d_lee)} records, "
                                f"best recorded d_lee {max(d_lee, default=None)}\n"
                                f"{text[-2000:]}")

        res.outputs[s.label] = body
        res.results_bytes += out.stat().st_size if out.exists() else 0
        res.checkpoint_bytes += ckpt.stat().st_size if ckpt.exists() else 0
        after_search()
    return res


def self_check(alphacirc, workdir: Path) -> PassResult:
    """Check the tracer against the program on tiny searches (one op each)."""
    total = PassResult()
    for i, s in enumerate(workloads.SELF_CHECK):
        plain = run_pass(alphacirc.cli, (s,), workdir / f"self-check-{i}-plain")
        with tracer.Tracer() as tr:
            traced = run_pass(alphacirc.cli, (s,), workdir / f"self-check-{i}-traced")
        m = {name: value for name, (value, _) in tracer.layer_metrics(tr.spans).items()}
        cfg = alphacirc.SearchConfig(ring=alphacirc.ChainRing.from_name(s.ring),
                                     n=s.n, family=s.family)
        checks = {
            "lee_calls == lifts_examined + verified records":
                m["distance.lee_calls"]
                == m["search.lifts_examined"] + m["search.verify_record_calls"],
            "lifts_out == lifts_examined":
                m["lifting.lifts_out"] == m["search.lifts_examined"],
            "bases_total == len(enumerate_base_codes(cfg))":
                m["search.bases_total"] == len(alphacirc.search.enumerate_base_codes(cfg)),
            "traced and untraced records agree": plain.outputs == traced.outputs,
        }
        total.attempted += plain.attempted + traced.attempted + 1
        total.failures += plain.failures + traced.failures
        broken = [name for name, ok in checks.items() if not ok]
        if broken:
            total.failures.append(f"tracer self-check {s.label}: {broken}")
    return total


def time_setup(workload: str) -> float:
    """Wall time of one fresh process that imports alphacirc and builds the inputs."""
    argv = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload]
    start = time.perf_counter()
    subprocess.run(argv, cwd=checkout.ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return time.perf_counter() - start


def timed_passes(alphacirc, workload: str, seed: int, seconds: float, workdir: Path
                 ) -> tuple[PassResult, list[PassResult], list[float]]:
    """A checked, untimed warm-up search, then whole passes while the mean
    pass time says another fits in `seconds`; also returns set-up times.

    The host's speed drifts over tens of seconds, so set-up is timed between
    searches, as often as keeps pace with `SETUP_SAMPLES` per `seconds`, and
    its samples span the run as the passes do.
    """
    warmup = run_pass(alphacirc.cli, (workloads.warmup_search(workload),),
                      workdir / "warmup")
    setup: list[float] = []

    def probe_setup():
        while len(setup) < SETUP_SAMPLES * (time.perf_counter() - start) / seconds:
            setup.append(time_setup(workload))

    orders = workloads.pass_orders(workload, seed)
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(alphacirc.cli, next(orders), workdir / f"pass-{len(passes)}",
                               probe_setup))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return warmup, passes, setup


def traced_run(alphacirc, workload: str, seed: int, workdir: Path, trace_path: Path):
    checked = self_check(alphacirc, workdir)
    order = next(workloads.pass_orders(workload, seed))
    plain = run_pass(alphacirc.cli, order, workdir / "plain")
    with tracer.Tracer() as tr:
        traced = run_pass(alphacirc.cli, order, workdir / "traced")
    tr.write(trace_path)
    metrics = tracer.layer_metrics(tr.spans)
    metrics["search.results_bytes"] = (traced.results_bytes, "bytes")
    metrics["search.checkpoint_bytes"] = (traced.checkpoint_bytes, "bytes")
    metrics["trace.overhead_s"] = (
        traced.search_s + traced.verify_s - plain.search_s - plain.verify_s, "s")
    passes = [checked, plain, traced]
    if plain.outputs != traced.outputs:
        traced.failures.append("traced and untraced passes wrote different records")
    traced.attempted += 1
    return passes, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        alphacirc = checkout.import_alphacirc()
        workloads.build_inputs(alphacirc, args.workload)
        time_setup(args.workload)  # untimed: warms the file cache, checks the probe
    except (ImportError, subprocess.SubprocessError, OSError) as exc:
        detail = getattr(exc, "stderr", None) or b""
        print(f"error: cannot set up alphacirc from {checkout.SRC}: {exc}\n"
              f"{detail.decode(errors='replace')}", file=sys.stderr)
        return 2

    checkout.RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup: list[float] = []
    with tempfile.TemporaryDirectory(prefix=f"{tag}-", dir=checkout.RESULTS) as tmp:
        if args.trace:
            passes, metrics = traced_run(alphacirc, args.workload, args.seed, Path(tmp),
                                         checkout.RESULTS / f"spans-{tag}.jsonl")
        else:
            warmup, passes, setup = timed_passes(alphacirc, args.workload, args.seed,
                                                 args.seconds, Path(tmp))
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "search_s": (statistics.median(p.search_s for p in passes), "s"),
                "verify_s": (statistics.median(p.verify_s for p in passes), "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            passes = [warmup, *passes]

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **checkout.provenance(),
        "setup_samples_s": setup,
        # With --trace 0 the first entry is the untimed warm-up; with
        # --trace 1 the entries are self-check, untraced and traced.
        "passes": [{"order": p.labels, "search_s": p.search_s, "verify_s": p.verify_s}
                   for p in passes],
        "attempted": attempted,
        "ops_failed": len(failures) / attempted,
        "failures": failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(checkout.RESULTS / f"report-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for failure in failures:
        print(f"FAILED: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
