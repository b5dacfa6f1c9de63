"""Frontier benchmark: the long searches that perfbench leaves out.

Run from the root of a checkout:

    python3 bench/frontier.py [--runs 3] [--before OTHER_CHECKOUT] [--case NAME ...]

Every case runs its commands in fresh processes (`python -m alphacirc.cli`
with the checkout's `src/` first on PYTHONPATH), so each time includes the
imports and every cache the command builds.  A case is run `--runs` times;
the report gives the median wall time of each command, the peak RSS of its
processes, the last line of its stdout (a search's summary line), and the
SHA-256 of its output files and stdout, which must be the same in every run.
With `--before`, the same cases also run on the other checkout, alternating
with this one, and the report puts both side by side and says per case
whether the two checkouts' digests agree.

The script exits 1 when a command exits non-zero in any run, or when a
command's digest differs between runs of one checkout; it names each such
failure on stderr.

The report is written to `BENCH_<date>.json` at the root of the checkout
(or `--out`), with the machine and each checkout's net src lines.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A self-dual [40,20] Z4 double nega-circulant code with d_Lee = 14: a lift
# of a top n = 40 base code.
N40_VECTOR = "2,0,2,2,0,2,0,0,0,1,3,0,3,3,0,0,2,3,3,1"


def _search_case(ring: str, n: int, family: str, *flags: str) -> list[tuple[str, list[str]]]:
    search = ["search", "--ring", ring, "--length", str(n), "--family", family,
              "--out", "{dir}/records.txt", *flags]
    return [("search", search), ("verify", ["verify", "--in", "{dir}/records.txt"])]


CASES = {
    "z4-n32-double-nega": _search_case("z4", 32, "double-nega"),
    "z4-n32-bordered-circ": _search_case("z4", 32, "bordered-circ"),
    "z4-n40-double-nega-certificate": [
        ("distance", ["distance", "--ring", "z4", "--family", "double-nega",
                      "--vector", N40_VECTOR]),
    ],
    # opt-in, select them with --case: an n = 32 census (every tie certified)
    # takes seconds, an n = 40 search seconds (over a minute when every tie
    # was certified), an n = 48 one minutes and about half a gigabyte; the
    # Z9 n = 24 searches take seconds and their records include exact
    # certificates of odd d_Lee (15, 17), Z9 n = 28 `double-nega` (best d_Lee
    # 20, alpha = -1 over F3 at k = 14) and `bordered-circ` (best d_Lee 19,
    # odd) about 20 seconds each, Z8 n = 32 `double-nega` about a minute, and
    # Z4 n = 56 `double-nega` a few minutes and about a third of a gigabyte
    "z4-n32-double-nega-census": _search_case("z4", 32, "double-nega", "--no-prune"),
    "z4-n32-bordered-circ-census": _search_case("z4", 32, "bordered-circ", "--no-prune"),
    "z4-n40-double-nega": _search_case("z4", 40, "double-nega"),
    "z4-n40-bordered-circ": _search_case("z4", 40, "bordered-circ"),
    "z4-n48-double-nega": _search_case("z4", 48, "double-nega"),
    "z4-n48-bordered-circ": _search_case("z4", 48, "bordered-circ"),
    "z4-n56-double-nega": _search_case("z4", 56, "double-nega"),
    "z8-n32-double-nega": _search_case("z8", 32, "double-nega"),
    "z9-n24-double-nega": _search_case("z9", 24, "double-nega"),
    "z9-n24-bordered-circ": _search_case("z9", 24, "bordered-circ"),
    "z9-n28-double-nega": _search_case("z9", 28, "double-nega"),
    "z9-n28-bordered-circ": _search_case("z9", 28, "bordered-circ"),
}
DEFAULT_CASES = ["z4-n32-double-nega", "z4-n32-bordered-circ", "z4-n40-double-nega-certificate"]


def src_lines(checkout: Path) -> int:
    return sum(path.read_bytes().count(b"\n")
               for path in sorted((checkout / "src" / "alphacirc").glob("*.py")))


def run_command(checkout: Path, argv: list[str], workdir: str) -> dict:
    """One fresh CLI process: wall time, peak RSS, exit code and output digest."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [arg.format(dir=workdir) for arg in argv]
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "alphacirc.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    digest = hashlib.sha256(stdout)
    for path in sorted(Path(workdir).iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode, "sha256": digest.hexdigest(),
            "stdout_last": (stdout.decode(errors="replace").splitlines() or [""])[-1]}


def run_case(checkout: Path, steps) -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as workdir:
        return {name: run_command(checkout, argv, workdir) for name, argv in steps}


def summarize(runs: list[dict[str, dict]]) -> dict:
    out = {}
    for name in runs[0]:
        samples = [run[name] for run in runs]
        out[name] = {
            "median_s": round(statistics.median(s["wall_s"] for s in samples), 3),
            "runs_s": [round(s["wall_s"], 3) for s in samples],
            "peak_rss_mb": round(max(s["peak_rss_mb"] for s in samples), 1),
            "exit": sorted({s["exit"] for s in samples}),
            "sha256": sorted({s["sha256"] for s in samples}),
            "stdout_last": samples[0]["stdout_last"],
        }
    return out


def case_failures(case: str, entry: dict[str, dict]) -> list[str]:
    """Each command of a case, per checkout, that exited non-zero in some run
    or whose digest differs between runs."""
    failures = []
    for label, commands in entry.items():
        for name, summary in commands.items():
            if summary["exit"] != [0]:
                failures.append(f"{case} {label} {name}: exit codes {summary['exit']}")
            if len(summary["sha256"]) > 1:
                failures.append(f"{case} {label} {name}: output differs between runs")
    return failures


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--before", type=Path, help="another checkout to measure alongside")
    parser.add_argument("--case", action="append", choices=sorted(CASES),
                        help="run only these cases (repeatable)")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    trees = {"after": ROOT}
    if args.before is not None:
        trees = {"before": args.before.resolve(), "after": ROOT}
    report = {
        "date": datetime.date.today().isoformat(),
        "machine": machine(),
        "runs": args.runs,
        "src_lines": {label: src_lines(tree) for label, tree in trees.items()},
        "cases": {},
    }
    failures = []
    for case in args.case or DEFAULT_CASES:
        runs = {label: [] for label in trees}
        for i in range(args.runs):
            # alternate the order so drift of the machine hits both trees alike
            for label in (list(trees) if i % 2 == 0 else list(reversed(trees))):
                runs[label].append(run_case(trees[label], CASES[case]))
        entry = {label: summarize(r) for label, r in runs.items()}
        failures += case_failures(case, entry)
        if args.before is not None:
            entry["digests_agree"] = all(entry["before"][name]["sha256"] == summary["sha256"]
                                         for name, summary in entry["after"].items())
        report["cases"][case] = entry
        print(json.dumps({case: entry}), flush=True)
    out = args.out or ROOT / f"BENCH_{report['date']}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
