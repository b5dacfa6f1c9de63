"""Where the benchmark finds the program, and what it records about it.

The benchmark runs from the root of a source checkout and imports
`alphacirc` from that checkout's `src/`, never from an installed copy, so
the numbers always belong to the code next to them.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "alphacirc"
RESULTS = ROOT / "perfbench" / "results"


def import_alphacirc():
    """Import `alphacirc` from this checkout; raise ImportError otherwise."""
    sys.path.insert(0, str(SRC))
    alphacirc = importlib.import_module("alphacirc")
    importlib.import_module("alphacirc.cli")
    if Path(alphacirc.__file__).resolve().parent != PACKAGE:
        raise ImportError(f"alphacirc was imported from {alphacirc.__file__}, "
                          f"not from {PACKAGE}")
    return alphacirc


def _git_commit() -> str | None:
    # The ceiling keeps git from adopting an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    """The code measured (commit, net src lines, content digest) and the machine."""
    import numpy

    digest = hashlib.sha256()
    lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": _git_commit(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "machine": {
            "cpu_model": _cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
