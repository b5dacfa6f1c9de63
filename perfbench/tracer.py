"""Per-layer spans recorded by wrapping alphacirc's public functions from outside.

`search.py` and `cli.py` bind the functions they call as module globals, so
the wrappers replace those bindings (`alphacirc.search.min_lee_distance`,
not `alphacirc.distance.min_lee_distance`).  Inside `lifting` the module's
own globals are replaced.  `chainring` gets no span: its scalar helpers run
millions of times per pass and show in their callers' self time.

A span is `(name, start, end, parent, info)`; `parent` is the index of the
enclosing span or -1, and `info` is what the metrics need from the call
(None when the call raised or the metrics need nothing from it).
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict


def _no_info(args, kwargs, result):
    return None


def _lee_info(args, kwargs, value):
    spec = args[0]
    abort = kwargs.get("early_abort_at", args[1] if len(args) > 1 else None)
    return (spec.k, spec.ring.size, abort, value)


def _run_search_info(args, kwargs, result):
    return (result.bases_examined, result.lifts_examined, len(result.all_records))


# (module, attribute, span name, info(args, kwargs, result), returns a generator)
TARGETS = (
    ("alphacirc.cli", "main", "cli.main", lambda a, kw, r: a[0][0], False),
    ("alphacirc.cli", "run_search", "search.run_search", _run_search_info, False),
    ("alphacirc.cli", "verify_record", "search.verify_record", lambda a, kw, r: r, False),
    ("alphacirc.search", "enumerate_base_codes", "search.enumerate_base_codes",
     lambda a, kw, r: len(r), False),
    ("alphacirc.search", "min_lee_distance", "distance.min_lee_distance", _lee_info, False),
    ("alphacirc.search", "min_hamming_distance", "distance.min_hamming_distance", _no_info, False),
    ("alphacirc.search", "is_doubly_even", "distance.is_doubly_even", _no_info, False),
    ("alphacirc.search", "is_self_dual", "circulant.is_self_dual", lambda a, kw, r: r, False),
    ("alphacirc.search", "canonical_form", "equivalence.canonical_form", _no_info, False),
    ("alphacirc.search", "canonical_form_bordered", "equivalence.canonical_form_bordered",
     _no_info, False),
    ("alphacirc.search", "nested_lift", "lifting.nested_lift", lambda a, kw, r: len(r), True),
    ("alphacirc.lifting", "build_lift_system", "lifting.build_lift_system", _no_info, False),
    ("alphacirc.lifting", "solve_lift_system", "lifting.solve_lift_system", _no_info, False),
)


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name, info, generator):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if generator:
                    # The work of a generator happens on its first next().
                    result = list(result)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, None)
                raise
            finally:
                stack.pop()
            spans[idx] = (name, start, clock(), parent, info(args, kwargs, result))
            return iter(result) if generator else result

        return wrapper

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, info, generator in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, info, generator))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _median_ms(durations: list[float]) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict[str, tuple[float, str]]:
    """Per-layer counts and busy times of one traced pass, as (value, unit).

    A metric whose calls did not happen in the pass reads 0.
    """
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        busy[name] += end - start
        if parent >= 0:
            child_time[parent] += end - start

    def self_time(name: str) -> float:
        return sum(end - start - child_time[i]
                   for i, (n, start, end, _, _) in enumerate(spans) if n == name)

    def infos(name: str) -> list:
        """Call info of the spans that returned (a raising call has None)."""
        return [info for n, _, _, _, info in spans if n == name and info is not None]

    lee = [(end - start, info) for name, start, end, _, info in spans
           if name == "distance.min_lee_distance" and info is not None]
    with_threshold = [(d, info) for d, info in lee if info[2] is not None]
    aborted = [(d, info) for d, info in with_threshold if info[3] < info[2]]
    exact = [(d, info) for d, info in lee if info[2] is None or info[3] >= info[2]]
    exact_s = sum(d for d, _ in exact)
    exact_codewords = sum(q ** k - 1 for _, (k, q, _, _) in exact)
    run_search = infos("search.run_search")
    self_dual = infos("circulant.is_self_dual")
    bases_total = sum(infos("search.enumerate_base_codes"))
    canonicalizations = (calls["equivalence.canonical_form"]
                         + calls["equivalence.canonical_form_bordered"])
    search_s = sum(end - start for n, start, end, _, info in spans
                   if n == "cli.main" and info == "search")
    cli_s = busy["cli.main"]

    return {
        "cli.search_s": (search_s, "s"),
        "cli.verify_s": (cli_s - search_s, "s"),
        "cli.self_s": (self_time("cli.main"), "s"),
        "distance.lee_calls": (calls["distance.min_lee_distance"], "count"),
        "distance.lee_s": (busy["distance.min_lee_distance"], "s"),
        "distance.lee_share": (_ratio(busy["distance.min_lee_distance"], cli_s), "ratio"),
        "distance.lee_abort_calls": (len(aborted), "count"),
        "distance.lee_abort_ratio": (_ratio(len(aborted), len(with_threshold)), "ratio"),
        "distance.lee_abort_ms_k12": (
            _median_ms([d for d, info in aborted if info[0] == 12]), "ms"),
        "distance.lee_exact_ms_k12": (
            _median_ms([d for d, info in exact if info[0] == 12]), "ms"),
        "distance.lee_exact_ms_k6": (
            _median_ms([d for d, info in exact if info[0] == 6]), "ms"),
        "distance.lee_exact_codewords": (exact_codewords, "count"),
        "distance.lee_exact_ns_per_codeword": (_ratio(1e9 * exact_s, exact_codewords), "ns"),
        "distance.hamming_calls": (calls["distance.min_hamming_distance"], "count"),
        "distance.hamming_s": (busy["distance.min_hamming_distance"], "s"),
        "distance.doubly_even_calls": (calls["distance.is_doubly_even"], "count"),
        "distance.doubly_even_s": (busy["distance.is_doubly_even"], "s"),
        "circulant.is_self_dual_calls": (len(self_dual), "count"),
        "circulant.is_self_dual_s": (busy["circulant.is_self_dual"], "s"),
        "circulant.self_dual_ratio": (_ratio(sum(self_dual), len(self_dual)), "ratio"),
        "equivalence.canonical_form_calls": (calls["equivalence.canonical_form"], "count"),
        "equivalence.canonical_form_s": (busy["equivalence.canonical_form"], "s"),
        "equivalence.canonical_form_bordered_calls": (
            calls["equivalence.canonical_form_bordered"], "count"),
        "equivalence.canonical_form_bordered_s": (
            busy["equivalence.canonical_form_bordered"], "s"),
        "equivalence.new_orbit_ratio": (_ratio(bases_total, canonicalizations), "ratio"),
        "lifting.nested_lift_calls": (calls["lifting.nested_lift"], "count"),
        "lifting.nested_lift_s": (busy["lifting.nested_lift"], "s"),
        "lifting.lifts_out": (sum(infos("lifting.nested_lift")), "count"),
        "lifting.build_lift_system_s": (busy["lifting.build_lift_system"], "s"),
        "lifting.solve_lift_system_calls": (calls["lifting.solve_lift_system"], "count"),
        "lifting.solve_lift_system_s": (busy["lifting.solve_lift_system"], "s"),
        "search.enumerate_base_codes_s": (busy["search.enumerate_base_codes"], "s"),
        "search.enumerate_share": (
            _ratio(busy["search.enumerate_base_codes"], search_s), "ratio"),
        "search.self_s": (self_time("search.run_search"), "s"),
        "search.verify_record_calls": (calls["search.verify_record"], "count"),
        "search.verify_record_s": (busy["search.verify_record"], "s"),
        "search.bases_total": (bases_total, "count"),
        "search.bases_examined": (sum(info[0] for info in run_search), "count"),
        "search.lifts_examined": (sum(info[1] for info in run_search), "count"),
        "search.records": (sum(info[2] for info in run_search), "count"),
    }
