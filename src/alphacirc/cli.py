"""Command-line interface.

Subcommands:
  search    run a best-minimum-Lee-distance search for one length/family
  verify    re-check the records and the summary of a results file or checkpoint
  distance  evaluate one code spec
  canon     canonical form of a generating vector

Exit codes: 0 success, 1 configuration error, 2 runtime failure (with a
checkpoint written when a checkpoint path was given).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .chainring import ChainRing
from .circulant import CodeSpec, format_vector, parse_vector
from .distance import min_hamming_distance, min_lee_distance
from .equivalence import canonical_form
from .search import (
    FAMILIES,
    SearchConfig,
    SearchRecord,
    family_spec,
    format_results,
    read_results,
    read_summary,
    run_search,
    verify_record,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphacirc",
        description="Self-dual double/bordered circulant codes over chain rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="search one length/family for the best d_Lee")
    p.add_argument("--ring", required=True, help="ring name: z2, z4, z8, z9")
    p.add_argument("--length", type=int, required=True, help="code length n = 2k")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--threads", type=int, default=1,
                   help="has no effect: searches run on one thread")
    p.add_argument("--out", help="results file (line-delimited records)")
    p.add_argument("--checkpoint", help="checkpoint file for resume")
    p.add_argument("--no-prune", action="store_true",
                   help="evaluate every base and lift and list every tie")
    p.set_defaults(run=_cmd_search)

    p = sub.add_parser("verify", help="re-check a results file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("distance", help="evaluate one code spec")
    p.add_argument("--ring", required=True)
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--vector", required=True, help="comma-separated digits, index 0 first")
    p.add_argument("--border", help="beta,gamma,delta for bordered specs")
    p.set_defaults(run=_cmd_distance)

    p = sub.add_parser("canon", help="canonical form of a generating vector")
    p.add_argument("--ring", required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--vector", required=True)
    p.set_defaults(run=_cmd_canon)

    return parser


def _cmd_search(args) -> int:
    cfg = SearchConfig(
        ring=ChainRing.from_name(args.ring),
        n=args.length,
        family=args.family,
        out=args.out,
        checkpoint=args.checkpoint,
        prune=not args.no_prune,
    )
    print(format_results(cfg, run_search(cfg)), end="")
    return 0


def _cmd_verify(args) -> int:
    lines, summary = read_results(args.infile)
    records, bad = [], 0
    for number, line in lines:
        try:
            records.append(SearchRecord.from_line(line))
            ok = verify_record(records[-1])
        except ValueError:  # a malformed line fails like a false claim
            ok = False
        if not ok:
            bad += 1
            print(f"FAIL line {number}: {line}", file=sys.stderr)
    # a record line that did not decode has failed already
    if summary is not None and len(records) == len(lines):
        try:
            read_summary(summary[1], records)
        except ValueError:
            bad += 1
            print(f"FAIL line {summary[0]}: {summary[1]}", file=sys.stderr)
    print(f"checked {len(lines)} records, {bad} failures")
    return 0 if bad == 0 else 2


def _cmd_distance(args) -> int:
    border = None if args.border is None else parse_vector(args.border)
    # family_spec rejects a border on a double family and a bordered one
    # without exactly three entries
    ring = ChainRing.from_name(args.ring)
    spec = family_spec(args.family, ring, parse_vector(args.vector), border)
    d_lee = min_lee_distance(spec)
    d_ham = min_hamming_distance(spec)
    print(f"n={spec.n} d_lee={d_lee} d_ham={d_ham}")
    return 0


def _cmd_canon(args) -> int:
    ring = ChainRing.from_name(args.ring)
    spec = CodeSpec(ring, args.alpha, parse_vector(args.vector))
    print(format_vector(canonical_form(spec).a))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted (checkpoint written if configured)", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
