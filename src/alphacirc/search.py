"""Best-minimum-Lee-distance search over double and bordered circulant codes.

Pipeline per length n = 2k: enumerate self-dual (and, for Z4 and Z8 targets,
doubly-even) base codes over the residue field, deduplicate by orbit
canonical form, sort by exact base Hamming distance descending, then lift
each base through the chain ring and evaluate minimum Lee distances.  A lift
over Z_{p^m} contains theta^{m-1} c for every base codeword c, so its d_Lee is
at most p^{m-1} floor(p/2) d_Ham(base) (factor 2 over Z4, 4 over Z8, 3 over Z9,
1 over F2 and F3).  With d the running best, a lift is evaluated with an abort
at need = d + 1 (need = d in an unpruned search, a census) and recorded when it
reaches need, so every recorded value is exact.  A pruned search stops lifting a
base, and stops at the first base, whose bound is at most d; its last record is
the witness.  A census lifts every base and records every tie.
"""

from __future__ import annotations

import itertools
import os
from collections import defaultdict
from dataclasses import dataclass, field, fields

from .chainring import ChainRing, ChainRingError
from .circulant import CodeSpec, format_vector, is_self_dual, parse_vector, self_dual_mask
from .distance import is_doubly_even, min_hamming_distance, min_lee_distance
from .equivalence import _shift_leaders, canonical_form, canonical_form_bordered
from .lifting import nested_lift

FAMILIES = ("double-nega", "double-circ", "bordered-circ")

# Words per candidate block: the block arrays stay around a megabyte at k = 32.
_BLOCK = 4096


class ConfigurationError(ValueError):
    """Invalid search configuration (CLI exit code 1)."""


def _bordered_and_alpha(family: str, ring: ChainRing) -> tuple[bool, int]:
    """The one family decision: alpha = -1 for double-nega, else 1, and
    bordered-circ is the bordered family."""
    if family not in FAMILIES:
        raise ConfigurationError(f"unknown family {family!r}; known: {FAMILIES}")
    return family == "bordered-circ", ring.size - 1 if family == "double-nega" else 1


def family_spec(
    family: str, ring: ChainRing, a: tuple[int, ...], border: tuple[int, int, int] | None = None
) -> CodeSpec:
    """The `family` code over `ring` generated by `a` (the core, for bordered
    codes) and `border`, which a bordered family needs and a double one
    rejects."""
    bordered, alpha = _bordered_and_alpha(family, ring)
    if bordered and border is None:
        raise ValueError(f"{family} codes need a (beta, gamma, delta) border")
    if not bordered and border is not None:
        raise ValueError(f"{family} codes take no border")
    return CodeSpec(ring, alpha, a, border)


@dataclass(frozen=True)
class SearchConfig:
    ring: ChainRing
    n: int
    family: str
    out: str | None = None
    checkpoint: str | None = None
    prune: bool = True

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2:
            raise ConfigurationError(f"length n = {self.n} must be even and positive")
        # self.bordered also rejects an unknown family
        if self.bordered and self.n < 4:
            raise ConfigurationError(
                f"bordered codes need n >= 4 for a non-empty core, got n = {self.n}"
            )
        if self.doubly_even and self.n % 8:
            raise ConfigurationError(
                f"free self-dual {self.ring.name} codes need n divisible by 8, got {self.n}"
            )
        if self.n > 64:
            raise ConfigurationError("lengths beyond 64 are unsupported")
        if self.out is not None or self.checkpoint is not None:
            try:  # a results file names its ring, and verify and resume read the name back
                ChainRing.from_name(self.ring.name)
            except ChainRingError as exc:
                raise ConfigurationError(f"a results file cannot name this ring: {exc}") from None

    @property
    def k(self) -> int:
        return self.n // 2

    @property
    def doubly_even(self) -> bool:
        """Over Z_{2^m}, m >= 2, base codes must be doubly even, so 8 | n."""
        return self.ring.p == 2 and self.ring.m >= 2

    @property
    def bordered(self) -> bool:
        return _bordered_and_alpha(self.family, self.ring)[0]

    @property
    def alpha(self) -> int:
        return _bordered_and_alpha(self.family, self.ring)[1]

    def base_ring(self) -> ChainRing:
        return ChainRing(self.ring.p, 1)

    def fingerprint(self) -> str:
        """The search a results file belongs to: the first fields of its
        summary line.  A checkpoint that does not start its summary with
        them is not resumed."""
        return f"family={self.family} ring={self.ring.name} n={self.n} prune={int(self.prune)}"


@dataclass
class SearchRecord:
    """One evaluated self-dual lift; serializes to a single results line.
    Its base is not stored but derived, the lift mod p over the residue
    field, so no record holds a base its lift does not reduce to."""

    family: str
    lift: CodeSpec
    d_lee: int
    d_ham_base: int
    base: CodeSpec = field(init=False)

    def __post_init__(self) -> None:
        p = self.lift.ring.p
        coords = [c % p for c in self.lift.coords]
        self.base = self.lift.with_coords(ChainRing(p, 1), self.lift.alpha % p, coords)

    def to_line(self) -> str:
        lift = self.lift
        border = format_vector(lift.border) if lift.border is not None else "-"
        return (
            f"{self.family} {lift.ring.name} {lift.n}"
            f" base={format_vector(self.base.a)} lift={format_vector(lift.a)}"
            f" border={border} d_lee={self.d_lee} d_ham_base={self.d_ham_base}"
        )

    @classmethod
    def from_line(cls, line: str) -> "SearchRecord":
        """Decode a line into its codes: the lift over the named ring, whose
        reduction mod p must be the line's base."""
        try:
            family, ring_name, n, *pairs = line.split()
            kv = dict(pair.split("=", 1) for pair in pairs)
            border = None if kv["border"] == "-" else parse_vector(kv["border"])
            ring = ChainRing.from_name(ring_name)
            lift = family_spec(family, ring, parse_vector(kv["lift"]), border)
            if lift.n != int(n):
                raise ValueError(f"n = {n} is not the lift's length {lift.n}")
            rec = cls(family, lift, int(kv["d_lee"]), int(kv["d_ham_base"]))
            if parse_vector(kv["base"]) != rec.base.a:
                raise ValueError(f"base={kv['base']} is not the lift mod {ring.p}")
            return rec
        except (ValueError, KeyError) as exc:
            raise ValueError(f"malformed record line {line!r}: {exc}") from None


@dataclass
class SearchResult:
    """The state of a search: `run_search` updates it in place, writes it as
    a results file to the checkpoint after each base and returns it."""

    all_records: list[SearchRecord] = field(default_factory=list)
    bases_examined: int = 0
    lifts_examined: int = 0

    @property
    def best_d_lee(self) -> int:
        """The d_Lee of the last record, or 0 when there is none: every record
        raised the best (pruned) or raised or tied it (census)."""
        return self.all_records[-1].d_lee if self.all_records else 0

    @property
    def records(self) -> list[SearchRecord]:
        """The witnesses: the records that reach the best d_Lee.  A pruned
        search records only lifts that raised the best, so it has one
        witness, its last record; an unpruned one lists every tie."""
        return [r for r in self.all_records if r.d_lee == self.best_d_lee]


def enumerate_base_codes(cfg: SearchConfig) -> list[CodeSpec]:
    """Canonical representatives of the self-dual base codes over F_q.

    Candidates are the words least among their alpha-shifts (`_shift_leaders`),
    crossed with every border for bordered families (alpha = 1).  The
    alpha-shift is in the group, so every orbit holds a candidate.  Each block
    of them is sieved by `self_dual_mask`: the Gram matrix of the
    alpha-circulant part is alpha-circulant, so the row-0 autocorrelations c_j
    decide self-duality (c_0 = -1, c_j = 0 for doubles), and a bordered core
    with border (beta, gamma, delta) must also satisfy 1 + beta^2 + (k-1)
    gamma^2 = 0 and beta delta + gamma sum(core) = 0, with c_0 = -1 - delta^2
    and c_j = -delta^2.  Only the survivors become specs; targets over
    Z_{2^m}, m >= 2, additionally require a doubly-even base (a free self-dual
    code over them reduces mod 4 to a free self-dual Z4 code).  They are
    deduplicated by canonical form in candidate order (word, then border, both
    lexicographic), and a canonical form is a candidate, the first of its class.
    """
    ring = cfg.base_ring()
    alpha = cfg.alpha % ring.p
    borders = list(itertools.product(range(ring.p), repeat=3)) if cfg.bordered else None
    reps: dict[CodeSpec, None] = {}  # an insertion-ordered set
    for block in _shift_leaders(cfg.k - cfg.bordered, ring.p, alpha, _BLOCK):
        mask = self_dual_mask(ring, alpha, block, borders).reshape(len(block), -1)
        for i, b in zip(*mask.nonzero()):
            spec = CodeSpec(ring, alpha, tuple(block[i].tolist()),
                            None if borders is None else borders[b])
            if cfg.doubly_even and not is_doubly_even(spec):
                continue
            reps[canonical_form(spec) if borders is None else canonical_form_bordered(spec)] = None
    return list(reps)


def _sorted_bases(cfg: SearchConfig) -> list[tuple[CodeSpec, int]]:
    bases = [(spec, min_hamming_distance(spec)) for spec in enumerate_base_codes(cfg)]
    return sorted(bases, key=lambda item: (-item[1], item[0].coords))


def read_results(path: str) -> tuple[list[tuple[int, str]], tuple[int, str] | None]:
    """The record lines of a results file, numbered from 1 as in the file (blank and
    `#` lines skipped), and its summary, the last non-blank line if it is a `#` line
    that holds `best_d_lee=`.  Any other `#` line is a comment."""
    with open(path, encoding="utf-8") as fh:
        lines = [(i, line) for i, line in enumerate(map(str.strip, fh), 1) if line]
    records = [(i, line) for i, line in lines if not line.startswith("#")]
    last = lines[-1][1] if lines else ""
    return records, lines[-1] if last.startswith("#") and "best_d_lee=" in last else None


def read_summary(summary: str, records: list[SearchRecord]) -> SearchResult:
    """The search state that the summary line of a results file claims for its
    decoded `records`.  Raises ValueError unless the line is the one that
    search writes over them (so `best_d_lee=` is the last record's and
    `witnesses=` counts the records at it), every record has the search's
    family, ring and n, each record's d_Lee is at least `prune` above the one
    before, and there are no more records than examined lifts.  Makes no
    distance call."""
    # a missing field reads as "", which no ring, family or count parses
    kv = defaultdict(str, (f.split("=", 1) for f in summary.removeprefix("# ").split()))
    cfg = SearchConfig(ChainRing.from_name(kv["ring"]), int(kv["n"]), kv["family"],
                       prune=kv["prune"] == "1")
    counts = {f.name: int(kv[f.name]) for f in fields(SearchResult) if f.type == "int"}
    result = SearchResult(all_records=records, **counts)
    values = [rec.d_lee for rec in records]
    if (_summary_line(cfg, result) != summary
            or any((r.family, r.lift.ring, r.lift.n) != (cfg.family, cfg.ring, cfg.n)
                   for r in records)
            or not all(b >= a + cfg.prune for a, b in zip(values, values[1:]))
            or result.lifts_examined < len(values)):
        raise ValueError(f"summary {summary!r} is not what its search writes over its records")
    return result


def _read_checkpoint(cfg: SearchConfig, bases_total: int) -> SearchResult:
    """The state saved for this search of `bases_total` bases, or a fresh one when
    there is none or it is not a results file this search could have written."""
    if cfg.checkpoint is None:
        return SearchResult()
    try:
        lines, summary = read_results(cfg.checkpoint)
        if summary is None or not summary[1].startswith(f"# {cfg.fingerprint()} "):
            return SearchResult()
        result = read_summary(summary[1], [SearchRecord.from_line(line) for _, line in lines])
    except (OSError, ValueError):
        return SearchResult()
    # the one claim verify cannot check, as it does not enumerate the bases
    return result if result.bases_examined <= bases_total else SearchResult()


def run_search(cfg: SearchConfig) -> SearchResult:
    """The main loop: bases in descending d_Ham order; stop once p^{m-1} floor(p/2) d_Ham <= d."""
    lee_factor = cfg.ring.p ** (cfg.ring.m - 1) * (cfg.ring.p // 2)
    bases = _sorted_bases(cfg)
    result = _read_checkpoint(cfg, len(bases))
    resumed_at = result.bases_examined
    for base, d_ham in bases[result.bases_examined:]:
        if cfg.prune and lee_factor * d_ham <= result.best_d_lee:
            break
        for lift in nested_lift(base, cfg.ring, cfg.alpha):
            result.lifts_examined += 1
            # the sweep stops below `need`, so every value it records is exact
            need = result.best_d_lee + cfg.prune
            val = min_lee_distance(lift, early_abort_at=need)
            if val >= need:
                result.all_records.append(SearchRecord(cfg.family, lift, val, d_ham))
                if cfg.prune and lee_factor * d_ham <= val:
                    break  # no other lift of this base can beat d
        result.bases_examined += 1
        if cfg.checkpoint is not None:
            write_records(cfg.checkpoint, cfg, result)

    if cfg.checkpoint is not None and result.bases_examined == resumed_at:  # the loop wrote none
        write_records(cfg.checkpoint, cfg, result)
    if cfg.out is not None:
        write_records(cfg.out, cfg, result)
    return result


def _summary_line(cfg: SearchConfig, result: SearchResult) -> str:
    """`# <fingerprint> best_d_lee=... witnesses=...`, then `name=value` per int
    field of the result."""
    counts = [f"{f.name}={getattr(result, f.name)}" for f in fields(result) if f.type == "int"]
    return (f"# {cfg.fingerprint()} best_d_lee={result.best_d_lee}"
            f" witnesses={len(result.records)} {' '.join(counts)}")


def format_results(cfg: SearchConfig, result: SearchResult) -> str:
    """The text of a search's results file, which `alphacirc search` also prints:
    one line per record, then the summary line."""
    lines = [rec.to_line() for rec in result.all_records] + [_summary_line(cfg, result)]
    return "".join(line + "\n" for line in lines)


def write_records(path: str, cfg: SearchConfig, result: SearchResult) -> None:
    """Write the results file, built before anything is opened, through a
    temporary one, so a failure mid-write leaves the previous file."""
    text = format_results(cfg, result)
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)


def verify_record(rec: SearchRecord) -> bool:
    """Re-check the claims of a record: self-duality of the lift and both
    recorded distances.  Its base is the lift mod p by construction, and
    `from_line` rejects a line whose base is not."""
    if not is_self_dual(rec.lift):
        return False
    if min_lee_distance(rec.lift) != rec.d_lee:
        return False
    return min_hamming_distance(rec.base) == rec.d_ham_base
