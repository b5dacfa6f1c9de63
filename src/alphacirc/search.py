"""Best-minimum-Lee-distance search over double and bordered circulant codes.

Pipeline per length n = 2k: enumerate self-dual (and, for Z4 targets,
doubly-even) base codes over the residue field, deduplicate by orbit
canonical form, sort by exact base Hamming distance descending, then lift
each base through the chain ring and evaluate minimum Lee distances.  The
running best d prunes whole bases via d_Lee <= 2 d_Ham(base) and aborts
lift evaluations early once they cannot reach d.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .chainring import ChainRing
from .circulant import CircVec, CodeSpec, format_vector, is_self_dual, parse_vector
from .distance import is_doubly_even, min_hamming_distance, min_lee_distance
from .equivalence import canonical_form, canonical_form_bordered, necklaces
from .lifting import nested_lift

FAMILIES = ("double-nega", "double-circ", "bordered-circ")


class ConfigurationError(ValueError):
    """Invalid search configuration (CLI exit code 1)."""


@dataclass(frozen=True)
class SearchConfig:
    ring: ChainRing
    n: int
    family: str
    threads: int = 1
    out: str | None = None
    checkpoint: str | None = None
    extended: bool = False
    prune: bool = True

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown family {self.family!r}; known: {FAMILIES}")
        if self.n < 2 or self.n % 2:
            raise ConfigurationError(f"length n = {self.n} must be even and positive")
        if self.ring.size == 4 and self.n % 8:
            raise ConfigurationError(
                f"self-dual Z4 codes of these families need n divisible by 8, got {self.n}"
            )
        if self.n > 24 and not self.extended:
            raise ConfigurationError(
                f"n = {self.n} is an hours-scale run; pass extended=True to allow it"
            )
        if self.n > 64:
            raise ConfigurationError("lengths beyond 64 are unsupported")
        if self.threads < 1:
            raise ConfigurationError("threads must be >= 1")

    @property
    def k(self) -> int:
        return self.n // 2

    @property
    def kind(self) -> str:
        return "bordered" if self.family == "bordered-circ" else "double"

    @property
    def alpha(self) -> int:
        if self.family == "double-nega":
            return self.ring.size - 1
        return 1

    def target_ring(self) -> ChainRing:
        return self.ring.with_alpha(self.alpha)

    def base_ring(self) -> ChainRing:
        r = self.target_ring()
        return r if r.m == 1 else ChainRing(r.p, 1, r.alpha % r.p)

    def fingerprint(self) -> str:
        return f"{self.family}:{self.ring.name}:{self.n}:{int(self.prune)}"


@dataclass
class SearchRecord:
    """One evaluated self-dual lift; serializes to a single results line."""

    family: str
    ring_name: str
    n: int
    base: tuple[int, ...]
    lift: tuple[int, ...]
    border: tuple[int, int, int] | None
    d_lee: int
    d_ham_base: int
    timestamp: float | None = None

    def to_line(self) -> str:
        border = format_vector(self.border) if self.border is not None else "-"
        return (
            f"{self.family} {self.ring_name} {self.n}"
            f" base={format_vector(self.base)} lift={format_vector(self.lift)}"
            f" border={border} d_lee={self.d_lee} d_ham_base={self.d_ham_base}"
        )

    @classmethod
    def from_line(cls, line: str) -> "SearchRecord":
        try:
            family, ring_name, n, *fields = line.split()
            kv = dict(f.split("=", 1) for f in fields)
            border = None if kv["border"] == "-" else parse_vector(kv["border"])
            return cls(
                family=family,
                ring_name=ring_name,
                n=int(n),
                base=parse_vector(kv["base"]),
                lift=parse_vector(kv["lift"]),
                border=border,
                d_lee=int(kv["d_lee"]),
                d_ham_base=int(kv["d_ham_base"]),
            )
        except (ValueError, KeyError) as exc:
            raise ValueError(f"malformed record line {line!r}: {exc}") from None

    def lift_spec(self) -> CodeSpec:
        ring = ChainRing.from_name(self.ring_name)
        alpha = ring.size - 1 if self.family == "double-nega" else 1
        kind = "bordered" if self.family == "bordered-circ" else "double"
        return CodeSpec(kind, ring.with_alpha(alpha), self.n // 2, alpha, self.lift, self.border)

    def base_spec(self) -> CodeSpec:
        lifted = self.lift_spec()
        base_ring = ChainRing(lifted.ring.p, 1, lifted.alpha % lifted.ring.p)
        border = None
        if self.border is not None:
            border = tuple(b % base_ring.p for b in self.border)
        return CodeSpec(lifted.kind, base_ring, lifted.k, lifted.alpha % base_ring.p, self.base, border)


@dataclass
class SearchResult:
    best_d_lee: int
    records: list[SearchRecord]
    all_records: list[SearchRecord] = field(default_factory=list)
    bases_examined: int = 0
    lifts_examined: int = 0


def enumerate_base_codes(cfg: SearchConfig) -> list[CodeSpec]:
    """Canonical representatives of the self-dual base codes over F_q.

    Candidates are the necklaces (least rotations) of the circulant part,
    crossed with every border for bordered families, which always have
    alpha = 1.  With alpha = 1 rotation is in the group, so every orbit
    contains a candidate.  For double-nega over F_3 rotation is not in the
    group; there the walk is checked against every self-dual vector at small
    n, not proven complete.  Z4 targets additionally require the doubly-even
    property of the base.
    """
    ring = cfg.base_ring()
    alpha, k, kind = ring.alpha, cfg.k, cfg.kind
    need_doubly_even = cfg.ring.p == 2 and cfg.ring.m >= 2
    if kind == "double":
        candidates = itertools.product(necklaces(k, ring.p), [None])
    else:
        borders = itertools.product(range(ring.p), repeat=3)
        candidates = itertools.product(necklaces(k - 1, ring.p), borders)
    seen: set[tuple] = set()
    reps: list[CodeSpec] = []
    for a, border in candidates:
        spec = CodeSpec(kind, ring, k, alpha, a, border)
        if not is_self_dual(spec) or (need_doubly_even and not is_doubly_even(spec)):
            continue
        v = CircVec(ring, alpha, a)
        if border is None:
            canon = (canonical_form(v).coeffs, None)
        else:
            canon = canonical_form_bordered(v, border)
        if canon not in seen:
            seen.add(canon)
            reps.append(CodeSpec(kind, ring, k, alpha, *canon))
    return reps


def _sorted_bases(cfg: SearchConfig) -> list[tuple[CodeSpec, int]]:
    bases = [(spec, min_hamming_distance(spec)) for spec in enumerate_base_codes(cfg)]
    bases.sort(key=lambda item: (-item[1], item[0].a, item[0].border or ()))
    return bases


def _write_checkpoint(cfg: SearchConfig, done: int, state: dict, records: list[SearchRecord]) -> None:
    """Write atomically, so a crash mid-write leaves the previous checkpoint."""
    if cfg.checkpoint is None:
        return
    saved = {
        "fingerprint": cfg.fingerprint(),
        "bases_done": done,
        "best_d_lee": state["d"],
        "lifts_examined": state["lifts"],
        "records": [r.to_line() for r in records],
    }
    with open(cfg.checkpoint + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(saved, fh)
    os.replace(cfg.checkpoint + ".tmp", cfg.checkpoint)


def _read_checkpoint(cfg: SearchConfig) -> tuple[int, int, int, list[SearchRecord]]:
    """Bases done, best d, lifts examined and records saved for this search."""
    if cfg.checkpoint is None:
        return 0, 0, 0, []
    try:
        with open(cfg.checkpoint, encoding="utf-8") as fh:
            state = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return 0, 0, 0, []
    if state.get("fingerprint") != cfg.fingerprint():
        return 0, 0, 0, []
    records = [SearchRecord.from_line(line) for line in state.get("records", [])]
    counts = (int(state.get(key, 0)) for key in ("bases_done", "best_d_lee", "lifts_examined"))
    return (*counts, records)


def run_search(cfg: SearchConfig, interrupt_after: int | None = None) -> SearchResult:
    """The main loop: bases in descending d_Ham order, stop at 2 d_Ham <= d.

    `interrupt_after` (bases) exists to exercise checkpoint/resume in tests.
    """
    bases = _sorted_bases(cfg)
    start_at, d, lifts_done, all_records = _read_checkpoint(cfg)
    lock = threading.Lock()
    state = {"d": d, "lifts": lifts_done}

    def eval_lift(lift_spec: CodeSpec, base: CodeSpec, d_ham: int) -> None:
        with lock:
            threshold = state["d"] if cfg.prune and state["d"] > 0 else None
            state["lifts"] += 1
        val = min_lee_distance(lift_spec, early_abort_at=threshold)
        with lock:
            if val >= state["d"]:
                # exact by construction: the abort threshold never exceeds d
                state["d"] = max(state["d"], val)
                all_records.append(
                    SearchRecord(
                        family=cfg.family,
                        ring_name=cfg.ring.name,
                        n=cfg.n,
                        base=base.a,
                        lift=lift_spec.a,
                        border=lift_spec.border,
                        d_lee=val,
                        d_ham_base=d_ham,
                        timestamp=time.time(),
                    )
                )

    pool = ThreadPoolExecutor(max_workers=cfg.threads) if cfg.threads > 1 else None
    try:
        done = start_at
        for base, d_ham in bases[start_at:]:
            if cfg.prune and 2 * d_ham <= state["d"]:
                break
            lifts = nested_lift(base, cfg.target_ring())
            if pool is not None:
                futures = [pool.submit(eval_lift, lift, base, d_ham) for lift in lifts]
                for f in futures:
                    f.result()
            else:
                for lift in lifts:
                    eval_lift(lift, base, d_ham)
            done += 1
            _write_checkpoint(cfg, done, state, all_records)
            if interrupt_after is not None and done - start_at >= interrupt_after:
                raise KeyboardInterrupt(f"interrupted after {done} bases")
    finally:
        if pool is not None:
            pool.shutdown()

    best = state["d"]
    winners = [r for r in all_records if r.d_lee == best]
    result = SearchResult(
        best_d_lee=best,
        records=winners,
        all_records=all_records,
        bases_examined=done,
        lifts_examined=state["lifts"],
    )
    if cfg.out is not None:
        write_records(cfg, result)
    return result


def write_records(cfg: SearchConfig, result: SearchResult) -> None:
    with open(cfg.out, "w", encoding="utf-8") as fh:
        for rec in result.all_records:
            fh.write(rec.to_line() + "\n")
        fh.write(f"# family={cfg.family} ring={cfg.ring.name} n={cfg.n}"
                 f" best_d_lee={result.best_d_lee} witnesses={len(result.records)}\n")


def read_records(path: str) -> list[SearchRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            records.append(SearchRecord.from_line(line))
    return records


def verify_record(rec: SearchRecord) -> bool:
    """Re-check self-duality, the projection of the lift onto the recorded
    base vector, and both recorded distances.  The base border is derived
    from the lift's border, so its projection is not checked independently."""
    try:
        lifted = rec.lift_spec()
        base = rec.base_spec()
    except (ValueError, KeyError):
        return False
    if not is_self_dual(lifted):
        return False
    p = base.ring.p
    if tuple(c % p for c in lifted.a) != rec.base:
        return False
    if min_lee_distance(lifted) != rec.d_lee:
        return False
    if min_hamming_distance(base) != rec.d_ham_base:
        return False
    return True
