import dataclasses
import itertools
import json
import pathlib

import pytest

import alphacirc.cli
import alphacirc.search
import helpers
from alphacirc import (
    ChainRing,
    CodeSpec,
    ConfigurationError,
    SearchConfig,
    SearchRecord,
    SearchResult,
    canonical_form,
    enumerate_base_codes,
    is_doubly_even,
    is_self_dual,
    min_lee_distance,
    run_search,
    verify_record,
)
from alphacirc.cli import main
from alphacirc.lifting import nested_lift
from alphacirc.search import read_results, write_records

Z4 = ChainRing(2, 2)


def cfg(**kw):
    base = dict(ring=Z4, n=8, family="double-nega")
    base.update(kw)
    return SearchConfig(**base)


class TestSearchConfig:
    def test_defaults(self):
        c = cfg()
        assert c.k == 4 and not c.bordered and c.alpha == 3
        assert c.base_ring() == ChainRing(2, 1)

    def test_circ_alpha(self):
        assert cfg(family="double-circ").alpha == 1
        assert cfg(family="bordered-circ").bordered

    def test_rejects_odd_or_tiny_length(self):
        with pytest.raises(ConfigurationError):
            cfg(n=7)
        with pytest.raises(ConfigurationError):
            cfg(n=0)

    def test_rejects_z4_length_not_multiple_of_8(self):
        with pytest.raises(ConfigurationError):
            cfg(n=12)

    @pytest.mark.parametrize("family", alphacirc.search.FAMILIES)
    @pytest.mark.parametrize("n", [4, 12, 20])
    def test_rejects_z8_length_not_multiple_of_8(self, n, family, capsys):
        # a free self-dual Z8 code reduces mod 4 to a free self-dual Z4 code
        with pytest.raises(ConfigurationError):
            cfg(ring=ChainRing(2, 3), n=n, family=family)
        assert main(["search", "--ring", "z8", "--length", str(n), "--family", family]) == 1
        assert "divisible by 8" in capsys.readouterr().err

    def test_rejects_lengths_beyond_64(self):
        cfg(n=32)
        cfg(n=64)
        with pytest.raises(ConfigurationError):
            cfg(n=72)

    def test_rejects_bad_family(self):
        with pytest.raises(ConfigurationError):
            cfg(family="triple-circ")

    @pytest.mark.parametrize("ring", [ChainRing(3, 1), ChainRing(5, 1), ChainRing(3, 3)])
    @pytest.mark.parametrize("path", ["out", "checkpoint"])
    def test_results_file_needs_a_named_ring(self, ring, path, tmp_path):
        # a results file names its ring, and verify and resume read the name
        # back with ChainRing.from_name: a search over a ring it does not know
        # would write records that every verify fails
        target = tmp_path / "records.txt"
        with pytest.raises(ConfigurationError, match=ring.name):
            cfg(ring=ring, n=12, **{path: str(target)})
        assert not target.exists()

    @pytest.mark.parametrize("ring, best", [(ChainRing(3, 1), 6), (ChainRing(5, 1), 8),
                                            (ChainRing(3, 3), 20)])
    def test_in_memory_search_over_any_ring(self, ring, best):
        assert run_search(cfg(ring=ring, n=12)).best_d_lee == best


class TestBaseEnumeration:
    def test_orbit_appears_once(self):
        reps = enumerate_base_codes(cfg())
        Z2 = ChainRing(2, 1)
        target = canonical_form(CodeSpec(Z2, 1, (1, 1, 1, 0)))
        assert sum(1 for s in reps if s == target) == 1
        for s in reps:
            assert s == canonical_form(s)

    @pytest.mark.parametrize(
        "ring_name, n, family",
        [("z4", n, f) for n in (8, 16) for f in ("double-circ", "bordered-circ")]
        + [("z9", n, f) for n in range(2, 13, 2) for f in ("double-nega", "double-circ")]
        + [("z9", n, "bordered-circ") for n in range(4, 13, 2)]
        + [("z9", 16, "double-nega")],
    )
    def test_covers_all_self_dual_orbits(self, ring_name, n, family):
        # every self-dual base vector, canonicalized by the breadth-first oracle
        config = cfg(ring=ChainRing.from_name(ring_name), n=n, family=family)
        ring, k = config.base_ring(), config.k
        alpha = config.alpha % ring.p
        reps = {(s.a, s.border) for s in enumerate_base_codes(config)}
        expected = set()
        if config.bordered:
            candidates = itertools.product(
                itertools.product(range(ring.p), repeat=k - 1),
                itertools.product(range(ring.p), repeat=3),
            )
        else:
            candidates = itertools.product(itertools.product(range(ring.p), repeat=k), [None])
        for a, border in candidates:
            spec = CodeSpec(ring, alpha, a, border)
            if not is_self_dual(spec):
                continue
            if ring_name == "z4" and not is_doubly_even(spec):
                continue
            if border is None:
                expected.add((min(helpers.orbit(spec)), None))
            else:
                expected.add(min(helpers.bordered_orbit(spec), key=lambda st: st[0] + st[1]))
        assert reps == expected

    def test_double_nega_over_f3_finds_every_class(self):
        # no least rotation lies in the class of this vector (d_Ham 6): a
        # candidate rule of least rotations found the other 16 classes only
        reps = enumerate_base_codes(cfg(ring=ChainRing.from_name("z9"), n=28))
        a = (1, 1, 1, 2, 1, 1, 2, 2, 1, 2, 2, 2, 1, 1)
        assert len(reps) == 17 and canonical_form(CodeSpec(ChainRing(3, 1), 2, a)) in reps

    def test_bordered_reps_dedup(self):
        reps = enumerate_base_codes(cfg(family="bordered-circ"))
        pairs = {(s.a, s.border) for s in reps}
        assert len(pairs) == len(reps)

    @pytest.mark.parametrize("family", alphacirc.search.FAMILIES)
    @pytest.mark.parametrize(
        "ring_name, n",
        [("z2", n) for n in (4, 6, 10, 16)]
        + [("z4", n) for n in (8, 16, 24, 32)]
        + [("z8", n) for n in (8, 16)]
        + [("z9", n) for n in (4, 6, 12, 16)],
    )
    def test_matches_oracle(self, ring_name, n, family):
        # same representatives in the same order as the per-candidate loop;
        # n = 4 gives bordered cores of length 1
        config = cfg(ring=ChainRing.from_name(ring_name), n=n, family=family)
        assert enumerate_base_codes(config) == helpers.enumerate_base_codes_oracle(config)

    @pytest.mark.parametrize("family", alphacirc.search.FAMILIES)
    def test_order_kept_across_blocks(self, family, monkeypatch):
        monkeypatch.setattr(alphacirc.search, "_BLOCK", 5)
        for config in (cfg(n=16, family=family), cfg(ring=ChainRing(3, 2), n=12, family=family)):
            assert enumerate_base_codes(config) == helpers.enumerate_base_codes_oracle(config)


class TestRunSearch:
    def test_n8_nega(self):
        result = run_search(cfg())
        assert result.best_d_lee == 6
        assert result.records
        for rec in result.records:
            assert rec.d_lee == 6
            assert verify_record(rec)

    def test_n8_bordered(self):
        result = run_search(cfg(family="bordered-circ"))
        assert result.best_d_lee == 6

    def test_deterministic(self, tmp_path):
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        run_search(cfg(out=str(first)))
        run_search(cfg(out=str(second)))
        assert first.read_bytes() == second.read_bytes()

    def test_prune_matches_unpruned(self):
        r1 = run_search(cfg())
        r2 = run_search(cfg(prune=False))
        assert r1.best_d_lee == r2.best_d_lee
        key = lambda r: (r.base, r.lift)
        assert set(map(key, r1.records)) == set(map(key, r2.records))

    def test_results_file(self, tmp_path):
        out = tmp_path / "records.txt"
        result = run_search(cfg(out=str(out)))
        lines = out.read_text().strip().splitlines()
        assert lines[-1] == (
            f"# family=double-nega ring=z4 n=8 prune=1 best_d_lee=6 witnesses={len(result.records)}"
            f" bases_examined={result.bases_examined} lifts_examined={result.lifts_examined}"
        )
        records, summary = read_results(str(out))
        assert [SearchRecord.from_line(line) for _, line in records] == result.all_records
        assert [number for number, _ in records] == list(range(1, len(lines)))
        assert summary == (len(lines), lines[-1])

    def test_results_file_survives_failed_write(self, tmp_path, monkeypatch):
        out = tmp_path / "records.txt"
        config = cfg(family="bordered-circ", out=str(out))
        result = run_search(config)
        assert len(result.all_records) >= 2
        before = out.read_bytes()
        to_line, calls = SearchRecord.to_line, []

        def fail_on_second_record(rec):
            calls.append(rec)
            if len(calls) > 1:
                raise RuntimeError("serialization failed")
            return to_line(rec)

        monkeypatch.setattr(SearchRecord, "to_line", fail_on_second_record)
        with pytest.raises(RuntimeError):
            write_records(config.out, config, result)
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["records.txt"]

    def test_checkpoint_resume(self, tmp_path, monkeypatch, capsys):
        # the checkpoint is a results file: verify checks the one an
        # interrupted search left, and the resumed search ends with the
        # results file of a search that ran through
        def interrupt_after_first_base(*args):
            write_records(*args)
            raise KeyboardInterrupt

        for family in ("double-nega", "bordered-circ"):
            ck, out = tmp_path / f"{family}.state", tmp_path / f"{family}.txt"
            config = cfg(n=16, family=family, checkpoint=str(ck), prune=False)
            monkeypatch.setattr(alphacirc.search, "write_records", interrupt_after_first_base)
            with pytest.raises(KeyboardInterrupt):
                run_search(config)
            monkeypatch.undo()
            *records, summary = ck.read_text().splitlines()
            assert " bases_examined=1 " in summary and records
            capsys.readouterr()
            assert main(["verify", "--in", str(ck)]) == 0
            assert capsys.readouterr().out == f"checked {len(records)} records, 0 failures\n"
            resumed = run_search(config)
            fresh = run_search(cfg(n=16, family=family, prune=False, out=str(out)))
            assert resumed == fresh and resumed.best_d_lee == 8
            assert ck.read_bytes() == out.read_bytes()
        assert len(list(tmp_path.iterdir())) == 4  # no temporary file is left

    def test_pruned_checkpoint_resume(self, tmp_path, monkeypatch):
        # a pruned search resumed after its first base ends with the results
        # file of a search that ran through
        def interrupt_after_first_base(*args):
            write_records(*args)
            raise KeyboardInterrupt

        ck, out = tmp_path / "state.txt", tmp_path / "records.txt"
        z9 = dict(ring=ChainRing.from_name("z9"), n=16, family="bordered-circ")
        fresh = run_search(cfg(**z9, out=str(out)))
        assert fresh.bases_examined > 1
        config = cfg(**z9, checkpoint=str(ck))
        monkeypatch.setattr(alphacirc.search, "write_records", interrupt_after_first_base)
        with pytest.raises(KeyboardInterrupt):
            run_search(config)
        monkeypatch.undo()
        assert run_search(config) == fresh
        assert ck.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("ring, best", [("z9", 9), ("z8", 12)])
    def test_base_cutoff_holds_over_every_ring(self, ring, best, tmp_path):
        # a running best of 8 must not cut the second base (d_Ham 3 over Z9,
        # 4 over Z8): its lifts can reach 3 d_Ham and 4 d_Ham, not just 2 d_Ham.
        # The best is planted as a checkpoint of the first base whose one
        # record, the base's first lift, claims d_Lee 8.
        config = cfg(ring=ChainRing.from_name(ring), n=16, checkpoint=str(tmp_path / "state.txt"))
        base, d_ham = alphacirc.search._sorted_bases(config)[0]
        lift = next(nested_lift(base, config.ring, config.alpha))
        record = SearchRecord(config.family, lift, 8, d_ham)
        planted = SearchResult([record], bases_examined=1, lifts_examined=1)
        write_records(config.checkpoint, config, planted)
        result = run_search(config)
        assert result.all_records[0] == record and result.best_d_lee == best

    @pytest.mark.parametrize("ring, n", [("z8", 16), ("z9", 16), ("z9", 20)])
    @pytest.mark.parametrize("family", ["double-nega", "bordered-circ"])
    def test_prune_matches_unpruned_over_other_rings(self, ring, n, family):
        config = dict(ring=ChainRing.from_name(ring), n=n, family=family)
        pruned, unpruned = run_search(cfg(**config)), run_search(cfg(**config, prune=False))
        assert pruned.best_d_lee == unpruned.best_d_lee

    @pytest.mark.parametrize(
        "ring, n", [("z4", 16), ("z4", 24), ("z8", 16), ("z9", 16), ("z9", 20)]
    )
    @pytest.mark.parametrize("family", ["double-nega", "bordered-circ"])
    def test_census_matches_exact_evaluation(self, ring, n, family, monkeypatch):
        # a census aborts each lift below the running best, and exactly those:
        # it ends with the result of a census that evaluates every lift exactly
        config = cfg(ring=ChainRing.from_name(ring), n=n, family=family, prune=False)
        aborted, exact = [], []

        def aborting(spec, early_abort_at=0):
            val = min_lee_distance(spec, early_abort_at=early_abort_at)
            aborted.append(val < early_abort_at)
            return val

        def exhaustive(spec, early_abort_at=0):
            exact.append(min_lee_distance(spec))
            return exact[-1]

        monkeypatch.setattr(alphacirc.search, "min_lee_distance", aborting)
        census = run_search(config)
        monkeypatch.setattr(alphacirc.search, "min_lee_distance", exhaustive)
        assert census == run_search(config)
        below, best = [], 0
        for val in exact:
            below.append(val < best)
            best = max(best, val)
        assert aborted == below

    @pytest.mark.parametrize(
        "ring, n", [("z4", 8), ("z4", 16), ("z8", 8), ("z8", 16), ("z9", 12), ("z9", 16)]
    )
    @pytest.mark.parametrize("family", ["double-nega", "bordered-circ"])
    def test_pruned_records_raise_the_best(self, ring, n, family):
        # a pruned search records the lifts that raise the best: the unpruned
        # records (every lift at the running best, ties too) cut to the strict
        # rises, and the last of them is one of the unpruned witnesses
        config = dict(ring=ChainRing.from_name(ring), n=n, family=family)
        pruned, unpruned = run_search(cfg(**config)), run_search(cfg(**config, prune=False))
        rises, best = [], 0
        for rec in unpruned.all_records:
            if rec.d_lee > best:
                rises.append(rec)
                best = rec.d_lee
        assert pruned.all_records == rises
        values = [rec.d_lee for rec in pruned.all_records]
        assert values == sorted(set(values)) and values[-1] == unpruned.best_d_lee
        assert pruned.best_d_lee == unpruned.best_d_lee
        assert pruned.records == pruned.all_records[-1:]
        assert pruned.records[0] in unpruned.records
        assert all(map(verify_record, pruned.all_records))

    def test_stops_lifting_a_base_at_its_bound(self):
        # the top Z4 n = 16 double-nega base has d_Ham 4 and 6 lift orbits;
        # its second lift reaches the bound 2 * 4 = 8, so no other lift of it
        # is evaluated and the next base is not lifted either
        top, d_ham = alphacirc.search._sorted_bases(cfg(n=16))[0]
        assert d_ham == 4 and len(list(nested_lift(top, Z4, 3))) == 6
        pruned, unpruned = run_search(cfg(n=16)), run_search(cfg(n=16, prune=False))
        assert (pruned.best_d_lee, pruned.bases_examined, pruned.lifts_examined) == (8, 1, 2)
        assert (unpruned.best_d_lee, unpruned.bases_examined, unpruned.lifts_examined) == (8, 2, 10)

    def test_checkpoint_fingerprint_mismatch_ignored(self, tmp_path):
        # the summary line of another search: other family, ring, length or
        # pruning; each would resume with 10,000 lifts if it were read
        ck = tmp_path / "state.txt"
        counts = "best_d_lee=6 witnesses=0 bases_examined=99 lifts_examined=10000"
        for other in (cfg(family="double-circ"), cfg(ring=ChainRing(2, 3)), cfg(n=16),
                      cfg(prune=False)):
            ck.write_text(f"# {other.fingerprint()} {counts}\n")
            assert run_search(cfg(checkpoint=str(ck))) == run_search(cfg())

    def test_checkpoint_from_per_lift_format_ignored(self, tmp_path):
        # the JSON checkpoints of earlier versions: per-lift counts, older key
        # names, and SearchResult's fields; the search starts over instead of
        # resuming any of them and replaces the file with its results file
        ck, out = tmp_path / "state.txt", tmp_path / "records.txt"
        fresh = run_search(cfg(n=16, out=str(out)))
        for tag in ("", ":orbit-lifts", ":result-fields"):
            old = {
                "fingerprint": "double-nega:z4:16:1" + tag,
                "bases_done": 1,
                "bases_examined": 1,
                "best_d_lee": 8,
                "lifts_examined": 10_000,
                "records": ["double-nega z4 16 base=0 lift=0 border=- d_lee=8 d_ham_base=4"],
                "all_records": [],
            }
            ck.write_text(json.dumps(old))
            assert run_search(cfg(n=16, checkpoint=str(ck))) == fresh
            assert ck.read_bytes() == out.read_bytes()

    def test_checkpoint_not_a_record_chain_starts_over(self, tmp_path):
        # a pruned checkpoint that lists a tie, as earlier versions wrote, one
        # whose last record is below its best, and a census checkpoint whose
        # values fall: none is a chain this search writes, so the search starts
        # over and writes a fresh results file
        ck, out = tmp_path / "state.txt", tmp_path / "records.txt"
        for config, edit in (
            (cfg(family="bordered-circ"), lambda records: records + records[-1:]),
            (cfg(family="bordered-circ"), lambda records: records[:-1]),
            (cfg(n=16, prune=False), lambda records: records[-1:] + records),
        ):
            fresh = run_search(dataclasses.replace(config, out=str(out)))
            *records, summary = out.read_text().splitlines()
            assert SearchRecord.from_line(records[0]).d_lee < fresh.best_d_lee
            records = edit(records)
            ck.write_text("\n".join([*records, summary]) + "\n")
            resumed = dataclasses.replace(config, checkpoint=str(ck), out=str(tmp_path / "new.txt"))
            assert run_search(resumed) == fresh
            assert (tmp_path / "new.txt").read_bytes() == out.read_bytes() == ck.read_bytes()

    def test_checkpoint_with_records_of_another_search_starts_over(self, tmp_path, capsys):
        # the two Z4 n = 8 records under a summary that fits the n = 16 search
        # in every field: resuming it would list them above the n = 16 witness
        ck, out = tmp_path / "state.txt", tmp_path / "records.txt"
        n8 = (GOLDEN / "z4-n8-double-nega.txt").read_text(encoding="utf-8").splitlines()[:2]
        ck.write_text("\n".join(n8) + "\n# family=double-nega ring=z4 n=16 prune=1 best_d_lee=6"
                      " witnesses=1 bases_examined=1 lifts_examined=2\n")
        argv = ["search", "--ring", "z4", "--length", "16", "--family", "double-nega"]
        assert main(argv) == 0
        fresh = capsys.readouterr().out
        assert main(argv + ["--checkpoint", str(ck), "--out", str(out)]) == 0
        assert capsys.readouterr().out == fresh == out.read_text() == ck.read_text()
        assert " n=8 " not in fresh and main(["verify", "--in", str(out)]) == 0

    def test_checkpoint_skips_blank_and_comment_lines(self, tmp_path, monkeypatch):
        # resume reads a checkpoint the way verify does: blank and `#` lines
        # between the records are not records
        def interrupt_after_first_base(*args):
            write_records(*args)
            raise KeyboardInterrupt

        ck, out = tmp_path / "state.txt", tmp_path / "records.txt"
        config = cfg(n=16, checkpoint=str(ck), prune=False)
        monkeypatch.setattr(alphacirc.search, "write_records", interrupt_after_first_base)
        with pytest.raises(KeyboardInterrupt):
            run_search(config)
        monkeypatch.undo()
        first, *rest = ck.read_text().splitlines()
        assert rest[:-1]  # a second record for the blank line to sit before
        ck.write_text("\n".join(["# a comment", "", first, "  ", "#", *rest]) + "\n")
        bases_total = len(alphacirc.search._sorted_bases(config))
        assert alphacirc.search._read_checkpoint(config, bases_total).bases_examined == 1
        fresh = run_search(cfg(n=16, prune=False, out=str(out)))
        assert run_search(config) == fresh
        assert ck.read_bytes() == out.read_bytes()

    def test_checkpoint_past_the_bases_starts_over(self, tmp_path):
        # more bases examined than the search has, and no records: resuming it
        # would return best d_Lee 0 without lifting a base
        ck, out = tmp_path / "state.txt", tmp_path / "records.txt"
        ck.write_text("# family=double-nega ring=z4 n=8 prune=1 best_d_lee=0 witnesses=0"
                      " bases_examined=99 lifts_examined=0\n")
        fresh = run_search(cfg(out=str(out)))
        assert fresh.best_d_lee == 6
        assert run_search(cfg(checkpoint=str(ck))) == fresh
        assert ck.read_bytes() == out.read_bytes()

    def test_checkpoint_with_fewer_lifts_than_records_starts_over(self, tmp_path):
        # each record is one examined lift, so records under lifts_examined=0
        # are not a checkpoint this search wrote
        ck, out = tmp_path / "state.txt", tmp_path / "records.txt"
        fresh = run_search(cfg(family="bordered-circ", out=str(out)))
        assert fresh.lifts_examined >= len(fresh.all_records) > 0
        text = out.read_text()
        ck.write_text(text.replace(f"lifts_examined={fresh.lifts_examined}", "lifts_examined=0"))
        assert run_search(cfg(family="bordered-circ", checkpoint=str(ck))) == fresh
        assert ck.read_text() == text

    def test_checkpoint_with_a_best_and_no_record_starts_over(self, tmp_path, capsys):
        # the best is the last record's, so a claimed best of 12 with no record
        # is not resumed: the Z4 n = 8 search still finds the table's 6
        ck, out = tmp_path / "state.txt", tmp_path / "records.txt"
        summary = ("# family=double-nega ring=z4 n=8 prune=1 best_d_lee=12 witnesses=0"
                   " bases_examined=1 lifts_examined=40")
        ck.write_text(summary + "\n")
        assert main(["verify", "--in", str(ck)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"FAIL line 1: {summary}\n"
        assert captured.out == "checked 0 records, 1 failures\n"
        assert main(["search", "--ring", "z4", "--length", "8", "--family", "double-nega",
                     "--checkpoint", str(ck), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "best_d_lee=6" in stdout.split() and "best_d_lee=12" not in stdout
        assert stdout == out.read_text() == (GOLDEN / "z4-n8-double-nega.txt").read_text()

    def test_checkpoint_with_a_base_that_is_not_its_lift_mod_p_starts_over(self, tmp_path,
                                                                           capsys):
        # one F_3 digit of line 2's base changed: the line does not decode, so
        # the search starts over instead of copying it into --out
        ck, out = tmp_path / "state.txt", tmp_path / "records.txt"
        golden = (GOLDEN / "z9-n12-double-nega.txt").read_text(encoding="utf-8")
        edited = golden.replace("base=0,1,1,1,2,1 lift=0,7", "base=2,1,1,1,2,1 lift=0,7")
        assert edited != golden
        ck.write_text(edited)
        assert main(["search", "--ring", "z9", "--length", "12", "--family", "double-nega",
                     "--checkpoint", str(ck), "--out", str(out)]) == 0
        assert out.read_text() == ck.read_text() == golden
        capsys.readouterr()
        ck.write_text(edited)
        assert main(["verify", "--in", str(ck)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("FAIL") == 1 and "FAIL line 2:" in captured.err
        assert captured.out == "checked 2 records, 1 failures\n"

    def test_resumed_finished_checkpoint_is_rewritten(self, tmp_path):
        # a finished checkpoint with a blank and a `#` line added: resuming it
        # examines no base and still leaves the checkpoint equal to --out
        ck, out = tmp_path / "state.txt", tmp_path / "records.txt"
        config = cfg(n=16, family="bordered-circ", prune=False, checkpoint=str(ck))
        fresh = run_search(config)
        assert fresh.bases_examined == len(alphacirc.search._sorted_bases(config))
        *records, summary = ck.read_text().splitlines()
        ck.write_text("\n".join(["", "# a comment", *records, summary]) + "\n")
        assert run_search(dataclasses.replace(config, out=str(out))) == fresh
        assert ck.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize(
        "text",
        [
            "null",
            "[]",
            "",
            "# {fp} unknown=1\n",
            "# {fp} best_d_lee=0 witnesses=0 lifts_examined=10000\n",
            "# {fp} best_d_lee=0 witnesses=0 bases_examined=x lifts_examined=10000\n",
            "# {fp} best_d_lee=0 witnesses=0 bases_examined=0 lifts_examined=10000 x\n",
            "double-nega z4 8 base=0,1\n"
            "# {fp} best_d_lee=0 witnesses=0 bases_examined=0 lifts_examined=10000\n",
        ],
        ids=["null", "list", "empty", "unknown-key", "missing-count", "bad-count", "bad-field",
             "bad-record"],
    )
    def test_malformed_checkpoint_starts_over(self, text, tmp_path):
        # a checkpoint of this search whose summary does not hold the counters,
        # or whose records do not parse, is ignored like one of another search
        config = cfg(checkpoint=str(tmp_path / "state.txt"))
        (tmp_path / "state.txt").write_text(text.replace("{fp}", config.fingerprint()))
        assert run_search(config) == run_search(cfg())

    @pytest.mark.parametrize(
        "ring, n, family",
        [
            ("z4", 8, "double-nega"),
            ("z4", 8, "bordered-circ"),
            ("z4", 16, "double-nega"),
            ("z4", 16, "bordered-circ"),
            ("z8", 8, "double-nega"),
            ("z8", 8, "bordered-circ"),
            ("z9", 12, "double-nega"),
        ],
    )
    def test_no_best_value_lost(self, ring, n, family):
        # one lift per orbit finds the best d_Lee over every self-dual lift
        config = cfg(ring=ChainRing.from_name(ring), n=n, family=family, prune=False)
        best = max(
            min_lee_distance(lift)
            for base in enumerate_base_codes(config)
            for lift in helpers.all_nested_lifts(base, config.ring, config.alpha)
        )
        assert run_search(config).best_d_lee == best


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "ring, n, family",
    [
        ("z4", 8, "double-nega"),
        ("z4", 8, "bordered-circ"),
        ("z8", 8, "double-nega"),
        ("z8", 8, "bordered-circ"),
        ("z9", 12, "double-nega"),
        ("z2", 8, "bordered-circ"),
        ("z9", 6, "double-circ"),
        # 256 lifts from an 8-dimensional F_2 kernel; a bordered lift over F_3
        ("z4", 24, "bordered-circ"),
        ("z9", 12, "bordered-circ"),
        # k = 16 lift systems: 128 and 512 lifts of an F_2 base
        ("z4", 32, "double-nega"),
        ("z4", 32, "bordered-circ"),
        # the n = 24 rows of the Z8 and Z9 table
        ("z8", 24, "double-nega"),
        ("z8", 24, "bordered-circ"),
        ("z9", 24, "double-nega"),
        ("z9", 24, "bordered-circ"),
    ],
)
def test_golden_results_file(ring, n, family, tmp_path):
    # every record and the summary, so the section rule, the lift order and
    # the first-of-orbit choice are pinned, not only the best d_Lee
    out = tmp_path / "records.txt"
    run_search(cfg(ring=ChainRing.from_name(ring), n=n, family=family, out=str(out)))
    expected = (GOLDEN / f"{ring}-n{n}-{family}.txt").read_text(encoding="utf-8")
    assert out.read_text(encoding="utf-8") == expected


class TestRecords:
    LINE = (
        "double-nega z4 8 base=0,1,1,1 lift=2,1,1,3 border=- d_lee=6 d_ham_base=4"
    )

    def test_roundtrip(self):
        rec = SearchRecord.from_line(self.LINE)
        assert rec.base == CodeSpec(ChainRing(2, 1), 1, (0, 1, 1, 1))
        assert rec.lift == CodeSpec(Z4, 3, (2, 1, 1, 3))
        assert (rec.d_lee, rec.d_ham_base) == (6, 4)
        assert rec.to_line() == self.LINE
        # a bordered base is the lift's core and border mod p
        line = "bordered-circ z9 8 base=0,1,2 lift=3,4,8 border=4,5,6 d_lee=4 d_ham_base=3"
        rec = SearchRecord.from_line(line)
        assert rec.base == CodeSpec(ChainRing(3, 1), 1, (0, 1, 2), (1, 2, 0))
        assert rec.lift == CodeSpec(ChainRing(3, 2), 1, (3, 4, 8), (4, 5, 6))
        assert rec.to_line() == line

    def test_a_record_stores_no_derived_fact(self):
        # the best is the last record's d_Lee and a record's base its lift mod p
        assert [f.name for f in dataclasses.fields(SearchResult)] == [
            "all_records", "bases_examined", "lifts_examined"]
        assert [f.name for f in dataclasses.fields(SearchRecord) if f.init] == [
            "family", "lift", "d_lee", "d_ham_base"]
        rec = SearchRecord("double-nega", CodeSpec(Z4, 3, (2, 1, 1, 3)), 6, 4)
        assert rec.base == CodeSpec(ChainRing(2, 1), 1, (0, 1, 1, 1))
        assert SearchResult().best_d_lee == 0
        assert SearchResult([dataclasses.replace(rec, d_lee=4), rec]).best_d_lee == 6

    def test_malformed(self):
        with pytest.raises(ValueError):
            SearchRecord.from_line("double-nega z4 8 base=0,1")
        with pytest.raises(ValueError):
            SearchRecord.from_line("double-nega z4 eight base=0 lift=0 border=- d_lee=1 d_ham_base=1")

    def test_verify_detects_tampering(self):
        result = run_search(cfg())
        rec = result.records[0]
        assert verify_record(rec)
        assert not verify_record(dataclasses.replace(rec, d_lee=rec.d_lee + 2))
        bad_lift = dataclasses.replace(rec.lift, a=tuple((c + 1) % 4 for c in rec.lift.a))
        assert not verify_record(dataclasses.replace(rec, lift=bad_lift))
        # a claimed length or family that does not fit the vectors is not decoded
        line = rec.to_line()
        with pytest.raises(ValueError, match="malformed record line"):
            SearchRecord.from_line(line.replace(" z4 8 ", " z4 16 "))
        binary = "double-circ z2 8 base=0,1,1,1 lift=0,1,1,1 border=- d_lee=4 d_ham_base=4"
        assert verify_record(SearchRecord.from_line(binary))
        with pytest.raises(ValueError, match="malformed record line"):
            SearchRecord.from_line(binary.replace("double-circ", "triple-circ"))


class TestCli:
    def test_search_and_verify(self, tmp_path, capsys):
        out = tmp_path / "rec.txt"
        code = main([
            "search", "--ring", "z4", "--length", "8",
            "--family", "double-nega", "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "best_d_lee=6" in captured
        assert main(["verify", "--in", str(out)]) == 0
        ok = capsys.readouterr().out
        assert "0 failures" in ok

    @pytest.mark.parametrize(
        "argv",
        [
            ["--ring", "z4", "--length", "8", "--family", "double-nega"],
            ["--ring", "z4", "--length", "8", "--family", "bordered-circ"],
            ["--ring", "z9", "--length", "12", "--family", "bordered-circ", "--no-prune"],
        ],
        ids=["z4-n8-double-nega", "z4-n8-bordered-circ", "z9-n12-bordered-circ-census"],
    )
    def test_search_prints_its_results_file(self, argv, tmp_path, capsys):
        # stdout, --out and the final checkpoint are one text, so verify checks
        # everything a search printed
        out, ck = tmp_path / "records.txt", tmp_path / "state.txt"
        assert main(["search", *argv, "--out", str(out), "--checkpoint", str(ck)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.encode() == out.read_bytes() == ck.read_bytes()
        stdout_file = tmp_path / "stdout.txt"
        stdout_file.write_text(stdout)
        assert main(["verify", "--in", str(stdout_file)]) == 0
        records = stdout.count("\n") - 1
        assert records > 0 and capsys.readouterr().out == f"checked {records} records, 0 failures\n"

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.txt")), ids=lambda path: path.stem)
    def test_verify_passes_every_golden_file(self, path, capsys):
        assert main(["verify", "--in", str(path)]) == 0
        records = len(path.read_text(encoding="utf-8").splitlines()) - 1
        assert capsys.readouterr().out == f"checked {records} records, 0 failures\n"

    @pytest.mark.parametrize(
        "old, new",
        [
            ("n=16 ", "n=24 "),
            ("best_d_lee=8 ", "best_d_lee=10 "),
            ("witnesses=1 ", "witnesses=5 "),
            ("n=16 prune=1 best_d_lee=8 witnesses=1 ", "n=24 prune=1 best_d_lee=10 witnesses=5 "),
        ],
        ids=["n", "best", "witnesses", "all-three"],
    )
    def test_verify_fails_an_edited_summary(self, old, new, tmp_path, capsys, monkeypatch):
        # the records hold, so the summary line is the one failure; checking it
        # computes no distance (each record is one min_lee_distance call).  A
        # blank line after the summary does not hide it.
        records = tmp_path / "records.txt"
        assert main(["search", "--ring", "z4", "--length", "16", "--family", "double-nega",
                     "--out", str(records)]) == 0
        *lines, summary = records.read_text().splitlines()
        assert len(lines) == 2 and old in summary
        capsys.readouterr()
        lee_calls = []

        def counted(spec, early_abort_at=0):
            lee_calls.append(spec)
            return min_lee_distance(spec, early_abort_at)

        monkeypatch.setattr(alphacirc.search, "min_lee_distance", counted)
        for end in ("\n", "\n\n"):
            records.write_text("\n".join([*lines, summary.replace(old, new)]) + end)
            lee_calls.clear()
            assert main(["verify", "--in", str(records)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"FAIL line 3: {summary.replace(old, new)}\n"
            assert captured.out == "checked 2 records, 1 failures\n"
            assert len(lee_calls) == 2

    def test_verify_fails_a_best_without_records(self, tmp_path, capsys):
        # Z9 n = 6 double-circ has no self-dual base, so no record: its best
        # is 0, and a summary that claims 10 is not the one its search writes
        records = tmp_path / "records.txt"
        golden = (GOLDEN / "z9-n6-double-circ.txt").read_text(encoding="utf-8")
        summary = golden.strip().replace(" best_d_lee=0 ", " best_d_lee=10 ")
        assert summary != golden.strip()
        records.write_text(summary + "\n")
        assert main(["verify", "--in", str(records)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"FAIL line 1: {summary}\n"
        assert captured.out == "checked 0 records, 1 failures\n"

    def test_verify_fails_swapped_records(self, tmp_path, capsys):
        # each record holds on its own; a pruned file's records rise to the best
        records = tmp_path / "records.txt"
        first, second, summary = (GOLDEN / "z4-n8-double-nega.txt").read_text().splitlines()
        records.write_text("\n".join([second, first, summary]) + "\n")
        assert main(["verify", "--in", str(records)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"FAIL line 3: {summary}\n"
        assert captured.out == "checked 2 records, 1 failures\n"

    def test_verify_reports_a_record_that_does_not_decode_once(self, tmp_path, capsys):
        # the summary is not checked over records that did not all decode
        records = tmp_path / "records.txt"
        first, second, summary = (GOLDEN / "z4-n8-double-nega.txt").read_text().splitlines()
        records.write_text("\n".join([first, second.replace(" d_ham_base=4", ""), summary]) + "\n")
        assert main(["verify", "--in", str(records)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("FAIL") == 1 and "FAIL line 2:" in captured.err
        assert captured.out == "checked 2 records, 1 failures\n"

    def test_verify_fails_a_summary_with_a_damaged_first_field(self, tmp_path, capsys):
        # a last `#` line holding `best_d_lee=` is a summary, whatever its first field
        records = tmp_path / "records.txt"
        first, second, summary = (GOLDEN / "z4-n8-double-nega.txt").read_text().splitlines()
        damaged = summary.replace("# family=", "# famly=")
        records.write_text("\n".join([first, second, damaged]) + "\n")
        assert main(["verify", "--in", str(records)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"FAIL line 3: {damaged}\n"
        assert captured.out == "checked 2 records, 1 failures\n"

    def test_verify_reads_a_last_comment_as_a_comment(self, tmp_path, capsys):
        # a last `#` line without `best_d_lee=` is a comment, not a summary
        records = tmp_path / "records.txt"
        golden = (GOLDEN / "z4-n8-double-nega.txt").read_text()
        records.write_text(golden.replace("witnesses=1", "witnesses=5") + "# checked by hand\n")
        assert main(["verify", "--in", str(records)]) == 0
        assert capsys.readouterr().out == "checked 2 records, 0 failures\n"

    def test_verify_flags_bad_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(
            "double-nega z4 8 base=0,1,1,1 lift=2,1,1,3 border=- d_lee=99 d_ham_base=4\n"
        )
        assert main(["verify", "--in", str(bad)]) == 2

    def test_verify_fails_malformed_line_only(self, tmp_path, capsys):
        records = tmp_path / "records.txt"
        records.write_text(
            "garbage line\n"
            "double-nega z4 8 base=0,1,1,1 lift=2,1,1,3 border=- d_lee=6 d_ham_base=4\n"
            "double-nega z4 8 base=0,1,1,1 lift=2,1,1,3 border=- d_lee=6\n"
        )
        assert main(["verify", "--in", str(records)]) == 2
        captured = capsys.readouterr()
        assert "FAIL line 1" in captured.err and "FAIL line 3" in captured.err
        assert "FAIL line 2" not in captured.err
        assert captured.out == "checked 3 records, 2 failures\n"

    def test_search_without_bases_writes_checkpoint(self, tmp_path, capsys):
        # Z9 n = 6 double-circ has no self-dual base
        out, ck = tmp_path / "records.txt", tmp_path / "state.txt"
        assert main([
            "search", "--ring", "z9", "--length", "6", "--family", "double-circ",
            "--out", str(out), "--checkpoint", str(ck),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "bases_examined=0 lifts_examined=0" in stdout
        assert stdout.encode() == ck.read_bytes() == out.read_bytes()

    def test_verify_numbers_file_lines(self, tmp_path, capsys):
        # comment and blank lines count: the bad record is line 3 of the file
        records = tmp_path / "records.txt"
        records.write_text(
            "# a comment\n"
            "\n"
            "double-nega z4 8 base=0,1,1,1 lift=2,1,1,3 border=- d_lee=99 d_ham_base=4\n"
        )
        assert main(["verify", "--in", str(records)]) == 2
        captured = capsys.readouterr()
        assert "FAIL line 3:" in captured.err and "FAIL line 1:" not in captured.err
        assert captured.out == "checked 1 records, 1 failures\n"

    @pytest.mark.parametrize(
        "bad",
        [
            "double-nega z4 16 base=0,1,1,1 lift=2,1,1,3 border=- d_lee=6 d_ham_base=4",
            "triple-circ z4 8 base=0,1,1,1 lift=2,1,1,3 border=- d_lee=6 d_ham_base=4",
            "double-nega z27 8 base=0,1,1,1 lift=2,1,1,3 border=- d_lee=6 d_ham_base=4",
            "double-nega z4 8 base=0,1,2,1 lift=2,1,1,3 border=- d_lee=6 d_ham_base=4",
            "double-nega z4 8 base=1,1,1,1 lift=2,1,1,3 border=- d_lee=6 d_ham_base=4",
        ],
        ids=["length-not-the-lifts", "unknown-family", "unknown-ring", "base-digit-not-below-p",
             "base-not-the-lift-mod-p"],
    )
    def test_verify_fails_a_line_the_decoder_rejects(self, tmp_path, capsys, bad):
        records = tmp_path / "records.txt"
        records.write_text(
            bad + "\n"
            "double-nega z4 8 base=0,1,1,1 lift=2,1,1,3 border=- d_lee=6 d_ham_base=4\n"
        )
        with pytest.raises(ValueError, match="malformed record line"):
            SearchRecord.from_line(bad)
        assert main(["verify", "--in", str(records)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("FAIL") == 1 and "FAIL line 1:" in captured.err
        assert captured.out == "checked 2 records, 1 failures\n"

    def test_verify_short_border_fails_its_line_only(self, tmp_path, capsys):
        records = tmp_path / "records.txt"
        records.write_text(
            "bordered-circ z4 8 base=0,1,1 lift=2,3,1 border=2,1 d_lee=6 d_ham_base=4\n"
            "bordered-circ z4 8 base=0,1,1 lift=2,3,1 border=2,1,1 d_lee=6 d_ham_base=4\n"
        )
        assert main(["verify", "--in", str(records)]) == 2
        captured = capsys.readouterr()
        assert "FAIL line 1" in captured.err and "FAIL line 2" not in captured.err
        assert "checked 2 records, 1 failures" in captured.out

    def test_verify_fails_a_base_the_lift_does_not_reduce_to(self, tmp_path, capsys,
                                                             monkeypatch):
        # one F_3 digit of line 2's base changed: its lift still reduces to the
        # old base, so line 2 does not decode and fails before its d_Lee is
        # computed (the changed base also has another d_Ham, which the
        # distance checks would catch too)
        records = tmp_path / "records.txt"
        golden = (GOLDEN / "z9-n12-double-nega.txt").read_text(encoding="utf-8")
        records.write_text(golden.replace("base=0,1,1,1,2,1 lift=0,7", "base=2,1,1,1,2,1 lift=0,7"))
        lee_calls = []

        def counted(spec, early_abort_at=0):
            lee_calls.append(spec)
            return min_lee_distance(spec, early_abort_at)

        monkeypatch.setattr(alphacirc.search, "min_lee_distance", counted)
        assert main(["verify", "--in", str(records)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("FAIL") == 1
        assert "FAIL line 2: double-nega z9 12 base=2,1,1,1,2,1 lift=0,7," in captured.err
        assert captured.out == "checked 2 records, 1 failures\n"
        assert len(lee_calls) == 1  # line 1's

    def test_verify_fails_a_wrong_base_hamming_distance(self, tmp_path, capsys):
        # line 1 claims d_Ham 5 for a base of d_Ham 6; its lift, projection
        # and d_Lee all hold
        records = tmp_path / "records.txt"
        golden = (GOLDEN / "z9-n12-double-nega.txt").read_text(encoding="utf-8")
        records.write_text(golden.replace("d_lee=9 d_ham_base=6", "d_lee=9 d_ham_base=5"))
        assert main(["verify", "--in", str(records)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("FAIL") == 1 and "FAIL line 1:" in captured.err
        assert captured.out == "checked 2 records, 1 failures\n"

    def test_interrupted_search_exits_2_and_resumes(self, tmp_path, capsys, monkeypatch):
        # Ctrl-C in the second base's lifts: exit code 2 with the checkpoint
        # of the first base, from which a rerun ends like a fresh search
        ck, out = tmp_path / "state.txt", tmp_path / "records.txt"
        argv = ["search", "--ring", "z4", "--length", "16", "--family", "double-nega",
                "--no-prune"]
        calls = []

        def interrupt_second_base(*args):
            calls.append(args)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return nested_lift(*args)

        monkeypatch.setattr(alphacirc.search, "nested_lift", interrupt_second_base)
        assert main(argv + ["--checkpoint", str(ck)]) == 2
        assert "interrupted" in capsys.readouterr().err
        monkeypatch.undo()
        config = cfg(n=16, checkpoint=str(ck), prune=False)
        bases_total = len(alphacirc.search._sorted_bases(config))
        assert alphacirc.search._read_checkpoint(config, bases_total).bases_examined == 1
        assert main(argv + ["--checkpoint", str(ck)]) == 0
        resumed = capsys.readouterr().out
        assert main(argv + ["--out", str(out)]) == 0
        assert resumed == capsys.readouterr().out
        assert resumed.encode() == ck.read_bytes() == out.read_bytes()

    def test_distance(self, capsys):
        code = main([
            "distance", "--ring", "z4", "--family", "double-nega",
            "--vector", "1,3,3,2",
        ])
        assert code == 0
        assert "d_lee=6" in capsys.readouterr().out

    def test_distance_bordered_needs_border(self, capsys):
        code = main([
            "distance", "--ring", "z4", "--family", "bordered-circ",
            "--vector", "1,1,0",
        ])
        assert code == 1

    def test_distance_double_rejects_border(self, capsys):
        code = main([
            "distance", "--ring", "z4", "--family", "double-nega",
            "--vector", "1,3,3,2", "--border", "0,1,1",
        ])
        assert code == 1
        assert "border" in capsys.readouterr().err

    def test_distance_short_border(self, capsys):
        code = main([
            "distance", "--ring", "z4", "--family", "bordered-circ",
            "--vector", "1,1,0", "--border", "0,1",
        ])
        assert code == 1
        assert "border" in capsys.readouterr().err

    def test_distance_rejects_a_coordinate_outside_the_ring(self, capsys):
        code = main([
            "distance", "--ring", "z4", "--family", "double-nega",
            "--vector", "1,5,0,0",
        ])
        assert code == 1
        assert "5 is not a residue in [0, 4)" in capsys.readouterr().err

    def test_canon(self, capsys):
        code = main([
            "canon", "--ring", "z2", "--alpha", "1", "--vector", "1,1,1,0",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0,1,1,1"

    @pytest.mark.parametrize("ring, alpha", [("z4", "2"), ("z8", "3"), ("z4", "7"), ("z4", "-1")])
    def test_canon_rejects_alpha(self, ring, alpha, capsys):
        # 2 is no unit of Z4; 3 is a unit of Z8 with 3^2 = 1, but no Lee
        # isometry; 7 and -1 reduce to 3 mod 4, but are no residues of Z4
        code = main(["canon", "--ring", ring, "--alpha", alpha, "--vector", "1,2,0"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "alpha" in captured.err
        assert captured.out == ""

    def test_bordered_search_with_one_core_entry(self, capsys):
        for ring in ("z2", "z9"):
            code = main(["search", "--ring", ring, "--length", "4", "--family", "bordered-circ"])
            assert code == 0, capsys.readouterr().err

    def test_bordered_search_rejects_empty_core(self, capsys):
        code = main(["search", "--ring", "z2", "--length", "2", "--family", "bordered-circ"])
        assert code == 1
        assert "n = 2" in capsys.readouterr().err

    def test_threads_flag_does_not_change_results(self, tmp_path, capsys):
        argv = ["search", "--ring", "z4", "--length", "24", "--family", "double-nega"]
        one, two = tmp_path / "one.txt", tmp_path / "two.txt"
        assert main(argv + ["--out", str(one)]) == 0
        assert main(argv + ["--threads", "2", "--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_config_error_exit_code(self, capsys):
        code = main([
            "search", "--ring", "z4", "--length", "12",
            "--family", "double-nega",
        ])
        assert code == 1

    def test_missing_file_exit_code(self, capsys):
        assert main(["verify", "--in", "/nonexistent/records.txt"]) == 2

    def test_parser_built_once(self):
        assert alphacirc.cli._build_parser() is alphacirc.cli._build_parser()

    def test_parser_reused_after_parse_error(self, tmp_path, capsys):
        # a failed parse leaves nothing behind in the one cached parser
        with pytest.raises(SystemExit) as exc:
            main(["search", "--ring", "z4", "--length", "8", "--family", "triple-circ"])
        assert exc.value.code == 2
        out = tmp_path / "rec.txt"
        argv = ["search", "--ring", "z4", "--length", "8", "--family", "double-nega"]
        assert main(argv + ["--out", str(out)]) == 0
        assert "best_d_lee=6" in capsys.readouterr().out
        assert main(["verify", "--in", str(out)]) == 0
