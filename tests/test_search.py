import itertools
import json
import pathlib

import pytest

import alphacirc.search
import helpers
from alphacirc import (
    ChainRing,
    CircVec,
    CodeSpec,
    ConfigurationError,
    SearchConfig,
    SearchRecord,
    canonical_form,
    enumerate_base_codes,
    is_doubly_even,
    is_self_dual,
    min_lee_distance,
    run_search,
    verify_record,
)
from alphacirc.cli import main
from alphacirc.search import read_records, write_records

Z4 = ChainRing(2, 2)


def cfg(**kw):
    base = dict(ring=Z4, n=8, family="double-nega")
    base.update(kw)
    return SearchConfig(**base)


class TestSearchConfig:
    def test_defaults(self):
        c = cfg()
        assert c.k == 4 and c.kind == "double" and c.alpha == 3
        assert c.base_ring() == ChainRing(2, 1)

    def test_circ_alpha(self):
        assert cfg(family="double-circ").alpha == 1
        assert cfg(family="bordered-circ").kind == "bordered"

    def test_rejects_odd_or_tiny_length(self):
        with pytest.raises(ConfigurationError):
            cfg(n=7)
        with pytest.raises(ConfigurationError):
            cfg(n=0)

    def test_rejects_z4_length_not_multiple_of_8(self):
        with pytest.raises(ConfigurationError):
            cfg(n=12)

    def test_long_lengths_need_extended(self):
        with pytest.raises(ConfigurationError):
            cfg(n=32)
        cfg(n=32, extended=True)
        with pytest.raises(ConfigurationError):
            cfg(n=72, extended=True)

    def test_rejects_bad_family(self):
        with pytest.raises(ConfigurationError):
            cfg(family="triple-circ")


class TestBaseEnumeration:
    def test_orbit_appears_once(self):
        reps = enumerate_base_codes(cfg())
        Z2 = ChainRing(2, 1)
        target = canonical_form(CircVec(Z2, 1, (1, 1, 1, 0))).coeffs
        assert sum(1 for s in reps if s.a == target) == 1
        for s in reps:
            assert s.a == canonical_form(CircVec(Z2, 1, s.a)).coeffs

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
        if config.kind == "double":
            candidates = itertools.product(itertools.product(range(ring.p), repeat=k), [None])
        else:
            candidates = itertools.product(
                itertools.product(range(ring.p), repeat=k - 1),
                itertools.product(range(ring.p), repeat=3),
            )
        for a, border in candidates:
            spec = CodeSpec(config.kind, ring, k, alpha, a, border)
            if not is_self_dual(spec):
                continue
            if ring_name == "z4" and not is_doubly_even(spec):
                continue
            v = CircVec(ring, alpha, a)
            if border is None:
                expected.add((min(helpers.orbit(v)), None))
            else:
                expected.add(min(helpers.bordered_orbit(v, border), key=lambda st: st[0] + st[1]))
        assert reps == expected

    def test_bordered_reps_dedup(self):
        reps = enumerate_base_codes(cfg(family="bordered-circ"))
        pairs = {(s.a, s.border) for s in reps}
        assert len(pairs) == len(reps)


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
        key = lambda r: (r.base, r.lift, r.border or ())
        assert set(map(key, r1.records)) == set(map(key, r2.records))

    def test_results_file(self, tmp_path):
        out = tmp_path / "records.txt"
        result = run_search(cfg(out=str(out)))
        lines = out.read_text().strip().splitlines()
        assert lines[-1].startswith("#") and "best_d_lee=6" in lines[-1]
        records = read_records(str(out))
        assert len(records) == len(result.all_records)

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
            write_records(config, result)
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["records.txt"]

    def test_checkpoint_resume(self, tmp_path, monkeypatch):
        ck = tmp_path / "state.json"
        config = cfg(n=16, checkpoint=str(ck), prune=False)
        write_checkpoint = alphacirc.search._write_checkpoint

        def interrupt_after_first_base(*args):
            write_checkpoint(*args)
            raise KeyboardInterrupt

        monkeypatch.setattr(alphacirc.search, "_write_checkpoint", interrupt_after_first_base)
        with pytest.raises(KeyboardInterrupt):
            run_search(config)
        monkeypatch.undo()
        state = json.loads(ck.read_text())
        assert state["bases_done"] == 1
        resumed = run_search(config)
        assert resumed.best_d_lee == 8
        fresh = run_search(cfg(n=16, prune=False))
        key = lambda r: (r.base, r.lift, r.border or ())
        assert sorted(map(key, resumed.records)) == sorted(map(key, fresh.records))
        assert resumed.lifts_examined == fresh.lifts_examined
        assert json.loads(ck.read_text())["lifts_examined"] == fresh.lifts_examined
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_checkpoint_fingerprint_mismatch_ignored(self, tmp_path):
        ck = tmp_path / "state.json"
        ck.write_text(json.dumps({"fingerprint": "other", "bases_done": 99}))
        result = run_search(cfg(checkpoint=str(ck)))
        assert result.best_d_lee == 6

    def test_checkpoint_from_per_lift_format_ignored(self, tmp_path):
        # a checkpoint written when every lift was evaluated holds per-lift
        # counts and witnesses; the search starts over instead of resuming it
        ck = tmp_path / "state.json"
        fresh = run_search(cfg(n=16))
        old = {
            "fingerprint": "double-nega:z4:16:1",
            "bases_done": 1,
            "best_d_lee": 8,
            "lifts_examined": 10_000,
            "records": ["double-nega z4 16 base=0 lift=0 border=- d_lee=8 d_ham_base=4"],
        }
        ck.write_text(json.dumps(old))
        resumed = run_search(cfg(n=16, checkpoint=str(ck)))
        key = lambda r: (r.base, r.lift, r.border or ())
        assert resumed.lifts_examined == fresh.lifts_examined
        assert list(map(key, resumed.all_records)) == list(map(key, fresh.all_records))
        assert json.loads(ck.read_text())["fingerprint"] == cfg(n=16).fingerprint()

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
        assert rec.base == (0, 1, 1, 1) and rec.border is None
        assert rec.to_line() == self.LINE

    def test_malformed(self):
        with pytest.raises(ValueError):
            SearchRecord.from_line("double-nega z4 8 base=0,1")
        with pytest.raises(ValueError):
            SearchRecord.from_line("double-nega z4 eight base=0 lift=0 border=- d_lee=1 d_ham_base=1")

    def test_verify_detects_tampering(self):
        result = run_search(cfg())
        rec = result.records[0]
        assert verify_record(rec)
        import dataclasses

        assert not verify_record(dataclasses.replace(rec, d_lee=rec.d_lee + 2))
        bad_lift = tuple((c + 1) % 4 for c in rec.lift)
        assert not verify_record(dataclasses.replace(rec, lift=bad_lift))
        assert not verify_record(dataclasses.replace(rec, n=2 * rec.n))
        binary = SearchRecord.from_line(
            "double-circ z2 8 base=0,1,1,1 lift=0,1,1,1 border=- d_lee=4 d_ham_base=4"
        )
        assert verify_record(binary)
        assert not verify_record(dataclasses.replace(binary, family="triple-circ"))


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

    def test_verify_flags_bad_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(
            "double-nega z4 8 base=0,1,1,1 lift=2,1,1,3 border=- d_lee=99 d_ham_base=4\n"
        )
        assert main(["verify", "--in", str(bad)]) == 2

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

    def test_distance_short_border(self, capsys):
        code = main([
            "distance", "--ring", "z4", "--family", "bordered-circ",
            "--vector", "1,1,0", "--border", "0,1",
        ])
        assert code == 1
        assert "border" in capsys.readouterr().err

    def test_canon(self, capsys):
        code = main([
            "canon", "--ring", "z2", "--alpha", "1", "--vector", "1,1,1,0",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0,1,1,1"

    @pytest.mark.parametrize("ring, alpha", [("z4", "2"), ("z8", "3")])
    def test_canon_rejects_alpha(self, ring, alpha, capsys):
        # 2 is no unit of Z4; 3 is a unit of Z8 with 3^2 = 1, but no Lee isometry
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
