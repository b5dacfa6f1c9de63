import functools
import itertools
import random

import numpy as np
import pytest

import helpers
from alphacirc import (
    ChainRing,
    CodeSpec,
    SearchConfig,
    canonical_form,
    enumerate_base_codes,
    generator_matrix,
    is_doubly_even,
    is_self_dual,
    min_hamming_distance,
    min_lee_distance,
    run_search,
)
from alphacirc import distance
from alphacirc.circulant import self_dual_mask
from alphacirc.distance import (
    _automorphisms,
    _has_mirror,
    _message_blocks,
    _representatives,
    lee_table,
)
from alphacirc.search import FAMILIES
from helpers import hamming_weight, lee_weight

Z2 = ChainRing(2, 1)
F3 = ChainRing(3, 1)
F5 = ChainRing(5, 1)
Z4 = ChainRing(2, 2)
Z8 = ChainRing(2, 3)
Z9 = ChainRing(3, 2)


def rand_spec(rng, kmax=4):
    ring, alpha = rng.choice([(Z2, 1), (Z4, 3), (Z4, 1), (Z9, 8)])
    if rng.random() < 0.5:
        k = rng.randrange(1, kmax + 1)
        a = tuple(rng.randrange(ring.size) for _ in range(k))
        return CodeSpec(ring, alpha, a)
    k = rng.randrange(2, kmax + 1)
    a = tuple(rng.randrange(ring.size) for _ in range(k - 1))
    border = tuple(rng.randrange(ring.size) for _ in range(3))
    return CodeSpec(ring, alpha, a, border)


class TestWeights:
    def test_lee_table_z4(self):
        assert lee_table(Z4).tolist() == [0, 1, 2, 1]
        # one cached table per ring, which no caller can change
        assert lee_table(Z4) is lee_table(ChainRing(2, 2)) and not lee_table(Z4).flags.writeable

    def test_lee_table_z9(self):
        assert lee_table(Z9).tolist() == [0, 1, 2, 3, 4, 4, 3, 2, 1]

    def test_lee_weight_word(self):
        assert lee_weight(Z4, (1, 2, 3, 0)) == 4
        assert lee_weight(Z8, (5, 7)) == 4

    def test_hamming_weight_word(self):
        assert hamming_weight(Z4, (1, 2, 3, 0)) == 3
        assert hamming_weight(Z4, (0, 4)) == 0  # 4 reduces to 0


class TestGrayMap:
    def test_images(self):
        assert helpers.gray_image((0, 1, 2, 3)) == (0, 0, 0, 1, 1, 1, 1, 0)

    def test_isometry(self):
        rng = random.Random(0)
        for _ in range(1000):
            word = [rng.randrange(4) for _ in range(rng.randrange(1, 12))]
            assert lee_weight(Z4, word) == hamming_weight(Z2, helpers.gray_image(word))

    def test_additivity_of_images(self):
        # the Gray image of u + v differs from image(u) + image(v) in general,
        # but weights still match coordinatewise on single words
        for c in range(4):
            assert lee_weight(Z4, (c,)) == sum(helpers.gray_image((c,)))


class TestMinDistance:
    def test_extended_hamming_base(self):
        spec = CodeSpec(Z2, 1, (1, 1, 1, 0))
        assert min_hamming_distance(spec) == 4

    def test_octacode_style_lift(self):
        spec = CodeSpec(Z4, 3, (1, 3, 3, 2))
        assert min_lee_distance(spec) == 6
        assert min_lee_distance(CodeSpec(Z4, 3, (1, 3, 3, 0))) == 4

    def test_k1_double(self):
        spec = CodeSpec(Z4, 3, (1,))
        assert min_lee_distance(spec) == 2
        assert min_hamming_distance(spec) == 2

    def test_zero_rank_rejected(self):
        with pytest.raises(Exception):
            min_hamming_distance(CodeSpec(Z4, 3, ()))

    def test_matches_naive_oracle(self):
        rng = random.Random(1)
        for _ in range(120):
            spec = rand_spec(rng)
            assert min_lee_distance(spec) == helpers.naive_min_weight(spec, "lee"), spec
            assert min_hamming_distance(spec) == helpers.naive_min_weight(spec, "hamming"), spec

    def test_bitpacked_and_generic_agree(self):
        # the bit-packed Z4 oracle, the generic uint8 oracle and the certifier
        rng = random.Random(2)
        for _ in range(100):
            k = rng.randrange(1, 5)
            spec = CodeSpec(Z4, 3, tuple(rng.randrange(4) for _ in range(k)))
            G = generator_matrix(spec)
            generic = helpers.mitm_min_weight(G, 4, lee_table(Z4))
            assert helpers.mitm_min_lee_z4(G) == generic
            assert min_lee_distance(spec) == generic

    def test_early_abort_returns_witness(self):
        rng = random.Random(3)
        for _ in range(100):
            spec = rand_spec(rng)
            exact = min_lee_distance(spec)
            aborted = min_lee_distance(spec, early_abort_at=exact + 1)
            assert aborted <= exact  # a witness below the threshold
            assert min_lee_distance(spec, early_abort_at=exact) == exact
            assert min_lee_distance(spec, early_abort_at=0) == exact

    def test_bound_lee_le_twice_hamming(self):
        rng = random.Random(4)
        for _ in range(100):
            spec = rand_spec(rng)
            # Lee weight of any residue is at most (size-1), but for the
            # codeword realizing min Hamming weight each nonzero entry
            # contributes at most floor(size/2)
            assert min_lee_distance(spec) <= (spec.ring.size // 2) * min_hamming_distance(spec)


def assert_certifier_matches(oracle, spec):
    """The Lee certifier equals the oracle exactly and with the abort
    threshold at d and d + 1.  At d nothing lies below the threshold, so the
    oracle's answer there is its exact value and is not recomputed."""
    d = oracle()
    assert min_lee_distance(spec) == d, spec
    assert min_lee_distance(spec, early_abort_at=d) == d, spec
    assert min_lee_distance(spec, early_abort_at=d + 1) == oracle(d + 1) == d, spec


def search_lifts(ring, n, family):
    """The search's configuration, its base codes and all their self-dual
    lifts, not only one per orbit."""
    config = SearchConfig(ring=ChainRing.from_name(ring), n=n, family=family)
    bases = enumerate_base_codes(config)
    lifts = [
        lift
        for base in bases
        for lift in helpers.all_nested_lifts(base, config.ring, config.alpha)
    ]
    return config, bases, lifts


class TestCertifierAtProductionSize:
    """The information-set certifier against the exhaustive oracles on the
    codes the searches actually evaluate."""

    def test_z4_n24_double_nega(self):
        config, bases, lifts = search_lifts("z4", 24, "double-nega")
        winners = [lift for lift in lifts if min_lee_distance(lift, early_abort_at=12) >= 12]
        others = [lift for lift in lifts[::28] if lift not in winners]
        assert len(winners) == 8 and len(others) >= 24
        # the search keeps one witness, equivalent to one of the 8
        (witness,) = run_search(config).records
        assert canonical_form(witness.lift) in {canonical_form(spec) for spec in winners}
        for spec in winners + others:
            G = generator_matrix(spec)
            oracle = lambda abort=None: helpers.mitm_min_lee_z4(G, abort)
            assert_certifier_matches(oracle, spec)
        assert {min_lee_distance(spec) for spec in winners} == {12}
        for base in bases:
            G = generator_matrix(base)
            nonzero = lee_table(base.ring) != 0
            d_ham = helpers.mitm_min_weight(G, 2, nonzero)
            assert min_hamming_distance(base) == d_ham, base

    @pytest.mark.parametrize("ring,n,step", [("z9", 12, 4), ("z8", 8, 1)])
    @pytest.mark.parametrize("family", ["double-nega", "bordered-circ"])
    def test_generic_rings(self, ring, n, step, family):
        config, bases, lifts = search_lifts(ring, n, family)
        for spec in lifts[::step]:
            G = generator_matrix(spec)
            table = lee_table(spec.ring)
            oracle = lambda abort=None: helpers.mitm_min_weight(G, spec.ring.size, table, abort)
            assert_certifier_matches(oracle, spec)
        for base in bases:
            G = generator_matrix(base)
            nonzero = lee_table(base.ring) != 0
            d_ham = helpers.mitm_min_weight(G, base.ring.p, nonzero)
            assert min_hamming_distance(base) == d_ham, base

    def test_one_information_set(self):
        # a singular right half, and a [24,12] code one entry away from a
        # self-dual winner: neither is self-orthogonal, so only the left half
        # is an information set and the sweep runs up to weight d - 1
        singular = CodeSpec(Z4, 3, (2, 2, 0, 0))
        config = SearchConfig(ring=Z4, n=24, family="double-nega")
        winner = run_search(config).records[0].lift
        near = CodeSpec(Z4, 3, ((winner.a[0] + 1) % 4,) + winner.a[1:])
        for spec in (singular, near):
            assert not is_self_dual(spec)
            G = generator_matrix(spec)
            oracle = lambda abort=None: helpers.mitm_min_lee_z4(G, abort)
            assert_certifier_matches(oracle, spec)

    def test_multi_block_rounds(self, monkeypatch):
        # with blocks of a few messages the last rounds span several blocks, so
        # the abort is checked block by block and the bound once per round: on
        # one information set for the [24,12] Z4 record and for two Z9 lifts of
        # odd d_Lee, and on both for a Z8 lift with no mirror
        z4 = run_search(SearchConfig(ring=Z4, n=24, family="double-nega")).records[-1].lift
        z9 = search_lifts("z9", 12, "double-nega")[2]
        z8 = next(spec for spec in search_lifts("z8", 8, "bordered-circ")[2]
                  if not _has_mirror(spec))
        try:
            for spec, d, rows in [(z4, 12, 64), (z9[3], 7, 8), (z9[4], 9, 8), (z8, 6, 4)]:
                monkeypatch.setattr(distance, "_BLOCK_ENTRIES", rows * spec.k)
                _representatives.cache_clear()
                table, group = tuple(lee_table(spec.ring).tolist()), _automorphisms(spec)
                assert len(_representatives(table, spec.k, (d - 1) // 2, group)) > rows
                assert min_lee_distance(spec) == d
                G, mod, weights = generator_matrix(spec), spec.ring.size, lee_table(spec.ring)
                if spec.ring == Z4:  # the bit-packed oracle, the fast one at k = 12
                    oracle = lambda abort=None: helpers.mitm_min_lee_z4(G, abort)
                else:
                    oracle = lambda abort=None: helpers.mitm_min_weight(G, mod, weights, abort)
                assert_certifier_matches(oracle, spec)
                assert min_hamming_distance(spec) == helpers.mitm_min_weight(G, mod, weights != 0)
        finally:
            _representatives.cache_clear()

    def test_float32_bound_is_checked_before_any_layer(self, monkeypatch):
        # at k = 259 over Z256 a product entry can reach 259 * 255^2 > 2^24,
        # past what float32 holds exactly; k = 258 would still fit
        def no_layer(*args):
            raise AssertionError("a layer was built")

        monkeypatch.setattr(distance, "_representatives", no_layer)
        monkeypatch.setattr(distance, "_product_weights", no_layer)
        spec = CodeSpec(ChainRing(2, 8), 1, (1,) * 259)
        with pytest.raises(ValueError, match=r"2\^24"):
            min_lee_distance(spec)
        with pytest.raises(ValueError, match=r"2\^24"):
            min_hamming_distance(spec)

    def test_message_blocks_cover_each_layer_once(self):
        table = tuple(lee_table(Z9).tolist())
        for t in range(0, 4 * 4 + 1):
            blocks = list(_message_blocks(table, 4, t, 7))
            assert all(len(block) <= 7 for block in blocks)
            rows = [tuple(row) for block in blocks for row in block.tolist()]
            expected = [
                m for m in itertools.product(range(9), repeat=4)
                if sum(table[c] for c in m) == t
            ]
            assert sorted(rows) == expected


def self_dual_specs(ring, alpha, k, bordered):
    """Every self-dual spec of length 2k over the ring with this alpha."""
    if bordered:
        words = list(itertools.product(range(ring.size), repeat=k - 1))
        borders = list(itertools.product(range(ring.size), repeat=3))
        mask = self_dual_mask(ring, alpha, words, borders)
        return [CodeSpec(ring, alpha, words[i], borders[b]) for i, b in zip(*np.nonzero(mask))]
    words = list(itertools.product(range(ring.size), repeat=k))
    mask = self_dual_mask(ring, alpha, words)
    return [CodeSpec(ring, alpha, words[i]) for i in np.flatnonzero(mask)]


def has_signed_reversal_mirror(spec):
    """Whether some signed reversal J of the shifted coordinates (the first
    coordinate of a bordered code stays, up to a sign) has A J A = -J, by
    trying every reversal and every choice of signs."""
    k, mod = spec.k, spec.ring.size
    fixed = spec.border is not None
    A = generator_matrix(spec)[:, k:]
    r = k - fixed
    mirrors = []
    for c in range(r):
        perm = list(range(fixed)) + [fixed + (c - i) % r for i in range(r)]
        for signs in itertools.product((1, -1), repeat=k):
            J = np.zeros((k, k), dtype=np.int64)
            J[np.arange(k), perm] = signs
            mirrors.append(J)
    J = np.array(mirrors)
    return bool(((A @ J @ A + J) % mod == 0).all(axis=(1, 2)).any())


class TestMirror:
    """The certifier scores the right half only for a self-dual code with no mirror."""

    def test_code_without_mirror_needs_its_second_set(self, monkeypatch):
        # a self-dual [12,6] code over F5 (A A^t = -I) under a spec with no
        # shift, so no mirror: its left half alone certifies 6, but d_Lee is 5
        A = np.array([[4, 1, 4, 4, 3, 4], [3, 3, 0, 1, 1, 2], [0, 1, 2, 0, 2, 0],
                      [2, 2, 2, 2, 2, 2], [4, 2, 0, 2, 4, 3], [3, 0, 0, 3, 0, 4]])
        G = np.hstack([np.eye(6, dtype=np.int64), A])
        assert not ((G @ G.T) % 5).any()
        spec = CodeSpec(F5, 2, (0,) * 6)
        monkeypatch.setattr(distance, "generator_matrix", lambda _: G)
        assert not _has_mirror(spec)
        table = lee_table(F5)
        oracle = lambda abort=None: helpers.mitm_min_weight(G, 5, table, abort)
        assert oracle() == 5
        assert_certifier_matches(oracle, spec)

    def test_one_set_only_where_a_mirror_exists(self):
        # every self-dual spec of these small lengths that the certifier
        # scores on its left half alone has a signed reversal J with A J A = -J
        checked = 0
        for ring, kmax in [(Z2, 8), (F3, 6), (Z4, 6), (Z8, 4), (Z9, 4)]:
            for alpha in sorted({1, ring.size - 1}):
                for bordered in (False, True) if alpha == 1 else (False,):
                    for k in range(1 + bordered, kmax + 1):
                        for spec in self_dual_specs(ring, alpha, k, bordered):
                            if _has_mirror(spec):
                                assert has_signed_reversal_mirror(spec), spec
                                checked += 1
        assert checked > 700

    def test_z8_bordered_lifts_without_mirror(self):
        # delta = 3 gamma or 5 gamma leaves a Z8 n = 8 bordered-circ lift with
        # no mirror, so it is scored on both sets; test_generic_rings checks
        # every one of these lifts against the oracle
        lifts = search_lifts("z8", 8, "bordered-circ")[2]
        without = [spec for spec in lifts if not _has_mirror(spec)]
        assert 2 * len(without) == len(lifts) == 128
        for spec in without:
            _, gamma, delta = spec.border
            assert delta in (3 * gamma % 8, 5 * gamma % 8) and delta not in (gamma, -gamma % 8)
            assert not has_signed_reversal_mirror(spec), spec


@functools.cache
def layer_tuples(table, k, t):
    """Every length-k message of weight exactly t, as tuples."""
    if k == 0:
        return [()] if t == 0 else []
    return [
        (v,) + rest
        for v, w in enumerate(table)
        if w <= t
        for rest in layer_tuples(table, k - 1, t - w)
    ]


def message_orbit(m, mod, group):
    """The orbit of message m, from the group's definition on tuples: the
    first `fixed` coordinates stay, the rest take every power of the shift
    (c_0, ..., c_{r-1}) -> (wrap c_{r-1}, c_0, ..., c_{r-2}), and the whole
    message may be negated."""
    fixed, wrap = group
    head, x = m[:fixed], m[fixed:]
    shifts = [x]
    for _ in range(len(x) if wrap is not None else 0):
        x = (wrap * x[-1] % mod,) + x[:-1]
        shifts.append(x)
    return {tuple(s * c % mod for c in head + x) for x in shifts for s in (1, mod - 1)}


def random_spec(rng, ring, family, k):
    alpha = ring.size - 1 if family == "double-nega" else 1
    digits = [rng.randrange(ring.size) for _ in range(k + 2)]
    if family == "bordered-circ":
        return CodeSpec(ring, alpha, tuple(digits[: k - 1]), tuple(digits[k - 1 :]))
    return CodeSpec(ring, alpha, tuple(digits[:k]))


def assert_matches_oracles(spec):
    """Lee (exact and at abort thresholds d, d + 1) and Hamming certifiers
    against the exhaustive oracle."""
    G, mod = generator_matrix(spec), spec.ring.size
    table = lee_table(spec.ring)
    assert_certifier_matches(lambda abort=None: helpers.mitm_min_weight(G, mod, table, abort), spec)
    assert min_hamming_distance(spec) == helpers.mitm_min_weight(G, mod, table != 0), spec


class TestOrbitReduction:
    """The certifier scores one message per orbit of the spec's group."""

    @pytest.mark.parametrize("ring,kmax", [(Z4, 8), (Z8, 6), (Z9, 6)], ids=["z4", "z8", "z9"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_oracle_every_k(self, ring, kmax, family):
        # random specs, almost never self-orthogonal (one information set),
        # and the search's self-dual lifts where the length admits them
        rng = random.Random(f"{ring.name}-{family}")
        for k in range(2 if family == "bordered-circ" else 1, kmax + 1):
            specs = [random_spec(rng, ring, family, k) for _ in range(2)]
            if ring.p != 2 or k % 4 == 0:
                specs += search_lifts(ring.name, 2 * k, family)[2][:3]
            for spec in specs:
                assert_matches_oracles(spec)

    def test_other_alpha_keeps_only_negation(self):
        rng = random.Random(5)
        for alpha in (3, 5):
            for k in range(1, 6):
                specs = [
                    CodeSpec(Z8, alpha, tuple(rng.randrange(8) for _ in range(k))),
                    CodeSpec(Z8, alpha, tuple(rng.randrange(8) for _ in range(k)), (1, 2, 7)),
                ]
                for spec in specs:
                    assert _automorphisms(spec) == (0, None)
                    assert_matches_oracles(spec)

    def test_group_preserves_both_halves(self):
        # every message in an orbit gives the same weight on each
        # information set, which is what the reduced sweep relies on
        rng = random.Random(6)
        specs = [random_spec(rng, ring, family, k)
                 for ring in (Z4, Z9) for family in FAMILIES for k in (2, 3, 4)]
        specs += [CodeSpec(Z8, 3, (1, 2, 5)), CodeSpec(Z4, 1, (1, 1, 2), (3, 1, 2))]
        for spec in specs:
            k, mod, table = spec.k, spec.ring.size, lee_table(spec.ring)
            A = generator_matrix(spec)[:, k:]
            messages = list(itertools.product(range(mod), repeat=k))
            index = {m: i for i, m in enumerate(messages)}
            for B in (A, -A.T % mod):
                weights = table[np.array(messages) @ B % mod].sum(axis=1)
                for m in messages:
                    orbit = message_orbit(m, mod, _automorphisms(spec))
                    assert {int(weights[index[g]]) for g in orbit} == {int(weights[index[m]])}, spec

    @pytest.mark.parametrize(
        "ring,k,tmax",
        [(Z4, 6, 6), (Z8, 5, 5), (Z9, 4, 5), (Z9, 21, 2)],
        ids=["z4-k6", "z8-k5", "z9-k4", "z9-k21"],
    )
    def test_representatives_cover_each_orbit_once(self, ring, k, tmax):
        # at Z9, k = 21 a message read as a base-9 number exceeds 2^64
        mod = ring.size
        table = tuple(lee_table(ring).tolist())
        for group in [(0, 1), (0, mod - 1), (1, 1), (0, None)]:
            for t in range(1, tmax + 1):
                reps = [tuple(r) for r in _representatives(table, k, t, group).tolist()]
                leaders = {min(message_orbit(m, mod, group)) for m in layer_tuples(table, k, t)}
                assert len(reps) == len(set(reps)) and set(reps) == leaders, (group, t)

    def test_blocks_split_in_build_and_sweep(self, monkeypatch):
        # with blocks of 16 messages the layers of a [16,8] code are built
        # from many blocks and swept in many slices
        monkeypatch.setattr(distance, "_BLOCK_ENTRIES", 128)
        _representatives.cache_clear()
        try:
            rng = random.Random(7)
            specs = search_lifts("z4", 16, "double-nega")[2][:2] + search_lifts(
                "z4", 16, "bordered-circ")[2][:2]
            specs += [random_spec(rng, Z4, family, 8) for family in FAMILIES]
            for spec in specs:
                assert_matches_oracles(spec)
            table = tuple(lee_table(Z4).tolist())
            assert len(_representatives(table, 8, 4, (0, 3))) > 128 // 8
        finally:
            _representatives.cache_clear()


class TestDoublyEven:
    def test_extended_hamming(self):
        assert is_doubly_even(CodeSpec(Z2, 1, (1, 1, 1, 0)))

    def test_singly_even_counterexample(self):
        assert not is_doubly_even(CodeSpec(Z2, 1, (1, 0)))

    def test_length_32_example(self):
        v = tuple(int(c) for c in "1111101011011010")
        assert is_doubly_even(CodeSpec(Z2, 1, v))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            is_doubly_even(CodeSpec(Z4, 3, (1, 3, 3, 0)))

    def test_matches_full_enumeration(self):
        import numpy as np

        specs = [
            CodeSpec(Z2, 1, a)
            for k in range(1, 7)
            for a in itertools.product(range(2), repeat=k)
        ]
        assert len(specs) == 126
        specs += [
            CodeSpec(Z2, 1, core, border)
            for k in range(2, 7)
            for core in itertools.product(range(2), repeat=k - 1)
            for border in itertools.product(range(2), repeat=3)
        ]
        for spec in specs:
            G = generator_matrix(spec)
            all_even = all(
                int((np.array(m) @ G % 2).sum()) % 4 == 0
                for m in itertools.product(range(2), repeat=spec.k)
            )
            assert is_doubly_even(spec) == all_even
