import itertools
import random

import pytest

import helpers
from alphacirc import (
    ChainRing,
    CircVec,
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
from alphacirc.distance import _message_blocks, lee_table
from helpers import hamming_weight, lee_weight

Z2 = ChainRing(2, 1)
Z4 = ChainRing(2, 2)
Z8 = ChainRing(2, 3)
Z9 = ChainRing(3, 2)


def rand_spec(rng, kmax=4):
    ring, alpha = rng.choice([(Z2, 1), (Z4, 3), (Z4, 1), (Z9, 8)])
    if rng.random() < 0.5:
        k = rng.randrange(1, kmax + 1)
        a = tuple(rng.randrange(ring.size) for _ in range(k))
        return CodeSpec("double", ring, k, alpha, a)
    k = rng.randrange(2, kmax + 1)
    a = tuple(rng.randrange(ring.size) for _ in range(k - 1))
    border = tuple(rng.randrange(ring.size) for _ in range(3))
    return CodeSpec("bordered", ring, k, alpha, a, border)


class TestWeights:
    def test_lee_table_z4(self):
        assert lee_table(Z4).tolist() == [0, 1, 2, 1]

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
        spec = CodeSpec("double", Z2, 4, 1, (1, 1, 1, 0))
        assert min_hamming_distance(spec) == 4

    def test_octacode_style_lift(self):
        spec = CodeSpec("double", Z4, 4, 3, (1, 3, 3, 2))
        assert min_lee_distance(spec) == 6
        assert min_lee_distance(CodeSpec("double", Z4, 4, 3, (1, 3, 3, 0))) == 4

    def test_k1_double(self):
        spec = CodeSpec("double", Z4, 1, 3, (1,))
        assert min_lee_distance(spec) == 2
        assert min_hamming_distance(spec) == 2

    def test_zero_rank_rejected(self):
        with pytest.raises(Exception):
            min_hamming_distance(CodeSpec("double", Z4, 0, 3, ()))

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
            spec = CodeSpec(
                "double", Z4, k, 3, tuple(rng.randrange(4) for _ in range(k))
            )
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
        canon = lambda spec: canonical_form(CircVec(spec.ring, spec.alpha, spec.a))
        assert canon(witness.lift_spec()) in {canon(spec) for spec in winners}
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
        # is an information set and the weight-t layers outgrow one block
        singular = CodeSpec("double", Z4, 4, 3, (2, 2, 0, 0))
        config = SearchConfig(ring=Z4, n=24, family="double-nega")
        winner = run_search(config).records[0].lift_spec()
        near = CodeSpec("double", Z4, 12, 3, ((winner.a[0] + 1) % 4,) + winner.a[1:])
        for spec in (singular, near):
            assert not is_self_dual(spec)
            G = generator_matrix(spec)
            oracle = lambda abort=None: helpers.mitm_min_lee_z4(G, abort)
            assert_certifier_matches(oracle, spec)

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


class TestDoublyEven:
    def test_extended_hamming(self):
        assert is_doubly_even(CodeSpec("double", Z2, 4, 1, (1, 1, 1, 0)))

    def test_singly_even_counterexample(self):
        assert not is_doubly_even(CodeSpec("double", Z2, 2, 1, (1, 0)))

    def test_length_32_example(self):
        v = tuple(int(c) for c in "1111101011011010")
        assert is_doubly_even(CodeSpec("double", Z2, 16, 1, v))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            is_doubly_even(CodeSpec("double", Z4, 4, 3, (1, 3, 3, 0)))

    def test_matches_full_enumeration(self):
        import numpy as np

        specs = [
            CodeSpec("double", Z2, k, 1, a)
            for k in range(1, 7)
            for a in itertools.product(range(2), repeat=k)
        ]
        assert len(specs) == 126
        specs += [
            CodeSpec("bordered", Z2, k, 1, core, border)
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
