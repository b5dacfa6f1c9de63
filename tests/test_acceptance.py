"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (run with -s to see them on success).  The criterion-1 searches are
expensive and shared across tests through a module-scoped fixture.
"""

import itertools
import random

import numpy as np
import pytest

import helpers
from alphacirc import (
    ChainRing,
    CircVec,
    CodeSpec,
    SearchConfig,
    canonical_form,
    cir,
    generator_matrix,
    is_doubly_even,
    is_self_dual,
    min_hamming_distance,
    min_lee_distance,
    nested_lift,
    run_search,
    self_dual_lifts,
    verify_record,
)
from alphacirc.equivalence import substitute
from alphacirc.lifting import build_lift_system, section_lift_spec, solve_lift_system

Z2 = ChainRing(2, 1)
Z4 = ChainRing(2, 2)
Z8 = ChainRing(2, 3)
F3 = ChainRing(3, 1)
Z9 = ChainRing(3, 2)

TABLE = {8: 6, 16: 8, 24: 12}


def report(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


@pytest.fixture(scope="module")
def searches():
    """Best-d searches for both families at the three gating lengths."""
    out = {}
    for family in ("double-nega", "bordered-circ"):
        for n in (8, 16, 24):
            cfg = SearchConfig(ring=ChainRing(2, 2), n=n, family=family)
            out[(family, n)] = run_search(cfg)
    return out


def test_criterion_1_table_reproduction(searches):
    ok = True
    for (family, n), result in searches.items():
        if result.best_d_lee != TABLE[n]:
            ok = False
    report("criterion 1: Z4 table d_Lee = 6/8/12 for both families", ok)


def test_criterion_2_lift_oracle_equivalence():
    ok = True
    # F2 -> Z4, all self-dual double bases with k <= 4
    for k in range(1, 5):
        for a in helpers.self_dual_double_bases(k):
            base = CodeSpec("double", Z2, k, 1, a)
            expected = helpers.brute_force_lift_vectors(base, Z4, 3)
            got = {(s.a, s.border) for s in self_dual_lifts(base, Z4, 3)}
            ok &= got == expected
    # the worked k = 4 case: 8 solutions cut out by u0 + u2 = 1
    sols = solve_lift_system(
        build_lift_system(section_lift_spec(CodeSpec("double", Z2, 4, 1, (1, 1, 1, 0)), Z4, 3))
    )
    ok &= sols.count == 8
    ok &= all((u[0] + u[2]) % 2 == 1 for u in sols.solutions())
    # F3 -> Z9 at k <= 3
    for k in range(1, 4):
        for a in helpers.self_dual_double_bases(k, p=3, alpha=2):
            base = CodeSpec("double", F3, k, 2, a)
            expected = helpers.brute_force_lift_vectors(base, Z9, 8)
            got = {(s.a, s.border) for s in self_dual_lifts(base, Z9, 8)}
            ok &= got == expected
    # nested lifting F2 -> Z8 at k <= 4 against full preimage enumeration:
    # one output per orbit, and the orbits cover every preimage (k = 4 is
    # the first length with self-dual lifts)
    for k in range(1, 5):
        for a in helpers.self_dual_double_bases(k):
            base = CodeSpec("double", Z2, k, 1, a)
            ok &= helpers.covers_preimages_once(base, Z8, 7, list(nested_lift(base, Z8, 7)))
    report("criterion 2: lift systems equal brute-force solution sets", ok)


def test_criterion_3_algebra_suite():
    rng = random.Random(30)
    ok = True
    pool = [(Z4, 3), (Z4, 1), (Z8, 7), (Z9, 8), (Z2, 1)]
    for _ in range(1000):
        ring, alpha = rng.choice(pool)
        mod = ring.size
        k = rng.randrange(2, 7)
        f = CircVec(ring, alpha, tuple(rng.randrange(mod) for _ in range(k)))
        g = CircVec(ring, alpha, tuple(rng.randrange(mod) for _ in range(k)))
        lam = rng.randrange(mod)
        ok &= np.array_equal(
            cir(CircVec(ring, alpha, tuple((x + y) % mod for x, y in zip(f.coeffs, g.coeffs)))),
            (cir(f) + cir(g)) % mod,
        )
        ok &= np.array_equal(
            cir(CircVec(ring, alpha, tuple(lam * x % mod for x in f.coeffs))),
            lam * cir(f) % mod,
        )
        # cir(f g) = cir(f) cir(g): the product is the circulant of its first row
        ok &= helpers.is_alpha_circulant(cir(f) @ cir(g) % mod, ring, alpha)
        T = helpers.shift_matrix(ring, k, alpha)
        ok &= np.array_equal(
            np.linalg.matrix_power(T, k) % mod, alpha * np.eye(k, dtype=np.int64) % mod
        )
        # commuting with T characterizes alpha-circulants
        A = cir(f)
        ok &= np.array_equal(A @ T % mod, T @ A % mod)
        ok &= helpers.is_alpha_circulant(A, ring, alpha)
        B = A.copy()
        B[0, 0] = (B[0, 0] + 1) % mod
        ok &= helpers.is_alpha_circulant(B, ring, alpha) == np.array_equal(
            B @ T % mod, T @ B % mod
        )
    report("criterion 3: 1000-trial circulant algebra property suite", ok)


def test_criterion_4_monomial_lemma_suite():
    rng = random.Random(40)
    ok = True
    for alpha in (1, 3):
        ring = Z4
        for k in range(2, 9):
            pairs = dict(helpers.generator_pairs(ring, k, alpha))
            for s in range(1, k):
                import math

                if math.gcd(s, k) != 1:
                    continue
                if pow(alpha, s * (k + 1) - 1, 4) != 1:
                    continue
                pair = pairs[f"s_map_{s}"]
                for _ in range(100):
                    f = CircVec(ring, alpha, tuple(rng.randrange(4) for _ in range(k)))
                    conj = helpers.act(pair, f)
                    ok &= np.array_equal(conj, cir(substitute(f, s)))
    # type-shift instance over Z9 and 100 random circulants
    M = helpers.type_shift(Z9, 3, 2, 1)
    lhs = helpers.act((M, M), CircVec(Z9, 2, (0, 1, 0)))
    ok &= np.array_equal(lhs, cir(CircVec(ChainRing(3, 2), 7, (0, 2, 0))))
    for _ in range(100):
        i, j = rng.randrange(4), rng.randrange(3)
        a_type = pow(2, i, 9)
        a = CircVec(Z9, a_type, tuple(rng.randrange(9) for _ in range(3)))
        Mj = helpers.type_shift(Z9, 3, 2, j)
        res = helpers.act((Mj, Mj), a)
        ok &= helpers.is_alpha_circulant(res, Z9, pow(2, i - 3 * j, 9))
    report("criterion 4: substitution and type-shift lemmas hold exactly", ok)


def test_criterion_5_lift_equivariance():
    rng = random.Random(50)
    pools = {k: helpers.self_dual_double_bases(k) for k in (2, 3, 4)}
    triples = []
    while len(triples) < 200:
        k = rng.choice([2, 3, 4])
        if not pools[k]:
            continue
        a = rng.choice(pools[k])
        base = CodeSpec("double", Z2, k, 1, a)
        lifts = list(self_dual_lifts(base, Z4, 3))
        if not lifts:
            continue
        lift = rng.choice(lifts)
        name, pair = rng.choice(helpers.generator_pairs(Z4, k, 3))
        triples.append((base, lift, name, pair))
    ok = True
    for base, lift, name, pair in triples:
        moved = helpers.act(pair, CircVec(Z4, 3, lift.a))
        ok &= helpers.is_alpha_circulant(moved, Z4, 3)
        # the same pair reduced mod 2 must act compatibly on the base
        bar = (pair[0] % 2, pair[1] % 2)
        moved_base = helpers.act(bar, CircVec(Z2, 1, base.a))
        ok &= np.array_equal(moved % 2, moved_base)
        # and the moved lift is still a self-dual lift of the moved base
        moved_vec = tuple(moved[0].tolist())
        ok &= is_self_dual(CodeSpec("double", Z4, base.k, 3, moved_vec))
    report("criterion 5: 200 transformed lifts stay circulant over their base", ok)


def test_criterion_6_length_32_counterexample():
    v = tuple(int(c) for c in "1111101011011010")
    w = tuple(int(c) for c in "1110010011100000")
    sv = CodeSpec("double", Z2, 16, 1, v)
    sw = CodeSpec("double", Z2, 16, 1, w)
    ok = is_self_dual(sv) and is_self_dual(sw)
    ok &= is_doubly_even(sv) and is_doubly_even(sw)
    cv = canonical_form(CircVec(Z2, 1, v)).coeffs
    cw = canonical_form(CircVec(Z2, 1, w)).coeffs
    ok &= cv != cw
    report("criterion 6: the two [32,16] generators are inequivalent", ok)


def test_criterion_7_distance_oracles(searches):
    rng = random.Random(70)
    ok = True
    # engine equals naive enumeration on every small spec
    specs = []
    for ring, alphas in ((Z2, (1,)), (Z4, (1, 3))):
        for alpha in alphas:
            for k in range(1, 5):
                for a in itertools.product(range(ring.size), repeat=k):
                    specs.append(CodeSpec("double", ring, k, alpha, a))
            for k in range(2, 5):
                for a in itertools.product(range(ring.size), repeat=k - 1):
                    for border in itertools.product(range(ring.size), repeat=3):
                        specs.append(CodeSpec("bordered", ring, k, alpha, a, border))
    for spec in specs:
        ok &= min_lee_distance(spec) == helpers.naive_min_weight(spec, "lee")
    # Gray isometry
    for _ in range(1000):
        word = [rng.randrange(4) for _ in range(rng.randrange(1, 16))]
        ok &= helpers.lee_weight(Z4, word) == helpers.hamming_weight(Z2, helpers.gray_image(word))
    # d_Lee <= 2 d_Ham(base) on every record the searches produced
    for result in searches.values():
        for rec in result.all_records:
            ok &= rec.d_lee <= 2 * rec.d_ham_base
    report("criterion 7: distance engine matches oracles and the Lee bound", ok)


def test_criterion_8_pipeline_soundness(searches):
    ok = True
    for family in ("double-nega", "bordered-circ"):
        for n in (8, 16):
            cfg = SearchConfig(ring=ChainRing(2, 2), n=n, family=family, prune=False)
            unpruned = run_search(cfg)
            ok &= unpruned.best_d_lee == searches[(family, n)].best_d_lee
    for result in searches.values():
        for rec in result.records:
            ok &= verify_record(rec)
    report("criterion 8: pruning is lossless and all records verify", ok)
