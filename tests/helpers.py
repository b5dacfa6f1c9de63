"""Independent brute-force oracles shared by the test modules.

Everything here enumerates exhaustively and knows nothing about the pruned
engines or the linear-system lifting path it is used to check.
"""

from __future__ import annotations

import itertools
from math import gcd

import numpy as np

from alphacirc import (
    BaseNotSelfDual,
    ChainRing,
    CodeSpec,
    SearchConfig,
    cir,
    generator_matrix,
    is_doubly_even,
    is_self_dual,
)
from alphacirc.equivalence import (
    canonical_form,
    canonical_form_bordered,
    shift_right,
    substitute,
)

Z2 = ChainRing(2, 1)


def lee_weight(ring: ChainRing, word) -> int:
    v = np.asarray(word, dtype=np.int64) % ring.size
    return int(np.minimum(v, ring.size - v).sum())


def hamming_weight(ring: ChainRing, word) -> int:
    return int(np.count_nonzero(np.asarray(word, dtype=np.int64) % ring.size))


def naive_min_weight(spec: CodeSpec, weight: str = "lee") -> int:
    """Minimum nonzero codeword weight by full message enumeration."""
    mod = spec.ring.size
    G = generator_matrix(spec)
    k, n = G.shape
    v = np.arange(mod)
    table = np.minimum(v, mod - v) if weight == "lee" else (v != 0).astype(int)
    best = None
    for msg in itertools.product(range(mod), repeat=k):
        if not any(msg):
            continue
        word = np.array(msg) @ G % mod
        w = int(table[word].sum())
        if best is None or w < best:
            best = w
    return best


def _all_messages(mod: int, k: int) -> np.ndarray:
    """All mod^k messages as rows, zero message first (index 0)."""
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*([np.arange(mod)] * k), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def mitm_min_weight(
    G: np.ndarray, mod: int, wtable: np.ndarray, early_abort_at: int | None = None
) -> int:
    """Exhaustive meet-in-the-middle minimum weight over all mod^k - 1 nonzero
    messages: codewords of a message-prefix half and a suffix half are
    precomputed and whole blocks of their sums are scored at once.  With an
    abort threshold it returns the first block minimum below it."""
    k, n = G.shape
    k1 = k // 2
    k2 = k - k1
    C1 = (_all_messages(mod, k1) @ G[:k1] % mod).astype(np.uint8)
    C2 = (_all_messages(mod, k2) @ G[k1:] % mod).astype(np.uint8)
    table = wtable.astype(np.uint8)
    sentinel = int(wtable.max()) * n + 1
    best = sentinel
    # prefix chunks keep the 3D work arrays around 25 MB
    chunk = max(1, 2**24 // max(1, C2.shape[0] * n))
    for lo in range(0, C1.shape[0], chunk):
        block = (C1[lo : lo + chunk, None, :] + C2[None, :, :]) % mod
        w = table[block].sum(axis=2, dtype=np.int32)
        if lo == 0:
            w[0, 0] = sentinel  # the zero message
        block_min = int(w.min())
        if block_min < best:
            best = block_min
            if early_abort_at is not None and best < early_abort_at:
                return best
    return best


def _pack_planes(C: np.ndarray, plane: int) -> np.ndarray:
    """Pack one bit-plane of Z4 words (rows of C) into uint64 bitmasks."""
    bits = (C >> plane & 1).astype(np.uint64)
    weights = (np.uint64(1) << np.arange(C.shape[1], dtype=np.uint64))
    return (bits * weights).sum(axis=1, dtype=np.uint64)


def mitm_min_lee_z4(G: np.ndarray, early_abort_at: int | None = None) -> int:
    """Bit-packed Z4 meet-in-the-middle engine (n <= 64): codewords live as two
    uint64 bit-planes, addition is xor with one carry, and Lee weight is
    popcount(s0) + 2 popcount(s1 & ~s0)."""
    k, n = G.shape
    k1 = k // 2
    C1 = _all_messages(4, k1) @ G[:k1] % 4
    C2 = _all_messages(4, k - k1) @ G[k1:] % 4
    a0, a1 = _pack_planes(C1, 0), _pack_planes(C1, 1)
    b0, b1 = _pack_planes(C2, 0), _pack_planes(C2, 1)
    sentinel = 2 * n + 1
    best = sentinel
    # 2^16-element chunks keep the xor/carry/popcount temporaries in cache
    chunk = max(1, 2**16 // max(1, len(b0)))
    for lo in range(0, len(a0), chunk):
        p0 = a0[lo : lo + chunk, None]
        p1 = a1[lo : lo + chunk, None]
        s0 = p0 ^ b0[None, :]
        s1 = p1 ^ b1[None, :] ^ (p0 & b0[None, :])
        w = np.bitwise_count(s0).astype(np.int32)
        w += 2 * np.bitwise_count(s1 & ~s0).astype(np.int32)
        if lo == 0:
            w[0, 0] = sentinel  # the zero message
        block_min = int(w.min())
        if block_min < best:
            best = block_min
            if early_abort_at is not None and best < early_abort_at:
                return best
    return best


def brute_force_lift_vectors(base: CodeSpec, ring: ChainRing, alpha: int) -> set[tuple]:
    """All self-dual lifts of a base spec with alpha `alpha`, found by trying
    every vector of minimal-ideal perturbations.  Returns {(a, border)} keys."""
    from alphacirc.lifting import section_lift_spec

    spec0 = section_lift_spec(base, ring, alpha)
    ideal = [u * ring.size // ring.p for u in range(ring.p)]
    mod = ring.size
    t = len(spec0.a) + (3 if spec0.border is not None else 0)
    found = set()
    for w in itertools.product(ideal, repeat=t):
        a = tuple((spec0.a[i] + w[i]) % mod for i in range(len(spec0.a)))
        border = None
        if spec0.border is not None:
            border = tuple((spec0.border[i] + w[len(spec0.a) + i]) % mod for i in range(3))
        cand = CodeSpec(ring, spec0.alpha, a, border)
        if is_self_dual(cand):
            found.add((a, border))
    return found


def _gram(spec: CodeSpec) -> np.ndarray:
    G = generator_matrix(spec)
    return G @ G.T % spec.ring.size


def lift_system_oracle(spec0: CodeSpec) -> tuple[np.ndarray, np.ndarray]:
    """The lift system of the section lift `spec0` from the whole upper Gram
    triangle: one equation per entry (i, j), i <= j.  Column v is (Gram of
    G_0 with coordinate v raised by theta^{m-1}) minus (Gram of G_0),
    divided by theta^{m-1} and reduced mod theta; the rhs is minus
    Gram(G_0) / theta^{m-1}.  Duplicate equations are left to row reduction."""
    ring = spec0.ring
    mod, p = ring.size, ring.p
    ideal_gen = p ** (ring.m - 1)
    upper = np.triu_indices(spec0.k)
    gram0 = _gram(spec0)[upper]
    outside = np.flatnonzero(gram0 % ideal_gen)
    if outside.size:
        e = outside[0]
        raise BaseNotSelfDual(
            f"Gram entry ({upper[0][e]},{upper[1][e]}) = {gram0[e]} is not in the minimal ideal"
        )
    columns = []
    for v in range(len(spec0.coords)):
        coords = list(spec0.coords)
        coords[v] = (coords[v] + ideal_gen) % mod
        gram_v = _gram(spec0.with_coords(ring, spec0.alpha, coords))[upper]
        # both Grams lie in I, so the difference divides exactly
        columns.append((gram_v - gram0) // ideal_gen % p)
    return np.stack(columns, axis=1), -(gram0 // ideal_gen) % p


def brute_force_preimages(base: CodeSpec, ring: ChainRing, alpha: int) -> set[tuple]:
    """All self-dual specs over R with alpha `alpha` whose entrywise
    projection is the base-field spec (any preimage digits, not just
    minimal-ideal shifts)."""
    p, mod = ring.p, ring.size
    step = mod // p

    def preimages(c):
        return [c + p * j for j in range(step)]

    t = len(base.a) + (3 if base.border is not None else 0)
    flat = list(base.a) + list(base.border or ())
    found = set()
    for choice in itertools.product(range(step), repeat=t):
        digits = [flat[i] + p * choice[i] for i in range(t)]
        a = tuple(digits[: len(base.a)])
        border = tuple(digits[len(base.a) :]) or None
        cand = CodeSpec(ring, alpha, a, border)
        if is_self_dual(cand):
            found.add((a, border))
    return found


def all_nested_lifts(base: CodeSpec, ring: ChainRing, alpha: int) -> list[CodeSpec]:
    """Every self-dual spec over R with alpha `alpha` projecting to the
    base-field spec: `self_dual_lifts` chained through the quotient chain,
    with no orbit pruning, in solution order."""
    from alphacirc.lifting import self_dual_lifts

    current = [base]
    for level in range(2, ring.m + 1):
        target = ChainRing(ring.p, level)
        current = [
            lift for spec in current for lift in self_dual_lifts(spec, target, alpha % target.size)
        ]
    return current


def one_per_orbit(specs):
    """The first spec of each orbit of the cached group, in input order,
    keyed on full-group canonical forms."""
    seen = set()
    for spec in specs:
        key = canonical_form(spec) if spec.border is None else canonical_form_bordered(spec)
        if key not in seen:
            seen.add(key)
            yield spec


def nested_lift_oracle(base: CodeSpec, ring: ChainRing, alpha: int) -> list[CodeSpec]:
    """`nested_lift` by full-group canonical forms: after each level, the
    first lift of each orbit of the whole group over all of the level's
    lifts, in solution order."""
    from alphacirc.lifting import self_dual_lifts

    current = [base]
    for level in range(2, ring.m + 1):
        target = ChainRing(ring.p, level)
        lifts = (
            lift for spec in current for lift in self_dual_lifts(spec, target, alpha % target.size)
        )
        current = list(one_per_orbit(lifts))
    return current


def spec_orbit(spec: CodeSpec) -> set[tuple]:
    """{(a, border)} keys of a spec's orbit under the breadth-first closures."""
    if spec.border is None:
        return {(a, None) for a in orbit(spec)}
    return bordered_orbit(spec)


def covers_preimages_once(
    base: CodeSpec, ring: ChainRing, alpha: int, specs: list[CodeSpec]
) -> bool:
    """Whether the orbits of `specs` are pairwise disjoint and, among the
    specs projecting to `base`, cover exactly its self-dual preimages over R
    with alpha `alpha`."""
    orbits = [spec_orbit(spec) for spec in specs]
    covered = set().union(*orbits)
    p, flat = base.ring.p, base.a + (base.border or ())

    def projects(key):
        return tuple(c % p for c in key[0] + (key[1] or ())) == flat

    disjoint = sum(map(len, orbits)) == len(covered)
    return disjoint and set(filter(projects, covered)) == brute_force_preimages(base, ring, alpha)


def self_dual_double_bases(k: int, p: int = 2, alpha: int = 1) -> list[tuple]:
    """All generating vectors of self-dual double circulant codes over F_p."""
    ring = ChainRing(p, 1)
    out = []
    for a in itertools.product(range(p), repeat=k):
        if is_self_dual(CodeSpec(ring, alpha, a)):
            out.append(a)
    return out


def self_dual_bordered_bases(k: int, p: int = 2, alpha: int = 1) -> list[tuple]:
    """All (core, border) pairs of self-dual bordered circulant codes over F_p."""
    ring = ChainRing(p, 1)
    out = []
    for core in itertools.product(range(p), repeat=k - 1):
        for border in itertools.product(range(p), repeat=3):
            if is_self_dual(CodeSpec(ring, alpha, core, border)):
                out.append((core, border))
    return out


def enumerate_base_codes_oracle(cfg: SearchConfig) -> list[CodeSpec]:
    """`enumerate_base_codes` one candidate at a time: a spec and a dense
    Gram matrix (`is_self_dual`) for every least rotation, found by brute
    force, crossed with every border, or for every word when alpha != 1 and
    rotation is not in the group.  The first candidate of each orbit in
    lexicographic order is its least word, so the representatives come in
    the order of the fast enumeration."""
    ring = cfg.base_ring()
    alpha = cfg.alpha % ring.p
    need_doubly_even = cfg.ring.p == 2 and cfg.ring.m >= 2

    def least_rotations(k: int) -> list[tuple[int, ...]]:
        return [w for w in itertools.product(range(ring.p), repeat=k)
                if w == min(w[i:] + w[:i] for i in range(k))]

    if cfg.bordered:
        borders = itertools.product(range(ring.p), repeat=3)
        candidates = itertools.product(least_rotations(cfg.k - 1), borders)
    elif alpha != 1:
        candidates = itertools.product(itertools.product(range(ring.p), repeat=cfg.k), [None])
    else:
        candidates = itertools.product(least_rotations(cfg.k), [None])
    reps: dict[CodeSpec, None] = {}  # an insertion-ordered set
    for a, border in candidates:
        spec = CodeSpec(ring, alpha, a, border)
        if not is_self_dual(spec) or (need_doubly_even and not is_doubly_even(spec)):
            continue
        reps[canonical_form(spec) if border is None else canonical_form_bordered(spec)] = None
    return list(reps)


def shift_left(a: tuple[int, ...], alpha: int, mod: int) -> tuple[int, ...]:
    """Image under (T_alpha, I): multiplication by alpha^{-1} x^{k-1}."""
    return a[1:] + (a[0] * pow(alpha, -1, mod) % mod,)


def scale(a: tuple[int, ...], lam: int, mod: int) -> tuple[int, ...]:
    """Image under (I, lam I): scaling by the unit lam."""
    return tuple(c * lam % mod for c in a)


def _substitution_exponents(k: int, alpha: int, mod: int) -> list[int]:
    return [s for s in range(1, k) if gcd(s, k) == 1 and pow(alpha, s * (k + 1) - 1, mod) == 1]


def _closure(start, gens) -> set:
    """Breadth-first closure of one state under the generator actions."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = g(v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def _core_maps(spec: CodeSpec, scalar_diagonal_only: bool) -> list:
    """Shifts both ways and the admissible substitutions, as maps on the
    spec's generating vectors; optionally only the substitutions whose
    diagonal part is scalar."""
    alpha, mod, k = spec.alpha, spec.ring.size, len(spec.a)
    maps = [lambda v: shift_right(v, alpha, mod), lambda v: shift_left(v, alpha, mod)]
    maps += [
        lambda v, s=s: substitute(v, alpha, mod, s)
        for s in _substitution_exponents(k, alpha, mod)
        if not scalar_diagonal_only or len(set(_substitution_diagonal(k, alpha, s, mod))) == 1
    ]
    return maps


def orbit(spec: CodeSpec) -> set[tuple[int, ...]]:
    """Orbit of a generating vector, closed one vector at a time under shifts
    both ways, the scalar -1 and the admissible substitutions.  The closed
    forms it applies are checked against the matrix pairs elsewhere.  Only
    +-1 scale, because the other square roots of one (3 and 5 over Z8) are
    not Lee isometries."""
    mod = spec.ring.size
    gens = _core_maps(spec, False) + [lambda v: scale(v, mod - 1, mod)]
    return _closure(spec.a, gens)


def bordered_orbit(spec: CodeSpec) -> set[tuple[tuple, tuple]]:
    """Orbit of a bordered spec's (core, border) pair under core shifts, the
    substitutions whose diagonal part is scalar and simultaneous negation of
    core and border."""
    mod = spec.ring.size
    gens = [lambda st, f=f: (f(st[0]), st[1]) for f in _core_maps(spec, True)]
    gens.append(lambda st: (scale(st[0], mod - 1, mod), scale(st[1], mod - 1, mod)))
    return _closure((spec.a, tuple(spec.border)), gens)


# --- monomial pairs (N, M), acting on circulants by A -> N^{-1} A M --------


def shift_matrix(ring: ChainRing, k: int, alpha: int) -> np.ndarray:
    """T_alpha = cir(0, 1, 0, ..., 0); for k = 1, x = alpha in R[x]/(x - alpha)."""
    if k == 1:
        return np.array([[alpha % ring.size]])
    return cir((0, 1) + (0,) * (k - 2), alpha, ring.size)


def _substitution_diagonal(k: int, alpha: int, s: int, mod: int) -> list[int]:
    """The multiplier alpha^{s i + floor(s i / k)} that x^i picks up under
    x -> (alpha x)^s, for i = 0..k-1."""
    return [pow(alpha, s * i + s * i // k, mod) for i in range(k)]


def generator_pairs(ring: ChainRing, k: int, alpha: int) -> list[tuple[str, tuple]]:
    """The group's generators as dense pairs (N, M): shifts both ways, the
    scalar -1, and (M, M) with M e_i = alpha^{s i + floor(s i / k)} e_{s i}
    for each admissible substitution s."""
    mod = ring.size
    I, T = np.eye(k, dtype=np.int64), shift_matrix(ring, k, alpha)
    pairs = [("shift_right", (I, T)), ("shift_left", (T, I))]
    if mod > 2:
        pairs.append((f"scale_{mod - 1}", (I, (mod - 1) * I)))
    for s in _substitution_exponents(k, alpha, mod):
        M = np.zeros((k, k), dtype=np.int64)
        M[range(k), [s * i % k for i in range(k)]] = _substitution_diagonal(k, alpha, s, mod)
        pairs.append((f"s_map_{s}", (M, M)))
    return pairs


def type_shift(ring: ChainRing, k: int, alpha: int, j: int) -> np.ndarray:
    """diag(1, alpha^j, ..., alpha^{(k-1)j}): conjugation by it turns an
    alpha^i-circulant into an alpha^{i-kj}-circulant."""
    return np.diag([pow(alpha, i * j, ring.size) for i in range(k)])


def act(pair: tuple, spec: CodeSpec) -> np.ndarray:
    """N^{-1} cir(a) M mod q for the spec's generating vector a.  A monomial N
    is inverted by transposing it and inverting its entries: for +-1 entries
    that is the transpose alone."""
    N, M = pair
    mod = spec.ring.size
    N_inv = np.array([[pow(int(x), -1, mod) if x % mod else 0 for x in row] for row in N.T])
    return N_inv @ cir(spec.a, spec.alpha, mod) @ M % mod


def is_alpha_circulant(A: np.ndarray, ring: ChainRing, alpha: int) -> bool:
    """Whether A is the alpha-circulant generated by its first row."""
    A = np.asarray(A) % ring.size
    return np.array_equal(A, cir(tuple(int(x) for x in A[0]), alpha, ring.size))


GRAY = ((0, 0), (0, 1), (1, 1), (1, 0))


def gray_image(word) -> tuple[int, ...]:
    """Gray map Z4 -> Z2^2 per coordinate; carries Lee weight to Hamming weight."""
    return tuple(bit for c in word for bit in GRAY[c % 4])
