"""The equivalence group on circulant generating vectors, orbit canonical
forms, and necklace enumeration.

The paper defines equivalence by monomial pairs (N, M) acting on circulant
matrices by A -> N^{-1} A M.  The pairs used here (shifts, the scalar -1 and
the substitution maps f(x) -> f((alpha x)^s)) preserve alpha-circulant
structure, so each one is a map on generating vectors, given in closed form
on plain tuples by `shift_right` and `substitute`.  Every element of the
group they generate sends a generating vector a to (mult_j * a_{gather_j})_j:
`_group` reads the generators' gather indices and multipliers off their
images of the unit vectors, closes the group once per (ring, k, alpha,
bordered), extends it over a bordered spec's border and caches it.  With
alpha = +-1 every multiplier is +-1, so each element preserves
self-duality and Lee weight.  A canonical form is the
`CodeSpec` whose vector (and border) is the lexicographic minimum over the
images under all of the group's elements.
"""

from __future__ import annotations

import functools
from math import gcd
from typing import Callable, Iterator

import numpy as np

from .chainring import ChainRing, ChainRingError
from .circulant import CodeSpec


# --- generators -------------------------------------------------------------


def shift_right(a: tuple[int, ...], alpha: int, mod: int) -> tuple[int, ...]:
    """Image under (I, T_alpha): multiplication by x."""
    return (a[-1] * alpha % mod,) + a[:-1]


def _substitution_exponents(k: int, alpha: int, mod: int) -> list[int]:
    """The s in [1, k) whose substitution map is well defined: s is coprime
    to k, and x -> (alpha x)^s respects x^k = alpha exactly when
    alpha^{s(k+1)-1} = 1."""
    return [s for s in range(1, k) if gcd(s, k) == 1 and pow(alpha, s * (k + 1) - 1, mod) == 1]


def substitute(a: tuple[int, ...], alpha: int, mod: int, s: int) -> tuple[int, ...]:
    """Closed form of the conjugation sending f(x) to f((alpha x)^s).

    Uses x^k = alpha, so the a_i term lands at position s*i mod k with an
    extra factor alpha^{s*i + floor(s*i / k)}.
    """
    k = len(a)
    if s not in _substitution_exponents(k, alpha, mod):
        raise ValueError(
            f"substitution by s = {s} is not well defined for alpha = {alpha}, k = {k}"
        )
    out = [0] * k
    for i, ai in enumerate(a):
        out[s * i % k] = ai * pow(alpha, s * i + s * i // k, mod) % mod
    return tuple(out)


# --- the group and canonical forms ------------------------------------------

# An element is (gather, mult, border): it sends the core a to
# (mult[j] * a[gather[j]])_j and multiplies a bordered spec's border by `border`.
_Element = tuple[tuple[int, ...], tuple[int, ...], int]


def _monomial(
    f: Callable[[tuple[int, ...]], tuple[int, ...]], k: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Gather indices and multipliers of the monomial map f on length-k
    vectors, read off its images of the unit vectors."""
    gather, mult = [0] * k, [0] * k
    for i in range(k):
        image = f(tuple(int(j == i) for j in range(k)))
        j = next(j for j, c in enumerate(image) if c)
        gather[j], mult[j] = i, image[j]
    return tuple(gather), tuple(mult)


def _compose(h: _Element, g: _Element, mod: int) -> _Element:
    """The element that applies g, then h."""
    (h_gather, h_mult, h_border), (g_gather, g_mult, g_border) = h, g
    return (
        tuple(g_gather[j] for j in h_gather),
        tuple(m * g_mult[j] % mod for j, m in zip(h_gather, h_mult)),
        h_border * g_border % mod,
    )


@functools.cache
def _group(ring: ChainRing, k: int, alpha: int, bordered: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every group element as a row of gather indices and a row of
    multipliers over a spec's coordinates, the k core entries and then the
    border (beta, gamma, delta) of bordered groups (cached, read-only).

    alpha and the only scalar lambda are +-1, so every multiplier is +-1 and
    each element is a signed permutation of coordinates: it preserves
    self-duality and Lee weight.  (The other square roots of one, such as 3
    and 5 over Z8, keep self-duality but not Lee weight.)  Bordered groups keep only the
    substitutions with a scalar diagonal part, which leave the border vectors
    in place, and scale the border together with the core.
    """
    mod = ring.size
    if alpha % mod not in (1, mod - 1):
        raise ChainRingError("canonical forms require alpha = +-1")
    identity = (tuple(range(k)), (1,) * k, 1)
    gens = [(*_monomial(lambda a: shift_right(a, alpha, mod), k), 1)]
    for s in _substitution_exponents(k, alpha, mod):
        gather, mult = _monomial(lambda a, s=s: substitute(a, alpha, mod, s), k)
        if not bordered or len(set(mult)) == 1:
            gens.append((gather, mult, 1))
    gens.append((identity[0], (mod - 1,) * k, mod - 1 if bordered else 1))
    elements = {identity}
    frontier = elements
    while frontier:
        frontier = {_compose(h, g, mod) for g in frontier for h in gens} - elements
        elements |= frontier
    gather, mult, border = (np.array(column) for column in zip(*elements))
    if bordered:  # the border stays in place, scaled by the element's border multiplier
        gather = np.hstack([gather, np.broadcast_to(np.arange(k, k + 3), (len(border), 3))])
        mult = np.hstack([mult, np.repeat(border[:, None], 3, axis=1)])
    for array in (gather, mult):
        array.flags.writeable = False
    return gather, mult


def _least_image(spec: CodeSpec) -> list[int]:
    """The lexicographically least image of the spec's coordinates (core,
    then border) under the group."""
    gather, mult = _group(spec.ring, len(spec.a), spec.alpha, spec.border is not None)
    return min((mult * np.array(spec.a + (spec.border or ()))[gather] % spec.ring.size).tolist())


def canonical_form(spec: CodeSpec) -> CodeSpec:
    """The double spec whose vector is the lexicographically least in the
    orbit of spec.a (index 0 most significant)."""
    if spec.border is not None:
        raise ValueError("a bordered spec takes canonical_form_bordered")
    return CodeSpec(spec.ring, spec.alpha, tuple(_least_image(spec)))


def canonical_form_bordered(spec: CodeSpec) -> CodeSpec:
    """The canonical bordered spec: the least core + border over the orbit
    under core shifts, substitution maps whose diagonal part is scalar, and
    simultaneous negation of core and border."""
    if spec.border is None:
        raise ValueError("a double spec takes canonical_form")
    c, best = len(spec.a), _least_image(spec)
    return CodeSpec(spec.ring, spec.alpha, tuple(best[:c]), tuple(best[c:]))


def necklaces(k: int, q: int, prefixes: bool = False) -> Iterator[tuple[int, ...]]:
    """The least rotation of every length-k word over {0..q-1}, in lex order;
    with `prefixes`, every prenecklace (length-k prefix of a necklace).

    Duval's iteration visits the Lyndon words of length at most k in lex
    order; each one repeated and cut to length k is a prenecklace, and a
    necklace when its length divides k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    w = [0]
    while w:
        period, w = len(w), (w * (k // len(w) + 1))[:k]
        if prefixes or k % period == 0:
            yield tuple(w)
        while w and w[-1] == q - 1:
            w.pop()
        if w:
            w[-1] += 1
