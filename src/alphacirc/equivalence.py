"""The equivalence group on circulant generating vectors, orbit canonical
forms, and the words least among their alpha-shifts (`_shift_leaders`), the
base candidates: the alpha-shift is in the group, so each orbit holds one.

The paper defines equivalence by monomial pairs (N, M) acting on circulant
matrices by A -> N^{-1} A M.  The pairs used here (shifts, the scalar -1 and
the substitution maps f(x) -> f((alpha x)^s)) preserve alpha-circulant
structure, so each one is a map on generating vectors, given in closed form
on plain tuples by `shift_right` and `substitute`.  Every element of the
group they generate sends a spec's coordinates c = `CodeSpec.coords` (the
generating vector, then any border) to (mult_j * c_{gather_j})_j: `_group`
reads the generators' gather indices and multipliers off their images of
the unit vectors, closes the group once per (ring, k, alpha, bordered) and
caches it.  With alpha = +-1 every multiplier is +-1, so each element
preserves self-duality and Lee weight.  The one routine that applies group
elements, `_least_images`, gives the least image of each coordinate row:
the canonical forms take it under the whole group, and `lifting` under a
parent's stabilizer.
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

# An element (gather, mult) sends coordinates c to (mult[j] * c[gather[j]])_j.
_Element = tuple[tuple[int, ...], tuple[int, ...]]


def _monomial(f: Callable[[tuple[int, ...]], tuple[int, ...]], t: int) -> _Element:
    """Gather indices and multipliers of the monomial map f on length-t
    vectors, read off its images of the unit vectors."""
    gather, mult = [0] * t, [0] * t
    for i in range(t):
        image = f(tuple(int(j == i) for j in range(t)))
        j = next(j for j, c in enumerate(image) if c)
        gather[j], mult[j] = i, image[j]
    return tuple(gather), tuple(mult)


def _compose(h: _Element, g: _Element, mod: int) -> _Element:
    """The element that applies g, then h."""
    (h_gather, h_mult), (g_gather, g_mult) = h, g
    return (
        tuple(g_gather[j] for j in h_gather),
        tuple(m * g_mult[j] % mod for j, m in zip(h_gather, h_mult)),
    )


@functools.cache
def _group(ring: ChainRing, k: int, alpha: int, bordered: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every group element as a row of gather indices and a row of
    multipliers over `CodeSpec.coords`, the k core entries and then the
    border of bordered groups (cached, read-only).

    Each generator acts on all k + 3 * bordered coordinates: the shift and
    the substitutions leave the border in place, and the scalar -1 scales
    it too.  Bordered groups keep only the substitutions with a scalar
    diagonal part, which leave the border vectors of the matrix in place.
    alpha and the only scalar are +-1, so each element is a signed coordinate
    permutation and keeps self-duality and Lee weight (the other square
    roots of one, such as 3 and 5 over Z8, keep only self-duality).
    """
    mod = ring.size
    if alpha % mod not in (1, mod - 1) or mod > 256:  # `_least_images` returns uint8
        raise ChainRingError(f"canonical forms need |R| <= 256 and alpha = +-1, not {alpha}")
    t = k + 3 * bordered
    gens = [_monomial(lambda c: shift_right(c[:k], alpha, mod) + c[k:], t)]
    for s in _substitution_exponents(k, alpha, mod):
        gather, mult = _monomial(lambda c, s=s: substitute(c[:k], alpha, mod, s) + c[k:], t)
        if not bordered or len(set(mult[:k])) == 1:
            gens.append((gather, mult))
    gens.append((tuple(range(t)), (mod - 1,) * t))
    frontier = elements = {(tuple(range(t)), (1,) * t)}
    while frontier:
        frontier = {_compose(h, g, mod) for g in frontier for h in gens} - elements
        elements |= frontier
    gather, mult = zip(*elements)
    gather = np.array(gather)
    # `_least_images` multiplies in this dtype, the narrowest that holds (mod - 1)^2
    mult = np.array(mult, dtype=np.min_scalar_type((mod - 1) ** 2))
    gather.flags.writeable = mult.flags.writeable = False
    return gather, mult


def _least_images(coords, gather: np.ndarray, mult: np.ndarray, size: int) -> np.ndarray:
    """The lexicographically least image of each row of `coords` under the elements
    (gather, mult) of `_group`, a byte-string key read through a uint8 view (`bytes`
    drops trailing zeros); products are taken in the dtype of `mult` and reduced."""
    images = mult * np.asarray(coords, dtype=mult.dtype)[:, gather] % size
    keys = images.astype(np.uint8, order="C", copy=False).view(f"S{images.shape[2]}")[..., 0]
    return np.sort(keys, axis=1)[:, 0]


def _least_image(spec: CodeSpec) -> list[int]:
    gather, mult = _group(spec.ring, len(spec.a), spec.alpha, spec.border is not None)
    return _least_images([spec.coords], gather, mult, spec.ring.size).view(np.uint8).tolist()


def canonical_form(spec: CodeSpec) -> CodeSpec:
    """The double spec whose vector is the lexicographically least in the
    orbit of spec.a (index 0 most significant)."""
    if spec.border is not None:
        raise ValueError("a bordered spec takes canonical_form_bordered")
    return spec.with_coords(spec.ring, spec.alpha, _least_image(spec))


def canonical_form_bordered(spec: CodeSpec) -> CodeSpec:
    """The canonical bordered spec: the least core + border over the orbit
    under core shifts, substitution maps whose diagonal part is scalar, and
    simultaneous negation of core and border."""
    if spec.border is None:
        raise ValueError("a double spec takes canonical_form")
    return spec.with_coords(spec.ring, spec.alpha, _least_image(spec))


def _shift_leaders(k: int, q: int, alpha: int, block: int) -> Iterator[np.ndarray]:
    """The length-k words over {0..q-1} least among their alpha-shifts (by
    `shift_right`), in lex order, in blocks of uint8 rows.  A word is coded as
    the base-q integer it spells, index 0 first, so its alpha-shift spells
    (alpha (w mod q) mod q) q^(k-1) + (w div q).  A block is the leaders among
    the q^b <= `block` words that share a prefix of length k - b; each prefix
    of a leader is a prenecklace, each suffix at least the prefix of its
    length, so only such prefixes, listed in chunks of `block`, head a block.
    """
    if q**k >= 2**63:
        raise ValueError(f"{q}^{k} words do not fit int64 codes")
    b = next(b for b in range(k, -1, -1) if q**b <= block)
    top = alpha * np.arange(q, dtype=np.int64) % q * q ** (k - 1)
    places = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for start in range(0, q ** (k - b), block):
        heads = np.arange(start, min(start + block, q ** (k - b)), dtype=np.int64)
        for i in range(1, k - b):
            heads = heads[heads % q ** (k - b - i) >= heads // q**i]
        for head in heads.tolist():
            words = shifted = head * q**b + np.arange(q**b, dtype=np.int64)
            for _ in range(k * (1 if alpha % q == 1 else 2) - 1):
                quot, rem = np.divmod(shifted, q)
                shifted = top[rem] + quot
                least = shifted >= words  # drop the words a shift undercuts
                words, shifted = words[least], shifted[least]
            if len(words):
                yield (words[:, None] // places % q).astype(np.uint8)
