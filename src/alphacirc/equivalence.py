"""Monomial pairs acting on circulant generating vectors, orbit canonical
forms, and necklace enumeration.

A monomial matrix is S(sigma) D with S_{ij} = [i == sigma(j)] and D an
invertible diagonal.  Pairs (N, M) act on circulant matrices by
A -> N^{-1} A M; the generators used here (shifts, the scalar -1 and the
substitution maps f(x) -> f((alpha x)^s)) all preserve alpha-circulant
structure, and with alpha = +-1 their entries are +-1, so they preserve
self-duality and Lee weight as well.  Every element of the group they
generate sends a generating vector a to (mult_j * a_{gather_j})_j; the group
is closed once per (ring, k, alpha, bordered) and cached, and a canonical form
is the lexicographic minimum over the images of a under all of its elements.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterator

import numpy as np

from .chainring import ChainRing, ChainRingError
from .circulant import CircVec, cir, vec_from_matrix


@dataclass(frozen=True)
class MonomialMatrix:
    """S(sigma) D with permutation sigma of {0..k-1} and unit diagonal diag."""

    ring: ChainRing
    sigma: tuple[int, ...]
    diag: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.sigma)
        if sorted(self.sigma) != list(range(k)) or len(self.diag) != k:
            raise ValueError("sigma must be a permutation matching diag in length")
        for d in self.diag:
            if not self.ring.is_unit(d):
                raise ChainRingError(f"diagonal entry {d} is not a unit")

    @property
    def k(self) -> int:
        return len(self.sigma)

    @classmethod
    def identity(cls, ring: ChainRing, k: int) -> "MonomialMatrix":
        return cls(ring, tuple(range(k)), (1,) * k)

    def to_dense(self) -> np.ndarray:
        mod = self.ring.size
        out = np.zeros((self.k, self.k), dtype=np.int64)
        for j in range(self.k):
            out[self.sigma[j], j] = self.diag[j] % mod
        return out

    def compose(self, other: "MonomialMatrix") -> "MonomialMatrix":
        """Matrix product self @ other."""
        mod = self.ring.size
        sigma = tuple(self.sigma[other.sigma[j]] for j in range(self.k))
        diag = tuple(self.diag[other.sigma[j]] * other.diag[j] % mod for j in range(self.k))
        return MonomialMatrix(self.ring, sigma, diag)

    def inverse(self) -> "MonomialMatrix":
        inv_sigma = [0] * self.k
        for j, i in enumerate(self.sigma):
            inv_sigma[i] = j
        diag = tuple(self.ring.inv(self.diag[inv_sigma[j]]) for j in range(self.k))
        return MonomialMatrix(self.ring, tuple(inv_sigma), diag)

    def is_orthogonal(self) -> bool:
        """M M^t = I_k, equivalent to every diagonal entry squaring to 1."""
        return all(d * d % self.ring.size == 1 for d in self.diag)


@dataclass(frozen=True)
class MonomialPair:
    """An element (N, M) of the group acting by A -> N^{-1} A M."""

    N: MonomialMatrix
    M: MonomialMatrix

    def act_matrix(self, A: np.ndarray) -> np.ndarray:
        mod = self.N.ring.size
        Ninv = self.N.inverse().to_dense()
        return Ninv @ np.asarray(A) @ self.M.to_dense() % mod

    def compose(self, other: "MonomialPair") -> "MonomialPair":
        return MonomialPair(self.N.compose(other.N), self.M.compose(other.M))


def act(pair: MonomialPair, a: CircVec) -> CircVec:
    """Generating vector of N^{-1} cir(a) M.

    Raises if the pair does not match a's dimensions or does not preserve
    alpha-circulant structure (i.e. is not a group element for this alpha).
    """
    if pair.N.k != a.k or pair.N.ring != a.ring:
        raise ValueError("monomial pair does not match the vector's algebra")
    return vec_from_matrix(pair.act_matrix(cir(a)), a.ring, a.alpha)


# --- generators -------------------------------------------------------------


def shift_right(a: CircVec) -> CircVec:
    """Image under (I, T_alpha): multiplication by x."""
    last = a.coeffs[-1] * a.alpha % a.ring.size
    return CircVec(a.ring, a.alpha, (last,) + a.coeffs[:-1])


def _check_substitution_args(k: int, alpha: int, s: int, mod: int) -> None:
    if gcd(s, k) != 1 or not 0 <= s < k:
        raise ValueError(f"s = {s} must be in [0, k) and coprime to k = {k}")
    # x -> (alpha x)^s respects x^k = alpha only when alpha^{s(k+1)-1} = 1
    if pow(alpha, s * (k + 1) - 1, mod) != 1:
        raise ValueError(
            f"substitution by s = {s} is not well defined for alpha = {alpha}, k = {k}"
        )


def _substitution_exponents(k: int, alpha: int, mod: int) -> list[int]:
    """The s in [1, k) whose substitution map is well defined."""
    return [s for s in range(1, k) if gcd(s, k) == 1 and pow(alpha, s * (k + 1) - 1, mod) == 1]


def substitute(a: CircVec, s: int) -> CircVec:
    """Closed form of the conjugation sending f(x) to f((alpha x)^s).

    Uses x^k = alpha, so the a_i term lands at position s*i mod k with an
    extra factor alpha^{s*i + floor(s*i / k)}.
    """
    k, mod = a.k, a.ring.size
    _check_substitution_args(k, a.alpha, s, mod)
    out = [0] * k
    for i, ai in enumerate(a.coeffs):
        out[s * i % k] = ai * pow(a.alpha, s * i + s * i // k, mod) % mod
    return CircVec(a.ring, a.alpha, tuple(out))


def s_map_pair(ring: ChainRing, k: int, alpha: int, s: int) -> MonomialPair:
    """The pair (M, M) with M = S(sigma) D realizing f(x) -> f((alpha x)^s).

    sigma(i) = s^{-1} i mod k and D_ii = alpha^{s sigma(i) + floor(s sigma(i) / k)},
    the unique monomial shape (up to a global square-one scalar) solving
    T M = M alpha^s T^s.  Requires alpha^2 = 1, gcd(s, k) = 1 and the
    substitution to be well defined; M is then orthogonal.
    """
    if alpha * alpha % ring.size != 1:
        raise ChainRingError(f"alpha = {alpha} must square to 1")
    _check_substitution_args(k, alpha, s, ring.size)
    s_inv = pow(s, -1, k) if k > 1 else 0
    sigma = tuple(s_inv * i % k for i in range(k))
    diag = tuple(
        pow(alpha, s * sigma[i] + s * sigma[i] // k, ring.size) for i in range(k)
    )
    M = MonomialMatrix(ring, sigma, diag)
    return MonomialPair(M, M)


def type_shift_matrix(ring: ChainRing, k: int, alpha: int, j: int) -> MonomialMatrix:
    """Diagonal matrix diag(1, alpha^j, ..., alpha^{(k-1)j}).

    Conjugation by it turns an alpha^i-circulant into an alpha^{i-kj}-circulant;
    it is orthogonal whenever alpha^2 = 1.
    """
    if not ring.is_unit(alpha):
        raise ChainRingError(f"alpha = {alpha} is not a unit")
    if j < 0:
        raise ValueError("j must be non-negative")
    diag = tuple(pow(alpha, i * j, ring.size) for i in range(k))
    return MonomialMatrix(ring, tuple(range(k)), diag)


def shift_pair_right(ring: ChainRing, k: int, alpha: int) -> MonomialPair:
    from .circulant import t_alpha

    T = _monomial_from_dense(ring, t_alpha(ring, k, alpha))
    return MonomialPair(MonomialMatrix.identity(ring, k), T)


def shift_pair_left(ring: ChainRing, k: int, alpha: int) -> MonomialPair:
    from .circulant import t_alpha

    T = _monomial_from_dense(ring, t_alpha(ring, k, alpha))
    return MonomialPair(T, MonomialMatrix.identity(ring, k))


def scalar_pair(ring: ChainRing, k: int, lam: int) -> MonomialPair:
    I = MonomialMatrix.identity(ring, k)
    return MonomialPair(I, MonomialMatrix(ring, tuple(range(k)), (lam,) * k))


def _monomial_from_dense(ring: ChainRing, A: np.ndarray) -> MonomialMatrix:
    k = A.shape[0]
    sigma = [0] * k
    diag = [0] * k
    for j in range(k):
        col = np.flatnonzero(A[:, j])
        if len(col) != 1:
            raise ValueError("matrix is not monomial")
        sigma[j] = int(col[0])
        diag[j] = int(A[sigma[j], j])
    return MonomialMatrix(ring, tuple(sigma), tuple(diag))


def generator_pairs(ring: ChainRing, k: int, alpha: int) -> list[tuple[str, MonomialPair]]:
    """The group's generators as explicit monomial pairs, for oracle checks."""
    pairs = [
        ("shift_right", shift_pair_right(ring, k, alpha)),
        ("shift_left", shift_pair_left(ring, k, alpha)),
    ]
    if ring.size > 2:
        pairs.append((f"scale_{ring.size - 1}", scalar_pair(ring, k, ring.size - 1)))
    for s in _substitution_exponents(k, alpha, ring.size):
        pairs.append((f"s_map_{s}", s_map_pair(ring, k, alpha, s)))
    return pairs


# --- the group and canonical forms ------------------------------------------

# An element is (gather, mult, border): it sends the core a to
# (mult[j] * a[gather[j]])_j and multiplies a bordered spec's border by `border`.
_Element = tuple[tuple[int, ...], tuple[int, ...], int]


def _monomial(
    f: Callable[[CircVec], CircVec], ring: ChainRing, k: int, alpha: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Gather indices and multipliers of the monomial map f, read off its
    images of the unit vectors."""
    gather, mult = [0] * k, [0] * k
    for i in range(k):
        image = f(CircVec(ring, alpha, tuple(int(j == i) for j in range(k)))).coeffs
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
def _group(
    ring: ChainRing, k: int, alpha: int, bordered: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every group element as rows of gather indices, multipliers and border
    multipliers (cached, read-only).

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
    gens = [(*_monomial(shift_right, ring, k, alpha), 1)]
    for s in _substitution_exponents(k, alpha, mod):
        gather, mult = _monomial(lambda a, s=s: substitute(a, s), ring, k, alpha)
        if not bordered or len(set(mult)) == 1:
            gens.append((gather, mult, 1))
    gens.append((identity[0], (mod - 1,) * k, mod - 1 if bordered else 1))
    elements = {identity}
    frontier = elements
    while frontier:
        frontier = {_compose(h, g, mod) for g in frontier for h in gens} - elements
        elements |= frontier
    arrays = tuple(np.array(column) for column in zip(*elements))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def canonical_form(a: CircVec) -> CircVec:
    """Lexicographically least vector in the orbit of a (index 0 most significant)."""
    gather, mult, _ = _group(a.ring, a.k, a.alpha, False)
    images = mult * np.array(a.coeffs)[gather] % a.ring.size
    return CircVec(a.ring, a.alpha, tuple(min(images.tolist())))


def canonical_form_bordered(
    a: CircVec, border: tuple[int, int, int]
) -> tuple[tuple[int, ...], tuple[int, int, int]]:
    """Canonical (core, border) pair for bordered specs: the least core + border
    over the orbit under core shifts, substitution maps whose diagonal part is
    scalar, and simultaneous negation of core and border."""
    gather, mult, border_mult = _group(a.ring, a.k, a.alpha, True)
    images = np.hstack([mult * np.array(a.coeffs)[gather], np.outer(border_mult, border)])
    best = min((images % a.ring.size).tolist())
    return tuple(best[: a.k]), tuple(best[a.k :])


def necklaces(k: int, q: int) -> Iterator[tuple[int, ...]]:
    """The least rotation of every length-k word over {0..q-1}, in lex order.

    Duval's iteration visits the Lyndon words of length at most k in lex
    order; each one whose length divides k, repeated to length k, is a
    necklace.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    w = [0]
    while w:
        if k % len(w) == 0:
            yield tuple(w * (k // len(w)))
        w = (w * (k // len(w) + 1))[:k]
        while w and w[-1] == q - 1:
            w.pop()
        if w:
            w[-1] += 1
