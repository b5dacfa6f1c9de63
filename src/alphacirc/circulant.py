"""Double and bordered alpha-circulant code specs and their matrices.

A generating vector (a_0, ..., a_{k-1}) is identified with the polynomial
sum a_i x^i in R[x]/(x^k - alpha); all circulant arithmetic happens on these
plain length-k tuples.  `CodeSpec` is the one code value: the ring, alpha,
the generating vector and, for bordered codes, the border.  Dense matrices
(numpy int arrays reduced mod |R|) exist for the generator matrix and for
oracle checks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chainring import ChainRing, ChainRingError


@dataclass(frozen=True)
class CodeSpec:
    """A double or bordered alpha-circulant code over a chain ring.

    With no border, `a` generates the k x k alpha-circulant right half of
    the generator matrix, so a spec is also the generating vector of one
    alpha-circulant matrix.  With `border` = (beta, gamma, delta), `a`
    generates the (k-1) x (k-1) circulant core, and the border fills the
    corner, top row and left column of the right half.
    """

    ring: ChainRing
    alpha: int
    a: tuple[int, ...]
    border: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        size = self.ring.size
        if not 0 <= self.alpha < size or not self.ring.is_unit(self.alpha):
            raise ChainRingError(f"alpha = {self.alpha} is not a unit of Z_{size} in [0, {size})")
        if len(self.a) < 1:
            raise ChainRingError("generating vector must be non-empty")
        if self.border is not None and len(self.border) != 3:
            raise ValueError(f"a border is (beta, gamma, delta), got {self.border!r}")
        if not 0 <= min(self.coords) <= max(self.coords) < size:
            bad = next(c for c in self.coords if not 0 <= c < size)
            raise ChainRingError(f"{bad} is not a residue in [0, {size})")

    @property
    def coords(self) -> tuple[int, ...]:
        """The core, then the border: what lifting solves for and the group permutes."""
        return self.a + (self.border or ())

    def with_coords(self, ring: ChainRing, alpha: int, coords) -> "CodeSpec":
        """The spec of the same shape over `ring` and `alpha` whose coordinates are `coords`."""
        c = len(self.a)
        border = None if self.border is None else tuple(coords[c:])
        return CodeSpec(ring, alpha, tuple(coords[:c]), border)

    @property
    def k(self) -> int:
        return len(self.a) + (self.border is not None)

    @property
    def n(self) -> int:
        return 2 * self.k


@functools.cache
def _layout(c: int, bordered: bool) -> np.ndarray:
    """Where each entry of the generator matrix of a spec with a length-c
    vector comes from (cached, read-only): G = ext[layout] with
    ext = (0, 1, coords, alpha * coords mod |R|), the t = c + 3 bordered
    coordinates of `CodeSpec.coords`.

    The core's entry (i, j) is a_{j-i} for j >= i and alpha * a_{c+j-i}
    below the diagonal; a border puts beta in the corner, gamma along the
    top row and delta down the left column of the right half.
    """
    k, t = c + bordered, c + 3 * bordered
    layout = np.zeros((k, 2 * k), dtype=np.intp)
    layout.flat[:: 2 * k + 1] = 1  # the diagonal of I_k
    if bordered:
        layout[0, k], layout[0, k + 1:], layout[1:, k] = 2 + c, 3 + c, 4 + c
    r = np.arange(c)
    shift = r - r[:, None]  # j - i
    layout[bordered:, k + bordered:] = np.where(shift >= 0, 2 + shift, 2 + t + c + shift)
    layout.flags.writeable = False
    return layout


def _entries(coords, alpha: int, mod: int) -> np.ndarray:
    """ext = (0, 1, coords, alpha * coords mod `mod`), the values `_layout` indexes."""
    return np.array((0, 1, *coords, *(alpha * c % mod for c in coords)), dtype=np.int64)


def cir(a: tuple[int, ...], alpha: int, mod: int) -> np.ndarray:
    """Explicit k x k alpha-circulant matrix generated by a, over Z_mod.

    Entry (i, j) is a_{j-i} for j >= i and alpha * a_{k+j-i} below the
    diagonal: the right half of the double spec's generator matrix.
    """
    k = len(a)
    return _entries(a, alpha, mod)[_layout(k, False)[:, k:]]


def generator_matrix(spec: CodeSpec) -> np.ndarray:
    """The k x 2k generator matrix (I_k | right half) of the spec, one gather
    through `_layout`.  Its entries are the spec's, which are already
    reduced mod |R|."""
    ext = _entries(spec.coords, spec.alpha, spec.ring.size)
    return ext[_layout(len(spec.a), spec.border is not None)]


def is_self_dual(spec: CodeSpec) -> bool:
    """Self-duality check: G G^t = 0, i.e. cir(a) cir(a)^t = -I_k for doubles.

    The left half of G is I_k, so the code is free of rank k = n/2 and
    self-orthogonality already implies self-duality.
    """
    G = generator_matrix(spec)
    return not (G @ G.T % spec.ring.size).any()


def self_dual_mask(
    ring: ChainRing,
    alpha: int,
    words: list[tuple[int, ...]],
    borders: list[tuple[int, int, int]] | None = None,
) -> np.ndarray:
    """`is_self_dual` for a block of words at once, from their row-0
    autocorrelations.

    mask[i] says whether CodeSpec(ring, alpha, words[i]) is self-dual; with
    `borders`, mask[i, b] says it for CodeSpec(ring, alpha, words[i], borders[b]).

    Row 0 decides: with P the alpha-shift, cir(a) = a(P), and alpha^2 = 1
    makes P a signed permutation, so P^t = P^{-1} = alpha P^{k-1}.  Then
    A A^t is again a polynomial in P, an alpha-circulant matrix fixed by its
    first row c_j = a . row_j(A), the autocorrelation of a under the
    alpha-shift.  A double code (I | A) is self-dual iff A A^t = -I, i.e.
    c_0 = -1 and c_j = 0 for 1 <= j < k.

    A bordered right half [[beta, gamma 1^t], [delta 1, A]] with a
    circulant core A of length c = k - 1 (alpha = 1, so every row of A sums
    to sum(a)) is self-dual iff
        1 + beta^2 + c gamma^2 = 0,  beta delta + gamma sum(a) = 0,
        c_0 = -1 - delta^2  and  c_j = -delta^2 for j >= 1.
    """
    mod = ring.size
    if alpha * alpha % mod != 1 or (borders is not None and alpha % mod != 1):
        raise ValueError(
            f"the row-0 test needs alpha^2 = 1, and alpha = 1 with a border; got alpha = {alpha}"
        )
    a = np.array(words, dtype=np.int64)
    c = a.shape[1]
    windows = np.lib.stride_tricks.sliding_window_view(np.hstack([alpha * a % mod, a]), c, axis=1)
    # row j of cir(a) is the window starting at c - j; the identity adds 1 to c_0
    corr = (np.einsum("nt,njt->nj", a, windows[:, c:0:-1]) + np.eye(1, c, dtype=np.int64)) % mod
    if borders is None:
        return ~corr.any(axis=1)
    beta, gamma, delta = np.array(borders, dtype=np.int64).T
    core = np.stack([(corr == -d * d % mod).all(axis=1) for d in range(mod)], axis=1)
    corner = (1 + beta * beta + c * gamma * gamma) % mod == 0
    edge = (beta * delta + np.outer(a.sum(axis=1), gamma)) % mod == 0
    return core[:, delta] & corner & edge


def parse_vector(text: str) -> tuple[int, ...]:
    """Parse the comma-separated least-residue serialization, index 0 first."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad vector serialization {text!r}") from None


def format_vector(coeffs: tuple[int, ...]) -> str:
    return ",".join(str(c) for c in coeffs)
