"""Alpha-circulant matrices and double / bordered circulant code specs.

A generating vector (a_0, ..., a_{k-1}) is identified with the polynomial
sum a_i x^i in R[x]/(x^k - alpha); all circulant arithmetic happens on these
length-k vectors.  Dense matrices (numpy int arrays reduced mod |R|) exist
for oracle checks and for the bordered generator blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chainring import ChainRing, ChainRingError


@dataclass(frozen=True)
class CircVec:
    """Generating vector of an alpha-circulant matrix over a chain ring."""

    ring: ChainRing
    alpha: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.ring.is_unit(self.alpha):
            raise ChainRingError(f"alpha = {self.alpha} is not a unit in Z_{self.ring.size}")
        if len(self.coeffs) < 1:
            raise ChainRingError("generating vector must be non-empty")
        for c in self.coeffs:
            self.ring.elem(c)

    @property
    def k(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class CodeSpec:
    """A double or bordered alpha-circulant code of length n = 2k.

    For kind "double" the right half of the generator matrix is the k x k
    circulant generated by `a`.  For kind "bordered", `a` generates the
    (k-1) x (k-1) circulant core and `border` = (beta, gamma, delta) fills
    the corner, top row and left column of the right half.
    """

    kind: str
    ring: ChainRing
    k: int
    alpha: int
    a: tuple[int, ...]
    border: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("double", "bordered"):
            raise ValueError(f"unknown code kind {self.kind!r}")
        if self.kind == "double":
            if self.border is not None:
                raise ValueError("double circulant specs take no border")
            if len(self.a) != self.k:
                raise ValueError(f"need {self.k} circulant entries, got {len(self.a)}")
        else:
            if self.border is None or len(self.border) != 3:
                raise ValueError(
                    f"bordered circulant specs need a (beta, gamma, delta) border,"
                    f" got {self.border!r}"
                )
            if len(self.a) != self.k - 1:
                raise ValueError(f"need {self.k - 1} core entries, got {len(self.a)}")
            for b in self.border:
                self.ring.elem(b)
        if not self.ring.is_unit(self.alpha):
            raise ChainRingError(f"alpha = {self.alpha} is not a unit in Z_{self.ring.size}")
        for c in self.a:
            self.ring.elem(c)

    @property
    def n(self) -> int:
        return 2 * self.k

    def circ_vec(self) -> CircVec:
        return CircVec(self.ring, self.alpha, self.a)


def cir(v: CircVec) -> np.ndarray:
    """Explicit k x k alpha-circulant matrix generated by v.

    Entry (i, j) is a_{j-i} for j >= i and alpha * a_{k+j-i} below the
    diagonal, so row i is the length-k window of (alpha a | a) starting at
    k - i.
    """
    a = np.array(v.coeffs, dtype=np.int64)
    r = np.arange(v.k)
    return np.concatenate([v.alpha * a % v.ring.size, a])[v.k + r - r[:, None]]


def generator_matrix(spec: CodeSpec) -> np.ndarray:
    """The k x 2k generator matrix (I_k | right half) of the spec."""
    k, mod = spec.k, spec.ring.size
    right = np.zeros((k, k), dtype=np.int64)
    if spec.kind == "double":
        right[:, :] = cir(spec.circ_vec())
    else:
        beta, gamma, delta = spec.border
        right[0, 0] = beta
        right[0, 1:] = gamma
        right[1:, 0] = delta
        right[1:, 1:] = cir(CircVec(spec.ring, spec.alpha, spec.a))
    return np.hstack([np.eye(k, dtype=np.int64), right]) % mod


def gram_matrix(spec: CodeSpec) -> np.ndarray:
    G = generator_matrix(spec)
    return G @ G.T % spec.ring.size


def is_self_dual(spec: CodeSpec) -> bool:
    """Self-duality check: G G^t = 0, i.e. cir(a) cir(a)^t = -I_k for doubles.

    The left half of G is I_k, so the code is free of rank k = n/2 and
    self-orthogonality already implies self-duality.
    """
    return not gram_matrix(spec).any()


def parse_vector(text: str) -> tuple[int, ...]:
    """Parse the comma-separated least-residue serialization, index 0 first."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad vector serialization {text!r}") from None


def format_vector(coeffs: tuple[int, ...]) -> str:
    return ",".join(str(c) for c in coeffs)
