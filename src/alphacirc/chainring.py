"""Exact arithmetic in the chain rings Z_{p^m}.

The ring Z_{p^m} has the ideal chain (1) > (p) > (p^2) > ... > (p^m) = (0),
maximal ideal generated by theta = p, minimal ideal (p^{m-1}), and residue
field F_q with q = p.  A :class:`ChainRing` is a plain value descriptor; ring
elements are integers in [0, p^m) and all operations take the descriptor
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class ChainRingError(ValueError):
    """Invalid ring parameters or an element outside its stated domain."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


_NAMES = {"z2": (2, 1), "z4": (2, 2), "z8": (2, 3), "z9": (3, 2)}


@dataclass(frozen=True)
class ChainRing:
    """The ring Z_{p^m}."""

    p: int
    m: int

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ChainRingError(f"p = {self.p} is not prime")
        if self.m < 1:
            raise ChainRingError(f"m = {self.m} must be >= 1")

    @property
    def size(self) -> int:
        return self.p**self.m

    @property
    def name(self) -> str:
        return f"z{self.size}"

    @classmethod
    def from_name(cls, name: str) -> "ChainRing":
        try:
            p, m = _NAMES[name.lower()]
        except KeyError:
            raise ChainRingError(f"unknown ring {name!r}; known: {sorted(_NAMES)}") from None
        return cls(p, m)

    def is_unit(self, x: int) -> bool:
        return gcd(x % self.size, self.p) == 1

    def quotient(self, levels: int = 1) -> "ChainRing":
        """Descriptor of the quotient ring R / (theta^{m-levels}) = Z_{p^{m-levels}}."""
        if not 1 <= levels < self.m:
            raise ChainRingError(f"levels = {levels} must satisfy 1 <= levels < m = {self.m}")
        return ChainRing(self.p, self.m - levels)
