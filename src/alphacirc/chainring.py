"""Exact arithmetic in the chain rings Z_{p^m}.

The ring Z_{p^m} has the ideal chain (1) > (p) > (p^2) > ... > (p^m) = (0),
maximal ideal generated by theta = p, minimal ideal (p^{m-1}), and residue
field F_q with q = p.  A :class:`ChainRing` is a plain value descriptor; ring
elements are integers in [0, p^m) and all operations take the descriptor
explicitly, so a different chain-ring family could be added behind the same
interface later.
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
    """The ring Z_{p^m}, optionally with a distinguished unit alpha, alpha^2 = 1."""

    p: int
    m: int
    alpha: int | None = None

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ChainRingError(f"p = {self.p} is not prime")
        if self.m < 1:
            raise ChainRingError(f"m = {self.m} must be >= 1")
        if self.alpha is not None:
            if not 0 <= self.alpha < self.size:
                raise ChainRingError(f"alpha = {self.alpha} out of range for Z_{self.size}")
            if self.alpha * self.alpha % self.size != 1:
                raise ChainRingError(f"alpha = {self.alpha} does not square to 1 in Z_{self.size}")

    @property
    def size(self) -> int:
        return self.p**self.m

    @property
    def q(self) -> int:
        """Residue field size |R / (theta)|."""
        return self.p

    @property
    def theta(self) -> int:
        """Generator of the maximal ideal."""
        return self.p

    @property
    def name(self) -> str:
        return f"z{self.size}"

    @classmethod
    def from_name(cls, name: str, alpha: int | None = None) -> "ChainRing":
        try:
            p, m = _NAMES[name.lower()]
        except KeyError:
            raise ChainRingError(f"unknown ring {name!r}; known: {sorted(_NAMES)}") from None
        return cls(p, m, alpha)

    def with_alpha(self, alpha: int) -> "ChainRing":
        return ChainRing(self.p, self.m, alpha % self.size)

    def elem(self, value: int) -> int:
        """Checked constructor for a ring element."""
        if not 0 <= value < self.size:
            raise ChainRingError(f"{value} is not a residue in [0, {self.size})")
        return value

    def is_unit(self, x: int) -> bool:
        return gcd(x % self.size, self.p) == 1

    def inv(self, x: int) -> int:
        if not self.is_unit(x):
            raise ChainRingError(f"{x} is not a unit in Z_{self.size}")
        return pow(x, -1, self.size)

    # --- ideal chain -------------------------------------------------------

    def project(self, x: int, levels: int = 1) -> int:
        """Canonical projection onto R / (theta^{m-levels}), i.e. x mod p^{m-levels}."""
        if not 1 <= levels < self.m:
            raise ChainRingError(f"levels = {levels} must satisfy 1 <= levels < m = {self.m}")
        return x % self.p ** (self.m - levels)

    def quotient(self, levels: int = 1) -> "ChainRing":
        """Descriptor of the quotient ring R / (theta^{m-levels})."""
        if not 1 <= levels < self.m:
            raise ChainRingError(f"levels = {levels} must satisfy 1 <= levels < m = {self.m}")
        alpha = None if self.alpha is None else self.project(self.alpha, levels)
        return ChainRing(self.p, self.m - levels, alpha)

    def section_e(self, xbar: int) -> int:
        """Representative section R/I -> R for I the minimal ideal.

        Returns the least non-negative representative, except that the image
        of alpha is sent back to alpha itself, so lifted alpha-entries stay
        exactly alpha.
        """
        if self.m < 2:
            raise ChainRingError("section requires m >= 2")
        qsize = self.p ** (self.m - 1)
        if not 0 <= xbar < qsize:
            raise ChainRingError(f"{xbar} is not an element of Z_{qsize}")
        if self.alpha is not None and xbar == self.alpha % qsize:
            return self.alpha
        return xbar
