"""Self-duality-preserving lifts through the minimal ideal of a chain ring.

Given a self-dual code over R/I (I the minimal ideal of R = Z_{p^m}), every
lift differs from the section-lifted generator matrix G_0 by a perturbation
Delta with entries in I.  Because I * I = 0, the self-duality condition
G G^t = 0 linearizes to

    G_0 G_0^t + G_0 Delta^t + Delta G_0^t = 0,

an F_q-linear system in the t ideal coordinates of the lift vector
(t = k for double specs, t = k + 2 for bordered ones).  Solving it yields an
affine subspace of F_q^t describing exactly the self-dual lifts; chaining
the step through R/(theta^2), R/(theta^3), ..., R constructs all self-dual
codes over R above a base-field code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .chainring import ChainRing
from .circulant import CircVec, CodeSpec, generator_matrix


class BaseNotSelfDual(ValueError):
    """The base code is not self-dual over R/I, so no self-dual lift exists."""


VarName = tuple


def residuals(a: CircVec, ring: ChainRing) -> list[int]:
    """Self-orthogonality residuals (c_0, ..., c_{floor(k/2)}) in R.

    a is the generating vector over R/I; the residuals are computed from its
    section lift e(a) and all lie in the minimal ideal I exactly when the
    base double circulant code is self-dual.  c_j is the j-th entry of the
    first row of I_k + cir(e(a)) cir(e(a))^t.
    """
    if a.ring != ring.quotient(1):
        raise ValueError("vector must live over R/I for the target ring R")
    k, mod = a.k, ring.size
    alpha = ring.alpha if ring.alpha is not None else 1
    e = [ring.section_e(c) for c in a.coeffs]
    out = [(1 + sum(x * x for x in e)) % mod]
    for j in range(1, k // 2 + 1):
        c = sum(alpha * e[i] * e[k - j + i] for i in range(j))
        c += sum(e[i] * e[i - j] for i in range(j, k))
        out.append(c % mod)
    return out


@dataclass(frozen=True)
class LiftSystem:
    """F_q-linear system for the ideal coordinates of a lift vector."""

    matrix: np.ndarray
    rhs: np.ndarray
    q: int
    variables: tuple[VarName, ...]


@dataclass(frozen=True)
class LiftSolutionSet:
    """Affine subspace of F_q^t; empty when particular is None."""

    particular: tuple[int, ...] | None
    basis: tuple[tuple[int, ...], ...]
    q: int

    @property
    def count(self) -> int:
        return 0 if self.particular is None else self.q ** len(self.basis)

    def solutions(self):
        """All vectors of the affine space, the particular solution first."""
        if self.particular is None:
            return
        p = np.array(self.particular, dtype=np.int64)
        B = np.array(self.basis, dtype=np.int64).reshape(len(self.basis), -1)
        for digits in itertools.product(range(self.q), repeat=len(self.basis)):
            u = p.copy()
            for d, vec in zip(digits, B):
                u = (u + d * vec) % self.q
            yield tuple(int(x) for x in u)


def _lift_variables(spec: CodeSpec) -> list[tuple[VarName, list[tuple[int, int, int]]]]:
    """Variables of the lift system with their (row, col, multiplier) positions
    inside the full k x 2k generator matrix."""
    k, alpha = spec.k, spec.alpha
    out = []
    if spec.kind == "double":
        for v in range(k):
            pos = []
            for r in range(k):
                c = (r + v) % k
                pos.append((r, k + c, 1 if c >= r else alpha))
            out.append((("a", v), pos))
    else:
        kk = k - 1
        for v in range(kk):
            pos = []
            for r in range(kk):
                c = (r + v) % kk
                pos.append((1 + r, k + 1 + c, 1 if c >= r else alpha))
            out.append((("a", v), pos))
        out.append((("beta",), [(0, k, 1)]))
        out.append((("gamma",), [(0, k + 1 + c, 1) for c in range(kk)]))
        out.append((("delta",), [(1 + r, k, 1) for r in range(kk)]))
    return out


def section_lift_spec(base: CodeSpec, ring: ChainRing) -> CodeSpec:
    """The spec over R whose generator matrix is G_0 = the e-section lift."""
    if base.ring != ring.quotient(1):
        raise ValueError("base spec must live over R/I for the target ring R")
    alpha = ring.alpha if ring.alpha is not None else 1
    if base.alpha != alpha % base.ring.size:
        raise ValueError("base alpha is not the projection of the target alpha")
    a = tuple(ring.section_e(c) for c in base.a)
    border = None
    if base.border is not None:
        border = tuple(ring.section_e(c) for c in base.border)
    return CodeSpec(base.kind, ring, base.k, alpha, a, border)


def build_lift_system(base: CodeSpec, ring: ChainRing) -> LiftSystem:
    """Assemble the F_q system from the generic Gram expansion.

    One equation per Gram entry (i, j), i <= j; the coefficient of variable v
    is the sum of mult * G_0[other, col] over v's positions in row i or j,
    reduced mod theta (scaling by theta^{m-1} kills everything deeper in the
    chain).  Duplicate equations are left to row reduction.
    """
    spec0 = section_lift_spec(base, ring)
    G0 = generator_matrix(spec0)
    mod, p = ring.size, ring.p
    ideal_gen = p ** (ring.m - 1)
    gram = G0 @ G0.T % mod
    variables = _lift_variables(spec0)
    k = base.k
    rows, rhs = [], []
    for i in range(k):
        for j in range(i, k):
            c = int(gram[i, j])
            if c % ideal_gen:
                raise BaseNotSelfDual(
                    f"Gram entry ({i},{j}) = {c} is not in the minimal ideal"
                )
            row = []
            for _, positions in variables:
                coeff = 0
                for r, col, mult in positions:
                    if r == i:
                        coeff += mult * G0[j, col]
                    if r == j:
                        coeff += mult * G0[i, col]
                row.append(coeff % p)
            rows.append(row)
            rhs.append(-(c // ideal_gen) % p)
    return LiftSystem(
        matrix=np.array(rows, dtype=np.int64),
        rhs=np.array(rhs, dtype=np.int64),
        q=p,
        variables=tuple(name for name, _ in variables),
    )


def solve_lift_system(system: LiftSystem) -> LiftSolutionSet:
    from .gfsolve import solve_affine

    sol = solve_affine(system.matrix, system.rhs, system.q)
    if sol is None:
        return LiftSolutionSet(None, (), system.q)
    particular, basis = sol
    return LiftSolutionSet(
        tuple(int(x) for x in particular),
        tuple(tuple(int(x) for x in v) for v in basis),
        system.q,
    )


def enumerate_lifts(base: CodeSpec, ring: ChainRing, sols: LiftSolutionSet):
    """Yield the self-dual lift specs e(base) + theta^{m-1} u over R."""
    spec0 = section_lift_spec(base, ring)
    mod = ring.size
    ideal_gen = ring.p ** (ring.m - 1)
    nc = len(spec0.a)
    for u in sols.solutions():
        a = tuple((spec0.a[i] + ideal_gen * u[i]) % mod for i in range(nc))
        border = None
        if spec0.border is not None:
            border = tuple(
                (spec0.border[i] + ideal_gen * u[nc + i]) % mod for i in range(3)
            )
        yield CodeSpec(base.kind, ring, base.k, spec0.alpha, a, border)


def self_dual_lifts(base: CodeSpec, ring: ChainRing):
    """Build, solve and enumerate in one step."""
    return enumerate_lifts(base, ring, solve_lift_system(build_lift_system(base, ring)))


def nested_lift(base: CodeSpec, ring: ChainRing):
    """All self-dual specs over R projecting to the base-field spec.

    Runs m - 1 lifting steps through the quotient chain; with m = 1 the base
    itself is the only output.
    """
    if base.ring.m != 1 or base.ring.p != ring.p:
        raise ValueError("nested lifting starts from a spec over the residue field")
    current = [base]
    for level in range(2, ring.m + 1):
        target = ChainRing(
            ring.p,
            level,
            None if ring.alpha is None else ring.alpha % ring.p**level,
        )
        current = [lift for spec in current for lift in self_dual_lifts(spec, target)]
    yield from current
