"""Self-duality-preserving lifts through the minimal ideal of a chain ring.

Given a self-dual code over R/I (I the minimal ideal of R = Z_{p^m}), every
lift differs from the section-lifted generator matrix G_0 by a perturbation
theta^{m-1} D.  Because I * I = 0, the self-duality condition G G^t = 0
linearizes to

    G_0 G_0^t + theta^{m-1} (G_0 D^t + D G_0^t) = 0,

which is F_q-linear in the t ideal coordinates u of the lift vector a + border
(t = k for double specs, t = k + 2 for bordered ones).  By that linearity,
column v of the system is the change in the upper Gram triangle when
coordinate v of G_0 moves by theta^{m-1}, divided by theta^{m-1} and reduced
mod theta; only `circulant.generator_matrix` knows where a coordinate sits in
G.  Solving the system yields an affine subspace of F_q^t describing exactly
the self-dual lifts; chaining the step through R/(theta^2), R/(theta^3), ...,
R constructs all self-dual codes over R above a base-field code, and keeping
one lift per orbit of the Lee-isometric group of `equivalence` at each level
leaves one code per equivalence class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .chainring import ChainRing
from .circulant import CircVec, CodeSpec, gram_matrix
from .equivalence import canonical_form, canonical_form_bordered


class BaseNotSelfDual(ValueError):
    """The base code is not self-dual over R/I, so no self-dual lift exists."""


@dataclass(frozen=True)
class LiftSystem:
    """F_q-linear system for the ideal coordinates of a lift vector."""

    matrix: np.ndarray
    rhs: np.ndarray
    q: int


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
        dim, t = len(self.basis), len(self.particular)
        digits = np.array(list(itertools.product(range(self.q), repeat=dim)), dtype=np.int64)
        basis = np.array(self.basis, dtype=np.int64).reshape(dim, t)
        yield from map(tuple, ((self.particular + digits @ basis) % self.q).tolist())


def _coords(spec: CodeSpec) -> tuple[int, ...]:
    """The lift coordinates of a spec: its circulant entries, then its border."""
    return spec.a + (spec.border or ())


def _with_coords(spec: CodeSpec, ring: ChainRing, alpha: int, coords) -> CodeSpec:
    """The spec of the same shape over `ring` whose lift coordinates are `coords`."""
    nc = len(spec.a)
    border = None if spec.border is None else tuple(coords[nc:])
    return CodeSpec(spec.kind, ring, spec.k, alpha, tuple(coords[:nc]), border)


def section_lift_spec(base: CodeSpec, ring: ChainRing) -> CodeSpec:
    """The spec over R whose generator matrix is G_0 = the e-section lift."""
    if base.ring != ring.quotient(1):
        raise ValueError("base spec must live over R/I for the target ring R")
    alpha = ring.alpha if ring.alpha is not None else 1
    if base.alpha != alpha % base.ring.size:
        raise ValueError("base alpha is not the projection of the target alpha")
    coords = [ring.section_e(c) for c in _coords(base)]
    return _with_coords(base, ring, alpha, coords)


def build_lift_system(base: CodeSpec, ring: ChainRing) -> LiftSystem:
    """Assemble the F_q system from Gram differences.

    One equation per Gram entry (i, j), i <= j, of the section lift G_0.
    Column v is (Gram of G_0 with coordinate v raised by theta^{m-1}) minus
    (Gram of G_0), divided by theta^{m-1} and reduced mod theta; the rhs is
    minus Gram(G_0) / theta^{m-1}.  Duplicate equations are left to row
    reduction.
    """
    spec0 = section_lift_spec(base, ring)
    mod, p = ring.size, ring.p
    ideal_gen = p ** (ring.m - 1)
    upper = np.triu_indices(base.k)
    gram0 = gram_matrix(spec0)[upper]
    outside = np.flatnonzero(gram0 % ideal_gen)
    if outside.size:
        e = outside[0]
        raise BaseNotSelfDual(
            f"Gram entry ({upper[0][e]},{upper[1][e]}) = {gram0[e]} is not in the minimal ideal"
        )
    coords0 = _coords(spec0)
    columns = []
    for v in range(len(coords0)):
        coords = list(coords0)
        coords[v] = (coords[v] + ideal_gen) % mod
        gram_v = gram_matrix(_with_coords(spec0, ring, spec0.alpha, coords))[upper]
        # both Grams lie in I, so the difference divides exactly
        columns.append((gram_v - gram0) // ideal_gen % p)
    return LiftSystem(
        matrix=np.stack(columns, axis=1),
        rhs=-(gram0 // ideal_gen) % p,
        q=p,
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
    coords0 = _coords(spec0)
    for u in sols.solutions():
        coords = [(c + ideal_gen * x) % mod for c, x in zip(coords0, u)]
        yield _with_coords(spec0, ring, spec0.alpha, coords)


def self_dual_lifts(base: CodeSpec, ring: ChainRing):
    """Build, solve and enumerate in one step."""
    return enumerate_lifts(base, ring, solve_lift_system(build_lift_system(base, ring)))


def _one_per_orbit(specs):
    """The first spec of each orbit of the cached group, in input order."""
    seen = set()
    for spec in specs:
        v = CircVec(spec.ring, spec.alpha, spec.a)
        if spec.border is None:
            key = canonical_form(v).coeffs
        else:
            key = canonical_form_bordered(v, spec.border)
        if key not in seen:
            seen.add(key)
            yield spec


def nested_lift(base: CodeSpec, ring: ChainRing):
    """One self-dual spec over R per equivalence class of those projecting
    to the base-field spec.

    Runs m - 1 lifting steps through the quotient chain; with m = 1 the base
    itself is the only output.  After each step only the first lift of each
    orbit of the group of `equivalence._group` (shifts, substitutions and
    the scalars +-1, all Lee isometries) is kept, in solution order, so the
    outputs are pairwise inequivalent and every self-dual preimage of the
    base is equivalent to one of them.  Pruning an intermediate level drops
    only copies: an element of the group maps the self-dual lifts of L onto
    those of its image, and the group of each level projects onto the one
    below.  The kept spec is the lift itself, not its canonical form, so it
    still projects to the base.  The target's alpha must be +-1: canonical
    forms reject any other square root of one (3 or 5 over Z8), whose shift
    is no Lee isometry.
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
        lifts = (lift for spec in current for lift in self_dual_lifts(spec, target))
        current = list(_one_per_orbit(lifts))
    yield from current
