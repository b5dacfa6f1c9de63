"""Self-duality-preserving lifts through the minimal ideal of a chain ring.

Given a self-dual code over R/I (I the minimal ideal of R = Z_{p^m}), every
lift differs from the section-lifted generator matrix G_0 by a perturbation
theta^{m-1} D.  Because I * I = 0, the self-duality condition G G^t = 0
linearizes to

    G_0 G_0^t + theta^{m-1} (G_0 D^t + D G_0^t) = 0,

which is F_q-linear in the ideal parts u of the t coordinates of
`CodeSpec.coords`, the vector and then the border (t = k for double specs,
t = k + 2 for bordered ones).  Column v of the system is G_0 E_v^t +
E_v G_0^t reduced mod theta, E_v = dG/dc_v read off the index layout
`circulant._layout` that also builds G, taken only at the k or 2k - 1 Gram
entries that fix the rest (`build_lift_system` says why that keeps the
solutions).  The module solves the system M u = rhs itself, as the kernel of
(M | -rhs) over F_q; its solutions, an affine subspace of F_q^t, are exactly
the self-dual lifts.  Chaining the step through R/(theta^2), R/(theta^3), ...,
R constructs all self-dual codes over R above a base-field code, and keeping
one lift per orbit of the Lee-isometric group of `equivalence` at each level,
found per parent under the parent's stabilizer by the group's one
least-image routine, leaves one code per equivalence class.
"""

from __future__ import annotations

import functools

import numpy as np

from .chainring import ChainRing, ChainRingError
from .circulant import CodeSpec, _layout, generator_matrix
from .equivalence import _group, _least_images


class BaseNotSelfDual(ValueError):
    """The base code is not self-dual over R/I, so no self-dual lift exists."""


def section_lift_spec(base: CodeSpec, ring: ChainRing, alpha: int) -> CodeSpec:
    """The spec over R whose generator matrix is G_0, the section lift of the
    base: a coordinate equal to the base alpha lifts to `alpha`, every other
    one to its least residue, so lifted alpha-entries stay exactly alpha."""
    if alpha * alpha % ring.size != 1:
        raise ChainRingError(f"alpha = {alpha} is not a square root of 1 in Z_{ring.size}")
    if base.ring != ring.quotient(1):
        raise ValueError("base spec must live over R/I for the target ring R")
    if base.alpha != alpha % base.ring.size:
        raise ValueError("base alpha is not the projection of the target alpha")
    return base.with_coords(ring, alpha, [alpha if c == base.alpha else c for c in base.coords])


@functools.cache
def _slopes(c: int, bordered: bool, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """The decisive Gram entries (r, j) of a spec with a length-c vector, one
    row (r, j) each, and their slopes (E[j], E[r]), where E[:, :, v] = dG/dc_v
    is 1 where `circulant._layout` puts c_v and alpha where it puts alpha c_v
    (cached, read-only)."""
    layout = _layout(c, bordered)
    k, t = len(layout), c + 3 * bordered
    rows, cols = (ix[: k + bordered * (k - 1)] for ix in np.triu_indices(k))
    v, at = np.arange(t), layout[..., None]
    E = (at == 2 + v) + alpha * (at == 2 + t + v)
    entries, slopes = np.stack([rows, cols], axis=1), np.stack([E[cols], E[rows]], axis=1)
    entries.flags.writeable = slopes.flags.writeable = False
    return entries, slopes


def build_lift_system(spec0: CodeSpec) -> tuple[np.ndarray, np.ndarray]:
    """The F_q system (matrix, rhs) of the section lift `spec0`, read off the
    Gram rows that decide it.

    With alpha^2 = 1 the Gram matrix of a double spec is alpha-circulant, so
    its upper triangle repeats row 0; for a bordered spec, rows 0 and 1 hold
    every distinct upper entry (row 0 is the border's, and the rest is delta^2
    plus an alpha-circulant core Gram).  That holds for every lift, so the
    other equations of the upper triangle are copies of these k (double) or
    2k - 1 (bordered) ones: the row space, hence the reduced echelon form and
    the solutions in their order, is the same.  Since theta^{2(m-1)} = 0,
    raising c_v by theta^{m-1} moves the Gram matrix by theta^{m-1}
    (G_0 E_v^t + E_v G_0^t), E_v = dG/dc_v, so column v is that mod p at
    those entries, and the rhs is minus Gram(G_0) / theta^{m-1}.
    """
    ring = spec0.ring
    p, ideal_gen = ring.p, ring.p ** (ring.m - 1)
    entries, slopes = _slopes(len(spec0.a), spec0.border is not None, spec0.alpha)
    G0 = generator_matrix(spec0)[entries]  # rows r and j of G_0 per entry (r, j)
    gram0 = (G0[:, 0] * G0[:, 1]).sum(axis=1) % ring.size
    outside = np.flatnonzero(gram0 % ideal_gen)
    if outside.size:
        (r, j), e = entries[outside[0]], outside[0]
        raise BaseNotSelfDual(f"Gram entry ({r},{j}) = {gram0[e]} is not in the minimal ideal")
    # G_0[r] . E_v[j] + G_0[j] . E_v[r] for every entry (r, j) and coordinate v
    matrix = np.einsum("ebs,ebsv->ev", G0, slopes) % p
    return matrix, -(gram0 // ideal_gen) % p


def solve_lift_system(matrix: np.ndarray, rhs: np.ndarray, q: int) -> np.ndarray:
    """Every solution u of matrix u = rhs over F_q, one per row: the kernel
    vectors (u, 1) of (matrix | -rhs).  In its reduced row echelon form R,
    free column f gives 1 at f and -R[:, f] at the pivots; a pivot in the
    last column means 0 = 1 and no rows.  The last column's vector is the
    particular solution, listed first, plus every combination of the rest."""
    R = np.column_stack([matrix, np.negative(rhs)]).astype(np.int64) % q
    cols = R.shape[1]
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        nonzero = np.flatnonzero(R[r:, c])
        if not nonzero.size:
            continue
        R[[r, r + nonzero[0]]] = R[[r + nonzero[0], r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, q) % q
        factors = R[:, c].copy()
        factors[r] = 0
        R = (R - np.outer(factors, R[r])) % q
        pivots.append(c)
    if cols - 1 in pivots:
        return np.zeros((0, cols - 1), dtype=np.int64)
    free = [c for c in range(cols) if c not in pivots]
    kernel = np.zeros((len(free), cols), dtype=np.int64)
    kernel[np.arange(len(free)), free] = 1
    kernel[:, pivots] = -R[: len(pivots), free].T % q
    particular, basis = kernel[-1, :-1], kernel[:-1, :-1]
    # row i holds the base-q digits of i, most significant first: itertools.product order
    digits = np.arange(q ** len(basis))[:, None] // q ** np.arange(len(basis))[::-1] % q
    return (particular + digits @ basis) % q


def _lift_coords(base: CodeSpec, ring: ChainRing, alpha: int) -> tuple[CodeSpec, np.ndarray]:
    """The section lift of `base` and the lift coordinates of its self-dual
    lifts, one row per solution u of its system: spec0 + theta^{m-1} u."""
    spec0 = section_lift_spec(base, ring, alpha)
    solutions = solve_lift_system(*build_lift_system(spec0), ring.p)
    return spec0, (np.array(spec0.coords) + ring.p ** (ring.m - 1) * solutions) % ring.size


def self_dual_lifts(base: CodeSpec, ring: ChainRing, alpha: int):
    """The self-dual lifts of `base` to `ring` whose alpha is `alpha`: the
    section lift plus theta^{m-1} u for each solution u of its system."""
    spec0, coords = _lift_coords(base, ring, alpha)
    return (spec0.with_coords(ring, alpha, u) for u in coords.tolist())


def _stabilizer_firsts(parent: CodeSpec, coords: np.ndarray, ring: ChainRing, alpha: int):
    """The rows of `coords`, lifts of `parent` to `ring`, that come first in
    their orbit under the stabilizer of the parent, in row order.

    The stabilizer is the elements of `_group` that fix the parent's
    coordinates modulo the parent's ring.  A lift's key is its least image
    under them (`equivalence._least_images`); `np.unique`, a stable sort, finds the firsts.
    """
    gather, mult = _group(ring, len(parent.a), alpha, parent.border is not None)
    below = np.array(parent.coords)
    fixed = ((mult * below[gather] - below) % parent.ring.size == 0).all(axis=1)
    keys = _least_images(coords, gather[fixed], mult[fixed], ring.size)
    return coords[np.sort(np.unique(keys, return_index=True)[1])]


def nested_lift(base: CodeSpec, ring: ChainRing, alpha: int):
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
    below.

    The orbits are found per parent P, under its stabilizer: if g maps a
    lift of P to another lift of P, then g fixes P modulo P's ring.  Lifts
    of different parents never merge, since g would map one parent onto the
    other and the parents are pairwise inequivalent.  So the first lift of
    each stabilizer orbit, parent by parent, is the first lift of each orbit
    of the whole group.  The kept spec is the lift itself, not a canonical
    form, so it still projects to the base.  The target `alpha`, reduced
    mod p^level at each level, must be +-1: the group rejects any other
    square root of one (3 or 5 over Z8), whose shift is no Lee isometry.
    """
    if base.ring.m != 1 or base.ring.p != ring.p:
        raise ValueError("nested lifting starts from a spec over the residue field")
    if base.alpha != alpha % ring.p:
        raise ValueError("base alpha is not the projection of the target alpha")
    current = [base]
    for level in range(2, ring.m + 1):
        target = ChainRing(ring.p, level)
        level_alpha = alpha % target.size
        lifts = []
        for parent in current:
            spec0, coords = _lift_coords(parent, target, level_alpha)
            coords = _stabilizer_firsts(parent, coords, target, level_alpha)
            lifts += (spec0.with_coords(target, level_alpha, u) for u in coords.tolist())
        current = lifts
    yield from current
