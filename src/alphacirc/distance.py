"""Lee weights and the minimum-distance certifier.

The certifier (after Brouwer and Zimmermann) enumerates the codewords of
G = (I | A) by increasing weight of their message on the left half and, for
a self-dual code (A A^t = -I) with no mirror, on the right half, the message
of -A^t G = (-A^t | I).  Once round t (the messages of weight exactly t) is
done, every codeword not yet seen weighs at least t + 1, or 2 t + 2 for a
self-dual code, so the best weight found is exact once it is at most that
bound; an abort threshold returns the first witness weight below it instead.

Each round scores one message per orbit of a group of signed permutations P
of the message coordinates with P A = A P, the automorphisms of the
quasi-cyclic structure (Grassl, "Searching for linear codes with large
minimum distance", 2006).  The codeword (m P | m P A) = (m P | m A P) has the
weight of (m | m A), and P commutes with A^t too, so on the second set
(m P (-A^t) | m P) also keeps its weight: the messages of one orbit have the
same weight on both halves of both sets, for Lee and Hamming weight alike.
So the least message of each orbit stands for all of it, round t still sees
every codeword weight of a weight-t message, and the round bound and the
abort are unchanged.  The group always holds -1.  A double code with
alpha = +-1 adds the powers of the alpha-shift T, (m_0, ..., m_{k-1}) ->
(alpha m_{k-1}, m_0, ..., m_{k-2}); A is a polynomial in T.  A bordered code
with alpha = 1 adds the cyclic shifts of the k - 1 core coordinates with the
first one fixed, which keep the constant border row and column in place.
For any other alpha the shift is no Lee isometry, and -1 is the whole group.
The representatives of each (weight table, k, t, group) are cached.

A block of messages M (one per row) is scored as one float32 product B^t M^t
over the sets scored, B = A on set 0 and A^t on set 1 (-A^t up to a sign,
which no weight sees).  It is exact: an entry is a sum of k products of
residues, at most k (|R| - 1)^2, and a spec for which that is above 2^24 is
refused before any layer is built.  Each entry x is looked up in a cached
table of the weight of x mod |R|, and the k weights of a column are summed.
"""

from __future__ import annotations

import functools

import numpy as np

from .chainring import ChainRing
from .circulant import CodeSpec, generator_matrix

# message entries per evaluated block; bounds the work arrays (about 1 MB each)
_BLOCK_ENTRIES = 2**17

# float32 holds every integer up to 2^24 exactly: the bound on a product entry
_FLOAT32_EXACT = 2**24

# A message group (fixed, wrap): the first `fixed` coordinates stay in place,
# the others shift with multiplier `wrap` on the coordinate that wraps
# around (wrap None: no shift), and the whole message may be negated.
_Group = tuple[int, int | None]


@functools.cache
def lee_table(ring: ChainRing) -> np.ndarray:
    """Lee weight per residue: min(v, |R| - v); for Z4 this is 0,1,2,1
    (cached, read-only)."""
    mod = ring.size
    v = np.arange(mod)
    table = np.minimum(v, mod - v)
    table.flags.writeable = False
    return table


@functools.cache
def _hamming_table(ring: ChainRing) -> np.ndarray:
    """Hamming weight per residue (cached, read-only)."""
    table = (np.arange(ring.size) != 0).astype(np.int64)
    table.flags.writeable = False
    return table


@functools.cache
def _count(table: tuple[int, ...], k: int, t: int) -> int:
    """Number of length-k messages of weight exactly t."""
    return sum(_count(table, k - 1, t - w) for w in table if w <= t) if k else int(t == 0)


def _prepend(v: int, block: np.ndarray) -> np.ndarray:
    return np.hstack([np.full((len(block), 1), v, dtype=np.uint8), block])


@functools.cache
def _layer(table: tuple[int, ...], k: int, t: int) -> np.ndarray:
    """All length-k messages of weight exactly t, one per row (cached, read-only)."""
    if k == 0:
        block = np.zeros((int(t == 0), 0), dtype=np.uint8)
    else:
        block = np.concatenate(
            [_prepend(v, _layer(table, k - 1, t - w)) for v, w in enumerate(table) if w <= t]
        )
    block.flags.writeable = False
    return block


def _message_blocks(table: tuple[int, ...], k: int, t: int, rows: int):
    """The length-k messages of weight t in blocks of at most `rows` rows."""
    count = _count(table, k, t)
    if count <= rows:
        if count:
            yield _layer(table, k, t)
        return
    for v, w in enumerate(table):
        if w <= t:
            for block in _message_blocks(table, k - 1, t - w, rows):
                yield _prepend(v, block)


def _windows(D: np.ndarray, width: int) -> np.ndarray:
    """Every length-`width` window of each row of the uint8 array D, as one
    byte string each (views, not copies): byte strings of equal length
    compare lexicographically, so rows compare as messages."""
    D = np.ascontiguousarray(D)
    return np.ndarray((len(D), D.shape[1] - width + 1), f"S{width}", D, strides=(D.shape[1], 1))


def _orbit_leaders(M: np.ndarray, mod: int, group: _Group) -> np.ndarray:
    """The rows of M that are lexicographically least in their orbit.

    With X the shifted coordinates and Y = -X, the shifts of X are the
    windows of (X | wrap X) and their negations the windows of (Y | wrap Y).
    """
    fixed, wrap = group
    if wrap is not None:
        # unless X is zero, a least row has X ending in a nonzero and, if X
        # has a zero, starting with one: else the shift by one, or one that
        # brings a zero to the front, is smaller
        nz = M[:, fixed:] != 0
        M = M[nz[:, -1] & (~nz[:, 0] | nz.all(axis=1)) | ~nz.any(axis=1)]
    N = (mod - M) % mod
    X, Y = M[:, fixed:], N[:, fixed:]
    k = X.shape[1]
    row = _windows(X, k)
    if wrap is None:
        pos, neg = row[:, :0], _windows(Y, k)
    else:
        wX, wY = (X, Y) if wrap == 1 else (Y, X)
        pos, neg = _windows(np.hstack([X, wX]), k)[:, 1:k], _windows(np.hstack([Y, wY]), k)[:, :k]
    least = (row <= neg).all(axis=1)
    if fixed:
        least = (M[:, 0] < N[:, 0]) | ((M[:, 0] == N[:, 0]) & least)
    return M[least & (row <= pos).all(axis=1)]


@functools.cache
def _representatives(table: tuple[int, ...], k: int, t: int, group: _Group) -> np.ndarray:
    """The length-k messages of weight t that are least in their orbit under
    `group`, one per row (cached, read-only), filtered block by block."""
    blocks = _message_blocks(table, k, t, _BLOCK_ENTRIES // k)
    blocks = [_orbit_leaders(M, len(table), group) for M in blocks]
    layer = np.concatenate(blocks) if blocks else np.zeros((0, k), dtype=np.uint8)
    layer.flags.writeable = False
    return layer


def _automorphisms(spec: CodeSpec) -> _Group:
    """The message group of the spec's code (see the module docstring)."""
    mod = spec.ring.size
    if spec.border is not None:
        return (1, 1) if spec.alpha == 1 else (0, None)
    return (0, spec.alpha) if spec.alpha in (1, mod - 1) else (0, None)


@functools.cache
def _product_weights(table: tuple[int, ...], k: int) -> tuple[np.ndarray, np.dtype]:
    """The weight of x mod |R| for every entry x = 0 .. k (|R| - 1)^2 of a
    scoring product, in a dtype that holds a sum of k weights, and the
    smallest unsigned dtype that holds those x (cached, read-only)."""
    mod = len(table)
    top = k * (mod - 1) ** 2
    weights = np.asarray(table, dtype=np.min_scalar_type(k * max(table)))[np.arange(top + 1) % mod]
    weights.flags.writeable = False
    return weights, np.min_scalar_type(top)


def _has_mirror(spec: CodeSpec) -> bool:
    """Whether the spec's self-dual code has a mirror, a signed reversal J of
    the shifted coordinates with A J A = -J: (u | v) -> (v J | -u J) is then a
    Lee and Hamming isometry that takes each weight-t message of the right
    half to one of the left half.  A shift gives one, x -> x^-1 (it inverts
    T, so A J = J A^t = -J A^-1); a bordered code needs delta = +-gamma too."""
    _, gamma, delta = spec.border or (0, 0, 0)
    return _automorphisms(spec)[1] is not None and delta in (gamma, -gamma % spec.ring.size)


def _min_weight(spec: CodeSpec, wtable: np.ndarray, early_abort_at: int = 0) -> int:
    G, mod, group = generator_matrix(spec), spec.ring.size, _automorphisms(spec)
    k = G.shape[0]
    if k * (mod - 1) ** 2 > _FLOAT32_EXACT:
        raise ValueError(f"k (|R| - 1)^2 = {k * (mod - 1) ** 2} is above 2^24, "
                         f"where a float32 product stops being exact (k = {k}, |R| = {mod})")
    A = G[:, k:]
    self_dual = not (G @ G.T % mod).any()  # G G^t = I + A A^t = 0 iff A A^t = -I
    # per information set its B^t: B^t m^t is the other half of message m
    sets = [A.T, A] if self_dual and not _has_mirror(spec) else [A.T]
    columns = np.concatenate(sets, dtype=np.float32)
    table = tuple(wtable.tolist())
    weights, index = _product_weights(table, k)
    rows = _BLOCK_ENTRIES // k
    best = max(table) * 2 * k + 1
    for t in range(1, max(table) * k + 1):
        layer = _representatives(table, k, t, group)
        for lo in range(0, len(layer), rows):
            block = layer[lo : lo + rows]
            product = (columns @ block.T.astype(np.float32)).astype(index)
            other = weights.take(product).reshape(-1, k, len(block))
            block_min = t + int(other.sum(axis=1, dtype=weights.dtype).min())
            if block_min < best:
                best = block_min
                if best < early_abort_at:
                    return best
        if best <= (2 * t + 2 if self_dual else t + 1):
            return best
    return best


def min_lee_distance(spec: CodeSpec, early_abort_at: int = 0) -> int:
    """Exact minimum Lee weight of the code, or a witness weight below
    `early_abort_at` if one is found first; the default 0 asks for the exact value."""
    return _min_weight(spec, lee_table(spec.ring), early_abort_at)


def min_hamming_distance(spec: CodeSpec) -> int:
    """Exact minimum Hamming weight of the code."""
    return _min_weight(spec, _hamming_table(spec.ring))


def is_doubly_even(spec: CodeSpec) -> bool:
    """All codeword weights divisible by 4.

    With W = G G^t over the integers, wt(x + y) = wt(x) + wt(y) - 2 W_xy for
    rows x, y, so every codeword weight is divisible by 4 exactly when each
    row weight W_xx is and each overlap W_xy is even.
    """
    if spec.ring.size != 2:
        raise ValueError("doubly-even is a binary-code property")
    G = generator_matrix(spec)
    W = G @ G.T
    return not (W % 2).any() and not (np.diag(W) % 4).any()
