"""Lee weights and the minimum-distance certifier.

The certifier (after Brouwer and Zimmermann) enumerates the codewords of
G = (I | A) by increasing weight of their message on each information set:
the left half, and, when A A^t = -I, also the right half, which is the
message of the generator -A^t G = (-A^t | I).  With s such sets, once round t
(the messages of weight exactly t) is done on sets 0..i, every codeword not
yet seen weighs at least s t + i + 1, so the best weight found is exact once
it is at most that bound.  An abort threshold returns the first witness
weight below it instead.
"""

from __future__ import annotations

import functools

import numpy as np

from .chainring import ChainRing
from .circulant import CodeSpec, generator_matrix

# message entries per evaluated block; bounds the work arrays (about 4 MB each)
_BLOCK_ENTRIES = 2**19


def lee_table(ring: ChainRing) -> np.ndarray:
    """Lee weight per residue: min(v, |R| - v); for Z4 this is 0,1,2,1."""
    mod = ring.size
    v = np.arange(mod)
    return np.minimum(v, mod - v)


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


def _min_weight(G: np.ndarray, mod: int, wtable: np.ndarray, early_abort_at: int | None) -> int:
    k = G.shape[0]
    if k < 1:
        raise ValueError("need a positive-rank code")
    A = G[:, k:]
    sets = [A]  # per information set: its message times this is the other half
    if np.array_equal(A @ A.T % mod, (mod - 1) * np.eye(k, dtype=A.dtype)):
        sets.append(-A.T % mod)
    sets = np.asarray(sets, dtype=np.float64)  # exact: products stay far below 2^53
    table = tuple(int(w) for w in wtable)
    rows = _BLOCK_ENTRIES // k
    best = max(table) * 2 * k + 1
    for t in range(1, max(table) * k + 1):
        for i, B in enumerate(sets):
            for M in _message_blocks(table, k, t, rows):
                other = (M @ B).astype(np.intp) % mod
                block_min = t + int(wtable[other].sum(axis=1).min())
                if block_min < best:
                    best = block_min
                    if early_abort_at is not None and best < early_abort_at:
                        return best
            if best <= len(sets) * t + i + 1:
                return best
    return best


def min_lee_distance(spec: CodeSpec, early_abort_at: int | None = None) -> int:
    """Exact minimum Lee weight of the code, or a witness weight below the
    abort threshold if one is found first."""
    return _min_weight(generator_matrix(spec), spec.ring.size, lee_table(spec.ring), early_abort_at)


def min_hamming_distance(spec: CodeSpec) -> int:
    """Exact minimum Hamming weight of the code."""
    wtable = (np.arange(spec.ring.size) != 0).astype(np.int64)
    return _min_weight(generator_matrix(spec), spec.ring.size, wtable, None)


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
