"""Winner-count selection, bounded partition enumeration, and quota rounding.

These are the deterministic combinatorial kernels of the protocol: choose
the smallest number of lottery winners K that makes every K-subset of QLANs
able to cover the request, enumerate the feasible quota vectors for a given
winner set, and split a request over concrete winners by largest-remainder
rounding under hard capacity caps. ``split_chunks`` is the one array walk
of bounded splits: the quota vectors of many winner sets, or the
capacity-class compositions of the exact fairness oracle.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvariantViolationError, ResourceShortageError


def _validate_caps(caps) -> tuple[int, ...]:
    caps = tuple(caps)
    ints = tuple(map(int, caps))
    if not ints:
        raise ValueError("caps must be non-empty")
    if ints != caps or min(ints) < 0:
        raise ValueError(f"caps must be non-negative integers, got {caps}")
    return ints


def _ceil_stable(x: float) -> int:
    """Ceiling that forgives float dust just above an integer.

    (1 + 0.1) * 20 evaluates to 22.000000000000004 in binary floating
    point; a bare ceil would inflate the target by one unit.
    """
    f = math.floor(x)
    if x - f <= 1e-9 * max(1.0, abs(x)):
        return f
    return f + 1


def safe_select_k(k_req: int, caps, beta: float = 0.0) -> int:
    """Smallest K such that every K-subset of QLANs can cover the request.

    The margin beta inflates the coverage target to ceil((1+beta)*k_req)
    when total capacity allows it, and falls back to k_req otherwise (an
    overflow to infinity, from a huge beta, included).
    Because the minimum over K-subsets of the capacity sum is attained by
    the K smallest caps, K is found by scanning ascending prefix sums.

    Raises ResourceShortageError when sum(caps) < k_req.
    """
    caps = _validate_caps(caps)
    if k_req < 1:
        raise ValueError(f"k_req must be >= 1, got {k_req}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    total = sum(caps)
    if total < k_req:
        raise ResourceShortageError(
            f"total capacity {total} cannot cover k_req={k_req}")
    target = (1.0 + beta) * k_req
    target = _ceil_stable(target) if math.isfinite(target) else k_req
    if target > total:
        target = k_req
    prefix = 0
    for count, c in enumerate(sorted(caps), start=1):
        prefix += c
        if prefix >= target:
            return count
    raise InvariantViolationError("unreachable: target is at most sum(caps)")


def enum_partitions(k: int, caps) -> tuple[tuple[int, ...], ...]:
    """Enumerate every bounded split of k over the given caps.

    A level walk with both-sided pruning: slot j may take x parts only when
    x <= caps[j] and the slots after it can still absorb the rest, so every
    partial vector extends to at least one split, and the last slot takes
    what is left. Output is the tuple of vectors, lexicographically
    ascending. No vectors (k > sum(caps)) is an empty tuple, not an error.
    """
    caps = _validate_caps(caps)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    # rest[j]: the capacity of the slots after j
    rest = list(itertools.accumulate(caps[:0:-1], initial=0))[::-1]
    if k > sum(caps):
        return ()
    level = [((), k)]
    for c, after in zip(caps[:-1], rest):
        level = [(prefix + (x,), r - x) for prefix, r in level
                 for x in range(max(0, r - after), min(c, r) + 1)]
    return tuple(prefix + (r,) for prefix, r in level)


def split_chunks(k, caps: np.ndarray, max_rows: int, dtype=np.int64):
    """Yield (owner, vectors) chunks of at most max_rows rows: every bounded
    split of k (one int, or one per row) over each row of the (rows, n >= 1)
    caps matrix, in dtype; owners are row indices in the smallest unsigned
    dtype that holds them.

    Owners ascend, each with its splits in ``enum_partitions`` order. Slot
    j of a partial vector with r parts left takes max(0, r - rest_j) <= x
    <= min(caps_j, r), rest_j being the capacity after j: no branch dies,
    and the last slot's one choice, r, is filled in place. Depth first, a
    level branches at most max_rows rows into at most max_rows children
    (unless one row branches wider) and is dropped once all have branched.
    """
    caps = np.asarray(caps)
    k = np.broadcast_to(np.asarray(k, dtype=np.int64), caps.shape[:1])
    n = caps.shape[1]
    owner = np.flatnonzero(caps.sum(axis=1, dtype=np.int64) >= k).astype(
        np.min_scalar_type(len(caps)))
    # parts left in the smallest signed dtype that holds k
    left_type = np.min_scalar_type(-1 - int(k.max(initial=0)))
    # slot-major, so a level gathers from one row, in a dtype that holds
    # n times the largest cap: caps and rest, not an int64 copy of each
    work = np.min_scalar_type(n * int(caps.max(initial=0)))
    caps = caps.T.astype(work)
    rest = np.cumsum(caps[::-1], axis=0, dtype=work)[::-1] - caps
    # the first level's rows are zeros that only a leaf (n = 1) writes to;
    # otherwise they are only copied from, so one zero row stands for all
    first = (np.zeros((len(owner), 1), dtype=dtype) if n == 1 else
             np.broadcast_to(np.zeros(n, dtype=dtype), (len(owner), n)))
    # levels [slot set next, rows, owners, parts left, rows branched]
    stack = ([[0, first, owner, k.astype(left_type)[owner], 0]]
             if len(owner) else [])
    while stack:
        level = stack[-1]
        j, rows, owner, left, done = level
        # every row has a child, so max_rows rows are enough
        part = slice(done, done + max_rows)
        if j == n - 1:
            rows[part, j] = left[part]
            stop = part.stop
        else:
            lo = np.maximum(left[part] - rest[j].take(owner[part]), 0)
            width = np.minimum(caps[j].take(owner[part]), left[part]) - lo + 1
            ends = np.cumsum(width)
            take = max(1, int(np.searchsorted(ends, max_rows, side="right")))
            stop = done + take
            branched = slice(done, stop)
            # child i of a row whose first child is f takes x = lo + i - f
            x = np.arange(ends[take - 1])
            x -= np.repeat((ends - width - lo)[:take], width[:take])
            parent = np.repeat(np.arange(take), width[:take])
            # a take from the branched rows alone (10x faster than indexing):
            # from the whole zero-stride first level it would copy every row
            child = rows[branched].take(parent, axis=0)
            child[:, j] = x
            child_left = left[branched][parent]
            child_left -= x  # x <= left: it fits left's dtype
        level[4] = stop
        if stop >= len(rows):
            stack.pop()
        if j == n - 1:
            yield owner[part], rows[part]
        else:
            stack.append([j + 1, child, owner[branched][parent],
                          child_left, 0])


def count_partitions(k: int, caps) -> int:
    """Number of bounded splits of k over caps, by dynamic programming.

    Sliding-window convolution over the caps, O(len(caps) * k); used to
    size enumerations before materializing them.
    """
    caps = _validate_caps(caps)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    dp = [1] + [0] * k
    for c in caps:
        acc = 0
        ndp = [0] * (k + 1)
        for r in range(k + 1):
            acc += dp[r]
            if r - c - 1 >= 0:
                acc -= dp[r - c - 1]
            ndp[r] = acc
        dp = ndp
    return dp[k]


def quota_round(k_req: int, winner_caps) -> tuple[int, ...]:
    """Split k_req over winners proportionally to capacity, in whole pairs.

    Largest-remainder rounding: each winner gets the floor of its ideal
    share k_req * c_j / C, then the residual leftover units go one each to
    the first winners in order of descending fractional remainder (ties:
    larger capacity, then lower position). All arithmetic is exact (integer
    remainders k_req * c_j mod C), so equal shares compare as equal.

    No unit can pass a cap: a winner with a positive remainder has a floor
    below k_req * c_j / C <= c_j, and since every remainder is below C
    while they sum to residual * C, more than residual winners have one.

    Raises ResourceShortageError when sum(winner_caps) < k_req.
    """
    caps = _validate_caps(winner_caps)
    if k_req < 1:
        raise ValueError(f"k_req must be >= 1, got {k_req}")
    c_total = sum(caps)
    if c_total < k_req:
        raise ResourceShortageError(
            f"winner capacity {c_total} cannot cover k_req={k_req}")
    quotas = [(k_req * c) // c_total for c in caps]
    rems = [(k_req * c) % c_total for c in caps]
    residual = k_req - sum(quotas)
    order = sorted(range(len(caps)), key=lambda j: (-rems[j], -caps[j], j))
    for j in order[:residual]:
        quotas[j] += 1
    return tuple(quotas)
