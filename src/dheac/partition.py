"""Winner-count selection, bounded partition enumeration, and the quota law.

These are the deterministic combinatorial kernels of the protocol: choose
the smallest number of lottery winners K that makes every K-subset of QLANs
able to cover the request, enumerate the feasible quota vectors for a given
winner set, and split a request over concrete winners by largest-remainder
rounding under hard capacity caps. ``split_chunks`` is the one array walk
of bounded splits: the quota vectors of many winner sets, or the
capacity-class compositions of the exact fairness oracle.

The quota law lives here alone, in four shapes: ``quota_round`` states it
and its tie rule, ``_quota_round_rows`` applies it to rows of
arrangements, ``_class_round`` to class compositions, and
``_forced_round`` to the arrangements of a network with one composition,
whose ``_forced_law`` is the chain bounds (``_chain_bounds``) of one
winner set, shared by all. Beside it lives the row budget with its walk:
``_PIECE_BYTES`` is the package's one memory setting, ``_piece_rows`` the
rows it holds, and every memory-bounded loop steps by ``_pieces``.

Both array shapes work slot-major, so a step over a row's slots or classes
is a few passes over whole columns, not a short loop per row.
``_quota_round_rows`` needs no per-row argsort: distinct keys rank a row's
slots by the tie rule, and the leftover units go to the slots below the
row's residual-th smallest key. Its floors are truncated float quotients,
exact while k_req * capacity < 2^53 (its docstring gives the argument).
A composition's floors and class order depend only on its capacity total,
so ``_class_law`` computes them once per distinct total of a block, and
``_class_round`` rounds any column slice of that block through one flat
index of rounding order: a gather in, and a scatter of the extras back.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvariantViolationError, ResourceShortageError

_PIECE_BYTES = 1 << 20  # bytes of the temporaries one block piece holds


def _validate_caps(caps) -> tuple[int, ...]:
    caps = tuple(caps)
    ints = tuple(map(int, caps))
    if not ints:
        raise ValueError("caps must be non-empty")
    if ints != caps or min(ints) < 0:
        raise ValueError(f"caps must be non-negative integers, got {caps}")
    return ints


def safe_select_k(k_req: int, caps, beta: float = 0.0) -> int:
    """Smallest K such that every K-subset of QLANs can cover the request.

    The margin beta inflates the coverage target to ceil((1+beta)*k_req)
    when total capacity allows it, and falls back to k_req otherwise (an
    overflow to infinity, from a huge beta, included). The ceiling forgives
    float dust just above an integer: (1 + 0.1) * 20 evaluates to
    22.000000000000004, and a bare ceil would inflate the target by one.
    Because the minimum over K-subsets of the capacity sum is attained by
    the K smallest caps, K is found by scanning ascending prefix sums.

    Raises ResourceShortageError when sum(caps) < k_req.
    """
    try:
        # a tuple of valid caps is read once: its sum is an int only when
        # every cap is an int (a bool counts as its int)
        ordered = sorted(caps) if type(caps) is tuple else None
        total = sum(ordered)
        valid = (type(total) is int and total >= k_req >= 1 and beta >= 0
                 and ordered[0] >= 0)
    except TypeError:
        valid = False
    if not valid:
        # other containers and every error, checked in this order
        ordered = sorted(_validate_caps(caps))
        if k_req < 1:
            raise ValueError(f"k_req must be >= 1, got {k_req}")
        if beta < 0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        total = sum(ordered)
        if total < k_req:
            raise ResourceShortageError(
                f"total capacity {total} cannot cover k_req={k_req}")
    target = (1.0 + beta) * k_req
    if math.isfinite(target):
        floor = math.floor(target)
        target = (floor if target - floor <= 1e-9 * max(1.0, abs(target))
                  else floor + 1)
    else:
        target = k_req
    if target > total:
        target = k_req
    prefix = 0
    for count, c in enumerate(ordered, start=1):
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

    Sliding-window convolution over the caps, O(len(caps) * k); a check
    for tests and a name the bench tracer binds, with no caller here.
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


def _piece_rows(row_words: int) -> int:
    """Rows of one block piece whose temporaries take row_words int64 words
    per row: as many as _PIECE_BYTES holds, and at least one."""
    return max(1, _PIECE_BYTES // (8 * row_words))


def _pieces(rows: int, row_words: int):
    """Consecutive slices that cover range(rows), each _piece_rows(row_words)
    rows long but the last: the one walk of every memory-bounded loop. Lazy,
    and it allocates no array."""
    step = _piece_rows(row_words)
    return (slice(first, min(first + step, rows))
            for first in range(0, rows, step))


def _quota_round_rows(k_req: int, caps: np.ndarray) -> np.ndarray:
    """quota_round applied to each column of a slot-major (K, rows) array
    of winner capacities; the quotas come back in the same layout.

    Matches the scalar function bit for bit, its tie rule included, by a
    threshold instead of a per-row argsort. Slot j of a row gets the key
    j - K * (remainder * cap_bound + capacity), with cap_bound one above
    the largest capacity of the array. Any bound above every capacity of a
    row gives the same order: ascending keys follow quota_round's
    (remainder down, then capacity down, then position up), and the
    position term makes a row's keys distinct. The residual leftover units
    then go to the slots whose key is below the row's residual-th smallest
    (0-based, read from one sort of the keys); residual < K, as quota_round
    shows. A reduction over a row is K - 1 operations on whole columns,
    not one short loop per row.

    A floor is the float quotient of a = k_req * capacity by the row total
    b, truncated. Both are exact in float64, and a / b lies in
    [n, n + 1 - 1/b] for n = a // b; the quotient's rounding error is at
    most a / b * 2^-53, below 1/b while a < 2^53, so it truncates to n. The
    keys are built from these exact floors in int64: the products reach
    k_req * cap_bound^2 and the keys K * b * cap_bound in magnitude. With
    k_req <= b, all three bounds hold while b * cap_bound < 2^53 and
    b * cap_bound * max(K, cap_bound) < 2^63. A network holds at most
    netgen.MAX_NODES = 2^20 nodes and QLANs, so b, K and cap_bound - 1 are
    at most 2^20 and the two products stay below 2^41 and 2^61. A floor
    one off would pass the conservation check below (the residual absorbs
    it), so these bounds, not the check, make the floors right.
    """
    K, rows = caps.shape
    cap_bound = int(caps.max()) + 1
    total = caps.sum(axis=0)
    floors = np.empty_like(caps)
    np.divide(caps * float(k_req), total, out=floors, casting="unsafe")
    residual = k_req - floors.sum(axis=0)
    # remainder * cap_bound + capacity = k_req * capacity * cap_bound
    # + capacity - floor * total * cap_bound
    key = caps * (k_req * cap_bound + 1)
    key -= floors * (total * cap_bound)
    key *= -K
    key += np.arange(K)[:, None]
    # each row's threshold: its sorted keys (a copy, as a one-row or
    # one-slot transpose is already contiguous), read at flat index
    # K * row + residual
    ranked = key.T.copy()
    ranked.sort(axis=1)
    residual += K * np.arange(rows)
    floors += key < ranked.ravel()[residual]
    if not (floors <= caps).all():
        raise InvariantViolationError("rounding must respect caps")
    if not (floors.sum(axis=0) == k_req).all():
        raise InvariantViolationError("rounding must conserve k_req")
    return floors


def _capacity_classes(caps) -> tuple[np.ndarray, np.ndarray]:
    """Distinct capacities in ascending order, and how many QLANs hold each."""
    return np.unique(np.asarray(caps, dtype=np.int64), return_counts=True)


def _class_law(k_req: int, classes: np.ndarray, counts: np.ndarray):
    """The part of _class_round that depends on a composition only through
    its capacity total, computed once per distinct total.

    counts is slot-major, (n, t): column r takes counts[c, r] winners of
    capacity classes[c] (ascending, as _capacity_classes gives them), and
    every column's total must be positive. Returns (law, of): law is two
    (n, totals) tables, one column per distinct total (the floor of each
    class's share, and the classes in quota_round's order), and of[r] is
    the law column of composition r.
    """
    totals, of = np.unique(classes @ counts, return_inverse=True)
    floors, rems = np.divmod(k_req * classes[:, None], totals)
    # descending (remainder, capacity): distinct keys within a column
    order = np.argsort(-(rems * (int(classes[-1]) + 1) + classes[:, None]),
                       axis=0)
    return (floors, order), of


def _class_round(k_req: int, classes: np.ndarray, counts: np.ndarray,
                 law, of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """quota_round over winner compositions, slot-major: one column per
    composition, with the (law, of) that _class_law gives for a block of
    columns that holds these (any column slice of it, strided or not).

    Returns (n, t) floors and extras: each of the counts[c, r] winners of
    class c gets floors[c, r] pairs and extras[c, r] of them one more.
    Leftover pairs go to the classes in quota_round's order. Distinct
    capacities never tie, and the members of a class are exchangeable, so
    quota_round's position tie-break only decides which members get an
    extra pair, not how many do. Every step works on whole rows of the
    (n, t) block through one flat index of rounding order: the counts
    gathered by it, a running sum down the classes, and the extras
    scattered back by it. Raises InvariantViolationError unless every
    quota is within its cap and every column hands out exactly k_req pairs.
    """
    n, t = counts.shape
    # flat gathers need one contiguous int64 block (a copy only of a
    # strided slice or another dtype)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    floors, order = (a.take(of, axis=1) for a in law)
    residual = k_req - (counts * floors).sum(axis=0)
    # ranked[i, r] is the count of column r's i-th class in rounding order
    order *= t
    order += np.arange(t)
    ranked = counts.take(order)
    # a class takes what is left after the winners ranked before it, at
    # most its count (one pass per class: a cumsum down axis 0 is slower)
    before = np.empty_like(ranked)
    before[0] = 0
    for i in range(1, n):
        np.add(before[i - 1], ranked[i - 1], out=before[i])
    np.subtract(residual, before, out=before)
    np.maximum(before, 0, out=before)
    np.minimum(before, ranked, out=before)
    extras = ranked
    extras.reshape(-1)[order] = before
    # a quota can pass its cap only by an extra pair to the zero-capacity
    # class (the first, if there is one), whose floor is always 0, or
    # where a positive floor already reaches its cap
    caps = classes[:, None]
    if ((classes[0] == 0 and extras[0].any())
            or (((law[0] >= caps) & (caps > 0)).any()
                and ((counts > 0) & (floors + (extras > 0) > caps)).any())):
        raise InvariantViolationError("rounding must respect caps")
    if not (extras.sum(axis=0) == residual).all():
        raise InvariantViolationError("rounding must conserve k_req")
    return floors, extras


def _one_composition(caps, K: int) -> bool:
    """Whether every K-winner set of these QLANs has the same composition,
    min(sizes, K) winners per class: one capacity class, or K = m (every
    QLAN wins)."""
    return K == len(caps) or min(caps) == max(caps)


def _forced_law(k_req: int, caps: np.ndarray, K: int):
    """Per-QLAN quota tables (fixed, boundary, extra) of a network whose
    K-winner sets all have one composition (_one_composition), from the
    _chain_bounds of the first K QLANs, which every winner set shares:
    fixed = lo, boundary = hi > lo (at one class every QLAN takes slot 0's)
    and extra = k_req - sum(lo). Raises InvariantViolationError when a
    quota could pass its cap, or unless 0 <= extra < the set's boundary
    slots (extra = 0 with none).
    """
    lo, hi = (np.resize(a[0], len(caps)) for a in _chain_bounds(
        caps, k_req, np.arange(K)[None, :], np.int64))
    boundary = hi > lo
    extra = k_req - int(lo[:K].sum())
    if not (lo + boundary <= caps).all():
        raise InvariantViolationError("rounding must respect caps")
    if not 0 <= extra < max(int(boundary[:K].sum()), 1):
        raise InvariantViolationError("rounding must conserve k_req")
    return lo, boundary, extra


def _forced_round(k_req: int, law, arrangement: np.ndarray) -> np.ndarray:
    """quota_round of each row of a (rows, K) array of QLAN ids, in
    arrangement order, under a _forced_law law: int64 quotas, same layout.
    quota_round breaks a class's ties by position, so the boundary class's
    extra pairs go to its first extra winners along the row. Raises
    InvariantViolationError unless every row hands out exactly k_req pairs.
    """
    fixed, boundary, extra = law
    quotas = fixed.take(arrangement)
    if extra:
        slots = boundary.take(arrangement)
        seen = np.cumsum(slots, axis=1,
                         dtype=np.min_scalar_type(arrangement.shape[1]))
        slots &= seen <= extra
        quotas += slots
    # einsum sums short rows several times faster than sum(axis=1)
    if not (np.einsum("ij->i", quotas) == k_req).all():
        raise InvariantViolationError("rounding must conserve k_req")
    return quotas


def _chain_bounds(caps, k_req: int, subsets: np.ndarray,
                  dtype) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot bounds lo <= v <= hi, (n_subsets, K) in dtype, on the
    quotas the chain rounds each winner subset (covering k_req) to.

    ``_class_round`` gives j_c winners of a class their floor and e_c of
    them one pair more, so lo = floor + (e_c == j_c) and hi = floor +
    (e_c > 0). Leftover pairs go down the classes in rounding order, so at
    most one class is a boundary (0 < e_c < j_c), and only its slots have
    hi > lo. The uniform arrangement gives its extras to a uniform
    e_c-subset: the chain's vectors are lo plus each 0/1 split of
    k_req - sum(lo) over those slots, all equally likely.
    """
    classes, _ = _capacity_classes(caps)
    n = len(classes)
    class_of = np.searchsorted(classes, np.asarray(caps, dtype=np.int64))
    rows, K = subsets.shape
    lo, hi = np.empty((2, rows, K), dtype=dtype)
    # per subset: about six int64 words per slot and eight per class
    for part in _pieces(rows, 6 * K + 8 * n):
        # flat indices into the slot-major (n, t) class tables, one per slot
        slot = class_of[subsets[part]]
        t = len(slot)
        slot *= t
        slot += np.arange(t)[:, None]
        counts = np.bincount(slot.ravel(), minlength=n * t).reshape(n, t)
        law, of = _class_law(k_req, classes, counts)
        floor, extra = (a.ravel()[slot]
                        for a in _class_round(k_req, classes, counts, law, of))
        lo[part] = floor + (extra == counts.ravel()[slot])
        hi[part] = floor + (extra > 0)
    return lo, hi
