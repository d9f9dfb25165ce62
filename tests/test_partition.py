"""Winner-count selection, bounded splits and quota rounding.

Brute-force cross checks over the full stated domains live in
test_acceptance.py; these are targeted cases plus structural properties.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from dheac import (
    InvariantViolationError,
    ModelParams,
    ResourceShortageError,
    enum_partitions,
    generate_network,
    quota_round,
    safe_select_k,
)
from dheac import partition
from dheac.netgen import MAX_NODES, demand_to_kreq
from dheac.partition import (
    _PIECE_BYTES,
    _capacity_classes,
    _class_law,
    _class_round,
    _piece_rows,
    _pieces,
    _quota_round_rows,
    count_partitions,
    split_chunks,
)

caps_lists = st.lists(st.integers(1, 30), min_size=1, max_size=10)


def test_symmetric_network_needs_three_winners():
    # target ceil(1.1 * 20) = 22; two bins cover 20, three cover 30
    assert safe_select_k(20, (10, 10, 10, 10), beta=0.1) == 3
    assert safe_select_k(20, (10, 10, 10, 10), beta=0.0) == 2


def test_worst_case_subset_drives_k():
    # every K-subset must cover the target, so the K smallest caps decide
    assert safe_select_k(3, (100, 1, 1, 1), beta=0.1) == 4
    assert safe_select_k(100, (100, 1, 1, 1), beta=0.0) == 4


def test_inflated_target_falls_back_when_infeasible():
    # ceil(1.1 * 5) = 6 exceeds the 5 units available; covering k_req
    # itself still needs both bins
    assert safe_select_k(5, (3, 2), beta=0.1) == 2


@given(caps=caps_lists, data=st.data())
def test_an_overflowing_target_falls_back_like_an_infeasible_one(caps, data):
    # (1 + 1e308) * k_req is inf for k_req >= 2, and above any total at 1
    k_req = data.draw(st.integers(1, sum(caps)))
    assert (safe_select_k(k_req, caps, 1e308)
            == safe_select_k(k_req, caps, 0.0))


def test_inflation_target_is_exact_at_float_dust():
    # 1.1 * 50 evaluates to 55.000000000000007; the target must stay 55
    assert safe_select_k(50, (7, 8, 8, 8, 8, 8, 8, 8), beta=0.1) == 7


def test_shortage_raises():
    with pytest.raises(ResourceShortageError):
        safe_select_k(5, (2, 2), beta=0.0)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        safe_select_k(0, (3, 3))
    with pytest.raises(ValueError):
        safe_select_k(2, (3, 3), beta=-0.1)
    with pytest.raises(ValueError):
        safe_select_k(2, (3, -3))
    with pytest.raises(ValueError):
        safe_select_k(2, ())


def _reference_select_k(k_req, caps, beta=0.0):
    """safe_select_k as it read before its valid path was made lean: every
    cap validated into a tuple of ints first, then the stable ceiling."""
    caps = tuple(caps)
    ints = tuple(map(int, caps))
    if not ints:
        raise ValueError("caps must be non-empty")
    if ints != caps or min(ints) < 0:
        raise ValueError(f"caps must be non-negative integers, got {caps}")
    caps = ints
    if k_req < 1:
        raise ValueError(f"k_req must be >= 1, got {k_req}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    total = sum(caps)
    if total < k_req:
        raise ResourceShortageError(
            f"total capacity {total} cannot cover k_req={k_req}")
    target = (1.0 + beta) * k_req
    if math.isfinite(target):
        f = math.floor(target)
        target = f if target - f <= 1e-9 * max(1.0, abs(target)) else f + 1
    else:
        target = k_req
    if target > total:
        target = k_req
    prefix = 0
    for count, c in enumerate(sorted(caps), start=1):
        prefix += c
        if prefix >= target:
            return count
    raise InvariantViolationError("unreachable: target is at most sum(caps)")


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the outcome is the exception
        return type(exc), str(exc)


_odd_caps = st.one_of(st.integers(-3, 40), st.booleans(),
                      st.sampled_from([1.0, 2.0, 2.5, -1.0, 0.0]),
                      st.floats(allow_nan=True, allow_infinity=True),
                      st.sampled_from([np.int64(3), "3", None]))


@settings(max_examples=500)
@given(caps=st.one_of(st.lists(st.integers(-2, 40), max_size=8),
                      st.lists(_odd_caps, max_size=5)),
       as_tuple=st.booleans(),
       k_req=st.one_of(st.integers(-2, 200), st.sampled_from([2.5, 0.5])),
       beta=st.one_of(st.sampled_from([0.0, 0.1, 0.25, -0.1, -math.inf,
                                       math.inf, math.nan, 1e308]),
                      st.floats(allow_nan=True, allow_infinity=True)))
def test_select_k_answers_and_refuses_as_the_reference_does(caps, as_tuple,
                                                            k_req, beta):
    # the same answer, or the same exception type and message
    caps = tuple(caps) if as_tuple else caps
    assert (_outcome(safe_select_k, k_req, caps, beta)
            == _outcome(_reference_select_k, k_req, caps, beta))


@pytest.mark.parametrize("k_req, caps, beta", [
    (2, (1.0, 2), 0.1), (3, (True, 2, False), 0.0), (1, (), 0.0),
    (2, (3, -1), 0.0), (7, (3, 3), 0.0), (2, (3, 3), math.inf),
    (2, (3, 3), math.nan), (2, (3, 3), -1e-300), (2, [3, 3], 0.1),
    (2, (np.int64(3), 3), 0.1), (2, (2.5, 3), 0.0), (2, ("3", 3), 0.0),
])
def test_select_k_edge_inputs_match_the_reference(k_req, caps, beta):
    assert (_outcome(safe_select_k, k_req, caps, beta)
            == _outcome(_reference_select_k, k_req, caps, beta))


@given(caps=caps_lists, beta=st.sampled_from([0.0, 0.1, 0.25]),
       data=st.data())
def test_select_k_permutation_invariant(caps, beta, data):
    k_req = data.draw(st.integers(1, sum(caps)))
    perm = data.draw(st.permutations(caps))
    assert safe_select_k(k_req, caps, beta) == safe_select_k(k_req, perm, beta)


@given(caps=caps_lists, zeros=st.integers(1, 5), data=st.data())
def test_empty_bins_shift_k_exactly(caps, zeros, data):
    """A zero-capacity QLAN is always part of some worst-case subset, so
    each one added raises the winner count by exactly one."""
    k_req = data.draw(st.integers(1, sum(caps)))
    base = safe_select_k(k_req, caps, beta=0.1)
    padded = list(caps) + [0] * zeros
    assert safe_select_k(k_req, padded, beta=0.1) == base + zeros


@given(caps=caps_lists, data=st.data())
def test_select_k_is_minimal(caps, data):
    k_req = data.draw(st.integers(1, sum(caps)))
    K = safe_select_k(k_req, caps, beta=0.0)
    ordered = sorted(caps)
    assert sum(ordered[:K]) >= k_req
    if K > 1:
        assert sum(ordered[:K - 1]) < k_req


def test_enum_small_cases():
    assert list(enum_partitions(4, (3, 3))) == [(1, 3), (2, 2), (3, 1)]
    assert list(enum_partitions(2, (3, 3))) == [(0, 2), (1, 1), (2, 0)]
    assert list(enum_partitions(0, (3, 3))) == [(0, 0)]
    assert list(enum_partitions(7, (3, 3))) == []


def test_enum_is_lexicographic():
    vecs = list(enum_partitions(6, (4, 4, 4)))
    assert vecs == sorted(vecs)


def test_partition_set_membership():
    omega = enum_partitions(4, (3, 3, 3))
    assert (1, 0, 3) in omega
    assert (4, 0, 0) not in omega
    assert (1, 1, 1) not in omega
    assert len(omega) == count_partitions(4, (3, 3, 3))


@settings(max_examples=150)
@given(k=st.integers(0, 15),
       caps=st.lists(st.integers(0, 6), min_size=1, max_size=4))
def test_enum_matches_product_filter(k, caps):
    got = list(enum_partitions(k, caps))
    want = [v for v in itertools.product(*(range(c + 1) for c in caps))
            if sum(v) == k]
    assert got == want
    assert count_partitions(k, caps) == len(want)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), width=st.integers(1, 8), n_rows=st.integers(1, 3),
       max_rows=st.integers(1, 50))
def test_split_chunks_match_enum_partitions_in_content_and_order(
        data, width, n_rows, max_rows):
    caps = [data.draw(st.lists(st.integers(0, 6), min_size=width,
                               max_size=width)) for _ in range(n_rows)]
    # one k for every row, or one per row
    parts = st.integers(0, max(map(sum, caps)) + 2)
    k = data.draw(parts | st.lists(parts, min_size=n_rows, max_size=n_rows))
    ks = [k] * n_rows if isinstance(k, int) else k
    chunks = list(split_chunks(k, np.array(caps), max_rows, np.int8))
    assert all(1 <= len(owner) == len(vecs) <= max_rows
               and vecs.dtype == np.int8 for owner, vecs in chunks)
    # row after row, each row's splits in the oracle's lexicographic order;
    # k > sum(caps) gives that row nothing
    want = [(row, vec) for row, (row_k, row_caps) in enumerate(zip(ks, caps))
            for vec in enum_partitions(row_k, row_caps)]
    got = [(row, tuple(vec)) for owner, vecs in chunks
           for row, vec in zip(owner.tolist(), vecs.tolist())]
    assert got == want
    # a row's own k gives what one scalar call on that row gives
    for row, (row_k, row_caps) in enumerate(zip(ks, caps)):
        alone = [tuple(vec) for _, vecs in split_chunks(
            row_k, np.array([row_caps]), max_rows, np.int8)
            for vec in vecs.tolist()]
        assert alone == [vec for r, vec in got if r == row]


def test_split_chunks_hold_no_first_level_row_matrix():
    # 100,000 rows of 16 slots, one split each: the first level's rows are
    # zeros that are only copied from, and a (rows, 16) int64 matrix of
    # them would take 12.8 MB
    caps = np.ones((100000, 16), dtype=np.int8)
    tracemalloc.start()
    try:
        n_vectors = sum(len(vecs) for _, vecs in
                        split_chunks(0, caps, 1 << 12, np.int64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_vectors == len(caps)
    assert peak < 8 * caps.size


def test_count_unbounded_reduces_to_stars_and_bars():
    # caps >= k never bind, so the count is C(k + K - 1, K - 1)
    for k, K in [(5, 3), (7, 2), (10, 4)]:
        assert count_partitions(k, (k,) * K) == math.comb(k + K - 1, K - 1)


def test_count_frozen_instance():
    assert count_partitions(12, (13, 6, 4, 3, 2, 2)) == 1147


def test_quota_even_split():
    assert quota_round(20, (10, 10, 10, 10)) == (5, 5, 5, 5)


def test_quota_remainder_goes_to_front_on_ties():
    # all remainders 0.5; equal capacity, so lower positions win
    assert quota_round(22, (10, 10, 10, 10)) == (6, 6, 5, 5)
    # remainders 0.5, 0.75, 0.75; the two capacity-2 bins tie and both
    # precede the capacity-4 bin
    assert quota_round(3, (4, 2, 2)) == (1, 1, 1)


def test_quota_skewed_instance():
    assert quota_round(7, (20, 10, 6, 4)) == (3, 2, 1, 1)


def test_quota_exhausts_network():
    caps = (5, 3, 2)
    assert quota_round(10, caps) == caps


def test_quota_rejects_overdemand():
    with pytest.raises(ResourceShortageError):
        quota_round(11, (5, 3, 2))


@given(caps=caps_lists, data=st.data())
def test_quota_conservation_and_bounds(caps, data):
    k = data.draw(st.integers(1, sum(caps)))
    quotas = quota_round(k, caps)
    assert sum(quotas) == k
    assert all(0 <= q <= c for q, c in zip(quotas, caps))


@given(caps=caps_lists, factor=st.integers(2, 9), data=st.data())
def test_quota_scale_invariant(caps, factor, data):
    """Proportional shares, and therefore the rounding, depend only on
    capacity ratios."""
    k = data.draw(st.integers(1, sum(caps)))
    scaled = [c * factor for c in caps]
    assert quota_round(k, scaled) == quota_round(k, caps)


def _assert_rows_match_scalar(k_req, rows):
    """_quota_round_rows on the rows, laid out slot-major as the kernel
    gathers them, is quota_round row by row."""
    got = _quota_round_rows(k_req, np.array(rows, dtype=np.int64).T.copy())
    assert got.dtype == np.int64
    assert [tuple(row) for row in got.T.tolist()] == [
        quota_round(k_req, row) for row in rows]


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 40), data=st.data())
def test_vectorized_rounding_matches_scalar(width, data):
    # caps 0-12, mostly from a pool of up to three values: zeros and
    # heavy ties
    pool = data.draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))
    cap = st.sampled_from(pool) | st.integers(0, 12)
    rows = data.draw(st.lists(
        st.lists(cap, min_size=width, max_size=width).filter(any),
        min_size=1, max_size=6))
    k_req = data.draw(st.integers(1, min(map(sum, rows))))
    _assert_rows_match_scalar(k_req, rows)


@pytest.mark.parametrize("k_req, caps, residual", [
    # equal shares: the floors hand out every pair
    (10, (4, 4, 4, 4, 4), 0),
    (24, (10, 0, 10, 10), 0),
    # every winner has a remainder, one too few units for them all
    (4, (1, 1, 1, 1, 1), 4),
    (5, (3, 1, 1, 1), 3),
    (39, (1,) * 40, 39),
])
def test_vectorized_rounding_at_residual_zero_and_k_minus_one(
        k_req, caps, residual):
    assert k_req - sum(k_req * c // sum(caps) for c in caps) == residual
    # every distinct arrangement (at most 24), so ties meet every position
    rows = sorted(set(itertools.islice(itertools.permutations(caps), 2000)))
    _assert_rows_match_scalar(k_req, rows[:24])


@settings(max_examples=100, deadline=None)
@given(width=st.integers(1, 6), data=st.data())
def test_vectorized_rounding_matches_scalar_near_the_node_limit(width, data):
    # caps up to 2^20 (netgen.MAX_NODES) beside small ones: six of them
    # keep total * cap_bound * max(K, cap_bound) within 2^62.6, where the
    # docstring's exactness bound is 2^63
    big = st.integers(2 ** 20 - 64, 2 ** 20)
    rows = data.draw(st.lists(
        st.lists(big | st.integers(0, 12), min_size=width,
                 max_size=width).filter(lambda row: max(row) >= 2 ** 20 - 64),
        min_size=1, max_size=6))
    low = min(map(sum, rows))
    k_req = data.draw(st.integers(max(1, low - 64), low) | st.integers(1, low))
    bound = max(map(sum, rows)) * (max(map(max, rows)) + 1)
    assert bound < 2 ** 53 and bound * max(width, 2 ** 20 + 1) < 2 ** 63
    _assert_rows_match_scalar(k_req, rows)


def test_rounding_bounds_hold_at_the_node_limit():
    # the largest row total b, capacity and K a network can hold; the
    # _quota_round_rows docstring needs b * cap_bound < 2^53 and
    # b * cap_bound * max(K, cap_bound) < 2^63
    b = cap = K = MAX_NODES
    cap_bound = cap + 1
    assert b * cap_bound < 2 ** 53
    assert b * cap_bound * max(K, cap_bound) < 2 ** 63


@given(rows=st.integers(0, 300), row_words=st.integers(1, 50),
       budget=st.integers(0, 2048))
def test_pieces_tile_the_rows_in_budget_sized_slices(rows, row_words,
                                                     budget):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partition, "_PIECE_BYTES", budget)
        step = _piece_rows(row_words)
        walk = _pieces(rows, row_words)
        assert iter(walk) is walk  # lazy: an iterator, not a list
        pieces = list(walk)
    lengths = [len(range(rows)[piece]) for piece in pieces]
    assert all(n > 0 for n in lengths)
    assert [i for piece in pieces for i in range(rows)[piece]] == list(
        range(rows))
    assert lengths[:-1] == [step] * (len(pieces) - 1)
    assert not pieces or lengths[-1] <= step


def test_the_default_budget_sets_the_key_window_and_the_build_chunk():
    # estimate_fairness's key window holds one int64 key per drawn row,
    # build_embedded's walk chunks are _piece_rows(2) quota vectors
    assert _PIECE_BYTES == 1 << 20
    assert _piece_rows(1) == 131_072
    assert _piece_rows(2) == 65_536


def test_one_rounding_piece_stays_within_the_piece_budget():
    # one piece of the m = 32, K = 32 kernel at the default max_attempts
    net = generate_network(32, 2.0, 320)
    k_req = demand_to_kreq(0.4, net.total)
    assert safe_select_k(k_req, net.caps, ModelParams().beta) == 32
    rows = _piece_rows(2 * 32 + 32 * (ModelParams().max_attempts + 12))
    caps = np.asarray(net.caps, dtype=np.int64)
    arrangement = np.argsort(np.random.default_rng(3).random((rows, 32)),
                             axis=1)
    # slot-major, as the kernel gathers
    caps_slots = caps.take(arrangement.T)
    tracemalloc.start()
    try:
        _quota_round_rows(k_req, caps_slots)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _PIECE_BYTES


def test_one_class_rounding_piece_stays_within_the_piece_budget():
    # a strided piece of the largest sampled cell's compositions (16
    # classes), rounded under the law of a whole span, as estimate_fairness
    # rounds them
    net = generate_network(32, 1.0, 320)
    k_req = demand_to_kreq(0.1, net.total)
    classes, sizes = _capacity_classes(net.caps)
    n = len(classes)
    K = safe_select_k(k_req, net.caps, ModelParams().beta)
    block = np.random.default_rng(3).multivariate_hypergeometric(
        sizes, K, size=_piece_rows(n + 6)).T.copy()
    law, of = _class_law(k_req, classes, block)
    part = slice(1, 1 + _piece_rows(7 * n))
    tracemalloc.start()
    try:
        floors, extras = _class_round(k_req, classes, block[:, part], law,
                                      of[part])
        floors *= block[:, part]
        floors += extras
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _PIECE_BYTES


def _assert_columns_round_as_scalar(k_req, classes, counts, floors, extras):
    """Each column of the (n, t) tables is quota_round of its winners."""
    assert floors.shape == extras.shape == counts.shape
    for row, f_row, e_row in zip(counts.T, floors.T, extras.T):
        # the winners class by class, members with an extra pair first
        arranged = [int(c) for c, j in zip(classes, row) for _ in range(j)]
        expect = tuple(int(f) + (i < e)
                       for f, e, j in zip(f_row, e_row, row)
                       for i in range(j))
        assert quota_round(k_req, arranged) == expect


@settings(max_examples=200, deadline=None)
@given(caps=st.lists(st.integers(0, 12), min_size=1, max_size=9),
       data=st.data())
def test_class_rounding_matches_scalar(caps, data):
    # columns of winner counts per capacity class, zero capacities included
    classes, sizes = _capacity_classes(caps)
    rows = data.draw(st.lists(
        st.tuples(*(st.integers(0, int(n)) for n in sizes)),
        min_size=1, max_size=6))
    counts = np.array(rows, dtype=np.int64).reshape(len(rows), len(classes))
    counts = np.ascontiguousarray(counts[counts @ classes > 0].T)
    assume(counts.shape[1])
    k_req = data.draw(st.integers(1, int((classes @ counts).min())))
    law, of = _class_law(k_req, classes, counts)
    floors, extras = _class_round(k_req, classes, counts, law, of)
    _assert_columns_round_as_scalar(k_req, classes, counts, floors, extras)


@settings(max_examples=200, deadline=None)
@given(caps=st.lists(st.integers(0, 12), min_size=1, max_size=9),
       data=st.data())
def test_class_rounding_of_a_strided_slice_under_the_whole_law(caps, data):
    # a wide (n, span) block, a law over all of it, and one strided column
    # slice rounded under that law, as estimate_fairness rounds its pieces
    classes, sizes = _capacity_classes(caps)
    cols = data.draw(st.lists(
        st.tuples(*(st.integers(0, int(n)) for n in sizes)),
        min_size=1, max_size=12))
    block = np.array(cols, dtype=np.int64).reshape(len(cols), len(classes))
    block = np.ascontiguousarray(block[block @ classes > 0].T)
    span = block.shape[1]
    assume(span)
    # k_req up to the smallest total, which one column then hands out whole
    low = int((classes @ block).min())
    k_req = data.draw(st.one_of(st.just(low), st.integers(1, low)))
    start = data.draw(st.integers(0, span - 1))
    stop = data.draw(st.integers(start + 1, span))
    step = data.draw(st.integers(1, 3))
    law, of = _class_law(k_req, classes, block)
    part = slice(start, stop, step)
    counts = block[:, part]
    floors, extras = _class_round(k_req, classes, counts, law, of[part])
    _assert_columns_round_as_scalar(k_req, classes, counts, floors, extras)


@settings(max_examples=200, deadline=None)
@given(caps=st.lists(st.integers(0, 12), min_size=1, max_size=9),
       data=st.data())
def test_at_most_one_class_of_a_composition_is_a_boundary(caps, data):
    # leftover pairs go down the classes in rounding order, so only one
    # class can take some of its winners' extras but not all: the forced
    # path and _chain_bounds rely on it
    classes, sizes = _capacity_classes(caps)
    rows = data.draw(st.lists(
        st.tuples(*(st.integers(0, int(n)) for n in sizes)),
        min_size=1, max_size=6))
    counts = np.array(rows, dtype=np.int64).reshape(len(rows), len(classes))
    counts = np.ascontiguousarray(counts[counts @ classes > 0].T)
    assume(counts.shape[1])
    k_req = data.draw(st.integers(1, int((classes @ counts).min())))
    law, of = _class_law(k_req, classes, counts)
    _, extras = _class_round(k_req, classes, counts, law, of)
    boundary = (extras > 0) & (extras < counts)
    assert (boundary.sum(axis=0) <= 1).all()


def _one_composition_cases():
    """(caps, K, k_req) whose K-winner sets all share one composition, with
    every K-subset covering k_req: one class with K <= m, or tied caps and
    empty QLANs at K = m; m <= 9."""
    one_class = st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
        lambda cm: st.integers(1, cm[1]).flatmap(lambda K: st.tuples(
            st.just((cm[0],) * cm[1]), st.just(K),
            st.integers(1, K * cm[0]))))
    every_qlan = st.lists(st.sampled_from((0, 0, 1, 2, 2, 5, 9)), min_size=1,
                          max_size=9).filter(any).flatmap(
        lambda caps: st.tuples(st.just(tuple(caps)), st.just(len(caps)),
                               st.integers(1, sum(caps))))
    return st.one_of(one_class, every_qlan)


@settings(max_examples=200, deadline=None)
@given(case=_one_composition_cases())
def test_every_winner_set_of_one_composition_has_the_forced_bounds(case):
    # _forced_law reads one winner set's chain bounds; every K-subset of
    # such a network must have the same ones
    caps, K, k_req = case
    assert partition._one_composition(caps, K)
    fixed, boundary, extra = partition._forced_law(
        k_req, np.array(caps, dtype=np.int64), K)
    subsets = np.array(list(itertools.combinations(range(len(caps)), K)))
    lo, hi = partition._chain_bounds(caps, k_req, subsets, np.int64)
    assert np.array_equal(lo, fixed[subsets])
    assert np.array_equal(hi, fixed[subsets] + boundary[subsets])
    assert (k_req - fixed[subsets].sum(axis=1) == extra).all()


@pytest.mark.parametrize("lo, hi, k_req, refused", [
    ((3, 3), (3, 3), 6, False),
    # no boundary slot, one pair short
    ((3, 3), (3, 3), 7, True),
    ((2, 2, 1), (2, 3, 2), 6, False),
    # extras for every boundary slot
    ((2, 2, 1), (2, 3, 2), 7, True),
    # floors past k_req
    ((3, 3), (3, 4), 5, True),
], ids=["none", "none-short", "one-of-two", "two-of-two", "negative"])
def test_a_forced_extra_must_leave_a_boundary_slot_free(lo, hi, k_req,
                                                        refused, monkeypatch):
    # 0 <= extra < the winner set's boundary slots, or 0 with none
    monkeypatch.setattr(partition, "_chain_bounds",
                        lambda *args: (np.array([lo]), np.array([hi])))
    caps = np.full(len(lo), 9)
    if refused:
        with pytest.raises(InvariantViolationError, match="conserve k_req"):
            partition._forced_law(k_req, caps, len(lo))
    else:
        assert partition._forced_law(k_req, caps, len(lo))[2] == k_req - sum(lo)


def test_forced_rounding_refuses_rows_that_miss_k_req():
    # floors one too high: each row hands out K pairs too many
    fixed, boundary, extra = partition._forced_law(
        13, np.array((10,) * 8, dtype=np.int64), 2)
    with pytest.raises(InvariantViolationError, match="conserve k_req"):
        partition._forced_round(13, (fixed + 1, boundary, extra),
                                np.array([[0, 1], [5, 2]]))


@pytest.mark.parametrize("classes, column, k_req", [
    # floors 1 and 3 over caps 1 and 2
    ((1, 2), (1, 1), 5),
    # the zero-capacity class as well: floor 5 over cap 4
    ((0, 4), (3, 1), 5),
], ids=["floor-over-cap", "zero-class"])
def test_class_rounding_refuses_a_total_below_k_req(classes, column, k_req):
    classes = np.array(classes, dtype=np.int64)
    counts = np.array(column, dtype=np.int64)[:, None]
    law, of = _class_law(k_req, classes, counts)
    with pytest.raises(InvariantViolationError, match="respect caps"):
        _class_round(k_req, classes, counts, law, of)
