"""Monte-Carlo lottery chain: sampling, delivery accounting, fairness.

Loss-free runs make every attempt count equal one, so attempt totals and
latencies become exact integers and the tests can pin them down without
tolerances. Lossy behaviour is checked statistically under frozen seeds.
"""

import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from dheac import (
    LATENCY_MODES,
    CapacityError,
    InvariantViolationError,
    ModelParams,
    NetworkConfig,
    Request,
    estimate_fairness,
    evaluate_point,
    exact_node_probs,
    generate_network,
    jain_index,
    quota_round,
    simulate_batch,
    trial_rng,
)
from dheac import lottery, partition
from dheac.analytics import ancilla_bits
from dheac.lottery import (
    _BLOCK_BYTES,
    _block_rows,
    _delivery_law,
    run_trial,
    sample_inner,
    sample_rounds,
)
from dheac.netgen import demand_to_kreq
from dheac.partition import (
    _capacity_classes,
    _class_law,
    _class_round,
    safe_select_k,
)

SYM = NetworkConfig.from_caps((3, 3, 3, 3))
LOSSFREE = ModelParams(q=0.0)
LOSSY = ModelParams(q=0.10)


def test_trial_rng_is_counter_deterministic():
    a = trial_rng(42, 7).random(4)
    b = trial_rng(42, 7).random(4)
    c = trial_rng(42, 8).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_inner_empty_quota():
    assert sample_inner(5, 0, trial_rng(0)) == ()


def test_run_trial_lossfree_accounting():
    # K=2 winners with quotas (2,2); stage 1 ships 4 selection qubits
    # optimistically, 4+8 conservatively
    opt = run_trial(SYM, Request(4), LOSSFREE, "optimistic", trial_rng(3))
    cons = run_trial(SYM, Request(4), LOSSFREE, "conservative", trial_rng(3))
    assert opt.succeeded and cons.succeeded
    assert opt.attempts_total == 2 + 4
    assert cons.attempts_total == 4 + 8 + 4
    assert opt.latency == pytest.approx(6.30)
    assert cons.latency == pytest.approx(6.70)
    assert opt.winners == cons.winners
    assert opt.quotas == cons.quotas == (2, 2)


def test_run_trial_is_deterministic():
    a = run_trial(SYM, Request(4), LOSSY, "conservative", trial_rng(11, 2))
    b = run_trial(SYM, Request(4), LOSSY, "conservative", trial_rng(11, 2))
    assert a == b


@settings(max_examples=50)
@given(m=st.integers(1, 8), skew=st.floats(0.0, 2.0), seed=st.integers(0, 99),
       data=st.data())
def test_run_trial_invariants(m, skew, seed, data):
    net = generate_network(m, skew, 8 * m)
    k_req = data.draw(st.integers(1, net.total))
    out = run_trial(net, Request(k_req), LOSSY, "conservative",
                    trial_rng(seed))
    assert out.winners == tuple(sorted(out.winners))
    assert sum(out.quotas) == k_req
    assert all(q <= net.caps[i] for i, q in zip(out.winners, out.quotas))
    assert all(len(nodes) == q
               for nodes, q in zip(out.winning_nodes, out.quotas))
    for i, nodes in zip(out.winners, out.winning_nodes):
        assert all(0 <= v < net.caps[i] for v in nodes)
        assert len(set(nodes)) == len(nodes)


def test_batch_lossfree_matches_closed_form_exactly():
    rec = evaluate_point(SYM.caps, 4, LOSSFREE)
    for mode, lat in (("optimistic", rec.L_d_optimistic),
                      ("conservative", rec.L_d_conservative)):
        stats = simulate_batch(SYM, Request(4), LOSSFREE, mode, 500,
                               trial_rng(9))
        assert stats.success_rate == 1.0
        assert stats.latency_mean == pytest.approx(lat, rel=1e-12)
        # constant latency: the standard error is zero up to rounding
        assert stats.latency_se == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("q, M", [(0.0, 1), (0.0, 3), (0.05, 1), (0.15, 3),
                                  (0.5, 7), (0.9, 2)])
def test_delivery_law_is_a_pmf_with_the_closed_form_mean(q, M):
    pvals, cost = _delivery_law(q, M)
    assert pvals.shape == cost.shape == (M + 1,)
    assert (pvals >= 0).all()
    assert math.fsum(pvals) == pytest.approx(1.0, abs=1e-15)
    assert list(cost) == list(range(1, M + 1)) + [M]
    expected = ModelParams(q=q, max_attempts=M).expected_attempts
    assert math.fsum(pvals * cost) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("mode", ["optimistic", "conservative"])
def test_batch_single_winner_latency_matches_closed_form(mode):
    # one winner carries the whole request, so the stage-2 maximum is a
    # single block sum and both stages have mean a * (qubit count)
    net = NetworkConfig.from_caps((10, 10, 10))
    k_req = 4
    params = ModelParams(q=0.3, max_attempts=3)
    assert safe_select_k(k_req, net.caps, params.beta) == 1
    n_stage1 = net.m + (ancilla_bits(net.caps) if mode == "conservative" else 0)
    expect = (2 * (params.t_gen + params.t_meas)
              + params.t_dist * params.expected_attempts * (n_stage1 + k_req))
    stats = simulate_batch(net, Request(k_req), params, mode, 20000,
                           trial_rng(41))
    assert stats.latency_se > 0
    assert abs(stats.latency_mean - expect) < 5 * stats.latency_se


def test_batch_memory_stays_within_block_budget_at_large_m():
    net = generate_network(1024, 1.0, 10240)
    k_req = demand_to_kreq(0.4, net.total)
    params = ModelParams()
    K = safe_select_k(k_req, net.caps, params.beta)
    rows = _block_rows(net.m, K, params.max_attempts)
    trials = 2 * rows + 1
    tracemalloc.start()
    try:
        stats = simulate_batch(net, Request(k_req), params, "conservative",
                               trials, trial_rng(43))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _BLOCK_BYTES


def test_kernel_refuses_a_max_attempts_beyond_the_block_budget():
    params = ModelParams(q=0.05, max_attempts=10 ** 7)
    # raised on the call, before the caller iterates or anything is drawn
    with pytest.raises(CapacityError, match="max_attempts=10000000"):
        sample_rounds(SYM, Request(4), params, 2, trial_rng(1))
    # at the default max_attempts every m <= 32 point keeps full blocks
    assert _block_rows(32, 32, 3) == lottery._BLOCK


def test_block_budget_refusal_names_each_way_down():
    # at K = m = 2^20 the 2m + 10K words alone pass the budget, so lowering
    # max_attempts, already 1, cannot help
    with pytest.raises(CapacityError, match=r"^max_attempts=1 needs .*; "
                       r"lower max_attempts, m or the request$"):
        _block_rows(2 ** 20, 2 ** 20, 1)


@pytest.mark.parametrize("m, K, M, rows", [
    (4, 2, 3, 8192),
    (64, 60, 3, 8192),
    (8, 7, 100, 7598),
    # from here on the 64 MB budget, not _BLOCK, sets the block
    (256, 100, 3, 4341),
    (1024, 400, 3, 1093),
    (1024, 400, 40, 371),
    (1024, 1, 40, 3761),
    (4096, 1, 3, 1019),
    (4096, 1638, 3, 269),
    (4096, 4096, 3, 127),
])
def test_block_rows_is_a_frozen_stream_constant(m, K, M, rows):
    # each block is one whole-block draw of every selection multinomial, so
    # a changed value moves every kernel stream and every mc output byte
    assert _block_rows(m, K, M) == rows


def test_kernel_refuses_latencies_that_overflow_over_the_trials():
    # each round's latency is finite, but batch_stats squares and sums them
    params = ModelParams(q=0.05, t_dist=1e300)
    rng = trial_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="latencies up to .* over 5 trials"):
        sample_rounds(SYM, Request(4), params, 5, rng)
    assert rng.bit_generator.state == state
    # the largest latency of these constants, squared over 10^4 trials,
    # is far from overflow
    rounds = sample_rounds(SYM, Request(4), ModelParams(t_gen=1e100), 10 ** 4,
                           trial_rng(1))
    assert all(np.isfinite(lat).all() for *_, lat in rounds)


def test_kernel_rounds_as_the_scalar_rule_does_at_the_node_limit():
    # netgen.MAX_NODES nodes; test_partition checks the rounding's bounds
    net = NetworkConfig.from_caps((2 ** 20 - 7, 5, 2))
    k_req = 2 ** 20 - 3
    for arrangement, quotas, *_ in sample_rounds(net, Request(k_req), LOSSY,
                                                 100, trial_rng(1)):
        for arranged, got in zip(arrangement.tolist(), quotas.tolist()):
            assert tuple(got) == quota_round(
                k_req, [net.caps[i] for i in arranged])


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_row_pieces_bound_the_traced_peak_at_a_canonical_point():
    # whole-block temporaries peaked at 15.8 MB (batch_stats) and 6.8 MB
    # (estimate_fairness) here; row pieces keep them near 2.0 and 1.6 MB
    net = generate_network(32, 2.0, 320)
    req = Request(demand_to_kreq(0.6, net.total))
    assert _traced_peak(lambda: lottery.batch_stats(
        net, req, ModelParams(), 20000, trial_rng(61))) < 10 * 10 ** 6
    assert _traced_peak(lambda: estimate_fairness(
        net, req, 100000, trial_rng(61))) < 4 * 10 ** 6


def test_a_key_window_is_deduplicated_in_place():
    # the sampled cell where most compositions are distinct: one narrow
    # key array sorted in place, its run bounds, and one decode-and-round
    # piece (traced here: 1.75 MB; 3.55 MB with np.unique over int64 keys)
    net = generate_network(32, 1.0, 320)
    req = Request(demand_to_kreq(0.1, net.total))
    # a first call pays numpy's lazy imports
    estimate_fairness(net, req, 10, trial_rng(0))
    assert _traced_peak(lambda: estimate_fairness(
        net, req, 10 ** 5, trial_rng(61))) < 2.0 * 10 ** 6


def test_the_exact_walk_keeps_narrow_levels():
    # split_chunks' levels hold counts in the smallest dtype that holds K
    # (traced here: 1.49 MB; 2.10 MB with int64 levels)
    net = generate_network(32, 0.5, 320)
    req = Request(demand_to_kreq(0.6, net.total))
    exact_node_probs(net, req)
    assert _traced_peak(lambda: exact_node_probs(net, req)) < 1.6 * 10 ** 6


@pytest.mark.parametrize("m, M, bound", [(32, 3, 3), (32, 40, 3),
                                         (1024, 3, 4)])
def test_a_kernel_block_keeps_no_int64_block_state(m, M, bound):
    # a block keeps its ids and quotas narrow and each selection group as
    # per-row results (traced here: 2.0, 2.1 and 2.7 MB); int64 (t, K)
    # arrays or whole-block (t, M + 1) outcome tables break these bounds
    net = generate_network(m, 2.0, 10 * m)
    req = Request(demand_to_kreq(0.6, net.total))
    params = ModelParams(max_attempts=M)
    # a first call pays numpy's lazy imports
    lottery.batch_stats(net, req, params, 10, trial_rng(0))
    assert _traced_peak(lambda: lottery.batch_stats(
        net, req, params, 20000, trial_rng(61))) <= bound * 10 ** 6


def test_sampled_fairness_memory_does_not_grow_with_the_trials():
    # compositions are reduced one key window at a time: 10^6 trials hold
    # the bound 10^5 hold above
    net = generate_network(32, 2.0, 320)
    req = Request(demand_to_kreq(0.6, net.total))
    assert _traced_peak(lambda: estimate_fairness(
        net, req, 10 ** 6, trial_rng(61))) < 4 * 10 ** 6
    # and where most of a window's compositions are distinct, the peak of
    # three windows is that of one (after a first call has paid numpy's
    # lazy imports)
    net = generate_network(32, 1.0, 320)
    req = Request(demand_to_kreq(0.1, net.total))
    estimate_fairness(net, req, 10, trial_rng(0))
    one, three = (_traced_peak(lambda: estimate_fairness(
        net, req, windows * _key_window(), trial_rng(61)))
        for windows in (1, 3))
    assert three < 1.1 * one


def _whole_block_rounds(net, req, params, trials, rng):
    """sample_rounds with every block drawn and reduced whole: the
    reference the row pieces must reproduce array for array."""
    K = safe_select_k(req.k_req, net.caps, params.beta)
    M = params.max_attempts
    block = _block_rows(net.m, K, M)
    ell = ancilla_bits(net.caps)
    caps = np.asarray(net.caps, dtype=np.int64)
    pvals, cost = _delivery_law(params.q, M)
    base = params.t_gen + params.t_meas
    for start in range(0, trials, block):
        t = min(block, trials - start)
        arrangement = rng.permuted(
            np.tile(np.arange(net.m), (t, 1)), axis=1)[:, :K]
        # the scalar rule, one row at a time
        quotas = np.array([quota_round(req.k_req, row)
                           for row in caps[arrangement].tolist()],
                          dtype=np.int64).reshape(t, K)
        winners = rng.multinomial(K, pvals, size=t)
        others = rng.multinomial(net.m - K, pvals, size=t)
        ancilla = rng.multinomial(ell, pvals, size=t)
        blocks = rng.multinomial(quotas, pvals)
        ok = np.empty((2, t), dtype=bool)
        ok[0] = (winners[:, M] == 0) & (blocks[:, :, M] == 0).all(axis=1)
        ok[1] = ok[0] & (others[:, M] == 0) & (ancilla[:, M] == 0)
        block_att = blocks @ cost
        win_att = winners @ cost
        stage1 = np.stack((win_att + others @ cost,
                           win_att + others @ cost + ancilla @ cost))
        attempts = np.stack((win_att, stage1[1])) + block_att.sum(axis=1)
        lat = (base + params.t_dist * stage1) + (
            base + params.t_dist * block_att.max(axis=1))
        yield arrangement, quotas, ok, attempts, lat


def _whole_block_fairness(net, req, trials, rng):
    """estimate_fairness with each block's compositions rounded whole."""
    K = safe_select_k(req.k_req, net.caps, lottery.DEFAULT_BETA)
    classes, sizes = _capacity_classes(net.caps)
    quota_sums = np.zeros(len(classes))
    block = min(lottery._BLOCK, _BLOCK_BYTES // (8 * 16 * len(classes)))
    for start in range(0, trials, block):
        counts = rng.multivariate_hypergeometric(
            sizes, K, size=min(block, trials - start), method="count").T
        law, of = _class_law(req.k_req, classes, counts)
        floors, extras = _class_round(req.k_req, classes, counts, law, of)
        quota_sums += (counts * floors + extras).sum(axis=1)
    return lottery._node_probs(net.caps, classes, sizes, quota_sums, trials)


def _narrow(top: int):
    """The unsigned dtype the kernel keeps values 0..top in."""
    assert 0 <= top < 2 ** 16
    return np.dtype(np.uint8 if top < 2 ** 8 else np.uint16)


def _assert_rounds_match(net, req, params, trials):
    """sample_rounds yields the reference's values, block for block, with
    its ids and quotas narrowed and every per-row array at full width."""
    rng, ref_rng = trial_rng(7), trial_rng(7)
    got = list(sample_rounds(net, req, params, trials, rng))
    want = list(_whole_block_rounds(net, req, params, trials, ref_rng))
    assert len(got) == len(want)
    dtypes = (_narrow(net.m - 1), _narrow(req.k_req), np.dtype(bool),
              np.dtype(np.int64), np.dtype(np.float64))
    for got_arrays, want_arrays in zip(got, want):
        for a, b, dtype in zip(got_arrays, want_arrays, dtypes, strict=True):
            assert a.dtype == dtype
            assert np.array_equal(a, b)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return len(got)


def _assert_fairness_matches(net, req, trials):
    rng, ref_rng = trial_rng(7), trial_rng(7)
    got = estimate_fairness(net, req, trials, rng)
    assert np.array_equal(
        got, _whole_block_fairness(net, req, trials, ref_rng))
    # a network with one composition (one capacity class, or every QLAN a
    # winner) leaves the generator untouched; any other draws what the
    # reference draws
    K = safe_select_k(req.k_req, net.caps, lottery.DEFAULT_BETA)
    forced = len(set(net.caps)) == 1 or K == net.m
    drawn = trial_rng(7) if forced else ref_rng
    assert rng.bit_generator.state == drawn.bit_generator.state


def _first_call_rows(monkeypatch, name, run, axis) -> int:
    """The rows lottery.<name> takes on its first call while run() runs:
    the length along axis of its first 2-D argument."""
    rows = []
    step = getattr(lottery, name)

    def spy(*args):
        rows.append(next(np.shape(a)[axis] for a in args if np.ndim(a) == 2))
        return step(*args)

    with monkeypatch.context() as patch:
        patch.setattr(lottery, name, spy)
        run()
    return rows[0]


@pytest.mark.parametrize("pieces, plus", [(0, 1), (1, -1), (1, 0), (1, 1)],
                         ids=["1", "piece-1", "piece", "piece+1"])
def test_row_pieces_draw_what_whole_blocks_draw_around_a_piece(
        pieces, plus, monkeypatch):
    net = generate_network(16, 1.0, 160)
    req = Request(demand_to_kreq(0.4, net.total))
    # each sampler's piece, read off its first rounding call of a block;
    # the fairness sampler rounds distinct compositions, so its piece is
    # read where a block draws more of them than a piece holds
    block = lottery._BLOCK
    # both roundings take slot-major arrays: (K, rows) winner capacities
    # and (n, rows) compositions
    round_piece = _first_call_rows(monkeypatch, "_quota_round_rows", lambda: (
        list(sample_rounds(net, req, LOSSY, block, trial_rng(1)))), axis=1)
    fair_net = generate_network(32, 1.0, 320)
    fair_req = Request(demand_to_kreq(0.1, fair_net.total))
    fair_piece = _first_call_rows(monkeypatch, "_class_round", lambda: (
        estimate_fairness(fair_net, fair_req, block, trial_rng(1))), axis=1)
    assert 1 < round_piece < block and 1 < fair_piece < block
    _assert_rounds_match(net, req, LOSSY, pieces * round_piece + plus)
    _assert_fairness_matches(fair_net, fair_req, pieces * fair_piece + plus)


@pytest.mark.parametrize("net, k_req, params, K", [
    (generate_network(16, 1.0, 160), 64, LOSSY, 13),
    # K = m: the non-winner multinomial draws n = 0
    (NetworkConfig.from_caps((3, 3, 3, 3)), 12, LOSSY, 4),
    (NetworkConfig.from_caps((10, 10, 10)), 3, LOSSY, 1),
    (generate_network(24, 1.0, 240), 96, ModelParams(q=0.3, max_attempts=40),
     20),
    # six zero-capacity QLANs
    (generate_network(16, 2.0, 160), 64, LOSSY, 16),
    # the attempt sum's edges: no term, and one
    (generate_network(16, 1.0, 160), 64, ModelParams(q=0.3, max_attempts=1),
     13),
    (generate_network(16, 1.0, 160), 64, ModelParams(q=0.3, max_attempts=2),
     13),
    # skewed caps at K = m: every row has the same capacity sum
    (generate_network(8, 2.0, 80), 32, LOSSY, 8),
    # uint16 QLAN ids
    (generate_network(300, 1.0, 3000), 1800, LOSSY, 296),
    # uint8 quotas up to 200 whose attempts reach 600: they must be widened
    # before any arithmetic
    (NetworkConfig.from_caps((250, 250, 250)), 200,
     ModelParams(q=0.3, max_attempts=3), 1),
    # uint16 quotas
    (generate_network(64, 2.0, 640), 600, LOSSY, 64),
    # the canonical m = 32 point at max_attempts 40
    (generate_network(32, 2.0, 320), 192, ModelParams(q=0.3, max_attempts=40),
     32),
    # one class whose extra pairs split a row: quotas (7, 6)
    (NetworkConfig.from_caps((10,) * 8), 13, LOSSY, 2),
    # K = m with a boundary class: the cap-3 class takes 2 of 3 extras
    (NetworkConfig.from_caps((5, 5, 3, 3, 3, 1)), 17, LOSSY, 6),
], ids=["m16", "K=m", "K=1", "max_attempts=40", "zero-caps",
        "max_attempts=1", "max_attempts=2", "K=m-skew2", "m300",
        "quota*M>255", "k_req600", "m32-max_attempts=40",
        "one-class-mid-row", "K=m-boundary-class"])
def test_row_pieces_draw_what_whole_blocks_draw_across_blocks(net, k_req,
                                                              params, K):
    assert safe_select_k(k_req, net.caps, params.beta) == K
    trials = lottery._BLOCK + 1
    assert _assert_rounds_match(net, Request(k_req), params, trials) >= 2
    _assert_fairness_matches(net, Request(k_req), trials)


def _key_window() -> int:
    """Rows of one estimate_fairness key window at fewer than 65 classes:
    the whole blocks that fit the row budget's one-word rows."""
    return partition._piece_rows(1) // lottery._BLOCK * lottery._BLOCK


@pytest.mark.parametrize("plus", [-1, 0, 1],
                         ids=["window-1", "window", "window+1"])
def test_sampled_fairness_is_the_whole_block_array_around_a_window(plus):
    # 16 classes, where most compositions are distinct (76,778 of 10^5 at
    # the canonical grid's seed)
    net = generate_network(32, 1.0, 320)
    req = Request(demand_to_kreq(0.1, net.total))
    # a canonical 10^5-trial cell is one window
    assert _key_window() >= 10 ** 5
    _assert_fairness_matches(net, req, _key_window() + plus)


@pytest.mark.parametrize("net, k_req, trials", [
    # one class: every round draws the one composition
    (generate_network(32, 0.0, 320), 128, 2 * lottery._BLOCK + 1),
    # prod(sizes + 1) = 2^32: keys up to the largest uint32
    (NetworkConfig.from_caps(tuple(range(1, 33))), 160, lottery._BLOCK + 1),
    # prod(sizes + 1) = 2^33: uint64 keys
    (NetworkConfig.from_caps(tuple(range(1, 34))), 160, lottery._BLOCK + 1),
    # prod(sizes + 1) = 2^70: no int64 key, rows rounded as drawn
    (NetworkConfig.from_caps(tuple(range(1, 71))), 700, lottery._BLOCK + 1),
], ids=["one-class", "uint32-keys", "uint64-keys", "key-overflow"])
def test_sampled_fairness_is_the_whole_block_array_on_edge_networks(
        net, k_req, trials):
    _assert_fairness_matches(net, Request(k_req), trials)


def test_sampled_fairness_does_not_depend_on_the_window(monkeypatch):
    net = generate_network(32, 1.0, 320)
    req = Request(demand_to_kreq(0.1, net.total))
    trials = 3 * lottery._BLOCK + 5
    rounded = _count_rounded_rows(monkeypatch)
    want = estimate_fairness(net, req, trials, trial_rng(11))
    whole = sum(rounded)
    rounded.clear()
    # one block per window: each block's compositions are counted alone
    monkeypatch.setattr(partition, "_PIECE_BYTES", 8 * lottery._BLOCK)
    assert _key_window() == lottery._BLOCK
    got = estimate_fairness(net, req, trials, trial_rng(11))
    assert sum(rounded) > whole
    assert np.array_equal(got, want)
    _assert_fairness_matches(net, req, trials)


@pytest.mark.parametrize("net, k_req, trials", [
    # 16 classes, most compositions distinct
    (generate_network(32, 1.0, 320), 32, 2 * lottery._BLOCK + 3),
    # keys up to the largest uint32, and uint64 keys
    (NetworkConfig.from_caps(tuple(range(1, 33))), 160, lottery._BLOCK + 1),
    (NetworkConfig.from_caps(tuple(range(1, 34))), 160, lottery._BLOCK + 1),
    # no int64 key: each block's rows are rounded as drawn
    (NetworkConfig.from_caps(tuple(range(1, 71))), 700, lottery._BLOCK + 1),
], ids=["keys", "uint32-keys", "uint64-keys", "key-overflow"])
def test_sampled_fairness_does_not_depend_on_the_piece(net, k_req, trials,
                                                       monkeypatch):
    req = Request(k_req)
    rng = trial_rng(5)
    want = estimate_fairness(net, req, trials, rng)
    n = len(_capacity_classes(net.caps)[0])
    # three compositions per rounding piece where rows are rounded as
    # drawn, two per decoded and rounded piece of distinct keys
    monkeypatch.setattr(partition, "_PIECE_BYTES", 8 * 7 * n * 3)
    assert lottery._piece_rows(7 * n) == 3
    small_rng = trial_rng(5)
    assert np.array_equal(estimate_fairness(net, req, trials, small_rng), want)
    assert small_rng.bit_generator.state == rng.bit_generator.state


def test_exact_probs_do_not_depend_on_the_piece(monkeypatch):
    # 2,608 compositions in one walk chunk, rounded three at a time
    net = generate_network(32, 1.0, 320)
    req = Request(demand_to_kreq(0.4, net.total))
    want = exact_node_probs(net, req)
    n = len(_capacity_classes(net.caps)[0])
    monkeypatch.setattr(partition, "_PIECE_BYTES", 8 * 7 * n * 3)
    assert np.array_equal(exact_node_probs(net, req), want)


@pytest.mark.parametrize("q", [0.0, 0.2])
def test_kernel_accountings_are_coupled_row_by_row(q, monkeypatch):
    # tiny blocks: the coupling must hold in every block, not on average
    monkeypatch.setattr(lottery, "_BLOCK", 7)
    net = generate_network(8, 1.0, 80)
    k_req = 16
    # dyadic times keep the latency arithmetic exact
    params = ModelParams(q=q, t_gen=2.0, t_dist=0.25, t_meas=1.0)
    K = safe_select_k(k_req, net.caps, params.beta)
    ell = ancilla_bits(net.caps)
    n_blocks = 0
    for _, _, ok, attempts, lat in sample_rounds(
            net, Request(k_req), params, 50, trial_rng(67)):
        n_blocks += 1
        assert ok.shape == attempts.shape == lat.shape == (2, ok.shape[1])
        assert not (ok[1] & ~ok[0]).any()
        assert (attempts[1] >= attempts[0]).all()
        assert (lat[1] >= lat[0]).all()
        if q == 0.0:
            assert ok.all()
            assert (attempts[1] - attempts[0] == net.m - K + ell).all()
            assert (lat[1] - lat[0] == params.t_dist * ell).all()
    assert n_blocks == 8


def test_simulate_batch_is_one_row_of_batch_stats():
    net = generate_network(8, 1.0, 80)
    both = lottery.batch_stats(net, Request(16), LOSSY, 3000, trial_rng(71))
    assert list(both) == list(LATENCY_MODES)
    for mode in LATENCY_MODES:
        assert simulate_batch(net, Request(16), LOSSY, mode, 3000,
                              trial_rng(71)) == both[mode]
    with pytest.raises(ValueError, match="mode must be one of"):
        simulate_batch(net, Request(16), LOSSY, "both", 3000, trial_rng(71))


def test_run_trial_rejects_rounding_that_loses_pairs(monkeypatch):
    def short_round(k_req, caps):
        quotas = list(quota_round(k_req, caps))
        quotas[0] -= 1
        return tuple(quotas)

    monkeypatch.setattr(lottery, "quota_round", short_round)
    with pytest.raises(InvariantViolationError):
        run_trial(SYM, Request(4), LOSSY, "conservative", trial_rng(5))


@pytest.mark.parametrize("mode", LATENCY_MODES)
def test_kernel_agrees_with_the_per_qubit_reference(mode):
    # attempts have a closed-form mean; the stage-2 maximum of block sums
    # has none, so its latency is pinned against run_trial instead
    net = generate_network(8, 1.0, 80)
    k_req = 16
    params = ModelParams(q=0.3, max_attempts=3)
    req = Request(k_req)
    K = safe_select_k(k_req, net.caps, params.beta)
    row = LATENCY_MODES.index(mode)
    rounds = list(sample_rounds(net, req, params, 20000, trial_rng(47)))
    attempts = np.concatenate([r[3][row] for r in rounds])
    lat = np.concatenate([r[4][row] for r in rounds])
    # optimistic counts the winners' selection qubits and the pairs,
    # conservative every selection qubit, the ancillas and the pairs
    counted = (K + k_req if mode == "optimistic"
               else net.m + ancilla_bits(net.caps) + k_req)
    expect = params.expected_attempts * counted
    assert abs(attempts.mean() - expect) < 5 * attempts.std() / math.sqrt(
        attempts.size)

    rng = trial_rng(53)
    ref = np.array([run_trial(net, req, params, mode, rng).latency
                    for _ in range(3000)])
    se = math.sqrt(lat.var() / lat.size + ref.var() / ref.size)
    assert abs(lat.mean() - ref.mean()) < 5 * se


def _forced_networks():
    """A network with one composition and a request it covers: equal caps
    (one class), or caps with ties and empty QLANs and a k_req at which
    every QLAN wins."""
    caps = st.one_of(
        st.tuples(st.integers(1, 9), st.integers(1, 12)).map(
            lambda cm: (cm[0],) * cm[1]),
        st.lists(st.sampled_from((0, 0, 1, 2, 2, 5, 9)), min_size=1,
                 max_size=12).filter(any).map(tuple))

    def with_k_req(caps):
        # the requests whose winner count leaves one composition (k_req =
        # sum(caps) always does: every QLAN must win)
        ks = [k for k in range(1, sum(caps) + 1)
              if len(set(caps)) == 1
              or safe_select_k(k, caps, LOSSY.beta) == len(caps)]
        return st.tuples(st.just(NetworkConfig.from_caps(caps)),
                         st.sampled_from(ks))

    return caps.flatmap(with_k_req)


@settings(max_examples=150, deadline=None)
@given(net_k=_forced_networks(), seed=st.integers(0, 99))
def test_forced_rounds_are_the_scalar_rule_of_each_row(net_k, seed):
    net, k_req = net_k
    K = safe_select_k(k_req, net.caps, LOSSY.beta)
    assert partition._one_composition(net.caps, K)
    caps = np.array(net.caps)
    for arrangement, quotas, *_ in sample_rounds(
            net, Request(k_req), LOSSY, 300, trial_rng(seed)):
        for row, quota_row in zip(arrangement.tolist(), quotas.tolist()):
            assert tuple(quota_row) == quota_round(k_req, caps[row])


@pytest.mark.parametrize("net, k_req, forced", [
    (NetworkConfig.from_caps((10,) * 8), 13, True),
    (NetworkConfig.from_caps((5, 5, 3, 3, 3, 1)), 17, True),
    (generate_network(16, 2.0, 160), 64, True),
    (generate_network(16, 1.0, 160), 64, False),
], ids=["one-class", "K=m-boundary-class", "K=m-zero-caps", "general"])
def test_a_forced_network_is_rounded_once_per_call(net, k_req, forced,
                                                   monkeypatch):
    laws, rows = [], []
    law_of, round_rows = lottery._forced_law, lottery._quota_round_rows

    def spy_law(*args):
        laws.append(args)
        return law_of(*args)

    def spy_rows(k_req, caps):
        rows.append(caps.shape[1])
        return round_rows(k_req, caps)

    monkeypatch.setattr(lottery, "_forced_law", spy_law)
    monkeypatch.setattr(lottery, "_quota_round_rows", spy_rows)
    trials = lottery._BLOCK + 1
    assert len(list(sample_rounds(net, Request(k_req), LOSSY, trials,
                                  trial_rng(3)))) == 2
    # a forced network: one law per call and no general rounding; any
    # other: every row through _quota_round_rows
    assert (len(laws), sum(rows)) == ((1, 0) if forced else (0, trials))


@pytest.mark.parametrize("net, k_req, match", [
    # floors 2 + 1 over caps 2, and 0 + 1 and the extra over cap 1:
    # refused before anything is drawn
    (NetworkConfig.from_caps((2, 2, 2)), 6, "respect caps"),
    (NetworkConfig.from_caps((5, 5, 3, 3, 3, 1)), 17, "respect caps"),
    # within the caps, but a winner set's floors alone pass k_req
    (NetworkConfig.from_caps((10,) * 8), 13, "conserve k_req"),
    # K = m, the cap-5 class taking 1 of 3 extras
    (NetworkConfig.from_caps((9, 9, 5, 5, 5)), 22, "conserve k_req"),
], ids=["at-cap", "K=m-over-cap", "one-class", "K=m-boundary-class"])
def test_a_forced_law_with_floors_one_too_high_is_refused(net, k_req, match,
                                                          monkeypatch):
    def one_too_high(*args):
        floors, extras = _class_round(*args)
        return floors + 1, extras

    monkeypatch.setattr(partition, "_class_round", one_too_high)
    rng = trial_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(InvariantViolationError, match=match):
        list(sample_rounds(net, Request(k_req), LOSSY, 100, rng))
    # every case is refused before anything is drawn
    assert rng.bit_generator.state == state


def test_kernel_rows_are_rounded_arrangements():
    net = generate_network(8, 1.0, 80)
    k_req = 16
    K = safe_select_k(k_req, net.caps, LOSSY.beta)
    caps = np.array(net.caps)
    for arrangement, quotas, *_ in sample_rounds(
            net, Request(k_req), LOSSY, 200, trial_rng(59)):
        assert arrangement.shape == quotas.shape == (200, K)
        for row, quota_row in zip(arrangement, quotas):
            assert len(set(row.tolist())) == K
            assert tuple(quota_row) == quota_round(k_req, caps[row])


# the kernel's quota law by QLAN id, at 200,000 rounds of two cells: the
# trial_dump cell (K = 7 < m, a two-QLAN cap-4 class) and a K = m cell whose
# three cap-1 QLANs split the chain's two leftover pairs
_QUOTA_LAW_CELLS = [(8, 1.0, 0.4), (12, 1.5, 0.6)]
_QUOTA_LAW_ROUNDS = 200_000


def _kernel_quota_law(m, skew, demand):
    """(net, k_req, hist): hist[i, v] counts the rounds in which QLAN i
    (0 when not a winner) took v pairs, read off sample_rounds through its
    arrangement columns, under one fixed seed."""
    net = generate_network(m, skew, 10 * m)
    k_req = demand_to_kreq(demand, net.total)
    hist = np.zeros((m, k_req + 1), dtype=np.int64)
    for arrangement, quotas, *_ in sample_rounds(
            net, Request(k_req), LOSSFREE, _QUOTA_LAW_ROUNDS, trial_rng(61)):
        # widened first: the kernel hands back its narrow dtypes
        np.add.at(hist, (arrangement.astype(np.intp).ravel(),
                         quotas.astype(np.intp).ravel()), 1)
    hist[:, 0] += _QUOTA_LAW_ROUNDS - hist.sum(axis=1)
    return net, k_req, hist


@pytest.mark.parametrize("m, skew, demand", _QUOTA_LAW_CELLS)
def test_kernel_mean_quota_per_qlan_is_the_exact_chain_law(m, skew, demand):
    """Each QLAN's mean quota in the kernel is exact_node_probs at one of
    its nodes times its capacity, within a z bound Bonferroni-corrected
    over the QLANs at family-wise alpha 5e-5 per cell: a correct kernel
    fails this test with probability at most 1e-4 (normal approximation).
    A QLAN whose quota never varies must match exactly."""
    net, k_req, hist = _kernel_quota_law(m, skew, demand)
    caps = np.array(net.caps)
    expect = exact_node_probs(net, Request(k_req))[np.cumsum(caps) - caps]
    expect *= caps
    values = np.arange(k_req + 1)
    n = _QUOTA_LAW_ROUNDS
    # whole-number sums, exact in int64
    total, squares = hist @ values, hist @ (values * values)
    bound = NormalDist().inv_cdf(1 - 5e-5 / (2 * m))
    for i in range(m):
        mean = total[i] / n
        var_n2 = int(squares[i]) * n - int(total[i]) ** 2
        if var_n2 == 0:
            assert mean == pytest.approx(expect[i], rel=1e-12), i
        else:
            z = (mean - expect[i]) / math.sqrt(var_n2 / n ** 3)
            assert abs(z) < bound, (i, z)


@pytest.mark.parametrize("m, skew, demand", _QUOTA_LAW_CELLS)
def test_kernel_quota_law_is_the_same_within_each_capacity_class(m, skew,
                                                                 demand):
    """The lottery is anonymous: QLANs of one capacity class have the same
    quota law. quota_round's tie rule favours early positions, and only the
    uniform arrangement hides that, so the histograms are keyed by QLAN id.
    A chi-square homogeneity test per class of two or more QLANs,
    Bonferroni-corrected over the classes at family-wise alpha 5e-5 per
    cell: a correct kernel fails this test with probability at most 1e-4
    (chi-square approximation, every expected count at least 5). Each cell
    has a class whose quota varies."""
    from scipy.stats import chi2_contingency

    net, _, hist = _kernel_quota_law(m, skew, demand)
    classes, sizes = _capacity_classes(net.caps)
    tied = classes[sizes >= 2]
    caps = np.array(net.caps)
    varied = 0
    for c in tied:
        table = hist[caps == c]
        table = table[:, table.any(axis=0)]
        if table.shape[1] == 1:
            continue  # one constant quota: the same law for every member
        varied += 1
        chi2, p, _, expected = chi2_contingency(table, correction=False)
        assert expected.min() >= 5, c
        assert p > 5e-5 / len(tied), (c, chi2)
    assert varied


def test_batch_rate_tracks_the_matching_bound():
    net = generate_network(8, 1.0, 80)
    k_req = 16
    rec = evaluate_point(net.caps, k_req, LOSSY)
    trials = 20000
    for mode, p_true in (("optimistic", rec.P_upper),
                         ("conservative", rec.P_lower)):
        stats = simulate_batch(net, Request(k_req), LOSSY, mode, trials,
                               trial_rng(17))
        sigma = math.sqrt(p_true * (1 - p_true) / trials)
        assert abs(stats.success_rate - p_true) < 5 * sigma


def test_batch_spans_block_boundaries():
    # trials above the internal block size keep exact counts
    stats = simulate_batch(SYM, Request(4), LOSSFREE, "optimistic", 16400,
                           trial_rng(1))
    assert stats.success_rate == 1.0
    assert stats.success_se == 0.0


def test_exact_probs_symmetric_network_is_flat():
    probs = exact_node_probs(SYM, Request(4))
    assert probs.shape == (12,)
    assert float(probs.max() - probs.min()) < 1e-15
    assert jain_index(probs) == pytest.approx(1.0, abs=1e-12)


def test_exact_probs_sum_to_request_size():
    net = generate_network(4, 1.0, 40)
    probs = exact_node_probs(net, Request(16))
    assert math.fsum(probs) == pytest.approx(16.0, rel=1e-9)


def test_exact_probs_frozen_skewed_instance():
    net = generate_network(4, 1.0, 40)
    probs = exact_node_probs(net, Request(16))
    assert jain_index(probs) == pytest.approx(0.990648178, rel=1e-8)
    assert float(probs.min()) == pytest.approx(0.3625, rel=1e-9)
    assert float(probs.max()) == pytest.approx(0.4583333333, rel=1e-8)


def _expected_quotas(k_req: int, caps: tuple[int, ...]) -> list[float]:
    """Mean of quota_round over a uniformly random winner arrangement.

    Arrangement only matters through remainder ties: winners with equal
    (remainder, capacity) form a group whose members are exchangeable, so
    leftover units reaching a group split evenly across it in expectation.
    """
    c_total = sum(caps)
    if c_total < k_req:
        raise ValueError("caps cannot cover k_req")
    floors = [(k_req * c) // c_total for c in caps]
    rems = [(k_req * c) % c_total for c in caps]
    residual = k_req - sum(floors)
    expected = [float(f) for f in floors]
    groups: dict[tuple[int, int], list[int]] = {}
    for j, (r, c) in enumerate(zip(rems, caps)):
        groups.setdefault((r, c), []).append(j)
    for (r, _c), members in sorted(groups.items(), reverse=True):
        if residual <= 0:
            break
        if r == 0:
            continue
        share = min(1.0, residual / len(members))
        for j in members:
            expected[j] += share
        residual -= min(residual, len(members))
    return expected


def _subset_reference(net, req, beta=lottery.DEFAULT_BETA):
    """The oracle by direct enumeration: one _expected_quotas per K-subset."""
    K = safe_select_k(req.k_req, net.caps, beta)
    qlan_prob = [0.0] * net.m
    for subset in itertools.combinations(range(net.m), K):
        expected = _expected_quotas(
            req.k_req, tuple(net.caps[i] for i in subset))
        for i, e in zip(subset, expected):
            if net.caps[i] > 0:
                qlan_prob[i] += e / net.caps[i]
    return np.repeat(np.array(qlan_prob) / math.comb(net.m, K), net.caps)


@settings(max_examples=200, deadline=None)
@given(caps=st.lists(st.integers(0, 5), min_size=1, max_size=9)
       .filter(lambda caps: sum(caps) > 0),
       data=st.data())
def test_exact_probs_over_compositions_match_subset_enumeration(caps, data):
    net = NetworkConfig.from_caps(tuple(caps))
    req = Request(data.draw(st.integers(1, net.total)))
    got = exact_node_probs(net, req)
    ref = _subset_reference(net, req)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= 1e-12
    # certain and impossible wins stay exact (c06 compares them with ==)
    fixed = (ref == 0) | (ref == 1)
    assert np.array_equal(got[fixed], ref[fixed])
    assert np.array_equal((got == 0) | (got == 1), fixed)


def _fair_share_probs(net, req, beta=lottery.DEFAULT_BETA) -> list:
    """Per-node win probabilities, as Fractions, of any floor-or-ceiling
    quota policy whose expected quota is each winner's exact share
    k_req * c / C_S: a node of a winner QLAN then wins k_req / C_S in
    expectation, so it wins E[k_req / C_S * 1{i in S}] over the uniform
    K-subsets S. Summed over capacity-class compositions: j_c winners of
    the n_c QLANs of capacity c, reached by prod C(n_c, j_c) subsets, in
    j_c / n_c of which a given class-c QLAN wins."""
    K = safe_select_k(req.k_req, net.caps, beta)
    classes, sizes = (a.tolist() for a in _capacity_classes(net.caps))
    per_class = [Fraction(0)] * len(classes)
    for counts in partition.enum_partitions(K, sizes):
        ways = math.prod(map(math.comb, sizes, counts))
        share = Fraction(ways * req.k_req,
                         sum(c * j for c, j in zip(classes, counts)))
        for c, (j, n) in enumerate(zip(counts, sizes)):
            per_class[c] += share * Fraction(j, n)
    by_cap = dict(zip(classes, per_class))
    n_sets = math.comb(net.m, K)
    return [by_cap[c] / n_sets for c in net.caps for _ in range(c)]


def _fair_share_by_subsets(net, req, beta=lottery.DEFAULT_BETA) -> list:
    """_fair_share_probs by direct enumeration of the K-subsets."""
    K = safe_select_k(req.k_req, net.caps, beta)
    qlan_prob = [Fraction(0)] * net.m
    for subset in itertools.combinations(range(net.m), K):
        share = Fraction(req.k_req, sum(net.caps[i] for i in subset))
        for i in subset:
            qlan_prob[i] += share
    n_sets = math.comb(net.m, K)
    return [qlan_prob[i] / n_sets for i, c in enumerate(net.caps)
            for _ in range(c)]


@settings(max_examples=150, deadline=None)
@given(caps=st.lists(st.integers(0, 5), min_size=1, max_size=8)
       .filter(lambda caps: sum(caps) > 0),
       data=st.data())
def test_fair_share_bound_over_compositions_matches_subset_enumeration(
        caps, data):
    net = NetworkConfig.from_caps(tuple(caps))
    req = Request(data.draw(st.integers(1, net.total)))
    bound = _fair_share_probs(net, req)
    assert bound == _fair_share_by_subsets(net, req)
    # every winner set hands out exactly k_req pairs
    assert sum(bound) == req.k_req


def test_fair_share_bound_is_level_where_the_chain_is_red():
    # criterion 05a's red cell: every QLAN wins (K = m), and largest-
    # remainder rounding of 64 pairs over (101, 26, 12, 7, 5, 3, 3, 1, 1, 1,
    # 0 x 6) gives the three capacity-1 QLANs nothing; exact expected
    # shares give every node 64 / 160
    net = generate_network(16, 2.0, 160)
    req = Request(demand_to_kreq(0.4, net.total))
    bound = np.array(_fair_share_probs(net, req), dtype=float)
    assert f"{jain_index(bound):.6f}" == "1.000000"
    assert f"{jain_index(exact_node_probs(net, req)):.6f}" == "0.979600"


def _count_rounded_rows(monkeypatch) -> list[int]:
    """Patch _class_round to record how many rows each call rounds."""
    rounded = []
    class_round = lottery._class_round

    def counted(k_req, classes, counts, law, of):
        rounded.append(counts.shape[1])
        return class_round(k_req, classes, counts, law, of)

    monkeypatch.setattr(lottery, "_class_round", counted)
    return rounded


def test_exact_probs_call_the_rounding_once_per_composition(monkeypatch):
    net = generate_network(32, 1.0, 320)
    req = Request(demand_to_kreq(0.4, net.total))
    K = safe_select_k(req.k_req, net.caps, lottery.DEFAULT_BETA)
    assert (K, math.comb(net.m, K)) == (28, 35960)
    sizes = Counter(net.caps).values()
    # compositions = coefficient of x^K in prod_c (1 + x + ... + x^n_c)
    poly = [1]
    for n in sizes:
        poly = [sum(poly[d - j] for j in range(n + 1) if 0 <= d - j < len(poly))
                for d in range(len(poly) + n)]
    rounded = _count_rounded_rows(monkeypatch)
    exact_node_probs(net, req)
    rows = sum(rounded)
    assert rows == poly[K] == 2608
    assert rows <= math.prod(n + 1 for n in sizes)
    assert 10 * rows < math.comb(net.m, K)


def test_exact_walk_stays_within_block_budget_past_the_guard(monkeypatch):
    # the largest canonical cell: C(32, 14) subsets, 618,353 compositions
    net = generate_network(32, 1.0, 320)
    req = Request(demand_to_kreq(0.1, net.total))
    assert safe_select_k(req.k_req, net.caps, lottery.DEFAULT_BETA) == 14
    rounded = _count_rounded_rows(monkeypatch)
    monkeypatch.setattr(lottery, "MAX_SUBSETS", math.comb(32, 14))
    tracemalloc.start()
    try:
        probs = exact_node_probs(net, req)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(rounded) == 618353
    assert peak < _BLOCK_BYTES
    assert math.fsum(probs) == pytest.approx(req.k_req, rel=1e-12)


def test_exact_probs_guard():
    net = generate_network(32, 0.0, 320)
    with pytest.raises(CapacityError):
        exact_node_probs(net, Request(128))


def test_estimate_fairness_agrees_with_exact():
    net = NetworkConfig.from_caps((6, 3, 1))
    req = Request(3)
    exact = exact_node_probs(net, req)
    probs = estimate_fairness(net, req, 30000, trial_rng(23))
    sigma = np.sqrt(exact * (1 - exact) / 30000)
    # one entry per node, in node order, like the exact oracle's
    assert probs.shape == exact.shape == (net.total,)
    assert (np.abs(probs - exact) < 5 * sigma + 1e-12).all()


@settings(max_examples=100, deadline=None)
@given(caps=st.lists(st.integers(0, 9), min_size=1, max_size=8)
       .filter(lambda caps: sum(caps) > 0),
       data=st.data(), seed=st.integers(0, 99))
def test_estimate_fairness_is_exact_when_every_qlan_wins(caps, data, seed):
    # K = m fixes the composition, so no sampled quantity is left
    net = NetworkConfig.from_caps(tuple(caps))
    req = Request(data.draw(st.integers(1, net.total)))
    assume(safe_select_k(req.k_req, net.caps, lottery.DEFAULT_BETA) == net.m)
    sampled = estimate_fairness(net, req, 500, trial_rng(seed))
    assert np.array_equal(sampled, exact_node_probs(net, req))


class _SpyRng:
    """A generator that counts the composition draws made through it."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = 0

    def multivariate_hypergeometric(self, *args, **kwargs):
        self.draws += 1
        return self.rng.multivariate_hypergeometric(*args, **kwargs)


@pytest.mark.parametrize("net, k_req, K", [
    # equal caps: one class, whose K winners are the one composition
    (NetworkConfig.from_caps((10, 10, 10)), 3, 1),
    (SYM, 12, 4),
    # every QLAN wins, six of them with no capacity
    (generate_network(16, 2.0, 160), 64, 16),
], ids=["one-class-K=1", "one-class-K=m", "K=m-zero-caps"])
def test_a_forced_composition_is_exact_and_draws_nothing(net, k_req, K):
    req = Request(k_req)
    assert safe_select_k(k_req, net.caps, lottery.DEFAULT_BETA) == K
    rng = _SpyRng(trial_rng(7))
    probs = estimate_fairness(net, req, lottery._BLOCK + 1, rng)
    assert np.array_equal(probs, exact_node_probs(net, req))
    assert rng.draws == 0
    assert rng.rng.bit_generator.state == trial_rng(7).bit_generator.state


class _NoDrawRng:
    """A generator whose first composition draw fails the test."""

    def multivariate_hypergeometric(self, *args, **kwargs):
        raise AssertionError("drew a composition")


def test_sampled_fairness_refuses_trials_past_exact_quota_sums():
    rng = trial_rng(1)
    state = rng.bit_generator.state
    # a forced cell, and a sampled one whose draws fail at once, so a check
    # that came too late cannot draw 2^53 / 320 rows first
    sampled = generate_network(32, 1.0, 320)
    for net, k_req, gen in ((SYM, 4, rng), (sampled, 32, _NoDrawRng())):
        # the fewest trials whose trials * total reaches 2^53, and 10^18,
        # where the forced cell's int64 quota sums would overflow
        for many in (-(-2 ** 53 // net.total), 10 ** 18):
            with pytest.raises(ValueError, match=f"trials={many} times "
                               f"{net.total} nodes reach 2\\^53"):
                estimate_fairness(net, Request(k_req), many, gen)
    assert rng.bit_generator.state == state
    # one trial fewer is taken, draws nothing and stays exact
    probs = estimate_fairness(SYM, Request(4), -(-2 ** 53 // SYM.total) - 1,
                              rng)
    assert np.array_equal(probs, exact_node_probs(SYM, Request(4)))
    assert rng.bit_generator.state == state


def _scalar_quota_totals(k_req, classes, counts, weight):
    """Each class's quota total, composition by composition with
    quota_round, weighted."""
    totals = [0] * len(classes)
    for column, w in zip(counts.T.tolist(), weight.tolist()):
        winners = [c for c, j in zip(classes.tolist(), column)
                   for _ in range(j)]
        quotas = iter(quota_round(k_req, winners))
        for c, j in enumerate(column):
            totals[c] += w * sum(next(quotas) for _ in range(j))
    return totals


@settings(max_examples=200, deadline=None)
@given(caps=st.lists(st.integers(1, 12), min_size=1, max_size=8),
       data=st.data())
def test_quota_totals_match_weighted_scalar_rounding(caps, data):
    # a zero-capacity class always, compositions of winner counts per class
    # and weights up to 1000
    classes, sizes = _capacity_classes([0, 0] + caps)
    cols = data.draw(st.lists(
        st.tuples(*(st.integers(0, int(n)) for n in sizes)),
        min_size=1, max_size=12))
    counts = np.array(cols, dtype=np.int64).reshape(len(cols), len(classes))
    counts = np.ascontiguousarray(counts[counts @ classes > 0].T)
    assume(counts.shape[1])
    k_req = data.draw(st.integers(1, int((classes @ counts).min())))
    weight = np.array(data.draw(st.lists(
        st.integers(1, 1000), min_size=counts.shape[1],
        max_size=counts.shape[1])), dtype=np.int64)
    got = lottery._quota_totals(k_req, classes, counts, weight)
    assert got.tolist() == _scalar_quota_totals(k_req, classes, counts,
                                                weight)


def test_a_law_with_floors_one_too_high_is_refused_by_both_callers(
        monkeypatch):
    net = generate_network(16, 1.0, 160)
    k_req = demand_to_kreq(0.4, net.total)
    classes, sizes = _capacity_classes(net.caps)
    K = safe_select_k(k_req, net.caps, lottery.DEFAULT_BETA)
    counts = trial_rng(3).multivariate_hypergeometric(sizes, K, size=50).T

    def one_too_high(k_req, classes, counts):
        (floors, *rest), of = _class_law(k_req, classes, counts)
        return (floors + 1, *rest), of

    # the sampled and exact fairness paths' reduction
    monkeypatch.setattr(lottery, "_class_law", one_too_high)
    with pytest.raises(InvariantViolationError):
        lottery._quota_totals(k_req, classes, counts,
                              np.ones(50, dtype=np.int64))
    # the verifier's per-slot bounds
    monkeypatch.setattr(partition, "_class_law", one_too_high)
    subsets = np.array(list(itertools.islice(
        itertools.combinations(range(net.m), K), 50)))
    with pytest.raises(InvariantViolationError):
        partition._chain_bounds(net.caps, k_req, subsets, np.int64)


def test_estimate_fairness_is_flat_within_each_qlan():
    # six empty QLANs: they win but hold no nodes, so they get no entries
    net = generate_network(16, 2.0, 160)
    k_req = demand_to_kreq(0.4, net.total)
    probs = estimate_fairness(net, Request(k_req), 3000, trial_rng(37))
    assert probs.shape == (net.total,)
    offsets = np.cumsum((0,) + net.caps)
    for a, b in zip(offsets, offsets[1:]):
        assert len(set(probs[a:b].tolist())) <= 1
    assert math.fsum(probs) == pytest.approx(k_req, rel=1e-12)


def test_estimate_fairness_symmetric_is_nearly_flat():
    probs = estimate_fairness(SYM, Request(4), 20000, trial_rng(29))
    assert jain_index(probs) > 0.999


def test_estimate_fairness_ignores_loss():
    # no loss parameter enters the chain: the signature takes none
    a = estimate_fairness(SYM, Request(4), 1000, trial_rng(31))
    b = estimate_fairness(SYM, Request(4), 1000, trial_rng(31))
    assert np.array_equal(a, b)
