"""Sparse selection-state construction, measurement and verification.

The embedded state's outcome distribution must coincide exactly with the
classical two-stage sampler: a uniform winner subset, then a uniform
feasible split. That equivalence is a closed-form statement about the
amplitudes, so it is asserted without sampling tolerance.
"""

import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from dheac import (
    CapacityError,
    InvariantViolationError,
    ModelParams,
    NetworkConfig,
    SparseState,
    build_embedded,
    count_partitions,
    demand_to_kreq,
    enum_partitions,
    generate_network,
    marginal_outer,
    measure_many,
    node_win_probs,
    safe_select_k,
    trial_rng,
    verify_state,
)
from dheac import qverify
from dheac.qverify import (
    NORM_TOL,
    _branch_stats,
    _chisquare,
    _enum_rows,
    _exact_sum,
    _prob_array,
    _sample_counts,
)

SYM = NetworkConfig.from_caps((3, 3, 3, 3))


def test_embedded_matches_classical_sampler_exactly():
    """amp^2 must equal 1 / (C(m,K) * |Omega_S|) on every branch."""
    state = build_embedded(SYM, 4, 2)
    assert len(state.amplitudes) == 18
    n_subsets = math.comb(4, 2)
    for (subset, _vec), amp in state.amplitudes.items():
        omega_size = count_partitions(4, tuple(SYM.caps[i] for i in subset))
        assert amp * amp == pytest.approx(1 / (n_subsets * omega_size),
                                          rel=1e-12)


def test_embedded_outer_marginal_is_exactly_uniform():
    net = generate_network(6, 1.0, 30)
    state = build_embedded(net, 12, 5)
    marg = marginal_outer(state)
    assert len(marg) == math.comb(6, 5)
    for p in marg.values():
        assert p == pytest.approx(1 / 6, abs=1e-14)


def test_large_branch_marginal_has_no_summation_drift():
    # one subset with 10^5 equal weights: summing them with plain + drifts
    # 1.9e-12 from 1, past NORM_TOL, on a correctly normalized state
    c = 99999
    net = NetworkConfig.from_caps((c, c))
    amp = math.sqrt(1.0 / (c + 1))
    state = SparseState({((0, 1), (i, c - i)): amp for i in range(c + 1)})
    assert abs(marginal_outer(state)[(0, 1)] - 1.0) <= NORM_TOL
    report = verify_state(state, net, c, 2, 1000, trial_rng(12))
    assert report.marginal_max_dev <= NORM_TOL
    assert not any("marginal" in f for f in report.failures)


def test_embedded_conditional_is_uniform_per_subset():
    # the second state's branches hold different numbers of quota vectors
    for net, k_req, K in [(SYM, 4, 2), (generate_network(6, 1.0, 30), 12, 5)]:
        state = build_embedded(net, k_req, K)
        report = verify_state(state, net, k_req, K, 2000, trial_rng(4))
        assert report.conditional_max_dev <= NORM_TOL
    assert len(set(np.diff(state.offsets).tolist())) > 1


def test_embedded_rejects_undersized_winner_sets():
    net = NetworkConfig.from_caps((5, 1, 1))
    with pytest.raises(InvariantViolationError):
        build_embedded(net, 5, 2)


def test_embedded_sparse_guard():
    net = NetworkConfig.from_caps((6,) * 12)
    with pytest.raises(CapacityError):
        build_embedded(net, 12, 6)


def test_embedded_shortage():
    from dheac import ResourceShortageError
    with pytest.raises(ResourceShortageError):
        build_embedded(NetworkConfig.from_caps((2, 2)), 5, 2)


def test_measure_is_supported_and_deterministic():
    state = build_embedded(SYM, 4, 2)
    counts = measure_many(state, trial_rng(5), 200)
    # one entry per label of the support, in label order, zeros kept
    assert list(counts) == list(state.amplitudes)
    assert counts == measure_many(state, trial_rng(5), 200)


def test_measure_many_counts():
    state = build_embedded(SYM, 4, 2)
    counts = measure_many(state, trial_rng(6), 5000)
    assert sum(counts.values()) == 5000
    assert set(counts) <= set(state.amplitudes)


def test_node_win_probs_symmetric():
    state = build_embedded(SYM, 4, 2)
    probs = node_win_probs(state, SYM.caps)
    assert probs.shape == (12,)
    assert float(np.ptp(probs)) < 1e-12
    assert math.fsum(probs) == pytest.approx(4.0, rel=1e-12)


def test_verify_passes_on_a_sound_state():
    state = build_embedded(SYM, 4, 2)
    report = verify_state(state, SYM, 4, 2, 20000, trial_rng(8))
    assert report.passed
    assert report.norm_dev < 1e-12
    assert report.marginal_max_dev < 1e-12
    assert report.conditional_max_dev < 1e-12
    assert report.support_violations == report.drawn_violations == 0
    assert report.outer_dof == 5
    assert 0.0 <= report.outer_pvalue <= 1.0
    assert 0.0 <= report.pooled_pvalue <= 1.0
    assert report.jain_uniform == pytest.approx(1.0, abs=1e-12)


def test_verify_flags_scaled_amplitude():
    state = build_embedded(SYM, 4, 2)
    damaged = dict(state.amplitudes)
    key = next(iter(damaged))
    damaged[key] *= 1.05
    report = verify_state(SparseState(damaged), SYM, 4, 2, 1000, trial_rng(9))
    assert not report.passed
    assert report.norm_dev > 1e-12
    assert report.marginal_max_dev > 1e-12
    assert report.conditional_max_dev > 1e-12
    # statistics are skipped once structural checks fail
    assert math.isnan(report.outer_pvalue)


def test_verify_flags_infeasible_support():
    state = build_embedded(SYM, 4, 2)
    amplitudes = dict(state.amplitudes)
    victim = next(iter(amplitudes))
    amp = amplitudes.pop(victim)
    # same subset, quota above capacity, norm preserved
    amplitudes[(victim[0], (4, 0))] = amp
    report = verify_state(SparseState(amplitudes), SYM, 4, 2, 1000,
                          trial_rng(10))
    assert not report.passed
    assert report.support_violations == 1


def test_verify_counts_each_kind_of_infeasible_label():
    amplitudes = dict(build_embedded(SYM, 4, 2).amplitudes)
    bad = [((1, 0), (2, 2)),   # subset not ascending
           ((0, 0), (2, 2)),   # QLAN repeated
           ((0, 9), (2, 2)),   # QLAN outside the network
           ((0, 1), (1, 1)),   # sums to 2, not k_req
           ((0, 1), (5, -1)),  # negative part, part above its cap
           ((0, 1), (1, 3))]   # feasible, but not the builder's (drawn as is)
    amplitudes.update(dict.fromkeys(bad, 1e-3))
    report = verify_state(SparseState(amplitudes), SYM, 4, 2, 1000,
                          trial_rng(13))
    assert report.support_violations == 5
    # a width other than K makes every label infeasible
    report = verify_state(build_embedded(SYM, 4, 2), SYM, 4, 3, 1000,
                          trial_rng(13))
    assert report.support_violations == 18
    # a negative part that every other check lets through
    net = NetworkConfig.from_caps((6, 6))
    state = SparseState({((0, 1), (-1, 5)): 0.6, ((0, 1), (2, 2)): 0.8})
    report = verify_state(state, net, 4, 2, 1000, trial_rng(13))
    assert report.support_violations == 1


def test_verify_flags_missing_subset():
    state = build_embedded(SYM, 4, 2)
    amplitudes = {key: amp for key, amp in state.amplitudes.items()
                  if key[0] != (0, 1)}
    norm = math.sqrt(math.fsum(a * a for a in amplitudes.values()))
    amplitudes = {k: a / norm for k, a in amplitudes.items()}
    report = verify_state(SparseState(amplitudes), SYM, 4, 2, 1000,
                          trial_rng(11))
    assert not report.passed
    assert any("subsets" in f for f in report.failures)


def test_verify_flags_nonuniform_conditional():
    """Shift mass between two splits of one subset: norm and outer marginal
    stay exact, only the conditional layer can catch it."""
    state = build_embedded(SYM, 4, 2)
    amplitudes = dict(state.amplitudes)
    subset = (0, 1)
    vecs = [vec for (s, vec) in amplitudes if s == subset]
    a, b = (subset, vecs[0]), (subset, vecs[1])
    pa = amplitudes[a] ** 2
    pb = amplitudes[b] ** 2
    shift = 0.5 * pb
    amplitudes[a] = math.sqrt(pa + shift)
    amplitudes[b] = math.sqrt(pb - shift)
    report = verify_state(SparseState(amplitudes), SYM, 4, 2, 1000,
                          trial_rng(12))
    assert not report.passed
    assert report.norm_dev < 1e-12
    assert report.marginal_max_dev < 1e-12
    assert report.conditional_max_dev > 1e-3


def test_draws_square_amplitudes_with_pow():
    # x ** 2 (libm pow) and x * x differ in the last bit for this x; the
    # sampled stream has always used x ** 2
    x = 0.9503546630566793
    assert x ** 2 != x * x
    y = math.sqrt(1 - x ** 2)
    state = SparseState({((0,), (0,)): x, ((0,), (1,)): y})
    probs = np.array([x ** 2, y ** 2])
    assert np.array_equal(_prob_array(state), probs / probs.sum())


def test_check_normalized_raises():
    state = SparseState({((0,), (1,)): 0.5})
    with pytest.raises(InvariantViolationError):
        state.check_normalized()
    # the norm is taken once per state, and measurement still refuses it
    assert state.norm_sq() == 0.25
    with pytest.raises(InvariantViolationError):
        measure_many(state, trial_rng(0), 10)


def test_verify_takes_one_full_norm_pass(monkeypatch):
    net = generate_network(6, 1.0, 60)
    k_req = demand_to_kreq(0.4, net.total)
    K = safe_select_k(k_req, net.caps)
    state = build_embedded(net, k_req, K)
    exact_lengths, fsum_lengths = [], []
    exact_sum, fsum = qverify._exact_sum, math.fsum

    def counting_exact_sum(values):
        exact_lengths.append(len(values))
        return exact_sum(values)

    def counting_fsum(values):
        values = list(values)
        fsum_lengths.append(len(values))
        return fsum(values)

    monkeypatch.setattr(qverify, "_exact_sum", counting_exact_sum)
    monkeypatch.setattr(math, "fsum", counting_fsum)
    report = verify_state(state, net, k_req, K, 2000, trial_rng(1))
    assert report.passed
    # the norm is one exact pass over every label, shared by the draws; a
    # built state's branches are single-valued, so no label is fsum'd
    assert exact_lengths == [len(state.amps)]
    assert fsum_lengths == []
    assert len(state.subsets) > 1


def _one_branch_state(weights) -> SparseState:
    n = len(weights)
    amps = np.sqrt(np.asarray(weights, dtype=float) / math.fsum(weights))
    return SparseState.from_arrays(np.zeros((1, 1), dtype=np.int64),
                                   np.array([0, n]),
                                   np.arange(n).reshape(n, 1), amps)


def _assert_counts_equal_choice(state, seed, draws):
    probs = _prob_array(state)
    twin, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = np.bincount(twin.choice(len(probs), size=draws, p=probs),
                           minlength=len(probs))
    assert np.array_equal(_sample_counts(state, rng, draws), expected)
    assert rng.random() == twin.random()


@settings(max_examples=150, deadline=None)
@given(weights=st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0])
                        | st.floats(0.0, 10.0), min_size=1, max_size=40)
       .filter(lambda w: sum(w) > 0),
       draws=st.integers(1, 400), chunk=st.integers(1, 70),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sample_counts_equal_choice_on_a_twin_generator(weights, draws,
                                                        chunk, seed):
    # zero cells anywhere, and draw counts on both sides of the chunk
    state = _one_branch_state(weights)
    with mock.patch.object(qverify, "_DRAW_CHUNK", chunk):
        _assert_counts_equal_choice(state, seed, draws)


def test_sample_counts_equal_choice_across_default_chunks():
    net, k_req, K = _cli_point(8, 0.5, 0.2)
    _assert_counts_equal_choice(build_embedded(net, k_req, K), 7,
                                2 * qverify._DRAW_CHUNK + 5)


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(st.tuples(st.floats(0.0, 1e300), st.integers(64, 300)),
                     min_size=1, max_size=6))
@example(runs=[(0.1, 64)])
@example(runs=[(5e-324, 100), (2.5e-320, 70), (1e-310, 64)])
@example(runs=[(1e300, 300), (1.7e305, 100), (1e-300, 64)])
@example(runs=[(1 / 3, 999999)])
def test_exact_sum_equals_fsum_over_long_runs(runs):
    values = np.repeat([v for v, _ in runs], [c for _, c in runs])
    expected = math.fsum(values)
    # runs this long never reach fsum: the run products must match it alone
    with mock.patch.object(math, "fsum", side_effect=AssertionError):
        assert _exact_sum(values) == expected


@pytest.mark.parametrize("values", [
    [], [0.25], [0.1, 0.2, 0.3], [1e-320, 1e300, 0.5] * 30,
    [math.inf] * 200, [0.5] * 100 + [math.nan] * 100])
def test_exact_sum_equals_fsum_on_short_runs_and_non_finite(values):
    got, expected = _exact_sum(np.array(values)), math.fsum(values)
    assert got == expected or math.isnan(got) and math.isnan(expected)


def _fsum_branch_stats(state):
    """The per-label reference: fsum each branch, then every label's
    deviation from its branch's uniform conditional."""
    probs = np.square(state.amps)
    bounds = state.offsets.tolist()
    totals = np.array([math.fsum(probs[a:b])
                       for a, b in zip(bounds, bounds[1:])])
    sizes = np.diff(state.offsets)
    with np.errstate(divide="ignore"):
        dev = probs / np.repeat(totals, sizes) - np.repeat(1.0 / sizes, sizes)
    return totals, float(np.abs(dev).max(initial=0.0))


@settings(max_examples=200, deadline=None)
@given(branches=st.lists(st.lists(st.tuples(st.floats(1e-170, 1e150),
                                            st.integers(0, 20)),
                                  max_size=3), min_size=1, max_size=6))
@example(branches=[[(1e-160, 5)], [(1e-160, 3), (2e-160, 2)]])
@example(branches=[[(1e150, 20)], [], [(0.5, 1)]])
def test_branch_totals_equal_fsum_per_branch(branches):
    # single-valued, mixed and empty branches, subnormal and large squares
    sizes = [sum(c for _, c in runs) for runs in branches]
    amps = np.concatenate([np.repeat([a for a, _ in runs],
                                     [c for _, c in runs])
                           for runs in branches] + [np.zeros(0)])
    state = SparseState.from_arrays(
        np.arange(len(branches)).reshape(-1, 1),
        np.concatenate(([0], np.cumsum(sizes))),
        np.zeros((len(amps), 1), dtype=np.int8), amps)
    with np.errstate(invalid="ignore"):  # a branch whose squares are all 0
        totals, dev = _branch_stats(state)
        ref_totals, ref_dev = _fsum_branch_stats(state)
    assert totals.tolist() == ref_totals.tolist()
    assert dev == ref_dev or math.isnan(dev) and math.isnan(ref_dev)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_amplitude_fails_structurally(bad):
    state = build_embedded(SYM, 4, 2)
    amps = state.amps.copy()
    amps[3] = bad
    state = SparseState.from_arrays(state.subsets, state.offsets,
                                    state.vectors, amps)
    rng = trial_rng(5)
    with np.errstate(invalid="ignore"):
        report = verify_state(state, SYM, 4, 2, 1000, rng)
    assert not report.passed
    assert [f.split(" deviates")[0] for f in report.failures] == [
        "norm^2", "outer marginal", "some conditional"]
    # nothing was sampled: the generator has not moved
    assert rng.random() == trial_rng(5).random()
    assert report.drawn_violations == 0
    for name in ("outer_chi2", "outer_pvalue", "pooled_chi2",
                 "pooled_pvalue", "jain_uniform"):
        assert math.isnan(getattr(report, name))
    assert report.min_expected_cell == math.inf
    with pytest.raises(InvariantViolationError):
        state.check_normalized()
    with pytest.raises(InvariantViolationError):
        measure_many(state, rng, 10)


def test_build_sizes_each_caps_multiset_once(monkeypatch):
    calls = []

    def counting(k, caps):
        calls.append(caps)
        return count_partitions(k, caps)

    monkeypatch.setattr(qverify, "count_partitions", counting)
    net = NetworkConfig.from_caps((2, 1, 3, 1, 2, 1))
    state = build_embedded(net, 5, 4)
    multisets = {tuple(sorted(net.caps[i] for i in s))
                 for s in itertools.combinations(range(net.m), 4)}
    assert sorted(calls) == sorted(multisets)
    assert len(calls) < math.comb(net.m, 4)
    assert np.diff(state.offsets).tolist() == [
        count_partitions(5, tuple(net.caps[i] for i in s))
        for s in itertools.combinations(range(net.m), 4)]


@pytest.mark.parametrize("m, skew, demand", [(6, 1.0, 0.4), (8, 0.5, 0.2)])
def test_pooled_statistic_is_the_sum_of_branch_chisquares(m, skew, demand):
    net = generate_network(m, skew, 10 * m)
    k_req = demand_to_kreq(demand, net.total)
    K = safe_select_k(k_req, net.caps)
    state = build_embedded(net, k_req, K)
    report = verify_state(state, net, k_req, K, 5000, trial_rng(3))
    counts = _sample_counts(state, trial_rng(3), 5000)
    branches = [obs for obs in np.split(counts, state.offsets[1:-1])
                if obs.sum() and len(obs) > 1]
    assert report.pooled_chi2 == sum(_chisquare(obs)[0] for obs in branches)
    assert report.pooled_dof == sum(len(obs) - 1 for obs in branches)


@pytest.mark.parametrize("obs", [[16, 18, 16, 14, 12, 12], [5, 0, 0, 9],
                                 [1000, 1010, 990], [3, 3, 3, 3], [0, 7]])
def test_chisquare_helper_equals_scipy_stats(obs):
    from scipy import stats

    obs = np.array(obs)
    stat, pvalue = stats.chisquare(obs)
    assert _chisquare(obs) == (float(stat), float(pvalue))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), width=st.integers(1, 8), n_rows=st.integers(1, 3))
def test_enum_rows_matches_enum_partitions_in_content_and_order(
        data, width, n_rows):
    caps = [data.draw(st.lists(st.integers(0, 6), min_size=width,
                               max_size=width)) for _ in range(n_rows)]
    k = data.draw(st.integers(0, max(map(sum, caps)) + 2))
    got = _enum_rows(k, np.array(caps)).tolist()
    # row after row, each row's splits in the oracle's lexicographic order;
    # k > sum(caps) gives that row nothing
    want = [list(vec) for row in caps for vec in enum_partitions(k, row)]
    assert got == want


def _dict_reference(net, k_req, K):
    """The embedded state as a {label: amplitude} dict, one enum_partitions
    per subset: the builder before states were held as arrays."""
    amplitudes = {}
    outer_amp_sq = 1.0 / math.comb(net.m, K)
    for subset in itertools.combinations(range(net.m), K):
        omega = enum_partitions(k_req, tuple(net.caps[i] for i in subset))
        amp = math.sqrt(outer_amp_sq / len(omega))
        for vec in omega:
            amplitudes[(subset, vec)] = amp
    return amplitudes


def _cli_point(m, skew, demand):
    net = generate_network(m, skew, 10 * m)
    k_req = demand_to_kreq(demand, net.total)
    return net, k_req, safe_select_k(k_req, net.caps, ModelParams().beta)


@pytest.mark.parametrize("net, k_req, K", [
    (SYM, 4, 2),
    _cli_point(6, 1.0, 0.4),  # the README point
    _cli_point(8, 0.5, 0.2),  # 56 subsets of unequal sizes
])
def test_array_state_equals_dict_reference(net, k_req, K):
    state = build_embedded(net, k_req, K)
    ref = _dict_reference(net, k_req, K)
    assert list(state.amplitudes.items()) == list(ref.items())
    assert state.amplitudes == ref
    # the draws' probability vector and the uniform-quota fairness, bit for
    # bit against the per-label computations
    probs = np.array([a ** 2 for a in ref.values()])
    assert np.array_equal(_prob_array(state), probs / probs.sum())
    qlan_prob = [0.0] * net.m
    for (subset, vec), amp in ref.items():
        for i, v in zip(subset, vec):
            if net.caps[i] > 0:
                qlan_prob[i] += amp * amp * v / net.caps[i]
    assert np.array_equal(node_win_probs(state, net.caps),
                          np.repeat(qlan_prob, net.caps))
    reports = [dataclasses.asdict(verify_state(s, net, k_req, K, 20000,
                                               trial_rng(3)))
               for s in (state, SparseState(ref))]
    assert reports[0] == reports[1]
    assert reports[0]["failures"] == []


def test_largest_verify_cell_builds_and_verifies_in_bounded_memory():
    net, k_req, K = _cli_point(8, 1.0, 0.6)
    tracemalloc.start()
    try:
        state = build_embedded(net, k_req, K)
        report = verify_state(state, net, k_req, K, 200000, trial_rng(42))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_outcomes == len(state.amplitudes) == 948496
    assert report.n_subsets == 1 and report.outer_pvalue == 1.0
    assert report.passed
    assert peak < 100e6
