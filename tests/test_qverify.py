"""Sparse selection-state construction, measurement and verification.

The embedded state's outcome distribution must coincide with the lottery
chain: the first K QLANs of a uniform permutation win, and quota_round
splits the request over them in arrangement order. That equivalence is a
closed-form statement about the amplitudes, so it is asserted against a
brute force over every permutation, without sampling tolerance.
"""

import dataclasses
import itertools
import math
import tracemalloc
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from dheac import (
    CapacityError,
    InvariantViolationError,
    ModelParams,
    NetworkConfig,
    SparseState,
    build_embedded,
    demand_to_kreq,
    enum_partitions,
    generate_network,
    node_win_probs,
    quota_round,
    safe_select_k,
    trial_rng,
    verify_state,
)
from dheac import qverify
from dheac.lottery import exact_node_probs
from dheac.netgen import Request
from dheac.partition import count_partitions
from dheac.qverify import (
    NORM_TOL,
    _branch_stats,
    _chisquare,
    _label_violations,
    _sample_counts,
    marginal_outer,
    measure_many,
)

SYM = NetworkConfig.from_caps((3, 3, 3, 3))


def _hand_built(amplitudes) -> SparseState:
    """A state from a {(subset, vector): amplitude} dict whose labels share
    one subset width and one vector width."""
    labels = sorted(amplitudes)
    subsets, sizes = zip(*[(s, len(list(run))) for s, run in
                           itertools.groupby(labels, key=lambda lab: lab[0])])
    return SparseState(np.array(subsets, dtype=np.int64),
                       np.concatenate(([0], np.cumsum(sizes))),
                       np.array([v for _, v in labels], dtype=np.int64),
                       np.array([amplitudes[lab] for lab in labels]))


def _chain_law(caps, k_req, K) -> dict:
    """{(winners, quotas): probability} of one round of the lottery chain,
    by brute force over all m! arrangements: the first K QLANs win, and
    quota_round splits k_req over them in arrangement order."""
    counts = Counter()
    for order in itertools.permutations(range(len(caps))):
        winners = order[:K]
        quotas = dict(zip(winners, quota_round(
            k_req, [caps[i] for i in winners])))
        subset = tuple(sorted(winners))
        counts[subset, tuple(quotas[i] for i in subset)] += 1
    total = math.factorial(len(caps))
    return {label: c / total for label, c in counts.items()}


@settings(max_examples=60, deadline=None)
@given(caps=st.lists(st.integers(0, 7), min_size=1, max_size=6)
       .filter(lambda caps: sum(caps) >= 1),
       k_req=st.integers(1, 42))
@example(caps=[3, 3, 3, 3], k_req=4)  # equal caps
@example(caps=[3, 0, 2, 3], k_req=4)  # a zero cap
@example(caps=[5, 4, 6], k_req=4)  # K = 1
@example(caps=[5, 0, 0, 1, 9, 2], k_req=7)  # zero caps
def test_embedded_matches_classical_sampler_exactly(caps, k_req):
    # the label set and amp^2 of every label, at every K (K = m included)
    # whose K smallest QLANs cover k_req, for any k_req in 1..sum(caps)
    k_req = 1 + (k_req - 1) % sum(caps)
    net = NetworkConfig.from_caps(caps)
    for K in range(1, len(caps) + 1):
        if sum(sorted(caps)[:K]) < k_req:
            continue
        state = build_embedded(net, k_req, K)
        law = _chain_law(caps, k_req, K)
        probs = dict(zip(state.amplitudes, np.square(state.amps).tolist()))
        assert set(probs) == set(law)
        assert all(abs(probs[label] - p) <= 1e-14 for label, p in law.items())


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
    state = _hand_built({((0, 1), (i, c - i)): amp for i in range(c + 1)})
    assert abs(marginal_outer(state)[(0, 1)] - 1.0) <= NORM_TOL
    report = verify_state(state, net, c, 2, 1000, trial_rng(12))
    assert report.marginal_max_dev <= NORM_TOL
    assert not any("marginal" in f for f in report.failures)


def test_embedded_conditional_is_uniform_per_subset():
    # the second state's branches hold different numbers of quota vectors
    for net, k_req, K in [(SYM, 5, 2), (generate_network(6, 1.0, 30), 12, 5)]:
        state = build_embedded(net, k_req, K)
        report = verify_state(state, net, k_req, K, 2000, trial_rng(4))
        assert report.conditional_max_dev <= NORM_TOL
    assert len(set(np.diff(state.offsets).tolist())) > 1


def test_embedded_rejects_undersized_winner_sets():
    net = NetworkConfig.from_caps((5, 1, 1))
    with pytest.raises(InvariantViolationError):
        build_embedded(net, 5, 2)


def test_embedded_sparse_guard(monkeypatch):
    # 116,396,280 labels over C(20, 14) = 38,760 subsets: counted, not built
    monkeypatch.setattr(qverify, "split_chunks", None)
    with pytest.raises(CapacityError, match="116396280 labels"):
        build_embedded(NetworkConfig.from_caps((10,) * 20), 120, 14)
    # C(24, 14) = 1,961,256 subsets: refused before any is listed
    monkeypatch.setattr(qverify, "_chain_bounds", None)
    with pytest.raises(CapacityError, match="1961256 winner subsets"):
        build_embedded(NetworkConfig.from_caps((10,) * 24), 120, 14)


def test_embedded_walks_in_chunks_of_the_row_budget(monkeypatch):
    chunk_rows = []
    walk = qverify.split_chunks

    def recorded(k, caps, max_rows, dtype):
        chunk_rows.append(max_rows)
        return walk(k, caps, max_rows, dtype)

    monkeypatch.setattr(qverify, "split_chunks", recorded)
    build_embedded(SYM, 5, 2)
    assert chunk_rows == [qverify._piece_rows(2)] == [65_536]


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
    assert report.jain == pytest.approx(1.0, abs=1e-12)


def test_verify_flags_scaled_amplitude():
    state = build_embedded(SYM, 5, 2)  # two labels per branch
    damaged = dict(state.amplitudes)
    key = next(iter(damaged))
    damaged[key] *= 1.05
    report = verify_state(_hand_built(damaged), SYM, 5, 2, 1000, trial_rng(9))
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
    report = verify_state(_hand_built(amplitudes), SYM, 4, 2, 1000,
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
           ((0, 1), (1, 3))]   # within the caps, but no rounding of (3, 3)
    amplitudes.update(dict.fromkeys(bad, 1e-3))
    report = verify_state(_hand_built(amplitudes), SYM, 4, 2, 1000,
                          trial_rng(13))
    assert report.support_violations == 6
    # a width other than K makes every label infeasible
    report = verify_state(build_embedded(SYM, 4, 2), SYM, 4, 3, 1000,
                          trial_rng(13))
    assert report.support_violations == 6
    # a negative part that every other check lets through
    net = NetworkConfig.from_caps((6, 6))
    state = _hand_built({((0, 1), (-1, 5)): 0.6, ((0, 1), (2, 2)): 0.8})
    report = verify_state(state, net, 4, 2, 1000, trial_rng(13))
    assert report.support_violations == 1


def test_verify_flags_missing_subset():
    state = build_embedded(SYM, 4, 2)
    amplitudes = {key: amp for key, amp in state.amplitudes.items()
                  if key[0] != (0, 1)}
    norm = math.sqrt(math.fsum(a * a for a in amplitudes.values()))
    amplitudes = {k: a / norm for k, a in amplitudes.items()}
    report = verify_state(_hand_built(amplitudes), SYM, 4, 2, 1000,
                          trial_rng(11))
    assert not report.passed
    assert any("subsets" in f for f in report.failures)


def test_verify_flags_nonuniform_conditional():
    """Shift mass between two splits of one subset: norm and outer marginal
    stay exact, only the conditional layer can catch it."""
    state = build_embedded(SYM, 5, 2)  # (2, 3) and (3, 2) in every subset
    amplitudes = dict(state.amplitudes)
    subset = (0, 1)
    vecs = [vec for (s, vec) in amplitudes if s == subset]
    a, b = (subset, vecs[0]), (subset, vecs[1])
    pa = amplitudes[a] ** 2
    pb = amplitudes[b] ** 2
    shift = 0.5 * pb
    amplitudes[a] = math.sqrt(pa + shift)
    amplitudes[b] = math.sqrt(pb - shift)
    report = verify_state(_hand_built(amplitudes), SYM, 5, 2, 1000,
                          trial_rng(12))
    assert not report.passed
    assert report.norm_dev < 1e-12
    assert report.marginal_max_dev < 1e-12
    assert report.conditional_max_dev > 1e-3


def test_check_normalized_raises():
    state = _hand_built({((0,), (1,)): 0.5})
    with pytest.raises(InvariantViolationError):
        state.check_normalized()
    assert state.norm_sq() == 0.25
    # measurement refuses it before it draws: the generator has not moved
    rng = trial_rng(0)
    with pytest.raises(InvariantViolationError):
        measure_many(state, rng, 10)
    assert rng.random() == trial_rng(0).random()


def test_the_constructor_wraps_its_arrays_read_only():
    arrays = (np.array([[0, 1]]), np.array([0, 2]),
              np.array([[1, 3], [2, 2]], dtype=np.int8), np.array([0.6, 0.8]))
    state = SparseState(*arrays)
    for name, arr in zip(("subsets", "offsets", "vectors", "amps"), arrays):
        assert getattr(state, name) is arr  # not copied
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        state.amps[0] = 1.0
    subsets, offsets, vectors, amps = (a.copy() for a in arrays)
    for bad in ([0, 1], [1, 2], [0, 2, 2], [0, 3]):
        with pytest.raises(ValueError, match="offsets must run"):
            SparseState(subsets, np.array(bad), vectors, amps)
    with pytest.raises(ValueError, match="offsets must run"):
        SparseState(subsets, offsets, vectors, amps[:1])


def test_amplitude_view_is_the_arrays_in_label_order():
    state = build_embedded(SYM, 4, 2)
    view = state.amplitudes
    assert len(view) == 6
    labels = list(view)
    assert labels == sorted(labels) and len(set(labels)) == 6
    assert [view[label] for label in labels] == state.amps.tolist()
    assert ((0, 1), (2, 2)) in view
    for missing in (((0, 1), (4, 0)), ((0, 1, 2), (2, 2, 0)), "label"):
        assert missing not in view
        with pytest.raises(KeyError):
            view[missing]


def test_sample_counts_leave_the_norm_check_to_their_callers():
    # verify_state draws only after its own norm check, so the draw makes
    # no second pass: a scaled state draws what the normalized one does
    state = _one_branch_state([1.0, 3.0, 0.5])
    scaled = SparseState(state.subsets, state.offsets, state.vectors,
                         2 * state.amps)
    with pytest.raises(InvariantViolationError):
        scaled.check_normalized()
    assert np.array_equal(_sample_counts(scaled, trial_rng(2), 1000),
                          _sample_counts(state, trial_rng(2), 1000))


def test_verify_takes_one_full_norm_pass(monkeypatch):
    net = generate_network(6, 1.0, 60)
    k_req = demand_to_kreq(0.4, net.total)
    K = safe_select_k(k_req, net.caps)
    state = build_embedded(net, k_req, K)
    fsum_lengths = []
    fsum = math.fsum

    def counting_fsum(values):
        values = list(values)
        fsum_lengths.append(len(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    report = verify_state(state, net, k_req, K, 2000, trial_rng(1))
    assert report.passed
    # the norm is one fsum pass over every label, shared by the draws; a
    # built state's branches are single-valued, so no branch is fsum'd
    assert fsum_lengths == [len(state.amps)]
    assert len(state.subsets) > 1


def _one_branch_state(weights) -> SparseState:
    n = len(weights)
    amps = np.sqrt(np.asarray(weights, dtype=float) / math.fsum(weights))
    return SparseState(np.zeros((1, 1), dtype=np.int64), np.array([0, n]),
                       np.arange(n).reshape(n, 1), amps)


@settings(max_examples=150, deadline=None)
@given(weights=st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0])
                        | st.floats(0.0, 10.0), min_size=1, max_size=40)
       .filter(lambda w: sum(w) > 0),
       draws=st.integers(1, 10 ** 12), seed=st.integers(0, 2 ** 32 - 1))
def test_sample_counts_are_one_multinomial_on_a_twin_generator(weights, draws,
                                                               seed):
    # zero cells anywhere; the reference squares each label as a * a
    state = _one_branch_state(weights)
    probs = np.array([a * a for a in state.amps.tolist()])
    twin, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = twin.multinomial(draws, probs / probs.sum())
    assert np.array_equal(_sample_counts(state, rng, draws), expected)
    assert rng.bit_generator.state == twin.bit_generator.state


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
    state = SparseState(
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
    state = SparseState(state.subsets, state.offsets, state.vectors, amps)
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
                 "pooled_pvalue", "jain"):
        assert math.isnan(getattr(report, name))
    assert report.min_expected_cell == math.inf
    with pytest.raises(InvariantViolationError):
        state.check_normalized()
    with pytest.raises(InvariantViolationError):
        measure_many(state, rng, 10)


def test_build_raises_when_the_count_and_the_walk_disagree(monkeypatch):
    walk = qverify.split_chunks

    def short_walk(*args):
        for owner, vectors in walk(*args):
            yield owner[:-1], vectors[:-1]

    monkeypatch.setattr(qverify, "split_chunks", short_walk)
    with pytest.raises(InvariantViolationError, match="counted"):
        build_embedded(NetworkConfig.from_caps((2, 1, 3, 1, 2, 1)), 5, 4)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), caps=st.lists(st.integers(0, 8), min_size=1,
                                     max_size=7))
def test_branch_counts_are_extreme_at_the_k_largest_and_smallest_caps(
        data, caps):
    # a bounded-split count never shrinks when a cap grows
    K = data.draw(st.integers(1, len(caps)))
    k = data.draw(st.integers(0, sum(caps) + 2))
    counts = [count_partitions(k, [caps[i] for i in s])
              for s in itertools.combinations(range(len(caps)), K)]
    ordered = sorted(caps)
    assert max(counts) == count_partitions(k, ordered[-K:])
    assert min(counts) == count_partitions(k, ordered[:K])
    assert (min(counts) == 0) == (sum(ordered[:K]) < k)


@pytest.mark.parametrize("obs", [[16, 18, 16, 14, 12, 12], [5, 0, 0, 9],
                                 [1000, 1010, 990], [3, 3, 3, 3], [0, 7]])
def test_chisquare_helper_equals_scipy_stats(obs):
    from scipy import stats

    obs = np.array(obs)
    stat, pvalue = stats.chisquare(obs)
    assert _chisquare(obs) == (float(stat), float(pvalue))


def _chain_vectors(k_req, caps) -> list[tuple[int, ...]]:
    """Every quota vector, in slot order, that quota_round gives these
    winners over some arrangement of them; ascending."""
    vectors = set()
    for order in itertools.permutations(range(len(caps))):
        quotas = quota_round(k_req, [caps[j] for j in order])
        vectors.add(tuple(q for _, q in sorted(zip(order, quotas))))
    return sorted(vectors)


def _dict_reference(net, k_req, K):
    """The embedded state as a {label: amplitude} dict, one brute force
    over the arrangements of each subset."""
    amplitudes = {}
    outer_amp_sq = 1.0 / math.comb(net.m, K)
    for subset in itertools.combinations(range(net.m), K):
        omega = _chain_vectors(k_req, [net.caps[i] for i in subset])
        amp = math.sqrt(outer_amp_sq / len(omega))
        for vec in omega:
            amplitudes[(subset, vec)] = amp
    return amplitudes


def _cli_point(m, skew, demand):
    net = generate_network(m, skew, 10 * m)
    k_req = demand_to_kreq(demand, net.total)
    return net, k_req, safe_select_k(k_req, net.caps, ModelParams().beta)


def _pooled_reference(counts, offsets, draws, n_subsets):
    """pooled_chi2, pooled_dof and min_expected_cell, one branch at a time
    over every branch, as verify_state computed them before it skipped the
    branches that add nothing."""
    min_expected, stat_sum, dof_sum = draws / n_subsets, 0.0, 0
    for obs in np.split(counts, offsets[1:-1]):
        total = obs.sum()
        if total == 0 or len(obs) < 2:
            continue
        mean = total / len(obs)
        min_expected = min(min_expected, mean)
        stat_sum += float(((obs - mean) ** 2 / mean).sum())
        dof_sum += len(obs) - 1
    return stat_sum, dof_sum, min_expected


# ids kept from when the parameters were (m, skew, demand) at 5000 draws
@pytest.mark.parametrize("net, k_req, K, draws", [
    pytest.param(*_cli_point(6, 1.0, 0.4), 5000, id="6-1.0-0.4"),
    pytest.param(*_cli_point(8, 0.5, 0.2), 5000, id="8-0.5-0.2"),
    # (0, 1, 2) holds one quota vector, every other subset one or two
    pytest.param(NetworkConfig.from_caps((1, 1, 1, 3, 3)), 3, 3, 5000,
                 id="one-label-and-larger-branches"),
    # 56 subsets, 40 draws: many branches are never drawn
    pytest.param(*_cli_point(8, 0.5, 0.2), 40, id="zero-count-branches"),
    # 495 one-label branches: nothing to pool, and no branch sets the
    # smallest expected count
    pytest.param(NetworkConfig.from_caps((1,) * 12), 4, 4, 20000,
                 id="one-label-branches-only"),
    # 8008 branches of twelve sizes, 6 to 210 labels: each size's
    # branches are one block of rows, and both a row of 8 or more (numpy
    # sums it pairwise) and one past 128 (in halves) must sum as the
    # branch's own slice does
    pytest.param(NetworkConfig.from_caps((1,) * 4 + (2,) * 10 + (3,) * 2),
                 14, 10, 200000, id="many-branches-of-many-sizes"),
])
def test_pooled_statistic_is_the_sum_of_branch_chisquares(net, k_req, K,
                                                          draws):
    state = build_embedded(net, k_req, K)
    report = verify_state(state, net, k_req, K, draws, trial_rng(3))
    counts = _sample_counts(state, trial_rng(3), draws)
    stat, dof, min_expected = _pooled_reference(
        counts, state.offsets, draws, len(state.subsets))
    assert report.pooled_chi2 == stat
    assert report.pooled_dof == dof
    assert report.min_expected_cell == min_expected


@pytest.mark.parametrize("m", [4, 8])
def test_node_win_probs_is_the_chain_law_on_every_canonical_cell(m):
    # every (skew, demand) cell of the verify grid, the two cells the
    # uniform-split state was too large to build included
    for skew, demand in itertools.product((0, 0.5, 1, 1.5, 2),
                                          (0.1, 0.2, 0.4, 0.6)):
        net, k_req, K = _cli_point(m, skew, demand)
        state = build_embedded(net, k_req, K)
        assert len(state.amps) <= 74
        assert np.abs(node_win_probs(state, net.caps) - exact_node_probs(
            net, Request(k_req))).max() <= 1e-11, (m, skew, demand)


def _per_label_node_win_probs(labels, caps):
    """node_win_probs one label at a time: each QLAN's terms p * v / cap
    added left to right in label order."""
    qlan_prob = [0.0] * len(caps)
    for (subset, vec), amp in labels:
        for i, v in zip(subset, vec):
            if caps[i] > 0:
                qlan_prob[i] += amp * amp * v / caps[i]
    return np.repeat(qlan_prob, caps)


@pytest.mark.parametrize("net, k_req, K", [
    (SYM, 4, 2),
    _cli_point(6, 1.0, 0.4),  # the README point
    _cli_point(8, 0.5, 0.2),  # 56 subsets, one of them two labels
    (NetworkConfig.from_caps((3, 0, 2, 3)), 4, 3),  # a zero cap in subsets
    (NetworkConfig.from_caps((1,) * 12), 4, 4),  # 495 one-label branches
])
def test_array_state_equals_dict_reference(net, k_req, K):
    state = build_embedded(net, k_req, K)
    ref = _dict_reference(net, k_req, K)
    assert list(state.amplitudes.items()) == list(ref.items())
    assert state.amplitudes == ref
    # the draws and the uniform-quota fairness, bit for bit against the
    # per-label computations
    probs = np.array([a * a for a in ref.values()])
    assert np.array_equal(_sample_counts(state, trial_rng(5), 20000),
                          trial_rng(5).multinomial(20000, probs / probs.sum()))
    assert np.array_equal(node_win_probs(state, net.caps),
                          _per_label_node_win_probs(ref.items(), net.caps))
    reports = [dataclasses.asdict(verify_state(s, net, k_req, K, 20000,
                                               trial_rng(3)))
               for s in (state, _hand_built(ref))]
    assert reports[0] == reports[1]
    assert reports[0]["failures"] == []


def _mixed_amplitudes() -> SparseState:
    """SYM's support at k_req 5, K 2, each branch holding two
    amplitudes."""
    labels = list(_dict_reference(SYM, 5, 2))
    weights = [1 + i % 5 for i in range(len(labels))]
    return _hand_built({label: math.sqrt(w / math.fsum(weights))
                        for label, w in zip(labels, weights)})


def _qlan_2_in_no_subset() -> SparseState:
    """Subsets (0, 1) and (1, 3) of caps (2, 3, 5, 1) at k_req 3: QLAN 2 is
    in no subset, and QLAN 1 owns one run of rows but sits in slot 1, then
    slot 0."""
    caps = (2, 3, 5, 1)
    labels = [(subset, vec) for subset in ((0, 1), (1, 3))
              for vec in enum_partitions(3, tuple(caps[i] for i in subset))]
    return _hand_built(dict.fromkeys(labels, math.sqrt(1 / len(labels))))


# 11 equal QLANs of C(16, 11) = 4,368 subsets share 8 extra pairs: 720,720
# labels, the largest state of the canonical m <= 16 cells
_LARGEST_CELL = _cli_point(16, 0.0, 0.6)


@pytest.mark.parametrize("caps, make_state", [
    pytest.param(SYM.caps, _mixed_amplitudes, id="mixed-amplitudes"),
    pytest.param((2, 3, 5, 1), _qlan_2_in_no_subset, id="qlan-in-no-subset"),
    pytest.param(_LARGEST_CELL[0].caps, lambda: build_embedded(*_LARGEST_CELL),
                 id="720720-labels"),
])
def test_node_win_probs_equals_per_label_sums(caps, make_state):
    # states the dict reference cannot rebuild, or too large to compare as
    # dicts
    state = make_state()
    labels = zip(state.amplitudes, state.amps.tolist())
    assert np.array_equal(node_win_probs(state, caps),
                          _per_label_node_win_probs(labels, caps))


@pytest.mark.parametrize("bad_id", [-1, 4, 100])
def test_node_win_probs_rejects_qlan_ids_outside_the_network(bad_id):
    # a negative id would wrap to another QLAN, and an id past m - 1 would
    # name none; an id in a subset that owns no labels is refused too
    amp = math.sqrt(0.5)
    state = _hand_built({((0, 1), (2, 2)): amp, ((1, bad_id), (2, 2)): amp})
    with pytest.raises(ValueError, match="QLAN ids"):
        node_win_probs(state, SYM.caps)
    empty = SparseState(np.array([[0, 1], [bad_id, 2]]), np.array([0, 1, 1]),
                        np.array([[2, 2]]), np.array([1.0]))
    with pytest.raises(ValueError, match="QLAN ids"):
        node_win_probs(empty, SYM.caps)


def _label_violations_reference(state, net, k_req, K):
    """Per label: K distinct QLANs of the network in ascending order that
    cover k_req, and a vector the chain can round their caps to."""
    bad = []
    for s, subset in enumerate(state.subsets.tolist()):
        caps = [net.caps[i] for i in subset if 0 <= i < net.m]
        sound = (len(subset) == len(caps) == K and sum(caps) >= k_req
                 and all(a < b for a, b in zip(subset, subset[1:])))
        chain = set(_chain_vectors(k_req, caps)) if sound else set()
        rows = state.vectors[state.offsets[s]:state.offsets[s + 1]]
        bad.extend(tuple(vec) not in chain for vec in rows.tolist())
    return np.array(bad, dtype=bool)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), caps=st.lists(st.integers(0, 200), min_size=1,
                                     max_size=5),
       k_req=st.integers(1, 8),
       dtype=st.sampled_from([np.int8, np.int16, np.int64]))
def test_label_violations_equal_a_per_label_reference(data, caps, k_req,
                                                      dtype):
    # built states damaged through the constructor
    assume(sum(caps) >= k_req)
    net = NetworkConfig.from_caps(caps)
    K = data.draw(st.sampled_from([K for K in range(1, net.m + 1)
                                   if sum(sorted(caps)[:K]) >= k_req]))
    state = build_embedded(net, k_req, K)
    subsets, vectors = state.subsets.copy(), state.vectors.astype(dtype)
    # a pair moved between slots: the sum holds, the rounding need not
    for _ in range(data.draw(st.integers(0, 2))):
        row = data.draw(st.integers(0, len(vectors) - 1))
        vectors[row, data.draw(st.integers(0, K - 1))] -= 1
        vectors[row, data.draw(st.integers(0, K - 1))] += 1
    # QLAN ids out of range, out of order or repeated
    for _ in range(data.draw(st.integers(0, 3))):
        subsets[data.draw(st.integers(0, len(subsets) - 1)),
                data.draw(st.integers(0, K - 1))] = data.draw(
                    st.integers(-1, net.m))
    # negative entries, entries over the cap, and so wrong sums
    for _ in range(data.draw(st.integers(0, 4))):
        vectors[data.draw(st.integers(0, len(vectors) - 1)),
                data.draw(st.integers(0, K - 1))] = data.draw(
                    st.integers(-3, 10) | st.integers(-128, 127))
    damaged = SparseState(subsets, state.offsets, vectors, state.amps)
    # a K other than the vectors' width marks every label
    checked_K = data.draw(st.sampled_from([K, K, K, K - 1, K + 1]))
    assert np.array_equal(
        _label_violations(damaged, net, k_req, checked_K),
        _label_violations_reference(damaged, net, k_req, checked_K))


def test_label_diagnostics_peak_within_a_few_label_arrays():
    # the 720,720-label cell past the state build: neither step makes an
    # (n_labels, K) temporary
    net, k_req, K = _LARGEST_CELL
    state = build_embedded(net, k_req, K)
    label_array = 8 * len(state.amps)
    peaks = []
    for step in (lambda: node_win_probs(state, net.caps),
                 lambda: _label_violations(state, net, k_req, K)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(state.amps) == 720720
    assert peaks[0] <= 4.5 * label_array
    assert peaks[1] <= 1.5 * label_array


def test_largest_verify_cell_builds_and_verifies_in_bounded_memory():
    net, k_req, K = _LARGEST_CELL
    tracemalloc.start()
    try:
        state = build_embedded(net, k_req, K)
        report = verify_state(state, net, k_req, K, 200000, trial_rng(42))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_outcomes == len(state.amps) == 720720
    assert report.n_subsets == 4368
    assert report.passed
    assert peak < 100e6


def test_build_peaks_within_a_small_multiple_of_the_state_it_returns():
    # 4,368 subsets of 165 labels, and 497,420 subsets of 649,269 labels in
    # all, whose rounding goes a chunk of subsets at a time
    for cell, n_labels in (((16, 0.0, 0.6), 720720), ((22, 1.0, 0.1), 649269)):
        net, k_req, K = _cli_point(*cell)
        tracemalloc.start()
        try:
            state = build_embedded(net, k_req, K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (state.subsets, state.offsets,
                                      state.vectors, state.amps))
        assert len(state.amps) == n_labels
        assert peak <= 3.5 * held


def test_sample_counts_holds_at_most_two_label_arrays_and_a_chunk():
    # the 720,720-label cell; measure_many's draw alone, past the state build
    net, k_req, K = _LARGEST_CELL
    state = build_embedded(net, k_req, K)
    n = len(state.amps)
    tracemalloc.start()
    try:
        counts = _sample_counts(state, trial_rng(42), 200000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 720720 and counts.sum() == 200000
    assert peak <= 2.5 * 8 * n
