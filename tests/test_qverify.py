"""Sparse selection-state construction, measurement and verification.

The embedded state's outcome distribution must coincide exactly with the
classical two-stage sampler: a uniform winner subset, then a uniform
feasible split. That equivalence is a closed-form statement about the
amplitudes, so it is asserted without sampling tolerance.
"""

import math

import numpy as np
import pytest

from dheac import (
    CapacityError,
    InvariantViolationError,
    NetworkConfig,
    SparseState,
    build_dicke,
    build_embedded,
    conditional_inner,
    count_partitions,
    generate_network,
    marginal_outer,
    measure,
    measure_many,
    node_win_probs,
    trial_rng,
    verify_state,
)
from dheac.qverify import NORM_TOL, _chisquare

SYM = NetworkConfig.from_caps((3, 3, 3, 3))


def test_dicke_weights():
    state = build_dicke(4, 2)
    assert len(state.amplitudes) == 6
    amp = 1 / math.sqrt(6)
    assert all(a == pytest.approx(amp) for a in state.amplitudes.values())
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-15)


def test_dicke_guards():
    with pytest.raises(CapacityError):
        build_dicke(21, 2)
    with pytest.raises(ValueError):
        build_dicke(4, 0)
    with pytest.raises(ValueError):
        build_dicke(4, 5)


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
    state = build_embedded(SYM, 4, 2)
    for subset in marginal_outer(state):
        cond = conditional_inner(state, subset)
        flat = 1 / len(cond)
        assert all(p == pytest.approx(flat, abs=1e-14) for p in cond.values())


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
    rng = trial_rng(5)
    outcomes = [measure(state, rng) for _ in range(200)]
    assert all(o in state.amplitudes for o in outcomes)
    rng2 = trial_rng(5)
    assert outcomes == [measure(state, rng2) for _ in range(200)]


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


def test_check_normalized_raises():
    state = SparseState({((0,), (1,)): 0.5})
    with pytest.raises(InvariantViolationError):
        state.check_normalized()


@pytest.mark.parametrize("obs", [[16, 18, 16, 14, 12, 12], [5, 0, 0, 9],
                                 [1000, 1010, 990], [3, 3, 3, 3], [0, 7]])
def test_chisquare_helper_equals_scipy_stats(obs):
    from scipy import stats

    obs = np.array(obs)
    stat, pvalue = stats.chisquare(obs)
    assert _chisquare(obs) == (float(stat), float(pvalue))
