"""Closed-form metric checks against hand-derived values.

The worked reference point: q=0.05 with 3 attempts gives per-pair success
p = 1 - 0.05^3 = 0.999875, so a request of 16 pairs with K=4 winners out
of m=16 and a 64-bit quota register has P_upper = p^20, P_lower = p^96 and
P_b2 = p^16. The loss-free latency point (m=4, K=2, k_req=4, ell=8) costs
(2 + 0.05*4 + 1) + (2 + 0.05*2 + 1) = 6.30 ms optimistic and 5.10 ms for
the arbitration baseline with k_max=2.
"""

import math

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dheac import (
    LATENCY_MODES,
    ModelParams,
    ancilla_bits,
    ecdf,
    evaluate_point,
    jain_index,
    latency_b2,
    latency_dheac,
    quota_round,
    success_b2,
    success_bounds,
    throughput,
)

REF = ModelParams(q=0.05)
LOSSFREE = ModelParams(q=0.0)


def test_unit_success_and_attempts():
    assert REF.unit_success == pytest.approx(0.999875, abs=0)
    assert REF.expected_attempts == pytest.approx(0.999875 / 0.95, rel=1e-15)
    assert LOSSFREE.unit_success == 1.0
    assert LOSSFREE.expected_attempts == 1.0


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(q=1.0)
    with pytest.raises(ValueError):
        ModelParams(q=-0.1)
    with pytest.raises(ValueError):
        ModelParams(max_attempts=0)
    # counts must be integers: 2.5 attempts has no meaning, and a string
    # would only fail later, inside a comparison
    for bad in (2.5, 3.0, "3", True):
        with pytest.raises(ValueError, match="max_attempts must be an integer"):
            ModelParams(max_attempts=bad)
        with pytest.raises(ValueError, match="rounds must be an integer"):
            ModelParams(rounds=bad)
    with pytest.raises(ValueError):
        ModelParams(t_dist=-1.0)


def test_counts_beyond_2_53_are_refused():
    # latency_b2 multiplies rounds into a float time; beyond 2**53 a count
    # is no longer exact as a float, and past 1e308 it cannot convert at all
    assert ModelParams(rounds=2 ** 53, max_attempts=2 ** 53).rounds == 2 ** 53
    for name, low in (("rounds", 0), ("max_attempts", 1)):
        for bad in (low - 1, 2 ** 53 + 1, 10 ** 308, 10 ** 309):
            with pytest.raises(ValueError,
                               match=rf"{name} must lie in \[{low}, 2\*\*53\]"):
                ModelParams(**{name: bad})


def test_reference_success_bounds():
    p_lower, p_upper = success_bounds(16, 4, 16, 64, REF)
    assert p_lower == pytest.approx((1 - 0.05 ** 3) ** 96, rel=1e-12)
    assert p_upper == pytest.approx((1 - 0.05 ** 3) ** 20, rel=1e-12)
    assert f"{p_lower:.6f}" == "0.988071"
    assert f"{p_upper:.6f}" == "0.997503"
    assert f"{success_b2(16, REF):.6f}" == "0.998002"


def test_reference_latencies():
    assert latency_dheac(4, 2, 4, 8, LOSSFREE, "optimistic") == pytest.approx(6.30)
    assert latency_dheac(4, 2, 4, 8, LOSSFREE, "conservative") == pytest.approx(6.70)
    assert latency_b2(4, 2, LOSSFREE) == pytest.approx(5.10)


def test_ancilla_register_width():
    assert ancilla_bits((3, 3, 3, 3)) == 8
    assert ancilla_bits((13, 6, 4, 3, 2, 2)) == 16
    assert ancilla_bits((0, 1, 10)) == 0 + 1 + 4
    assert ancilla_bits((10,) * 16) == 64


@given(k_req=st.integers(1, 50), K=st.integers(1, 16), extra=st.integers(0, 16),
       ell=st.integers(0, 128), q=st.floats(0.0, 0.9))
def test_bound_ordering(k_req, K, extra, ell, q):
    """More mandatory qubits can only hurt: P_lower <= P_upper <= P_b2."""
    m = K + extra
    params = ModelParams(q=q)
    p_lower, p_upper = success_bounds(k_req, K, m, ell, params)
    assert 0.0 <= p_lower <= p_upper <= 1.0
    assert p_upper <= success_b2(k_req, params)


@given(m=st.integers(1, 64), K=st.integers(1, 16), k_req=st.integers(1, 100),
       ell=st.integers(0, 256), q=st.floats(0.0, 0.9))
def test_conservative_latency_dominates(m, K, k_req, ell, q):
    params = ModelParams(q=q)
    opt = latency_dheac(m, K, k_req, ell, params, "optimistic")
    cons = latency_dheac(m, K, k_req, ell, params, "conservative")
    assert opt <= cons
    assert cons - opt == pytest.approx(
        params.expected_attempts * params.t_dist * ell, rel=1e-12)


@given(m=st.integers(1, 64), k_max=st.integers(0, 100), q=st.floats(0.0, 0.9))
def test_baseline_latency_linear_in_m(m, k_max, q):
    params = ModelParams(q=q)
    gap = latency_b2(2 * m, k_max, params) - latency_b2(m, k_max, params)
    assert gap == pytest.approx(params.rounds * m * params.t_ctl, rel=1e-12)


def test_throughput_is_rate():
    assert throughput(0.988071, 6.30) == pytest.approx(0.988071 / 6.30)
    for latency in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="latency must be finite"):
            throughput(0.5, latency)
    with pytest.raises(ValueError):
        throughput(1.5, 1.0)


def test_an_overflowing_latency_is_refused_not_divided_by():
    # 2 * (t_gen + t_meas) is inf; its throughput would be 0, and the
    # CLI's ratios divide by it
    with pytest.raises(ValueError, match="latency must be finite"):
        evaluate_point((10, 10, 10, 10), 4, ModelParams(t_gen=1e308))


def test_jain_reference_values():
    assert jain_index([0.5, 0.25, 0.25]) == pytest.approx(8 / 9, rel=1e-12)
    assert jain_index([0.4] * 160) == pytest.approx(1.0, abs=1e-15)
    assert jain_index([7.0]) == 1.0


@given(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=64))
def test_jain_bounds_and_scale_invariance(xs):
    j = jain_index(xs)
    assert 1.0 / len(xs) - 1e-12 <= j <= 1.0 + 1e-12
    assert jain_index([x * 3.5 for x in xs]) == pytest.approx(j, rel=1e-9)


def test_jain_rejects_degenerate_input():
    with pytest.raises(ValueError):
        jain_index([])
    with pytest.raises(ValueError):
        jain_index([0.0, 0.0])
    with pytest.raises(ValueError):
        jain_index([0.2, -0.1])


def test_ecdf_reference():
    assert ecdf([0.2, 0.4, 0.4, 0.8]) == [(0.2, 0.25), (0.4, 0.75), (0.8, 1.0)]


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=50))
def test_ecdf_shape(xs):
    pairs = ecdf(xs)
    values = [v for v, _ in pairs]
    fracs = [f for _, f in pairs]
    assert values == sorted(set(values))
    assert all(f1 < f2 for f1, f2 in zip(fracs, fracs[1:]))
    assert fracs[-1] == pytest.approx(1.0, abs=1e-12)


def test_evaluate_point_composes_the_parts():
    caps = (20, 10, 6, 4)
    rec = evaluate_point(caps, 16, REF)
    assert rec.K == 3
    assert rec.ell_anc == ancilla_bits(caps)
    lo, hi = success_bounds(16, rec.K, 4, rec.ell_anc, REF)
    assert (rec.P_lower, rec.P_upper) == (lo, hi)
    assert rec.L_d_optimistic == latency_dheac(4, 3, 16, rec.ell_anc, REF,
                                               "optimistic")
    assert rec.THR_upper == throughput(rec.P_upper, rec.L_d_optimistic)
    assert rec.THR_lower == throughput(rec.P_lower, rec.L_d_conservative)
    assert rec.k_max_b2 == max(quota_round(16, caps)) == 8
    assert rec.L_b2 == latency_b2(4, rec.k_max_b2, REF)


def test_latency_modes_tuple_is_stable():
    assert LATENCY_MODES == ("optimistic", "conservative")


@given(q=st.floats(0.0, 0.9), attempts=st.integers(1, 12))
def test_expected_attempts_matches_truncated_series(q, attempts):
    """Attempt t occurs iff the first t-1 failed, so a = sum q^(t-1)."""
    params = ModelParams(q=q, max_attempts=attempts)
    direct = math.fsum(q ** (t - 1) for t in range(1, attempts + 1))
    assert params.expected_attempts == pytest.approx(direct, rel=1e-12)
