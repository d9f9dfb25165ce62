import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dheac import (
    LATENCY_MODES,
    ModelParams,
    NetworkConfig,
    Request,
    ResourceShortageError,
    b1_evaluate,
    b2_evaluate,
    enum_partitions,
    generate_network,
    latency_b2,
    latency_dheac,
    quota_round,
)

PARAMS = ModelParams(q=0.05)


def test_b1_uses_the_largest_qlan():
    net = NetworkConfig.from_caps((4, 9, 9, 2))
    res = b1_evaluate(net, Request(8), PARAMS)
    assert res.p_success == pytest.approx(PARAMS.unit_success ** 8, rel=1e-12)
    assert res.latency == pytest.approx(
        PARAMS.t_gen + PARAMS.expected_attempts * PARAMS.t_dist * 8
        + PARAMS.t_meas, rel=1e-12)
    # only the largest QLAN decides: 9 pairs fit, 10 do not
    assert b1_evaluate(net, Request(9), PARAMS) is not None
    assert b1_evaluate(net, Request(10), PARAMS) is None


# times as ModelParams takes them, both signed zeros included
times = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e6)
params_st = st.builds(ModelParams, q=st.floats(0.0, 0.99),
                      max_attempts=st.integers(1, 40), t_gen=times,
                      t_dist=times, t_meas=times)


def _same_bits(got: float, want: float) -> bool:
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


@given(params=params_st, m=st.integers(1, 64), K=st.integers(1, 64),
       k_req=st.integers(1, 1000), ell=st.integers(0, 512),
       mode=st.sampled_from(LATENCY_MODES))
def test_the_shared_stage_price_keeps_the_inline_bits(params, m, K, k_req,
                                                      ell, mode):
    # the stage formulas as latency_dheac and b1_evaluate once wrote them
    a = params.expected_attempts
    chi = 0 if mode == "optimistic" else ell
    outer = params.t_gen + a * params.t_dist * (m + chi) + params.t_meas
    inner = params.t_gen + a * params.t_dist * -(-k_req // K) + params.t_meas
    assert _same_bits(latency_dheac(m, K, k_req, ell, params, mode),
                      outer + inner)
    b1 = b1_evaluate(NetworkConfig.from_caps((k_req,)), Request(k_req),
                     params)
    assert _same_bits(b1.p_success, params.unit_success ** k_req)
    assert _same_bits(b1.latency, params.t_gen
                      + params.expected_attempts * params.t_dist * k_req
                      + params.t_meas)


def test_b1_inapplicable_when_no_qlan_is_big_enough():
    net = NetworkConfig.from_caps((5, 5, 5))
    assert b1_evaluate(net, Request(6), PARAMS) is None


def test_b1_has_no_arbitration_cost():
    net = NetworkConfig.from_caps((10, 2))
    res = b1_evaluate(net, Request(4), ModelParams(q=0.0))
    # t_gen + 4 * t_dist + t_meas only
    assert res.latency == pytest.approx(3.2)


def test_b2_allocation_matches_quota_round():
    net = NetworkConfig.from_caps((20, 10, 6, 4))
    res = b2_evaluate(net, Request(7), PARAMS)
    full = quota_round(7, net.caps)
    assert full == (3, 2, 1, 1)
    assert res.latency == pytest.approx(latency_b2(4, 3, PARAMS), rel=1e-12)


def test_b2_drops_zero_quota_qlans_from_winners():
    net = NetworkConfig.from_caps((50, 1))
    res = b2_evaluate(net, Request(2), PARAMS)
    # the empty-quota QLAN still costs its control round, not a quota
    assert quota_round(2, net.caps) == (2, 0)
    assert res.latency == pytest.approx(latency_b2(2, 2, PARAMS), rel=1e-12)


def test_b2_shortage():
    net = NetworkConfig.from_caps((2, 2))
    with pytest.raises(ResourceShortageError):
        b2_evaluate(net, Request(5), PARAMS)


def test_b2_lossfree_latency():
    net = NetworkConfig.from_caps((3, 3, 3, 3))
    res = b2_evaluate(net, Request(4), ModelParams(q=0.0))
    # 4 * 0.5 control + (2 + 0.05 * 1 + 1) distribution, k_max = 1
    assert res.latency == pytest.approx(5.05)


@settings(max_examples=100)
@given(m=st.integers(1, 12), skew=st.floats(0.0, 2.0), data=st.data())
def test_b2_split_is_feasible(m, skew, data):
    net = generate_network(m, skew, 10 * m)
    k_req = data.draw(st.integers(1, net.total))
    res = b2_evaluate(net, Request(k_req), PARAMS)
    full = quota_round(k_req, net.caps)
    assert sum(full) == k_req
    assert all(0 <= q <= c for q, c in zip(full, net.caps))
    assert res.latency == pytest.approx(latency_b2(m, max(full), PARAMS),
                                        rel=1e-12)


def test_b2_split_lies_in_the_enumerated_feasible_set():
    net = NetworkConfig.from_caps((5, 4, 3))
    res = b2_evaluate(net, Request(6), PARAMS)
    full = quota_round(6, net.caps)
    assert full in enum_partitions(6, net.caps)
    assert res.latency == pytest.approx(latency_b2(3, max(full), PARAMS),
                                        rel=1e-12)


def test_baseline_success_is_mode_free():
    net = NetworkConfig.from_caps((10, 10))
    res1 = b2_evaluate(net, Request(5), PARAMS)
    assert res1.p_success == pytest.approx(PARAMS.unit_success ** 5, rel=1e-12)
