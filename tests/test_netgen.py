import dataclasses
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from dheac import (InvariantViolationError, NetworkConfig, Request,
                   demand_to_kreq, generate_network)
from dheac import netgen
from dheac.netgen import MAX_NODES


def test_zero_skew_splits_evenly():
    assert generate_network(4, 0.0, 40).caps == (10, 10, 10, 10)
    assert generate_network(8, 0.0, 80).caps == (10,) * 8


def test_unit_skew_profile():
    # weights 1, 1/2, 1/3, 1/4; floors 19, 9, 6, 4; residual 2 goes to the
    # two heaviest bins
    assert generate_network(4, 1.0, 40).caps == (20, 10, 6, 4)
    assert generate_network(3, 1.0, 10).caps == (6, 3, 1)
    assert generate_network(6, 1.0, 30).caps == (13, 6, 4, 3, 2, 2)


def test_heavy_skew_starves_the_tail():
    caps = generate_network(16, 2.0, 160).caps
    assert caps == (101, 26, 12, 7, 5, 3, 3, 1, 1, 1, 0, 0, 0, 0, 0, 0)
    assert sum(caps) == 160


@settings(max_examples=200)
@given(m=st.integers(1, 32), skew=st.floats(0.0, 3.0),
       scale=st.integers(1, 20))
def test_network_invariants(m, skew, scale):
    net = generate_network(m, skew, scale * m)
    assert len(net.caps) == m
    assert sum(net.caps) == net.total == scale * m
    assert all(c >= 0 for c in net.caps)
    assert net.caps == tuple(sorted(net.caps, reverse=True))


def _two_loop_caps(m, skew, total):
    """The earlier leftover step: units go round the weight order one at a
    time while any are left, and come back off its tail while too many
    were given."""
    weights = [float(i) ** -skew for i in range(1, m + 1)]
    wsum = math.fsum(weights)
    caps = [math.floor(total * w / wsum) for w in weights]
    residual = total - sum(caps)
    order = sorted(range(m), key=lambda i: (-weights[i], i))
    j = 0
    while residual > 0:
        caps[order[j % m]] += 1
        residual -= 1
        j += 1
    j = 0
    while residual < 0:
        i = order[m - 1 - (j % m)]
        if caps[i] > 0:
            caps[i] -= 1
            residual += 1
        j += 1
    return tuple(caps)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 2000), skew=st.floats(0.0, 8.0),
       total=st.integers(0, MAX_NODES))
@example(m=4, skew=1.0, total=431075)  # a leftover of m
def test_the_one_step_leftover_gives_the_caps_of_the_two_loops(m, skew,
                                                               total):
    assert generate_network(m, skew, total).caps == _two_loop_caps(m, skew,
                                                                   total)


def test_every_share_can_floor_one_low():
    # the exact shares 206916, 103458, 68972, 51729 are integers, and each
    # float share falls just below one, so all four units come back
    weights = [1.0, 1 / 2, 1 / 3, 1 / 4]
    wsum = math.fsum(weights)
    assert [math.floor(431075 * w / wsum) for w in weights] == [
        206915, 103457, 68971, 51728]
    assert generate_network(4, 1.0, 431075).caps == (206916, 103458, 68972,
                                                     51729)


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_a_leftover_outside_zero_to_m_is_an_invariant_violation(scale,
                                                                monkeypatch):
    # a weight sum off by half or double makes the floors overshoot total,
    # or fall short of it by more than m
    fsum = math.fsum
    monkeypatch.setattr(netgen.math, "fsum", lambda ws: scale * fsum(ws))
    with pytest.raises(InvariantViolationError, match="floors leave"):
        generate_network(4, 1.0, 40)


def test_generate_network_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_network(0, 1.0, 10)
    with pytest.raises(ValueError):
        generate_network(4, -0.5, 40)
    with pytest.raises(ValueError):
        generate_network(4, 1.0, -1)
    for skew in (math.inf, math.nan):
        with pytest.raises(ValueError, match="skew must be >= 0 and finite"):
            generate_network(4, skew, 40)


def test_a_finite_skew_reaches_the_limit_of_inf():
    assert generate_network(4, 1000.0, 40).caps == (40, 0, 0, 0)


def test_from_caps_roundtrip():
    net = NetworkConfig.from_caps((3, 3, 3, 3))
    assert net.m == 4
    assert net.total == 12
    assert net == NetworkConfig((3, 3, 3, 3))


def test_capacities_are_the_only_init_field():
    assert [f.name for f in dataclasses.fields(NetworkConfig) if f.init] == [
        "caps"]
    net = generate_network(4, 1.0, 40)
    assert (net.m, net.total) == (4, 40)
    assert not hasattr(net, "skew")
    with pytest.raises(ValueError, match="m must be >= 1"):
        NetworkConfig(())


def test_config_rejects_negative_caps():
    with pytest.raises(ValueError):
        NetworkConfig.from_caps((3, -1, 3))


def test_networks_past_the_node_limit_are_refused_before_they_are_built():
    assert NetworkConfig((MAX_NODES,)).total == MAX_NODES
    assert generate_network(2, 1.0, MAX_NODES).total == MAX_NODES
    over = f"exceeds the limit of {MAX_NODES} of each"
    # the size is checked first, so a negative capacity or m = 0 beside
    # too many nodes still reports the size
    for caps in ((0,) * (MAX_NODES + 1), (MAX_NODES + 1,),
                 (MAX_NODES + 2, -1)):
        with pytest.raises(ValueError, match=over):
            NetworkConfig(caps)
    tracemalloc.start()
    try:
        for m, total in ((MAX_NODES + 1, 10), (4, MAX_NODES + 1),
                         (0, MAX_NODES + 1)):
            with pytest.raises(ValueError, match=over):
                generate_network(m, 1.0, total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the weights of 2^20 + 1 QLANs alone would take over 8 MB
    assert peak < 1 << 16


def test_demand_rounds_half_up():
    assert demand_to_kreq(0.40, 40) == 16
    assert demand_to_kreq(0.125, 4) == 1
    assert demand_to_kreq(0.1, 160) == 16
    assert demand_to_kreq(1.0, 40) == 40


def test_demand_floors_at_one_pair():
    assert demand_to_kreq(0.01, 10) == 1


@given(st.floats(0.001, 1.0), st.integers(1, 10 ** 6))
def test_demand_kreq_stays_in_range(demand, total):
    k = demand_to_kreq(demand, total)
    assert 1 <= k <= total


def test_demand_rejects_out_of_range():
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            demand_to_kreq(bad, 40)


def test_request_validation():
    with pytest.raises(ValueError):
        Request(0)
