import dataclasses
import math
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dheac import NetworkConfig, Request, demand_to_kreq, generate_network
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
