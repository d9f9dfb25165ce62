"""Synthetic network instances: Zipf-skewed QLAN capacities and demand levels.

A network is a row of QLANs indexed from 0, each holding ``caps[i]`` nodes
able to accept one entangled pair apiece. Capacity mass follows a Zipf
profile with exponent ``skew`` (0 gives a uniform split), so one knob moves
the instance from homogeneous to heavily concentrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvariantViolationError

MAX_NODES = 2 ** 20  # QLANs, and nodes, of one network; bounds its arrays


def check_network_size(qlans: int, nodes: int) -> None:
    """Refuse, before it is built, a network past MAX_NODES QLANs or nodes."""
    if max(qlans, nodes) > MAX_NODES:
        raise ValueError(f"a network of {qlans} QLANs and {nodes} nodes "
                         f"exceeds the limit of {MAX_NODES} of each")


@dataclass(frozen=True)
class NetworkConfig:
    """An immutable network instance, given by its capacities alone.

    Attributes
    ----------
    caps:  per-QLAN node capacities, non-negative integers.
    m:     number of QLANs, len(caps), from 1 to MAX_NODES.
    total: sum of caps, at most MAX_NODES, kept so result tables are
           self-describing.
    """

    caps: tuple[int, ...]
    m: int = field(init=False)
    total: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "m", len(self.caps))
        object.__setattr__(self, "total", sum(self.caps))
        check_network_size(self.m, self.total)
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if any(c < 0 or c != int(c) for c in self.caps):
            raise ValueError(f"caps must be non-negative integers, got {self.caps}")

    @classmethod
    def from_caps(cls, caps) -> "NetworkConfig":
        return cls(tuple(int(c) for c in caps))


@dataclass(frozen=True)
class Request:
    """An access request for k_req simultaneous end-to-end pairs."""

    k_req: int

    def __post_init__(self):
        if self.k_req < 1:
            raise ValueError(f"k_req must be >= 1, got {self.k_req}")


def generate_network(m: int, skew: float, total: int) -> NetworkConfig:
    """Split ``total`` nodes over ``m`` QLANs with Zipf weight 1/i^skew.

    Each QLAN first receives the floor of its ideal share total*w_i/sum(w);
    the 0 to m units left over go one each to the bins of largest weight
    (ties toward the lower index), so capacities are non-increasing in the
    QLAN index and sum exactly to ``total``. Raises ValueError past
    MAX_NODES QLANs or nodes, before anything is allocated.
    """
    check_network_size(m, total)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    # refusing inf loses nothing: a skew of 1000 already gives (total, 0, ...)
    if not 0 <= skew < math.inf:
        raise ValueError(f"skew must be >= 0 and finite, got {skew}")
    weights = [float(i) ** -skew for i in range(1, m + 1)]
    wsum = math.fsum(weights)
    caps = [math.floor(total * w / wsum) for w in weights]
    residual = total - sum(caps)
    # float shares lie within ulps of exact and total <= MAX_NODES, so the
    # floors fall 0 to m short: m when every share rounds just below an int
    if not 0 <= residual <= m:
        raise InvariantViolationError(f"floors leave {residual} of {total} "
                                      f"nodes over {m} QLANs")
    order = sorted(range(m), key=lambda i: (-weights[i], i))
    for i in order[:residual]:
        caps[i] += 1
    return NetworkConfig(tuple(caps))


def demand_to_kreq(demand: float, total: int) -> int:
    """Requested pair count for a demand fraction: round half up, floor 1."""
    if not 0.0 < demand <= 1.0:
        raise ValueError(f"demand must lie in (0, 1], got {demand}")
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    return max(1, math.floor(demand * total + 0.5))
