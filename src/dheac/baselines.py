"""Reference schemes the quantum lottery is compared against.

B1 (single-QLAN): serve the whole request from the largest QLAN, possible
only when one QLAN can hold every requested pair. No arbitration cost, one
distribution stage.

B2 (classical arbitration): a controller polls every QLAN over classical
channels, splits the request over all of them by capacity-proportional
rounding, then pairs are distributed. Coordination costs rounds * m * t_ctl
before distribution starts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analytics import ModelParams, _stage, latency_b2, success_b2
from .errors import ResourceShortageError
from .netgen import NetworkConfig, Request
from .partition import quota_round


@dataclass(frozen=True)
class BaselineResult:
    """Success probability and latency of one baseline on one point."""

    p_success: float
    latency: float


def b1_evaluate(net: NetworkConfig, req: Request,
                params: ModelParams) -> BaselineResult | None:
    """Single-QLAN scheme: all k_req pairs inside the largest QLAN.

    The metrics depend only on k_req, so the scheme reduces to whether any
    QLAN holds that many nodes; None when none does.
    """
    if max(net.caps) < req.k_req:
        return None
    return BaselineResult(success_b2(req.k_req, params),
                          _stage(params, req.k_req))


def b2_evaluate(net: NetworkConfig, req: Request, params: ModelParams) -> BaselineResult:
    """Classical arbitration: proportional split over every QLAN.

    Its latency is priced by the largest quota of quota_round(k_req, caps).
    Raises ResourceShortageError when the request exceeds total capacity.
    """
    if net.total < req.k_req:
        raise ResourceShortageError(
            f"total capacity {net.total} cannot cover k_req={req.k_req}")
    return BaselineResult(
        success_b2(req.k_req, params),
        latency_b2(net.m, max(quota_round(req.k_req, net.caps)), params))
