"""Two-layer entanglement lottery: network models, deterministic quota
rounding, closed-form delivery metrics, Monte-Carlo sampling, baselines
and a sparse verifier for the measurement-based selection state."""

from .analytics import (
    LATENCY_MODES,
    ModelParams,
    ancilla_bits,
    ecdf,
    evaluate_point,
    jain_index,
    latency_b2,
    latency_dheac,
    success_b2,
    success_bounds,
    throughput,
)
from .baselines import b1_evaluate, b2_evaluate
from .errors import CapacityError, InvariantViolationError, ResourceShortageError
from .lottery import (
    estimate_fairness,
    exact_node_probs,
    simulate_batch,
    trial_rng,
)
from .netgen import NetworkConfig, Request, demand_to_kreq, generate_network
from .partition import enum_partitions, quota_round, safe_select_k
from .qverify import (
    SparseState,
    build_embedded,
    node_win_probs,
    verify_state,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "InvariantViolationError",
    "LATENCY_MODES",
    "ModelParams",
    "NetworkConfig",
    "Request",
    "ResourceShortageError",
    "SparseState",
    "ancilla_bits",
    "b1_evaluate",
    "b2_evaluate",
    "build_embedded",
    "demand_to_kreq",
    "ecdf",
    "enum_partitions",
    "estimate_fairness",
    "evaluate_point",
    "exact_node_probs",
    "generate_network",
    "jain_index",
    "latency_b2",
    "latency_dheac",
    "node_win_probs",
    "quota_round",
    "safe_select_k",
    "simulate_batch",
    "success_b2",
    "success_bounds",
    "throughput",
    "trial_rng",
    "verify_state",
]
