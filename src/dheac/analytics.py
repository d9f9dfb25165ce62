"""Closed-form delivery, latency, throughput, and fairness metrics.

The loss model is i.i.d. per entangled pair: one distribution attempt
succeeds with probability 1 - q and each pair may be retried up to
max_attempts times, so a pair arrives with probability 1 - q^M and the
expected number of attempts per pair is a = (1 - q^M) / (1 - q).

Latency is a two-stage sum. The outer stage distributes the QLAN-selection
state (m qubits plus, in the conservative accounting, the quota ancilla
register), the inner stage distributes node-selection states inside winner
QLANs in parallel. The optimistic/conservative pair brackets the cost of
the quota register: chi = 0 counts no ancilla, chi = ell_anc counts all of
it. The matching success-probability pair brackets which qubits must all
arrive: K + k_req for the upper bound, m + ell_anc + k_req for the lower.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .partition import quota_round, safe_select_k

LATENCY_MODES = ("optimistic", "conservative")
# counts are multiplied into float times, so each must be exact as a float
MAX_COUNT = 2 ** 53


@dataclass(frozen=True)
class ModelParams:
    """Loss and timing constants. Times are milliseconds.

    Defaults are the canonical evaluation constants; q is the per-attempt
    loss probability, rounds the number of classical coordination rounds
    charged to the baseline scheme, beta the over-provisioning margin used
    when selecting the winner count.
    """

    q: float = 0.05
    max_attempts: int = 3
    t_gen: float = 2.0
    t_dist: float = 0.05
    t_meas: float = 1.0
    t_ctl: float = 0.5
    rounds: int = 1
    beta: float = 0.10

    def __post_init__(self):
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"q must lie in [0, 1), got {self.q}")
        for name, low in (("max_attempts", 1), ("rounds", 0)):
            value = getattr(self, name)
            # bool is an int subclass, but True is no count
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not low <= value <= MAX_COUNT:
                raise ValueError(
                    f"{name} must lie in [{low}, 2**53], got {value}")
        for name in ("t_gen", "t_dist", "t_meas", "t_ctl", "beta"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    @property
    def unit_success(self) -> float:
        """Probability that one pair arrives within the retry budget."""
        return 1.0 - self.q ** self.max_attempts

    @property
    def expected_attempts(self) -> float:
        """Mean attempts consumed per pair, counting the failed run-out."""
        return (1.0 - self.q ** self.max_attempts) / (1.0 - self.q)


@dataclass(frozen=True)
class MetricsRecord:
    """Closed-form metrics for one network/request point; k_max_b2 is the
    largest quota of the baseline's split, which prices its latency."""

    K: int
    ell_anc: int
    k_max_b2: int
    P_lower: float
    P_upper: float
    P_b2: float
    L_d_optimistic: float
    L_d_conservative: float
    L_b2: float
    THR_lower: float
    THR_upper: float
    THR_b2: float


def ancilla_bits(caps) -> int:
    """Width of the quota register: sum of ceil(log2(n_i + 1)) over QLANs.

    int.bit_length gives exactly ceil(log2(n + 1)) for n >= 0, so the sum
    is computed without floats.
    """
    total = 0
    for c in caps:
        c = int(c)
        if c < 0:
            raise ValueError(f"capacities must be non-negative, got {c}")
        total += c.bit_length()
    return total


def success_bounds(k_req: int, K: int, m: int, ell_anc: int,
                   params: ModelParams) -> tuple[float, float]:
    """(P_lower, P_upper) for one protocol round.

    P_upper = p^(K + k_req) counts only the winners' selection qubits and
    the requested pairs; P_lower = p^(m + ell_anc + k_req) charges the full
    selection state and quota register as well.
    """
    if k_req < 1 or K < 1 or m < 1 or ell_anc < 0:
        raise ValueError("k_req, K, m must be >= 1 and ell_anc >= 0")
    p = params.unit_success
    return p ** (m + ell_anc + k_req), p ** (K + k_req)


def success_b2(k_req: int, params: ModelParams) -> float:
    """Delivery probability of the classical-arbitration baseline: p^k_req."""
    if k_req < 1:
        raise ValueError(f"k_req must be >= 1, got {k_req}")
    return params.unit_success ** k_req


def _check_mode(mode: str) -> None:
    if mode not in LATENCY_MODES:
        raise ValueError(f"mode must be one of {LATENCY_MODES}, got {mode!r}")


def _stage(params: ModelParams, pairs: int) -> float:
    """Expected time of one distribution stage of pairs qubits, in ms."""
    return (params.t_gen + params.expected_attempts * params.t_dist * pairs
            + params.t_meas)


def latency_dheac(m: int, K: int, k_req: int, ell_anc: int,
                  params: ModelParams, mode: str = "conservative") -> float:
    """Expected two-stage latency of the quantum lottery, in ms.

    Stage one ships the m selection qubits plus chi ancilla qubits, stage
    two ships ceil(k_req / K) pairs to the largest winner in parallel with
    the rest. chi is 0 in optimistic mode and ell_anc in conservative mode.
    """
    _check_mode(mode)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if m < 1 or k_req < 1 or ell_anc < 0:
        raise ValueError("m, k_req must be >= 1 and ell_anc >= 0")
    chi = 0 if mode == "optimistic" else ell_anc
    return _stage(params, m + chi) + _stage(params, -(-k_req // K))


def latency_b2(m: int, k_max: int, params: ModelParams) -> float:
    """Expected latency of the classical-arbitration baseline, in ms.

    rounds * m * t_ctl of control traffic, then one distribution stage
    sized by the largest per-QLAN quota k_max. Not control + _stage(k_max):
    the sum is taken control first, which rounds differently.
    """
    if m < 1 or k_max < 0:
        raise ValueError("m must be >= 1 and k_max >= 0")
    a = params.expected_attempts
    return (params.rounds * m * params.t_ctl
            + params.t_gen + a * params.t_dist * k_max + params.t_meas)


def throughput(p_success: float, latency: float) -> float:
    """Granted requests per ms: success probability over expected latency.

    A latency that overflowed a float is refused: its throughput is no
    measurement, and a ratio over it would divide by zero.
    """
    if not 0 < latency < math.inf:
        raise ValueError(f"latency must be finite and > 0, got {latency:g} "
                         "ms; lower the time constants")
    if not 0.0 <= p_success <= 1.0:
        raise ValueError(f"p_success must lie in [0, 1], got {p_success}")
    return p_success / latency


def jain_index(x) -> float:
    """Jain fairness of a non-negative vector: (sum x)^2 / (N * sum x^2).

    Equals 1 when all entries match and 1/N when one entry holds
    everything; invariant under positive rescaling.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("x must be a non-empty 1-d vector")
    if (arr < 0).any():
        raise ValueError("x must be non-negative")
    s2 = float(np.sum(arr * arr))
    if s2 == 0.0:
        raise ValueError("x must have at least one positive entry")
    s1 = float(np.sum(arr))
    return (s1 * s1) / (arr.size * s2)


def ecdf(x) -> list[tuple[float, float]]:
    """Empirical CDF as (value, cumulative fraction) pairs, values ascending."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("x must be a non-empty 1-d vector")
    values, counts = np.unique(arr, return_counts=True)
    fracs = np.cumsum(counts) / arr.size
    return [(float(v), float(f)) for v, f in zip(values, fracs)]


def evaluate_point(caps, k_req: int, params: ModelParams) -> MetricsRecord:
    """All closed-form metrics for one network/request point.

    Raises ResourceShortageError when the request exceeds total capacity.
    """
    caps = tuple(int(c) for c in caps)
    m = len(caps)
    K = safe_select_k(k_req, caps, params.beta)
    ell = ancilla_bits(caps)
    p_lower, p_upper = success_bounds(k_req, K, m, ell, params)
    l_opt = latency_dheac(m, K, k_req, ell, params, "optimistic")
    l_cons = latency_dheac(m, K, k_req, ell, params, "conservative")
    p_b2 = success_b2(k_req, params)
    k_max = max(quota_round(k_req, caps))
    l_b2 = latency_b2(m, k_max, params)
    return MetricsRecord(
        K=K,
        ell_anc=ell,
        k_max_b2=k_max,
        P_lower=p_lower,
        P_upper=p_upper,
        P_b2=p_b2,
        L_d_optimistic=l_opt,
        L_d_conservative=l_cons,
        L_b2=l_b2,
        THR_lower=throughput(p_lower, l_cons),
        THR_upper=throughput(p_upper, l_opt),
        THR_b2=throughput(p_b2, l_b2),
    )

