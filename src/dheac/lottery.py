"""Monte-Carlo sampling of the two-layer lottery and fairness estimation.

One trial mirrors one protocol round: pick K winner QLANs uniformly at
random, split the request over them by capacity-proportional rounding, pick
winning nodes uniformly inside each winner, then deliver the physical
payload (m selection qubits, the quota ancilla register, and the k_req
requested pairs) under the i.i.d. loss model.

Winners enter the rounding step in a uniformly random arrangement. The
rounding function itself is deterministic, but its remainder ties resolve
by position, so a fixed arrangement would systematically favour low
indices; randomizing the arrangement restores the anonymity of the lottery
(symmetric networks come out exactly symmetric in distribution) and the
closed-form oracle below averages over arrangements in the same way.

Delivery only matters through two facts per group of qubits: the sum of
their capped attempt counts and whether any of them ran out of attempts.
``run_trial`` draws one truncated geometric per qubit. ``simulate_batch``
draws the same law per group instead: one multinomial over the outcomes
{delivered on attempt 1, ..., delivered on attempt M, failed} for the
selection qubits and one for each winner's quota block, so its cost no
longer grows with k_req.

Streams are derived counter-style: ``trial_rng(seed, point, trial)`` gives
the same generator no matter which worker runs the trial. The bulk
estimators consume one per-point stream sequentially and are deterministic
for a fixed seed and fixed inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .analytics import ancilla_bits, ecdf, jain_index
from .analytics import LATENCY_MODES, ModelParams
from .errors import CapacityError, InvariantViolationError
from .netgen import NetworkConfig, Request
from .partition import quota_round, safe_select_k

DEFAULT_BETA = 0.10
_BLOCK = 16384
# bytes one simulate_batch block may hold; every m <= 32 point at the
# default max_attempts still fits a full _BLOCK of rows
_BLOCK_BYTES = 64 << 20


@dataclass(frozen=True)
class TrialOutcome:
    """One sampled protocol round.

    winners/quotas/winning_nodes are reported in ascending winner order.
    ``attempts_total`` counts the delivery attempts consumed by the qubits
    the accounting mode requires (so at q=0 it equals K + k_req in
    optimistic mode and m + ell_anc + k_req in conservative mode).
    ``latency`` always ships all m selection qubits in stage one, plus the
    ancilla register in conservative mode.
    """

    succeeded: bool
    winners: tuple[int, ...]
    quotas: tuple[int, ...]
    winning_nodes: tuple[tuple[int, ...], ...]
    attempts_total: int
    latency: float


@dataclass(frozen=True, eq=False)
class FairnessReport:
    """Per-node win frequencies from the loss-free lottery chain."""

    node_probs: np.ndarray
    jain: float
    trials: int
    ecdf: list[tuple[float, float]] = field(repr=False)


@dataclass(frozen=True)
class BatchStats:
    """Aggregates from a vectorized batch of delivery trials."""

    mode: str
    trials: int
    success_rate: float
    success_se: float
    latency_mean: float
    latency_se: float


def trial_rng(seed: int, *indices: int) -> np.random.Generator:
    """Counter-derived stream for (seed, point index, trial index, ...)."""
    return np.random.default_rng(np.random.SeedSequence((seed, *indices)))


def sample_outer(m: int, K: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniformly random K-subset of QLAN indices, ascending."""
    if not 1 <= K <= m:
        raise ValueError(f"need 1 <= K <= m, got K={K}, m={m}")
    picked = rng.choice(m, size=K, replace=False)
    return tuple(int(i) for i in sorted(picked))


def sample_inner(n: int, k: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniformly random k-subset of node indices 0..n-1, ascending."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        return ()
    picked = rng.choice(n, size=k, replace=False)
    return tuple(int(i) for i in sorted(picked))


def _check_mode(mode: str) -> None:
    if mode not in LATENCY_MODES:
        raise ValueError(f"mode must be one of {LATENCY_MODES}, got {mode!r}")


def run_trial(net: NetworkConfig, req: Request, params: ModelParams,
              mode: str, rng: np.random.Generator) -> TrialOutcome:
    """Sample one full protocol round under the given accounting mode."""
    _check_mode(mode)
    K = safe_select_k(req.k_req, net.caps, params.beta)
    ell = ancilla_bits(net.caps)

    arrangement = [int(i) for i in rng.permutation(net.m)[:K]]
    arranged_quotas = quota_round(req.k_req, [net.caps[i] for i in arrangement])
    by_qlan = dict(zip(arrangement, arranged_quotas))
    winners = tuple(sorted(by_qlan))
    quotas = tuple(by_qlan[i] for i in winners)
    if sum(quotas) != req.k_req:
        raise InvariantViolationError(
            f"quotas {quotas} do not sum to k_req={req.k_req}")
    if any(q > net.caps[i] for i, q in zip(winners, quotas)):
        raise InvariantViolationError(
            f"quotas {quotas} exceed the capacities of winners {winners}")
    winning_nodes = tuple(sample_inner(net.caps[i], by_qlan[i], rng) for i in winners)

    p_att = 1.0 - params.q
    M = params.max_attempts
    g_outer = rng.geometric(p_att, size=net.m + ell)
    g_inner = rng.geometric(p_att, size=req.k_req)
    att_outer = np.minimum(g_outer, M)
    att_inner = np.minimum(g_inner, M)

    if mode == "optimistic":
        selection_ok = bool((g_outer[list(winners)] <= M).all())
        stage1_attempts = int(att_outer[: net.m].sum())
        counted_outer = int(att_outer[list(winners)].sum())
    else:
        selection_ok = bool((g_outer <= M).all())
        stage1_attempts = int(att_outer.sum())
        counted_outer = int(att_outer.sum())
    succeeded = selection_ok and bool((g_inner <= M).all())

    stage1 = params.t_gen + params.t_dist * stage1_attempts + params.t_meas
    stage2 = 0.0
    offset = 0
    for q_i in quotas:
        span = float(att_inner[offset:offset + q_i].sum())
        stage2 = max(stage2, params.t_gen + params.t_dist * span + params.t_meas)
        offset += q_i

    return TrialOutcome(
        succeeded=succeeded,
        winners=winners,
        quotas=quotas,
        winning_nodes=winning_nodes,
        attempts_total=counted_outer + int(att_inner.sum()),
        latency=stage1 + stage2,
    )


def _quota_round_rows(k_req: int, caps_rows: np.ndarray, cap_bound: int) -> np.ndarray:
    """quota_round applied to each row of winner capacities.

    Matches the scalar function bit for bit: exact integer remainders, ties
    by larger capacity then earlier position (stable argsort on a composite
    key; cap_bound must exceed every capacity so remainders dominate it).
    """
    rows, K = caps_rows.shape
    c_total = caps_rows.sum(axis=1, keepdims=True)
    num = k_req * caps_rows
    floors = num // c_total
    rems = num - floors * c_total
    residual = k_req - floors.sum(axis=1)
    key = rems * cap_bound + caps_rows
    order = np.argsort(-key, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(K), (rows, K)), axis=1)
    quotas = floors + (ranks < residual[:, None])
    if not (quotas <= caps_rows).all():
        raise InvariantViolationError("rounding must respect caps")
    if not (quotas.sum(axis=1) == k_req).all():
        raise InvariantViolationError("rounding must conserve k_req")
    return quotas


def _delivery_law(q: float, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities and attempt costs of one capped delivery.

    Outcome j < M is delivery on attempt j + 1, outcome M is running out
    of attempts; the last attempt of a failed qubit still costs M.
    """
    j = np.arange(M)
    pvals = np.append((1.0 - q) * q ** j, q ** M)
    cost = np.append(j + 1, M)
    return pvals, cost


def _block_rows(m: int, K: int, M: int) -> int:
    """Trials per simulate_batch block under the _BLOCK_BYTES budget.

    Counts the int64 words alive per row at a block's peak: the permuted
    arrangement and its tiled source (2m), about ten rounding temporaries
    (10K) and the quota-block outcome counts (K(M + 1)).
    """
    row_bytes = 8 * (2 * m + K * (M + 11))
    return max(1, min(_BLOCK, _BLOCK_BYTES // row_bytes))


def simulate_batch(net: NetworkConfig, req: Request, params: ModelParams,
                   mode: str, trials: int, rng: np.random.Generator) -> BatchStats:
    """Vectorized delivery trials; same law as run_trial, sampled per group.

    Returns the empirical success rate and mean latency with standard
    errors. Quota arrangements are sampled exactly as in run_trial. Delivery
    is one multinomial draw over the capped-attempt outcomes per group of
    qubits: the winner and non-winner selection qubits (optimistic mode) or
    all selection and ancilla qubits (conservative mode), and each winner's
    quota block. A group's attempt sum and failure count have the same law
    as the per-qubit draws of run_trial; node identities are not
    materialized (they do not influence delivery). Trials run in blocks
    sized by a fixed memory budget, so peak memory does not grow with m.
    """
    _check_mode(mode)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    K = safe_select_k(req.k_req, net.caps, params.beta)
    ell = ancilla_bits(net.caps)
    m = net.m
    caps = np.asarray(net.caps, dtype=np.int64)
    cap_bound = int(caps.max()) + 1
    M = params.max_attempts
    pvals, cost = _delivery_law(params.q, M)
    base = params.t_gen + params.t_meas
    block = _block_rows(m, K, M)

    n_success = 0
    lat_mean = 0.0
    lat_m2 = 0.0
    qlan_ids = np.arange(m, dtype=np.int64)
    for start in range(0, trials, block):
        t = min(block, trials - start)
        arrangement = rng.permuted(
            np.tile(qlan_ids, (t, 1)), axis=1)[:, :K]
        quotas = _quota_round_rows(req.k_req, caps[arrangement], cap_bound)
        # the [:, :K] view pins the whole (t, m) permutation; free it (and
        # the outcome counts below) before the next large array is built
        del arrangement

        if mode == "optimistic":
            winners = rng.multinomial(K, pvals, size=t)
            sel_ok = winners[:, M] == 0
            stage1_att = (winners + rng.multinomial(m - K, pvals, size=t)) @ cost
        else:
            outer = rng.multinomial(m + ell, pvals, size=t)
            sel_ok = outer[:, M] == 0
            stage1_att = outer @ cost
        blocks = rng.multinomial(quotas, pvals)
        ok = sel_ok & (blocks[:, :, M] == 0).all(axis=1)
        stage2_att = (blocks @ cost).max(axis=1)
        del blocks
        lat = (base + params.t_dist * stage1_att) + (
            base + params.t_dist * stage2_att)

        # Chan et al. pairwise merge of per-block mean and M2
        b_mean = float(lat.mean())
        b_m2 = float(np.square(lat - b_mean).sum())
        n_new = start + t
        delta = b_mean - lat_mean
        lat_mean += delta * t / n_new
        lat_m2 += b_m2 + delta * delta * start * t / n_new
        n_success += int(ok.sum())

    rate = n_success / trials
    return BatchStats(
        mode=mode,
        trials=trials,
        success_rate=rate,
        success_se=math.sqrt(rate * (1.0 - rate) / trials),
        latency_mean=lat_mean,
        latency_se=math.sqrt(lat_m2 / trials / trials),
    )


def estimate_fairness(net: NetworkConfig, req: Request, trials: int,
                      rng: np.random.Generator,
                      beta: float = DEFAULT_BETA) -> FairnessReport:
    """Per-node win frequencies over the loss-free lottery chain.

    Delivery loss is ignored on purpose: fairness concerns who is granted
    access, not whether the grant survives the channel.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    K = safe_select_k(req.k_req, net.caps, beta)
    m = net.m
    caps = np.asarray(net.caps, dtype=np.int64)
    cap_bound = int(caps.max()) + 1
    offsets = np.concatenate(([0], np.cumsum(caps)))
    n_nodes = int(offsets[-1])
    if n_nodes == 0:
        raise ValueError("network has no nodes")
    win_counts = np.zeros(n_nodes, dtype=np.int64)
    qlan_ids = np.arange(m, dtype=np.int64)

    for start in range(0, trials, _BLOCK):
        t = min(_BLOCK, trials - start)
        arrangement = rng.permuted(np.tile(qlan_ids, (t, 1)), axis=1)[:, :K]
        quotas = _quota_round_rows(req.k_req, caps[arrangement], cap_bound)
        quota_mat = np.zeros((t, m), dtype=np.int64)
        np.put_along_axis(quota_mat, arrangement, quotas, axis=1)
        for i in range(m):
            n_i = int(caps[i])
            if n_i == 0:
                continue
            k_col = quota_mat[:, i]
            # ranks of i.i.d. uniforms give a uniform random permutation per
            # trial; a node wins iff its rank falls below the QLAN quota
            u = rng.random((t, n_i))
            order = np.argsort(u, axis=1)
            ranks = np.empty_like(order)
            np.put_along_axis(ranks, order,
                              np.broadcast_to(np.arange(n_i), (t, n_i)), axis=1)
            wins = ranks < k_col[:, None]
            win_counts[offsets[i]:offsets[i + 1]] += wins.sum(axis=0)

    probs = win_counts / float(trials)
    return FairnessReport(node_probs=probs, jain=jain_index(probs),
                          trials=trials, ecdf=ecdf(probs))


def _expected_quotas(k_req: int, caps: tuple[int, ...]) -> list[float]:
    """Mean of quota_round over a uniformly random winner arrangement.

    Arrangement only matters through remainder ties: winners with equal
    (remainder, capacity) form a group whose members are exchangeable, so
    leftover units reaching a group split evenly across it in expectation.
    """
    c_total = sum(caps)
    if c_total < k_req:
        raise ValueError("caps cannot cover k_req")
    floors = [(k_req * c) // c_total for c in caps]
    rems = [(k_req * c) % c_total for c in caps]
    residual = k_req - sum(floors)
    expected = [float(f) for f in floors]
    groups: dict[tuple[int, int], list[int]] = {}
    for j, (r, c) in enumerate(zip(rems, caps)):
        groups.setdefault((r, c), []).append(j)
    for (r, _c), members in sorted(groups.items(), reverse=True):
        if residual <= 0:
            break
        if r == 0:
            continue
        share = min(1.0, residual / len(members))
        for j in members:
            expected[j] += share
        residual -= min(residual, len(members))
    return expected


def exact_node_probs(net: NetworkConfig, req: Request,
                     beta: float = DEFAULT_BETA,
                     max_subsets: int = 10 ** 6) -> np.ndarray:
    """Exact per-node win probabilities by enumerating winner subsets.

    P(node in QLAN i wins) = mean over K-subsets containing i of
    E[quota_i] / caps_i, with E over the random winner arrangement.
    Raises CapacityError when C(m, K) exceeds max_subsets; use
    estimate_fairness for such instances.
    """
    K = safe_select_k(req.k_req, net.caps, beta)
    n_subsets = math.comb(net.m, K)
    if n_subsets > max_subsets:
        raise CapacityError(
            f"C({net.m}, {K}) = {n_subsets} subsets exceed {max_subsets}; "
            "use estimate_fairness instead")
    qlan_prob = [0.0] * net.m
    for subset in itertools.combinations(range(net.m), K):
        expected = _expected_quotas(req.k_req, tuple(net.caps[i] for i in subset))
        for i, e in zip(subset, expected):
            if net.caps[i] > 0:
                qlan_prob[i] += e / net.caps[i]
    out = np.empty(net.total, dtype=float)
    pos = 0
    for i in range(net.m):
        out[pos:pos + net.caps[i]] = qlan_prob[i] / n_subsets
        pos += net.caps[i]
    return out
