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
``sample_rounds`` is the one round kernel: per block of trials it draws
the arrangements, rounds them, and samples each group's delivery as one
multinomial over the outcomes {delivered on attempt 1, ..., delivered on
attempt M, failed}, so its cost does not grow with k_req. Each round is
drawn once and reported under both accounting modes. ``batch_stats``
reduces its blocks to both modes' batch statistics (``simulate_batch`` is
one mode's view), the ``mc`` dump formats one mode's row, and
``estimate_fairness`` uses its arrangement and rounding step alone.
``run_trial`` is the per-qubit reference: one truncated geometric per qubit
and explicit winning nodes, kept for tests to compare the kernel against.

Streams are derived counter-style: ``trial_rng(seed, point, trial)`` gives
the same generator no matter which worker runs the trial. The bulk
estimators consume one per-point stream sequentially and are deterministic
for a fixed seed and fixed inputs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .analytics import ancilla_bits, ecdf, jain_index
from .analytics import LATENCY_MODES, ModelParams
from .errors import CapacityError, InvariantViolationError
from .netgen import NetworkConfig, Request
from .partition import quota_round, safe_select_k

DEFAULT_BETA = 0.10
_BLOCK = 8192
# bytes one sample_rounds block may hold; every m <= 32 point at the
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
    """Per-node win probabilities from the loss-free lottery chain.

    Sampled over the outer lottery and the rounding only: each node's
    entry is its QLAN's mean quota over its capacity.
    """

    node_probs: np.ndarray
    jain: float
    trials: int
    ecdf: list[tuple[float, float]] = field(repr=False)


@dataclass(frozen=True)
class BatchStats:
    """Aggregates from a vectorized batch of delivery trials."""

    trials: int
    success_rate: float
    success_se: float
    latency_mean: float
    latency_se: float


def trial_rng(seed: int, *indices: int) -> np.random.Generator:
    """Counter-derived stream for (seed, point index, trial index, ...)."""
    return np.random.default_rng(np.random.SeedSequence((seed, *indices)))


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
    """Sample one full protocol round under the given accounting mode.

    Draws one truncated geometric per qubit and the winning nodes: the
    per-qubit reference for sample_rounds, not used by the CLI.
    """
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
    floors, key = np.divmod(k_req * caps_rows,
                            caps_rows.sum(axis=1, keepdims=True))
    residual = k_req - floors.sum(axis=1)
    # key = -(remainder * cap_bound + capacity), built in place
    key *= -cap_bound
    key -= caps_rows
    order = np.argsort(key, axis=1, kind="stable")
    del key
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
    """Trials per block under the _BLOCK_BYTES budget.

    Bounds the int64 words alive per row at a block's peak by the sum over
    its stages: the permuted arrangement and its tiled source (2m), up to
    ten rounding temporaries (10K), the quota-block outcome counts
    (K(M + 1)), the three selection-group outcome counts (3(M + 1)) and the
    (2, t) accounting rows with their stage-one counts (8). Raises
    CapacityError when a single row exceeds the budget, which only a huge
    max_attempts M can cause at any realistic m.
    """
    row_bytes = 8 * (2 * m + (K + 3) * (M + 1) + 10 * K + 8)
    if row_bytes > _BLOCK_BYTES:
        raise CapacityError(
            f"max_attempts={M} needs {row_bytes} bytes per trial at m={m}, "
            f"K={K}, over the {_BLOCK_BYTES}-byte block budget; "
            "lower max_attempts")
    return min(_BLOCK, _BLOCK_BYTES // row_bytes)


def _arranged_quotas(caps: np.ndarray, k_req: int, K: int, trials: int,
                     block: int, rng: np.random.Generator):
    """Yield (arrangement, quotas) for successive blocks of at most block rows.

    Each row is one round's first K QLANs of a uniformly random permutation,
    in arrangement order, and quota_round applied to their capacities.
    """
    cap_bound = int(caps.max()) + 1
    qlan_ids = np.arange(len(caps), dtype=np.int64)
    for start in range(0, trials, block):
        t = min(block, trials - start)
        # copy the (t, K) slice so the (t, m) permutation is freed at once
        arrangement = rng.permuted(
            np.tile(qlan_ids, (t, 1)), axis=1)[:, :K].copy()
        yield arrangement, _quota_round_rows(k_req, caps[arrangement], cap_bound)


def sample_rounds(net: NetworkConfig, req: Request, params: ModelParams,
                  trials: int, rng: np.random.Generator):
    """The one round kernel: an iterator of per-trial arrays, one per block.

    Each tuple is (arrangement, quotas, succeeded, attempts_total, latency):
    the (t, K) winners in arrangement order (not sorted) with their quotas,
    then three (2, t) arrays holding run_trial's accounting of the same
    rounds, one row per LATENCY_MODES entry. Delivery is one multinomial per
    group of qubits (the K winner selection qubits, the m - K non-winner
    ones, the ancilla register, and each quota block), with the law of
    run_trial's per-qubit draws; node identities are not drawn. The
    optimistic row requires and counts the winner group in stage one's
    success and attempts, the conservative row all three groups; both ship
    every selection qubit, conservative also the ancilla register, and both
    share the quota blocks. Blocks fit a fixed memory budget, so peak
    memory does not grow with m. The arguments are checked before anything
    is drawn: raises CapacityError when one trial's outcome table alone
    exceeds that budget.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    K = safe_select_k(req.k_req, net.caps, params.beta)
    M = params.max_attempts
    block = _block_rows(net.m, K, M)
    ell = ancilla_bits(net.caps)
    m = net.m
    caps = np.asarray(net.caps, dtype=np.int64)
    pvals, cost = _delivery_law(params.q, M)
    base = params.t_gen + params.t_meas

    def blocks_of_rounds():
        for arrangement, quotas in _arranged_quotas(
                caps, req.k_req, K, trials, block, rng):
            t = len(quotas)
            winners = rng.multinomial(K, pvals, size=t)
            others = rng.multinomial(m - K, pvals, size=t)
            ancilla = rng.multinomial(ell, pvals, size=t)
            blocks = rng.multinomial(quotas, pvals)
            # rows filled in place: building them with np.stack measured
            # 3 MB more peak RSS on the mc_grid benchmark, though not more
            # traced memory (allocator fragmentation)
            ok = np.empty((2, t), dtype=bool)
            np.logical_and(winners[:, M] == 0,
                           (blocks[:, :, M] == 0).all(axis=1), out=ok[0])
            np.logical_and(ok[0], (others[:, M] == 0) & (ancilla[:, M] == 0),
                           out=ok[1])
            block_att = blocks @ cost
            del blocks
            # stage one ships every selection qubit, conservative also the
            # ancillas; the optimistic row counts only the winners' attempts
            win_att = winners @ cost
            stage1 = np.empty((2, t), dtype=np.int64)
            np.add(win_att, others @ cost, out=stage1[0])
            np.add(stage1[0], ancilla @ cost, out=stage1[1])
            attempts = np.stack((win_att, stage1[1]))
            attempts += block_att.sum(axis=1)
            lat = (base + params.t_dist * stage1) + (
                base + params.t_dist * block_att.max(axis=1))
            del winners, others, ancilla, block_att, stage1
            yield arrangement, quotas, ok, attempts, lat
            # free this block's (t, K) arrays before the next block is drawn
            del arrangement, quotas

    return blocks_of_rounds()


def batch_stats(net: NetworkConfig, req: Request, params: ModelParams,
                trials: int, rng: np.random.Generator) -> dict[str, BatchStats]:
    """Both accountings' success rates and mean latencies over sample_rounds.

    Keyed by LATENCY_MODES entry; both read the same sampled rounds. Per-block
    latency means and sums of squares are merged pairwise, so memory stays
    at one block whatever the trial count.
    """
    n_done = 0
    n_success = np.zeros(len(LATENCY_MODES), dtype=np.int64)
    lat_mean = np.zeros(len(LATENCY_MODES))
    lat_m2 = np.zeros(len(LATENCY_MODES))
    # rebinding _ keeps no (t, K) array alive while the next block is drawn
    for _, _, ok, _, lat in sample_rounds(net, req, params, trials, rng):
        # Chan et al. pairwise merge of per-block mean and M2, per row
        t = lat.shape[1]
        b_mean = lat.mean(axis=1)
        b_m2 = np.square(lat - b_mean[:, None]).sum(axis=1)
        n_new = n_done + t
        delta = b_mean - lat_mean
        lat_mean += delta * t / n_new
        lat_m2 += b_m2 + delta * delta * n_done * t / n_new
        n_success += ok.sum(axis=1)
        n_done = n_new

    stats = {}
    for mode, succ, mean, m2 in zip(LATENCY_MODES, n_success.tolist(),
                                    lat_mean.tolist(), lat_m2.tolist()):
        rate = succ / trials
        stats[mode] = BatchStats(
            trials=trials,
            success_rate=rate,
            success_se=math.sqrt(rate * (1.0 - rate) / trials),
            latency_mean=mean,
            latency_se=math.sqrt(m2 / trials / trials),
        )
    return stats


def simulate_batch(net: NetworkConfig, req: Request, params: ModelParams,
                   mode: str, trials: int, rng: np.random.Generator) -> BatchStats:
    """Success rate and mean latency, with standard errors, of one mode.

    One row of batch_stats, which reads both modes from the same rounds;
    call that once where both are needed.
    """
    _check_mode(mode)
    return batch_stats(net, req, params, trials, rng)[mode]


def estimate_fairness(net: NetworkConfig, req: Request, trials: int,
                      rng: np.random.Generator,
                      beta: float = DEFAULT_BETA) -> FairnessReport:
    """Per-node win probabilities over the loss-free lottery chain.

    Rao-Blackwellized: a winner QLAN's winning nodes are a uniform
    quota-subset of its nodes, so each node of QLAN i wins with probability
    E[quota_i] / caps_i; only the outer lottery and the rounding are
    sampled. Delivery loss is ignored on purpose: fairness concerns who is
    granted access, not whether the grant survives the channel.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    K = safe_select_k(req.k_req, net.caps, beta)
    caps = np.asarray(net.caps, dtype=np.int64)
    quota_sums = np.zeros(net.m)
    # no delivery counts, so the block budget holds no outcome columns
    for arrangement, quotas in _arranged_quotas(
            caps, req.k_req, K, trials, _block_rows(net.m, K, 0), rng):
        quota_sums += np.bincount(arrangement.ravel(), weights=quotas.ravel(),
                                  minlength=net.m)
    # a zero-capacity QLAN has no nodes, so repeat drops its entry
    probs = np.repeat(quota_sums / (trials * np.maximum(caps, 1)), caps)
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


def _compositions(sizes: tuple[int, ...], K: int):
    """Yield every (j_c) with 0 <= j_c <= sizes[c] and sum(j_c) == K."""
    if not sizes:
        if K == 0:
            yield ()
        return
    rest = sum(sizes[1:])
    for j in range(max(0, K - rest), min(sizes[0], K) + 1):
        for tail in _compositions(sizes[1:], K - j):
            yield (j, *tail)


def exact_node_probs(net: NetworkConfig, req: Request,
                     beta: float = DEFAULT_BETA,
                     max_subsets: int = 10 ** 6) -> np.ndarray:
    """Exact per-node win probabilities over capacity-class compositions.

    P(node in QLAN i wins) = mean over K-subsets containing i of
    E[quota_i] / caps_i, with E over the random winner arrangement. QLANs
    of equal capacity are exchangeable, so the subsets are grouped by
    composition: j_c winners from the n_c QLANs of capacity c, reached by
    prod C(n_c, j_c) subsets that share one expected quota per class, and
    each QLAN of class c is among the winners in a j_c / n_c share of them.
    The guard still counts subsets: raises CapacityError when C(m, K)
    exceeds max_subsets; use estimate_fairness for such instances.
    """
    K = safe_select_k(req.k_req, net.caps, beta)
    n_subsets = math.comb(net.m, K)
    if n_subsets > max_subsets:
        raise CapacityError(
            f"C({net.m}, {K}) = {n_subsets} subsets exceed {max_subsets}; "
            "use estimate_fairness instead")
    class_size = Counter(net.caps)
    classes = sorted(class_size)
    sizes = tuple(class_size[c] for c in classes)
    # per class: sum over subsets of j_c * E[quota] / c (divided by n_c below)
    class_sum = dict.fromkeys(classes, 0.0)
    for counts in _compositions(sizes, K):
        winners = tuple(c for c, j in zip(classes, counts) for _ in range(j))
        expected = _expected_quotas(req.k_req, winners)
        weight = math.prod(math.comb(n, j) for n, j in zip(sizes, counts))
        first = 0
        for c, j in zip(classes, counts):
            # the class's j winners share one expected quota
            if j and c:
                class_sum[c] += weight * j * expected[first] / c
            first += j
    qlan_prob = [class_sum[c] / class_size[c] for c in net.caps]
    return np.repeat(np.array(qlan_prob) / n_subsets, net.caps)
