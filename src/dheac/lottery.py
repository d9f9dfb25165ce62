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
(symmetric networks come out exactly symmetric in distribution).

The quota law, in all its shapes, lives in ``partition``. The oracle
``exact_node_probs`` rounds every capacity-class composition (how many
winners each class has), and ``estimate_fairness`` samples compositions (a
multivariate hypergeometric draw) and rounds each distinct one once per
window of draws; a network with only one composition (one capacity class,
or every QLAN a winner) is not sampled at all. Both hold compositions
slot-major, one column each, and sum their quotas with ``_quota_totals``:
one ``partition._class_law`` per block of columns,
``partition._class_round`` a piece at a time. Both return one win
probability per node.

Delivery only matters through two facts per group of qubits: the sum of
their capped attempt counts and whether any of them ran out of attempts.
``sample_rounds`` is the one round kernel: per block of trials it draws
the arrangements, rounds them position by position, and samples each
group's delivery as one multinomial over the outcomes {delivered on
attempt 1, ..., delivered on attempt M, failed}, so its cost does not grow
with k_req; a network with one composition is rounded once per call. Each
round is drawn once and reported under both accounting modes.
``batch_stats`` reduces its blocks to both modes' batch statistics
(``simulate_batch`` is one mode's view) and the ``mc`` dump formats one
mode's row, winners included. ``run_trial`` is the per-qubit reference:
one truncated geometric per qubit and explicit winning nodes, kept for
tests to compare the kernel against.

Streams are derived counter-style: ``trial_rng(seed, point, trial)`` gives
the same generator no matter which worker runs the trial. The bulk
estimators consume one per-point stream sequentially and are deterministic
for a fixed seed and fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import (LATENCY_MODES, MAX_COUNT, ModelParams, _check_mode,
                        ancilla_bits)
from .errors import CapacityError, InvariantViolationError
from .netgen import NetworkConfig, Request
from .partition import (_capacity_classes, _class_law, _class_round,
                        _forced_law, _forced_round, _one_composition,
                        _piece_rows, _pieces, _quota_round_rows, quota_round,
                        safe_select_k, split_chunks)

DEFAULT_BETA = ModelParams.beta
# largest C(m, K) winner-subset count exact_node_probs takes on
MAX_SUBSETS = 10 ** 6
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


@dataclass(frozen=True)
class BatchStats:
    """Aggregates from a vectorized batch of delivery trials."""

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


def _delivery_law(q: float, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities and attempt costs of one capped delivery.

    Outcome j < M is delivery on attempt j + 1, with probability
    (1 - q) q^j and cost j + 1; outcome M is running out of attempts, with
    probability q^M and cost M.
    """
    j = np.arange(M)
    pvals = np.append((1.0 - q) * q ** j, q ** M)
    cost = np.append(j + 1, M)
    return pvals, cost


def _attempts(outcomes: np.ndarray, qubits, cost: np.ndarray) -> np.ndarray:
    """Delivery attempts of groups of qubits from their (..., M + 1)
    outcome counts, qubits per group an int or an array of the groups'
    shape: each qubit spends M attempts, less M - cost[o] for each one
    delivered at outcome o. The terms of the last two outcomes vanish, so
    this takes M - 1 products where `outcomes @ cost` takes M + 1.
    """
    M = len(cost) - 1
    att = np.multiply(qubits, M,
                      out=np.empty(outcomes.shape[:-1], dtype=np.int64))
    for o in range(M - 1):
        att -= (M - cost[o]) * outcomes[..., o]
    return att


def _block_rows(m: int, K: int, M: int) -> int:
    """Trials per block: a stream constant, frozen.

    The block size sets how many rounds each whole-block draw takes, and so
    every kernel stream: the formula is frozen for that reason alone. Its
    words per row no longer describe what a block holds, which is its
    (t, K) arrangement and quotas in the narrowest unsigned dtypes and a
    few per-row results; every outcome table and int64 (rows, K) array
    lives one row piece (_pieces) at a time. A test pins its values
    over a grid.
    Raises CapacityError when a single row exceeds the budget: a huge
    max_attempts M, or m and K near netgen.MAX_NODES.
    """
    row_bytes = 8 * (2 * m + (K + 3) * (M + 1) + 10 * K + 8)
    if row_bytes > _BLOCK_BYTES:
        raise CapacityError(
            f"max_attempts={M} needs {row_bytes} bytes per trial at m={m}, "
            f"K={K}, over the {_BLOCK_BYTES}-byte block budget; "
            "lower max_attempts, m or the request")
    return min(_BLOCK, _BLOCK_BYTES // row_bytes)


def sample_rounds(net: NetworkConfig, req: Request, params: ModelParams,
                  trials: int, rng: np.random.Generator):
    """The one round kernel: an iterator of per-trial arrays, one per block.

    Each tuple is (arrangement, quotas, succeeded, attempts_total, latency):
    the (t, K) winners in arrangement order (not sorted) with their quotas,
    in the smallest unsigned dtypes that hold m - 1 and k_req (widen them
    before arithmetic: numpy computes uint8 * int in uint8), then three
    (2, t) arrays holding run_trial's accounting of the same rounds, one
    row per LATENCY_MODES entry. Delivery is one multinomial per
    group of qubits (the K winner selection qubits, the m - K non-winner
    ones, the ancilla register, and each quota block), with the law of
    run_trial's per-qubit draws; node identities are not drawn. The
    optimistic row requires and counts the winner group in stage one's
    success and attempts, the conservative row all three groups; both ship
    every selection qubit, conservative also the ancilla register, and both
    share the quota blocks. So a round that succeeds conservatively also
    succeeds optimistically, and never takes fewer attempts or less latency.
    Blocks fit a fixed memory budget. Inside a block every draw goes a row
    piece at a time, in the order one whole-block draw takes them (the
    permutations, the winner, non-winner and ancilla groups, then the quota
    blocks, each piece rounded just before its draw), and each piece is
    reduced at once to per-row flags and attempts. So a block keeps only
    those per-row results and its narrow arrangement and quotas, and peak
    memory does not grow with m. A network with one composition (one
    capacity class, or K = m) is rounded once per call (_forced_law) and
    each piece gathers its quotas (_forced_round); any other rounds each
    piece (_quota_round_rows). Both give quota_round's integers, so the
    draws are the same. The arguments are checked before anything is
    drawn: raises CapacityError when one trial's outcome table alone
    exceeds that budget, and ValueError when the largest latency a round can
    take, summed or squared over the trials, would overflow a float.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    K = safe_select_k(req.k_req, net.caps, params.beta)
    M = params.max_attempts
    block = _block_rows(net.m, K, M)
    ell = ancilla_bits(net.caps)
    m = net.m
    # per row of a piece: the identity and permuted arrangements, the
    # rounding temporaries, the quota-block outcome table and its attempts
    piece_words = 2 * m + K * (M + 12)
    caps = np.asarray(net.caps, dtype=np.int64)
    law = (_forced_law(req.k_req, caps, K) if _one_composition(net.caps, K)
           else None)
    ids = np.min_scalar_type(m - 1)
    pvals, cost = _delivery_law(params.q, M)
    base = params.t_gen + params.t_meas
    # every qubit of a round spends all M attempts; lat below is computed
    # the same way, and batch_stats sums latencies and their squares
    worst = ((base + params.t_dist * (M * (m + ell)))
             + (base + params.t_dist * (M * req.k_req)))
    if not math.isfinite(worst * trials * worst * trials):
        raise ValueError(f"latencies up to {worst:g} ms over {trials} trials "
                         "overflow a float; lower the time constants")

    def blocks_of_rounds():
        # the identity rows each piece's permutations start from, and one
        # int64 buffer that holds each piece's permutations in turn
        # (rng.permuted is slower on narrower rows)
        ident = np.tile(np.arange(m, dtype=np.int64),
                        (min(_piece_rows(piece_words), block), 1))
        perm = np.empty_like(ident)

        def drawn(n, t):
            # the outcome counts of one selection group of n qubits over t
            # rounds, piece by piece (a scalar-n multinomial draws row after
            # row; a row's counts, attempts and temporaries are M + 5 words)
            for part in _pieces(t, M + 5):
                yield part, rng.multinomial(n, pvals,
                                            size=part.stop - part.start)

        for start in range(0, trials, block):
            t = min(block, trials - start)
            # each row: one round's first K QLANs of a uniformly random
            # permutation, in arrangement order, filled a piece at a time
            # (rng.permuted shuffles row after row, so the pieces draw what
            # one whole call would)
            arrangement = np.empty((t, K), dtype=ids)
            for part in _pieces(t, piece_words):
                rows = perm[:part.stop - part.start]
                rng.permuted(ident[:len(rows)], axis=1, out=rows)
                arrangement[part] = rows[:, :K]

            # rows filled in place: building them with np.stack measured
            # 3 MB more peak RSS on the mc_grid benchmark, though not more
            # traced memory (allocator fragmentation). ok[1] holds the
            # non-winner and ancilla flags until the quota blocks are in;
            # stage one ships every selection qubit, conservative also the
            # ancillas, and the optimistic row counts only the winners'
            # attempts
            ok = np.empty((2, t), dtype=bool)
            attempts = np.empty((2, t), dtype=np.int64)
            stage1 = np.empty((2, t), dtype=np.int64)
            for part, out in drawn(K, t):
                np.equal(out[:, M], 0, out=ok[0, part])
                attempts[0, part] = _attempts(out, K, cost)
            for part, out in drawn(m - K, t):
                np.equal(out[:, M], 0, out=ok[1, part])
                np.add(attempts[0, part], _attempts(out, m - K, cost),
                       out=stage1[0, part])
            for part, out in drawn(ell, t):
                ok[1, part] &= out[:, M] == 0
                np.add(stage1[0, part], _attempts(out, ell, cost),
                       out=stage1[1, part])
            attempts[1] = stage1[1]
            # the quota blocks piece by piece (an array-n multinomial draws
            # row after row), each piece rounded just before its draw and
            # its (rows, K, M + 1) outcome table reduced at once to whether
            # every block was delivered and to the sum and maximum of their
            # attempts; the block keeps only a narrow copy of the quotas
            quotas = np.empty((t, K), dtype=np.min_scalar_type(req.k_req))
            block_max = np.empty(t, dtype=np.int64)
            for part in _pieces(t, piece_words):
                # contiguous int64 rows for the draw and _attempts: narrow
                # quotas would wrap in its products
                if law is None:
                    arranged = np.ascontiguousarray(_quota_round_rows(
                        req.k_req, caps.take(arrangement[part].T)).T)
                else:
                    arranged = _forced_round(req.k_req, law, arrangement[part])
                quotas[part] = arranged
                blocks = rng.multinomial(arranged, pvals)
                # slot-major copies: a reduction over a row's K blocks is
                # then K - 1 operations on whole columns
                failed = np.ascontiguousarray(blocks[:, :, M].T)
                block_att = np.ascontiguousarray(
                    _attempts(blocks, arranged, cost).T)
                del blocks, arranged
                ok[0, part] &= ~failed.any(axis=0)
                attempts[:, part] += block_att.sum(axis=0)
                block_att.max(axis=0, out=block_max[part])
                del failed, block_att
            ok[1] &= ok[0]
            lat = (base + params.t_dist * stage1) + (
                base + params.t_dist * block_max)
            del stage1, block_max
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


def _node_probs(caps, classes: np.ndarray, sizes: np.ndarray,
                quota_sums: np.ndarray, n_sets: int) -> np.ndarray:
    """Per-node win probabilities from each class's quota sum over n_sets
    winner sets.

    A winner QLAN's winning nodes are a uniform quota-subset of its nodes,
    so each node of a class-c QLAN wins with probability
    quota_sums[c] / (n_sets * sizes[c] * c); one division of whole numbers,
    exact in float64 below 2^53. A zero-capacity QLAN has no nodes, so it
    gets no entries.
    """
    per_class = quota_sums / (float(n_sets) * sizes * np.maximum(classes, 1))
    caps = np.asarray(caps, dtype=np.int64)
    return np.repeat(per_class[np.searchsorted(classes, caps)], caps)


def _quota_totals(k_req: int, classes: np.ndarray, counts: np.ndarray,
                  weight: np.ndarray) -> np.ndarray:
    """Each class's quota total over the (n, t) compositions, composition r
    counted weight[r] times, in int64: one law for all of them, rounded a
    piece at a time under the _PIECE_BYTES budget."""
    law, of = _class_law(k_req, classes, counts)
    totals = np.zeros(len(classes), dtype=np.int64)
    # per composition of a piece: seven words per class (at most six
    # (n, rows) arrays, a strided piece's contiguous copy included)
    for part in _pieces(counts.shape[1], 7 * len(classes)):
        floors, extras = _class_round(k_req, classes, counts[:, part], law,
                                      of[part])
        floors *= counts[:, part]
        floors += extras
        totals += floors @ weight[part]
    return totals


def estimate_fairness(net: NetworkConfig, req: Request, trials: int,
                      rng: np.random.Generator,
                      beta: float = DEFAULT_BETA) -> np.ndarray:
    """Per-node win probabilities over the loss-free lottery chain, sampled;
    the same array as exact_node_probs gives.

    Samples the winner count of each capacity class per round (its
    composition: a multivariate hypergeometric draw, the law of the class
    counts among the first K QLANs of a uniform permutation) and sums each
    class's quotas, so it is Rao-Blackwellized twice: over which members of
    a class win, and over a winner QLAN's winning nodes, a uniform
    quota-subset of its nodes. Each node of QLAN i thus wins with
    probability E[quota_i] / caps_i. Delivery loss is ignored on purpose:
    fairness concerns who is granted access, not whether the grant
    survives the channel. The estimates are equal within each capacity
    class and sum to k_req.

    A network with one composition (one capacity class, or K = m, so every
    round has the same composition) is not sampled: that composition is
    weighted by trials, nothing is drawn and rng is left untouched. Its
    quota sums are whole numbers, so the result is the drawn one bit for
    bit, and equals exact_node_probs.

    Many rounds draw the same composition, so each is rounded once per
    window: the whole blocks (at least one) that fit the _piece_rows(1)
    rows of one int64 key each. A composition is one key, digit c in base
    sizes[c] + 1, and np.unique counts each key's rounds. Quota sums are
    whole numbers below trials * net.total, which must stay below
    MAX_COUNT = 2^53 (ValueError before any draw), so they, _node_probs'
    denominators and the grouping are exact to the bit. Where the keys
    would overflow int64 (prod(sizes + 1) >= 2^63), each block's rows are
    rounded as drawn.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials * net.total >= MAX_COUNT:
        raise ValueError(f"trials={trials} times {net.total} nodes reach 2^53")
    K = safe_select_k(req.k_req, net.caps, beta)
    classes, sizes = _capacity_classes(net.caps)
    n = len(classes)
    if _one_composition(net.caps, K):
        # the whole numbers every draw would sum to, with nothing drawn
        forced = np.minimum(sizes, K)[:, None]
        quota_sums = _quota_totals(req.k_req, classes, forced,
                                   np.array([trials], dtype=np.int64))
        return _node_probs(net.caps, classes, sizes, quota_sums, trials)
    quota_sums = np.zeros(n)
    # rows per draw: a stream constant, frozen like _block_rows because it
    # fixes every sampled cell's stream (method="count" draws differently
    # when split); the rounding sizes its own pieces in _quota_totals
    block = min(_BLOCK, _BLOCK_BYTES // (8 * 16 * n))

    def draw(rows):
        # drawn whole: method="count" draws differently when split
        return rng.multivariate_hypergeometric(sizes, K, size=rows,
                                               method="count")

    bases = (sizes + 1).tolist()
    if math.prod(bases) >= 2 ** 63:
        for start in range(0, trials, block):
            t = min(block, trials - start)
            quota_sums += _quota_totals(req.k_req, classes, draw(t).T,
                                        np.ones(t, dtype=np.int64))
        return _node_probs(net.caps, classes, sizes, quota_sums, trials)
    radix = np.cumprod([1] + bases[:-1], dtype=np.int64)
    # a canonical 10^5-trial cell is one window
    window = max(1, _piece_rows(1) // block) * block
    for start in range(0, trials, window):
        stop = min(start + window, trials)
        keys, mult = np.unique(
            np.concatenate([draw(min(block, stop - first)) @ radix
                            for first in range(start, stop, block)]),
            return_counts=True)
        # per distinct key: its digits, the rest, and its capacity total
        # with the sort and index that _class_law finds its law column by
        for part in _pieces(len(keys), n + 6):
            rest = keys[part].copy()
            # digit rows, one scalar division per class, highest first
            digits = np.empty((n, len(rest)), dtype=np.int64)
            for c in range(n - 1, -1, -1):
                np.floor_divide(rest, int(radix[c]), out=digits[c])
                rest -= digits[c] * int(radix[c])
            # each distinct composition weighted by the rounds that drew it
            quota_sums += _quota_totals(req.k_req, classes, digits,
                                        mult[part])
        # free this window's arrays before the next window is drawn
        del keys, mult, rest, digits
    return _node_probs(net.caps, classes, sizes, quota_sums, trials)


def exact_node_probs(net: NetworkConfig, req: Request,
                     beta: float = DEFAULT_BETA) -> np.ndarray:
    """Exact per-node win probabilities over capacity-class compositions.

    P(node in QLAN i wins) = mean over K-subsets containing i of
    E[quota_i] / caps_i, with E over the random winner arrangement. QLANs
    of equal capacity are exchangeable, so the subsets are grouped by
    composition: j_c winners from the n_c QLANs of capacity c, reached by
    prod C(n_c, j_c) subsets that share one _class_round column.
    split_chunks walks the compositions (bounded splits of K over the class
    sizes) under the _BLOCK_BYTES budget, and each chunk is rounded
    slot-major under one law (_class_law). The weighted quota sums are
    whole numbers, exact in any order of addition while C(m, K) * k_req <
    2^53, as MAX_SUBSETS and netgen.MAX_NODES keep it. At m = 32, K = 28
    on the skew-1 network the walk visits 2,608 compositions for 35,960
    subsets. The guard still counts subsets, so which cells ``fairness
    --method auto`` computes exactly does not depend on the walk: raises
    CapacityError when C(m, K) exceeds MAX_SUBSETS; use estimate_fairness.
    """
    K = safe_select_k(req.k_req, net.caps, beta)
    n_subsets = math.comb(net.m, K)
    if n_subsets > MAX_SUBSETS:
        raise CapacityError(
            f"C({net.m}, {K}) = {n_subsets} subsets exceed {MAX_SUBSETS}")
    classes, sizes = _capacity_classes(net.caps)
    n = len(classes)
    # ways[c, j] = C(n_c, j) ways to pick j winners from class c
    ways = np.array([[math.comb(s, j) for j in range(min(K, sizes.max()) + 1)]
                     for s in sizes.tolist()], dtype=float)
    quota_sums = np.zeros(n)
    # per row: n pending walk levels of n + 2 words and 16 n more, loose
    # now that the rounding goes a piece at a time and a chunk holds only
    # its weights and its law's index
    max_rows = max(1, _BLOCK_BYTES // (8 * (n * (n + 2) + 16 * n)))
    for _, counts in split_chunks(K, sizes[None, :], max_rows):
        # whole numbers, and their sums below C(m, K) * k_req
        weight = ways[np.arange(n), counts].prod(axis=1).astype(np.int64)
        quota_sums += _quota_totals(req.k_req, classes, counts.T, weight)
    return _node_probs(net.caps, classes, sizes, quota_sums, n_subsets)
