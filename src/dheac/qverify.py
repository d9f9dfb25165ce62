"""Sparse simulation of the measurement-based winner/quota encoding.

The protocol's selection state is, up to local unitaries, a superposition
over labels (S, v): S a K-subset of QLANs and v a quota vector the
lottery chain can round S to. Amplitudes are uniform over subsets and,
within each subset branch, over its vectors, so a single measurement
draws the winner set and the quotas with the chain's law. This module
builds that state explicitly over its (sparse) support, samples
measurements of it, and checks the structural invariants a faithful
preparation must satisfy.

A state is its four arrays in sorted label order, and
``SparseState(subsets, offsets, vectors, amps)`` is its one constructor:
the winner subsets, where each subset's labels start, one integer row per
quota vector, and one amplitude per label. ``build_embedded`` and the
tests that damage or hand-build a state all call it. Building (a
``split_chunks`` walk in ``_chain_bounds``, both from ``partition``),
normalization, the feasibility checks, marginals and sampling are array
arithmetic over those rows. Labels become tuples only at the edges:
``amplitudes``, ``marginal_outer`` and ``measure_many``.

A measurement of ``draws`` shots is one multinomial over the normalized
squares, drawn only after the norm has passed: ``verify_state`` takes the
norm once and samples only if it and the other structural checks hold,
and ``measure_many`` checks it first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .analytics import jain_index
from .errors import CapacityError, InvariantViolationError, ResourceShortageError
from .netgen import NetworkConfig
from .partition import _chain_bounds, _piece_rows, _pieces, split_chunks

# (winner subset, quota vector)
Outcome = tuple[tuple[int, ...], tuple[int, ...]]

MAX_SPARSE_OUTCOMES = 10 ** 6
NORM_TOL = 1e-12
MAX_DRAWS = 2 ** 63 - 1  # rng.multinomial takes an int64 count


class SparseState:
    """Amplitudes over outcome labels (S, v); probabilities are amplitude^2.

    The state is four read-only arrays, labels in ascending order:

    - ``subsets``: (n_subsets, K) signed integer QLAN ids, the distinct
      winner subsets (``build_embedded`` uses the smallest dtype that
      holds m - 1);
    - ``offsets``: (n_subsets + 1,) int64; subset s owns label rows
      ``offsets[s]:offsets[s + 1]`` of the two arrays below;
    - ``vectors``: (n_labels, width) signed integer quota vectors,
      ascending within each subset (``build_embedded`` uses the smallest
      dtype that holds k_req);
    - ``amps``: (n_labels,) float64 amplitudes.

    The constructor checks that ``offsets`` runs from 0 to the label count
    and marks the arrays read-only; it does not copy them or check their
    order. ``amplitudes`` is a {label: amplitude} dict in label order,
    built on each call.
    """

    def __init__(self, subsets: np.ndarray, offsets: np.ndarray,
                 vectors: np.ndarray, amps: np.ndarray):
        if not (len(offsets) == len(subsets) + 1 and offsets[0] == 0
                and offsets[-1] == len(vectors) == len(amps)):
            raise ValueError("offsets must run from 0 to the label count, "
                             "one entry per subset plus one")
        for name, arr in (("subsets", subsets), ("offsets", offsets),
                          ("vectors", vectors), ("amps", amps)):
            arr = np.asarray(arr)
            arr.flags.writeable = False
            setattr(self, name, arr)

    @property
    def amplitudes(self) -> dict[Outcome, float]:
        return dict(zip(_labels(self), self.amps.tolist()))

    def norm_sq(self) -> float:
        """Sum of the squared amplitudes, correctly rounded."""
        return math.fsum(np.square(self.amps))

    def check_normalized(self) -> None:
        dev = abs(self.norm_sq() - 1.0)
        if not dev <= NORM_TOL:  # a NaN deviation fails too
            raise InvariantViolationError(
                f"state norm^2 deviates from 1 by {dev:.3e}")


def _labels(state: SparseState):
    """Yield every label (subset, vector) as tuples, in label order."""
    for s, subset in enumerate(state.subsets.tolist()):
        subset = tuple(subset)
        rows = state.vectors[state.offsets[s]:state.offsets[s + 1]]
        for vec in rows.tolist():
            yield subset, tuple(vec)


def build_embedded(net: NetworkConfig, k_req: int, K: int) -> SparseState:
    """Selection state of the lottery chain, with quotas embedded per branch.

    Every K-subset S carries its C(t_S, r_S) chain vectors (r_S extra pairs
    over t_S slots, ``_chain_bounds``) with amplitude
    1 / sqrt(C(m, K) * C(t_S, r_S)), which keeps the outer marginal exactly
    uniform. The guard counts the labels exactly before one
    ``split_chunks`` walk lists them. Every canonical m = 8 cell has at
    most 74 labels; the largest canonical m = 16 state (skew 0, demand
    0.6) has 720,720: each of its C(16, 11) = 4,368 subsets of 11 equal
    QLANs hands 8 extra pairs to C(11, 8) = 165 splits.

    Raises InvariantViolationError, checked first, when the K smallest
    caps sum below k_req (K is too small for this request), and
    CapacityError when C(m, K) subsets, or the labels, exceed the sparse
    guard.
    """
    if k_req < 1:
        raise ValueError(f"k_req must be >= 1, got {k_req}")
    if not 1 <= K <= net.m:
        raise ValueError(f"need 1 <= K <= m, got K={K}, m={net.m}")
    if net.total < k_req:
        raise ResourceShortageError(
            f"total capacity {net.total} cannot cover k_req={k_req}")
    n_subsets = math.comb(net.m, K)
    if sum(sorted(net.caps)[:K]) < k_req:
        raise InvariantViolationError(
            f"the {K} smallest QLANs cannot cover k_req={k_req}; winner "
            f"count K={K} is too small")
    if n_subsets > MAX_SPARSE_OUTCOMES:
        raise CapacityError(
            f"C({net.m}, {K}) = {n_subsets} winner subsets exceed the "
            f"{MAX_SPARSE_OUTCOMES} sparse guard; reduce m or K")
    # ids and quotas in the smallest signed dtypes that hold 0..m-1, 0..k_req
    subsets = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(net.m), K)),
        dtype=np.min_scalar_type(-net.m),
        count=n_subsets * K).reshape(n_subsets, K)
    dtype = np.min_scalar_type(-1 - k_req)
    lo, free = _chain_bounds(net.caps, k_req, subsets, dtype)
    free -= lo  # 1 on the slots that may take an extra pair
    left = k_req - lo.sum(axis=1, dtype=np.int64)
    # C(t_S, r_S) in Python ints: the count cannot overflow
    sizes = list(map(math.comb, free.sum(axis=1).tolist(), left.tolist()))
    n_labels = sum(sizes)
    if n_labels > MAX_SPARSE_OUTCOMES:
        raise CapacityError(
            f"{n_labels} labels over C({net.m}, {K}) = {n_subsets} subsets "
            f"exceed the {MAX_SPARSE_OUTCOMES} sparse guard; reduce m, K "
            "or k_req")
    sizes = np.array(sizes, dtype=np.int64)
    # walk chunks of _piece_rows(2) quota vectors: 65,536 at the default
    vectors = np.concatenate([x + lo[owner] for owner, x in
                              split_chunks(left, free, _piece_rows(2), dtype)])
    if len(vectors) != n_labels:
        raise InvariantViolationError(
            f"the walk gave {len(vectors)} quota vectors, {n_labels} counted")
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    amps = np.repeat(np.sqrt((1.0 / n_subsets) / sizes), sizes)
    return SparseState(subsets, offsets, vectors, amps)


def measure_many(state: SparseState, rng: np.random.Generator,
                 draws: int) -> dict[Outcome, int]:
    """Draw many outcomes at once; returns counts per label (zeros kept).
    Raises InvariantViolationError, before drawing, on a state whose norm
    deviates from 1."""
    state.check_normalized()
    counts = _sample_counts(state, rng, draws)
    return dict(zip(_labels(state), counts.tolist()))


def _sample_counts(state: SparseState, rng: np.random.Generator,
                   draws: int) -> np.ndarray:
    """measure_many without the labels or the norm check: draws per label
    row, one multinomial over the normalized amp ** 2. Its time and memory
    do not grow with draws: it holds the probabilities and the counts, two
    label-length arrays."""
    if not 1 <= draws <= MAX_DRAWS:
        raise ValueError(f"draws must lie in [1, 2**63 - 1], got {draws}")
    probs = np.square(state.amps)
    probs /= probs.sum()
    return rng.multinomial(draws, probs)


def _branch_stats(state: SparseState) -> tuple[np.ndarray, float]:
    """Per-subset probability totals, and the largest deviation of any
    conditional from uniform.

    Each total is ``math.fsum`` of its branch, bit for bit: a branch can
    hold ~10^6 terms, and plain + drifts past NORM_TOL on a correctly
    normalized state. fsum is correctly rounded, so on a branch of c equal
    values v it is the one IEEE product c * v, and every label of such a
    branch deviates alike; all of those branches are done at once. Only a
    branch holding two distinct values (a damaged or hand-built state)
    is summed, and checked, label by label.
    """
    probs = np.square(state.amps)
    offsets = state.offsets
    sizes = np.diff(offsets)
    # a branch is mixed if a label in it differs from the label before it
    change = np.flatnonzero(probs[1:] != probs[:-1]) + 1
    mixed = (np.searchsorted(change, offsets[1:])
             > np.searchsorted(change, offsets[:-1], side="right"))
    full = sizes > 0
    head = probs[offsets[:-1][full]]
    totals = np.zeros(len(sizes))
    totals[full] = sizes[full] * head
    dev = np.zeros(len(sizes))
    dev[full] = np.abs(head / totals[full] - 1.0 / sizes[full])
    for s in np.flatnonzero(mixed):
        branch = probs[offsets[s]:offsets[s + 1]]
        totals[s] = math.fsum(branch)
        dev[s] = np.abs(branch / totals[s] - 1.0 / sizes[s]).max()
    return totals, float(dev.max(initial=0.0))


def marginal_outer(state: SparseState) -> dict[tuple[int, ...], float]:
    """Distribution over winner subsets after tracing out the quotas."""
    totals, _ = _branch_stats(state)
    return dict(zip(map(tuple, state.subsets.tolist()), totals.tolist()))


def node_win_probs(state: SparseState, caps) -> np.ndarray:
    """Per-node win probability if quotas were drawn from this state; on a
    built state, the chain's law that ``lottery.exact_node_probs`` gives.

    Each label adds p * v / cap to each of its QLANs, label by label and
    slot by slot, by one unbuffered ``np.add.at`` per row piece, so each
    QLAN's sum is taken left to right in label order and does not depend
    on numpy's pairwise reduction. Raises ValueError when a subset holds a
    QLAN id outside 0..m-1.
    """
    caps = np.array([int(c) for c in caps], dtype=np.int64)
    subsets, offsets = state.subsets, state.offsets
    if ((subsets < 0) | (subsets >= len(caps))).any():
        raise ValueError(f"subsets must hold QLAN ids in 0..{len(caps) - 1}")
    per_pair = np.maximum(caps, 1)  # zero-capacity QLANs are dropped below
    qlan_prob = np.zeros(len(caps))
    n_labels, K = state.vectors.shape
    # per label row: its owner, its QLANs and terms, and their gathers
    for part in _pieces(n_labels, 4 * K + 2):
        rows = np.arange(part.start, part.stop)
        qlans = subsets[np.searchsorted(offsets, rows, side="right") - 1]
        terms = np.square(state.amps[part])[:, None] * state.vectors[part]
        terms /= per_pair[qlans]
        np.add.at(qlan_prob, qlans.ravel(), terms.ravel())
    return np.repeat(qlan_prob, caps)


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Statistical and structural checks of an embedded selection state.

    ``drawn_violations`` is 0: only a state whose support holds no
    infeasible label is sampled. The JSON and text reports still print it.
    """

    n_subsets: int
    n_outcomes: int
    draws: int
    norm_dev: float
    marginal_max_dev: float
    conditional_max_dev: float
    support_violations: int
    drawn_violations: int
    outer_chi2: float
    outer_dof: int
    outer_pvalue: float
    pooled_chi2: float
    pooled_dof: int
    pooled_pvalue: float
    min_expected_cell: float
    jain: float
    significance: float
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _label_violations(state: SparseState, net: NetworkConfig,
                      k_req: int, K: int) -> np.ndarray:
    """Mask of the label rows that are not a feasible (S, v) for k_req.

    A label is feasible when its subset has K distinct QLANs of the network
    in ascending order that cover k_req, and its vector is a rounding of
    that subset: K entries within its ``_chain_bounds`` summing to k_req.
    The vectors are read one slot (column) at a time, so no (n_labels, K)
    temporary is made; the row sums accumulate in int64, as
    ``vectors.sum(axis=1)`` does.
    """
    subsets, vectors = state.subsets, state.vectors
    if subsets.shape[1] != K or vectors.shape[1] != K:
        return np.ones(len(vectors), dtype=bool)
    sound = (((subsets >= 0) & (subsets < net.m)).all(axis=1)
             & (np.diff(subsets, axis=1) > 0).all(axis=1))
    sound[sound] = np.asarray(net.caps)[subsets[sound]].sum(axis=1) >= k_req
    # bounds in a dtype that holds the vectors and k_req
    dtype = np.result_type(vectors.dtype, np.min_scalar_type(-1 - k_req))
    lo, hi = np.zeros((2, *subsets.shape), dtype=dtype)
    lo[sound], hi[sound] = _chain_bounds(net.caps, k_req, subsets[sound],
                                         dtype)
    sizes = np.diff(state.offsets)
    ok = np.repeat(sound, sizes)
    total = np.zeros(len(vectors), dtype=np.int64)
    for j in range(K):
        col = vectors[:, j]
        total += col
        ok &= col >= np.repeat(lo[:, j], sizes)
        ok &= col <= np.repeat(hi[:, j], sizes)
    ok &= total == k_req
    return ~ok


def _chi2_pvalue(stat: float, dof: int) -> float:
    """Upper tail of chi-square with dof degrees of freedom; a test with no
    degrees of freedom is vacuous and reads 1.0."""
    if dof == 0:
        return 1.0
    from scipy.special import chdtrc  # only verification pays for scipy

    return float(chdtrc(dof, stat))


def _chisquare(obs: np.ndarray) -> tuple[float, float]:
    """Pearson's chi-square against equal cell counts, and its p-value."""
    stat = float(((obs - obs.mean()) ** 2 / obs.mean()).sum())
    return stat, _chi2_pvalue(stat, len(obs) - 1)


def verify_state(state: SparseState, net: NetworkConfig, k_req: int, K: int,
                 draws: int, rng: np.random.Generator,
                 significance: float = 0.01) -> VerificationReport:
    """Full check battery: normalization, uniform marginals, feasibility.

    The outer statistic tests uniformity over winner subsets; per-subset
    conditional statistics are pooled (their sum is chi-square with summed
    degrees of freedom given the subset counts) and tested once, which
    keeps the false-alarm rate at the chosen significance independent of
    how many subsets the state has. With a single subset the outer test is
    vacuous and its p-value is 1.0. When a structural check fails nothing
    is sampled, and the statistics stay NaN (min_expected_cell: inf).
    """
    failures: list[str] = []
    # each deviation check is written "not dev <= tol" so a NaN fails it
    norm_dev = abs(state.norm_sq() - 1.0)
    if not norm_dev <= NORM_TOL:
        failures.append(f"norm^2 deviates from 1 by {norm_dev:.3e}")

    support_violations = int(_label_violations(state, net, k_req, K).sum())
    if support_violations:
        failures.append(f"{support_violations} infeasible labels in support")

    totals, conditional_max_dev = _branch_stats(state)
    n_subsets = math.comb(net.m, K)
    uniform = 1.0 / n_subsets
    marginal_max_dev = float(np.abs(totals - uniform).max())
    if len(totals) != n_subsets:
        failures.append(
            f"support covers {len(totals)} of {n_subsets} subsets")
        marginal_max_dev = max(marginal_max_dev, uniform)
    if not marginal_max_dev <= NORM_TOL:
        failures.append(
            f"outer marginal deviates from uniform by {marginal_max_dev:.3e}")

    if not conditional_max_dev <= NORM_TOL:
        failures.append(
            f"some conditional deviates from uniform by "
            f"{conditional_max_dev:.3e}")

    outer_chi2 = outer_p = pooled_chi2 = pooled_p = float("nan")
    outer_dof = pooled_dof = 0
    min_expected = float("inf")
    jain = float("nan")
    if not failures:
        counts = _sample_counts(state, rng, draws)
        obs_outer = np.add.reduceat(counts, state.offsets[:-1])
        min_expected = draws / n_subsets
        outer_chi2, outer_p = _chisquare(obs_outer)
        outer_dof = n_subsets - 1
        if outer_p < significance:
            failures.append(
                f"outer uniformity rejected (p={outer_p:.4g} < {significance})")

        # a branch with one label or no draws adds nothing to the pooled
        # statistic; zero-count cells of the others stay in, or the dof
        # would shrink
        sizes = np.diff(state.offsets)
        keep = (sizes >= 2) & (obs_outer > 0)
        # equals obs.mean() bit for bit: integer counts sum exactly
        means = obs_outer[keep] / sizes[keep]
        min_expected = min(min_expected, float(means.min(initial=np.inf)))
        pooled_dof = int((sizes[keep] - 1).sum())
        # each branch's statistic from (g, s) blocks of equal-size branches:
        # a C-contiguous row sums as the branch's own slice does; then
        # added up in branch order
        first = state.offsets[:-1][keep]
        kept_sizes = sizes[keep]
        branch_chi2 = np.empty(len(first))
        for s in np.unique(kept_sizes).tolist():
            group = np.flatnonzero(kept_sizes == s)
            for piece in _pieces(len(group), 4 * s):
                part = group[piece]
                obs = counts[first[part][:, None] + np.arange(s)]
                mean = means[part][:, None]
                branch_chi2[part] = ((obs - mean) ** 2 / mean).sum(axis=1)
        pooled_chi2 = (float(np.add.accumulate(branch_chi2)[-1])
                       if len(branch_chi2) else 0.0)
        pooled_p = _chi2_pvalue(pooled_chi2, pooled_dof)
        if pooled_p < significance:
            failures.append(
                f"conditional uniformity rejected (p={pooled_p:.4g} < "
                f"{significance})")
        jain = jain_index(node_win_probs(state, net.caps))

    return VerificationReport(
        n_subsets=n_subsets,
        n_outcomes=len(state.amps),
        draws=draws,
        norm_dev=norm_dev,
        marginal_max_dev=marginal_max_dev,
        conditional_max_dev=conditional_max_dev,
        support_violations=support_violations,
        # sampling needs an all-feasible support, so no draw is infeasible
        drawn_violations=0,
        outer_chi2=float(outer_chi2),
        outer_dof=outer_dof,
        outer_pvalue=float(outer_p),
        pooled_chi2=float(pooled_chi2),
        pooled_dof=pooled_dof,
        pooled_pvalue=float(pooled_p),
        min_expected_cell=float(min_expected),
        jain=jain,
        significance=significance,
        failures=failures,
    )
