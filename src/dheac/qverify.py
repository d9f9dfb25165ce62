"""Sparse simulation of the measurement-based winner/quota encoding.

The protocol's selection state is, up to local unitaries, a superposition
over labels (S, v): S a K-subset of QLANs and v a feasible quota vector for
S. Amplitudes are uniform over subsets and, within each subset branch,
uniform over its feasible quota vectors, so a single measurement draws the
winner set uniformly and a quota vector uniformly conditioned on it. This
module builds that state explicitly over its (sparse) support, samples
measurements of it, and checks the structural invariants a faithful
preparation must satisfy.

A state is a few arrays in sorted label order (see ``SparseState``): the
winner subsets, one integer row per quota vector, and one amplitude per
label. Building, normalization, the feasibility checks, marginals and
sampling are array arithmetic over those rows; Python loops run at most
once per subset or per QLAN. Labels become tuples only at the edges: the
``amplitudes`` view, ``marginal_outer`` and ``measure_many``.

The draws and the exact sums give the numbers a per-label computation
gives, bit for bit, with less work. A measurement sorts the uniforms
``rng.choice`` would draw and counts how many fall under each cumulative
probability: the counts and the generator state are those of
``rng.choice``. The norm and the per-subset totals equal ``math.fsum``,
which is correctly rounded: a run of c equal values v adds exactly c * v,
so a built state, whose branches each hold one value, is summed per
distinct value instead of per label.

Note the deliberate asymmetry with the sampling chain in ``lottery``: there
quotas come from deterministic capacity-proportional rounding, here from
the uniform distribution over all feasible vectors. Both are implemented;
``node_win_probs`` exposes the uniform-quota fairness so the two can be
compared directly.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .analytics import jain_index
from .errors import CapacityError, InvariantViolationError, ResourceShortageError
from .netgen import NetworkConfig
from .partition import count_partitions

# (winner subset, quota vector)
Outcome = tuple[tuple[int, ...], tuple[int, ...]]

MAX_SPARSE_OUTCOMES = 10 ** 6
NORM_TOL = 1e-12
_DRAW_CHUNK = 1 << 18  # uniforms _sample_counts holds at once


def _int_dtype(lo: int, hi: int) -> type:
    """Smallest signed integer dtype that holds lo..hi."""
    return next((dt for dt in (np.int8, np.int16, np.int32)
                 if np.iinfo(dt).min <= lo and hi <= np.iinfo(dt).max),
                np.int64)


class SparseState:
    """Amplitudes over outcome labels (S, v); probabilities are amplitude^2.

    The state is four read-only arrays, labels in ascending order:

    - ``subsets``: (n_subsets, K) int64, the distinct winner subsets;
    - ``offsets``: (n_subsets + 1,) int64; subset s owns label rows
      ``offsets[s]:offsets[s + 1]`` of the two arrays below;
    - ``vectors``: (n_labels, width) quota vectors in the smallest signed
      integer dtype that holds them, ascending within each subset;
    - ``amps``: (n_labels,) float64 amplitudes.

    ``SparseState(mapping)`` converts a {label: amplitude} mapping once, for
    hand-built states; its labels must share one subset width and one
    vector width. ``from_arrays`` takes arrays that already keep the order
    above. ``amplitudes`` is a read-only mapping view in label order.
    """

    def __init__(self, amplitudes: Mapping[Outcome, float]):
        labels = sorted(amplitudes)
        widths = sorted({(len(s), len(v)) for s, v in labels})
        if len(widths) > 1:
            raise ValueError("labels must share one subset width and one "
                             f"vector width, got {widths}")
        k_sub, k_vec = widths[0] if widths else (0, 0)
        n = len(labels)
        rows = np.array([s for s, _ in labels],
                        dtype=np.int64).reshape(n, k_sub)
        flat = [x for _, v in labels for x in v]
        dtype = _int_dtype(min(flat, default=0), max(flat, default=0))
        first = np.ones(n, dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        starts = np.flatnonzero(first)
        self._set(rows[starts], np.append(starts, n),
                  np.array(flat, dtype=dtype).reshape(n, k_vec),
                  np.array([amplitudes[label] for label in labels],
                           dtype=float))

    @classmethod
    def from_arrays(cls, subsets: np.ndarray, offsets: np.ndarray,
                    vectors: np.ndarray, amps: np.ndarray) -> SparseState:
        """Wrap arrays that are already in the class's layout and order;
        they are marked read-only, not copied."""
        state = cls.__new__(cls)
        state._set(subsets, offsets, vectors, amps)
        return state

    def _set(self, subsets, offsets, vectors, amps) -> None:
        if not (len(offsets) == len(subsets) + 1 and offsets[0] == 0
                and offsets[-1] == len(vectors) == len(amps)):
            raise ValueError("offsets must run from 0 to the label count, "
                             "one entry per subset plus one")
        for name, arr in (("subsets", subsets), ("offsets", offsets),
                          ("vectors", vectors), ("amps", amps)):
            arr = np.asarray(arr)
            arr.flags.writeable = False
            setattr(self, name, arr)
        self._norm_sq = None

    @property
    def amplitudes(self) -> Mapping[Outcome, float]:
        return _AmplitudeView(self)

    def norm_sq(self) -> float:
        # amps is read-only, so one exact pass serves every caller
        if self._norm_sq is None:
            self._norm_sq = _exact_sum(np.square(self.amps))
        return self._norm_sq

    def check_normalized(self, tol: float = NORM_TOL) -> None:
        dev = abs(self.norm_sq() - 1.0)
        if not dev <= tol:  # a NaN deviation fails too
            raise InvariantViolationError(
                f"state norm^2 deviates from 1 by {dev:.3e}")


class _AmplitudeView(Mapping):
    """{label: amplitude} over a SparseState's arrays, in label order."""

    def __init__(self, state: SparseState):
        self._state = state

    def __len__(self) -> int:
        return len(self._state.amps)

    def __iter__(self):
        state = self._state
        for s, subset in enumerate(state.subsets.tolist()):
            subset = tuple(subset)
            rows = state.vectors[state.offsets[s]:state.offsets[s + 1]]
            for vec in rows.tolist():
                yield subset, tuple(vec)

    def __getitem__(self, label: Outcome) -> float:
        state = self._state
        try:
            subset, vec = label
            s = _find_row(state.subsets, 0, len(state.subsets), tuple(subset))
            i = _find_row(state.vectors, int(state.offsets[s]),
                          int(state.offsets[s + 1]), tuple(vec))
        except (KeyError, TypeError, ValueError):
            raise KeyError(label) from None
        return float(state.amps[i])


def _find_row(arr: np.ndarray, lo: int, hi: int, key: tuple) -> int:
    """Index of the row equal to key among the ascending rows lo..hi-1 of
    arr; KeyError if there is none."""
    i = lo + bisect.bisect_left(range(lo, hi), key,
                                key=lambda r: tuple(arr[r].tolist()))
    if i == hi or tuple(arr[i].tolist()) != key:
        raise KeyError(key)
    return i


def _enum_rows(k: int, caps: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Every bounded split of k over each row of caps, stacked row after
    row, each row's splits in ascending lexicographic order: row by row,
    the same vectors in the same order as ``enum_partitions``.

    Built one slot at a time over all rows at once. Slot j of a partial
    vector with r parts left takes x parts, max(0, r - rest_j) <= x <=
    min(caps_j, r), where rest_j is the capacity of the slots after j. So
    every partial vector extends to at least one full one, and no level
    holds more rows than the result.
    """
    caps = np.asarray(caps, dtype=np.int64)
    rest = np.cumsum(caps[:, ::-1], axis=1)[:, ::-1] - caps
    owner = np.flatnonzero(caps.sum(axis=1) >= k)  # caps row of each vector
    left = np.full(len(owner), k, dtype=np.int64)  # parts not yet placed
    vectors = np.zeros((len(owner), caps.shape[1]), dtype=dtype)
    for j in range(caps.shape[1]):
        lo = np.maximum(left - rest[owner, j], 0)
        n_child = np.minimum(caps[owner, j], left) - lo + 1
        # child c of a parent whose first child is row f takes x = lo + c - f
        x = np.arange(n_child.sum())
        x -= np.repeat(np.cumsum(n_child) - n_child - lo, n_child)
        vectors = np.repeat(vectors, n_child, axis=0)
        vectors[:, j] = x
        left = np.repeat(left, n_child)
        left -= x
        owner = np.repeat(owner, n_child)
    return vectors


def build_embedded(net: NetworkConfig, k_req: int, K: int) -> SparseState:
    """Selection state with quotas embedded per branch.

    Every K-subset S carries its full feasible quota set with amplitude
    1 / sqrt(C(m, K) * |Omega_S|), which keeps the outer marginal exactly
    uniform regardless of how |Omega_S| varies across subsets.

    Raises CapacityError when C(m, K) * max |Omega_S| exceeds the sparse
    guard, and InvariantViolationError when some subset has no feasible
    quota vector (the winner count is too small for this request).
    """
    if k_req < 1:
        raise ValueError(f"k_req must be >= 1, got {k_req}")
    if not 1 <= K <= net.m:
        raise ValueError(f"need 1 <= K <= m, got K={K}, m={net.m}")
    if net.total < k_req:
        raise ResourceShortageError(
            f"total capacity {net.total} cannot cover k_req={k_req}")
    n_subsets = math.comb(net.m, K)
    sizes = []
    max_size = 0
    # the count depends on the caps multiset only: size each one once
    counted: dict[tuple[int, ...], int] = {}
    for subset in itertools.combinations(range(net.m), K):
        caps = tuple(sorted(net.caps[i] for i in subset))
        size = counted.get(caps)
        if size is None:
            size = counted[caps] = count_partitions(k_req, caps)
        if size == 0:
            raise InvariantViolationError(
                f"subset {subset} has no feasible quota vector for "
                f"k_req={k_req}; winner count K={K} is too small")
        sizes.append(size)
        max_size = max(max_size, size)
        if n_subsets * max_size > MAX_SPARSE_OUTCOMES:
            raise CapacityError(
                f"C({net.m}, {K}) * max|Omega_S| = {n_subsets * max_size} "
                f"exceeds the {MAX_SPARSE_OUTCOMES} sparse guard; reduce m, "
                "K or k_req")
    subsets = np.array(list(itertools.combinations(range(net.m), K)),
                       dtype=np.int64)
    vectors = _enum_rows(k_req, np.asarray(net.caps)[subsets],
                         _int_dtype(0, k_req))
    sizes = np.array(sizes, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    if offsets[-1] != len(vectors):
        raise InvariantViolationError(
            f"enumerated {len(vectors)} quota vectors, counted {offsets[-1]}")
    amps = np.repeat(np.sqrt((1.0 / n_subsets) / sizes), sizes)
    return SparseState.from_arrays(subsets, offsets, vectors, amps)


def measure_many(state: SparseState, rng: np.random.Generator,
                 draws: int) -> dict[Outcome, int]:
    """Draw many outcomes at once; returns counts per label (zeros kept)."""
    counts = _sample_counts(state, rng, draws)
    return dict(zip(state.amplitudes, counts.tolist()))


def _sample_counts(state: SparseState, rng: np.random.Generator,
                   draws: int) -> np.ndarray:
    """measure_many without the labels: draws per label row.

    The counts, and the generator state after, are those of
    ``np.bincount(rng.choice(n, size=draws, p=probs), minlength=n)``.
    ``choice`` puts uniform u on the first label i with u < cdf[i], one
    binary search into the cdf per draw. Here the same uniforms, drawn in
    chunks, are sorted instead, and label i gets #{u < cdf[i]} -
    #{u < cdf[i - 1]} of them: one ordered pass of the cdf through each
    chunk.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    cdf = np.cumsum(_prob_array(state))
    cdf /= cdf[-1]
    below = np.zeros(len(cdf), dtype=np.int64)  # uniforms under each cdf[i]
    for done in range(0, draws, _DRAW_CHUNK):
        u = rng.random(min(_DRAW_CHUNK, draws - done))
        u.sort()
        below += np.searchsorted(u, cdf)
    return np.diff(below, prepend=0)


def _prob_array(state: SparseState) -> np.ndarray:
    """Normalized amp ** 2 per label row, the vector every draw uses.

    Squares come from Python's float ``**`` (libm pow), one call per run of
    equal amplitudes: pow and amp * amp differ in the last bit for some
    values, and pow fixes the sampled stream.
    """
    state.check_normalized()
    amps = state.amps
    starts = np.flatnonzero(np.append(True, amps[1:] != amps[:-1]))
    probs = np.repeat([a ** 2 for a in amps[starts].tolist()],
                      np.diff(np.append(starts, len(amps))))
    return probs / probs.sum()


def _exact_sum(values: np.ndarray) -> float:
    """``math.fsum(values)``, summed over runs of equal values.

    fsum is the correctly rounded exact sum, so a value v that fills c
    entries adds exactly c * v to it. A built state's squares hold one
    value per branch size, and this takes one rational product per
    distinct value instead of one fsum step per label. Non-finite values,
    and runs too short to pay for the products, go to fsum itself.
    """
    starts = np.flatnonzero(values[1:] != values[:-1]) + 1
    if 64 * len(starts) >= len(values):
        return math.fsum(values)
    heads, where = np.unique(values[np.append(0, starts)],
                             return_inverse=True)
    if not np.isfinite(heads).all():
        return math.fsum(values)
    runs = np.diff(np.append(0, starts), append=len(values))
    counts = np.bincount(where, weights=runs).astype(np.int64)
    from fractions import Fraction  # only verification sums this way

    return float(sum(Fraction(v) * c
                     for v, c in zip(heads.tolist(), counts.tolist())))


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
    """Per-node win probability if quotas were drawn from this state.

    Uniform-quota counterpart of the rounding-based chain: useful as a
    diagnostic for how much the deterministic rounding distorts fairness.
    Each QLAN's terms p * v / cap are added left to right in label order
    (``np.cumsum``), so the sums do not depend on numpy's pairwise
    reduction.
    """
    caps = np.array([int(c) for c in caps], dtype=np.int64)
    probs = np.square(state.amps)
    sizes = np.diff(state.offsets)
    qlan_prob = np.zeros(len(caps))
    for i in np.flatnonzero(caps > 0):
        owner, slot = np.nonzero(state.subsets == i)
        n = sizes[owner]
        if not n.sum():
            continue
        # the label rows of every subset holding QLAN i, in label order
        rows = np.arange(n.sum())
        rows += np.repeat(state.offsets[owner] - (np.cumsum(n) - n), n)
        terms = probs[rows]
        terms *= state.vectors[rows, np.repeat(slot, n)]
        terms /= caps[i]
        qlan_prob[i] = np.cumsum(terms, out=terms)[-1]
    return np.repeat(qlan_prob, caps)


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Statistical and structural checks of an embedded selection state."""

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
    jain_uniform: float
    significance: float
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures




def _label_violations(state: SparseState, net: NetworkConfig,
                      k_req: int, K: int) -> np.ndarray:
    """Mask of the label rows that are not a feasible (S, v) for k_req.

    A label is feasible when its subset has K distinct QLANs of the network
    in ascending order, and its vector has K entries 0 <= v <= cap summing
    to k_req.
    """
    subsets, vectors = state.subsets, state.vectors
    if subsets.shape[1] != K or vectors.shape[1] != K:
        return np.ones(len(vectors), dtype=bool)
    sound = (((subsets >= 0) & (subsets < net.m)).all(axis=1)
             & (np.diff(subsets, axis=1) > 0).all(axis=1))
    caps = np.asarray(net.caps)[np.where(sound[:, None], subsets, 0)]
    # a cap above the dtype's range bounds no representable v
    caps = np.minimum(caps, np.iinfo(vectors.dtype).max).astype(vectors.dtype)
    sizes = np.diff(state.offsets)
    ok = np.repeat(sound, sizes)
    ok &= vectors.sum(axis=1) == k_req
    ok &= (vectors >= 0).all(axis=1)
    ok &= (vectors <= np.repeat(caps, sizes, axis=0)).all(axis=1)
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

    bad_labels = _label_violations(state, net, k_req, K)
    support_violations = int(bad_labels.sum())
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
    drawn_violations = 0
    min_expected = float("inf")
    jain_u = float("nan")
    if not failures:
        counts = _sample_counts(state, rng, draws)
        drawn_violations = int(counts[bad_labels].sum())
        # zero-count cells stay in the branches or the dof would shrink
        branches = np.split(counts, state.offsets[1:-1])
        obs_outer = np.add.reduceat(counts, state.offsets[:-1])
        min_expected = draws / n_subsets
        outer_chi2, outer_p = _chisquare(obs_outer)
        outer_dof = n_subsets - 1
        if outer_p < significance:
            failures.append(
                f"outer uniformity rejected (p={outer_p:.4g} < {significance})")

        stat_sum = 0.0
        dof_sum = 0
        for obs in branches:
            total = obs.sum()
            if total == 0 or len(obs) < 2:
                continue
            # equals obs.mean() bit for bit: integer counts sum exactly
            mean = total / len(obs)
            min_expected = min(min_expected, mean)
            stat_sum += float(((obs - mean) ** 2 / mean).sum())
            dof_sum += len(obs) - 1
        pooled_chi2 = stat_sum
        pooled_dof = dof_sum
        pooled_p = _chi2_pvalue(stat_sum, dof_sum)
        if pooled_p < significance:
            failures.append(
                f"conditional uniformity rejected (p={pooled_p:.4g} < "
                f"{significance})")
        if drawn_violations:
            failures.append(f"{drawn_violations} drawn outcomes infeasible")
        jain_u = jain_index(node_win_probs(state, net.caps))

    return VerificationReport(
        n_subsets=n_subsets,
        n_outcomes=len(state.amps),
        draws=draws,
        norm_dev=norm_dev,
        marginal_max_dev=marginal_max_dev,
        conditional_max_dev=conditional_max_dev,
        support_violations=support_violations,
        drawn_violations=drawn_violations,
        outer_chi2=float(outer_chi2),
        outer_dof=outer_dof,
        outer_pvalue=float(outer_p),
        pooled_chi2=float(pooled_chi2),
        pooled_dof=pooled_dof,
        pooled_pvalue=float(pooled_p),
        min_expected_cell=float(min_expected),
        jain_uniform=jain_u,
        significance=significance,
        failures=failures,
    )
