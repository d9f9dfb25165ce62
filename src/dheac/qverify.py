"""Sparse simulation of the measurement-based winner/quota encoding.

The protocol's selection state is, up to local unitaries, a superposition
over labels (S, v): S a K-subset of QLANs and v a feasible quota vector for
S. Amplitudes are uniform over subsets and, within each subset branch,
uniform over its feasible quota vectors, so a single measurement draws the
winner set uniformly and a quota vector uniformly conditioned on it. This
module builds that state explicitly over its (sparse) support, measures it,
and checks the structural invariants a faithful preparation must satisfy.

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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc

from .analytics import jain_index
from .errors import CapacityError, InvariantViolationError, ResourceShortageError
from .netgen import NetworkConfig
from .partition import count_partitions, enum_partitions

# (winner subset, quota vector); the quota vector is empty for bare
# subset-selection states
Outcome = tuple[tuple[int, ...], tuple[int, ...]]

MAX_DICKE_WIDTH = 20
MAX_SPARSE_OUTCOMES = 10 ** 6
NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SparseState:
    """Amplitude map over outcome labels; probabilities are amplitude^2."""

    amplitudes: dict[Outcome, float]

    def norm_sq(self) -> float:
        return math.fsum(a * a for a in self.amplitudes.values())

    def check_normalized(self, tol: float = NORM_TOL) -> None:
        norm = self.norm_sq()
        if abs(norm - 1.0) > tol:
            raise InvariantViolationError(
                f"state norm^2 deviates from 1 by {abs(norm - 1.0):.3e}")

    def outcomes(self) -> list[Outcome]:
        return sorted(self.amplitudes)


def build_dicke(m: int, K: int) -> SparseState:
    """Bare selection state: equal weight on every K-subset of m QLANs."""
    if not 1 <= K <= m:
        raise ValueError(f"need 1 <= K <= m, got K={K}, m={m}")
    if m > MAX_DICKE_WIDTH:
        raise CapacityError(f"m={m} exceeds the m <= {MAX_DICKE_WIDTH} guard")
    amp = 1.0 / math.sqrt(math.comb(m, K))
    amplitudes = {(subset, ()): amp
                  for subset in itertools.combinations(range(m), K)}
    return SparseState(amplitudes)


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
    max_size = 0
    for subset in itertools.combinations(range(net.m), K):
        size = count_partitions(k_req, tuple(net.caps[i] for i in subset))
        if size == 0:
            raise InvariantViolationError(
                f"subset {subset} has no feasible quota vector for "
                f"k_req={k_req}; winner count K={K} is too small")
        max_size = max(max_size, size)
        if n_subsets * max_size > MAX_SPARSE_OUTCOMES:
            raise CapacityError(
                f"C({net.m}, {K}) * max|Omega_S| = {n_subsets * max_size} "
                f"exceeds the {MAX_SPARSE_OUTCOMES} sparse guard; reduce m, "
                "K or k_req")
    amplitudes: dict[Outcome, float] = {}
    outer_amp_sq = 1.0 / n_subsets
    for subset in itertools.combinations(range(net.m), K):
        omega = enum_partitions(k_req, tuple(net.caps[i] for i in subset))
        amp = math.sqrt(outer_amp_sq / len(omega))
        for vec in omega:
            amplitudes[(subset, vec)] = amp
    return SparseState(amplitudes)


def measure(state: SparseState, rng: np.random.Generator) -> Outcome:
    """Draw a single outcome label with probability amplitude^2."""
    keys = state.outcomes()
    probs = _prob_array(state, keys)
    idx = rng.choice(len(keys), p=probs)
    return keys[int(idx)]


def measure_many(state: SparseState, rng: np.random.Generator,
                 draws: int) -> dict[Outcome, int]:
    """Draw many outcomes at once; returns counts per label (zeros kept)."""
    keys, counts = _sample_counts(state, rng, draws)
    return dict(zip(keys, counts.tolist()))


def _sample_counts(state: SparseState, rng: np.random.Generator,
                   draws: int) -> tuple[list[Outcome], np.ndarray]:
    """measure_many without the per-label dict: sorted labels and the
    number of draws that landed on each."""
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    keys = state.outcomes()
    probs = _prob_array(state, keys)
    idx = rng.choice(len(keys), size=draws, p=probs)
    return keys, np.bincount(idx, minlength=len(keys))


def _prob_array(state: SparseState, keys: list[Outcome]) -> np.ndarray:
    state.check_normalized()
    amps = state.amplitudes
    probs = np.fromiter((amps[k] ** 2 for k in keys), dtype=float,
                        count=len(keys))
    return probs / probs.sum()


def _branch_stats(state: SparseState
                  ) -> tuple[dict[tuple[int, ...], float], float]:
    """Outer marginal, and the largest deviation of any conditional from
    uniform; the per-label probabilities are freed on return.

    Each branch is summed exactly: a branch can hold ~10^6 terms, and plain
    + drifts past NORM_TOL on a correctly normalized state.
    """
    branches: dict[tuple[int, ...], list[float]] = {}
    for (subset, _vec), amp in state.amplitudes.items():
        branches.setdefault(subset, []).append(amp * amp)
    marg: dict[tuple[int, ...], float] = {}
    conditional_max_dev = 0.0
    for subset, probs in branches.items():
        total = math.fsum(probs)
        flat = 1.0 / len(probs)
        dev = max(abs(p / total - flat) for p in probs)
        conditional_max_dev = max(conditional_max_dev, dev)
        marg[subset] = total
    return marg, conditional_max_dev


def marginal_outer(state: SparseState) -> dict[tuple[int, ...], float]:
    """Distribution over winner subsets after tracing out the quotas."""
    return _branch_stats(state)[0]


def conditional_inner(state: SparseState,
                      subset: tuple[int, ...]) -> dict[tuple[int, ...], float]:
    """Distribution over quota vectors conditioned on a winner subset."""
    subset = tuple(subset)
    branch = {vec: amp * amp for (s, vec), amp in state.amplitudes.items()
              if s == subset}
    if not branch:
        raise ValueError(f"subset {subset} is not in the state's support")
    total = math.fsum(branch.values())
    return {vec: p / total for vec, p in branch.items()}


def node_win_probs(state: SparseState, caps) -> np.ndarray:
    """Per-node win probability if quotas were drawn from this state.

    Uniform-quota counterpart of the rounding-based chain: useful as a
    diagnostic for how much the deterministic rounding distorts fairness.
    """
    caps = tuple(int(c) for c in caps)
    qlan_prob = [0.0] * len(caps)
    for (subset, vec), amp in state.amplitudes.items():
        p = amp * amp
        for i, v in zip(subset, vec):
            if caps[i] > 0:
                qlan_prob[i] += p * v / caps[i]
    out = np.empty(sum(caps), dtype=float)
    pos = 0
    for i, c in enumerate(caps):
        out[pos:pos + c] = qlan_prob[i]
        pos += c
    return out


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
                      k_req: int, K: int) -> set[Outcome]:
    # subset checks run once per subset; None marks an invalid subset
    subset_caps: dict[tuple[int, ...], tuple[int, ...] | None] = {}
    bad = set()
    for (subset, vec) in state.amplitudes:
        if subset not in subset_caps:
            valid = (len(subset) == K
                     and all(0 <= i < net.m for i in subset)
                     and list(subset) == sorted(set(subset)))
            subset_caps[subset] = (tuple(net.caps[i] for i in subset)
                                   if valid else None)
        caps = subset_caps[subset]
        ok = (caps is not None
              and len(vec) == K
              and sum(vec) == k_req
              and all(0 <= v <= c for v, c in zip(vec, caps)))
        if not ok:
            bad.add((subset, vec))
    return bad


def _chisquare(obs: np.ndarray) -> tuple[float, float]:
    """Pearson's chi-square against equal cell counts, and its p-value."""
    stat = float(((obs - obs.mean()) ** 2 / obs.mean()).sum())
    return stat, float(chdtrc(len(obs) - 1, stat))


def verify_state(state: SparseState, net: NetworkConfig, k_req: int, K: int,
                 draws: int, rng: np.random.Generator,
                 significance: float = 0.01) -> VerificationReport:
    """Full check battery: normalization, uniform marginals, feasibility.

    The outer statistic tests uniformity over winner subsets; per-subset
    conditional statistics are pooled (their sum is chi-square with summed
    degrees of freedom given the subset counts) and tested once, which
    keeps the false-alarm rate at the chosen significance independent of
    how many subsets the state has.
    """
    failures: list[str] = []
    norm_dev = abs(state.norm_sq() - 1.0)
    if norm_dev > NORM_TOL:
        failures.append(f"norm^2 deviates from 1 by {norm_dev:.3e}")

    bad_labels = _label_violations(state, net, k_req, K)
    if bad_labels:
        failures.append(f"{len(bad_labels)} infeasible labels in support")

    marg, conditional_max_dev = _branch_stats(state)
    n_subsets = math.comb(net.m, K)
    uniform = 1.0 / n_subsets
    marginal_max_dev = max(abs(p - uniform) for p in marg.values())
    if len(marg) != n_subsets:
        failures.append(
            f"support covers {len(marg)} of {n_subsets} subsets")
        marginal_max_dev = max(marginal_max_dev, uniform)
    if marginal_max_dev > NORM_TOL:
        failures.append(
            f"outer marginal deviates from uniform by {marginal_max_dev:.3e}")

    if conditional_max_dev > NORM_TOL:
        failures.append(
            f"some conditional deviates from uniform by "
            f"{conditional_max_dev:.3e}")

    outer_chi2 = outer_p = pooled_chi2 = pooled_p = float("nan")
    outer_dof = pooled_dof = 0
    drawn_violations = 0
    min_expected = float("inf")
    jain_u = float("nan")
    if not failures:
        keys, counts = _sample_counts(state, rng, draws)
        drawn_violations = sum(int(counts[bisect.bisect_left(keys, key)])
                               for key in bad_labels)
        # keys are sorted, so each subset's labels form one slice of counts;
        # zero-count cells must stay in the slices or the dof would shrink
        starts = [i for i, (subset, _vec) in enumerate(keys)
                  if i == 0 or subset != keys[i - 1][0]]
        branches = [counts[a:b] for a, b in zip(starts, starts[1:] + [len(keys)])]
        obs_outer = np.array([obs.sum() for obs in branches])
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
            min_expected = min(min_expected, total / len(obs))
            stat_sum += _chisquare(obs)[0]
            dof_sum += len(obs) - 1
        pooled_chi2 = stat_sum
        pooled_dof = dof_sum
        pooled_p = float(chdtrc(dof_sum, stat_sum)) if dof_sum else 1.0
        if pooled_p < significance:
            failures.append(
                f"conditional uniformity rejected (p={pooled_p:.4g} < "
                f"{significance})")
        if drawn_violations:
            failures.append(f"{drawn_violations} drawn outcomes infeasible")
        jain_u = jain_index(node_win_probs(state, net.caps))

    return VerificationReport(
        n_subsets=n_subsets,
        n_outcomes=len(state.amplitudes),
        draws=draws,
        norm_dev=norm_dev,
        marginal_max_dev=marginal_max_dev,
        conditional_max_dev=conditional_max_dev,
        support_violations=len(bad_labels),
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
