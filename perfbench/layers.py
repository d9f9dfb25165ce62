"""Per-layer metrics of the traced run, derived from spans and from
``python -X importtime``.

``PER_LAYER`` is the list BENCHMARK.json declares, in the same order; a
traced run reports every name in it on every workload (a function the
workload never calls reads 0 calls and 0 s).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

# functions reported with both .calls and .self_s
_CALLS_AND_SELF = (
    "netgen.generate_network", "partition.safe_select_k",
    "partition.quota_round", "partition.count_partitions",
    "partition.enum_partitions", "analytics.evaluate_point",
    "lottery.simulate_batch", "lottery.run_trial", "lottery.sample_inner",
    "lottery.trial_rng", "lottery.estimate_fairness",
    "lottery.exact_node_probs", "qverify.build_embedded", "cli.main",
)
# functions reported with .self_s only
_SELF_ONLY = (
    "analytics.jain_index", "analytics.ecdf", "baselines.b1_evaluate",
    "baselines.b2_evaluate", "qverify.verify_state", "qverify.measure_many",
    "qverify.node_win_probs", "qverify.marginal_outer",
)
# (name, unit, better) beyond calls/self_s
_DERIVED = (
    ("partition.enum_partitions.vectors", "count", "lower"),
    ("lottery.simulate_batch.trials", "count", "higher"),
    ("lottery.simulate_batch.us_per_trial", "us", "lower"),
    ("lottery.simulate_batch.us_per_trial_m4", "us", "lower"),
    ("lottery.simulate_batch.us_per_trial_m32", "us", "lower"),
    ("lottery.run_trial.us_p50", "us", "lower"),
    ("lottery.run_trial.us_p99", "us", "lower"),
    ("lottery.estimate_fairness.us_per_trial", "us", "lower"),
    ("lottery.exact_node_probs.subsets", "count", "lower"),
    ("lottery.exact_node_probs.subsets_per_s", "1/s", "higher"),
    ("lottery.exact_node_probs.fallbacks", "count", "lower"),
    ("qverify.build_embedded.outcomes", "count", "lower"),
    ("qverify.verify_state.struct_failures", "count", "lower"),
    ("qverify.verify_state.chi2_rejects", "count", "lower"),
    ("qverify.measure_many.draws", "count", "higher"),
    ("cli.out_bytes", "B", "lower"),
    ("cli.shortage_rows", "count", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("import.scipy_stats_s", "s", "lower"),
    ("import.dheac_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.accounted_frac", "fraction", "higher"),
)

PER_LAYER = (
    [(f"{fn}.calls", "count", "lower") for fn in _CALLS_AND_SELF]
    + [(f"{fn}.self_s", "s", "lower") for fn in _CALLS_AND_SELF + _SELF_ONLY]
    + list(_DERIVED))
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Group ``-X importtime`` output into numpy, scipy and dheac shares.

    numpy and scipy count the cumulative time of their outermost entries,
    those with no numpy or scipy entry above them (everything each pulled
    in first, counted once). dheac imports scipy only for
    ``scipy.stats``, and scipy's lazy submodule loading logs no line for
    ``scipy.stats`` itself, so all outermost scipy entries make up
    import.scipy_stats_s. dheac counts the self time of its own modules.
    """
    entries = []  # (depth, self_us, cumulative_us, name), in log order
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        own, cum, column = line[len("import time:"):].split("|")
        if not own.strip().isdigit():
            continue  # the header line
        depth = (len(column) - len(column.lstrip()) - 1) // 2
        entries.append((depth, int(own), int(cum), column.strip()))
    totals = {"numpy": 0, "scipy": 0, "dheac": 0}
    # the log is post-order, so reading it backwards meets each parent
    # before its children
    ancestors: list[str] = []  # top-level package names above the entry
    for depth, own, cum, name in reversed(entries):
        del ancestors[depth:]
        top = name.split(".")[0]
        if top == "dheac":
            totals["dheac"] += own
        elif top in totals and not {"numpy", "scipy"} & set(ancestors):
            totals[top] += cum
        ancestors.append(top)
    return {"import.numpy_s": totals["numpy"] / 1e6,
            "import.scipy_stats_s": totals["scipy"] / 1e6,
            "import.dheac_s": totals["dheac"] / 1e6}


def _per_us(total_s: float, count: int) -> float:
    return total_s / count * 1e6 if count else 0.0


def from_spans(spans, *, traced_wall: float, traced_setup: float,
               overhead_frac: float) -> dict[str, float]:
    """Span-derived metrics: every PER_LAYER name except cli.out_bytes,
    cli.shortage_rows and import.*. traced_wall and traced_setup are
    wall-clock seconds like the spans; overhead_frac is passed through."""
    own = spans.self_times()
    dur = spans.durations()
    by_name: dict[str, list[int]] = defaultdict(list)
    for sid, name_id in enumerate(spans.name_of):
        by_name[spans.names[name_id]].append(sid)

    def extras(fn, key):
        return [spans.extras.get(sid, {}).get(key) for sid in by_name[fn]]

    out: dict[str, float] = {}
    for fn in _CALLS_AND_SELF:
        out[f"{fn}.calls"] = len(by_name[fn])
    for fn in _CALLS_AND_SELF + _SELF_ONLY:
        out[f"{fn}.self_s"] = math.fsum(own[sid] for sid in by_name[fn])

    out["partition.enum_partitions.vectors"] = sum(
        v or 0 for v in extras("partition.enum_partitions", "vectors"))

    batch = by_name["lottery.simulate_batch"]
    trials = extras("lottery.simulate_batch", "trials")
    ms = extras("lottery.simulate_batch", "m")
    out["lottery.simulate_batch.trials"] = sum(trials)
    out["lottery.simulate_batch.us_per_trial"] = _per_us(
        math.fsum(dur[sid] for sid in batch), sum(trials))
    for m in (4, 32):
        picked = [(sid, t) for sid, t, mm in zip(batch, trials, ms) if mm == m]
        out[f"lottery.simulate_batch.us_per_trial_m{m}"] = _per_us(
            math.fsum(dur[sid] for sid, _ in picked),
            sum(t for _, t in picked))

    trial_us = [dur[sid] * 1e6 for sid in by_name["lottery.run_trial"]]
    if len(trial_us) >= 2:
        pct = statistics.quantiles(trial_us, n=100)
        out["lottery.run_trial.us_p50"] = statistics.median(trial_us)
        out["lottery.run_trial.us_p99"] = pct[98]
    else:
        out["lottery.run_trial.us_p50"] = out["lottery.run_trial.us_p99"] = (
            trial_us[0] if trial_us else 0.0)

    out["lottery.estimate_fairness.us_per_trial"] = _per_us(
        math.fsum(dur[sid] for sid in by_name["lottery.estimate_fairness"]),
        sum(extras("lottery.estimate_fairness", "trials")))

    exact = by_name["lottery.exact_node_probs"]
    subsets = extras("lottery.exact_node_probs", "subsets")
    solved = [(sid, n) for sid, n in zip(exact, subsets) if n is not None]
    n_subsets = sum(n for _, n in solved)
    solved_s = math.fsum(dur[sid] for sid, _ in solved)
    out["lottery.exact_node_probs.subsets"] = n_subsets
    out["lottery.exact_node_probs.subsets_per_s"] = (
        n_subsets / solved_s if solved_s else 0.0)
    out["lottery.exact_node_probs.fallbacks"] = sum(
        1 for f in extras("lottery.exact_node_probs", "fallback") if f)

    out["qverify.build_embedded.outcomes"] = sum(
        v or 0 for v in extras("qverify.build_embedded", "outcomes"))
    out["qverify.verify_state.struct_failures"] = sum(
        1 for f in extras("qverify.verify_state", "struct_failure") if f)
    out["qverify.verify_state.chi2_rejects"] = sum(
        1 for f in extras("qverify.verify_state", "chi2_reject") if f)
    out["qverify.measure_many.draws"] = sum(
        v or 0 for v in extras("qverify.measure_many", "draws"))

    out["trace.overhead_frac"] = overhead_frac
    out["trace.accounted_frac"] = math.fsum(own) / (traced_wall - traced_setup)
    return out
