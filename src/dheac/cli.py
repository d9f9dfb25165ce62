"""Command line front end: grid sweeps, fairness scans, breakeven maps,
state verification and raw Monte-Carlo trial dumps.

Output files are plain CSV with leading '#' comment lines recording the
resolved configuration, seed and package version. Nothing volatile
(timestamps, host names, worker counts) goes into the output, so a run is
byte-for-byte reproducible from its command line, including under
--workers parallelism: every grid point derives its random stream from
(seed, point index) alone and rows are written in grid order regardless of
which process computed them.

Exit codes: 0 ok, 2 usage error or enumeration guard hit, 3 resource
shortage on single-point runs, 4 verification failure, 5 output I/O error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from . import __version__
from .analytics import (
    LATENCY_MODES,
    ModelParams,
    ancilla_bits,
    ecdf,
    evaluate_point,
    jain_index,
)
from .baselines import b1_evaluate, b2_evaluate
from .errors import CapacityError, InvariantViolationError, ResourceShortageError
from .lottery import (
    batch_stats,
    estimate_fairness,
    exact_node_probs,
    sample_rounds,
    trial_rng,
)
from .netgen import NetworkConfig, Request, demand_to_kreq, generate_network
from .partition import safe_select_k
from .qverify import SparseState, build_embedded, verify_state

GRID_MS = (4, 8, 16, 32)
GRID_QS = (0.01, 0.05, 0.10, 0.15)
GRID_DEMANDS = (0.10, 0.20, 0.40, 0.60)
GRID_SKEWS = (0.0, 0.5, 1.0, 1.5, 2.0)
BREAKEVEN_MS = (2, 4, 8, 16, 32, 64)
NODES_PER_QLAN = 10

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SHORTAGE = 3
EXIT_VERIFY = 4
EXIT_IO = 5

_AXIS_KEYS = ("ms", "qs", "demands", "skews", "nodes_per_qlan")
_PARAM_KEYS = ("t_gen", "t_dist", "t_meas", "t_ctl", "rounds", "beta",
               "max_attempts")
_INT_KEYS = ("ms", "nodes_per_qlan", "rounds", "max_attempts")

_FIGURE_MAP = """\
figure-data recipes:
  latency ratio heatmap over (m, q):   sweep --out data.csv --svg map.svg
  success bounds and latency curves:   sweep --mode both --out data.csv
  throughput break-even map:           breakeven --out ratios.csv --svg map.svg
  Jain vs skew / Jain vs demand:       fairness --out jain.csv
  per-node win probability ECDFs:      fairness --ecdf-out DIR
  selection-state uniformity report:   verify-quantum --m 4 --k-req 4
"""


@dataclass(frozen=True)
class SweepSpec:
    """Grid axes plus the constants shared by every point of a run."""

    ms: tuple[int, ...] = GRID_MS
    qs: tuple[float, ...] = GRID_QS
    demands: tuple[float, ...] = GRID_DEMANDS
    skews: tuple[float, ...] = GRID_SKEWS
    nodes_per_qlan: int = NODES_PER_QLAN
    params: ModelParams = ModelParams()


def _load_grid_file(path: str) -> dict:
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"grid file not found: {path}") from None
    if not isinstance(data, dict):
        raise ValueError(f"grid file {path} must hold a JSON object")
    known = set(_AXIS_KEYS) | set(_PARAM_KEYS)
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown grid keys {unknown}; known: {sorted(known)}")
    return data


def _number(key: str, value):
    """value as an int for the keys in _INT_KEYS, else as a float; a
    ValueError naming key unless it is a number, integral for an int key."""
    # bool is an int subclass, but JSON true is no number
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must hold numbers, got {value!r}")
    if key in _INT_KEYS and not (isinstance(value, int) or value.is_integer()):
        raise ValueError(f"{key} must hold integers, got {value!r}")
    try:
        return int(value) if key in _INT_KEYS else float(value)
    except OverflowError:
        raise ValueError(f"{key} holds {value!r}, out of range") from None


def _resolve_spec(args, default_ms=GRID_MS,
                  default_demands=GRID_DEMANDS) -> SweepSpec:
    """Defaults, then --grid JSON, then explicit flags, last one wins."""
    merged: dict = {"ms": default_ms, "qs": GRID_QS,
                    "demands": default_demands, "skews": GRID_SKEWS,
                    "nodes_per_qlan": NODES_PER_QLAN}
    merged.update({f.name: f.default for f in fields(ModelParams)
                   if f.name in _PARAM_KEYS})
    if getattr(args, "grid", None):
        merged.update(_load_grid_file(args.grid))
    for key in _AXIS_KEYS + _PARAM_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    axes = {}
    for key in ("ms", "qs", "demands", "skews"):
        values = merged[key]
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"{key} must be a list, got {values!r}")
        if not values:
            raise ValueError(f"{key} must hold at least one value")
        axes[key] = tuple(_number(key, v) for v in values)
    scalars = {key: _number(key, merged[key])
               for key in ("nodes_per_qlan",) + _PARAM_KEYS}
    return SweepSpec(**axes, nodes_per_qlan=scalars.pop("nodes_per_qlan"),
                     params=ModelParams(**scalars))


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _fmt_seq(values) -> str:
    return ",".join(format(v, "g") if isinstance(v, float) else str(v)
                    for v in values)


def _fmt_ints(values) -> str:
    """A list of ints as one CSV cell, ';'-separated."""
    return ";".join(map(str, values))


def _write_csv(dest: str, comments: list[str], fieldnames: list[str],
               rows) -> None:
    def emit(fh):
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name)) for name in fieldnames])

    if dest == "-":
        emit(sys.stdout)
    else:
        with open(dest, "w", newline="") as fh:
            emit(fh)


def _param_comment(params: ModelParams) -> str:
    return (f"t_gen={params.t_gen:g} t_dist={params.t_dist:g} "
            f"t_meas={params.t_meas:g} t_ctl={params.t_ctl:g} "
            f"rounds={params.rounds} beta={params.beta:g} "
            f"max_attempts={params.max_attempts}")


def _axes_comment(spec: SweepSpec) -> str:
    return (f"ms={_fmt_seq(spec.ms)} qs={_fmt_seq(spec.qs)} "
            f"demands={_fmt_seq(spec.demands)} skews={_fmt_seq(spec.skews)} "
            f"nodes_per_qlan={spec.nodes_per_qlan}")


def _add_param_flags(parser) -> None:
    parser.add_argument("--t-gen", dest="t_gen", type=float, default=None,
                        help="state generation time, ms")
    parser.add_argument("--t-dist", dest="t_dist", type=float, default=None,
                        help="per-attempt distribution time, ms")
    parser.add_argument("--t-meas", dest="t_meas", type=float, default=None,
                        help="measurement time, ms")
    parser.add_argument("--t-ctl", dest="t_ctl", type=float, default=None,
                        help="per-QLAN control message time, ms")
    parser.add_argument("--rounds", type=int, default=None,
                        help="arbitration rounds charged to the baseline")
    parser.add_argument("--beta", type=float, default=None,
                        help="over-provisioning margin for the winner count")
    parser.add_argument("--max-attempts", dest="max_attempts", type=int,
                        default=None, help="delivery attempts per pair")


def _add_axis_flags(parser, with_qs: bool = True,
                    with_skews: bool = True) -> None:
    parser.add_argument("--grid", default=None,
                        help="JSON file with grid axes and constants")
    parser.add_argument("--ms", type=_int_list, default=None,
                        help="comma list of QLAN counts")
    if with_qs:
        parser.add_argument("--qs", type=_float_list, default=None,
                            help="comma list of loss probabilities")
    parser.add_argument("--demands", type=_float_list, default=None,
                        help="comma list of demand fractions")
    if with_skews:
        parser.add_argument("--skews", type=_float_list, default=None,
                            help="comma list of capacity skew exponents")
    parser.add_argument("--nodes-per-qlan", dest="nodes_per_qlan", type=int,
                        default=None, help="total nodes = this * m")


_CONTEXT_FIELDS = ["mode", "status", "m", "q", "demand", "skew", "total",
                   "k_req", "K", "ell_anc", "k_max_b2"]
_ANALYTIC_FIELDS = {
    "optimistic": ["p_upper", "p_b2", "l_d_optimistic", "l_b2", "thr_upper",
                   "thr_b2", "ratio_l_optimistic", "ratio_thr_optimistic"],
    "conservative": ["p_lower", "p_b2", "l_d_conservative", "l_b2",
                     "thr_lower", "thr_b2", "ratio_l_conservative",
                     "ratio_thr_conservative"],
}
_MC_FIELDS = {
    "optimistic": ["trials", "seed", "mc_p_optimistic", "mc_p_optimistic_se",
                   "mc_l_optimistic", "mc_l_optimistic_se"],
    "conservative": ["trials", "seed", "mc_p_conservative",
                     "mc_p_conservative_se", "mc_l_conservative",
                     "mc_l_conservative_se"],
}


def _sweep_fieldnames(mode: str, chi: str) -> list[str]:
    chis = LATENCY_MODES if chi == "both" else (chi,)
    names = list(_CONTEXT_FIELDS)
    if mode in ("analytic", "both"):
        for c in chis:
            names += [f for f in _ANALYTIC_FIELDS[c] if f not in names]
    if mode in ("mc", "both"):
        for c in chis:
            names += [f for f in _MC_FIELDS[c] if f not in names]
    return names


def _analytic_row(rec) -> dict:
    """Closed-form columns of one point; breakeven picks its own subset."""
    return dict(
        K=rec.K,
        p_lower=rec.P_lower,
        p_upper=rec.P_upper,
        p_b2=rec.P_b2,
        l_d_optimistic=rec.L_d_optimistic,
        l_d_conservative=rec.L_d_conservative,
        l_b2=rec.L_b2,
        thr_lower=rec.THR_lower,
        thr_upper=rec.THR_upper,
        thr_b2=rec.THR_b2,
        ratio_l_optimistic=rec.L_d_optimistic / rec.L_b2,
        ratio_l_conservative=rec.L_d_conservative / rec.L_b2,
        ratio_thr_optimistic=rec.THR_b2 / rec.THR_upper,
        ratio_thr_conservative=rec.THR_b2 / rec.THR_lower,
    )


_AXIS_NAMES = {"ms": "m", "qs": "q", "demands": "demand", "skews": "skew"}


def _grid_rows(spec: SweepSpec, axes: tuple[str, ...], point_rows,
               workers: int = 1) -> list[dict]:
    """Rows of every grid point, points in the order of ``axes`` (outermost
    first), each point's rows in the order ``point_rows`` returns them.

    ``point_rows(idx, point, net, params)`` gets the point's index, its
    context (axis values, total, k_req, status), its network and the model
    constants at its q; the context is merged under each row it returns.
    It must be picklable (module level or a partial of one) when workers > 1.
    """
    names = [_AXIS_NAMES[axis] for axis in axes]
    tasks = [(point_rows, spec, idx, dict(zip(names, values)))
             for idx, values in enumerate(
                 itertools.product(*(getattr(spec, axis) for axis in axes)))]
    if workers > 1:
        # only a pool pays for the import
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(tasks) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_grid_point, tasks, chunksize=chunk))
    else:
        results = map(_grid_point, tasks)
    return [row for rows in results for row in rows]


def _grid_point(task) -> list[dict]:
    """All rows of one grid point; module level so pools can pickle it.

    demand_to_kreq keeps k_req <= total, so no point is short of capacity.
    """
    point_rows, spec, idx, point = task
    m = point["m"]
    net = generate_network(m, point["skew"], spec.nodes_per_qlan * m)
    point.update(status="ok", total=net.total,
                 k_req=demand_to_kreq(point["demand"], net.total))
    params = spec.params.with_q(point["q"]) if "q" in point else spec.params
    return [point | row for row in point_rows(idx, point, net, params)]


def _sweep_rows(mode, chi, trials, seed, idx, point, net, params):
    k_req = point["k_req"]
    rec = evaluate_point(net.caps, k_req, params)
    context = dict(K=rec.K, ell_anc=rec.ell_anc, k_max_b2=rec.k_max_b2)
    rows = []
    if mode in ("analytic", "both"):
        rows.append(context | _analytic_row(rec) | {"mode": "analytic"})
    if mode in ("mc", "both"):
        req = Request(k_req)
        chis = LATENCY_MODES if chi == "both" else (chi,)
        row = dict(context, mode="mc", trials=trials, seed=seed)
        # both accountings read the same rounds; chi only picks columns
        stats = batch_stats(net, req, params, trials, trial_rng(seed, idx))
        for lmode in chis:
            row[f"mc_p_{lmode}"] = stats[lmode].success_rate
            row[f"mc_p_{lmode}_se"] = stats[lmode].success_se
            row[f"mc_l_{lmode}"] = stats[lmode].latency_mean
            row[f"mc_l_{lmode}_se"] = stats[lmode].latency_se
        rows.append(row)
    return rows


def _cmd_sweep(args) -> int:
    spec = _resolve_spec(args)
    rows = _grid_rows(spec, ("ms", "qs", "demands", "skews"),
                      partial(_sweep_rows, args.mode, args.chi, args.trials,
                              args.seed),
                      workers=args.workers)
    comments = [f"dheac {__version__} sweep",
                f"mode={args.mode} chi={args.chi} seed={args.seed} "
                f"trials={args.trials}",
                _axes_comment(spec), _param_comment(spec.params),
                "times in ms, thr in grants per ms"]
    _write_csv(args.out, comments, _sweep_fieldnames(args.mode, args.chi),
               rows)
    if args.svg:
        _ratio_svg(args.svg, spec, rows, "ratio_l_optimistic",
                   "latency ratio, lottery / arbitration (optimistic)")
    return EXIT_OK


def _blend(far, t: float) -> str:
    rgb = tuple(round(255 + (c - 255) * t) for c in far)
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _ratio_color(value, lo: float, hi: float) -> str:
    # diverging ramp centred on 1: blue when the lottery wins, red when
    # the classical baseline does
    if value is None:
        return "#cccccc"
    if value <= 1.0:
        t = 0.0 if lo >= 1.0 else min(1.0, (1.0 - value) / (1.0 - lo))
        return _blend((33, 102, 172), t)
    t = 0.0 if hi <= 1.0 else min(1.0, (value - 1.0) / (hi - 1.0))
    return _blend((178, 24, 43), t)


def _ratio_svg(path: str, spec: SweepSpec, rows: list[dict], key: str,
               title: str) -> None:
    """Heatmap of one ratio column over (m, q) at the first demand and skew
    of the grid; mc rows carry no ratio and are skipped."""
    demand, skew = spec.demands[0], spec.skews[0]
    cell = {(r["m"], r["q"]): r[key] for r in rows
            if key in r and r["demand"] == demand and r["skew"] == skew}
    values = [[cell.get((m, q)) for m in spec.ms] for q in spec.qs]
    title = f"{title}, demand={demand:g}, skew={skew:g}"
    cw, ch = 86, 42
    left, top = 96, 64
    width = left + cw * len(spec.ms) + 24
    height = top + ch * len(spec.qs) + 56
    finite = [v for row in values for v in row if v is not None]
    lo = min(finite, default=1.0)
    hi = max(finite, default=1.0)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="12">',
        f'<text x="{left}" y="22">{title}</text>',
        f'<text x="{left}" y="{top - 26}">m (QLANs)</text>',
        f'<text x="12" y="{top - 8}">loss q</text>',
    ]
    for c, m in enumerate(spec.ms):
        out.append(f'<text x="{left + c * cw + cw // 2 - 8}" '
                   f'y="{top - 8}">{m}</text>')
    for r, q in enumerate(spec.qs):
        y = top + r * ch
        out.append(f'<text x="12" y="{y + ch // 2 + 4}">{q:g}</text>')
        for c, value in enumerate(values[r]):
            x = left + c * cw
            color = _ratio_color(value, lo, hi)
            out.append(f'<rect x="{x}" y="{y}" width="{cw - 2}" '
                       f'height="{ch - 2}" fill="{color}" stroke="#444"/>')
            text = "n/a" if value is None else format(value, ".3g")
            out.append(f'<text x="{x + 6}" y="{y + ch // 2 + 4}">{text}</text>')
    out.append(f'<text x="{left}" y="{height - 16}">blue: lottery faster, '
               f'red: baseline faster; range [{lo:.3g}, {hi:.3g}]</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


FAIRNESS_FIELDS = ["status", "m", "demand", "skew", "total", "k_req", "K",
                   "method", "trials", "jain", "p_min", "p_max"]


def _fairness_rows(args, idx, point, net, params):
    req = Request(point["k_req"])
    K = safe_select_k(req.k_req, net.caps, params.beta)
    method, trials = "mc", args.trials
    if args.method in ("auto", "exact"):
        try:
            probs = exact_node_probs(net, req, beta=params.beta,
                                     max_subsets=args.max_subsets)
            method, trials = "exact", None
        except CapacityError:
            if args.method == "exact":
                raise
    if method == "mc":
        probs = estimate_fairness(net, req, args.trials,
                                  trial_rng(args.seed, idx), beta=params.beta)
    # probs is no CSV column; the ECDF files read it
    return [dict(K=K, method=method, trials=trials, jain=jain_index(probs),
                 p_min=float(probs.min()), p_max=float(probs.max()),
                 probs=probs)]


def _cmd_fairness(args) -> int:
    spec = _resolve_spec(args)
    if args.trials < 10 ** 4:
        print(f"warning: {args.trials} trials is below the recommended 10^4",
              file=sys.stderr)
    rows = _grid_rows(spec, ("ms", "demands", "skews"),
                      partial(_fairness_rows, args))
    comments = [
        f"dheac {__version__} fairness",
        f"method={args.method} seed={args.seed} trials={args.trials} "
        f"max_subsets={args.max_subsets}",
        f"ms={_fmt_seq(spec.ms)} demands={_fmt_seq(spec.demands)} "
        f"skews={_fmt_seq(spec.skews)} nodes_per_qlan={spec.nodes_per_qlan}",
        _param_comment(spec.params),
        "win probabilities per request, loss-free lottery chain",
    ]
    _write_csv(args.out, comments, FAIRNESS_FIELDS, rows)
    if args.ecdf_out:
        os.makedirs(args.ecdf_out, exist_ok=True)
        ecdf_rows = [r for r in rows if r["m"] == 16 and r["demand"] == 0.40]
        for r in ecdf_rows:
            m, demand, skew = r["m"], r["demand"], r["skew"]
            name = f"ecdf_m{m}_demand{demand:g}_skew{skew:g}.csv"
            _write_csv(os.path.join(args.ecdf_out, name),
                       [f"dheac {__version__} fairness ecdf",
                        f"m={m} demand={demand:g} skew={skew:g}"],
                       ["win_prob", "cum_fraction"],
                       [{"win_prob": v, "cum_fraction": c}
                        for v, c in ecdf(r["probs"])])
        if not ecdf_rows and args.out != "-":
            print("no (m=16, demand=0.4) points in the grid; "
                  "no ecdf files written")
    return EXIT_OK


BREAKEVEN_FIELDS = ["status", "q", "demand", "skew", "m", "total", "k_req",
                    "K", "thr_upper", "thr_lower", "thr_b2",
                    "ratio_thr_optimistic", "ratio_thr_conservative",
                    "ratio_l_optimistic", "ratio_l_conservative"]


def _breakeven_rows(idx, point, net, params):
    return [_analytic_row(evaluate_point(net.caps, point["k_req"], params))]


def _cmd_breakeven(args) -> int:
    spec = replace(_resolve_spec(args, default_ms=BREAKEVEN_MS,
                                 default_demands=(0.40,)),
                   skews=(args.skew,))
    rows = _grid_rows(spec, ("qs", "demands", "skews", "ms"), _breakeven_rows)
    comments = [f"dheac {__version__} breakeven",
                f"skew={args.skew:g} ms={_fmt_seq(spec.ms)} "
                f"qs={_fmt_seq(spec.qs)} demands={_fmt_seq(spec.demands)} "
                f"nodes_per_qlan={spec.nodes_per_qlan}",
                _param_comment(spec.params),
                "ratio_thr_* = baseline throughput / lottery throughput; "
                "values < 1 favour the lottery"]
    _write_csv(args.out, comments, BREAKEVEN_FIELDS, rows)
    if args.svg:
        _ratio_svg(args.svg, spec, rows, "ratio_thr_optimistic",
                   "throughput ratio, baseline / lottery (optimistic)")
    if args.out != "-":
        _print_breakeven_summary(spec, rows)
    return EXIT_OK


def _print_breakeven_summary(spec: SweepSpec, rows: list[dict]) -> None:
    for q in spec.qs:
        for demand in spec.demands:
            group = [r for r in rows if r["q"] == q and r["demand"] == demand]
            parts = []
            for mode, key in (("optimistic", "ratio_thr_optimistic"),
                              ("conservative", "ratio_thr_conservative")):
                hit = next((r["m"] for r in group if r[key] < 1.0), None)
                parts.append(f"{mode}: "
                             + (f"m >= {hit}" if hit else "not reached"))
            print(f"q={q:g} demand={demand:g}  " + "; ".join(parts))


def _build_network(args) -> NetworkConfig:
    if args.caps is not None:
        return NetworkConfig.from_caps(args.caps, skew=args.skew)
    if args.m is None:
        raise ValueError("either --caps or --m is required")
    total = args.total if args.total is not None else NODES_PER_QLAN * args.m
    return generate_network(args.m, args.skew, total)


def _resolve_k_req(args, net: NetworkConfig) -> int:
    if (args.k_req is None) == (args.demand is None):
        raise ValueError("exactly one of --k-req and --demand is required")
    if args.k_req is not None:
        return args.k_req
    return demand_to_kreq(args.demand, net.total)


def _single_point_params(args) -> ModelParams:
    params = ModelParams()
    updates = {key: getattr(args, key) for key in _PARAM_KEYS
               if getattr(args, key, None) is not None}
    if getattr(args, "q", None) is not None:
        updates["q"] = args.q
    return replace(params, **updates)


def _cmd_verify_quantum(args) -> int:
    net = _build_network(args)
    k_req = _resolve_k_req(args, net)
    params = _single_point_params(args)
    K = safe_select_k(k_req, net.caps, params.beta)
    state = build_embedded(net, k_req, K)
    if args.corrupt:
        # test hook: damage one amplitude so every invariant check trips
        amps = state.amps.copy()
        amps[0] *= 1.05
        state = SparseState.from_arrays(state.subsets, state.offsets,
                                        state.vectors, amps)
    report = verify_state(state, net, k_req, K, args.draws,
                          trial_rng(args.seed), significance=args.alpha)

    print(f"state: m={net.m} K={K} k_req={k_req} subsets={report.n_subsets} "
          f"outcomes={report.n_outcomes} draws={report.draws}")
    print(f"norm deviation: {report.norm_dev:.3e}")
    print(f"outer marginal max deviation: {report.marginal_max_dev:.3e}")
    print(f"conditional max deviation: {report.conditional_max_dev:.3e}")
    print(f"feasibility violations: support={report.support_violations} "
          f"drawn={report.drawn_violations}")
    print(f"outer uniformity: chi2={report.outer_chi2:.4g} "
          f"dof={report.outer_dof} p={report.outer_pvalue:.4g}")
    print(f"conditional uniformity (pooled): chi2={report.pooled_chi2:.4g} "
          f"dof={report.pooled_dof} p={report.pooled_pvalue:.4g}")
    print(f"min expected cell count: {report.min_expected_cell:.4g}")
    print(f"fairness if quotas were uniform: jain={report.jain_uniform:.6g}")
    try:
        rounded = jain_index(exact_node_probs(
            net, Request(k_req), beta=params.beta))
        print(f"fairness of the rounding chain:  jain={rounded:.6g}")
    except CapacityError:
        print("fairness of the rounding chain:  skipped (too many subsets)")
    if args.json:
        import json

        # the statistics a structural failure left unsampled are NaN (inf
        # for min_expected_cell); strict JSON has null for them
        payload = {f.name: getattr(report, f.name)
                   for f in fields(report)} | {"passed": report.passed}
        payload = {key: None if isinstance(value, float)
                   and not math.isfinite(value) else value
                   for key, value in payload.items()}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    if report.passed:
        print("result: PASS")
        return EXIT_OK
    print("result: FAIL  (" + "; ".join(report.failures) + ")")
    return EXIT_VERIFY


MC_FIELDS = ["trial", "succeeded", "attempts_total", "latency", "winners",
             "quotas"]


def _cmd_mc(args) -> int:
    net = _build_network(args)
    k_req = _resolve_k_req(args, net)
    params = _single_point_params(args)
    req = Request(k_req)
    rec = evaluate_point(net.caps, k_req, params)

    n_ok = 0
    lat_sum = 0.0
    # checked before the output is opened; the blocks are drawn as rows go out
    rounds = sample_rounds(net, req, params, args.trials, trial_rng(args.seed))
    acct = LATENCY_MODES.index(args.chi)

    def rows():
        nonlocal n_ok, lat_sum
        done = 0
        for arrangement, quotas, ok, attempts, lat in rounds:
            ok, attempts, lat = ok[acct], attempts[acct], lat[acct]
            n_ok += int(ok.sum())
            lat_sum += float(lat.sum())
            # winners in ascending order, each quota moved with its winner
            order = np.argsort(arrangement, axis=1)
            columns = (range(done, done + len(lat)), ok.tolist(),
                       attempts.tolist(), lat.tolist(),
                       map(_fmt_ints, np.take_along_axis(
                           arrangement, order, axis=1).tolist()),
                       map(_fmt_ints, np.take_along_axis(
                           quotas, order, axis=1).tolist()))
            done += len(lat)
            yield from (dict(zip(MC_FIELDS, row)) for row in zip(*columns))

    comments = [f"dheac {__version__} mc",
                f"chi={args.chi} seed={args.seed} trials={args.trials}",
                f"m={net.m} skew={net.skew:g} total={net.total} "
                f"caps={_fmt_seq(net.caps)} k_req={k_req} K={rec.K}",
                _param_comment(params) + f" q={params.q:g}"]
    _write_csv(args.out, comments, MC_FIELDS, rows())

    if args.out != "-":
        rate = n_ok / args.trials
        print(f"success rate: {rate:.6g} over {args.trials} trials "
              f"(analytic band [{rec.P_lower:.6g}, {rec.P_upper:.6g}])")
        print(f"mean latency: {lat_sum / args.trials:.6g} ms "
              f"(analytic optimistic {rec.L_d_optimistic:.6g}, "
              f"conservative {rec.L_d_conservative:.6g})")
        b1 = b1_evaluate(net, req, params)
        if b1.applicable:
            print(f"baseline b1: success={b1.p_success:.6g} "
                  f"latency={b1.latency:.6g} ms")
        else:
            print(f"baseline b1: not applicable "
                  f"(largest QLAN {max(net.caps)} < k_req {k_req})")
        b2 = b2_evaluate(net, req, params)
        print(f"baseline b2: success={b2.p_success:.6g} "
              f"latency={b2.latency:.6g} ms")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dheac",
        description="Two-layer entanglement lottery: sweeps, fairness, "
                    "verification and Monte-Carlo runs.",
        epilog=_FIGURE_MAP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"dheac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="closed-form (and optional MC) metrics "
                                     "over the evaluation grid")
    _add_axis_flags(p)
    _add_param_flags(p)
    p.add_argument("--mode", choices=("analytic", "mc", "both"),
                   default="analytic")
    p.add_argument("--chi", choices=LATENCY_MODES + ("both",), default="both",
                   help="which outer-payload accounting columns to emit")
    p.add_argument("--trials", type=int, default=20000,
                   help="MC trials per point (both accountings read the same "
                        "rounds)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workers", type=int, default=1,
                   help="process pool size; output bytes do not depend on it")
    p.add_argument("--out", default="-", help="CSV path, - for stdout")
    p.add_argument("--svg", default=None,
                   help="also write a latency-ratio heatmap here")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fairness", help="per-node win probabilities and "
                                        "Jain index across the grid")
    _add_axis_flags(p, with_qs=False)
    _add_param_flags(p)
    p.add_argument("--method", choices=("auto", "exact", "mc"),
                   default="auto",
                   help="exact enumeration over capacity classes, "
                        "sampling, or exact with sampling fallback")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--max-subsets", dest="max_subsets", type=int,
                   default=10 ** 6,
                   help="largest C(m, K) winner-subset count the exact "
                        "method takes on")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="-")
    p.add_argument("--ecdf-out", dest="ecdf_out", default=None,
                   help="directory for per-node win-probability ECDF files "
                        "(written for m=16, demand=0.4 points)")
    p.set_defaults(func=_cmd_fairness)

    p = sub.add_parser("breakeven", help="throughput ratio map over (m, q)")
    _add_axis_flags(p, with_skews=False)
    _add_param_flags(p)
    p.add_argument("--skew", type=float, default=1.0)
    p.add_argument("--out", default="-")
    p.add_argument("--svg", default=None,
                   help="also write a throughput-ratio heatmap here")
    p.set_defaults(func=_cmd_breakeven)

    p = sub.add_parser("verify-quantum",
                       help="build the selection state and check its "
                            "marginals, conditionals and feasibility")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--skew", type=float, default=0.0)
    p.add_argument("--total", type=int, default=None,
                   help="total nodes, default 10*m")
    p.add_argument("--caps", type=_int_list, default=None,
                   help="explicit capacities, overrides --m/--total")
    p.add_argument("--k-req", dest="k_req", type=int, default=None)
    p.add_argument("--demand", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--draws", type=int, default=200000)
    p.add_argument("--alpha", type=float, default=0.01,
                   help="significance for the uniformity tests")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--json", default=None, help="write the report here")
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_verify_quantum)

    p = sub.add_parser("mc", help="raw Monte-Carlo trial dump at one point")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--skew", type=float, default=0.0)
    p.add_argument("--total", type=int, default=None)
    p.add_argument("--caps", type=_int_list, default=None)
    p.add_argument("--k-req", dest="k_req", type=int, default=None)
    p.add_argument("--demand", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    _add_param_flags(p)
    p.add_argument("--chi", choices=LATENCY_MODES, default="conservative",
                   help="outer-payload accounting for this dump")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="-", help="CSV path, - for stdout")
    p.set_defaults(func=_cmd_mc)

    return parser


def _check_run_flags(args) -> None:
    """Flags that numpy or the pool would refuse only mid-run, or not at all;
    checked before any output is opened."""
    for flag in ("workers", "trials", "draws", "max_subsets"):
        if getattr(args, flag, 1) < 1:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= 1, "
                             f"got {getattr(args, flag)}")
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if not 0.0 < getattr(args, "alpha", 0.5) < 1.0:
        raise ValueError(f"--alpha must lie in (0, 1), got {args.alpha}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_run_flags(args)
        return args.func(args)
    except ResourceShortageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHORTAGE
    except (CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
