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
import itertools
import math
import os
import sys
from dataclasses import fields, replace
from functools import cache, partial

import numpy as np

from . import __version__
from .analytics import (
    LATENCY_MODES,
    ModelParams,
    ecdf,
    evaluate_point,
    jain_index,
)
from .baselines import b1_evaluate, b2_evaluate
from .errors import CapacityError, InvariantViolationError, ResourceShortageError
from .lottery import (
    MAX_SUBSETS,
    batch_stats,
    estimate_fairness,
    exact_node_probs,
    sample_rounds,
    trial_rng,
)
from .netgen import (NetworkConfig, Request, check_network_size,
                     demand_to_kreq, generate_network)
from .partition import _pieces, safe_select_k
from .qverify import MAX_DRAWS, build_embedded, verify_state

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

MAX_WORKERS = 256  # a pool forks all its workers at once

# each grid command's axis flags, in the order of its '#' axes comment;
# breakeven has one skew and writes its rows q-major
SWEEP_AXES = ("ms", "qs", "demands", "skews")
FAIRNESS_AXES = ("ms", "demands", "skews")
BREAKEVEN_AXES = ("skew", "ms", "qs", "demands")
BREAKEVEN_ROWS = ("qs", "demands", "skew", "ms")

_PARAM_KEYS = ("t_gen", "t_dist", "t_meas", "t_ctl", "rounds", "beta",
               "max_attempts")

_FIGURE_MAP = """\
figure-data recipes:
  latency ratio heatmap over (m, q):   sweep --out data.csv --svg map.svg
  success bounds and latency curves:   sweep --mode both --out data.csv
  throughput break-even map:           breakeven --out ratios.csv --svg map.svg
  Jain vs skew / Jain vs demand:       fairness --out jain.csv
  per-node win probability ECDFs:      fairness --ecdf-out DIR
  selection-state uniformity report:   verify-quantum --m 4 --k-req 4

An argument @FILE is replaced by the arguments in FILE, one per line
(e.g. --ms=4,8); arguments after it override the file's.
"""


def _check_grid(args) -> None:
    """Refuse an empty axis, or a grid whose largest network is too large."""
    for key in ("ms", "qs", "demands", "skews"):
        if not getattr(args, key, True):  # fairness has no q axis
            raise ValueError(f"{key} must hold at least one value")
    check_network_size(max(args.ms), NODES_PER_QLAN * max(args.ms))


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


def _fmt_input(value) -> str:
    """An input as '#' lines and file names record it: a float's 'g' text
    if that reads back as the float, else its str (a float's always does)."""
    if isinstance(value, float) and float(format(value, "g")) == value:
        return format(value, "g")
    return str(value)


def _fmt_seq(values) -> str:
    return ",".join(map(_fmt_input, values))


def _dict_lines(fieldnames: list[str], rows):
    """Dict rows as CSV lines, one cell per field name in order: the
    _fmt_input text of a grid axis value, so each row names its point
    exactly, and the _fmt text of every other value."""
    fmts = [_fmt_input if name in ("m", "q", "demand", "skew") else _fmt
            for name in fieldnames]
    for row in rows:
        yield ",".join([fmt(row.get(name))
                        for fmt, name in zip(fmts, fieldnames)]) + "\n"


def _write_csv(dest: str, comments: list[str], fieldnames: list[str],
               text) -> None:
    """Write '#'-prefixed comments, the header, then ``text`` as it comes.

    ``text`` is an iterable of strings of whole, newline-ended lines: one line
    per row from _dict_lines, or one piece of rows per string from the mc
    dump. No field any command writes holds ',', '"' or a line break, so no
    field is ever quoted and each line is its cells joined with ','. Each
    string is written as soon as it is produced, so output of any length
    never sits in memory whole.
    """
    def emit(fh):
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(fieldnames) + "\n")
        fh.writelines(text)

    if dest == "-":
        emit(sys.stdout)
    else:
        with open(dest, "w", newline="") as fh:
            emit(fh)


def _param_comment(params: ModelParams) -> str:
    return " ".join(f"{key}={_fmt_input(getattr(params, key))}"
                    for key in _PARAM_KEYS)


# axis flag -> its add_argument keywords; args holds its values at dest
_AXIS_FLAGS = {
    "ms": dict(dest="ms", type=_int_list, default=GRID_MS,
               help="comma list of QLAN counts"),
    "qs": dict(dest="qs", type=_float_list, default=GRID_QS,
               help="comma list of loss probabilities"),
    "demands": dict(dest="demands", type=_float_list, default=GRID_DEMANDS,
                    help="comma list of demand fractions"),
    "skews": dict(dest="skews", type=_float_list, default=GRID_SKEWS,
                  help="comma list of capacity skew exponents"),
    "skew": dict(dest="skews", type=float, nargs=1, default=(1.0,),
                 metavar="SKEW", help="capacity skew exponent"),
}


def _axes_comment(args, axes: tuple[str, ...]) -> str:
    cells = [f"{flag}={_fmt_seq(getattr(args, _AXIS_FLAGS[flag]['dest']))}"
             for flag in axes]
    return " ".join(cells + [f"nodes_per_qlan={NODES_PER_QLAN}"])


# ModelParams field -> (type, help); each command names the fields it reads
_MODEL_FLAGS = {
    "q": (float, "per-attempt loss probability"),
    "t_gen": (float, "state generation time, ms"),
    "t_dist": (float, "per-attempt distribution time, ms"),
    "t_meas": (float, "measurement time, ms"),
    "t_ctl": (float, "per-QLAN control message time, ms"),
    "rounds": (int, "arbitration rounds charged to the baseline"),
    "beta": (float, "over-provisioning margin for the winner count"),
    "max_attempts": (int, "delivery attempts per pair"),
}


def _add_model_flags(parser, keys: tuple[str, ...]) -> None:
    for key in keys:
        kind, text = _MODEL_FLAGS[key]
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            type=kind, default=getattr(ModelParams, key),
                            help=text)


def _model_params(args) -> ModelParams:
    """ModelParams from the model flags a command declares."""
    return ModelParams(**{key: getattr(args, key) for key in _MODEL_FLAGS
                          if hasattr(args, key)})


def _add_point_flags(parser) -> None:
    """The network and request flags of a single-point command."""
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--skew", type=float, default=None,
                        help="capacity skew exponent, default 0")
    parser.add_argument("--total", type=int, default=None,
                        help="total nodes, default 10*m")
    parser.add_argument("--caps", type=_int_list, default=None,
                        help="explicit capacities, instead of "
                             "--m/--skew/--total")
    parser.add_argument("--k-req", dest="k_req", type=int, default=None)
    parser.add_argument("--demand", type=float, default=None)


def _add_grid_flags(parser, axes: tuple[str, ...]) -> None:
    for flag in axes:
        parser.add_argument("--" + flag, **_AXIS_FLAGS[flag])


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
        # a success probability, and so a throughput, can underflow to 0
        ratio_thr_optimistic=(rec.THR_b2 / rec.THR_upper
                              if rec.THR_upper else None),
        ratio_thr_conservative=(rec.THR_b2 / rec.THR_lower
                                if rec.THR_lower else None),
    )


def _grid_rows(args, axes: tuple[str, ...], point_rows,
               workers: int = 1) -> list[dict]:
    """Rows of every grid point, in the order of the axis flags ``axes``
    (outermost first), each point's rows as ``point_rows`` returns them.

    ``point_rows(idx, point, net, params)`` gets the point's index, its
    context (axis values, total, k_req, status), its network and the model
    constants at its q; the context is merged under each row it returns.
    It must be picklable (module level or a partial of one) when workers > 1.
    """
    # a point keys each axis value by its flag in the singular: m, q, ...
    names = [flag.removesuffix("s") for flag in axes]
    grid = itertools.product(*(getattr(args, _AXIS_FLAGS[flag]["dest"])
                               for flag in axes))
    params = _model_params(args)
    tasks = [(point_rows, params, idx, dict(zip(names, values)))
             for idx, values in enumerate(grid)]
    workers = min(workers, len(tasks))
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
    point_rows, params, idx, point = task
    m = point["m"]
    net = generate_network(m, point["skew"], NODES_PER_QLAN * m)
    point.update(status="ok", total=net.total,
                 k_req=demand_to_kreq(point["demand"], net.total))
    params = replace(params, q=point.get("q", params.q))
    return [point | row for row in point_rows(idx, point, net, params)]


def _sweep_rows(mode, trials, seed, idx, point, net, params):
    k_req = point["k_req"]
    rec = evaluate_point(net.caps, k_req, params)
    context = dict(K=rec.K, ell_anc=rec.ell_anc, k_max_b2=rec.k_max_b2)
    rows = []
    if mode in ("analytic", "both"):
        rows.append(context | _analytic_row(rec) | {"mode": "analytic"})
    if mode in ("mc", "both"):
        row = dict(context, mode="mc", trials=trials, seed=seed)
        # both accountings; _sweep_fieldnames keeps the --chi columns
        stats = batch_stats(net, Request(k_req), params, trials,
                            trial_rng(seed, idx))
        for lmode in LATENCY_MODES:
            row[f"mc_p_{lmode}"] = stats[lmode].success_rate
            row[f"mc_p_{lmode}_se"] = stats[lmode].success_se
            row[f"mc_l_{lmode}"] = stats[lmode].latency_mean
            row[f"mc_l_{lmode}_se"] = stats[lmode].latency_se
        rows.append(row)
    return rows


def _cmd_sweep(args) -> int:
    _check_grid(args)
    rows = _grid_rows(args, SWEEP_AXES,
                      partial(_sweep_rows, args.mode, args.trials, args.seed),
                      workers=args.workers)
    comments = [f"dheac {__version__} sweep",
                f"mode={args.mode} chi={args.chi} seed={args.seed} "
                f"trials={args.trials}",
                _axes_comment(args, SWEEP_AXES),
                _param_comment(_model_params(args)),
                "times in ms, thr in grants per ms"]
    names = _sweep_fieldnames(args.mode, args.chi)
    _write_csv(args.out, comments, names, _dict_lines(names, rows))
    if args.svg:
        _ratio_svg(args.svg, args, rows, "ratio_l_optimistic",
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


def _ratio_svg(path: str, args, rows: list[dict], key: str,
               title: str) -> None:
    """Heatmap of one ratio column over (m, q) at the first demand and skew
    of the grid; mc rows carry no ratio and are skipped."""
    demand, skew = args.demands[0], args.skews[0]
    cell = {(r["m"], r["q"]): r[key] for r in rows
            if key in r and r["demand"] == demand and r["skew"] == skew}
    values = [[cell.get((m, q)) for m in args.ms] for q in args.qs]
    title = f"{title}, demand={_fmt_input(demand)}, skew={_fmt_input(skew)}"
    cw, ch = 86, 42
    left, top = 96, 64
    width = left + cw * len(args.ms) + 24
    height = top + ch * len(args.qs) + 56
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
    for c, m in enumerate(args.ms):
        out.append(f'<text x="{left + c * cw + cw // 2 - 8}" '
                   f'y="{top - 8}">{m}</text>')
    for r, q in enumerate(map(_fmt_input, args.qs)):
        y = top + r * ch
        out.append(f'<text x="12" y="{y + ch // 2 + 4}">{q}</text>')
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
            probs = exact_node_probs(net, req, beta=params.beta)
            method, trials = "exact", None
        except CapacityError as exc:
            if args.method == "exact":
                raise CapacityError(
                    f"{exc}; use --method auto or --method mc") from None
    if method == "mc":
        probs = estimate_fairness(net, req, args.trials,
                                  trial_rng(args.seed, idx), beta=params.beta)
    # probs is no CSV column; the ECDF files read it
    return [dict(K=K, method=method, trials=trials, jain=jain_index(probs),
                 p_min=float(probs.min()), p_max=float(probs.max()),
                 probs=probs)]


def _cmd_fairness(args) -> int:
    _check_grid(args)
    if args.trials < 10 ** 4:
        print(f"warning: {args.trials} trials is below the recommended 10^4",
              file=sys.stderr)
    rows = _grid_rows(args, FAIRNESS_AXES, partial(_fairness_rows, args))
    comments = [
        f"dheac {__version__} fairness",
        f"method={args.method} seed={args.seed} trials={args.trials} "
        f"max_subsets={MAX_SUBSETS}",
        _axes_comment(args, FAIRNESS_AXES),
        _param_comment(_model_params(args)),
        "win probabilities per request, loss-free lottery chain",
    ]
    _write_csv(args.out, comments, FAIRNESS_FIELDS,
               _dict_lines(FAIRNESS_FIELDS, rows))
    if args.ecdf_out:
        os.makedirs(args.ecdf_out, exist_ok=True)
        ecdf_rows = [r for r in rows if r["m"] == 16 and r["demand"] == 0.40]
        for r in ecdf_rows:
            m, demand, skew = map(_fmt_input, (r["m"], r["demand"], r["skew"]))
            name = f"ecdf_m{m}_demand{demand}_skew{skew}.csv"
            _write_csv(os.path.join(args.ecdf_out, name),
                       [f"dheac {__version__} fairness ecdf",
                        f"m={m} demand={demand} skew={skew}"],
                       ["win_prob", "cum_fraction"],
                       (f"{_fmt(v)},{_fmt(c)}\n" for v, c in ecdf(r["probs"])))
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
    _check_grid(args)
    rows = _grid_rows(args, BREAKEVEN_ROWS, _breakeven_rows)
    comments = [f"dheac {__version__} breakeven",
                _axes_comment(args, BREAKEVEN_AXES),
                _param_comment(_model_params(args)),
                "ratio_thr_* = baseline throughput / lottery throughput; "
                "values < 1 favour the lottery"]
    _write_csv(args.out, comments, BREAKEVEN_FIELDS,
               _dict_lines(BREAKEVEN_FIELDS, rows))
    if args.svg:
        _ratio_svg(args.svg, args, rows, "ratio_thr_optimistic",
                   "throughput ratio, baseline / lottery (optimistic)")
    if args.out != "-":
        _print_breakeven_summary(args, rows)
    return EXIT_OK


def _print_breakeven_summary(args, rows: list[dict]) -> None:
    """Print, per (q, demand), the smallest grid m from which the lottery
    wins: the ratio reads below 1 at that m and at every larger m of the
    grid, whatever the `--ms` order. An empty ratio counts as not below."""
    for q in args.qs:
        for demand in args.demands:
            group = sorted((r for r in rows
                            if r["q"] == q and r["demand"] == demand),
                           key=lambda r: r["m"], reverse=True)
            parts = []
            for mode, key in (("optimistic", "ratio_thr_optimistic"),
                              ("conservative", "ratio_thr_conservative")):
                hit = None
                for r in group:
                    if r[key] is None or not r[key] < 1.0:
                        break
                    hit = r["m"]
                parts.append(f"{mode}: " + ("not reached" if hit is None
                                            else f"m >= {hit}"))
            print(f"q={_fmt_input(q)} demand={_fmt_input(demand)}  "
                  + "; ".join(parts))


def _point_inputs(args) -> tuple[NetworkConfig, float | None, int,
                                  ModelParams]:
    """The network, the skew it was generated with (None for --caps), k_req
    and the model constants of a single-point command."""
    if args.caps is not None:
        if (args.m, args.skew, args.total) != (None, None, None):
            raise ValueError("--caps gives the network: drop --m, --skew "
                             "and --total")
        net, skew = NetworkConfig.from_caps(args.caps), None
    elif args.m is None:
        raise ValueError("either --caps or --m is required")
    else:
        skew = 0.0 if args.skew is None else args.skew
        total = NODES_PER_QLAN * args.m if args.total is None else args.total
        net = generate_network(args.m, skew, total)
    if (args.k_req is None) == (args.demand is None):
        raise ValueError("exactly one of --k-req and --demand is required")
    k_req = (args.k_req if args.k_req is not None
             else demand_to_kreq(args.demand, net.total))
    return net, skew, k_req, _model_params(args)


def _cmd_verify_quantum(args) -> int:
    net, _, k_req, params = _point_inputs(args)
    K = safe_select_k(k_req, net.caps, params.beta)
    state = build_embedded(net, k_req, K)
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
    print(f"fairness: jain={report.jain:.6g}")
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


def _ascii_cells(values: np.ndarray, sep: str) -> np.ndarray:
    """The str() text of a (rows, cols) array of ints >= 0 as (rows,
    cols * w) ASCII bytes: each cell is its digits, right-aligned in w - 1
    bytes padded with NULs, then ``sep``; w - 1 is the longest text of any
    value.

    Digits come from repeated % 10 and //= 10 in the smallest unsigned
    dtype that holds the values; a position left of a value's leading digit
    stays NUL, except the last position, which takes the digit 0. No dump
    column can be negative, so a negative cell is an invariant violation.
    """
    rows, cols = values.shape
    lo, hi = int(values.min()), int(values.max())
    if lo < 0:
        raise InvariantViolationError(f"negative dump cell {lo}")
    width = len(str(hi))
    cells = np.zeros((rows, cols, width + 1), dtype=np.uint8)
    cells[:, :, width] = ord(sep)
    rest = values.astype(np.min_scalar_type(hi))
    quot, digit = np.empty((2, rows, cols), dtype=rest.dtype)
    for pos in range(width - 1, -1, -1):
        # rest % 10 as rest - 10 * (rest // 10): numpy divides by a scalar
        # with vector multiplies, but takes its remainder one by one
        np.floor_divide(rest, 10, out=quot)
        np.multiply(quot, 10, out=digit)
        np.subtract(rest, digit, out=digit)
        digit |= ord("0")
        if pos < width - 1:
            digit *= rest != 0
        cells[:, :, pos] = digit
        rest, quot = quot, rest
    return cells.reshape(rows, cols * (width + 1))


def _dump_text(first: int, ok: np.ndarray, attempts: np.ndarray,
               lat: np.ndarray, winners: np.ndarray,
               quotas: np.ndarray) -> str:
    """The dump lines of one block of rounds, numbered from ``first``.

    Each line holds the _fmt text of its cells, the winners and the quotas
    each ';'-joined: the ints come from _ascii_cells, the latencies from
    format(value, '.10g'), and the NUL padding between them is dropped.
    """
    rows, K = winners.shape
    head = _ascii_cells(np.stack([np.arange(first, first + rows), ok,
                                  attempts], axis=1), ",")
    # a block's latencies are sums of few attempt costs, so they take few
    # distinct values; equal bits (not ==, which joins 0.0 and -0.0) give
    # equal text, so each is formatted once
    bits, row_of = np.unique(lat.view(np.int64), return_inverse=True)
    text = np.array([format(v, ".10g") + ","
                     for v in bits.view(np.float64).tolist()],
                    dtype=bytes)[row_of]
    tail = _ascii_cells(np.concatenate([winners, quotas], axis=1), ";")
    width = tail.shape[1] // (2 * K)
    tail[:, K * width - 1] = ord(",")
    tail[:, -1] = ord("\n")
    buf = np.concatenate([head, text.view(np.uint8).reshape(rows, -1),
                          tail], axis=1)
    # deleting the NULs by bytes.translate is a C loop, some 3x faster than
    # numpy's boolean indexing
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def _cmd_mc(args) -> int:
    """Dump the rounds of one point, then print their summary and baselines.

    The dump is written one row piece of a kernel block at a time:
    _dump_text builds each piece's lines as one (rows, width) ASCII array,
    from the integer columns by numpy arithmetic and from each latency's
    format(value, '.10g'), then drops its NUL padding into one string.
    Text is never held for more than one piece.
    """
    net, skew, k_req, params = _point_inputs(args)
    req = Request(k_req)
    rec = evaluate_point(net.caps, k_req, params)

    n_ok = 0
    lat_sum = 0.0
    # checked before the output is opened; the blocks are drawn as text goes
    rounds = sample_rounds(net, req, params, args.trials, trial_rng(args.seed))
    acct = LATENCY_MODES.index(args.chi)

    def blocks():
        nonlocal n_ok, lat_sum
        done = 0
        for arrangement, quotas, ok, attempts, lat in rounds:
            ok, attempts, lat = ok[acct], attempts[acct], lat[acct]
            n_ok += int(ok.sum())
            lat_sum += float(lat.sum())
            # per row: the int32 ids, their int64 sort order, the sorted
            # winners and quotas (in the kernel's narrow dtypes), and the
            # row's text, a few bytes per cell
            for part in _pieces(len(lat), 4 * rec.K):
                # winners in ascending order, each quota moved with its
                # winner: flat indices, as a flat take is some 2x faster
                # than take_along_axis; the ids sorted as int32 (they are
                # below netgen.MAX_NODES), which numpy argsorts some 4x
                # faster than uint8
                order = np.argsort(arrangement[part].astype(np.int32), axis=1)
                order += arrangement.shape[1] * np.arange(len(order))[:, None]
                yield _dump_text(done + part.start, ok[part], attempts[part],
                                 lat[part], arrangement[part].take(order),
                                 quotas[part].take(order))
                del order
            done += len(lat)
            # free this block's (t, K) arrays before the next block is drawn
            del arrangement, quotas

    # a --caps network was generated from no skew
    shape = (f"m={net.m}" if skew is None
             else f"m={net.m} skew={_fmt_input(skew)}")
    comments = [f"dheac {__version__} mc",
                f"chi={args.chi} seed={args.seed} trials={args.trials}",
                f"{shape} total={net.total} "
                f"caps={_fmt_seq(net.caps)} k_req={k_req} K={rec.K}",
                _param_comment(params) + f" q={_fmt_input(params.q)}"]
    _write_csv(args.out, comments, MC_FIELDS, blocks())

    if args.out != "-":
        rate = n_ok / args.trials
        print(f"success rate: {rate:.6g} over {args.trials} trials "
              f"(analytic band [{rec.P_lower:.6g}, {rec.P_upper:.6g}])")
        print(f"mean latency: {lat_sum / args.trials:.6g} ms "
              f"(analytic optimistic {rec.L_d_optimistic:.6g}, "
              f"conservative {rec.L_d_conservative:.6g})")
        b1 = b1_evaluate(net, req, params)
        if b1 is not None:
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
        formatter_class=argparse.RawDescriptionHelpFormatter,
        fromfile_prefix_chars="@", allow_abbrev=False)
    parser.add_argument("--version", action="version",
                        version=f"dheac {__version__}")
    # a flag is spelt out in full: a prefix would change meaning, or turn
    # ambiguous, once a flag that shares it is added
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("sweep", help="closed-form (and optional MC) metrics "
                                     "over the evaluation grid")
    _add_grid_flags(p, SWEEP_AXES)
    _add_model_flags(p, _PARAM_KEYS)
    p.add_argument("--mode", choices=("analytic", "mc", "both"),
                   default="analytic")
    p.add_argument("--chi", choices=LATENCY_MODES + ("both",), default="both",
                   help="which outer-payload accounting columns to emit")
    p.add_argument("--trials", type=int, default=20000,
                   help="MC trials per point (both accountings read the same "
                        "rounds)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workers", type=int, default=1,
                   help=f"process pool size, at most {MAX_WORKERS} and one "
                        "per grid point; output bytes do not depend on it")
    p.add_argument("--out", default="-", help="CSV path, - for stdout")
    p.add_argument("--svg", default=None,
                   help="also write a latency-ratio heatmap here")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fairness", help="per-node win probabilities and "
                                        "Jain index across the grid")
    _add_grid_flags(p, FAIRNESS_AXES)
    _add_model_flags(p, ("beta",))
    p.add_argument("--method", choices=("auto", "exact", "mc"),
                   default="auto",
                   help="exact enumeration over capacity classes, "
                        "sampling, or exact with sampling fallback")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="-")
    p.add_argument("--ecdf-out", dest="ecdf_out", default=None,
                   help="directory for per-node win-probability ECDF files "
                        "(written for m=16, demand=0.4 points)")
    p.set_defaults(func=_cmd_fairness)

    p = sub.add_parser("breakeven", help="throughput ratio map over (m, q)")
    _add_grid_flags(p, BREAKEVEN_AXES)
    _add_model_flags(p, _PARAM_KEYS)
    p.add_argument("--out", default="-")
    p.add_argument("--svg", default=None,
                   help="also write a throughput-ratio heatmap here")
    p.set_defaults(func=_cmd_breakeven, ms=BREAKEVEN_MS, demands=(0.40,))

    p = sub.add_parser("verify-quantum",
                       help="build the selection state and check its "
                            "marginals, conditionals and feasibility")
    _add_point_flags(p)
    _add_model_flags(p, ("beta",))
    p.add_argument("--draws", type=int, default=200000)
    p.add_argument("--alpha", type=float, default=0.01,
                   help="significance for the uniformity tests")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--json", default=None, help="write the report here")
    p.set_defaults(func=_cmd_verify_quantum)

    p = sub.add_parser("mc", help="raw Monte-Carlo trial dump at one point")
    _add_point_flags(p)
    _add_model_flags(p, ("q",) + _PARAM_KEYS)
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
    for flag in ("workers", "trials", "draws"):
        if getattr(args, flag, 1) < 1:
            raise ValueError(f"--{flag} must be >= 1, "
                             f"got {getattr(args, flag)}")
    if getattr(args, "draws", 1) > MAX_DRAWS:
        raise ValueError(f"draws must lie in [1, 2**63 - 1], got {args.draws}")
    if getattr(args, "workers", 1) > MAX_WORKERS:
        raise ValueError(f"--workers must be <= {MAX_WORKERS}, "
                         f"got {args.workers}")
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if not 0.0 < getattr(args, "alpha", 0.5) < 1.0:
        raise ValueError(f"--alpha must lie in (0, 1), got {args.alpha}")


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: a parse leaves no
    state on it, and one process may call main many times."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except UnicodeDecodeError as exc:  # argparse reports only OSError
        parser.error(f"an @ argument file is not text: {exc}")
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
