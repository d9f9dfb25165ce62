"""The four benchmark workloads: CLI argv lists built from a seed, and the
checks that decide whether each CLI call (one op) produced right output.

Every workload writes into its own empty directory, so relative output
paths in the argv are enough. The program sees only these argv lists.

A check returns one (status, reason) outcome per op:
  "ok"       the call succeeded and its output passed the check;
  "refused"  an expected refusal (the sparse-state guard, exit 2);
  "failed"   the program reported failure (an unexpected exit code, or a
             structural verification failure);
  "wrong"    the program reported success but its output failed the check.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

# c04's band, widened from 3 to 5 standard errors so that a correct
# sampler almost never false-alarms after a documented stream change
BAND_Z = 5.0
MAX_SUBSETS = 10 ** 6  # the fairness subcommand's default --max-subsets

MC_GRID_AXES = {"ms": "4,8,16,32", "demands": "0.1,0.2,0.4,0.6",
                "qs": "0.05,0.15", "skews": "0,2"}
MC_GRID_TRIALS = 20000
FAIRNESS_TRIALS = 100000  # the CLI default
VERIFY_SKEWS = ("0", "0.5", "1", "1.5", "2")
VERIFY_DEMANDS = ("0.1", "0.2", "0.4", "0.6")
README_VERIFY_POINTS = (("--m", "6", "--skew", "1.0", "--demand", "0.4"),
                        ("--m", "4", "--k-req", "4"))
DUMP_TRIALS = 10000
DUMPS = (("dump_m8.csv", ("--m", "8", "--skew", "1", "--demand", "0.4",
                          "--q", "0.05", "--chi", "conservative")),
         ("dump_m32.csv", ("--m", "32", "--skew", "1", "--demand", "0.6",
                           "--chi", "optimistic")))


@dataclass
class Checked:
    outcomes: list[tuple[str, str]]  # (status, reason) per op
    trials: int  # Monte-Carlo trials or measurement draws completed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argvs: Callable[[int], list[list[str]]]
    check: Callable[[str, list, str], Checked]
    # share of the ops' time that slows down like interpreter code on a
    # shared core (hostspeed.py), fitted on this workload's own ops
    python_share: float


def read_csv(path: str) -> tuple[list[str], list[dict]]:
    """Comment lines (without '# ') and data rows of a dheac CSV file."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    comments = [ln[2:] for ln in lines if ln.startswith("#")]
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    return comments, rows


def _stderr(logs: str, i: int) -> str:
    with open(os.path.join(logs, f"op{i}.stderr")) as fh:
        return fh.read()


def _guarded(check, out: str, path: str) -> tuple[str, str]:
    """Check the output of a call that exited 0; a missing or malformed
    file is wrong output."""
    try:
        problem = check(os.path.join(out, path))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problem = f"{path}: {type(exc).__name__}: {exc}"
    return ("wrong", problem) if problem else ("ok", "")


# --- mc_grid ---------------------------------------------------------------

def _mc_grid_argvs(seed: int) -> list[list[str]]:
    argv = ["sweep", "--mode", "both", "--chi", "both"]
    for key, value in MC_GRID_AXES.items():
        argv += [f"--{key}", value]
    return [argv + ["--trials", str(MC_GRID_TRIALS), "--workers", "1",
                    "--seed", str(seed), "--out", "sweep_mc.csv"]]


def _band(p: float, trials: int) -> float:
    return BAND_Z * math.sqrt(p * (1.0 - p) / trials)


def check_mc_sweep(path: str, n_points: int) -> str:
    _, rows = read_csv(path)
    analytic = [r for r in rows if r["mode"] == "analytic"]
    mc = [r for r in rows if r["mode"] == "mc"]
    if len(analytic) != n_points or len(mc) != n_points:
        return (f"expected {n_points} analytic and mc rows, got "
                f"{len(analytic)} and {len(mc)}")
    for a, s in zip(analytic, mc):
        if a["status"] != "ok" or s["status"] != "ok":
            return f"point m={a['m']} demand={a['demand']} is not ok"
        trials = int(s["trials"])
        p_lo, p_hi = float(a["p_lower"]), float(a["p_upper"])
        lo, hi = p_lo - _band(p_lo, trials), p_hi + _band(p_hi, trials)
        for mode in ("optimistic", "conservative"):
            rate = float(s[f"mc_p_{mode}"])
            if not lo <= rate <= hi:
                return (f"m={a['m']} q={a['q']} demand={a['demand']} "
                        f"skew={a['skew']} {mode}: rate {rate} outside "
                        f"[{lo:.6f}, {hi:.6f}]")
    return ""


def _mc_grid_check(out: str, codes: list, logs: str) -> Checked:
    n_points = math.prod(len(v.split(",")) for v in MC_GRID_AXES.values())
    if codes[0] != 0:
        return Checked([("failed", f"exit {codes[0]}")], 0)
    outcome = _guarded(lambda p: check_mc_sweep(p, n_points), out,
                       "sweep_mc.csv")
    done = 2 * n_points * MC_GRID_TRIALS if outcome[0] == "ok" else 0
    return Checked([outcome], done)


# --- fairness_grid ---------------------------------------------------------

def _fairness_argvs(seed: int) -> list[list[str]]:
    return [["fairness", "--method", "auto", "--trials", str(FAIRNESS_TRIALS),
             "--seed", str(seed), "--out", "fairness.csv",
             "--ecdf-out", "ecdf"]]


def check_fairness(path: str) -> str:
    _, rows = read_csv(path)
    if len(rows) != 80:
        return f"expected 80 rows, got {len(rows)}"
    for r in rows:
        where = f"m={r['m']} demand={r['demand']} skew={r['skew']}"
        if r["status"] != "ok":
            return f"{where}: status {r['status']}"
        exact = math.comb(int(r["m"]), int(r["K"])) <= MAX_SUBSETS
        if r["method"] != ("exact" if exact else "mc"):
            return f"{where}: method {r['method']} with exact={exact}"
        jain, p_max = float(r["jain"]), float(r["p_max"])
        p_min = float(r["p_min"])
        if not (0.0 < jain <= 1.0 and 0.0 <= p_min <= p_max <= 1.0):
            return f"{where}: jain={jain} p_min={p_min} p_max={p_max}"
    ecdf_dir = os.path.join(os.path.dirname(path), "ecdf")
    names = sorted(os.listdir(ecdf_dir))
    if len(names) != 5:
        return f"expected 5 ecdf files, got {names}"
    for name in names:
        _, pts = read_csv(os.path.join(ecdf_dir, name))
        if not pts or float(pts[-1]["cum_fraction"]) != 1.0:
            return f"{name}: ecdf does not end at 1"
    return ""


def _fairness_check(out: str, codes: list, logs: str) -> Checked:
    if codes[0] != 0:
        return Checked([("failed", f"exit {codes[0]}")], 0)
    outcome = _guarded(check_fairness, out, "fairness.csv")
    done = 0
    if outcome[0] == "ok":
        _, rows = read_csv(os.path.join(out, "fairness.csv"))
        done = sum(int(r["trials"]) for r in rows if r["method"] == "mc")
    return Checked([outcome], done)


# --- exact_paths -----------------------------------------------------------

def _verify_points() -> list[tuple[str, ...]]:
    grid = [("--m", "8", "--skew", s, "--demand", d)
            for s in VERIFY_SKEWS for d in VERIFY_DEMANDS]
    return list(README_VERIFY_POINTS) + grid


def _report_name(i: int) -> str:
    return f"verify_{i:02d}.json"


def _exact_argvs(seed: int) -> list[list[str]]:
    argvs = [["sweep", "--mode", "analytic", "--seed", str(seed),
              "--out", "sweep_analytic.csv"],
             ["breakeven", "--out", "breakeven.csv"]]
    for i, point in enumerate(_verify_points()):
        argvs.append(["verify-quantum", *point, "--seed", str(seed),
                      "--json", _report_name(i)])
    return argvs


def check_analytic_sweep(path: str) -> str:
    _, rows = read_csv(path)
    if len(rows) != 320:
        return f"expected 320 rows, got {len(rows)}"
    for r in rows:
        if r["status"] == "ok" and not (
                0.0 < float(r["p_lower"]) <= float(r["p_upper"]) <= 1.0):
            return f"m={r['m']} q={r['q']}: p_lower/p_upper out of order"
    return ""


def check_breakeven(path: str) -> str:
    _, rows = read_csv(path)
    if len(rows) != 24:
        return f"expected 24 rows, got {len(rows)}"
    for r in rows:
        if r["status"] == "ok" and not float(r["ratio_thr_optimistic"]) > 0:
            return f"m={r['m']} q={r['q']}: non-positive throughput ratio"
    return ""


CHI2_REJECTION = "uniformity rejected"  # the only non-structural failure


def verify_outcome(code, report_path: str, stderr: str) -> tuple[str, str]:
    """A sparse-guard refusal is expected. Exit 4 fails the op only for a
    structural failure: a chi-square rejection at the configured
    significance is a legitimate statistical outcome."""
    if code == 2 and "sparse guard" in stderr:
        return "refused", ""
    if code not in (0, 4):
        return "failed", f"exit {code}: {stderr.strip()[-200:]}"
    with open(report_path) as fh:
        report = json.load(fh)
    failures = report["failures"]
    structural = [f for f in failures if CHI2_REJECTION not in f]
    if code == 0:
        if report["passed"] and not failures:
            return "ok", ""
        return "wrong", f"exit 0 with failures {failures}"
    if structural:
        return "failed", "; ".join(structural)
    if not failures:
        return "wrong", "exit 4 without failures"
    return "ok", ""


def _exact_check(out: str, codes: list, logs: str) -> Checked:
    outcomes = []
    for code, check, path in ((codes[0], check_analytic_sweep,
                               "sweep_analytic.csv"),
                              (codes[1], check_breakeven, "breakeven.csv")):
        outcomes.append(_guarded(check, out, path) if code == 0
                        else ("failed", f"exit {code}"))
    draws = 0
    for i, code in enumerate(codes[2:]):
        path = os.path.join(out, _report_name(i))
        try:
            outcome = verify_outcome(code, path, _stderr(logs, i + 2))
        except (OSError, ValueError, KeyError) as exc:
            outcome = ("wrong", f"{_report_name(i)}: {exc}")
        outcomes.append(outcome)
        if outcome[0] == "ok":  # no structural failure, so it measured
            with open(path) as fh:
                draws += json.load(fh)["draws"]
    return Checked(outcomes, draws)


# --- trial_dump ------------------------------------------------------------

def _dump_argvs(seed: int) -> list[list[str]]:
    return [["mc", *point, "--trials", str(DUMP_TRIALS), "--seed", str(seed),
             "--out", name] for name, point in DUMPS]


def check_dump(path: str) -> str:
    comments, rows = read_csv(path)
    fields = dict(tok.split("=", 1) for line in comments
                  for tok in line.split() if "=" in tok)
    K, k_req = int(fields["K"]), int(fields["k_req"])
    if len(rows) != DUMP_TRIALS:
        return f"expected {DUMP_TRIALS} rows, got {len(rows)}"
    for r in rows:
        winners = r["winners"].split(";")
        quotas = [int(q) for q in r["quotas"].split(";")]
        if len(set(winners)) != K or len(quotas) != K or sum(quotas) != k_req:
            return (f"trial {r['trial']}: {len(winners)} winners, quotas sum "
                    f"{sum(quotas)}; want K={K}, k_req={k_req}")
    return ""


def _dump_check(out: str, codes: list, logs: str) -> Checked:
    outcomes = [_guarded(check_dump, out, name) if code == 0
                else ("failed", f"exit {code}")
                for code, (name, _) in zip(codes, DUMPS)]
    done = DUMP_TRIALS * sum(1 for status, _ in outcomes if status == "ok")
    return Checked(outcomes, done)


WORKLOADS = {w.name: w for w in (
    Workload("mc_grid",
             "64-point sweep --mode both at 20000 trials: "
             "lottery.simulate_batch and its per-qubit delivery draws are "
             "nearly all of the time and set peak RSS",
             _mc_grid_argvs, _mc_grid_check, python_share=0.4),
    Workload("fairness_grid",
             "80-cell fairness grid: exact subset enumeration and sampled "
             "fallback cost about the same; no delivery sampling, so a "
             "delivery-sampling change must not move it",
             _fairness_argvs, _fairness_check, python_share=0.7),
    Workload("exact_paths",
             "no MC trials: dict and loop work in qverify and partition. "
             "verify m=8 skew 1 demand 0.6 is a known false FAIL: "
             "marginal_outer sums with + not fsum, drifting past NORM_TOL",
             _exact_argvs, _exact_check, python_share=0.95),
    Workload("trial_dump",
             "two 10000-trial mc dumps: one run_trial per row plus per-row "
             "CSV writing, next to mc_grid's batch; the only caller of "
             "baselines",
             _dump_argvs, _dump_check, python_share=0.95),
)}
