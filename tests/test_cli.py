"""End-to-end command tests through main(), exercising every exit code."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from importlib.metadata import version

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import numpy as np

import dheac
from dheac import (
    LATENCY_MODES,
    InvariantViolationError,
    ModelParams,
    Request,
    demand_to_kreq,
    evaluate_point,
    exact_node_probs,
    generate_network,
    safe_select_k,
    simulate_batch,
    trial_rng,
)
from dheac import cli, lottery, netgen
from dheac.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_SHORTAGE,
    EXIT_USAGE,
    EXIT_VERIFY,
    MC_FIELDS,
    _ascii_cells,
    _dump_text,
    _float_list,
    _fmt,
    _fmt_seq,
    main,
)

TINY_GRID = ["--ms", "4,8", "--qs", "0.05", "--demands", "0.4",
             "--skews", "0,1"]
ONE_CELL = ["--ms", "4", "--demands", "0.4"]


def read_csv(path):
    with open(path) as fh:
        comments = []
        rows = []
        header = None
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
                continue
            if header is None:
                header = next(csv.reader([line]))
                continue
            rows.append(dict(zip(header, next(csv.reader([line])))))
    return comments, header, rows


def test_sweep_analytic_rows_and_ratios(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--mode", "analytic", "--out", str(out),
                 *TINY_GRID]) == EXIT_OK
    comments, header, rows = read_csv(out)
    assert len(rows) == 4
    assert all(r["mode"] == "analytic" for r in rows)
    assert any("dheac" in c for c in comments)

    row = next(r for r in rows if r["m"] == "8" and r["skew"] == "1")
    net = generate_network(8, 1.0, 80)
    rec = evaluate_point(net.caps, 32, ModelParams(q=0.05))
    assert float(row["thr_upper"]) == pytest.approx(rec.THR_upper, rel=1e-9)
    assert float(row["ratio_thr_conservative"]) == pytest.approx(
        rec.THR_b2 / rec.THR_lower, rel=1e-9)
    assert float(row["ratio_l_optimistic"]) == pytest.approx(
        rec.L_d_optimistic / rec.L_b2, rel=1e-9)


def test_sweep_emits_one_mc_row_per_point(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--mode", "both", "--trials", "300", "--seed", "7",
                 "--out", str(out), *TINY_GRID]) == EXIT_OK
    _, header, rows = read_csv(out)
    assert len(rows) == 8
    mc = [r for r in rows if r["mode"] == "mc"]
    assert len(mc) == 4
    assert all(r["trials"] == "300" and r["seed"] == "7" for r in mc)
    assert all(r["mc_p_conservative"] != "" for r in mc)
    analytic = [r for r in rows if r["mode"] == "analytic"]
    assert all(r["trials"] == "" for r in analytic)


def test_sweep_chi_flag_filters_columns(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--mode", "both", "--chi", "optimistic",
                 "--trials", "200", "--out", str(out), *TINY_GRID]) == EXIT_OK
    _, header, rows = read_csv(out)
    assert "mc_p_optimistic" in header
    assert "mc_p_conservative" not in header
    assert "thr_lower" not in header


def test_sweep_mc_bounds_are_ordered_on_every_row(tmp_path):
    # both accountings read the same rounds, so the sampled lower bound can
    # never cross the sampled upper bound, whatever the point
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--mode", "mc", "--trials", "400", "--seed", "42",
                 "--ms", "4,8,16", "--qs", "0.05,0.15", "--demands",
                 "0.2,0.6", "--skews", "0,2", "--out", str(out)]) == EXIT_OK
    _, _, rows = read_csv(out)
    assert len(rows) == 24
    for r in rows:
        assert float(r["mc_p_conservative"]) <= float(r["mc_p_optimistic"])
        assert float(r["mc_l_conservative"]) >= float(r["mc_l_optimistic"])


@pytest.mark.parametrize("chi", LATENCY_MODES)
def test_sweep_chi_selects_columns_not_streams(chi, tmp_path):
    both = tmp_path / "both.csv"
    one = tmp_path / "one.csv"
    args = ["sweep", "--mode", "mc", "--trials", "300", "--seed", "5",
            *TINY_GRID]
    assert main([*args, "--chi", "both", "--out", str(both)]) == EXIT_OK
    assert main([*args, "--chi", chi, "--out", str(one)]) == EXIT_OK
    _, _, rows_both = read_csv(both)
    _, header, rows_one = read_csv(one)
    columns = [c for c in header if c.startswith("mc_")]
    assert columns and all(chi in c for c in columns)
    assert [[r[c] for c in columns] for r in rows_one] == [
        [r[c] for c in columns] for r in rows_both]


def test_sweep_worker_count_does_not_change_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "--mode", "mc", "--trials", "200", *TINY_GRID]
    assert main([*args, "--workers", "1", "--out", str(a)]) == EXIT_OK
    assert main([*args, "--workers", "2", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sweep_svg(tmp_path):
    out = tmp_path / "sweep.csv"
    svg = tmp_path / "map.svg"
    assert main(["sweep", "--out", str(out), "--svg", str(svg),
                 *TINY_GRID]) == EXIT_OK
    text = svg.read_text()
    assert text.startswith("<svg ") and "</svg>" in text


@pytest.mark.parametrize("argv", [
    ["sweep", "--mode", "both", "--trials", "100", "--demands", "0.4",
     "--skews", "1"],
    ["breakeven"],
])
def test_ratio_heatmaps_have_one_cell_per_m_and_q(argv, tmp_path):
    # mc rows carry no ratio: every cell must still come from the
    # analytic row of its (m, q)
    svg = tmp_path / "map.svg"
    assert main([*argv, "--ms", "4,8,16", "--qs", "0.01,0.1",
                 "--out", str(tmp_path / "out.csv"),
                 "--svg", str(svg)]) == EXIT_OK
    text = svg.read_text()
    assert text.count("<rect") == 6
    assert "n/a" not in text


def test_heatmap_labels_name_inputs_as_given(tmp_path):
    svg = tmp_path / "map.svg"
    assert main(["breakeven", "--ms", "4,8", "--qs", "0.0512345678",
                 "--demands", "0.4000001", "--skew", "1.0000001",
                 "--out", str(tmp_path / "be.csv"),
                 "--svg", str(svg)]) == EXIT_OK
    text = svg.read_text()
    assert "demand=0.4000001, skew=1.0000001</text>" in text
    assert '">0.0512345678</text>' in text


def test_breakeven_rows_are_the_sweep_analytic_rows(tmp_path):
    axes = ["--ms", "2,4,8", "--qs", "0.01,0.1", "--demands", "0.2,0.6"]
    sweep = tmp_path / "sweep.csv"
    breakeven = tmp_path / "breakeven.csv"
    assert main(["sweep", *axes, "--skews", "0.5",
                 "--out", str(sweep)]) == EXIT_OK
    assert main(["breakeven", *axes, "--skew", "0.5",
                 "--out", str(breakeven)]) == EXIT_OK
    _, sweep_header, sweep_rows = read_csv(sweep)
    _, header, rows = read_csv(breakeven)
    shared = [name for name in header if name in sweep_header]
    assert shared == header

    def key(r):
        return r["m"], r["q"], r["demand"], r["skew"]

    by_point = {key(r): r for r in sweep_rows}
    assert len(rows) == len(by_point) == 12
    for r in rows:
        assert {n: r[n] for n in shared} == {
            n: by_point[key(r)][n] for n in shared}


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 64), skew=st.floats(0.0, 4.0),
       nodes_per_qlan=st.integers(1, 12),
       demand=st.floats(0.0, 1.0, exclude_min=True))
def test_grid_points_are_never_short_of_capacity(m, skew, nodes_per_qlan,
                                                 demand):
    # why the grid commands have no shortage path: every demand in (0, 1]
    # asks for at most the network's total capacity
    net = generate_network(m, skew, nodes_per_qlan * m)
    k_req = demand_to_kreq(demand, net.total)
    assert 1 <= k_req <= net.total
    rec = evaluate_point(net.caps, k_req, ModelParams())
    assert 1 <= rec.K <= m


# --- @ argument files ------------------------------------------------------

# one run of each command, one argument per line as an args file holds it
ARGS_FILE_RUNS = {
    "sweep": ["--ms=4,8", "--qs=0.05", "--demands=0.4", "--skews=0,1",
              "--t-dist=0.1", "--mode=both", "--trials=50"],
    "fairness": ["--ms=4", "--demands=0.4", "--skews=1", "--beta=0.2",
                 "--method=mc", "--trials=200"],
    "breakeven": ["--ms=4,8", "--qs=0.05,0.1", "--skew=0.5", "--rounds=2"],
    "verify-quantum": ["--m=4", "--k-req=4", "--draws=500", "--seed=7"],
    "mc": ["--m=4", "--k-req=4", "--q=0.1", "--trials=20",
           "--chi=optimistic"],
}


def _args_file(tmp_path, lines) -> str:
    path = tmp_path / "run.args"
    path.write_text("".join(line + "\n" for line in lines))
    return "@" + str(path)


@pytest.mark.parametrize("command", sorted(ARGS_FILE_RUNS))
def test_an_args_file_gives_the_bytes_of_its_flags_inline(command, tmp_path,
                                                          capsys):
    flags = ARGS_FILE_RUNS[command]
    out_flag = "--json" if command == "verify-quantum" else "--out"
    inline, from_file = tmp_path / "inline", tmp_path / "from_file"
    assert main([command, *flags, out_flag, str(inline)]) == EXIT_OK
    printed = capsys.readouterr()
    # the command itself can come from the file too
    argv = [_args_file(tmp_path, [command, *flags]), out_flag, str(from_file)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr() == printed
    assert from_file.read_bytes() == inline.read_bytes()


def test_args_file_overrides_and_validation(tmp_path):
    out = tmp_path / "sweep.csv"
    args_file = _args_file(tmp_path, ["--ms=4", "--qs=0.0", "--demands=0.4",
                                      "--skews=0", "--t-dist=0.1"])
    # the file overrides the flags before it; the flags after it override it
    assert main(["sweep", "--t-dist", "0.3", args_file, "--qs", "0.05,0.1",
                 "--out", str(out)]) == EXIT_OK
    comments, _, rows = read_csv(out)
    assert [(r["m"], r["q"]) for r in rows] == [("4", "0.05"), ("4", "0.1")]
    assert any("t_dist=0.1" in c for c in comments)

    out.unlink()
    with pytest.raises(SystemExit) as exc:
        main(["sweep", _args_file(tmp_path, ["--bogus=1"]), "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    pytest.param("--max-attempts=x", "argument --max-attempts: ",
                 id="max_attempts-x"),
    pytest.param("--qs=None", "argument --qs: ", id="qs-None"),
    pytest.param("--max-attempts=2.5", "argument --max-attempts: ",
                 id="max_attempts-2.5"),
    pytest.param("--ms=4.7", "argument --ms: ", id="ms-4.7"),
    # a count is written as one: 4.0 is no QLAN count
    pytest.param("--ms=4.0", "argument --ms: ", id="ms-4.0"),
    # grid networks hold NODES_PER_QLAN nodes per QLAN; no flag sets it
    pytest.param("--nodes-per-qlan=10.5",
                 "unrecognized arguments: --nodes-per-qlan=10.5",
                 id="nodes_per_qlan-10.5"),
    pytest.param("--rounds=true", "argument --rounds: ", id="rounds-true"),
    pytest.param("--ms=,", "ms must hold at least one value", id="ms-empty"),
])
def test_malformed_args_file_values_are_usage_errors(line, message, tmp_path,
                                                     capsys):
    # an args file's values pass the checks of the flags given inline
    out = tmp_path / "sweep.csv"
    try:
        code = main(["sweep", _args_file(tmp_path, [line]),
                     "--out", str(out)])
    except SystemExit as exc:  # argparse refuses the value
        code = exc.code
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (None, "No such file or directory"),
    (b"--ms=4\n\xff\xfe\n", "an @ argument file is not text"),
], ids=["missing", "binary"])
def test_an_unreadable_args_file_exits_2_without_a_traceback(content, message,
                                                             tmp_path):
    path = tmp_path / "run.args"
    if content is not None:
        path.write_bytes(content)
    src = os.path.dirname(os.path.dirname(dheac.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "dheac.cli", "sweep",
                           f"@{path}"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["sweep", "--ms", ","],
    ["fairness", "--ms", "4", "--skews", ","],
    ["breakeven", "--qs", ","],
])
def test_an_empty_grid_axis_is_a_usage_error(argv, tmp_path, capsys):
    # used to write a header-only CSV and exit 0
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    assert "must hold at least one value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("from_file", [False, True],
                         ids=["inline", "args_file"])
@pytest.mark.parametrize("command, flag, value", [
    ("sweep", "--demand", "0.4"),
    ("breakeven", "--q", "0.05"),
    ("fairness", "--tri", "10"),
])
def test_an_abbreviated_flag_is_refused(command, flag, value, from_file,
                                        tmp_path, capsys):
    # each once ran as the flag it begins: --demands, --qs, --trials
    out = tmp_path / "out.csv"
    flags = ([_args_file(tmp_path, [f"{flag}={value}"])] if from_file
             else [flag, value])
    with pytest.raises(SystemExit) as exc:
        main([command, *flags, "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_fairness_warns_on_low_trials(tmp_path, capsys):
    out = tmp_path / "fair.csv"
    assert main(["fairness", "--trials", "500", "--ms", "4", "--demands",
                 "0.4", "--skews", "0", "--out", str(out)]) == EXIT_OK
    assert "below the recommended" in capsys.readouterr().err
    _, _, rows = read_csv(out)
    assert rows[0]["jain"] == "1"
    assert rows[0]["method"] == "exact"


def test_fairness_ecdf_side_files(tmp_path):
    out = tmp_path / "fair.csv"
    ecdf_dir = tmp_path / "ecdf"
    assert main(["fairness", "--trials", "20000", "--ms", "16", "--demands",
                 "0.4", "--skews", "1.0", "--out", str(out),
                 "--ecdf-out", str(ecdf_dir)]) == EXIT_OK
    files = list(ecdf_dir.iterdir())
    assert len(files) == 1
    _, header, rows = read_csv(files[0])
    assert header == ["win_prob", "cum_fraction"]
    assert float(rows[-1]["cum_fraction"]) == pytest.approx(1.0)


def test_fairness_ecdf_files_of_distinct_skews_stay_distinct(tmp_path):
    ecdf_dir = tmp_path / "ecdf"
    assert main(["fairness", "--trials", "10000", "--ms", "16", "--demands",
                 "0.4", "--skews", "1,1.0000001",
                 "--out", str(tmp_path / "fair.csv"),
                 "--ecdf-out", str(ecdf_dir)]) == EXIT_OK
    headers = {}
    for path in ecdf_dir.iterdir():
        comments, _, _ = read_csv(path)
        headers[path.name] = comments[1]
    assert headers == {
        "ecdf_m16_demand0.4_skew1.csv": "# m=16 demand=0.4 skew=1",
        "ecdf_m16_demand0.4_skew1.0000001.csv":
            "# m=16 demand=0.4 skew=1.0000001"}


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=4))
def test_recorded_float_inputs_read_back_as_themselves(values):
    assert _float_list(_fmt_seq(values)) == tuple(values)


def test_grid_rows_of_distinct_points_stay_distinct(capsys):
    # .10g text would write 0.05123456789 in both q cells
    assert main(["sweep", "--ms", "4", "--qs",
                 "0.051234567891,0.051234567892", "--demands", "0.4",
                 "--skews", "1", "--out", "-"]) == EXIT_OK
    rows = list(csv.DictReader(
        line for line in capsys.readouterr().out.splitlines()
        if not line.startswith("#")))
    assert [r["q"] for r in rows] == ["0.051234567891", "0.051234567892"]


@settings(max_examples=40, deadline=None)
@given(q=st.floats(0.0, 0.99), demand=st.floats(0.01, 1.0),
       skew=st.floats(0.0, 3.0), m=st.integers(1, 40))
def test_grid_axis_cells_read_back_as_their_point(q, demand, skew, m):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["breakeven", "--ms", str(m), "--qs", repr(q),
                     "--demands", repr(demand), "--skew", repr(skew),
                     "--out", "-"]) == EXIT_OK
    row, = csv.DictReader(line for line in out.getvalue().splitlines()
                          if not line.startswith("#"))
    assert ((int(row["m"]), float(row["q"]), float(row["demand"]),
             float(row["skew"])) == (m, q, demand, skew))


def test_canonical_axis_values_keep_their_grid_cell_text():
    # every default and benchmark axis value, and the golden edge argv's,
    # writes the same text as the .10g cells did, so no golden file moves
    values = {*cli.GRID_MS, *cli.GRID_QS, *cli.GRID_DEMANDS,
              *cli.GRID_SKEWS, *cli.BREAKEVEN_MS, 1.0, 0.99, 0.6, 32}
    values |= {float(v) for text in ("0.05,0.15", "0.1,0.2,0.4,0.6", "0,2")
               for v in text.split(",")}
    assert {v: cli._fmt_input(v) for v in values} == {
        v: _fmt(v) for v in values}


def test_fairness_ecdf_out_without_its_point_writes_no_file(tmp_path,
                                                           capsys):
    ecdf_dir = tmp_path / "ecdf"
    assert main(["fairness", "--ms", "4", "--demands", "0.4", "--skews", "0",
                 "--out", str(tmp_path / "fair.csv"),
                 "--ecdf-out", str(ecdf_dir)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "no (m=16, demand=0.4) points in the grid; no ecdf files written\n")
    assert list(ecdf_dir.iterdir()) == []


def test_fairness_exact_guard_is_a_usage_error(tmp_path):
    code = main(["fairness", "--method", "exact", "--ms", "32", "--demands",
                 "0.4", "--skews", "0", "--trials", "10000",
                 "--out", str(tmp_path / "f.csv")])
    assert code == EXIT_USAGE


def test_fairness_exact_guard_names_the_method_flag(tmp_path, capsys):
    # the remedy is a flag of this command, not a Python function
    code = main(["fairness", "--method", "exact", "--ms", "32", "--demands",
                 "0.1", "--skews", "1", "--out", str(tmp_path / "f.csv")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "C(32, 14) = 471435600 subsets exceed 1000000" in err
    assert "--method auto or --method mc" in err
    assert "estimate_fairness" not in err
    assert not (tmp_path / "f.csv").exists()


def test_breakeven_matrix(tmp_path, capsys):
    out = tmp_path / "be.csv"
    assert main(["breakeven", "--ms", "4,32", "--qs", "0.01,0.15",
                 "--out", str(out)]) == EXIT_OK
    _, _, rows = read_csv(out)
    assert len(rows) == 4
    assert all(r["demand"] == "0.4" and r["skew"] == "1" for r in rows)
    small = next(r for r in rows if r["m"] == "4" and r["q"] == "0.01")
    big = next(r for r in rows if r["m"] == "32" and r["q"] == "0.15")
    assert float(big["ratio_thr_optimistic"]) < float(
        small["ratio_thr_optimistic"])
    assert "optimistic" in capsys.readouterr().out


@pytest.mark.parametrize("argv,summary", [
    ([], ["q=0.01 demand=0.4  optimistic: m >= 8; conservative: m >= 16",
          "q=0.05 demand=0.4  optimistic: m >= 8; conservative: m >= 16",
          "q=0.1 demand=0.4  optimistic: m >= 8; conservative: m >= 16",
          "q=0.15 demand=0.4  optimistic: m >= 8; conservative: not reached"]),
    # conservative reads 0.997 at m = 32 but 1.063 at m = 64
    (["--skew", "0", "--qs", "0.11"],
     ["q=0.11 demand=0.4  optimistic: m >= 8; conservative: not reached"]),
    # all three m read below 1 in both modes, listed largest first
    (["--ms", "64,32,16", "--qs", "0.05"],
     ["q=0.05 demand=0.4  optimistic: m >= 16; conservative: m >= 16"]),
    # inputs are named as given, not rounded to 6 digits
    (["--ms", "64,32,16", "--qs", "0.0512345678", "--demands", "0.4000001"],
     ["q=0.0512345678 demand=0.4000001  optimistic: m >= 16; "
      "conservative: m >= 16"]),
])
def test_breakeven_summary_names_the_m_from_which_every_larger_m_wins(
        argv, summary, tmp_path, capsys):
    assert main(["breakeven", *argv,
                 "--out", str(tmp_path / "be.csv")]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == summary


@pytest.mark.parametrize("argv", [
    ["sweep", "--ms", "32", "--qs", "0.99", "--demands", "0.6", "--skews", "1",
     "--max-attempts", "1"],
    ["breakeven", "--ms", "64", "--qs", "0.99", "--max-attempts", "1"],
])
def test_an_underflowing_success_leaves_its_throughput_ratio_empty(
        argv, tmp_path, capsys):
    # P_lower = 0.01^352 underflows to 0, and the lottery's throughput too
    out, svg = tmp_path / "out.csv", tmp_path / "map.svg"
    assert main([*argv, "--out", str(out), "--svg", str(svg)]) == EXIT_OK
    _, _, rows = read_csv(out)
    assert [(r["ratio_thr_optimistic"], r["ratio_thr_conservative"])
            for r in rows] == [("", "")]
    assert float(rows[0]["ratio_l_conservative"]) > 0
    if argv[0] == "breakeven":
        assert "n/a" in svg.read_text()
        assert capsys.readouterr().out == (
            "q=0.99 demand=0.4  optimistic: not reached; "
            "conservative: not reached\n")


def test_verify_quantum_pass_and_json(tmp_path):
    report = tmp_path / "report.json"
    code = main(["verify-quantum", "--caps", "3,3,3,3", "--k-req", "4",
                 "--draws", "20000", "--json", str(report)])
    assert code == EXIT_OK
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert payload["support_violations"] == 0


def test_verify_quantum_rejects_pooled_conditional_uniformity(tmp_path,
                                                             capsys):
    # at the default seed the pooled test reads p = 0.5162, below 0.999
    report = tmp_path / "report.json"
    assert main(["verify-quantum", "--caps", "2,2,2,2,2", "--k-req", "3",
                 "--draws", "2000", "--alpha", "0.999",
                 "--json", str(report)]) == EXIT_VERIFY
    message = "conditional uniformity rejected (p=0.5162 < 0.999)"
    assert message in capsys.readouterr().out
    payload = json.loads(report.read_text(), parse_constant=_reject_constant)
    assert payload["passed"] is False
    assert message in payload["failures"]


@pytest.mark.parametrize("alpha", ["nan", "2", "1", "0", "-0.5", "inf"])
def test_verify_quantum_alpha_must_lie_in_the_unit_interval(alpha, capsys):
    # nan used to PASS every state (p < nan is never true), 2 to FAIL it
    assert main(["verify-quantum", "--caps", "3,3,3,3", "--k-req", "4",
                 "--draws", "2000", "--alpha", alpha]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --alpha must lie in (0, 1)")
    assert captured.out == ""


def _damage_first_amplitude(monkeypatch, damage):
    """Make verify-quantum check its built state with amps[0] replaced by
    damage(amps[0])."""
    build = cli.build_embedded

    def damaged(*args):
        state = build(*args)
        amps = state.amps.copy()
        amps[0] = damage(amps[0])
        return dheac.SparseState(state.subsets, state.offsets, state.vectors,
                                 amps)

    monkeypatch.setattr(cli, "build_embedded", damaged)


def test_verify_quantum_nan_amplitude_fails_with_null_statistics(
        tmp_path, monkeypatch):
    _damage_first_amplitude(monkeypatch, lambda amp: float("nan"))
    report = tmp_path / "report.json"
    assert main(["verify-quantum", "--caps", "3,3,3,3", "--k-req", "4",
                 "--draws", "2000", "--json", str(report)]) == EXIT_VERIFY
    payload = json.loads(report.read_text(), parse_constant=_reject_constant)
    assert payload["passed"] is False
    assert len(payload["failures"]) == 3
    for key in ("norm_dev", "marginal_max_dev", "conditional_max_dev",
                "outer_chi2", "pooled_pvalue", "min_expected_cell"):
        assert payload[key] is None


@pytest.mark.parametrize("point", [
    # 116,396,280 labels over C(20, 14) = 38,760 subsets
    ["--m", "20", "--skew", "0", "--demand", "0.6"],
    # C(24, 14) = 1,961,256 subsets
    ["--m", "24", "--skew", "0", "--demand", "0.5"],
])
def test_verify_quantum_past_the_sparse_guard_is_a_usage_error(point,
                                                               capsys):
    assert main(["verify-quantum", *point]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "sparse guard" in captured.err
    assert captured.out == ""


def test_verify_quantum_corruption_hook(capsys, monkeypatch):
    # one amplitude 5% too large trips the norm and outer marginal checks,
    # so nothing is sampled and every statistic prints as nan
    _damage_first_amplitude(monkeypatch, lambda amp: amp * 1.05)
    assert main(["verify-quantum", "--caps", "3,3,3,3", "--k-req", "4",
                 "--draws", "2000"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "state: m=4 K=2 k_req=4 subsets=6 outcomes=6 draws=2000\n"
        "norm deviation: 1.708e-02\n"
        "outer marginal max deviation: 1.708e-02\n"
        "conditional max deviation: 0.000e+00\n"
        "feasibility violations: support=0 drawn=0\n"
        "outer uniformity: chi2=nan dof=0 p=nan\n"
        "conditional uniformity (pooled): chi2=nan dof=0 p=nan\n"
        "min expected cell count: inf\n"
        "fairness: jain=nan\n"
        "result: FAIL  (norm^2 deviates from 1 by 1.708e-02; outer marginal "
        "deviates from uniform by 1.708e-02)\n")


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("argv, code", [
    # K = m: one winner subset, so the outer test is vacuous
    (["--caps", "3,3,3,3", "--k-req", "10"], EXIT_OK),
    # a damaged state (see test_verify_quantum_corruption_hook)
    (["--caps", "3,3,3,3", "--k-req", "4"], EXIT_VERIFY),
])
def test_verify_quantum_json_is_strict(tmp_path, monkeypatch, argv, code):
    if code == EXIT_VERIFY:
        _damage_first_amplitude(monkeypatch, lambda amp: amp * 1.05)
    report = tmp_path / "report.json"
    assert main(["verify-quantum", *argv, "--draws", "2000",
                 "--json", str(report)]) == code
    payload = json.loads(report.read_text(), parse_constant=_reject_constant)
    if code == EXIT_OK:
        assert payload["n_subsets"] == 1
        assert payload["outer_pvalue"] == 1.0
    else:
        # a structural failure skips sampling: no statistic was computed
        for name in ("outer_chi2", "outer_pvalue", "pooled_chi2",
                     "pooled_pvalue", "min_expected_cell", "jain"):
            assert payload[name] is None


def test_mc_dump_shape(tmp_path):
    out = tmp_path / "mc.csv"
    assert main(["mc", "--caps", "3,3,3,3", "--k-req", "4", "--q", "0",
                 "--trials", "25", "--seed", "5", "--out", str(out)]) == EXIT_OK
    comments, header, rows = read_csv(out)
    # no skew= field: hand-given caps come from no skew
    assert comments[2] == "# m=4 total=12 caps=3,3,3,3 k_req=4 K=2"
    assert header == ["trial", "succeeded", "attempts_total", "latency",
                      "winners", "quotas"]
    assert len(rows) == 25
    # loss-free conservative accounting: 4 + 8 + 4 qubits, one attempt each
    assert all(r["attempts_total"] == "16" for r in rows)
    assert all(r["succeeded"] == "1" for r in rows)
    assert [int(v) for v in rows[3]["quotas"].split(";")] == [2, 2]


def test_mc_dump_chi_picks_an_accounting_of_the_same_rounds(tmp_path):
    rows = {}
    for chi in LATENCY_MODES:
        out = tmp_path / f"{chi}.csv"
        assert main(["mc", "--m", "8", "--skew", "1", "--demand", "0.4",
                     "--q", "0.2", "--chi", chi, "--trials", "60",
                     "--seed", "9", "--out", str(out)]) == EXIT_OK
        rows[chi] = read_csv(out)[2]
    opt, cons = rows["optimistic"], rows["conservative"]
    for col in ("winners", "quotas"):
        assert [r[col] for r in opt] == [r[col] for r in cons]
    # the conservative accounting only adds qubits to the same round
    for o, c in zip(opt, cons):
        assert int(c["succeeded"]) <= int(o["succeeded"])
        assert int(c["attempts_total"]) >= int(o["attempts_total"])
        assert float(c["latency"]) >= float(o["latency"])


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 8), skew=st.floats(0.0, 2.0), seed=st.integers(0, 99),
       chi=st.sampled_from(LATENCY_MODES), data=st.data())
def test_mc_dump_rows_keep_the_round_invariants(m, skew, seed, chi, data):
    net = generate_network(m, skew, 8 * m)
    k_req = data.draw(st.integers(1, net.total))
    K = safe_select_k(k_req, net.caps, ModelParams().beta)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "mc.csv")
        assert main(["mc", "--caps", ",".join(map(str, net.caps)),
                     "--k-req", str(k_req), "--q", "0.1", "--chi", chi,
                     "--trials", "40", "--seed", str(seed),
                     "--out", out]) == EXIT_OK
        _, _, rows = read_csv(out)
    assert [int(r["trial"]) for r in rows] == list(range(40))
    for r in rows:
        winners = [int(v) for v in r["winners"].split(";")]
        quotas = [int(v) for v in r["quotas"].split(";")]
        assert len(winners) == len(quotas) == K
        assert winners == sorted(set(winners))
        assert all(0 <= i < m for i in winners)
        assert sum(quotas) == k_req
        assert all(q <= net.caps[i] for i, q in zip(winners, quotas))


def test_mc_dump_is_the_batch_kernel_across_blocks(tmp_path, monkeypatch):
    # tiny blocks: the dump must number rows across block boundaries and
    # consume the same stream as simulate_batch
    monkeypatch.setattr(lottery, "_BLOCK", 7)
    out = tmp_path / "mc.csv"
    assert main(["mc", "--m", "8", "--skew", "1", "--demand", "0.4",
                 "--q", "0.2", "--chi", "optimistic", "--trials", "25",
                 "--seed", "3", "--out", str(out)]) == EXIT_OK
    _, _, rows = read_csv(out)
    assert [int(r["trial"]) for r in rows] == list(range(25))
    net = generate_network(8, 1.0, 80)
    stats = simulate_batch(net, Request(32), ModelParams(q=0.2),
                           "optimistic", 25, trial_rng(3))
    assert sum(int(r["succeeded"]) for r in rows) == round(
        stats.success_rate * 25)
    assert sum(float(r["latency"]) for r in rows) / 25 == pytest.approx(
        stats.latency_mean, rel=1e-9)


def test_mc_dump_winners_follow_the_exact_win_law(tmp_path):
    # per QLAN, mean quota over capacity across the dump's rows
    net = generate_network(8, 1.5, 80)
    k_req = demand_to_kreq(0.2, net.total)
    trials = 4000
    out = tmp_path / "mc.csv"
    assert main(["mc", "--m", "8", "--skew", "1.5", "--demand", "0.2",
                 "--q", "0", "--trials", str(trials), "--seed", "13",
                 "--out", str(out)]) == EXIT_OK
    share = np.zeros((trials, net.m))
    for t, r in enumerate(read_csv(out)[2]):
        winners = [int(v) for v in r["winners"].split(";")]
        quotas = [int(v) for v in r["quotas"].split(";")]
        share[t, winners] = quotas
    caps = np.array(net.caps)
    assert (caps > 0).all()
    share /= caps
    se = share.std(axis=0) / np.sqrt(trials)
    exact = exact_node_probs(net, Request(k_req))[np.cumsum(caps) - 1]
    assert (np.abs(share.mean(axis=0) - exact) <= 5 * se + 1e-12).all()
    # a skewed network: the law is not flat, so the check has teeth
    assert exact.max() - exact.min() > 0.05


# every dump column is >= 0
_INTS = st.integers(0, 10 ** 12)


@settings(max_examples=200, deadline=None)
@given(trial=st.integers(0, 10 ** 9), ok=st.booleans(), attempts=_INTS,
       latency=st.floats() | st.sampled_from(
           [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300]),
       lists=st.integers(1, 40).flatmap(
           lambda k: st.tuples(*[st.lists(_INTS, min_size=k, max_size=k)] * 2)))
@example(trial=0, ok=True, attempts=0, latency=5e-324, lists=([7], [3]))
def test_dump_int_lists_format_as_the_generic_path(trial, ok, attempts,
                                                   latency, lists):
    # one row of the block encoder is the per-cell _fmt path, int lists
    # ';'-joined
    winners, quotas = lists
    cells = [trial, ok, attempts, latency,
             ";".join(_fmt(v) for v in winners),
             ";".join(_fmt(v) for v in quotas)]
    line = _dump_text(trial, np.array([ok]), np.array([attempts]),
                      np.array([latency]), np.array([winners]),
                      np.array([quotas]))
    assert line == ",".join(_fmt(cell) for cell in cells) + "\n"


_INT64 = st.one_of(
    st.integers(0, 2 ** 63 - 1), st.sampled_from([0, 9, 10, 99, 100]),
    st.integers(10 ** 18, 2 ** 63 - 1))


@settings(max_examples=300, deadline=None)
@given(values=(st.tuples(st.integers(1, 5), st.integers(1, 5))
               | st.sampled_from([(1, 1), (1, 7), (7, 1)])).flatmap(
           lambda shape: st.lists(st.lists(_INT64, min_size=shape[1],
                                           max_size=shape[1]),
                                  min_size=shape[0], max_size=shape[0])),
       sep=st.sampled_from(",;"))
@example(values=[[0, 2 ** 63 - 1], [9, 10]], sep=";")
def test_ascii_cells_are_str_of_each_int64_right_aligned(values, sep):
    rows, cols = len(values), len(values[0])
    out = _ascii_cells(np.array(values, dtype=np.int64), sep)
    width = max(len(str(v)) for row in values for v in row) + 1
    assert out.dtype == np.uint8 and out.shape == (rows, cols * width)
    # each cell: NUL padding, then the digits str() gives, then sep
    assert [[bytes(out[r, c * width:(c + 1) * width]) for c in range(cols)]
            for r in range(rows)] == [
        [(str(v) + sep).rjust(width, "\0").encode() for v in row]
        for row in values]


@pytest.mark.parametrize("values", [[[-1]], [[0, 5], [7, -2 ** 63]]])
def test_ascii_cells_refuse_a_negative_cell(values):
    with pytest.raises(InvariantViolationError, match="negative dump cell"):
        _ascii_cells(np.array(values, dtype=np.int64), ",")


def _reference_dump_rows(argv) -> str:
    """Header and rows of an mc dump, one csv.writer row of _fmt cells per
    round, read straight off the round kernel."""
    args = cli.build_parser().parse_args(argv)
    net, _, k_req, params = cli._point_inputs(args)
    req = Request(k_req)
    acct = LATENCY_MODES.index(args.chi)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MC_FIELDS)
    trial = 0
    for arrangement, quotas, ok, attempts, lat in lottery.sample_rounds(
            net, req, params, args.trials, trial_rng(args.seed)):
        for r in range(len(quotas)):
            order = np.argsort(arrangement[r])
            cells = [trial, bool(ok[acct, r]), int(attempts[acct, r]),
                     float(lat[acct, r]),
                     ";".join(_fmt(int(v)) for v in arrangement[r, order]),
                     ";".join(_fmt(int(v)) for v in quotas[r, order])]
            writer.writerow([_fmt(cell) for cell in cells])
            trial += 1
    return buf.getvalue()


@pytest.mark.parametrize("chi", LATENCY_MODES)
@pytest.mark.parametrize("point, trials, block", [
    # latencies of more than ten significant digits
    (["--caps", "3", "--k-req", "3", "--t-dist", "0.012345678901"], 40, None),
    (["--m", "32", "--skew", "1", "--demand", "0.6"], 300, None),
    (["--m", "8", "--skew", "1", "--demand", "0.4", "--q", "0.2"], 40, 7),
    # more rows than one dump piece (1057 at this point's K = 31)
    (["--m", "32", "--skew", "1", "--demand", "0.6"], 2500, None),
], ids=["K1", "m32", "rows-cross-blocks", "rows-cross-pieces"])
def test_mc_dump_bytes_equal_a_csv_writer_reference(chi, point, trials, block,
                                                    tmp_path, capsys,
                                                    monkeypatch):
    if block is not None:
        monkeypatch.setattr(lottery, "_BLOCK", block)
    argv = ["mc", *point, "--chi", chi, "--trials", str(trials),
            "--seed", "11"]
    expected = _reference_dump_rows(argv)
    out = tmp_path / "mc.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    with open(out, newline="") as fh:
        text = fh.read()
    lines = text.splitlines(keepends=True)
    assert len(lines) == 4 + 1 + trials
    assert all(line.startswith("# ") for line in lines[:4])
    assert "".join(lines[4:]) == expected
    # stdout carries the same bytes
    assert main([*argv, "--out", "-"]) == EXIT_OK
    assert capsys.readouterr().out == text


def test_mc_dump_memory_stays_within_the_block_budget_at_large_m(
        tmp_path, monkeypatch):
    # a small budget, and enough blocks that the dump's text outgrows it:
    # text must be built and written a block at a time, never whole
    monkeypatch.setattr(lottery, "_BLOCK_BYTES", 4 << 20)
    net = generate_network(1024, 1.0, 10240)
    params = ModelParams()
    K = safe_select_k(demand_to_kreq(0.4, net.total), net.caps, params.beta)
    trials = 24 * lottery._block_rows(net.m, K, params.max_attempts) + 1
    out = tmp_path / "mc.csv"
    tracemalloc.start()
    try:
        code = main(["mc", "--m", "1024", "--skew", "1", "--demand", "0.4",
                     "--trials", str(trials), "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert len(read_csv(out)[2]) == trials
    assert out.stat().st_size > lottery._BLOCK_BYTES
    assert peak < lottery._BLOCK_BYTES


def test_sweep_rejects_nonpositive_workers(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *ONE_CELL, "--qs", "0.05", "--skews", "0",
                 "--workers", "0", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        "error: --workers must be >= 1, got 0")
    assert not out.exists()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces ProcessPoolExecutor with a stand-in that records its
    max_workers, starts no process and maps in this one."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    return sizes


def test_sweep_pool_has_at_most_one_worker_per_grid_point(tmp_path,
                                                          pool_sizes):
    args = ["sweep", "--ms", "4,8", "--qs", "0.05", "--demands", "0.4",
            "--skews", "0", "--mode", "mc", "--trials", "10"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*args, "--workers", str(cli.MAX_WORKERS),
                 "--out", str(a)]) == EXIT_OK
    assert pool_sizes == [2]
    assert main([*args, "--workers", "1", "--out", str(b)]) == EXIT_OK
    assert pool_sizes == [2]
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rejects_workers_above_the_limit(tmp_path, pool_sizes, capsys):
    out = tmp_path / "sweep.csv"
    workers = cli.MAX_WORKERS + 1
    assert main(["sweep", *ONE_CELL, "--qs", "0.05", "--skews", "0",
                 "--workers", str(workers), "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: --workers must be <= {cli.MAX_WORKERS}, got {workers}")
    assert captured.out == ""
    assert not out.exists()
    assert pool_sizes == []


@pytest.mark.parametrize("argv", [
    ["sweep", *ONE_CELL, "--qs", "0.05", "--skews", "0", "--mode", "both",
     "--trials", "10"],
    ["fairness", *ONE_CELL, "--skews", "0"],
    ["breakeven", "--ms", "4", "--qs", "0.05"],
    ["mc", "--caps", "3,3,3,3", "--k-req", "4", "--trials", "5"],
    ["verify-quantum", "--caps", "3,3,3,3", "--k-req", "4", "--draws", "100"],
])
def test_an_overflowing_beta_target_falls_back_to_k_req(argv, capsys):
    # (1 + 1e308) * k_req is inf; like any target above the total capacity
    # it falls back to k_req
    assert main([*argv, "--beta", "1e308"]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


def test_verify_quantum_draw_time_does_not_grow_with_draws(tmp_path):
    report = tmp_path / "report.json"
    start = time.perf_counter()
    assert main(["verify-quantum", "--caps", "3,3,3,3", "--k-req", "4",
                 "--draws", str(10 ** 12), "--json", str(report)]) == EXIT_OK
    assert time.perf_counter() - start < 5.0
    assert json.loads(report.read_text())["draws"] == 10 ** 12


def test_verify_quantum_rejects_draws_beyond_int64(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("the state was built before --draws was checked")

    monkeypatch.setattr(cli, "build_embedded", no_build)
    draws = np.iinfo(np.int64).max + 1
    for argv in (["--caps", "3,3,3,3", "--k-req", "4"],
                 # the 720,720-label cell, which must not be built first
                 ["--m", "16", "--skew", "0", "--demand", "0.6"]):
        assert main(["verify-quantum", *argv,
                     "--draws", str(draws)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: draws must lie in")
        assert captured.out == ""


# each names more than MAX_NODES QLANs or nodes
@pytest.mark.parametrize("argv", [
    # 1,100,000 nodes over fewer than MAX_NODES QLANs
    ["fairness", "--ms", "110000", "--demands", "0.4", "--skews", "1"],
    ["sweep", "--ms", "110000", "--qs", "0.05", "--demands", "0.4", "--skews",
     "1", "--mode", "mc", "--trials", "10"],
    ["breakeven", "--ms", "2000000", "--qs", "0.05"],
    ["mc", "--m", "4", "--total", "4000000000", "--demand", "0.4",
     "--trials", "10"],
    ["mc", "--m", str(2 ** 20 + 1), "--total", "10", "--k-req", "4"],
    ["verify-quantum", "--m", "4", "--total", "4000000000", "--k-req", "4"],
    ["verify-quantum", "--m", "200000", "--k-req", "4"],  # 10 * m nodes
    ["verify-quantum", "--caps", "4000000000,1", "--k-req", "4"],
])
def test_oversized_networks_exit_before_they_are_built(argv):
    # a 3 GiB address space: building any of these networks' per-node
    # arrays would fail with a traceback, or take far longer than 2 s
    src = os.path.dirname(os.path.dirname(dheac.__file__))
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
            "from dheac.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: a network of ")
    assert f"limit of {netgen.MAX_NODES}" in proc.stderr
    assert proc.stdout == ""
    assert elapsed < 2.0


def test_calls_in_one_process_share_a_parser_and_act_as_separate_calls(
        capsys):
    # a parse that fails in a subcommand's flags, then two commands
    calls = [["mc", "--m", "4", "--trials", "ten"],
             ["breakeven", "--ms", "4", "--qs", "0.05", "--out", "-"],
             ["sweep", *ONE_CELL, "--qs", "0.05", "--skews", "0"]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    separate = []
    for argv in calls:
        cli._parser.cache_clear()
        separate.append(run(argv))
    cli._parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    assert shared == separate
    assert [code for code, _ in shared] == [EXIT_USAGE, EXIT_OK, EXIT_OK]
    assert "invalid int value: 'ten'" in shared[0][1].err


def test_mc_and_verify_quantum_read_the_same_point_flags(capsys):
    parser = cli.build_parser()
    point = ["--m", "6", "--skew", "1.5", "--total", "40", "--caps", "2,3",
             "--k-req", "3", "--demand", "0.5"]
    keys = ("m", "skew", "total", "caps", "k_req", "demand")
    for argv in ([], point):
        mc = vars(parser.parse_args(["mc", *argv]))
        verify = vars(parser.parse_args(["verify-quantum", *argv]))
        assert {k: mc[k] for k in keys} == {k: verify[k] for k in keys}
    assert {k: mc[k] for k in keys} == dict(
        m=6, skew=1.5, total=40, caps=(2, 3), k_req=3, demand=0.5)
    # --caps gives the network, so both refuse each flag it would ignore
    for command in ("mc", "verify-quantum"):
        for flag, value in (("--m", "2"), ("--skew", "0"), ("--total", "5")):
            assert main([command, "--caps", "2,3", flag, value,
                         "--k-req", "3"]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.err == ("error: --caps gives the network: drop "
                                    "--m, --skew and --total\n")
            assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["sweep", "--ms", "4", "--qs", "0.05", "--demands", "0.4",
     "--skews", "0", "--mode", "mc", "--trials", "10"],
    ["fairness", "--ms", "4", "--demands", "0.4", "--skews", "0"],
    ["verify-quantum", "--m", "4", "--k-req", "4"],
    ["mc", "--caps", "3,3,3,3", "--k-req", "4", "--trials", "5"],
])
def test_negative_seed_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    flag = "--json" if argv[0] == "verify-quantum" else "--out"
    assert main([*argv, "--seed", "-1", flag, str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --seed must be >= 0, got -1")
    assert captured.out == ""
    assert not out.exists()


def test_mc_shortage_exit():
    assert main(["mc", "--caps", "2,2", "--k-req", "5",
                 "--trials", "5"]) == EXIT_SHORTAGE


def test_an_invariant_violation_exits_4_with_no_output(tmp_path, monkeypatch,
                                                       capsys):
    def violated(*args):
        raise InvariantViolationError("quotas do not sum to k_req")

    monkeypatch.setattr(cli, "sample_rounds", violated)
    out = tmp_path / "trials.csv"
    assert main(["mc", "--caps", "3,3,3,3", "--k-req", "4", "--trials", "5",
                 "--out", str(out)]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.err == "error: quotas do not sum to k_req\n"
    assert captured.out == ""
    assert not out.exists()


def test_usage_errors():
    assert main(["mc", "--caps", "3,3"]) == EXIT_USAGE
    assert main(["mc", "--caps", "3,3", "--k-req", "2", "--demand",
                 "0.5"]) == EXIT_USAGE
    assert main(["verify-quantum", "--k-req", "4"]) == EXIT_USAGE


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_mc_rejects_nonpositive_trials(trials, capsys):
    assert main(["mc", "--caps", "3,3,3,3", "--k-req", "4",
                 "--trials", trials]) == EXIT_USAGE
    assert "--trials must be >= 1" in capsys.readouterr().err


def test_io_error_exit():
    assert main(["breakeven", "--ms", "2", "--qs", "0.05",
                 "--out", "/nonexistent-dir/x.csv"]) == EXIT_IO



@pytest.mark.parametrize("argv, field", [
    (["sweep", *ONE_CELL, "--skews", "0", "--t-dist", "inf"], "t_dist"),
    (["sweep", *ONE_CELL, "--skews", "0", "--mode", "mc", "--trials", "10",
      "--t-gen", "nan"], "t_gen"),
    (["mc", "--caps", "3,3,3,3", "--k-req", "4", "--beta", "nan"], "beta"),
    (["fairness", *ONE_CELL, "--skews", "0", "--beta", "inf"], "beta"),
    (["fairness", *ONE_CELL, "--skews", "nan"], "skew"),
    # an infinite skew used to run as its limit and be echoed as inf
    (["sweep", *ONE_CELL, "--qs", "0.05", "--skews", "inf"], "skew"),
    (["fairness", *ONE_CELL, "--skews", "1e400"], "skew"),
    (["breakeven", "--ms", "4", "--qs", "0.05", "--skew", "inf"], "skew"),
    (["mc", "--m", "4", "--skew", "inf", "--k-req", "4"], "skew"),
    (["mc", "--m", "2", "--skew", "nan", "--k-req", "2"], "skew"),
    (["mc", "--m", "2", "--skew", "-1", "--k-req", "2"], "skew"),
])
def test_non_finite_model_inputs_are_usage_errors(argv, field, tmp_path,
                                                  capsys):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be")
    assert not out.exists()


def test_mc_rejects_a_max_attempts_beyond_the_block_budget(tmp_path, capsys):
    # one trial's outcome table alone would hold 8 * (10^7 + 15) bytes
    out = tmp_path / "mc.csv"
    assert main(["mc", "--caps", "3,3", "--k-req", "2", "--trials", "2",
                 "--max-attempts", "10000000", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: max_attempts=10000000 ")
    assert not out.exists()


@pytest.mark.parametrize("method", ["auto", "exact", "mc"])
def test_fairness_rejects_nonpositive_trials(method, tmp_path, capsys):
    # every cell of this grid is exact, so only the check can refuse it
    out = tmp_path / "fair.csv"
    assert main(["fairness", "--method", method, "--trials", "0",
                 *ONE_CELL, "--skews", "0", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        "error: --trials must be >= 1, got 0")
    assert not out.exists()


def test_fairness_refuses_trials_past_exact_quota_sums(tmp_path, capsys):
    # skew 0: one capacity class, so the trials only scale one composition
    out = tmp_path / "fair.csv"
    assert main(["fairness", "--ms", "32", "--demands", "0.4", "--skews", "0",
                 "--trials", str(10 ** 18), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: trials={10 ** 18} times 320 nodes reach 2^53\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, value", [
    (["sweep", *ONE_CELL, "--qs", "0.05", "--skews", "0", "--mode",
      "analytic"], "--trials", "-5"),
    (["verify-quantum", "--m", "4", "--k-req", "4"], "--draws", "0"),
])
def test_nonpositive_count_flag_is_a_usage_error(argv, flag, value, tmp_path,
                                                 capsys):
    out = tmp_path / "out"
    out_flag = "--json" if argv[0] == "verify-quantum" else "--out"
    assert main([*argv, flag, value, out_flag, str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: {flag} must be >= 1, got {value}")
    assert captured.out == ""
    assert not out.exists()


def test_cli_import_does_not_load_scipy_stats():
    src = os.path.dirname(os.path.dirname(dheac.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    # nor the process pool, which only --workers > 1 starts, nor json,
    # which only the verify report reads
    code = ("import sys, dheac.cli; print('scipy.stats' in sys.modules); "
            "print(sorted(m for m in sys.modules if m == 'json' or "
            "m.startswith(('scipy', 'concurrent', 'multiprocessing'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["False", "[]"]


GOLDEN = os.path.join(os.path.dirname(__file__), "golden.json")


def test_reproduce_results_script_writes_every_artifact(tmp_path, capsys):
    # the artifacts' sha256, and the stdout, stderr and exit code of a few
    # edge argvs, pin every output byte across commits; a change that moves
    # one rewrites tests/golden.json and says why
    script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                          "reproduce_results.py")
    proc = subprocess.run([sys.executable, script, "--quick", "--workers",
                           "1", "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path)) == [
        "breakeven.csv", "breakeven_ratio.svg", "ecdf", "fairness.csv",
        "latency_ratio.svg", "sweep_analytic.csv", "sweep_mc.csv",
        "trials_m8_skew1_d0.4.csv", "verify_skewed.json",
        "verify_symmetric.json"]
    assert len(os.listdir(tmp_path / "ecdf")) == 5
    assert len(read_csv(tmp_path / "trials_m8_skew1_d0.4.csv")[2]) == 1000
    for name in ("verify_skewed.json", "verify_symmetric.json"):
        assert json.loads((tmp_path / name).read_text())["passed"] is True
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    made_with = golden["versions"]
    running = {name: version(name) for name in made_with}
    assert running == made_with, (
        f"tests/golden.json was made with numpy {made_with['numpy']} and "
        f"scipy {made_with['scipy']}; this is numpy {running['numpy']} and "
        f"scipy {running['scipy']}, whose outputs may differ: regenerate it "
        f"with {golden['command']}")
    digests = {path.relative_to(tmp_path).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.rglob("*")) if path.is_file()}
    assert digests == golden["sha256"]
    # a sparse-guard refusal, an oversized network, an underflowing
    # success probability and a rejected outer uniformity test
    for edge in golden["edges"]:
        code = main(edge["argv"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            edge["exit"], edge["stdout"], edge["stderr"]), edge["argv"]
