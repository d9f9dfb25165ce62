"""End-to-end command tests through main(), exercising every exit code."""

import csv
import json
import os
import subprocess
import sys
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import numpy as np

import dheac
from dheac import (
    LATENCY_MODES,
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
from dheac import cli, lottery
from dheac.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_SHORTAGE,
    EXIT_USAGE,
    EXIT_VERIFY,
    _fmt,
    _fmt_ints,
    main,
)

TINY_GRID = ["--ms", "4,8", "--qs", "0.05", "--demands", "0.4",
             "--skews", "0,1"]


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


def test_grid_file_overrides_and_validation(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"ms": [4], "qs": [0.0], "demands": [0.4],
                                "skews": [0.0], "t_dist": 0.1}))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == EXIT_OK
    comments, _, rows = read_csv(out)
    assert len(rows) == 1
    assert any("t_dist=0.1" in c for c in comments)

    grid.write_text(json.dumps({"bogus": 1}))
    assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == EXIT_USAGE


@pytest.mark.parametrize("grid, key", [
    ({"ms": 5}, "ms"),
    ({"max_attempts": "x"}, "max_attempts"),
    ({"qs": [None]}, "qs"),
    ({"max_attempts": 2.5}, "max_attempts"),
    ({"ms": [4.7]}, "ms"),
    ({"nodes_per_qlan": 10.5}, "nodes_per_qlan"),
    ({"rounds": True}, "rounds"),
    ({"skews": "0,1"}, "skews"),
    ({"ms": []}, "ms"),
])
def test_malformed_grid_files_are_usage_errors(grid, key, tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--grid", str(path), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {key} must ")
    assert not out.exists()


def test_integral_floats_in_a_grid_file_are_counts(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"ms": [4.0], "qs": [0.05], "demands": [0.4],
                                "skews": [1], "max_attempts": 3.0}))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == EXIT_OK
    comments, _, rows = read_csv(out)
    assert [r["m"] for r in rows] == ["4"]
    assert any(c.endswith("max_attempts=3") for c in comments)


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


def test_fairness_exact_guard_is_a_usage_error(tmp_path):
    code = main(["fairness", "--method", "exact", "--ms", "32", "--demands",
                 "0.4", "--skews", "0", "--trials", "10000",
                 "--out", str(tmp_path / "f.csv")])
    assert code == EXIT_USAGE


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


def test_verify_quantum_pass_and_json(tmp_path):
    report = tmp_path / "report.json"
    code = main(["verify-quantum", "--caps", "3,3,3,3", "--k-req", "4",
                 "--draws", "20000", "--json", str(report)])
    assert code == EXIT_OK
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert payload["support_violations"] == 0


@pytest.mark.parametrize("alpha", ["nan", "2", "1", "0", "-0.5", "inf"])
def test_verify_quantum_alpha_must_lie_in_the_unit_interval(alpha, capsys):
    # nan used to PASS every state (p < nan is never true), 2 to FAIL it
    assert main(["verify-quantum", "--caps", "3,3,3,3", "--k-req", "4",
                 "--draws", "2000", "--alpha", alpha]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --alpha must lie in (0, 1)")
    assert captured.out == ""


def test_verify_quantum_nan_amplitude_fails_with_null_statistics(
        tmp_path, monkeypatch):
    build = cli.build_embedded

    def nan_state(*args):
        state = build(*args)
        amps = state.amps.copy()
        amps[0] = float("nan")
        return dheac.SparseState.from_arrays(state.subsets, state.offsets,
                                             state.vectors, amps)

    monkeypatch.setattr(cli, "build_embedded", nan_state)
    report = tmp_path / "report.json"
    assert main(["verify-quantum", "--caps", "3,3,3,3", "--k-req", "4",
                 "--draws", "2000", "--json", str(report)]) == EXIT_VERIFY
    payload = json.loads(report.read_text(), parse_constant=_reject_constant)
    assert payload["passed"] is False
    assert len(payload["failures"]) == 3
    for key in ("norm_dev", "marginal_max_dev", "conditional_max_dev",
                "outer_chi2", "pooled_pvalue", "min_expected_cell"):
        assert payload[key] is None


def test_verify_quantum_corruption_hook():
    assert main(["verify-quantum", "--caps", "3,3,3,3", "--k-req", "4",
                 "--draws", "2000", "--corrupt"]) == EXIT_VERIFY


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("argv, code", [
    # K = m: one winner subset, so the outer test is vacuous
    (["--caps", "3,3,3,3", "--k-req", "10"], EXIT_OK),
    (["--caps", "3,3,3,3", "--k-req", "4", "--corrupt"], EXIT_VERIFY),
])
def test_verify_quantum_json_is_strict(tmp_path, argv, code):
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
                     "pooled_pvalue", "min_expected_cell", "jain_uniform"):
            assert payload[name] is None


def test_mc_dump_shape(tmp_path):
    out = tmp_path / "mc.csv"
    assert main(["mc", "--caps", "3,3,3,3", "--k-req", "4", "--q", "0",
                 "--trials", "25", "--seed", "5", "--out", str(out)]) == EXIT_OK
    _, header, rows = read_csv(out)
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


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.integers(-10 ** 6, 10 ** 12), max_size=40))
def test_dump_int_lists_format_as_the_generic_path(values):
    assert _fmt_ints(values) == ";".join(_fmt(v) for v in values)


def test_sweep_rejects_nonpositive_workers(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *ONE_CELL, "--qs", "0.05", "--skews", "0",
                 "--workers", "0", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        "error: --workers must be >= 1, got 0")
    assert not out.exists()


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


ONE_CELL = ["--ms", "4", "--demands", "0.4"]


@pytest.mark.parametrize("argv, field", [
    (["sweep", *ONE_CELL, "--skews", "0", "--t-dist", "inf"], "t_dist"),
    (["sweep", *ONE_CELL, "--skews", "0", "--mode", "mc", "--trials", "10",
      "--t-gen", "nan"], "t_gen"),
    (["mc", "--caps", "3,3,3,3", "--k-req", "4", "--beta", "nan"], "beta"),
    (["fairness", *ONE_CELL, "--skews", "0", "--beta", "inf"], "beta"),
    (["fairness", *ONE_CELL, "--skews", "nan"], "skew"),
])
def test_non_finite_model_inputs_are_usage_errors(argv, field, tmp_path,
                                                  capsys):
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be")


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


@pytest.mark.parametrize("argv, flag, value", [
    (["sweep", *ONE_CELL, "--qs", "0.05", "--skews", "0", "--mode",
      "analytic"], "--trials", "-5"),
    (["fairness", *ONE_CELL, "--skews", "0"], "--max-subsets", "-1"),
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
    # which only the grid file and the verify report read
    code = ("import sys, dheac.cli; print('scipy.stats' in sys.modules); "
            "print(sorted(m for m in sys.modules if m == 'json' or "
            "m.startswith(('scipy', 'concurrent', 'multiprocessing'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["False", "[]"]


def test_quota_rounding_diagnostic_script_runs():
    script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                          "quota_rounding_diagnostic.py")
    proc = subprocess.run([sys.executable, script, "--ms", "4", "--skews",
                           "0,1", "--demands", "0.1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[:4] == ["m", "skew", "demand", "K"]
    # one row per (skew, demand) cell, after the header and its rule
    rows = [line.split() for line in lines[2:4]]
    assert [row[:3] for row in rows] == [["4", "0", "0.1"], ["4", "1", "0.1"]]
    assert all(0.0 < float(row[5]) <= 1.0 for row in rows)
