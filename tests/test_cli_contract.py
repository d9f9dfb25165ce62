"""The CLI's contract with its caller: every argv ends in a documented exit
code, never in a traceback or a non-finite latency, and the '#' comment
lines that record a run's configuration keep their exact bytes."""

import contextlib
import io
import pathlib
import re
import tempfile
import time
import warnings

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from dheac import cli
from dheac.cli import EXIT_USAGE, main

# --- the '#' comment lines, byte for byte --------------------------------

PARAMS = ("t_gen=2 t_dist=0.05 t_meas=1 t_ctl=0.5 rounds=1 beta=0.1 "
          "max_attempts=3")
FILE_PARAMS = ("t_gen=3.5 t_dist=0.05 t_meas=1 t_ctl=0.5 rounds=2 beta=0.2 "
               "max_attempts=4")
# the lines of the args file that "@FILE" names, per command
SWEEP_FILE = ["--ms=4,8", "--qs=0.1", "--demands=0.2", "--skews=0.5",
              "--t-gen=3.5", "--rounds=2", "--max-attempts=4", "--beta=0.2"]
ARGS_FILES = {
    "sweep": SWEEP_FILE,
    # fairness has no q axis and takes no constant but --beta
    "fairness": ["--ms=4,8", "--demands=0.2", "--skews=0.5", "--beta=0.2"],
    # breakeven has one skew
    "breakeven": [line.replace("--skews", "--skew") for line in SWEEP_FILE],
}
SWEEP_HEAD = ["# dheac 0.1.0 sweep",
              "# mode=analytic chi=both seed=42 trials=20000"]
SWEEP_TAIL = ["# times in ms, thr in grants per ms"]
FAIRNESS_HEAD = ["# dheac 0.1.0 fairness",
                 "# method=auto seed=42 trials=10 max_subsets=1000000"]
FAIRNESS_TAIL = ["# win probabilities per request, loss-free lottery chain"]
BREAKEVEN_TAIL = ["# ratio_thr_* = baseline throughput / lottery throughput; "
                  "values < 1 favour the lottery"]


@pytest.mark.parametrize("argv, comments", [
    (["sweep"], SWEEP_HEAD + [
        "# ms=4,8,16,32 qs=0.01,0.05,0.1,0.15 demands=0.1,0.2,0.4,0.6 "
        "skews=0,0.5,1,1.5,2 nodes_per_qlan=10", "# " + PARAMS] + SWEEP_TAIL),
    (["sweep", "--ms", "4,8", "--qs", "0.05,0.1", "--demands", "0.4"],
     SWEEP_HEAD + ["# ms=4,8 qs=0.05,0.1 demands=0.4 skews=0,0.5,1,1.5,2 "
                   "nodes_per_qlan=10", "# " + PARAMS] + SWEEP_TAIL),
    (["sweep", "@FILE"], SWEEP_HEAD + [
        "# ms=4,8 qs=0.1 demands=0.2 skews=0.5 nodes_per_qlan=10",
        "# " + FILE_PARAMS] + SWEEP_TAIL),
    (["fairness", "--trials", "10"], FAIRNESS_HEAD + [
        "# ms=4,8,16,32 demands=0.1,0.2,0.4,0.6 skews=0,0.5,1,1.5,2 "
        "nodes_per_qlan=10", "# " + PARAMS] + FAIRNESS_TAIL),
    (["fairness", "--ms", "4,8", "--demands", "0.4", "--trials", "10"],
     FAIRNESS_HEAD + ["# ms=4,8 demands=0.4 skews=0,0.5,1,1.5,2 "
                      "nodes_per_qlan=10", "# " + PARAMS] + FAIRNESS_TAIL),
    # fairness takes beta alone, and prints the other constants' defaults
    (["fairness", "@FILE", "--trials", "10"], FAIRNESS_HEAD + [
        "# ms=4,8 demands=0.2 skews=0.5 nodes_per_qlan=10",
        "# " + PARAMS.replace("beta=0.1", "beta=0.2")] + FAIRNESS_TAIL),
    (["breakeven"], ["# dheac 0.1.0 breakeven",
                     "# skew=1 ms=2,4,8,16,32,64 qs=0.01,0.05,0.1,0.15 "
                     "demands=0.4 nodes_per_qlan=10",
                     "# " + PARAMS] + BREAKEVEN_TAIL),
    (["breakeven", "--ms", "4,8", "--qs", "0.05,0.1", "--demands", "0.4"],
     ["# dheac 0.1.0 breakeven",
      "# skew=1 ms=4,8 qs=0.05,0.1 demands=0.4 nodes_per_qlan=10",
      "# " + PARAMS] + BREAKEVEN_TAIL),
    (["breakeven", "@FILE"], [
        "# dheac 0.1.0 breakeven",
        "# skew=0.5 ms=4,8 qs=0.1 demands=0.2 nodes_per_qlan=10",
        "# " + FILE_PARAMS] + BREAKEVEN_TAIL),
    (["mc", "--m", "4", "--k-req", "4", "--trials", "5"], [
        "# dheac 0.1.0 mc", "# chi=conservative seed=42 trials=5",
        "# m=4 skew=0 total=40 caps=10,10,10,10 k_req=4 K=1",
        "# " + PARAMS + " q=0.05"]),
    (["mc", "--m", "4", "--k-req", "4", "--trials", "5", "--q", "0.1",
      "--t-ctl", "0.25", "--rounds", "3", "--beta", "0.2",
      "--max-attempts", "2"], [
        "# dheac 0.1.0 mc", "# chi=conservative seed=42 trials=5",
        "# m=4 skew=0 total=40 caps=10,10,10,10 k_req=4 K=1",
        "# t_gen=2 t_dist=0.05 t_meas=1 t_ctl=0.25 rounds=3 beta=0.2 "
        "max_attempts=2 q=0.1"]),
    # an input that 'g' would round to 6 digits is recorded as given
    (["sweep", "--ms", "4", "--qs", "0.0512345678", "--demands", "0.4",
      "--skews", "1", "--t-dist", "0.1234567"], SWEEP_HEAD + [
        "# ms=4 qs=0.0512345678 demands=0.4 skews=1 nodes_per_qlan=10",
        "# " + PARAMS.replace("t_dist=0.05", "t_dist=0.1234567")]
     + SWEEP_TAIL),
    (["mc", "--m", "4", "--skew", "1.0000001", "--k-req", "4", "--trials",
      "5", "--q", "0.0512345678"], [
        "# dheac 0.1.0 mc", "# chi=conservative seed=42 trials=5",
        "# m=4 skew=1.0000001 total=40 caps=20,10,6,4 k_req=4 K=2",
        "# " + PARAMS + " q=0.0512345678"]),
])
def test_comment_lines_keep_their_bytes(argv, comments, tmp_path):
    args_file = tmp_path / "run.args"
    args_file.write_text("\n".join(ARGS_FILES.get(argv[0], [])))
    out = tmp_path / "out.csv"
    argv = [f"@{args_file}" if a == "@FILE" else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main([*argv, "--out", str(out)]) == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert [line for line in lines if line.startswith("#")] == comments


FAIRNESS_CONSTANTS = ("--t-gen", "--t-dist", "--t-meas", "--t-ctl",
                      "--rounds", "--max-attempts")


@pytest.mark.parametrize("flag", FAIRNESS_CONSTANTS)
def test_fairness_refuses_the_constants_it_never_reads(flag, tmp_path):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        main(["fairness", "--ms", "4", "--demands", "0.4", "--skews", "1",
              flag, "5", "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {flag} 5" in err.getvalue()
    assert not out.exists()


def _help_flags(command: str) -> list[str]:
    with pytest.raises(SystemExit), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        main([command, "--help"])
    return re.findall(r"^  (--[\w-]+)", out.getvalue(), re.MULTILINE)


def test_each_command_lists_the_model_flags_it_reads():
    fairness = _help_flags("fairness")
    assert "--beta" in fairness
    assert not set(FAIRNESS_CONSTANTS) & set(fairness)
    constants = {"--t-gen", "--t-dist", "--t-meas", "--t-ctl", "--rounds",
                 "--beta", "--max-attempts"}
    for command in ("sweep", "breakeven"):
        assert constants <= set(_help_flags(command))
    assert constants | {"--q"} <= set(_help_flags("mc"))
    verify = set(_help_flags("verify-quantum"))
    assert verify & (constants | {"--q"}) == {"--beta"}


# --- overflowing model constants ------------------------------------------

ONE_POINT = ["--ms", "4", "--qs", "0.05", "--demands", "0.4", "--skews", "1"]


@pytest.mark.parametrize("argv, message", [
    (["sweep", *ONE_POINT, "--t-gen", "1e308"], "latency must be finite"),
    (["breakeven", "--ms", "4", "--qs", "0.05", "--t-meas", "1e308"],
     "latency must be finite"),
    (["breakeven", "--ms", "4", "--qs", "0.05", "@FILE"],
     "latency must be finite"),
    (["mc", "--m", "4", "--k-req", "4", "--trials", "5", "--t-gen", "1e308"],
     "latency must be finite"),
    # finite in closed form, but not summed and squared over the trials
    (["sweep", *ONE_POINT, "--mode", "mc", "--trials", "100",
      "--t-dist", "1e300"], "latencies up to "),
    (["mc", "--m", "4", "--k-req", "4", "--trials", "5", "--t-dist", "1e300"],
     "latencies up to "),
    (["sweep", "--rounds", str(10 ** 309)], "rounds must lie in [0, 2**53]"),
    (["mc", "--m", "4", "--k-req", "4", "--rounds", str(10 ** 309)],
     "rounds must lie in [0, 2**53]"),
    (["breakeven", "--max-attempts", str(10 ** 309)],
     "max_attempts must lie in [1, 2**53]"),
    (["sweep", *ONE_POINT, "--rounds", str(10 ** 308)],
     "rounds must lie in [0, 2**53]"),
])
def test_overflowing_model_constants_are_usage_errors(argv, message,
                                                      tmp_path, capsys):
    args_file = tmp_path / "run.args"
    args_file.write_text("--t-gen=1e308\n")
    out = tmp_path / "out.csv"
    argv = [f"@{args_file}" if a == "@FILE" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""
    assert not out.exists()


# --- every argv ends in a documented exit code ----------------------------

EDGE_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e308", "1e400",
               str(10 ** 309), str(2 ** 63), "", ",", "4.5", "1,0")
BASES = {
    "sweep": [*ONE_POINT, "--mode", "both", "--trials", "20"],
    "fairness": ["--ms", "4", "--demands", "0.4", "--skews", "1",
                 "--trials", "20"],
    "breakeven": ["--ms", "4", "--qs", "0.05"],
    "mc": ["--m", "4", "--k-req", "4", "--trials", "5"],
    "verify-quantum": ["--m", "4", "--k-req", "4", "--draws", "100"],
}
# paths are the I/O tests' business; a value of these names a file
PATH_FLAGS = {"--out", "--svg", "--json", "--ecdf-out"}
# values that would start real work rather than be refused
WORK = {"--trials": {str(10 ** 309), str(2 ** 63)}}


def _value_flags(command: str) -> list[str]:
    sub = cli.build_parser()._subparsers._group_actions[0].choices[command]
    return [action.option_strings[-1] for action in sub._actions
            if action.option_strings and action.nargs != 0
            and action.option_strings[-1] not in PATH_FLAGS]


FLAGS = {command: _value_flags(command) for command in BASES}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(BASES)))
    pairs = draw(st.lists(
        st.sampled_from(FLAGS[command]).flatmap(
            lambda flag: st.tuples(st.just(flag), st.sampled_from(
                [v for v in EDGE_VALUES if v not in WORK.get(flag, ())]))),
        min_size=1, max_size=2))
    return [command, *BASES[command], *(x for pair in pairs for x in pair)]


def _non_finite_cells(path: pathlib.Path) -> list[str]:
    """Non-finite cells of a CSV."""
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("#")]
    header = lines[0].split(",")
    return [f"{name}={cell}" for line in lines[1:]
            for name, cells in zip(header, line.split(","))
            for cell in cells.split(";")
            if cell.lower() in ("inf", "-inf", "nan")]


def test_the_flag_table_covers_every_subcommand():
    assert sum(len(flags) for flags in FLAGS.values()) >= 50
    assert "--workers" in FLAGS["sweep"]


@settings(max_examples=60, deadline=None)
@given(argv=argvs())
# the two input classes that once ended in a traceback
@example(argv=["breakeven", *BASES["breakeven"], "--t-gen", "1e308"])
@example(argv=["mc", *BASES["mc"], "--rounds", str(10 ** 309)])
def test_every_argv_ends_in_a_documented_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        flag = "--json" if argv[0] == "verify-quantum" else "--out"
        err = io.StringIO()
        start = time.perf_counter()
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main([*argv, flag, str(out)])
            except SystemExit as exc:  # argparse refuses the argv
                code = exc.code
        assert time.perf_counter() - start < 5.0
        assert code in (0, 2, 3, 4, 5), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if flag == "--out" and out.exists():
            assert _non_finite_cells(out) == []
