"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest perfbench/test_harness.py
"""

import contextlib
import io
import json
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _spans(rows):
    """rows: (name, parent, start, end) with parent an index or -1."""
    names = sorted({r[0] for r in rows})
    return tracer.Spans(
        names, array("H", [names.index(r[0]) for r in rows]),
        array("q", [r[1] for r in rows]), array("d", [r[2] for r in rows]),
        array("d", [r[3] for r in rows]), {})


def test_self_time_subtracts_direct_children_only():
    spans = _spans([
        ("cli.main", -1, 0.0, 10.0),
        ("lottery.run_trial", 0, 1.0, 4.0),
        ("lottery.sample_inner", 1, 2.0, 3.0),
        ("lottery.run_trial", 0, 5.0, 9.0),
        ("cli.main", -1, 11.0, 12.0),
    ])
    assert spans.self_times() == [3.0, 2.0, 1.0, 4.0, 1.0]
    metrics = layers.from_spans(spans, traced_wall=13.0, traced_setup=1.0,
                                overhead_frac=1.0 / 12.0)
    assert metrics["cli.main.calls"] == 2
    assert metrics["cli.main.self_s"] == 4.0
    assert metrics["lottery.run_trial.self_s"] == 6.0
    assert metrics["lottery.sample_inner.self_s"] == 1.0
    assert metrics["trace.accounted_frac"] == pytest.approx(11.0 / 12.0)
    assert metrics["trace.overhead_frac"] == pytest.approx(1.0 / 12.0)
    assert metrics["lottery.simulate_batch.calls"] == 0


def _cli(argv):
    import dheac.cli
    with contextlib.redirect_stdout(io.StringIO()):
        return dheac.cli.main(argv)


SMALL_RUN = [
    ["sweep", "--mode", "both", "--ms", "4,8", "--demands", "0.4",
     "--qs", "0.05", "--skews", "0,1", "--trials", "300", "--out", "s.csv"],
    ["fairness", "--ms", "4", "--demands", "0.4", "--skews", "0,1",
     "--method", "mc", "--trials", "500", "--out", "f.csv"],
    ["mc", "--m", "8", "--skew", "1", "--demand", "0.4", "--trials", "40",
     "--out", "m.csv"],
    ["verify-quantum", "--m", "4", "--k-req", "4", "--draws", "2000",
     "--json", "v.json"],
]


def _run_small(directory: Path, monkeypatch) -> dict[str, bytes]:
    directory.mkdir()
    monkeypatch.chdir(directory)
    assert [_cli(argv) for argv in SMALL_RUN] == [0, 0, 0, 0]
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _bindings():
    return {(name, attr): value for name, mod in sorted(sys.modules.items())
            if name == "dheac" or name.startswith("dheac.")
            for attr, value in vars(mod).items()}


def test_traced_run_restores_every_binding_and_writes_same_bytes(
        tmp_path, monkeypatch):
    import dheac.cli  # noqa: F401  loads every dheac module
    plain = _run_small(tmp_path / "plain", monkeypatch)
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        import dheac.lottery
        assert dheac.cli.simulate_batch is not before[
            ("dheac.lottery", "simulate_batch")]
        assert dheac.lottery.safe_select_k is not before[
            ("dheac.partition", "safe_select_k")]
        traced = _run_small(tmp_path / "traced", monkeypatch)
    finally:
        t.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert traced == plain

    t.dump(str(tmp_path / "trace"))
    spans = tracer.load(str(tmp_path / "trace"))
    metrics = layers.from_spans(spans, traced_wall=1.0, traced_setup=0.0,
                                overhead_frac=0.0)
    assert metrics["cli.main.calls"] == len(SMALL_RUN)
    # 4 grid points, one batch per accounting mode
    assert metrics["lottery.simulate_batch.calls"] == 8
    assert metrics["lottery.simulate_batch.trials"] == 8 * 300
    assert metrics["lottery.run_trial.calls"] == 40
    assert metrics["lottery.estimate_fairness.calls"] == 2
    assert metrics["qverify.measure_many.draws"] == 2000
    roots = [sid for sid, par in enumerate(spans.parent) if par < 0]
    assert len(roots) == len(SMALL_RUN)
    assert sum(spans.self_times()) == pytest.approx(
        sum(spans.durations()[sid] for sid in roots))


def test_importtime_groups():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         numpy.core",
        "import time:        50 |        150 |       numpy",
        "import time:        10 |        160 |     dheac.analytics",
        "import time:        30 |         30 |         numpy.linalg",
        "import time:        70 |        100 |       scipy.stats._stats_py",
        "import time:        20 |         20 |       scipy.special",
        "import time:         5 |        125 |     dheac.qverify",
        "import time:         2 |        287 |   dheac",
        "import time:         3 |        290 | dheac.cli",
    ])
    assert layers.parse_importtime(log) == {
        "import.numpy_s": 150e-6, "import.scipy_stats_s": 120e-6,
        "import.dheac_s": 20e-6}


def _report(tmp_path, failures):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"failures": failures,
                                "passed": not failures}))
    return str(path)


def test_verify_outcomes(tmp_path):
    outcome = workloads.verify_outcome
    assert outcome(0, _report(tmp_path, []), "") == ("ok", "")
    assert outcome(2, "", "error: ... exceeds the 1000000 sparse guard")[0] \
        == "refused"
    assert outcome(2, "", "error: bad flag")[0] == "failed"
    chi2 = ["outer uniformity rejected (p=0.001 < 0.01)"]
    assert outcome(4, _report(tmp_path, chi2), "") == ("ok", "")
    drift = ["outer marginal deviates from uniform by 1.512e-11"]
    assert outcome(4, _report(tmp_path, drift + chi2), "")[0] == "failed"
    assert outcome(0, _report(tmp_path, drift), "")[0] == "wrong"


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER


def test_cross_run_digest_store(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path / "state")
    argvs = [["mc", "--m", "4", "--seed", "1"]]
    assert run.digest_matches_earlier_runs("w", argvs, "aa")
    assert run.digest_matches_earlier_runs("w", argvs, "aa")
    assert not run.digest_matches_earlier_runs("w", argvs, "bb")
    # other inputs are a new key, not a mismatch
    assert run.digest_matches_earlier_runs("w", [["mc", "--seed", "2"]], "bb")


def test_reference_seconds_divide_out_slowdown_and_samples():
    ref = hostspeed.PYTHON_REF_S
    # a sample every second, each 0.1 s long, the loop at twice its
    # quiet-time time: 10 s of wall hold 9 s of program time (the tenth
    # sample starts at 10.0, past the end) at half speed
    record = {"starts": [float(t) for t in range(1, 11)],
              "spans": [0.1] * 10, "python": [2 * ref] * 10}
    assert hostspeed.reference_seconds(record, 1.0, 0.0, 10.0) \
        == pytest.approx(9.1 / 2)
    # with half the time slowing down, the slowdown is 1.5
    assert hostspeed.reference_seconds(record, 0.5, 0.0, 10.0) \
        == pytest.approx(9.1 / 1.5)
    assert hostspeed.reference_seconds(record, 0.0, 0.0, 10.0) \
        == pytest.approx(9.1)
    # a stretch between samples takes the median of the nearby samples, so
    # one outlying sample does not move it
    record["python"][4] = 10 * ref
    assert hostspeed.reference_seconds(record, 1.0, 0.0, 10.0) \
        == pytest.approx(9.1 / 2)


def test_sampler_restores_the_signal_handler():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler()
    sampler.start()
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.record()["python"]) >= 1
