"""Benchmark of the dheac command line: four workloads, end-to-end metrics
with tracing off, per-layer metrics from a separate traced run.

Usage, from any directory of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of mc_grid, fairness_grid, exact_paths, trial_dump, or ``all``
to run the four in turn. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

One pass spawns a fresh interpreter (child.py) that imports dheac.cli from
this checkout's src/ and calls ``dheac.cli.main`` on each argv of the
workload in order: a closed loop of one client, ``--workers 1``, BLAS
threads capped at nproc. Each CLI call is one op.

--trace 0 makes one pass, then more while the next is expected to end
within --seconds, and reports the medians over passes of:
  setup_s       spawn until ``import dheac.cli`` returns (median over at
                least SETUP_SAMPLES spawns, the passes' own included)
  wall_s        spawn until the workload process exits, set-up included
  trials_per_s  Monte-Carlo trials (measurement draws on exact_paths)
                completed per wall second
setup_s and wall_s are in reference seconds: wall-clock time with the
shared host's changing speed divided out (hostspeed.py). The table also
prints the wall-clock medians as setup_raw_s and wall_raw_s.
  peak_rss_mb   the workload process's own ru_maxrss
  ops_ok_frac   ops not failed / ops attempted (expected refusals are ok)
--trace 1 makes one untraced and one traced pass and reports the metrics
in layers.PER_LAYER.

``failed`` counts ops the program reported as failed and ops that exited 0
with output that failed its check (see workloads.py). A run is correct when
no op is of the second kind and every pass with the same seed wrote
byte-identical files: within the run, and across runs of the same argv on
the same sources via digest files in .perfbench_state/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import layers
import tracer
from workloads import WORKLOADS, Checked, read_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"
SETUP_SAMPLES = 3
SETUP_PYTHON_SHARE = 0.5  # fitted on set-up-only spawns (hostspeed.py)
IMPORTTIME_SAMPLES = 3
PROCESS_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "trials_per_s": "1/s",
                    "peak_rss_mb": "MB", "ops_ok_frac": "fraction"}
PRINTED_ONLY_UNITS = {"ops_failed_frac": "fraction", "setup_raw_s": "s",
                      "wall_raw_s": "s"}


class BenchError(RuntimeError):
    """The benchmark could not measure (not a failed op of the program)."""


@dataclass
class Pass:
    wall: float  # reference seconds (hostspeed.py)
    setup: float
    wall_raw: float  # wall-clock seconds
    setup_raw: float
    peak_rss_mb: float
    checked: Checked
    digest: str
    dir: Path


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def environment() -> dict:
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "thread_caps": {var: str(nproc()) for var in THREAD_VARS}}


def tree_digest(top: Path, pattern: str = "*") -> str:
    """sha256 over the files under top matching pattern, by relative path
    and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in top.rglob(pattern) if p.is_file()):
        h.update(str(path.relative_to(top)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def spawn_child(job: dict, work: Path, python_share: float) -> dict:
    """Run child.py on a job; its result plus wall and set-up seconds, in
    reference seconds (wall, setup) and wall-clock seconds (wall_raw,
    setup_raw)."""
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job))
    with open(work / "child.stderr", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=err,
            timeout=PROCESS_TIMEOUT_S, check=False)
        t1 = time.monotonic()
    if proc.returncode != 0:
        tail = (work / "child.stderr").read_text()[-2000:]
        raise BenchError(f"workload process exited {proc.returncode}:\n{tail}")
    result = json.loads(Path(job["result"]).read_text())
    if not Path(result["dheac_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported dheac from {result['dheac_file']}, "
                         f"not from {SRC}")
    speed = result.pop("speed")
    result["wall_raw"] = t1 - t0
    result["setup_raw"] = result["setup_done"] - t0
    setup = hostspeed.reference_seconds(speed, SETUP_PYTHON_SHARE, t0,
                                        result["setup_done"])
    result["setup"] = setup
    result["wall"] = setup + hostspeed.reference_seconds(
        speed, python_share, result["setup_done"], t1)
    return result


def run_pass(workload, seed: int, work: Path, trace: bool) -> Pass:
    d = Path(tempfile.mkdtemp(prefix="pass-", dir=work))
    (d / "out").mkdir()
    (d / "logs").mkdir()
    job = {"argvs": workload.argvs(seed), "cwd": str(d / "out"),
           "logs": str(d / "logs"), "trace": trace,
           "spans": str(d / "trace"), "result": str(d / "result.json")}
    result = spawn_child(job, d, workload.python_share)
    checked = workload.check(str(d / "out"), result["codes"], str(d / "logs"))
    return Pass(result["wall"], result["setup"], result["wall_raw"],
                result["setup_raw"], result["peak_rss_mb"], checked,
                tree_digest(d / "out"), d)


def setup_sample(work: Path) -> tuple[float, float]:
    """(reference, wall-clock) seconds of one set-up-only spawn."""
    d = Path(tempfile.mkdtemp(prefix="setup-", dir=work))
    result = spawn_child({"argvs": [], "trace": False,
                          "result": str(d / "result.json")}, d,
                         SETUP_PYTHON_SHARE)
    return result["setup"], result["setup_raw"]


def importtime_sample() -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import dheac.cli"],
        env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=PROCESS_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"import dheac.cli failed:\n{proc.stderr[-2000:]}")
    return layers.parse_importtime(proc.stderr)


def digest_matches_earlier_runs(name: str, argvs: list, digest: str) -> bool:
    """c10 across runs: the same argv on the same sources writes the same
    bytes."""
    STATE.mkdir(exist_ok=True)
    inputs = hashlib.sha256(json.dumps(argvs).encode()).hexdigest()
    path = STATE / (f"{name}-{inputs[:16]}-"
                    f"{tree_digest(SRC / 'dheac', '*.py')[:16]}")
    if path.exists():
        return path.read_text() == digest
    path.write_text(digest)
    return True


def correctness(name: str, argvs: list, passes: list[Pass]) -> bool:
    no_wrong = all(status != "wrong"
                   for p in passes for status, _ in p.checked.outcomes)
    same = len({p.digest for p in passes}) == 1
    return (no_wrong and same
            and digest_matches_earlier_runs(name, argvs, passes[0].digest))


def shortage_rows(out: Path) -> int:
    rows = 0
    for path in sorted(out.rglob("*.csv")):
        _, data = read_csv(str(path))
        rows += sum(1 for r in data if r.get("status") == "shortage")
    return rows


def count_failed(passes: list[Pass]) -> tuple[int, int]:
    """(failed, attempted) ops; expected refusals are not failures."""
    outcomes = [status for p in passes for status, _ in p.checked.outcomes]
    return sum(1 for s in outcomes if s in ("failed", "wrong")), len(outcomes)


def run_untraced(workload, seed: int, seconds: float, work: Path):
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(workload, seed, work, trace=False))
        elapsed = time.monotonic() - start
        # start another pass only if it is expected to end within seconds
        if elapsed + elapsed / len(passes) > seconds:
            break
    setups = [(p.setup, p.setup_raw) for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(work))
    ok_frac = [1.0 - count_failed([p])[0] / len(p.checked.outcomes)
               for p in passes]
    samples = {
        "setup_s": [ref for ref, _ in setups],
        "wall_s": [p.wall for p in passes],
        "trials_per_s": [p.checked.trials / p.wall for p in passes],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
        "ops_ok_frac": ok_frac,
        # printed, not in JSON
        "ops_failed_frac": [1.0 - f for f in ok_frac],
        "setup_raw_s": [raw for _, raw in setups],
        "wall_raw_s": [p.wall_raw for p in passes],
    }
    # every pass runs the same ops, so the mean of the per-pass fractions
    # is the fraction over all ops
    metrics = {key: (statistics.fmean(v) if key.startswith("ops_")
                     else statistics.median(v)) for key, v in samples.items()}
    return passes, metrics, samples


def run_traced(workload, seed: int, work: Path):
    plain = run_pass(workload, seed, work, trace=False)
    traced = run_pass(workload, seed, work, trace=True)
    # spans are wall-clock; the overhead compares reference seconds, which
    # the host's speed changes between the two passes do not move
    metrics = layers.from_spans(
        tracer.load(str(traced.dir / "trace")), traced_wall=traced.wall_raw,
        traced_setup=traced.setup_raw,
        overhead_frac=traced.wall / plain.wall - 1.0)
    samples = {key: [value] for key, value in metrics.items()}
    imports = [importtime_sample() for _ in range(IMPORTTIME_SAMPLES)]
    for key in imports[0]:
        samples[key] = [sample[key] for sample in imports]
        metrics[key] = statistics.median(samples[key])
    out = traced.dir / "out"
    metrics["cli.out_bytes"] = sum(p.stat().st_size for p in out.rglob("*")
                                   if p.is_file())
    metrics["cli.shortage_rows"] = shortage_rows(out)
    return [plain, traced], metrics, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        if trace:
            passes, metrics, samples = run_traced(workload, seed, work)
            units = layers.UNITS
        else:
            passes, metrics, samples = run_untraced(workload, seed, seconds,
                                                    work)
            units = END_TO_END_UNITS
        correct = correctness(name, workload.argvs(seed), passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed, attempted = count_failed(passes)
    report(name, seed, trace, workload.argvs(seed), passes, metrics, units,
           samples)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": units[key]}
                        for key in units}}


def report(name, seed, trace, argvs, passes, metrics, units,
           samples) -> None:
    """Human-readable lines ahead of the JSON result line."""
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"passes {len(passes)}  env {json.dumps(environment())}")
    print(f"  why: {WORKLOADS[name].why}")
    for argv in argvs:
        print("  op: dheac " + " ".join(argv))
    print(f"  {'metric':<44} {'value':>14} {'unit':<9} {'n':>4} "
          f"{'min':>12} {'max':>12}")
    for key, value in metrics.items():
        seen = samples.get(key, [value])
        print(f"  {key:<44} {value:>14.6g} {units.get(key) or PRINTED_ONLY_UNITS[key]:<9} "
              f"{len(seen):>4} {min(seen):>12.6g} {max(seen):>12.6g}")
    not_ok = {(status, " ".join(argv), reason) for p in passes
              for argv, (status, reason) in zip(argvs, p.checked.outcomes)
              if status != "ok"}
    for status, argv, reason in sorted(not_ok):
        print(f"  {status}: dheac {argv}" + (f": {reason}" if reason else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dheac" / "cli.py").is_file():
        print(f"error: no dheac sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace)) for name in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{key}": value
                             for name, r in results.items()
                             for key, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
