"""Workload process: imports dheac.cli, then runs CLI argv lists in order.

Usage: python3 child.py JOB.json

The job file (written by run.py) holds ``argvs`` (a list of CLI argument
lists, possibly empty for a set-up-only spawn), ``cwd`` (where the CLI
writes its outputs), ``logs`` (where each call's stdout/stderr go),
``trace`` (wrap the public dheac functions and dump spans to ``spans``)
and ``result`` (where this process writes its own measurements).

``import dheac.cli`` is the first thing this process does after starting
the host-speed sampler (hostspeed.py), so the parent can time set-up from
spawning it until that import returns, in reference seconds too.
"""

import time

import hostspeed

SAMPLER = hostspeed.Sampler()
SAMPLER.start()

import dheac.cli  # noqa: E402

SETUP_DONE = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _call(argv, stdout_path, stderr_path):
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return dheac.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:
            # an uncaught traceback is a failed op, not a crashed benchmark
            traceback.print_exc()
            return None


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    result = {"setup_done": SETUP_DONE, "dheac_file": dheac.cli.__file__}
    if job["argvs"]:
        os.chdir(job["cwd"])
        tracer = None
        if job["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            result["codes"] = [
                _call(argv, os.path.join(job["logs"], f"op{i}.stdout"),
                      os.path.join(job["logs"], f"op{i}.stderr"))
                for i, argv in enumerate(job["argvs"])]
        finally:
            if tracer is not None:
                tracer.restore()
        result["work_done"] = time.monotonic()
        if tracer is not None:
            tracer.dump(job["spans"])
    SAMPLER.stop()
    result["speed"] = SAMPLER.record()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
