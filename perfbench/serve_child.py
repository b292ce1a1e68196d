"""Launch ``repro serve`` with host-speed sampling in its pool workers,
optionally with the per-layer shims installed.

Usage::

    python3 perfbench/serve_child.py --speed-dir DIR [--trace-dir DIR] \
        -- serve --port N ...

Pool workers sample the host's speed while they run (see
``harness.Speedometer``) and write each job's scale to the reference
speed, by job id, to ``SPEED_DIR/speed-<pid>.json``.  With
``--trace-dir`` the shims go in before the worker pool exists, so
fork-started pool workers inherit them and report per-layer totals and
spans, tagged with each job's id, through ``TRACE_DIR/worker-<pid>.json``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _trace_jobs(trace_dir: str) -> None:
    """Install the shims, and wrap every job in a ``serve.job`` span
    tagged with the job id; after each job the worker rewrites
    ``DIR/worker-<pid>.json`` with its totals and spans so far."""
    sys.path.insert(0, HERE)
    from tracing import Recorder, Shims
    from repro.serve import service, workers

    os.makedirs(trace_dir, exist_ok=True)
    rec = Recorder()
    Shims(rec)
    run_job = workers.execute_job

    @functools.wraps(run_job)
    def execute_job(payload):
        with rec.span("serve.job", payload.get("job_id")):
            result = run_job(payload)
        path = os.path.join(trace_dir, f"worker-{os.getpid()}.json")
        with open(f"{path}.tmp", "w") as fh:
            json.dump({"pid": os.getpid(), "summary": rec.summary(),
                       "spans": rec.spans}, fh)
        os.replace(f"{path}.tmp", path)
        return result

    # the pool pickles the job function by name: both names must be it
    workers.execute_job = service.execute_job = execute_job


def _time_jobs(speed_dir: str) -> None:
    """Sample the host's speed in each pool worker from its first job
    on, idle or busy, and after each job rewrite
    ``DIR/speed-<pid>.json`` with every job's scale so far."""
    sys.path.insert(0, HERE)
    from harness import JOBS, Speedometer
    from repro.serve import service, workers

    os.makedirs(speed_dir, exist_ok=True)
    speed, scales = [], {}
    run_job = workers.execute_job

    @functools.wraps(run_job)
    def execute_job(payload):
        if not speed:
            # after the pool's initializer; it lasts the worker's life
            speed.append(Speedometer(JOBS).__enter__())
        t0 = time.perf_counter()
        result = run_job(payload)
        scales[payload.get("job_id")] = speed[0].scale(
            t0, time.perf_counter())
        path = os.path.join(speed_dir, f"speed-{os.getpid()}.json")
        with open(f"{path}.tmp", "w") as fh:
            json.dump(scales, fh)
        os.replace(f"{path}.tmp", path)
        return result

    workers.execute_job = service.execute_job = execute_job


def main(argv) -> int:
    dirs = {"--speed-dir": None, "--trace-dir": None}
    while argv[:1] and argv[0] in dirs:
        dirs[argv[0]], argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from repro.cli import main as repro_main
    if dirs["--trace-dir"] is not None:
        _trace_jobs(dirs["--trace-dir"])
    if dirs["--speed-dir"] is not None:
        _time_jobs(dirs["--speed-dir"])
    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
