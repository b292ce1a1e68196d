"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload solo-sim --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures half the time untraced and half with the
per-layer timing shims installed, and reports the per-layer metrics,
including the tracing overhead.  Either way the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the full report (metadata, per-op rows, percentiles)
goes to ``--report`` and, in traced runs, the spans to a Chrome-trace
file that Perfetto loads.

The benchmark imports ``repro`` from ``src/`` of the checkout it sits
in and refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("solo-sim", "dse-grid", "cotenant", "serve-mix")


def _import_repro() -> None:
    """Put the checkout's ``src`` first on the path and insist that
    ``repro`` comes from there (an installed copy would measure the
    wrong program)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, src)
    import repro
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.dirname(where) != src:
        raise SystemExit(f"perfbench: repro imported from {where}, "
                         f"not from {src}")


def make_workload(name: str, seed: int, seconds: float, trace: bool):
    from workloads import Cotenant, DseGrid, SoloSim
    if name == "solo-sim":
        return SoloSim(seed)
    if name == "dse-grid":
        return DseGrid(seed)
    if name == "cotenant":
        return Cotenant(seed)
    from serve_mix import ServeMix
    return ServeMix(seed, seconds, trace,
                    work_dir=os.path.join(OUT_DIR, "serve"), root=ROOT)


def run_workload(workload, seconds: float, trace: bool,
                 chrome_path: str = None) -> dict:
    """Set up, measure and tear down one workload; returns the report."""
    import harness
    from report import end_to_end, per_layer
    from tracing import Recorder, traced, write_chrome

    meta = harness.metadata(ROOT, workload.name,
                            getattr(workload, "seed", None))
    setups, setups_ref, leftovers = [], [], []
    # every host time, set-up too, is read at the reference host speed
    with harness.Speedometer() as speed:
        t0 = time.perf_counter()
        workload.imports()
        import_s = time.perf_counter() - t0
        import_ref = speed.at_reference(import_s, t0)
        try:
            for k in range(harness.SETUPS):
                if k:
                    leftovers += workload.teardown() or []
                t0 = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - t0)
                setups_ref.append(speed.at_reference(setups[-1], t0))
            setup_s = import_ref + harness.median(setups_ref)
            if trace:
                untraced = workload.measure(seconds / 2, None, speed)
                rec = Recorder()
                with traced(rec):
                    measured = workload.measure(seconds / 2, rec, speed)
            else:
                measured = workload.measure(seconds, None, speed)
            peak = workload.peak_rss_mb()
        finally:
            leftovers += workload.teardown() or []
    report = {"meta": meta}
    report["meta"]["loadavg_end"] = list(os.getloadavg())
    report["setup"] = {"import_s": import_s, "setups_s": setups,
                       "import_ref_s": import_ref,
                       "setups_ref_s": setups_ref,
                       "speed_samples": len(speed.ticks)}
    if trace:
        metrics = per_layer(rec, measured, untraced)
        runs = [untraced, measured]
        processes = [(os.getpid(), rec.spans)]
        processes += measured.extra.get("worker_spans", [])
        if chrome_path:
            write_chrome(chrome_path, processes)
            report["chrome_trace"] = chrome_path
        report["layers"] = {"self_ns": dict(rec.self_ns),
                            "calls": dict(rec.calls),
                            "counts": dict(rec.counts)}
    else:
        metrics, details = end_to_end(measured, setup_s, peak)
        report["end_to_end_detail"] = details
        runs = [measured]
    rows = [row for m in runs for row in m.rows]
    failed = sum(1 for row in rows if not row.ok)
    if leftovers:
        rows.append(harness.OpRow("teardown", "teardown", 0, None,
                                  f"processes left behind: {leftovers}"))
        failed += 1
    report["metrics"] = metrics
    report["extra"] = {k: v for m in runs for k, v in m.extra.items()
                       if k != "worker_spans"}
    report["rows"] = [row.as_dict() for row in rows]
    report["attempted"] = len(rows)
    report["failed"] = failed
    return report


def _summary(report: dict) -> str:
    lines = [f"{report['meta']['workload']} seed {report['meta']['seed']}"
             f" (rev {report['meta']['git_rev']}, nproc "
             f"{report['meta']['nproc']}): {report['attempted']} ops, "
             f"{report['failed']} failed"]
    for name, entry in report["metrics"].items():
        lines.append(f"  {name:28s} {entry['value']:.6g} {entry['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None,
                        help="full JSON report (default: perfbench/out/)")
    parser.add_argument("--chrome", default=None,
                        help="traced runs: Chrome-trace JSON of the spans "
                             "(default: perfbench/out/)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # a terminated run still tears down what it spawned
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _import_repro()
    stem = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}"
                                 f"-t{args.trace}")
    chrome = (args.chrome or f"{stem}.trace.json") if args.trace else None
    workload = make_workload(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    report = run_workload(workload, args.seconds, bool(args.trace), chrome)
    path = args.report or f"{stem}.json"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
    print(_summary(report))
    print(f"report: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
