"""dispnet benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout; dispnet is imported from its ``src``.
Each measurement runs ``worker.py`` in a fresh single-threaded process,
a closed loop with one caller: the next item starts when the previous
one has returned.

Without ``--trace`` each workload is measured twice, one measurement
after the other, and every metric is printed. The untraced measurement
gives the end-to-end metrics: set-up time (median of several fresh
processes), items per second, latency p50 and p99, and peak resident
memory. Its times are scaled to a reference speed of the machine
(``speed.py``), and the rates and latencies are medians over the run's
blocks. The traced one runs each item twice, untraced and traced, and
gives the per-layer metrics, the tracing overhead and the failure
ratio. ``--trace 0`` makes only the first measurement and ``--trace 1``
only the second. Every output is checked against its reference, and
the run ends with one JSON line: ``correct``, ``attempted``,
``failed``, ``metrics``.

``--workload all`` (the default) runs the three workloads in sequence
and prints one such object per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import REFERENCE_NS  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = ("parse-mix", "prove-lambek", "roundtrip-corpus")
SETUP_PROBES = 5          # fresh processes timed for setup_s, besides the run
DEADLINE_S = 170          # a run gives up before the 180 s limit

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {name: spec[0] for name, spec in LAYER_METRICS.items()}
PER_LAYER.update({"trace.overhead": "1", "fail_ratio": "1"})


class BenchError(RuntimeError):
    pass


def worker(workload, seed, deadline, *flags):
    """Run worker.py; returns (seconds until it was ready, the time of
    the reference work just after, in ns, its result). The worker is
    killed if it is still running at the deadline."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), *flags]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        lines = proc.stdout.read().strip().splitlines()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if (proc.returncode != 0 or ready.strip() != "ready" or not lines
            or not lines[0].startswith("reference ")):
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    reference = int(lines[0].split()[1])
    if "--setup-only" in flags:
        return setup, reference, None
    if len(lines) < 2:
        raise BenchError(f"{workload}: worker printed no result")
    return setup, reference, json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(workload, seed, seconds, deadline):
    """The end-to-end metrics. Set-up times are scaled like item times
    (see speed.py), by the reference work timed just after set-up."""
    probes = [worker(workload, seed, deadline, "--seconds", "0", "--setup-only")
              for _ in range(SETUP_PROBES)]
    probes.append(worker(workload, seed, deadline, "--seconds", str(seconds)))
    res = probes[-1][2]
    res["wall"]["setup_s"] = statistics.median(p[0] for p in probes)
    metrics = {name: metric(res[name], unit) for name, unit in END_TO_END.items()
               if name != "setup_s"}
    metrics["setup_s"] = metric(statistics.median(
        setup * REFERENCE_NS / reference for setup, reference, _ in probes), "s")
    return res, metrics


def run_traced(workload, seed, seconds, deadline):
    _, _, res = worker(workload, seed, deadline, "--seconds", str(seconds), "--traced")
    metrics = {name: metric(res["layers"][name], unit)
               for name, unit in PER_LAYER.items() if name in res["layers"]}
    for name in metrics:
        if metrics[name]["value"] is None:
            metrics[name]["missing"] = True
    return res, metrics


def fail_ratio(res):
    return (res["failed"] + sum(res["known_defect"].values())) / res["items"]


def measurement(workload, seed, seconds, traced, deadline):
    """One worker run (plus the set-up probes when untraced), printed;
    returns its result and its metrics."""
    if traced:
        res, metrics = run_traced(workload, seed, seconds, deadline)
        metrics["fail_ratio"] = metric(fail_ratio(res), "1")
    else:
        res, metrics = run_untraced(workload, seed, seconds, deadline)
    kind = "traced" if traced else "untraced"
    print(f"# {workload}: {kind}, seed {seed}, {res['items']} items in "
          f"{res['blocks']} block(s)")
    for name, m in metrics.items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{workload:17s} {name:36s} {value:>14s} {m['unit']}")
    if not traced:
        print(f"{workload:17s} {'latency samples a block':36s} "
              f"{res['block_items']:>14d} ({res['beyond_p99']} beyond p99)")
        for name, value in res["wall"].items():
            if name in END_TO_END:
                print(f"{workload:17s} {name + ', unscaled':36s} "
                      f"{value:>14.6g} {END_TO_END[name]}")
        low, mid, high, n = res["reference_ms"]
        print(f"# {workload}: reference work took {mid:.4g} ms (median of "
              f"{n}; {low:.4g} to {high:.4g}); times are scaled to "
              f"{REFERENCE_NS / 1e6:g} ms")
        print(f"{workload:17s} {'fail_ratio':36s} {fail_ratio(res):>14.6g} 1")
        print(f"# {workload}: checks that raised the peak RSS: "
              f"{res['checks_raised_rss']}, by {res['checks_raised_rss_kb']} KB")
        for group, share in sorted(res["time_share"].items(),
                                   key=lambda kv: -kv[1]):
            print(f"# {workload}: {share:7.2%} of item time: {group}")
    for detail, n in sorted(res["known_defect"].items()):
        print(f"# {workload}: known defect, {n} item(s): {detail}; the extra "
              "readings only exchange equal words (counted in fail_ratio, "
              "not in failed)")
    if res["known_defect"]:
        print(f"# {workload}: {res['known_defect_share']:.2%} of item time "
              "is spent on known-defect items")
    for line in res["failures"]:
        print(f"# FAILED {line}", file=sys.stderr)
    if res.get("missing"):
        print(f"# {workload}: names missing from the program: "
              + ", ".join(res["missing"]))
    return res, metrics


def run_workload(workload, seed, seconds, modes, deadline):
    """The untraced and/or traced measurement of one workload, as one
    report."""
    report = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for traced in modes:
        res, metrics = measurement(workload, seed, seconds, traced, deadline)
        report["correct"] &= res["failed"] == 0
        report["attempted"] += res["items"]
        report["failed"] += res["failed"]
        report["metrics"].update(metrics)
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="only the untraced (0) or the traced (1) measurement")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dispnet").is_dir():
        print(f"error: no dispnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    deadline = time.monotonic() + DEADLINE_S * len(names) * len(modes)
    try:
        reports = {w: run_workload(w, args.seed, args.seconds, modes, deadline)
                   for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(reports))
    else:
        print(json.dumps(reports[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
