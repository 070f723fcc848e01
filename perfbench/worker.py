"""Run one workload in this process and print its result as JSON.

    python3 perfbench/worker.py WORKLOAD SEED --seconds S
                                [--traced] [--setup-only]

``run.py`` starts this script once per measurement, so that every
workload runs single-threaded in a fresh process. The first line of
standard output is ``ready``, printed when set-up ends, and the second
the time of the reference work of ``speed.py`` just after it. The
workload then works out the references it needs and starts its first
timed item. The last line is the result. The run measures
whole blocks until about S seconds of item time have passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import Scaler, reference_ns  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def quantile(sorted_values, q):
    """Nearest-rank quantile: the value with a share q of samples at or
    below it."""
    k = max(0, min(len(sorted_values) - 1, round(q * len(sorted_values)) - 1))
    return sorted_values[k]


class Raised:
    """What an item that raised keeps in place of its output."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Raised({self.text!r})"


def make_block(workload, index):
    """The workload's block, cut to PERFBENCH_BLOCK_ITEMS items when that
    is set (for tiny test runs)."""
    limit = int(os.environ.get("PERFBENCH_BLOCK_ITEMS", "0")) or None
    return workload.block(index)[:limit]


def max_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_item(workload, item, run, tracer=None):
    """Run one item, traced when a tracer is given, and check its output
    outside its time. Returns the item's wall time in ns.

    The peak resident size is read before the check; a check that raises
    it is counted, so the report shows whether the checks ever set the
    peak."""
    if tracer is not None:
        tracer.install()
        tracer.current_item = run.items
        span = tracer.begin(0)
    start = perf_counter_ns()
    try:
        result = workload.call(item)
    except Exception as exc:  # counted as a failed item
        result = Raised(exc)
    elapsed = perf_counter_ns() - start
    if tracer is not None:
        tracer.finish(span)
        tracer.uninstall()
    run.peak_rss_kb = max_rss_kb()
    run.record(workload, item, result, elapsed)
    raised = max_rss_kb() - run.peak_rss_kb
    if raised:
        run.checks_raised_rss += 1
        run.checks_raised_rss_kb += raised
    return elapsed


def block_stats(latencies):
    ordered = sorted(latencies)
    p99 = quantile(ordered, 0.99)
    return {
        "items_per_s": len(ordered) / (sum(ordered) / 1e9),
        "latency_p50_ms": quantile(ordered, 0.50) / 1e6,
        "latency_p99_ms": p99 / 1e6,
        "block_items": len(ordered),
        "beyond_p99": sum(1 for x in ordered if x > p99),
    }


def measure(workload, block, seconds, tracer):
    """The timed phase: whole blocks until about ``seconds`` of item wall
    time have passed, starting with ``block``. Returns the run, the
    number of blocks, the blocks' statistics of scaled and of wall times
    with the reference timings (untraced), and the tracing overhead
    (traced).

    With a tracer, every item runs twice, untraced and traced, in an
    order that alternates from item to item, so that neither the
    machine's drifting speed nor warm caches favour one side. The pairs
    give the tracing overhead and must agree on every outcome."""
    plain, traced = Run(), Run()
    scaler = Scaler() if tracer is None else None
    scaled_stats, wall_stats = [], []
    index = 0
    while True:
        if tracer is None:
            walls = []
            for item in block:
                scaler.before_item()
                walls.append(run_item(workload, item, plain))
                scaler.add(walls[-1])
            scaled_stats.append(block_stats(scaler.block_end()))
            wall_stats.append(block_stats(walls))
        else:
            for n, item in enumerate(block):
                sides = [(plain, None), (traced, tracer)]
                for run, t in (sides if n % 2 == 0 else reversed(sides)):
                    run_item(workload, item, run, t)
            if plain.outcomes != traced.outcomes:
                traced.failures.append(f"block {index}: traced and untraced "
                                       "runs differ in verdicts or reading counts")
        plain.outcomes.clear()
        traced.outcomes.clear()
        index += 1
        spent = (plain.ns + traced.ns) / 1e9
        if spent + spent / index / 2 >= seconds:
            break
        block = make_block(workload, index)
    if tracer is not None:
        return traced, index, None, traced.ns / plain.ns - 1
    return plain, index, (scaled_stats, wall_stats, scaler.samples), None


def median_block(stats):
    """The median over the blocks of each rate and latency; the sample
    counts of the first block."""
    out = {name: statistics.median(b[name] for b in stats)
           for name in ("items_per_s", "latency_p50_ms", "latency_p99_ms")}
    out.update(block_items=stats[0]["block_items"],
               beyond_p99=stats[0]["beyond_p99"])
    return out


class Run:
    """Outcomes and check results of a timed phase."""

    def __init__(self):
        self.items = 0
        self.ns = 0
        self.ns_by_group = Counter()    # template -> item wall time
        self.ns_known_defect = 0
        self.peak_rss_kb = 0            # read before the last check
        self.checks_raised_rss = 0
        self.checks_raised_rss_kb = 0
        self.outcomes = []      # of this block: traced and untraced must agree
        self.readings = 0
        self.known_defect = Counter()   # detail -> items
        self.failures = []

    def record(self, workload, item, result, elapsed):
        n = self.items
        self.items += 1
        self.ns += elapsed
        group = workload.group(item)
        if group is not None:
            self.ns_by_group[group] += elapsed
        if not isinstance(result, Raised):
            try:
                kept = workload.keep(result)
                why = workload.check(item, kept)
            except Exception as exc:
                result = Raised(exc)
        if isinstance(result, Raised):
            self.outcomes.append(repr(result))
            why = result.text
        else:
            self.outcomes.append(workload.outcome(kept))
            self.readings += workload.readings(kept)
        if why is not None and why.startswith("known: "):
            self.known_defect[why[len("known: "):]] += 1
            self.ns_known_defect += elapsed
        elif why is not None:
            self.failures.append(f"item {n} ({workload.describe(item)}): {why}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    first = make_block(workload, 0)  # input generation belongs to set-up
    # the benchmark's own inputs need no scanning by the collector
    gc.collect()
    gc.freeze()
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
    print("ready", flush=True)
    # the machine's speed just after set-up, to scale the set-up time
    print("reference", sorted(reference_ns() for _ in range(3))[1], flush=True)
    if args.setup_only:
        return 0
    workload.references()

    run, blocks, stats, overhead = measure(workload, first, args.seconds, tracer)
    out = {
        "items": run.items,
        "blocks": blocks,
        "failed": len(run.failures),
        "known_defect": dict(run.known_defect),
        "known_defect_share": run.ns_known_defect / run.ns,
        "time_share": {g: ns / run.ns for g, ns in run.ns_by_group.items()},
        "checks_raised_rss": run.checks_raised_rss,
        "checks_raised_rss_kb": run.checks_raised_rss_kb,
        "failures": run.failures[:20],
    }
    if tracer is None:
        scaled, wall, ref = stats
        out.update(median_block(scaled))
        out["wall"] = median_block(wall)
        ref.sort()
        out["reference_ms"] = [ref[0] / 1e6, statistics.median(ref) / 1e6,
                               ref[-1] / 1e6, len(ref)]
        out["peak_rss_mb"] = run.peak_rss_kb / 1024
    else:
        from tracer import layer_metrics

        out["layers"] = layer_metrics(tracer, run.items, run.readings)
        out["layers"]["trace.overhead"] = overhead
        out["missing"] = tracer.missing + sorted(tracer.broken)
        spans_dir = Path(__file__).resolve().parent.parent / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"spans-{args.workload}.tsv.gz")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
