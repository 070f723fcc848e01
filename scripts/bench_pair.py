"""Paired benchmark runs of a parent commit against this checkout.

    python3 scripts/bench_pair.py --pr N [--note TEXT]

The parent, commit ``HEAD``, is exported with ``git archive`` into a
temporary directory; the change is this checkout's working tree. For
each workload of ``BENCHMARK.json``, pair i of 10 runs

    python3 perfbench/run.py --workload WORKLOAD --seed i --seconds S --trace 0

once in each tree, the parent first in odd pairs and the change first in
even ones, and keeps the JSON object of its last output line. S is the
``run_seconds`` of ``BENCHMARK.json``. The runs and, for every
end-to-end metric, the quartiles of each side, the pairs the change
wins, the median ratio and difference and the parent's interquartile
range go to ``BENCH_<N>.json`` in the root of this checkout. A run that
fails stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SIDES = ("parent", "change")


def git(*args, env=None) -> str:
    out = subprocess.run(("git",) + args, cwd=ROOT, text=True,
                         capture_output=True, env=env)
    if out.returncode != 0:
        sys.exit(f"error: git {' '.join(args)}: {out.stderr.strip()}")
    return out.stdout.strip()


def export(rev: str, into: Path) -> None:
    archive = subprocess.Popen(("git", "archive", rev), cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(("tar", "-x", "-C", str(into)), stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"error: git archive {rev} failed")


def working_tree(path: str) -> str:
    """The git tree id of ``path`` as it stands in the working tree,
    written through a scratch index so the real one is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", path, env=env)
        return git("write-tree", f"--prefix={path}/", env=env)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, text=True, capture_output=True)
    if out.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {tree} exited "
                 f"{out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summary(runs, better) -> dict:
    """Per end-to-end metric, given as name -> "lower" or "higher"."""
    out = {}
    for metric, direction in better.items():
        side = {s: [r[s]["metrics"][metric]["value"] for r in runs]
                for s in SIDES}
        wins = sum((c < p) if direction == "lower" else (c > p)
                   for p, c in zip(side["parent"], side["change"]))
        parent, change = quartiles(side["parent"]), quartiles(side["change"])
        out[metric] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "change_wins": f"{wins}/{len(runs)}",
            "median_ratio": change["median"] / parent["median"],
            "parent_iqr": parent["q3"] - parent["q1"],
            "median_diff": change["median"] - parent["median"],
        }
    out["correct"] = {s: all(r[s]["correct"] for r in runs) for s in SIDES}
    out["failed"] = {s: sum(r[s]["failed"] for r in runs) for s in SIDES}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True, help="number in BENCH_<N>.json")
    ap.add_argument("--note", default="")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parent = git("rev-parse", "--verify", "HEAD^{commit}")
    same = git("rev-parse", f"{parent}:perfbench") == working_tree("perfbench")
    report = {
        "harness": ("python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {seconds:g} --trace 0 (last output line)"),
        "machine": (f"{len(os.sched_getaffinity(0))} CPUs, Python "
                    f"{sys.version.split()[0]}; times scaled by "
                    "perfbench/speed.py"),
        "parent_commit": parent,
        "parent_src_tree": git("rev-parse", f"{parent}:src"),
        "change_commit": "the commit that adds this file, child of the parent commit",
        "change_src_tree": working_tree("src"),
        "pairing": ("pair i runs both sides with seed i; odd pairs run the "
                    "parent first, even pairs the change first"),
        "note": ("perfbench/ is identical on both sides. " if same else
                 "perfbench/ differs between the sides. ") + args.note,
        "workloads": {},
    }
    # a terminated run still removes the parent's export
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        parent_tree = Path(tmp)
        export(parent, parent_tree)
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for i in range(1, PAIRS + 1):
                order = SIDES if i % 2 else SIDES[::-1]
                row = {"pair": i, "seed": i, "first": order[0],
                       "parent": None, "change": None}
                for side in order:
                    tree = parent_tree if side == "parent" else ROOT
                    row[side] = run(tree, workload, i, seconds)
                runs.append(row)
                print(f"{workload} pair {i}: items_per_s " + " -> ".join(
                    f"{row[s]['metrics']['items_per_s']['value']:.1f}"
                    for s in SIDES), file=sys.stderr, flush=True)
            report["workloads"][workload] = {
                "seeds": list(range(1, PAIRS + 1)), "runs": runs,
                "summary": summary(runs, better)}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
