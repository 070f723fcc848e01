"""Tests of the benchmark itself (not part of the repository's suite).

    python3 -m pytest -q perfbench/selftest.py

Runs are kept tiny by PERFBENCH_BLOCK_ITEMS, which cuts every block to
its first items.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {"PERFBENCH_BLOCK_ITEMS": "60"}


def bench(root, *args, extra_env=TINY):
    env = dict(os.environ, **extra_env)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0", *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


GROUPS = {None: ("end_to_end", "per_layer"), "0": ("end_to_end",),
          "1": ("per_layer",)}


@pytest.mark.parametrize("trace", [None, "0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for group in GROUPS[trace] for m in spec[group]}
    proc = bench(ROOT, *(("--trace", trace) if trace else ()))
    reports = result(proc)
    assert set(reports) == {w["name"] for w in spec["workloads"]}
    for name, report in reports.items():
        assert report["correct"] and report["failed"] == 0, name
        assert report["attempted"] >= 1
        got = {k: m["unit"] for k, m in report["metrics"].items()}
        assert got == want, name
        for k, m in report["metrics"].items():
            assert isinstance(m["value"], (int, float)), (name, k)
            assert f"{name:17s} {k:36s}" in proc.stdout
        assert f"{name:17s} {'fail_ratio':36s}" in proc.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_block_holds_at_least_1000_items(name):
    assert len(WORKLOADS[name](3).block(0)) >= 1000


def test_item_times_are_scaled_by_the_reference_timings_around_them(monkeypatch):
    timings = iter([4_000_000, 2_000_000, 6_000_000])
    monkeypatch.setattr(speed, "reference_ns", lambda: next(timings))
    scaler = speed.Scaler()
    scaler.add(300)
    scaler.add(600)
    # timed at 4 ms before and 2 ms after: a factor of 2 ms / 3 ms
    assert scaler.block_end() == pytest.approx([200, 400])
    scaler.add(800)
    assert scaler.block_end() == pytest.approx([400])


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    better = {name: entry[1] for name, entry in tracing.LAYER_METRICS.items()}
    for m in spec["per_layer"]:
        assert better.get(m["name"], "lower") == m["better"], m["name"]


def copy_bench(tmp_path, with_src=True):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
    if with_src:
        shutil.copytree(ROOT / "src" / "dispnet", tmp_path / "src" / "dispnet",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_corrupted_reference_shows_in_fail_ratio(tmp_path):
    root = copy_bench(tmp_path)
    data = root / "perfbench" / "data" / "lambek.txt"
    lines = data.read_text().splitlines()
    flipped = [line[:-1] + ("0" if line.endswith("1") else "1")
               if not line.startswith("#") else line for line in lines]
    data.write_text("\n".join(flipped) + "\n")
    proc = bench(root, "--workload", "prove-lambek", "--trace", "1")
    report = result(proc)
    assert not report["correct"]
    assert report["failed"] == report["attempted"]
    assert report["metrics"]["fail_ratio"]["value"] == 1.0
    assert "LambekOracle says" in proc.stderr


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    root = copy_bench(tmp_path, with_src=False)
    proc = bench(root, "--workload", "parse-mix", extra_env={})
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_runs_agree(name):
    workload = WORKLOADS[name](7)
    workload.references()
    block = workload.block(0)[:80]
    plain, traced = worker.Run(), worker.Run()
    t = tracing.Tracer()
    for item in block:
        worker.run_item(workload, item, plain)
        worker.run_item(workload, item, traced, t)
    assert plain.outcomes == traced.outcomes
    assert plain.readings == traced.readings
    assert not plain.failures and not traced.failures
    assert len(t.span_name) > len(block)
    # the benchmark's own checks leave no spans outside the items
    assert {span for span, _d, _s, parent in t.spans() if parent is None} == {"item"}


def test_a_missing_name_is_reported_not_fatal(monkeypatch):
    targets = tuple(
        (m, "extract_nd_gone" if a == "extract_nd" else a, n, k)
        for m, a, n, k in tracing.TARGETS)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    workload = WORKLOADS["roundtrip-corpus"](1)
    workload.references()
    t = tracing.Tracer()
    done = worker.Run()
    for item in workload.block(0)[:10]:
        worker.run_item(workload, item, done, t)
    assert t.missing == ["nd.extract_nd_gone"]
    values = tracing.layer_metrics(t, done.items, done.readings)
    assert values["nd.extract.calls"] is None
    assert values["nd.recontract.calls"] is None
    assert values["nd.check.self_ms"] > 0
    assert values["contraction.contract.calls"] > 0
