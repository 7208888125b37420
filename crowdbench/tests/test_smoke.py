"""End-to-end smoke runs of the benchmark on seconds-scale inputs."""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args, cwd=ROOT, timeout=120):
    """``python3 crowdbench/run.py ARGS`` in ``cwd``, as the driver calls it."""
    return subprocess.run(
        [sys.executable, "crowdbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("worlds")


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["crowdbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == ["cold_build", "serve_read", "live", "fleet"]
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"}
               for w in SPEC["workloads"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_of_every_workload(cache_dir, tmp_path, trace, section):
    t0 = time.perf_counter()
    done = _run("--workload", "all", "--smoke", "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--cache-dir", str(cache_dir),
                "--output", str(tmp_path / "report.json"),
                "--trace-dir", str(tmp_path / "traces"))
    elapsed = time.perf_counter() - t0
    assert done.returncode == 0, done.stderr[-3000:]
    assert elapsed <= 30.0
    combined = json.loads(done.stdout.strip().splitlines()[-1])
    assert combined["correct"] and combined["failed"] == 0
    expected = [m["name"] for m in SPEC[section]]
    for workload in [w["name"] for w in SPEC["workloads"]]:
        report = json.loads((tmp_path / f"report.{workload}.json").read_text())
        metrics = report["result"]["metrics"]
        assert list(metrics) == expected
        assert all(NAME.fullmatch(name) for name in metrics)
        assert set(report["result"]) == {"correct", "attempted", "failed", "metrics"}
        assert report["result"]["attempted"] >= 1
        if trace:
            assert (tmp_path / "traces" / workload / "spans.jsonl").exists()
            assert (tmp_path / "traces" / workload / "trace.json").exists()
        else:
            assert all(m["value"] > 0 for m in metrics.values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "crowdbench", tmp_path / "crowdbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "cold_build", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
