"""Tests of the benchmark itself, at a tiny input scale.

    python -m pytest perfbench/tests -q

- every workload runs end to end through the real command line and
  reports every end-to-end metric with no failed op;
- a traced run re-drives the layers serially, matches the oracle, and
  its layer self times cover at least 90% of its wall time outside the
  benchmark's own spans;
- the oracle comparison catches one corrupted row of a committed
  partition file.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

SCALE = 0.05


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    return {**json.loads(lines[-2]), **json.loads(lines[-1])}


@pytest.mark.parametrize("workload", ["backfill", "tail", "derive"])
def test_workload_smoke(workload):
    out = _run(workload, trace=0)
    assert out["failed"] == 0 and out["correct"], out["annotations"]["failures"]
    assert out["attempted"] >= 3
    names = {m["name"] for m in _spec()["end_to_end"]}
    assert set(out["metrics"]) == names
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], float | int) and m["value"] > 0, name


def test_traced_tail_matches_oracle_and_is_covered():
    out = _run("tail", trace=1)
    assert out["failed"] == 0 and out["correct"], out["annotations"]["failures"]
    names = {m["name"] for m in _spec()["per_layer"]}
    assert set(out["metrics"]) == names
    assert out["metrics"]["trace.coverage"]["value"] >= 0.9


def test_no_result_without_the_engine(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero
    and prints no result."""
    import shutil

    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tail", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


def test_oracle_catches_a_corrupted_row():
    import run as run_mod
    import workloads

    inputs = workloads.prepare_inputs(ROOT, "backfill", 5, SCALE)
    r = workloads.Run("backfill", 5, 1, SCALE, ROOT, False, inputs)
    session_dir = run_mod.start_ray(ROOT)
    try:
        r.write(0)
        r._op("clean scan", r.scan)
        assert r.failures == []

        part = sorted(glob.glob(os.path.join(r.store.state_dir, f"epoch={r.k}", "*.parquet")))[0]
        t = pq.read_table(part)
        live = [i for i, op in enumerate(t["op"].to_pylist()) if op != "delete"]
        content = t["content"].to_pylist()
        content[live[0]] = content[live[0]] + " corrupted"
        t = t.set_column(t.schema.get_field_index("content"), "content",
                         pa.array(content, pa.string()))
        pq.write_table(t, part)

        r._op("corrupted scan", r.scan)
        assert r.attempted == 2
        # the corrupted row is in the engine's state and missing from it
        assert len(r.failures) == 1 and "2 rows differ" in r.failures[0], r.failures
    finally:
        run_mod.stop_ray(session_dir)
        r.close()
