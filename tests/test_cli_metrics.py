"""CLI entry points (subprocess — each owns its Ray session) + metrics."""

import json
import os
import subprocess
import sys

from cosmwasm_etl_ray.config import EngineConfig, GeneratorConfig
from cosmwasm_etl_ray.pipelines.replay import replay_files
from cosmwasm_etl_ray.sources.generator import generate_change_stream
from cosmwasm_etl_ray.state.manifest import StateStore
from cosmwasm_etl_ray.state.metrics import store_metrics


def _run_cli(*args):
    out = subprocess.run(
        [sys.executable, "-m", "cosmwasm_etl_ray.cli", *args],
        capture_output=True, text=True, cwd="/root/repo",
        env={"PATH": "/usr/bin:/bin", "HOME": "/root", "RAY_ADDRESS": "local",
             "PYTHONPATH": "/root/repo"},
        # a wedged child Ray session (e.g. object-store contention from
        # other local clusters) must FAIL the test, not hang the suite.
        # 900 s: a clean run is ~50 s, but neighbor steal windows slow
        # the whole suite ~1.3-3× (BASELINE.md probes) — one observed
        # 600 s flake was contention, not a wedge
        timeout=900,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    text = out.stdout.strip()
    try:
        return json.loads(text)  # metrics prints indented multi-line JSON
    except json.JSONDecodeError:
        return json.loads(text.splitlines()[-1])


def test_cli_replay_then_metrics_and_gc(tmp_path):
    log = generate_change_stream(
        str(tmp_path / "log"),
        GeneratorConfig(seed=91, n_keys=200, n_events=10_000, events_per_file=2_500,
                        malformed_frac=0.01, evolve_at_frac=None),
    )
    store_dir = str(tmp_path / "store")
    res = _run_cli("replay", "--log-dir", str(tmp_path / "log"),
                   "--store", store_dir, "--epoch-events", "5000",
                   "--partitions", "4")
    assert res["applied_epochs"] == 2 and res["cursor"] == 1

    m = _run_cli("metrics", "--store", store_dir)
    assert m["cursor_epoch"] == 1
    assert m["total_applied_events"] + m["total_quarantined"] == 10_000
    assert m["partitions"]["count"] == 4
    assert m["state_live_rows"] <= m["state_rows"]

    g = _run_cli("gc", "--store", store_dir)
    st = StateStore(store_dir)
    named = {v["file"] for v in st.manifest(st.latest_epoch())["partitions"].values()}
    assert g["deleted"] >= 0 and g["kept"] == len(named) <= 4


def test_metrics_rollup_matches_manifests(tmp_path):
    log = generate_change_stream(
        str(tmp_path / "log"),
        GeneratorConfig(seed=92, n_keys=100, n_events=5_000, events_per_file=2_500,
                        malformed_frac=0.0, evolve_at_frac=None),
    )
    store = StateStore(str(tmp_path / "store"))
    cfg = EngineConfig(num_partitions=4, epoch_max_events=2_500)
    replay_files(log["files"], store, cfg)
    m = store_metrics(store)
    assert m["epochs_committed"] == 2
    assert m["total_applied_events"] == 5_000
    assert [e["epoch"] for e in m["per_epoch"]] == [0, 1]
    assert m["partitions"]["skew_ratio"] >= 1


def test_manifest_timings_account_for_written_bytes(tmp_path):
    """Each replayed manifest's ``timings`` are non-negative, its
    ``bytes_written`` is the summed size of the state and quarantine
    files its epoch wrote, its ``groups`` the number of state files,
    and store_metrics rolls each value up to its p50/p99 over the
    manifests."""
    import glob

    log = generate_change_stream(
        str(tmp_path / "log"),
        GeneratorConfig(seed=95, n_keys=300, n_events=9_000, events_per_file=3_000,
                        malformed_frac=0.01, evolve_at_frac=None),
    )
    store = StateStore(str(tmp_path / "store"))
    replay_files(log["files"], store, EngineConfig(num_partitions=8, epoch_max_events=3_000))
    keys = {"read_s", "fold_s", "write_s", "bytes_written", "slowest_group_s", "groups", "wait_s"}
    for e in store.committed_epochs():
        t = store.manifest(e)["timings"]
        assert set(t) == keys and min(t.values()) >= 0
        assert t["slowest_group_s"] <= t["read_s"] + t["fold_s"] + t["write_s"] + 1e-9
        written = [
            f for d in (store.state_dir, store.quarantine_dir)
            for f in glob.glob(os.path.join(d, f"epoch={e}", "*.parquet"))
        ]
        assert t["bytes_written"] == sum(os.path.getsize(f) for f in written) > 0
        state = glob.glob(os.path.join(store.state_dir, f"epoch={e}", "*.parquet"))
        assert t["groups"] == len(state) >= 1
    m = store_metrics(store)["timings"]
    assert set(m) == keys
    assert all(0 <= v["p50"] <= v["p99"] for v in m.values())


def test_cli_diagnose_dry_run_and_repair(tmp_path):
    log = generate_change_stream(
        str(tmp_path / "log"),
        GeneratorConfig(seed=93, n_keys=150, n_events=8_000, events_per_file=2_000,
                        malformed_frac=0.01, evolve_at_frac=None),
    )
    # diagnose is a dry run: the production replay into a temporary
    # store, which is gone when the command exits
    import glob
    import tempfile

    import pandas as pd

    from cosmwasm_etl_ray.pipelines.replay import serial_oracle_replay

    dry_dirs = os.path.join(tempfile.gettempdir(), "diagnose_*")
    before = set(glob.glob(dry_dirs))
    d = _run_cli("diagnose", "--log-dir", str(tmp_path / "log"),
                 "--start", "0", "--end", "2", "--partitions", "4")
    assert d["files"] == 2 and d["events"] == 4_000
    assert d["valid"] + d["would_quarantine"] == 4_000
    assert d["would_quarantine"] > 0  # malformed_frac=0.01
    raw = pd.concat([pd.read_parquet(f) for f in sorted(log["files"])[:2]], ignore_index=True)
    assert d["live_keys"] == len(serial_oracle_replay(raw))
    assert set(glob.glob(dry_dirs)) <= before
    assert not (tmp_path / "store").exists()

    # replay, snapshot, corrupt nothing: repair reports a clean store
    store_dir = str(tmp_path / "store")
    _run_cli("replay", "--log-dir", str(tmp_path / "log"),
             "--store", store_dir, "--epoch-events", "4000",
             "--partitions", "4")
    import ray

    from cosmwasm_etl_ray.pipelines.replay import read_state

    snap_path = str(tmp_path / "snap.parquet")
    read_state(StateStore(store_dir)).to_pandas().to_parquet(snap_path, index=False)
    r = _run_cli("repair", "--store", store_dir, "--snapshot", snap_path,
                 "--partitions", "4")
    assert r == {"n_insert": 0, "n_update": 0, "n_delete": 0, "epoch": None}


def test_cli_quarantine_bootstrap_export(tmp_path):
    log = generate_change_stream(
        str(tmp_path / "log"),
        GeneratorConfig(seed=94, n_keys=100, n_events=6_000, events_per_file=3_000,
                        malformed_frac=0.02, evolve_at_frac=None),
    )
    store_dir = str(tmp_path / "store")
    _run_cli("replay", "--log-dir", str(tmp_path / "log"), "--store", store_dir,
             "--epoch-events", "3000", "--partitions", "4")

    q = _run_cli("quarantine", "--store", store_dir)
    assert q["pending_files"] > 0  # malformed rows landed in quarantine
    qr = _run_cli("quarantine", "--store", store_dir, "--replay",
                  "--partitions", "4")
    assert qr["replayed"] and qr["epoch"] == 2
    # quarantine epoch doesn't break file-based resume
    r = _run_cli("replay", "--log-dir", str(tmp_path / "log"), "--store", store_dir,
                 "--epoch-events", "3000", "--partitions", "4")
    assert r["applied_epochs"] == 0

    out_dir = str(tmp_path / "export")
    x = _run_cli("export", "--store", store_dir, "--out", out_dir)
    assert x["files"] > 0

    # bootstrap a fresh store from the exported state
    import pandas as pd

    snap = pd.concat(
        [pd.read_parquet(f) for f in
         __import__("glob").glob(out_dir + "/*.parquet")], ignore_index=True
    )
    snap_path = str(tmp_path / "snap.parquet")
    snap.to_parquet(snap_path, index=False)
    b_dir = str(tmp_path / "boot")
    b = _run_cli("bootstrap", "--store", b_dir, "--snapshot", snap_path,
                 "--partitions", "4")
    assert b["epoch"] == 0 and b["counts"]["applied_events"] == len(snap)
