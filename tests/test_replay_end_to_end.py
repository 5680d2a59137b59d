"""End-to-end replay vs the independent serial oracle, resume from
crash-mid-epoch, idempotent re-run, quarantine, schema evolution.

These are the north-star tests (BASELINE.md): final-state per-row
content sha256 equality, exactly-once under retries/crashes.
"""

import glob
import hashlib
import os

import pandas as pd
import pytest

import ray.data

from cosmwasm_etl_ray.config import EngineConfig, GeneratorConfig
from cosmwasm_etl_ray.pipelines.replay import (
    apply_epoch,
    plan_epochs,
    read_state,
    replay_files,
    serial_oracle_replay,
)
from cosmwasm_etl_ray.sources.generator import generate_change_stream
from cosmwasm_etl_ray.state.manifest import StateStore

CFG = EngineConfig(num_partitions=8, epoch_max_events=30_000, batch_size=4096)


@pytest.fixture(scope="module")
def change_log(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("changes"))
    info = generate_change_stream(
        out,
        GeneratorConfig(
            seed=11, n_keys=2_000, n_events=80_000, events_per_file=10_000,
            malformed_frac=0.003, evolve_at_frac=0.6,
        ),
    )
    return info


def _state_key_content(df: pd.DataFrame) -> dict:
    return {
        (r.repo, r.path): (r.commit, r.content)
        for r in df.itertuples()
    }


def test_replay_matches_serial_oracle(change_log, tmp_path):
    store = StateStore(str(tmp_path / "store"))
    replay_files(change_log["files"], store, CFG)

    engine = read_state(store).to_pandas()
    raw = pd.concat(
        [pd.read_parquet(f) for f in change_log["files"]], ignore_index=True
    )
    oracle = serial_oracle_replay(raw)

    assert len(engine) == len(oracle)
    e_map = _state_key_content(engine)
    o_map = _state_key_content(oracle)
    assert e_map.keys() == o_map.keys()
    # the per-row invariant: content sha256 equality, 100% of keys
    mismatches = [
        k
        for k in e_map
        if hashlib.sha256(e_map[k][1].encode()).digest()
        != hashlib.sha256(o_map[k][1].encode()).digest()
    ]
    assert mismatches == []


def test_quarantine_side_output(change_log, tmp_path):
    store = StateStore(str(tmp_path / "store"))
    replay_files(change_log["files"], store, CFG)
    qfiles = glob.glob(os.path.join(store.quarantine_dir, "**/*.parquet"), recursive=True)
    q = pd.concat([pd.read_parquet(f) for f in qfiles], ignore_index=True)
    assert len(q) == change_log["n_malformed"] > 0
    assert (q["error"] == "invalid_commit_or_op").all()
    # raw payload preserved for deterministic replay
    assert {"repo", "path", "commit", "content", "op"} <= set(q.columns)


def test_crash_mid_epoch_resume_reconverges(change_log, tmp_path):
    """Kill between partition write and manifest commit; the re-run must
    reconverge to identical state (SURVEY.md §7.2 step 3)."""
    full_store = StateStore(str(tmp_path / "full"))
    replay_files(change_log["files"], full_store, CFG)
    expected = (
        read_state(full_store).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    )

    crash_store = StateStore(str(tmp_path / "crash"))
    epochs = plan_epochs(change_log["files"], CFG)
    # epoch 0 commits fine
    apply_epoch(ray.data.read_parquet(epochs[0]), crash_store, 0, CFG)

    # epoch 1 "crashes": partitions written, manifest withheld
    class CrashingStore(StateStore):
        def commit_epoch(self, *a, **k):
            raise RuntimeError("simulated crash before manifest commit")

    crashing = CrashingStore(crash_store.root)
    with pytest.raises(RuntimeError):
        apply_epoch(ray.data.read_parquet(epochs[1]), crashing, 1, CFG)
    assert crash_store.latest_epoch() == 0  # cursor did not advance
    leftover = glob.glob(os.path.join(crash_store.state_dir, "epoch=1", "*.parquet"))
    assert leftover  # orphan partition files exist

    # resume: replays epoch 1 from the cursor, overwrites orphans
    replay_files(change_log["files"], crash_store, CFG)
    got = (
        read_state(crash_store).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        expected[["repo", "path", "commit", "content"]],
        got[["repo", "path", "commit", "content"]],
    )


def test_rerun_committed_epoch_is_noop(change_log, tmp_path):
    store = StateStore(str(tmp_path / "store"))
    manifests = replay_files(change_log["files"], store, CFG)
    again = replay_files(change_log["files"], store, CFG)
    assert again == []  # cursor says done
    m = apply_epoch(ray.data.read_parquet(change_log["files"][:1]), store, 0, CFG)
    assert m["counts"] == manifests[0]["counts"]  # returns existing manifest


def test_schema_evolution_null_backfill(tmp_path):
    """The additive `mode` column appears mid-stream; earlier keys whose
    last event predates it must carry mode = null in final state."""
    log_dir = str(tmp_path / "late_evolve")
    change_log = generate_change_stream(
        log_dir,
        GeneratorConfig(
            seed=13, n_keys=3_000, n_events=20_000, events_per_file=5_000,
            malformed_frac=0.0, evolve_at_frac=0.95,
        ),
    )
    store = StateStore(str(tmp_path / "store"))
    replay_files(change_log["files"], store, CFG)
    state = read_state(store).to_pandas()
    assert "mode" in state.columns
    assert state["mode"].isna().any()
    assert state["mode"].notna().any()
    raw = pd.concat(
        [pd.read_parquet(f) for f in change_log["files"]], ignore_index=True
    )
    oracle = serial_oracle_replay(raw)
    o_mode = {
        (r.repo, r.path): (r.mode if isinstance(r.mode, str) else None)
        for r in oracle.itertuples()
    }
    e_mode = {
        (r.repo, r.path): (r.mode if isinstance(r.mode, str) else None)
        for r in state.itertuples()
    }
    assert o_mode == e_mode


def test_empty_epoch_commits_cleanly(tmp_path):
    """An epoch with zero rows (or all-quarantine) must still commit a
    manifest and advance the cursor."""
    import pyarrow as pa
    import pyarrow.parquet as pq_mod
    import ray.data as rd

    empty = pa.table(
        {c: pa.array([], type=pa.string())
         for c in ("repo", "path", "commit", "lang", "content", "op")}
    )
    f = str(tmp_path / "empty.parquet")
    pq_mod.write_table(empty, f)
    store = StateStore(str(tmp_path / "store"))
    m = apply_epoch(rd.read_parquet([f]), store, 0, CFG, input_rows=0)
    assert m["epoch"] == 0 and store.latest_epoch() == 0
    assert m["counts"]["touched_partitions"] == 0

    # all-quarantine epoch: every row invalid
    bad = pa.table(
        {
            "repo": pa.array(["r"] * 3),
            "path": pa.array(["p1", "p2", "p3"]),
            "commit": pa.array(["", "", ""]),
            "lang": pa.array(["go"] * 3),
            "content": pa.array(["x"] * 3),
            "op": pa.array(["update"] * 3),
        }
    )
    f2 = str(tmp_path / "bad.parquet")
    pq_mod.write_table(bad, f2)
    m2 = apply_epoch(rd.read_parquet([f2]), store, 1, CFG, input_rows=3)
    assert m2["counts"]["quarantined"] == 3
    assert m2["counts"]["applied_events"] == 0
    assert store.latest_epoch() == 1


def test_more_partitions_than_keys(tmp_path):
    """P larger than the key count must still work (mostly-empty
    partitions) and produce the oracle state."""
    import ray.data as rd

    log = generate_change_stream(
        str(tmp_path / "log"),
        GeneratorConfig(seed=3, n_keys=20, n_events=2_000, events_per_file=1_000,
                        malformed_frac=0.0, evolve_at_frac=None),
    )
    cfg = EngineConfig(num_partitions=256, epoch_max_events=1_000)
    store = StateStore(str(tmp_path / "store"))
    replay_files(log["files"], store, cfg)
    got = read_state(store).to_pandas()
    raw = pd.concat([pd.read_parquet(f) for f in log["files"]], ignore_index=True)
    oracle = serial_oracle_replay(raw)
    assert len(got) == len(oracle)
    assert set(zip(got.repo, got.path, got.commit)) == set(
        zip(oracle.repo, oracle.path, oracle.commit)
    )


def test_random_epoch_boundaries_same_state(change_log, tmp_path):
    """Any epoching of the same log (different epoch_max_events) must
    produce the identical final state — the carry-across-epochs
    end-to-end invariant (complementing the fold-level hypothesis
    split-invariance test)."""
    frames = []
    for i, epoch_events in enumerate([10_000, 25_000, 80_000]):
        cfg = EngineConfig(num_partitions=8, epoch_max_events=epoch_events, batch_size=4096)
        store = StateStore(str(tmp_path / f"s{i}"))
        replay_files(change_log["files"], store, cfg)
        f = (
            read_state(store)
            .to_pandas()
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        frames.append(f[["repo", "path", "commit", "content"]])
    pd.testing.assert_frame_equal(frames[0], frames[1])
    pd.testing.assert_frame_equal(frames[0], frames[2])


def test_lookup_state_prunes_partitions(change_log, tmp_path):
    """Point lookups read only the partitions the keys hash to, and
    return exactly the full state filtered to those keys (tombstoned
    keys miss)."""
    from cosmwasm_etl_ray.pipelines.replay import lookup_state

    cfg = EngineConfig(num_partitions=16)
    store = StateStore(str(tmp_path / "store"))
    replay_files(change_log["files"], store, cfg)
    full = read_state(store).to_pandas()
    keys = (
        full[["repo", "path"]]
        .drop_duplicates()
        .sort_values(["repo", "path"])
        .head(5)
        .reset_index(drop=True)
    )
    ds, files = lookup_state(store, keys, cfg.num_partitions)
    assert 1 <= len(files) <= 5 < 16
    got = (
        ds.to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    )
    want = (
        full.merge(keys, on=["repo", "path"])
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)]
    )
    # a key that never existed: empty result, still a pruned read
    ghost = pd.DataFrame({"repo": ["no_such_repo"], "path": ["nope"]})
    ds2, files2 = lookup_state(store, ghost, cfg.num_partitions)
    assert len(files2) <= 1 and len(ds2.to_pandas()) == 0


def test_epoch_diff_matches_state_diff(change_log, tmp_path):
    """epoch_diff(store, a, b) must equal the brute diff of the live
    states at a and b, and read only manifest-touched partitions."""
    from cosmwasm_etl_ray.pipelines.replay import epoch_diff

    cfg = EngineConfig(num_partitions=8, epoch_max_events=30_000)
    store = StateStore(str(tmp_path / "store"))
    replay_files(change_log["files"], store, cfg)
    epochs = store.committed_epochs()
    assert len(epochs) >= 2
    a, b = epochs[0], epochs[-1]
    got = (
        epoch_diff(store, a, b)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    s_a = read_state(store, a).to_pandas()[["repo", "path", "commit"]]
    s_b = read_state(store, b).to_pandas()[["repo", "path", "commit"]]
    m = s_a.merge(
        s_b, on=["repo", "path"], how="outer",
        suffixes=("_a", "_b"), indicator=True,
    )
    kind = pd.Series("update", index=m.index, dtype="object")
    kind[m["_merge"] == "right_only"] = "insert"
    kind[m["_merge"] == "left_only"] = "delete"
    changed = (m["_merge"] != "both") | (m["commit_a"] != m["commit_b"])
    want = pd.DataFrame(
        {
            "repo": m["repo"][changed],
            "path": m["path"][changed],
            "kind": kind[changed],
            "commit": m["commit_b"].where(
                m["_merge"] != "left_only", m["commit_a"]
            )[changed],
        }
    ).sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    # identical endpoints -> empty feed with the right schema (Ray's
    # to_pandas drops columns on an all-empty dataset; check schema())
    empty = epoch_diff(store, b, b)
    assert empty.count() == 0
    assert empty.schema().names == ["repo", "path", "kind", "commit"]
