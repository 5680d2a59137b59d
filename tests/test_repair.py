"""Checkpoint diff-and-repair: corrupt one partition, diff against a
trusted snapshot, synthesize classified repair events through the
normal apply path, reconverge."""

import pandas as pd
import pyarrow.parquet as pq
import pytest

from cosmwasm_etl_ray.config import EngineConfig, GeneratorConfig
from cosmwasm_etl_ray.pipelines.replay import read_state, replay_files
from cosmwasm_etl_ray.sources.generator import generate_change_stream
from cosmwasm_etl_ray.state.manifest import StateStore
from cosmwasm_etl_ray.state.repair import diff_and_repair, diff_state_vs_snapshot

CFG = EngineConfig(num_partitions=4, epoch_max_events=15_000)


@pytest.fixture()
def replayed(tmp_path, monkeypatch):
    """A 4-epoch store written one file per pid (the row target patched
    down, so G = P): ``_corrupt_partition`` rewrites one pid's file."""
    from cosmwasm_etl_ray.pipelines import replay

    monkeypatch.setattr(replay, "ROW_GROUP_ROWS", 1)
    log = generate_change_stream(
        str(tmp_path / "log"),
        GeneratorConfig(seed=59, n_keys=400, n_events=30_000, events_per_file=7_500,
                        malformed_frac=0.0, evolve_at_frac=None),
    )
    store = StateStore(str(tmp_path / "store"))
    replay_files(log["files"], store, CFG)
    return log, store


def _corrupt_partition(store) -> dict:
    """Drop 3 live rows, mangle 2 contents, inject 1 bogus key in one
    partition state file. Returns the planted damage."""
    pid = min(store.partition_files())
    path = store.partition_files()[pid]
    df = pq.read_table(path).to_pandas()
    live = df[df["op"] != "delete"]
    dropped = live.head(3)
    mangled = live.iloc[3:5]
    df = df.drop(index=dropped.index)
    df.loc[mangled.index, "content"] = "CORRUPTED"
    # the ghost key must hash-route to THIS partition (repair deletes
    # flow through normal pid routing); probe for a matching suffix
    import numpy as np

    from cosmwasm_etl_ray.functions.hashing import stable_hash64

    i = 0
    while True:
        gpath = f"ghost/path{i}"
        h = stable_hash64(np.array(["ghost_repo"]), np.array([gpath]))[0]
        if int(h % np.uint64(CFG.num_partitions)) == pid:
            break
        i += 1
    bogus = df.iloc[[-1]].copy()
    bogus["repo"], bogus["path"], bogus["op"] = "ghost_repo", gpath, "update"
    df = pd.concat([df, bogus], ignore_index=True)
    import pyarrow as pa

    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), path)
    return {"dropped": 3, "mangled": 2, "bogus": 1}


def test_clean_store_diff_is_empty(replayed):
    log, store = replayed
    snapshot = read_state(store).to_pandas()
    res = diff_and_repair(store, snapshot, CFG)
    assert res == {"n_insert": 0, "n_update": 0, "n_delete": 0, "epoch": None}


def test_corruption_classified_and_repaired(replayed):
    log, store = replayed
    snapshot = read_state(store).to_pandas()  # trusted checkpoint
    planted = _corrupt_partition(store)

    res = diff_and_repair(store, snapshot, CFG)
    assert res["n_insert"] == planted["dropped"]
    assert res["n_update"] == planted["mangled"]
    assert res["n_delete"] == planted["bogus"]
    assert res["epoch"] == store.latest_epoch()

    # reconverged: same keys, same contents (repair rows carry the
    # repair commit — the checkpoint-height analogue)
    after = read_state(store).to_pandas()
    a = after.set_index(["repo", "path"])["content"].sort_index()
    s = snapshot.set_index(["repo", "path"])["content"].sort_index()
    pd.testing.assert_series_equal(a, s)

    # the repair epoch is a regular manifest; file-based resume skips it
    assert replay_files(log["files"], store, CFG) == []

    # second repair is a no-op apart from commit stamps
    again = diff_state_vs_snapshot(
        store,
        __import__("ray").data.from_pandas(snapshot.reset_index(drop=True)),
    )
    assert again.empty


def test_repair_wins_over_live_tombstone(replayed):
    """The repair commit must exceed TOMBSTONE commits too: read_state
    drops tombstones, but a tombstone still participates in the LWW
    fold — a repair insert stamped below it would lose and the store
    would never reconverge."""
    import numpy as np
    import ray

    from cosmwasm_etl_ray.pipelines.replay import apply_epoch
    from cosmwasm_etl_ray.sources.changes import COMMIT_WIDTH

    log, store = replayed
    snapshot = read_state(store).to_pandas()  # trusted checkpoint

    # raw max commit over the partition files (tombstones included)
    raw_max = max(
        pq.read_table(p, columns=["commit"])["commit"].to_pandas().max()
        for p in store.partition_files().values()
    )
    # delete one live key at a commit ABOVE everything
    victim = snapshot.iloc[0]
    tomb_commit = str(int(raw_max) + 1).zfill(COMMIT_WIDTH)
    del_ev = pd.DataFrame(
        {
            "repo": [victim["repo"]],
            "path": [victim["path"]],
            "commit": [tomb_commit],
            "lang": [""],
            "content": [""],
            "op": ["delete"],
        }
    )
    apply_epoch(
        ray.data.from_pandas(del_ev),
        store,
        (store.latest_epoch() or 0) + 1,
        CFG,
        offset_range=("tomb", "tomb"),
        input_rows=1,
    )
    gone = read_state(store).to_pandas()
    assert (
        len(gone.merge(victim.to_frame().T[["repo", "path"]], on=["repo", "path"]))
        == 0
    )

    res = diff_and_repair(store, snapshot, CFG)
    assert res["n_insert"] == 1

    after = read_state(store).to_pandas()
    back = after.merge(
        victim.to_frame().T[["repo", "path"]], on=["repo", "path"]
    )
    assert len(back) == 1 and back["content"].iloc[0] == victim["content"]
    # and the repair row's commit really is above the tombstone
    assert back["commit"].iloc[0] > tomb_commit
