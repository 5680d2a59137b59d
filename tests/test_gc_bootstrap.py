"""State GC (lineage-aware) + checkpoint bootstrap (builder analogue)."""

import glob
import os

import pandas as pd

from cosmwasm_etl_ray.config import EngineConfig, GeneratorConfig
from cosmwasm_etl_ray.pipelines.replay import (
    plan_epochs,
    read_state,
    replay_files,
    serial_oracle_replay,
)
from cosmwasm_etl_ray.sources.generator import generate_change_stream
from cosmwasm_etl_ray.state.gc import bootstrap_store, gc_state
from cosmwasm_etl_ray.state.manifest import StateStore

CFG = EngineConfig(num_partitions=4, epoch_max_events=10_000, batch_size=4096)


def _log(tmp_path):
    return generate_change_stream(
        str(tmp_path / "log"),
        GeneratorConfig(seed=37, n_keys=500, n_events=40_000, events_per_file=10_000,
                        malformed_frac=0.0, evolve_at_frac=None),
    )


def test_gc_removes_superseded_keeps_state_identical(tmp_path):
    log = _log(tmp_path)
    store = StateStore(str(tmp_path / "store"))
    replay_files(log["files"], store, CFG)  # 4 epochs, 4 partitions each
    before = read_state(store).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)

    n_before = len(glob.glob(os.path.join(store.state_dir, "epoch=*", "*.parquet")))
    res = gc_state(store, keep_manifests=1)
    n_after = len(glob.glob(os.path.join(store.state_dir, "epoch=*", "*.parquet")))
    assert res["deleted"] > 0
    assert n_after == n_before - res["deleted"] == res["kept"]

    after = read_state(store).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(before, after)
    # gc is idempotent
    assert gc_state(store, keep_manifests=1)["deleted"] == 0


def test_gc_then_continue_replay(tmp_path):
    log = _log(tmp_path)
    store = StateStore(str(tmp_path / "store"))
    replay_files(log["files"][:2], store, CFG)
    gc_state(store, keep_manifests=1)
    replay_files(log["files"], store, CFG)  # continue after GC

    full = StateStore(str(tmp_path / "full"))
    replay_files(log["files"], full, CFG)
    a = read_state(store).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    b = read_state(full).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        a[["repo", "path", "commit", "content"]], b[["repo", "path", "commit", "content"]]
    )


def test_derived_catch_up_behind_gc_window_refused(tmp_path):
    """A price catch-up from behind the manifests gc_state kept would
    join state files gc deleted: PriceTask and run_all_tasks refuse
    before launching anything, naming the epoch and gc_state."""
    import pytest

    from cosmwasm_etl_ray.pipelines.aggregator import WindowStatsTask, run_all_tasks
    from cosmwasm_etl_ray.pipelines.price import PriceTask

    store = StateStore(str(tmp_path / "store"))
    replay_files(_log(tmp_path)["files"], store, CFG)
    assert gc_state(store, keep_manifests=2)["deleted"] > 0
    with pytest.raises(ValueError, match=r"epoch 0 is gone .*gc_state"):
        PriceTask(store, CFG).run()
    with pytest.raises(ValueError, match=r"epoch 0 is gone .*gc_state"):
        run_all_tasks(store, CFG)
    assert WindowStatsTask(store, CFG).cursor() is None
    assert PriceTask(store, CFG).cursor() is None


def test_bootstrap_from_snapshot_then_replay_tail(tmp_path):
    """Bootstrap epoch 0 from the serial-oracle state of the first half
    of the log, replay the second half on top → identical final state
    to a full replay (the checkpoint-builder path)."""
    log = _log(tmp_path)
    epochs = plan_epochs(log["files"], CFG)
    half = 2
    head_files = [f for e in epochs[:half] for f in e]
    tail_files = [f for e in epochs[half:] for f in e]

    head_raw = pd.concat([pd.read_parquet(f) for f in head_files], ignore_index=True)
    snapshot = serial_oracle_replay(head_raw)

    boot = StateStore(str(tmp_path / "boot"))
    m = bootstrap_store(snapshot, boot, CFG)
    assert m["epoch"] == 0 and boot.latest_epoch() == 0
    # replay the tail as epochs 1.. on top of the bootstrap
    from cosmwasm_etl_ray.pipelines.replay import apply_epoch
    import ray.data

    for i, epoch_files in enumerate(plan_epochs(tail_files, CFG), start=1):
        apply_epoch(
            ray.data.read_parquet(epoch_files), boot, i, CFG,
            (epoch_files[0], epoch_files[-1]),
        )

    full = StateStore(str(tmp_path / "full"))
    replay_files(log["files"], full, CFG)
    a = read_state(boot).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    b = read_state(full).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        a[["repo", "path", "commit", "content"]], b[["repo", "path", "commit", "content"]]
    )


def test_bootstrap_requires_empty_store(tmp_path):
    log = _log(tmp_path)
    store = StateStore(str(tmp_path / "store"))
    replay_files(log["files"][:1], store, CFG)
    import pytest

    with pytest.raises(ValueError):
        bootstrap_store(pd.DataFrame(), store, CFG)
