"""Delta state layout (state/delta.py): bit-equality with the full
layout, chain-aware GC, compaction, crash resume, and the guard rails.
The layout exists because the 1B soak diagnosed the full layout's
per-epoch state rewrite as the scale limiter (SOAK_1B.json)."""

import dataclasses
import glob
import os

import pandas as pd
import pytest

from cosmwasm_etl_ray.config import EngineConfig, GeneratorConfig
from cosmwasm_etl_ray.pipelines.replay import (
    lookup_state,
    read_state,
    replay_files,
)
from cosmwasm_etl_ray.sources.generator import generate_change_stream
from cosmwasm_etl_ray.state.delta import compact_state, partition_chains
from cosmwasm_etl_ray.state.gc import gc_state
from cosmwasm_etl_ray.state.manifest import StateStore

FULL = EngineConfig(num_partitions=8, epoch_max_events=15_000, batch_size=4096)
DELTA = dataclasses.replace(FULL, state_layout="delta")


@pytest.fixture(scope="module")
def change_log(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("changes"))
    return generate_change_stream(
        out,
        GeneratorConfig(
            seed=31, n_keys=1_200, n_events=60_000, events_per_file=7_500,
            malformed_frac=0.003, evolve_at_frac=0.5,
        ),
    )


def _final(store) -> pd.DataFrame:
    """Current state on the contract columns. The ``epoch`` column is
    schema-parity only and layout-DEPENDENT by nature (full stamps the
    partition's last rewrite epoch, delta the row's last write epoch;
    lookup_state drops it, no gate query reads it) — excluded from
    value comparisons."""
    df = read_state(store).to_pandas()
    assert "epoch" in df.columns  # schema parity across layouts
    return (
        df.drop(columns=["epoch"])
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )


@pytest.fixture(scope="module")
def stores(change_log, tmp_path_factory):
    root = tmp_path_factory.mktemp("stores")
    full = StateStore(str(root / "full"))
    replay_files(change_log["files"], full, FULL)
    delta = StateStore(str(root / "delta"))
    replay_files(change_log["files"], delta, DELTA)
    return full, delta


@pytest.mark.usefixtures("ray_session")
def test_delta_equals_full_final_state(stores):
    full, delta = stores
    pd.testing.assert_frame_equal(_final(full), _final(delta))
    # and the write volume is append-only: every committed epoch left
    # its own per-pid files in place (nothing rewritten)
    chains = partition_chains(delta)
    assert max(len(c) for c in chains.values()) > 1


@pytest.mark.usefixtures("ray_session")
def test_delta_state_as_of_epoch(stores):
    full, delta = stores
    mid = full.committed_epochs()[1]
    a = (
        read_state(full, epoch=mid).to_pandas().drop(columns=["epoch"])
        .sort_values(["repo", "path"]).reset_index(drop=True)
    )
    b = (
        read_state(delta, epoch=mid).to_pandas().drop(columns=["epoch"])
        .sort_values(["repo", "path"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.usefixtures("ray_session")
def test_delta_lookup_prunes_to_probed_chains(stores):
    full, delta = stores
    live = _final(full).head(7)[["repo", "path"]]
    # one key requested twice, one key absent from the store
    want = pd.concat(
        [live, live.head(1),
         pd.DataFrame({"repo": [live["repo"].iloc[0]], "path": ["no/such/path"]})],
        ignore_index=True,
    )
    got_full, _ = lookup_state(full, want, FULL.num_partitions)
    got_delta, files = lookup_state(delta, want, DELTA.num_partitions)
    a = got_full.to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    b = got_delta.to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    # each live key exactly once, the absent key not at all
    assert len(b) == len(live)
    assert list(zip(b["repo"], b["path"])) == sorted(zip(live["repo"], live["path"]))
    # pruning: only the probed pids' chains were read
    all_files = [f for c in partition_chains(delta).values() for f in c]
    assert len(files) < len(all_files)


@pytest.mark.usefixtures("ray_session")
def test_gc_collects_nothing_before_compaction(change_log, tmp_path):
    store = StateStore(str(tmp_path / "s"))
    replay_files(change_log["files"], store, DELTA)
    before = sorted(glob.glob(os.path.join(store.state_dir, "**/*.parquet"),
                              recursive=True))
    out = gc_state(store, keep_manifests=1)
    assert out["deleted"] == 0
    assert before == sorted(
        glob.glob(os.path.join(store.state_dir, "**/*.parquet"),
                  recursive=True)
    )


@pytest.mark.usefixtures("ray_session")
def test_compact_then_gc_then_resume(change_log, tmp_path):
    store = StateStore(str(tmp_path / "s"))
    # replay all but the last file, compact, gc, then resume the tail
    replay_files(change_log["files"][:-1], store, DELTA)
    want_mid = _final(store)
    m = compact_state(store)
    assert m is not None and m["offset_range"] == ["compact", "compact"]
    # state identical through the base generation
    pd.testing.assert_frame_equal(_final(store), want_mid)
    # gc sweeps the covered deltas; exactly one file per pid remains
    assert gc_state(store)["deleted"] > 0
    chains = partition_chains(store)
    assert all(len(c) == 1 for c in chains.values())
    pd.testing.assert_frame_equal(_final(store), want_mid)
    # resume appends new deltas after the base
    replay_files(change_log["files"], store, DELTA)
    ref = StateStore(str(tmp_path / "ref"))
    replay_files(change_log["files"], ref, FULL)
    pd.testing.assert_frame_equal(_final(store), _final(ref))
    # idempotent: nothing to compact twice on a single-link chain
    compact_state(store)
    assert gc_state(store)["deleted"] >= 0
    pd.testing.assert_frame_equal(_final(store), _final(ref))


@pytest.mark.usefixtures("ray_session")
def test_delta_crash_resume_reconverges(change_log, tmp_path):
    store = StateStore(str(tmp_path / "s"))
    # "crash": only the first half of the log was replayed
    replay_files(change_log["files"][:4], store, DELTA)
    # re-run over the whole log resumes from the file cursor
    replay_files(change_log["files"], store, DELTA)
    ref = StateStore(str(tmp_path / "ref"))
    replay_files(change_log["files"], ref, FULL)
    pd.testing.assert_frame_equal(_final(store), _final(ref))


@pytest.mark.usefixtures("ray_session")
def test_delta_guard_rails(change_log, tmp_path):
    with pytest.raises(ValueError, match="whole-row LWW only"):
        replay_files(
            change_log["files"],
            StateStore(str(tmp_path / "x")),
            dataclasses.replace(DELTA, override_coalesce=True),
        )
    # layout is store identity: a full replay over a delta store refuses
    store = StateStore(str(tmp_path / "mix"))
    replay_files(change_log["files"][:2], store, DELTA)
    with pytest.raises(ValueError, match="state_layout"):
        replay_files(change_log["files"], store, FULL)
    # apply_epoch (repair, quarantine replay, bootstrap) takes the same
    # write policy: a full config refuses the delta store, a delta
    # config appends one chain link per touched pid
    import ray.data

    from cosmwasm_etl_ray.pipelines.replay import apply_epoch

    one = ray.data.read_parquet(change_log["files"][2:3])
    with pytest.raises(ValueError, match="state_layout"):
        apply_epoch(one, store, 1, FULL)
    before = partition_chains(store)
    m = apply_epoch(one, store, 1, DELTA)
    assert m["layout"] == "delta"
    after = partition_chains(store)
    touched = [p for p, v in m["partitions"].items() if v["epoch"] == 1]
    assert touched
    for p in touched:
        assert after[int(p)] == before.get(int(p), []) + [m["partitions"][p]["file"]]


def _manifest_bytes(store) -> dict:
    out = {}
    for f in sorted(glob.glob(os.path.join(store.manifest_dir, "*.json"))):
        with open(f, "rb") as fh:
            out[f] = fh.read()
    return out


@pytest.mark.usefixtures("ray_session")
def test_compact_state_is_noop_on_full_layout(change_log, tmp_path):
    """Every full-layout chain has length 1, so compact_state is a
    no-op there: no manifest, no base generation."""
    store = StateStore(str(tmp_path / "full"))
    replay_files(change_log["files"][:3], store, FULL)
    before = _manifest_bytes(store)
    assert compact_state(store) is None
    assert _manifest_bytes(store) == before
    assert not os.path.exists(
        os.path.join(store.state_dir, f"epoch={store.latest_epoch() + 1}")
    )


@pytest.mark.usefixtures("ray_session")
def test_gc_keep_manifests_honoured_on_delta(change_log, tmp_path):
    """gc_state keeps the chains of the last keep_manifests manifests
    on either layout: a compacted delta store swept with
    keep_manifests=2 still serves the epoch before the latest, and
    keep_manifests=1 then sweeps the covered deltas."""
    store = StateStore(str(tmp_path / "d"))
    replay_files(change_log["files"][:4], store, DELTA)
    compact_state(store)
    replay_files(change_log["files"][:6], store, DELTA)
    prev = store.latest_epoch() - 1
    want = (
        read_state(store, epoch=prev).to_pandas()
        .sort_values(["repo", "path"]).reset_index(drop=True)
    )
    assert gc_state(store, keep_manifests=2)["deleted"] > 0
    got = (
        read_state(store, epoch=prev).to_pandas()
        .sort_values(["repo", "path"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
    assert gc_state(store)["deleted"] == 0  # latest-1's links are latest's too

    full = StateStore(str(tmp_path / "f"))
    replay_files(change_log["files"][:4], full, FULL)
    gc_state(full, keep_manifests=2)
    assert read_state(full, epoch=full.latest_epoch() - 1).count() > 0


@pytest.mark.usefixtures("ray_session")
def test_crash_mid_compaction_is_invisible_delta(change_log, tmp_path):
    """A compactor that crashed after writing base files but BEFORE
    the manifest commit leaves an orphan epoch=L+1 dir. The resumed
    replay commits its own epoch L+1 delta files into that dir
    (tmp+rename overwrites shared pid names; non-overlapping orphans
    are simply never referenced), chains stay correct, and GC sweeps
    the unreferenced orphan bytes once L+1 commits."""
    from cosmwasm_etl_ray.state.delta import _write_base, map_chains

    import ray as _ray

    store = StateStore(str(tmp_path / "s"))
    replay_files(change_log["files"][:4], store, DELTA)
    latest = store.latest_epoch()
    chains = partition_chains(store)
    # simulate the crash: fold two pids into epoch=L+1 base files,
    # then "die" before commit_epoch
    orphan_dir = os.path.join(store.state_dir, f"epoch={latest + 1}")
    os.makedirs(orphan_dir, exist_ok=True)
    some = {pid: (c,) for pid, c in list(chains.items())[:2]}
    _ray.get([r for _, r in map_chains(some, _write_base, orphan_dir)])
    assert len(os.listdir(orphan_dir)) == 2
    # orphan is invisible: reads and chains unchanged
    assert partition_chains(store) == chains
    # resume replays the rest (its epoch L+1 shares the orphan's dir)
    replay_files(change_log["files"], store, DELTA)
    ref = StateStore(str(tmp_path / "ref"))
    replay_files(change_log["files"], ref, FULL)
    pd.testing.assert_frame_equal(_final(store), _final(ref))
    # once a real compaction + gc run, nothing stale survives
    compact_state(store)
    gc_state(store)
    pd.testing.assert_frame_equal(_final(store), _final(ref))
    assert all(len(c) == 1 for c in partition_chains(store).values())
