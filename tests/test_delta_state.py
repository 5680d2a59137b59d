"""State chains under the one write policy (stages/merge.appends): a
low-density log appends links and folds them on the policy's bounds, a
dense log writes copy-on-write bases; both read back equal to a
copy-on-write reference store and the serial oracle, through gc, crash
resume and a crash between a fold's base writes and its manifest."""

import glob
import json
import os

import pandas as pd
import pytest

import ray.data

from cosmwasm_etl_ray.config import EngineConfig, GeneratorConfig
from cosmwasm_etl_ray.pipelines.replay import (
    apply_epoch,
    lookup_state,
    read_state,
    replay_files,
    serial_oracle_replay,
)
from cosmwasm_etl_ray.sources.changes import COMMIT_WIDTH
from cosmwasm_etl_ray.sources.generator import generate_change_stream
from cosmwasm_etl_ray.stages.merge import FOLD_SHARE, MAX_CHAIN_LINKS
from cosmwasm_etl_ray.state.delta import partition_chains
from cosmwasm_etl_ray.state.gc import gc_state
from cosmwasm_etl_ray.state.manifest import StateStore

# one epoch per file: the sparse log's 120-event files stay single epochs
SPARSE = EngineConfig(num_partitions=8, epoch_max_events=120, batch_size=4096)
DENSE = EngineConfig(num_partitions=8, epoch_max_events=15_000, batch_size=4096)
BASE_KEYS = {"file", "rows", "live_rows", "epoch"}


@pytest.fixture(scope="module")
def change_log(write_sparse_log, tmp_path_factory):
    return write_sparse_log(
        str(tmp_path_factory.mktemp("changes")), 31,
        malformed_frac=0.003, evolve_at_frac=0.5,
    )


@pytest.fixture(scope="module")
def dense_log(tmp_path_factory):
    return generate_change_stream(
        str(tmp_path_factory.mktemp("dense")),
        GeneratorConfig(
            seed=31, n_keys=1_200, n_events=60_000, events_per_file=7_500,
            malformed_frac=0.003, evolve_at_frac=0.5,
        ),
    )["files"]


def _final(store, epoch=None) -> pd.DataFrame:
    """State on the contract columns. The ``epoch`` column is
    schema-parity only and write-history DEPENDENT by nature (a base
    stamps the partition's last rewrite epoch, a link the row's last
    write epoch; lookup_state drops it, no gate query reads it) —
    excluded from value comparisons."""
    df = read_state(store, epoch=epoch).to_pandas()
    assert "epoch" in df.columns  # schema parity across chain shapes
    return (
        df.drop(columns=["epoch"])
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )


def _oracle(files) -> pd.DataFrame:
    df = serial_oracle_replay(pd.concat([pd.read_parquet(f) for f in files]))
    return df.sort_values(["repo", "path"]).reset_index(drop=True)


def _chain_lengths(store, epoch=None) -> list[int]:
    return [len(c) for c in partition_chains(store, epoch).values()]


@pytest.fixture(scope="module")
def stores(change_log, rewrite_every_epoch, tmp_path_factory):
    root = tmp_path_factory.mktemp("stores")
    full = StateStore(str(root / "full"))
    rewrite_every_epoch(change_log, full, SPARSE)
    delta = StateStore(str(root / "delta"))
    replay_files(change_log, delta, SPARSE)
    return full, delta


@pytest.mark.usefixtures("ray_session")
def test_delta_equals_full_final_state(stores, change_log):
    full, delta = stores
    pd.testing.assert_frame_equal(_final(full), _final(delta))
    cols = ["repo", "path", "commit", "content"]
    pd.testing.assert_frame_equal(_final(delta)[cols], _oracle(change_log)[cols])
    # the sparse epochs appended: links are on disk, bounded by the policy
    assert max(_chain_lengths(delta)) > 1
    for e in delta.committed_epochs():
        assert max(_chain_lengths(delta, e)) <= MAX_CHAIN_LINKS


@pytest.mark.usefixtures("ray_session")
def test_delta_state_as_of_epoch(stores):
    full, delta = stores
    for e in (2, 4, 7):  # inside a chain, at a fold, and past it
        pd.testing.assert_frame_equal(_final(delta, e), _final(full, e))


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
    got_full, _ = lookup_state(full, want, SPARSE.num_partitions)
    got_delta, files = lookup_state(delta, want, SPARSE.num_partitions)
    a = got_full.to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    b = got_delta.to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    # each live key exactly once, the absent key not at all
    assert len(b) == len(live)
    assert list(zip(b["repo"], b["path"])) == sorted(zip(live["repo"], live["path"]))
    # pruning: only the probed pids' chains were read
    all_files = [f for c in partition_chains(delta).values() for f in c]
    assert len(files) < len(all_files)


def _state_files(store) -> list[str]:
    return sorted(glob.glob(os.path.join(store.state_dir, "**/*.parquet"), recursive=True))


@pytest.mark.usefixtures("ray_session")
def test_gc_collects_nothing_before_compaction(change_log, tmp_path):
    """While every link since the base appended (no fold yet), each
    state file is in the latest chain: gc_state deletes nothing."""
    store = StateStore(str(tmp_path / "s"))
    replay_files(change_log[:MAX_CHAIN_LINKS], store, SPARSE)
    assert set(_chain_lengths(store)) == {MAX_CHAIN_LINKS}
    before = _state_files(store)
    assert gc_state(store, keep_manifests=1)["deleted"] == 0
    assert before == _state_files(store)


@pytest.mark.usefixtures("ray_session")
def test_fold_then_gc_then_resume(stores, change_log, tmp_path):
    """The link that would exceed the chain bound folds into a base;
    gc then sweeps the covered links and the old base, and the resumed
    replay appends after the new base."""
    full, _ = stores
    store = StateStore(str(tmp_path / "s"))
    replay_files(change_log[: MAX_CHAIN_LINKS + 2], store, SPARSE)
    fold = store.manifest(MAX_CHAIN_LINKS)["partitions"].values()
    assert all(set(v) == BASE_KEYS for v in fold)
    assert set(_chain_lengths(store)) == {2}
    want = _final(full, store.latest_epoch())
    pd.testing.assert_frame_equal(_final(store), want)
    assert gc_state(store)["deleted"] > 0
    assert all(os.path.exists(f) for c in partition_chains(store).values() for f in c)
    pd.testing.assert_frame_equal(_final(store), want)
    replay_files(change_log, store, SPARSE)
    assert gc_state(store)["deleted"] > 0
    pd.testing.assert_frame_equal(_final(store), _final(full))


@pytest.mark.usefixtures("ray_session")
def test_delta_crash_resume_reconverges(stores, change_log, tmp_path):
    full, _ = stores
    store = StateStore(str(tmp_path / "s"))
    # "crash": only the first part of the log was replayed
    replay_files(change_log[:3], store, SPARSE)
    # re-run over the whole log resumes from the file cursor
    replay_files(change_log, store, SPARSE)
    pd.testing.assert_frame_equal(_final(store), _final(full))


@pytest.mark.usefixtures("ray_session")
def test_delta_guard_rails(change_log, rewrite_every_epoch, tmp_path):
    """Override mode never appends (its coalesce is not associative):
    on a store whose chains hold links it folds each touched chain into
    a base, equal to the same epoch applied onto copy-on-write state.
    A whole-row LWW apply_epoch takes the policy and appends one link
    per touched pid."""
    import dataclasses

    one = ray.data.read_parquet(change_log[3:4])
    override = dataclasses.replace(SPARSE, override_coalesce=True)
    got, lengths = [], []
    for build in (replay_files, rewrite_every_epoch):
        store = StateStore(str(tmp_path / build.__name__))
        build(change_log[:3], store, SPARSE)
        lengths.append(max(_chain_lengths(store)))
        m = apply_epoch(one, store, 3, override)
        touched = [v for v in m["partitions"].values() if v["epoch"] == 3]
        assert touched and all("chain" not in v for v in touched)
        got.append(_final(store))
    assert lengths == [3, 1]
    pd.testing.assert_frame_equal(got[0], got[1])

    store = StateStore(str(tmp_path / "lww"))
    replay_files(change_log[:2], store, SPARSE)
    before = partition_chains(store)
    m = apply_epoch(one, store, 2, SPARSE)
    assert m["format"] == 2 and "layout" not in m
    after = partition_chains(store)
    touched = [p for p, v in m["partitions"].items() if v["epoch"] == 2]
    assert touched
    for p in touched:
        assert after[int(p)] == before[int(p)] + [m["partitions"][p]["file"]]


def _events(keys: range, commit: int, op: str = "update") -> "ray.data.Dataset":
    n = len(keys)
    return ray.data.from_pandas(pd.DataFrame({
        "repo": ["r"] * n,
        "path": [f"p{k:04d}" for k in keys],
        "commit": [str(commit + i).zfill(COMMIT_WIDTH) for i in range(n)],
        "op": [op] * n,
        "lang": ["py"] * n,
        "content": [f"v{commit}"] * n,
    }))


@pytest.mark.usefixtures("ray_session")
def test_sparse_epochs_append_then_fold_on_bounds(tmp_path):
    """One pid, a 100-row base: epochs touching ≤ 10% append; the link
    whose appended rows reach ¼ of the base folds; three 2-row links
    fill the 4-file chain and the next one folds; a 30%-density epoch
    folds at once and an 8% one appends again. Every epoch reads back
    equal to the serial oracle."""
    cfg = EngineConfig(num_partitions=1)
    store = StateStore(str(tmp_path / "s"))
    steps = [  # (keys touched, chain rows after the epoch)
        (range(100), [100]),
        (range(10), [100, 10]),
        (range(10, 20), [100, 10, 10]),
        (range(20, 25), [100]),  # 10 + 10 + 5 = ¼ of the base: fold
        (range(2), [100, 2]),
        (range(2, 4), [100, 2, 2]),
        (range(4, 6), [100, 2, 2, 2]),
        (range(6, 8), [100]),  # a 5th file would exceed the chain bound
        (range(30), [100]),  # 30% density
        (range(30, 38), [100, 8]),  # 8% density
    ]
    assert (MAX_CHAIN_LINKS, FOLD_SHARE) == (4, 4)
    events = []
    for e, (keys, want_rows) in enumerate(steps):
        commit = 1_000 * (e + 1)
        ds = _events(keys, commit, "insert" if e == 0 else "update")
        events.append(ds.to_pandas())
        m = apply_epoch(ds, store, e, cfg)
        entry = m["partitions"]["0"]
        if len(want_rows) == 1:
            assert set(entry) == BASE_KEYS and entry["rows"] == 100
        else:
            assert entry["chain_rows"] == want_rows
            assert entry["chain"][-1] == entry["file"] and len(entry["chain"]) == len(want_rows)
        got = _final(store)[["path", "commit", "content"]]
        want = serial_oracle_replay(pd.concat(events)).sort_values("path")
        want = want[["path", "commit", "content"]].reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)


@pytest.mark.usefixtures("ray_session")
def test_dense_epochs_write_only_bases(dense_log, rewrite_every_epoch, tmp_path):
    """Epochs that touch every key of each pid always fold: every
    entry of every manifest has the copy-on-write shape (no chain),
    equal to the reference writer and the serial oracle."""
    store = StateStore(str(tmp_path / "dense"))
    replay_files(dense_log, store, DENSE)
    assert len(store.committed_epochs()) == 4
    for e in store.committed_epochs():
        m = store.manifest(e)
        assert m["format"] == 2
        assert all(set(v) == BASE_KEYS for v in m["partitions"].values())
    ref = StateStore(str(tmp_path / "ref"))
    rewrite_every_epoch(dense_log, ref, DENSE)
    pd.testing.assert_frame_equal(_final(store), _final(ref))
    cols = ["repo", "path", "commit", "content"]
    pd.testing.assert_frame_equal(_final(store)[cols], _oracle(dense_log)[cols])


@pytest.mark.usefixtures("ray_session")
def test_gc_keep_manifests_honoured_on_delta(change_log, dense_log, tmp_path):
    """gc_state keeps the chains of the last keep_manifests manifests:
    a store folded at epoch 4 and appended to since, swept with
    keep_manifests=2, still serves the epoch before the latest, and
    keep_manifests=1 then has nothing more to sweep (that epoch's
    chains are prefixes of the latest's)."""
    store = StateStore(str(tmp_path / "d"))
    replay_files(change_log[: MAX_CHAIN_LINKS + 3], store, SPARSE)
    prev = store.latest_epoch() - 1
    want = _final(store, prev)
    assert gc_state(store, keep_manifests=2)["deleted"] > 0
    pd.testing.assert_frame_equal(_final(store, prev), want)
    assert gc_state(store)["deleted"] == 0

    full = StateStore(str(tmp_path / "f"))
    replay_files(dense_log[:4], full, DENSE)
    gc_state(full, keep_manifests=2)
    assert read_state(full, epoch=full.latest_epoch() - 1).count() > 0


@pytest.mark.usefixtures("ray_session")
def test_crash_mid_compaction_is_invisible_delta(stores, change_log, tmp_path):
    """A replay that crashed after the fold epoch's base files were
    written but BEFORE its manifest commit leaves orphan bases in
    epoch=4/. Reads and chains are unchanged; the resumed replay
    overwrites them, reconverges to the reference, and gc leaves only
    files the latest chains reference."""
    full, _ = stores

    class CrashingStore(StateStore):
        def commit_epoch(self, epoch, *a, **kw):
            if epoch == MAX_CHAIN_LINKS:
                raise RuntimeError("crash before the fold's manifest")
            return super().commit_epoch(epoch, *a, **kw)

    root = str(tmp_path / "s")
    with pytest.raises(RuntimeError):
        replay_files(change_log, CrashingStore(root), SPARSE)
    store = StateStore(root)
    assert store.latest_epoch() == MAX_CHAIN_LINKS - 1
    orphans = glob.glob(os.path.join(store.state_dir, f"epoch={MAX_CHAIN_LINKS}", "*.parquet"))
    assert orphans
    chains = partition_chains(store)
    assert not {f for c in chains.values() for f in c} & set(orphans)
    pd.testing.assert_frame_equal(_final(store), _final(full, MAX_CHAIN_LINKS - 1))
    replay_files(change_log, store, SPARSE)
    pd.testing.assert_frame_equal(_final(store), _final(full))
    gc_state(store)
    assert _state_files(store) == sorted(f for c in partition_chains(store).values() for f in c)


def test_pre_chain_delta_manifest_refused(tmp_path):
    """A delta-layout manifest written before chains were recorded (no
    format, an entry with neither chain nor base) names only each pid's
    newest link: every reader and writer refuses it. Format-1 delta
    links with a chain and compaction bases still read."""
    store = StateStore(str(tmp_path / "old"))
    f = os.path.join(store.state_dir, "epoch=0", "part-00000.parquet")
    m = {"epoch": 0, "offset_range": ["a", "a"], "counts": {}, "num_partitions": 8,
         "layout": "delta",
         "partitions": {"0": {"file": f, "rows": 1, "live_rows": 1, "epoch": 0}}}
    with open(store._mpath(0), "w") as fh:
        json.dump(m, fh)
    with pytest.raises(ValueError, match="before chains were recorded"):
        partition_chains(store)
    with pytest.raises(ValueError, match="before chains were recorded"):
        apply_epoch(_events(range(1), 5), store, 1, SPARSE)
    m["partitions"] = {"0": {"file": f, "rows": 1, "epoch": 0, "chain": ["a", f]},
                       "1": {"file": "b", "rows": 1, "epoch": 0, "base": True}}
    with open(store._mpath(0), "w") as fh:
        json.dump(m, fh)
    assert partition_chains(store) == {0: ["a", f], 1: ["b"]}
