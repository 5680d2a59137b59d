"""The merge's pid-groups set the state files, never the state: one
log replayed with G = 1, 2 and P groups — G switching at a mid-log
resume, the row target patched down so the small log fans out to the
cap — writes one state file and at most one quarantine file per
(epoch, group), a dense epoch exactly G, and every pid's slice (a
column the pid's rows lack read as null), every epoch's quarantine
rows, every manifest's partitions (file and offset masked) and counts,
and read_state are the same at every G, through replay_files, override
mode and bootstrap_store + apply_epoch. One epoch launches at most
min(P, task_cap()) merge tasks, fed by prep tasks of ≤ G returns; a
dense epoch writes ≤ G files and a lookup reads ≤ G. G follows rows: a
small epoch on a small store under a many-CPU cap writes one file, and
a lookup and a change feed on it each run one reader task. Format-2
stores (one whole file per pid) resume under the group writer, a crash
between a group file and its commit re-runs at another G, and row
groups hold whole pids."""

import glob
import hashlib
import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

import ray.data

from cosmwasm_etl_ray.compat import task_cap
from cosmwasm_etl_ray.config import EngineConfig, GeneratorConfig
from cosmwasm_etl_ray.pipelines import replay
from cosmwasm_etl_ray.pipelines.replay import (
    apply_epoch,
    lookup_state,
    read_state,
    replay_files,
    serial_oracle_replay,
)
from cosmwasm_etl_ray.sources.generator import generate_change_stream
from cosmwasm_etl_ray.state.delta import partition_chains, partition_slices, read_slices
from cosmwasm_etl_ray.state.gc import bootstrap_store, gc_state
from cosmwasm_etl_ray.state.manifest import StateStore

P = 8
# epochs: files [0, 1], then [2, 3, late]
CFG = EngineConfig(num_partitions=P, epoch_max_events=8_003, batch_size=1024)
# the caps before and after the mid-log resume; the first is G = P, one
# merge task per pid
CAPS = {"G=P": (P, P), "G=1": (1, 1), "G=2": (2, 2), "G=1 then P": (1, P), "G=P then 2": (P, 2)}
COLS = ["repo", "path", "commit", "content"]


@pytest.fixture(scope="module")
def log(tmp_path_factory):
    """Four 4k-event files with malformed rows, then the late 3-event
    file that adds ``mode`` in the second epoch: the pids it touches
    gain the column, the epoch's other pids must not."""
    from test_state_reader import _add_late_file

    out = str(tmp_path_factory.mktemp("log"))
    files = generate_change_stream(
        out,
        GeneratorConfig(
            seed=61, n_keys=1_000, n_events=16_000, events_per_file=4_000,
            malformed_frac=0.003, evolve_at_frac=None,
        ),
    )["files"]
    return _add_late_file(files, out)


def _canon(t: pa.Table) -> pa.Table:
    """A table with its all-null columns dropped and the rest in name
    order: a column a pid's rows lack reads as null in a group file."""
    keep = sorted(c for c in t.column_names if t[c].null_count < t.num_rows)
    return t.select(keep)


def _files(store, top: str, epoch: int) -> list[str]:
    return sorted(glob.glob(os.path.join(top, f"epoch={epoch}", "*.parquet")))


def _digest(store) -> tuple[dict, list, dict]:
    """Every pid's own slice per manifest and every epoch's quarantine
    rows (stable-sorted by pid: a pid's rows sit in one file), as
    canonical tables (compared with ``Table.equals``); each manifest's
    partitions (file and offset masked) and counts."""
    slices, manifests, quarantine = {}, [], {}
    for e in store.committed_epochs():
        m = store.manifest(e)
        own = {p: c[-1] for p, c in partition_slices(store, e).items()}
        for p, t in zip(own, read_slices(list(own.values()))):
            slices[(e, p)] = _canon(t)
        masked = {
            p: {k: v for k, v in info.items() if k not in ("file", "offset", "chain", "chain_offsets")}
            for p, info in m["partitions"].items()
        }
        manifests.append((json.dumps(masked, sort_keys=True), m["counts"]))
        q = [pq.read_table(f) for f in _files(store, store.quarantine_dir, e)]
        if q:
            t = pa.concat_tables(q, promote_options="permissive")
            t = t.take(pa.array(np.argsort(t["pid"].to_numpy(), kind="stable")))
            quarantine[e] = _canon(t)
    return slices, manifests, quarantine


def _set_cap(monkeypatch, cap: int) -> None:
    """G = min(P, cap): the row target patched down to one row, so the
    test's small epochs fan out to the cap as a large epoch would."""
    monkeypatch.setattr(replay, "task_cap", lambda: cap)
    monkeypatch.setattr(replay, "ROW_GROUP_ROWS", 1)


def _assert_files_follow_groups(store, caps: tuple[int, int]) -> None:
    """≤ G state files and ≤ G quarantine files per epoch, and exactly
    G state files in at least one (dense) epoch (G of the larger cap: a
    mid-log resume switches G; P the store's)."""
    G = min(store.manifest(store.latest_epoch())["num_partitions"], max(caps))
    n = [len(_files(store, store.state_dir, e)) for e in store.committed_epochs()]
    assert 1 <= min(n) and max(n) == G, n
    for e in store.committed_epochs():
        assert len(_files(store, store.quarantine_dir, e)) <= G


def _assert_same_state(build) -> StateStore:
    """``build(name, caps)`` for every CAPS entry; all equal to G = P's."""
    want = None
    for name, caps in CAPS.items():
        store = build(name, caps)
        _assert_files_follow_groups(store, caps)
        got = _digest(store)
        assert got[0] and got[1]
        if want is None:
            want, first = got, store
        else:
            assert got == want, name
            pd.testing.assert_frame_equal(_state(store), _state(first))
    return first


def _state(store, epoch=None) -> pd.DataFrame:
    df = read_state(store, epoch).to_pandas()
    return df[sorted(df.columns)].sort_values(["repo", "path"]).reset_index(drop=True)


def _oracle(files) -> pd.DataFrame:
    df = serial_oracle_replay(pd.concat([pd.read_parquet(f) for f in files]))
    return df.sort_values(["repo", "path"]).reset_index(drop=True)


def test_replay_files_slices_do_not_depend_on_groups(log, tmp_path, monkeypatch):
    def build(name, caps):
        store = StateStore(str(tmp_path / name))
        for cap, upto in zip(caps, (2, len(log))):
            _set_cap(monkeypatch, cap)
            replay_files(log[:upto], store, CFG)
        return store

    store = _assert_same_state(build)
    late = {p: t for p, t in zip(
        range(P), read_slices([partition_slices(store, 1)[p][-1] for p in range(P)])
    )}
    has_mode = {"mode" in _canon(t).column_names for t in late.values()}
    assert has_mode == {True, False}
    pd.testing.assert_frame_equal(_state(store)[COLS], _oracle(log)[COLS])


def test_override_slices_do_not_depend_on_groups(tmp_path, monkeypatch):
    from test_override_mode import CFG as OVERRIDE, _write_log

    _, files = _write_log(tmp_path, rng_seed=53, n_events=10_000)
    assert len(files) > 1

    def build(name, caps):
        store = StateStore(str(tmp_path / name))
        for cap, upto in zip(caps, (1, len(files))):
            _set_cap(monkeypatch, cap)
            replay_files(files[:upto], store, OVERRIDE)
        return store

    _assert_same_state(build)


def test_bootstrap_and_apply_epoch_slices_do_not_depend_on_groups(log, tmp_path, monkeypatch):
    """The epoch's Dataset is two in-memory blocks, so their order is
    fixed (a read_parquet Dataset's blocks arrive in completion order),
    and both have one schema: a prep task concats its blocks, and the
    cap also sets which blocks share a prep task."""
    seed_state, files = _oracle(log[:2]), log[2:4]

    def build(name, caps):
        store = StateStore(str(tmp_path / name))
        _set_cap(monkeypatch, caps[0])
        bootstrap_store(seed_state, store, CFG)
        _set_cap(monkeypatch, caps[1])
        ds = ray.data.from_arrow([pq.read_table(f) for f in files])
        apply_epoch(ds, store, 1, CFG, (files[0], files[-1]))
        return store

    store = _assert_same_state(build)
    pd.testing.assert_frame_equal(_state(store)[COLS], _oracle(log[:4])[COLS])


def _count_remotes(monkeypatch, module) -> list[tuple]:
    """(function, num_returns) of every ``.remote`` call ``module``
    launches, through a wrapped ``cached_remote``."""
    launched = []
    real = module.cached_remote

    class Counting:
        def __init__(self, fn, opts, remote):
            self.fn, self.num_returns, self.inner = fn, opts.get("num_returns", 1), remote

        def remote(self, *args):
            launched.append((self.fn, self.num_returns))
            return self.inner.remote(*args)

    monkeypatch.setattr(
        module, "cached_remote", lambda key, fn, **opts: Counting(fn, opts, real(key, fn, **opts))
    )
    return launched


def test_epoch_merge_tasks_follow_cpus_not_partitions(log, tmp_path, monkeypatch):
    """Task-count guard: a one-epoch replay into a P = 64 store
    launches ≤ min(P, task_cap()) merge tasks, and every prep task
    declares ≤ G returns — counted at ``.remote`` through a wrapped
    ``cached_remote``; every pid still has its own manifest entry."""
    launched = _count_remotes(monkeypatch, replay)
    cfg = EngineConfig(num_partitions=64, epoch_max_events=10_000, batch_size=1024)
    (m,) = replay_files(log[:2], StateStore(str(tmp_path / "s")), cfg)
    G = min(64, task_cap())
    chain = [r for fn, r in launched if fn is replay._merge_group_chain]
    prep = [r for fn, r in launched if fn is replay._prep_split_shard]
    assert 1 <= len(chain) <= G < 64
    assert prep and max(prep) <= G
    assert m["counts"]["touched_partitions"] == len(m["partitions"]) == 64


def _oracle_diff(old_files, new_files) -> pd.DataFrame:
    """The change feed between the serial oracle's live states after
    ``old_files`` and after ``new_files``, sorted by key."""
    was, now = (_oracle(f)[["repo", "path", "commit"]] for f in (old_files, new_files))
    m = was.merge(now, on=["repo", "path"], how="outer", suffixes=("_old", "_new"))
    m = m[m["commit_old"].fillna("") != m["commit_new"].fillna("")]
    kind = np.where(m["commit_old"].isna(), "insert",
                    np.where(m["commit_new"].isna(), "delete", "update"))
    want = pd.DataFrame({"repo": m["repo"], "path": m["path"], "kind": kind,
                         "commit": m["commit_new"].fillna(m["commit_old"])})
    return want.sort_values(["repo", "path"]).reset_index(drop=True)


def test_small_epoch_on_many_cpus_writes_one_file_and_reads_in_one_task(
    tmp_path_factory, monkeypatch
):
    """G follows rows, the host only caps it: under a cap of 64, as on
    a many-CPU session, a ``tail``-shaped tick (8k events on a
    ~16k-row state, P = 64) writes 1 state file and ≤ 1 quarantine
    file, a 100-key lookup and the tick's change feed each launch ONE
    reader task (counted at ``.remote``), and read_state, the lookup and
    the feed equal the serial oracle. With the write's row target
    patched small the same tick fans out to min(P, cap) files, and the
    reads of that store, whose pids share no file, are still one task
    each — until the read's row target is patched small too."""
    from cosmwasm_etl_ray.pipelines.replay import epoch_diff
    from cosmwasm_etl_ray.state import delta
    from cosmwasm_etl_ray.state.metrics import store_metrics

    out = str(tmp_path_factory.mktemp("tail_log"))
    log = generate_change_stream(
        out,
        GeneratorConfig(
            seed=67, n_keys=16_000, n_events=32_000, events_per_file=8_000,
            malformed_frac=0.003, evolve_at_frac=None,
        ),
    )["files"]
    cfg = EngineConfig(num_partitions=64, epoch_max_events=8_000)
    want = _oracle(log)
    keys = want[["repo", "path"]].sample(100, random_state=5)
    for m in (replay, delta):
        monkeypatch.setattr(m, "task_cap", lambda: 64)

    def write(name: str) -> tuple[StateStore, list[int]]:
        """Preload 3 epochs, replay the tick; (store, the tick's state
        and quarantine file counts)."""
        store = StateStore(str(tmp_path_factory.mktemp(name)))
        replay_files(log[:3], store, cfg)
        assert 10_000 < store_metrics(store)["state_rows"] < 20_000
        (m,) = replay_files(log, store, cfg)
        assert m["epoch"] == 3 and m["counts"]["touched_partitions"] > 32
        assert m["timings"]["groups"] == len(_files(store, store.state_dir, 3))
        pd.testing.assert_frame_equal(_state(store)[COLS], want[COLS])
        return store, [len(_files(store, d, 3)) for d in (store.state_dir, store.quarantine_dir)]

    def reader_tasks(store) -> list[int]:
        """The reader tasks of a lookup and of the tick's change feed,
        each result checked against the oracle."""
        tasks = []
        with monkeypatch.context() as mp:
            launched = _count_remotes(mp, delta)
            got = lookup_state(store, keys, 64)[0].to_pandas()
            tasks.append(sum(fn is delta._read_group for fn, _ in launched))
            got = got.sort_values(["repo", "path"]).reset_index(drop=True)
            exp = want.merge(keys, on=["repo", "path"]).sort_values(["repo", "path"])
            pd.testing.assert_frame_equal(got[COLS], exp[COLS].reset_index(drop=True))
            launched.clear()
            feed = epoch_diff(store, 2, 3).to_pandas()
            tasks.append(sum(fn is delta._read_group for fn, _ in launched))
            pd.testing.assert_frame_equal(
                feed.sort_values(["repo", "path"]).reset_index(drop=True),
                _oracle_diff(log[:3], log),
            )
        return tasks

    store, (n_state, n_quarantine) = write("small")
    assert n_state == 1 and n_quarantine <= 1
    assert reader_tasks(store) == [1, 1]

    monkeypatch.setattr(replay, "ROW_GROUP_ROWS", 1)
    store, (n_state, n_quarantine) = write("fanned")
    assert n_state == 64 and n_quarantine <= 64
    assert reader_tasks(store) == [1, 1]
    monkeypatch.setattr(delta, "ROW_GROUP_ROWS", 1)
    assert min(reader_tasks(store)) > 1


def test_dense_epoch_writes_and_lookup_reads_at_most_g_files(log, tmp_path):
    """A dense epoch into a P = 64 store writes ≤ G state and ≤ G
    quarantine files, and a 100-key lookup that probes most pids reads
    ≤ G files, each once — and equals the serial oracle."""
    cfg = EngineConfig(num_partitions=64, epoch_max_events=10_000, batch_size=1024)
    store = StateStore(str(tmp_path / "s"))
    replay_files(log[:4], store, cfg)
    G = len(replay._pid_groups(64, task_cap())) - 1
    for e in store.committed_epochs():
        assert len(_files(store, store.state_dir, e)) <= G
        assert len(_files(store, store.quarantine_dir, e)) <= G
    want = _oracle(log[:4])
    keys = want[["repo", "path"]].sample(100, random_state=3)
    ds, files = lookup_state(store, keys, 64)
    assert len(files) == len(set(files)) <= G
    got = ds.to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    exp = want.merge(keys, on=["repo", "path"]).sort_values(["repo", "path"])
    pd.testing.assert_frame_equal(got[COLS], exp[COLS].reset_index(drop=True))


def test_apply_epoch_bytes_follow_dataset_order_not_blocks(log, tmp_path, monkeypatch):
    """A 2-file read_parquet Dataset whose second file adds ``mode``
    for a disjoint pid set, both blocks in one prep task: five
    apply_epoch runs write sha256-equal state and quarantine files, the
    same files replay_files writes at the same G for the two files as
    one epoch — the blocks go in Dataset order, and ``mode`` reaches
    only the slices of the pids of the second file's rows."""
    from cosmwasm_etl_ray.functions.hashing import assign_partition

    def part(f: str, upper: bool) -> pa.Table:
        t = pq.read_table(f)
        key = [pc.fill_null(t[c], "").to_numpy(zero_copy_only=False) for c in ("repo", "path")]
        return t.filter(pa.array((assign_partition(*key, P) >= P // 2) == upper))

    def sha(store) -> dict:
        return {
            os.path.relpath(f, store.root): hashlib.sha256(open(f, "rb").read()).hexdigest()
            for d in (store.state_dir, store.quarantine_dir)
            for f in glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True)
        }

    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(part(log[0], False), a)
    t = part(log[1], True)
    pq.write_table(t.append_column("mode", pa.array(["text"] * t.num_rows)), b)

    _set_cap(monkeypatch, 1)
    ref = StateStore(str(tmp_path / "ref"))
    (m,) = replay_files([a, b], ref, CFG)
    assert m["counts"]["quarantined"] > 0
    want = sha(ref)
    for i in range(5):
        store = StateStore(str(tmp_path / f"apply{i}"))
        apply_epoch(ray.data.read_parquet([a, b]), store, 0, CFG, (a, b))
        assert sha(store) == want, i
    chains = partition_slices(store)
    modes = {p: "mode" in _canon(t).column_names
             for p, t in zip(sorted(chains), read_slices([chains[p][-1] for p in sorted(chains)]))}
    assert modes == {p: p >= P // 2 for p in range(P)}


def test_format2_store_resumes_under_the_group_writer(
    log, rewrite_every_epoch, tmp_path, monkeypatch
):
    """A store of format 2's shape — one whole file per pid, entries
    without offsets, as the reference writer and the transfer ledger
    still record them in MANIFEST_FORMAT — resumes at G = 2: read_state,
    lookup_state and epoch_diff across the change of shape equal the
    serial oracle, and once every pid has folded gc_state deletes the
    per-pid files."""
    from cosmwasm_etl_ray.pipelines.replay import epoch_diff, plan_epochs
    from cosmwasm_etl_ray.state.manifest import MANIFEST_FORMAT

    store = StateStore(str(tmp_path / "s"))
    rewrite_every_epoch(log[:2], store, CFG)
    old = set(glob.glob(os.path.join(store.state_dir, "*", "*.parquet")))
    assert len(old) == P
    for e in store.committed_epochs():
        m = store.manifest(e)
        assert m["format"] == MANIFEST_FORMAT
        assert all("offset" not in v for v in m["partitions"].values())

    _set_cap(monkeypatch, 2)
    replay_files(log, store, CFG)
    epochs = plan_epochs(log, CFG)
    assert len(epochs) == 2 and store.latest_epoch() == 1
    assert all("offset" in v for v in store.manifest(1)["partitions"].values())
    assert len(_files(store, store.state_dir, 1)) == 2
    pd.testing.assert_frame_equal(_state(store)[COLS], _oracle(log)[COLS])
    pd.testing.assert_frame_equal(_state(store, 0)[COLS], _oracle(epochs[0])[COLS])

    # epoch 0 -> 1: insert/update/delete between the serial oracle's live states
    got = epoch_diff(store, 0, 1).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values(["repo", "path"]).reset_index(drop=True), _oracle_diff(epochs[0], log)
    )

    keys = _oracle(log)[["repo", "path"]].head(40)
    got = lookup_state(store, keys, P)[0].to_pandas().sort_values(["repo", "path"])
    want = _oracle(log).merge(keys, on=["repo", "path"]).sort_values(["repo", "path"])
    pd.testing.assert_frame_equal(got[COLS].reset_index(drop=True), want[COLS].reset_index(drop=True))

    # every pid folded at epoch 1 (dense): the per-pid files are swept
    assert not {f for c in partition_chains(store).values() for f in c} & old
    assert gc_state(store)["deleted"] == len(old)
    assert not old & set(glob.glob(os.path.join(store.state_dir, "*", "*.parquet")))
    pd.testing.assert_frame_equal(_state(store)[COLS], _oracle(log)[COLS])


def test_crash_after_group_file_reruns_at_another_g(log, tmp_path, monkeypatch):
    """A crash after epoch 1's group files are written at G = 2 but
    before its manifest commit; the re-run at G = 1 overwrites the
    lowest group's file, reconverges to the no-crash store, and gc_state
    removes the other group's orphan file."""

    class CrashingStore(StateStore):
        def commit_epoch(self, epoch, *a, **kw):
            if epoch == 1:
                raise RuntimeError("crash before epoch 1's manifest")
            return super().commit_epoch(epoch, *a, **kw)

    root = str(tmp_path / "s")
    _set_cap(monkeypatch, 2)
    with pytest.raises(RuntimeError):
        replay_files(log, CrashingStore(root), CFG)
    store = StateStore(root)
    assert store.latest_epoch() == 0
    written = _files(store, store.state_dir, 1)
    assert [os.path.basename(f) for f in written] == ["part-00000.parquet", "part-00004.parquet"]

    _set_cap(monkeypatch, 1)
    replay_files(log, store, CFG)
    ref = StateStore(str(tmp_path / "ref"))
    replay_files(log, ref, CFG)
    pd.testing.assert_frame_equal(_state(store), _state(ref))
    pd.testing.assert_frame_equal(_state(store)[COLS], _oracle(log)[COLS])
    orphan = written[1]
    assert orphan not in {f for c in partition_chains(store).values() for f in c}
    gc_state(store)
    assert not os.path.exists(orphan)
    pd.testing.assert_frame_equal(_state(store), _state(ref))


def test_row_groups_hold_whole_pids(log, tmp_path, monkeypatch):
    """With a small row-group cap, one MergeWithState call per epoch
    (one group, in this process) writes several row groups per file,
    no pid spans two of them, and every read equals the serial oracle
    — through appended links and folds."""
    from cosmwasm_etl_ray.stages import merge as merge_mod
    from cosmwasm_etl_ray.stages.normalize import FlagAndPartition

    monkeypatch.setattr(merge_mod, "ROW_GROUP_ROWS", 300)
    store = StateStore(str(tmp_path / "s"))
    # a dense head epoch, then one-file epochs: the late file appends
    epochs = [log[:2], log[2:3], log[3:4], log[4:]]
    for e, batch in enumerate(epochs):
        t = pa.concat_tables([pq.read_table(f) for f in batch], promote_options="permissive")
        t = FlagAndPartition(P)(t)
        latest = store.latest_epoch()
        prior = {int(p): v for p, v in store.manifest(latest)["partitions"].items()} \
            if latest is not None else {}
        stats = merge_mod.MergeWithState(
            store.state_dir, e, prior, quarantine_root=store.quarantine_dir
        )(t).to_pylist()
        store.commit_epoch(
            e, {s["pid"]: replay._entry(s) for s in stats}, (batch[0], batch[-1]),
            {"touched_partitions": len(stats)}, num_partitions=P,
        )
        (f,) = _files(store, store.state_dir, e)
        pf = pq.ParquetFile(f)
        pids = [set(pf.read_row_group(i, columns=["pid"])["pid"].to_pylist())
                for i in range(pf.num_row_groups)]
        if e == 0:
            assert pf.num_row_groups > 1
        assert sum(len(s) for s in pids) == len(set().union(*pids))
        pd.testing.assert_frame_equal(
            _state(store)[COLS], _oracle([f for b in epochs[: e + 1] for f in b])[COLS]
        )
    assert any("chain" in v for v in store.manifest(3)["partitions"].values())
