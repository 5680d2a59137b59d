"""The merge's pid-groups are parallelism, never the store's identity:
one log replayed with G = 1, 2 and P groups — G switching at a mid-log
resume — writes byte-identical state and quarantine files and equal
manifest partitions and counts, through replay_files, override mode
and bootstrap_store + apply_epoch; and one epoch launches at most
min(P, task_cap()) merge tasks, fed by prep tasks of ≤ G returns."""

import glob
import hashlib
import json
import os

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
    read_state,
    replay_files,
    serial_oracle_replay,
)
from cosmwasm_etl_ray.sources.generator import generate_change_stream
from cosmwasm_etl_ray.state.gc import bootstrap_store
from cosmwasm_etl_ray.state.manifest import StateStore

P = 8
# epochs: files [0, 1], then [2, 3, late]
CFG = EngineConfig(num_partitions=P, epoch_max_events=8_003, batch_size=1024)
# the caps before and after the mid-log resume; the first is G = P, one
# merge task per pid
CAPS = {"G=P": (P, P), "G=1": (1, 1), "G=2": (2, 2), "G=1 then P": (1, P), "G=P then 2": (P, 2)}


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


def _digest(store) -> tuple[dict, list]:
    """sha256 of every state and quarantine file, and each manifest's
    partitions (store root masked) and counts — committed_at is not
    compared."""
    files = {
        os.path.relpath(f, store.root): hashlib.sha256(open(f, "rb").read()).hexdigest()
        for d in (store.state_dir, store.quarantine_dir)
        for f in glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True)
    }
    manifests = [
        (json.dumps(m["partitions"], sort_keys=True).replace(store.root, ""), m["counts"])
        for m in map(store.manifest, store.committed_epochs())
    ]
    return files, manifests


def _set_cap(monkeypatch, cap: int) -> None:
    monkeypatch.setattr(replay, "task_cap", lambda: cap)


def _assert_same_bytes(build) -> StateStore:
    """``build(caps)`` for every CAPS entry; all equal to G = P's."""
    want = None
    for name, caps in CAPS.items():
        store = build(name, caps)
        got = _digest(store)
        assert got[0] and got[1]
        if want is None:
            want, first = got, store
        else:
            assert got == want, name
    return first


def _state(store) -> pd.DataFrame:
    df = read_state(store).to_pandas()
    return df.sort_values(["repo", "path"]).reset_index(drop=True)


def _oracle(files) -> pd.DataFrame:
    df = serial_oracle_replay(pd.concat([pd.read_parquet(f) for f in files]))
    return df.sort_values(["repo", "path"]).reset_index(drop=True)


def test_replay_files_bytes_do_not_depend_on_groups(log, tmp_path, monkeypatch):
    def build(name, caps):
        store = StateStore(str(tmp_path / name))
        for cap, upto in zip(caps, (2, len(log))):
            _set_cap(monkeypatch, cap)
            replay_files(log[:upto], store, CFG)
        return store

    store = _assert_same_bytes(build)
    has_mode = {"mode" in pq.read_schema(f).names
                for f in glob.glob(os.path.join(store.state_dir, "epoch=1", "*.parquet"))}
    assert has_mode == {True, False}
    cols = ["repo", "path", "commit", "content"]
    pd.testing.assert_frame_equal(_state(store)[cols], _oracle(log)[cols])


def test_override_bytes_do_not_depend_on_groups(tmp_path, monkeypatch):
    from test_override_mode import CFG as OVERRIDE, _write_log

    _, files = _write_log(tmp_path, rng_seed=53, n_events=10_000)
    assert len(files) > 1

    def build(name, caps):
        store = StateStore(str(tmp_path / name))
        for cap, upto in zip(caps, (1, len(files))):
            _set_cap(monkeypatch, cap)
            replay_files(files[:upto], store, OVERRIDE)
        return store

    _assert_same_bytes(build)


def test_bootstrap_and_apply_epoch_bytes_do_not_depend_on_groups(log, tmp_path, monkeypatch):
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

    store = _assert_same_bytes(build)
    cols = ["repo", "path", "commit", "content"]
    pd.testing.assert_frame_equal(_state(store)[cols], _oracle(log[:4])[cols])


def test_epoch_merge_tasks_follow_cpus_not_partitions(log, tmp_path, monkeypatch):
    """Task-count guard: a one-epoch replay into a P = 64 store
    launches ≤ min(P, task_cap()) merge tasks, and every prep task
    declares ≤ G returns — counted at ``.remote`` through a wrapped
    ``cached_remote``; the store still holds one state file per pid."""
    launched = []
    real = replay.cached_remote

    class Counting:
        def __init__(self, fn, opts, remote):
            self.fn, self.num_returns, self.inner = fn, opts.get("num_returns", 1), remote

        def remote(self, *args):
            launched.append((self.fn, self.num_returns))
            return self.inner.remote(*args)

    monkeypatch.setattr(
        replay, "cached_remote", lambda key, fn, **opts: Counting(fn, opts, real(key, fn, **opts))
    )
    cfg = EngineConfig(num_partitions=64, epoch_max_events=10_000, batch_size=1024)
    (m,) = replay_files(log[:2], StateStore(str(tmp_path / "s")), cfg)
    G = min(64, task_cap())
    chain = [r for fn, r in launched if fn is replay._merge_group_chain]
    prep = [r for fn, r in launched if fn is replay._prep_split_shard]
    assert 1 <= len(chain) <= G < 64
    assert prep and max(prep) <= G
    assert m["counts"]["touched_partitions"] == len(m["partitions"]) == 64


def test_apply_epoch_bytes_follow_dataset_order_not_blocks(log, tmp_path, monkeypatch):
    """A 2-file read_parquet Dataset whose second file adds ``mode``
    for a disjoint pid set, both blocks in one prep task: five
    apply_epoch runs write sha256-equal state and quarantine files, the
    same files replay_files writes for the two files as one epoch — the
    blocks go in Dataset order, and ``mode`` reaches only the pids of
    the second file's rows."""
    from cosmwasm_etl_ray.functions.hashing import assign_partition

    def part(f: str, upper: bool) -> pa.Table:
        t = pq.read_table(f)
        key = [pc.fill_null(t[c], "").to_numpy(zero_copy_only=False) for c in ("repo", "path")]
        return t.filter(pa.array((assign_partition(*key, P) >= P // 2) == upper))

    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(part(log[0], False), a)
    t = part(log[1], True)
    pq.write_table(t.append_column("mode", pa.array(["text"] * t.num_rows)), b)

    ref = StateStore(str(tmp_path / "ref"))
    (m,) = replay_files([a, b], ref, CFG)
    assert m["counts"]["quarantined"] > 0
    want = _digest(ref)[0]
    _set_cap(monkeypatch, 1)
    for i in range(5):
        store = StateStore(str(tmp_path / f"apply{i}"))
        apply_epoch(ray.data.read_parquet([a, b]), store, 0, CFG, (a, b))
        assert _digest(store)[0] == want, i
    modes = {int(os.path.basename(f)[5:10]): "mode" in pq.read_schema(f).names
             for f in glob.glob(os.path.join(store.state_dir, "epoch=0", "*.parquet"))}
    assert modes == {p: p >= P // 2 for p in range(P)}
