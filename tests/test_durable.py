"""Durable writes (state/durable.py): every tmp+rename commit of the
program goes through the module (lint), only state/manifest.py knows
the manifest's format and file names (lint), gc sweeps only dead
writers' tmps, a snapshot is never torn, and a crash at any durable
write of a CDC epoch — appending or folding — re-runs to the no-crash
store."""

import ast
import os
import subprocess

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cosmwasm_etl_ray.config import EngineConfig
from cosmwasm_etl_ray.pipelines import replay
from cosmwasm_etl_ray.pipelines.replay import plan_epochs, read_state, serial_oracle_replay
from cosmwasm_etl_ray.stages.merge import MergeWithState
from cosmwasm_etl_ray.stages.normalize import FlagAndPartition
from cosmwasm_etl_ray.state import durable
from cosmwasm_etl_ray.state.delta import partition_slices, read_slices
from cosmwasm_etl_ray.state.gc import gc_state
from cosmwasm_etl_ray.state.manifest import StateStore

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPARSE = EngineConfig(num_partitions=8, epoch_max_events=120, batch_size=4096)
_RENAMES = {"replace", "link", "rename"}


def _program_files() -> list[str]:
    out = ["bench.py"]
    for top in ("cosmwasm_etl_ray", "tools"):
        for d, _, fs in os.walk(os.path.join(ROOT, top)):
            out += [os.path.relpath(os.path.join(d, f), ROOT) for f in fs if f.endswith(".py")]
    return sorted(out)


def test_durable_writes_go_through_one_module():
    """No tmp name, os.replace, os.link or os.rename outside
    state/durable.py: a new durable write that bypasses the module
    (and the crash point its commit gives tests) fails here."""
    bad = []
    for rel in _program_files():
        if rel == os.path.join("cosmwasm_etl_ray", "state", "durable.py"):
            continue
        tree = ast.parse(open(os.path.join(ROOT, rel)).read(), rel)
        for n in ast.walk(tree):
            if isinstance(n, ast.Constant) and isinstance(n.value, str) and ".tmp." in n.value:
                bad.append(f"{rel}:{n.lineno} builds a tmp name")
            elif (isinstance(n, ast.Attribute) and n.attr in _RENAMES
                  and isinstance(n.value, ast.Name) and n.value.id == "os"):
                bad.append(f"{rel}:{n.lineno} calls os.{n.attr}")
            elif isinstance(n, ast.ImportFrom) and n.module == "os" and \
                    {a.name for a in n.names} & _RENAMES:
                bad.append(f"{rel}:{n.lineno} imports a rename from os")
    assert not bad, "commit files through state/durable.py:\n" + "\n".join(bad)


def test_only_the_manifest_module_knows_the_format_and_names():
    """No ``key64`` or ``manifest_entries`` in the package (the readers
    of older formats are gone), and no module but state/manifest.py
    reads a manifest's "format" or makes a state name relative with
    ``os.path.relpath(name, <store>.root or .state_dir)``: the format
    check and the root-relative names live in StateStore alone."""
    own = os.path.join("cosmwasm_etl_ray", "state", "manifest.py")
    bad = []
    for rel in _program_files():
        if not rel.startswith("cosmwasm_etl_ray" + os.sep):
            continue
        src = open(os.path.join(ROOT, rel)).read()
        bad += [f"{rel} names {w}" for w in ("key64", "manifest_entries") if w in src]
        if rel == own:
            continue
        for n in ast.walk(ast.parse(src, rel)):
            if isinstance(n, ast.Constant) and n.value == "format":
                bad.append(f"{rel}:{n.lineno} reads a manifest's format")
            elif isinstance(n, ast.Call) and "relpath" in (
                getattr(n.func, "attr", None), getattr(n.func, "id", None)
            ) and any(
                isinstance(a, ast.Attribute) and a.attr in ("root", "state_dir")
                for a in n.args[1:] + [k.value for k in n.keywords]
            ):
                bad.append(f"{rel}:{n.lineno} makes a state name relative")
    assert not bad, "manifest formats and names belong to state/manifest.py:\n" + "\n".join(bad)


def _apply(store, e: int, batch: list[str]) -> None:
    """One epoch in this process: one MergeWithState call over every
    pid, then commit_epoch."""
    t = pa.concat_tables([pq.read_table(f) for f in batch], promote_options="permissive")
    t = FlagAndPartition(SPARSE.num_partitions)(t)
    latest = store.latest_epoch()
    prior = store.manifest(latest)["partitions"] if latest is not None else {}
    stats = MergeWithState(
        store.state_dir, e, {int(p): v for p, v in prior.items()},
        quarantine_root=store.quarantine_dir,
    )(t).to_pylist()
    store.commit_epoch(
        e, {s["pid"]: replay._entry(s) for s in stats}, (batch[0], batch[-1]),
        {"touched_partitions": len(stats)}, num_partitions=SPARSE.num_partitions,
    )


def _dead_pid() -> int:
    p = subprocess.Popen(["true"])
    p.wait()
    return p.pid


@pytest.fixture(scope="module")
def log(write_sparse_log, tmp_path_factory):
    # enough malformed rows that every epoch writes a quarantine file
    return write_sparse_log(str(tmp_path_factory.mktemp("log")), 43, malformed_frac=0.05)


def test_gc_sweeps_dead_writers_tmps(log, tmp_path):
    store = StateStore(str(tmp_path / "s"))
    head = plan_epochs(log, SPARSE)[0]
    _apply(store, 0, head)
    _apply(store, 1, head)  # every pid folds: epoch 0's file is superseded
    dead = os.path.join(store.state_dir, "epoch=0", f"part-00000.parquet.tmp.{_dead_pid()}")
    qdead = os.path.join(store.quarantine_dir, "epoch=1", f"part-00000.parquet.tmp.{_dead_pid()}")
    live = os.path.join(store.state_dir, "epoch=1", f"part-00000.parquet.tmp.{os.getpid()}")
    for f in (dead, qdead, live):
        open(f, "wb").write(b"torn")
    want = read_state(store).to_pandas()

    out = gc_state(store)
    assert out == {"kept": 1, "deleted": 3}  # epoch 0's part file and the two dead tmps
    assert not os.path.exists(os.path.dirname(dead))  # the emptied dir went too
    assert not os.path.exists(qdead) and os.path.exists(live)
    pd.testing.assert_frame_equal(read_state(store).to_pandas(), want)


def test_gc_sweeps_dead_manifest_tmps_and_keeps_the_dir(log, tmp_path):
    """A writer killed inside commit_epoch leaves its manifest tmp:
    gc_state deletes a dead writer's and keeps a live one's, and keeps
    manifests/ itself even when that leaves it empty, so the next epoch
    still commits."""
    store = StateStore(str(tmp_path / "s"))
    head = plan_epochs(log, SPARSE)[0]
    first = os.path.join(store.manifest_dir, f"epoch-000000.json.tmp.{_dead_pid()}")
    open(first, "w").write("{")
    assert gc_state(store) == {"kept": 0, "deleted": 1}
    assert os.listdir(store.manifest_dir) == []
    _apply(store, 0, head)

    dead = os.path.join(store.manifest_dir, f"epoch-000001.json.tmp.{_dead_pid()}")
    live = os.path.join(store.manifest_dir, f"epoch-000001.json.tmp.{os.getpid()}")
    for f in (dead, live):
        open(f, "w").write("{")
    assert gc_state(store)["deleted"] == 1
    assert not os.path.exists(dead) and os.path.exists(live)
    _apply(store, 1, head)
    assert store.committed_epochs() == [0, 1]


def test_snapshot_is_never_torn(log, tmp_path, monkeypatch):
    from cosmwasm_etl_ray.stages.validate import snapshot_state

    store = StateStore(str(tmp_path / "s"))
    _apply(store, 0, plan_epochs(log, SPARSE)[0])
    path = snapshot_state(store)
    first = pd.read_parquet(path)
    assert len(first)

    def crash(tmp, path, overwrite=True):
        with open(tmp, "r+b") as f:
            f.truncate(7)  # the torn bytes a crash leaves behind
        raise OSError("crash at commit")

    monkeypatch.setattr(durable, "commit", crash)
    with pytest.raises(OSError, match="crash at commit"):
        snapshot_state(store)
    pd.testing.assert_frame_equal(pd.read_parquet(path), first)


def _pid_slices(store) -> dict[int, pa.Table]:
    return {
        p: pa.concat_tables(read_slices(chain), promote_options="permissive")
        for p, chain in sorted(partition_slices(store).items())
    }


def test_crash_at_each_durable_write_of_an_epoch_reconverges(log, tmp_path, monkeypatch):
    """A crash at the k-th durable write (quarantine file, state file,
    manifest) of an appending and of a folding epoch, then a re-run of
    that epoch and the rest of the log, leaves the no-crash store: every
    pid's slices and read_state equal, and equal to the serial oracle."""
    epochs = plan_epochs(log, SPARSE)[:6]
    clean = StateStore(str(tmp_path / "clean"))
    writes, kind = [], {}
    real = durable.commit
    for e, batch in enumerate(epochs):
        calls = []
        monkeypatch.setattr(durable, "commit", lambda *a, **k: calls.append(a) or real(*a, **k))
        _apply(clean, e, batch)
        monkeypatch.setattr(durable, "commit", real)
        writes.append(len(calls))
        if e:
            old, new = (clean.manifest(x)["partitions"] for x in (e - 1, e))
            touched = [p for p, v in new.items() if v["epoch"] == e]
            if any("chain" in new[p] for p in touched):
                kind.setdefault("append", e)
            if any("chain" in old.get(p, {}) and "chain" not in new[p] for p in touched):
                kind.setdefault("fold", e)
    assert set(kind) == {"append", "fold"}, kind
    cols = ["repo", "path", "commit", "content"]
    oracle = serial_oracle_replay(pd.concat([pd.read_parquet(f) for b in epochs for f in b]))
    oracle = oracle.sort_values(["repo", "path"]).reset_index(drop=True)[cols]
    want = _pid_slices(clean)

    for name, target in kind.items():
        assert writes[target] == 3, (name, writes)  # quarantine, state, manifest
        for k in range(1, writes[target] + 1):
            store = StateStore(str(tmp_path / f"{name}-{k}"))
            for e in range(target):
                _apply(store, e, epochs[e])
            n = [0]

            def crash(*a, **kw):
                n[0] += 1
                if n[0] == k:
                    raise OSError(f"crash at write {k}")
                return real(*a, **kw)

            monkeypatch.setattr(durable, "commit", crash)
            with pytest.raises(OSError, match=f"crash at write {k}"):
                _apply(store, target, epochs[target])
            monkeypatch.setattr(durable, "commit", real)
            assert store.latest_epoch() == target - 1
            for e in range(target, len(epochs)):
                _apply(store, e, epochs[e])

            got = _pid_slices(store)
            assert got.keys() == want.keys()
            for p in want:
                assert got[p].equals(want[p]), (name, k, p)
            state = read_state(store).to_pandas().sort_values(["repo", "path"])
            pd.testing.assert_frame_equal(state.reset_index(drop=True)[cols], oracle)
