"""The one state reader (state/delta.map_chains): the same log written
as a full store, a delta store, and a delta store that was compacted
and garbage-collected reads back identically through read_state (now
and as of an epoch), lookup_state, epoch_diff, repair, quarantine
replay, bootstrap and the price task; every result's blocks share one
schema; and nothing outside the state layer reads state files."""

import ast
import dataclasses
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data

from cosmwasm_etl_ray.config import EngineConfig, GeneratorConfig
from cosmwasm_etl_ray.pipelines.replay import (
    apply_epoch,
    epoch_diff,
    lookup_state,
    read_state,
    replay_files,
)
from cosmwasm_etl_ray.sources.changes import COMMIT_WIDTH
from cosmwasm_etl_ray.sources.generator import generate_change_stream
from cosmwasm_etl_ray.state.delta import compact_state, partition_chains
from cosmwasm_etl_ray.state.gc import gc_state
from cosmwasm_etl_ray.state.manifest import StateStore

FULL = EngineConfig(num_partitions=8, epoch_max_events=15_000, batch_size=4096)
DELTA = dataclasses.replace(FULL, state_layout="delta")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def log(tmp_path_factory):
    """Six 7.5k-event files without the additive ``mode`` column, then
    one 3-event file that has it: the pids it touches gain ``mode``,
    every other pid's state predates it."""
    out = str(tmp_path_factory.mktemp("log"))
    log = generate_change_stream(
        out,
        GeneratorConfig(
            seed=83, n_keys=1_200, n_events=45_000, events_per_file=7_500,
            malformed_frac=0.002, evolve_at_frac=None,
        ),
    )
    last = pq.read_table(log["files"][-1]).to_pandas()
    top = int(pd.to_numeric(last["commit"], errors="coerce").max())
    late = last[last["commit"] != ""].drop_duplicates(["repo", "path"]).head(3).copy()
    late["commit"] = [str(top + i + 1).zfill(COMMIT_WIDTH) for i in range(3)]
    late["op"] = "update"
    late["content"] = "late"
    late["mode"] = "text"
    f = os.path.join(out, "changes-99999.parquet")
    pq.write_table(pa.Table.from_pandas(late, preserve_index=False), f)
    return log["files"] + [f]


@pytest.fixture(scope="module")
def stores(log, tmp_path_factory):
    root = tmp_path_factory.mktemp("stores")
    full = StateStore(str(root / "full"))
    replay_files(log, full, FULL)
    delta = StateStore(str(root / "delta"))
    replay_files(log, delta, DELTA)
    return full, delta


@pytest.fixture(scope="module")
def cg(log, tmp_path_factory):
    """A delta store compacted twice mid-stream (replay 0, 1, compact
    2, replay 3, compact 4, replay 5) whose gc kept the last four
    manifests, so the links of epochs 0-1 are gone."""
    cg = StateStore(str(tmp_path_factory.mktemp("cg")))
    replay_files(log[:4], cg, DELTA)
    compact_state(cg)
    replay_files(log[:6], cg, DELTA)
    compact_state(cg)
    replay_files(log, cg, DELTA)
    assert [cg.manifest(e)["offset_range"][0] == "compact" for e in range(6)] == [
        False, False, True, False, True, False
    ]
    assert gc_state(cg, keep_manifests=4)["deleted"] > 0
    return cg


def _ref_epoch(store, ref, k: int) -> int:
    """``ref``'s epoch holding the state of ``store``'s epoch ``k``: the
    one that covers the same change-log files (a compaction epoch holds
    the state of the replay epoch before it)."""
    while store.manifest(k)["offset_range"] == ["compact", "compact"]:
        k -= 1
    want = store.manifest(k)["offset_range"]
    return next(e for e in ref.committed_epochs() if ref.manifest(e)["offset_range"] == want)


def _blocks(ds) -> list[pa.Table]:
    """The Dataset's blocks; asserts they share one schema and that the
    reader stayed within 2×NCPU tasks."""
    blocks = [ray.get(r) for r in ds.to_arrow_refs()]
    assert len(blocks) <= 2 * int(ray.cluster_resources()["CPU"])
    for b in blocks[1:]:
        assert b.schema.equals(blocks[0].schema), (b.schema, blocks[0].schema)
    return blocks


def _rows(ds, drop=("epoch",)) -> pd.DataFrame:
    df = pa.concat_tables(_blocks(ds)).to_pandas()
    df = df.drop(columns=[c for c in drop if c in df.columns])
    return df[sorted(df.columns)].sort_values(["repo", "path"]).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
def test_read_state_equal_on_every_layout(stores):
    full, delta = stores
    want = _rows(read_state(full))
    assert "mode" in want.columns
    assert want["mode"].isna().any() and want["mode"].notna().any()
    pd.testing.assert_frame_equal(_rows(read_state(delta)), want)
    assert max(len(c) for c in partition_chains(delta).values()) > 1


@pytest.mark.usefixtures("ray_session")
def test_read_state_as_of_epoch_equal(stores, cg):
    full, delta = stores
    for e in full.committed_epochs():
        pd.testing.assert_frame_equal(
            _rows(read_state(delta, epoch=e)), _rows(read_state(full, epoch=e))
        )
    assert max(len(c) for c in partition_chains(cg).values()) > 1
    for k in cg.committed_epochs()[-4:]:  # gc's kept window, latest included
        pd.testing.assert_frame_equal(
            _rows(read_state(cg, epoch=k)),
            _rows(read_state(full, epoch=_ref_epoch(cg, full, k))),
        )


@pytest.mark.usefixtures("ray_session")
def test_lookup_equal_on_every_layout(stores, cg, log):
    full, delta = stores
    live = _rows(read_state(full))
    late = pq.read_table(log[-1]).to_pandas()[["repo", "path"]]
    keys = pd.concat(
        [live[["repo", "path"]].head(7), late,
         live[["repo", "path"]].head(1),  # requested twice
         pd.DataFrame({"repo": [live["repo"].iloc[0]], "path": ["no/such/path"]})],
        ignore_index=True,
    )
    n_live = len(keys.iloc[:-2].drop_duplicates())
    want = _rows(lookup_state(full, keys, FULL.num_partitions)[0])
    assert len(want) == n_live
    assert set(want["path"]) >= set(late["path"])
    for s in (delta, cg):
        ds, files = lookup_state(s, keys, DELTA.num_partitions)
        pd.testing.assert_frame_equal(_rows(ds), want)
        assert 0 < len(files) < sum(len(c) for c in partition_chains(s).values())


@pytest.mark.usefixtures("ray_session")
def test_epoch_diff_equal_on_every_layout(stores, cg):
    full, delta = stores
    for e in full.committed_epochs()[1:]:
        want = _rows(epoch_diff(full, e - 1, e))
        assert len(want) > 0
        pd.testing.assert_frame_equal(_rows(epoch_diff(delta, e - 1, e)), want)
    # on the compacted store, inside gc's kept window: from a
    # compaction epoch, across one (3 → 5 spans 4), and the last pair
    for lo, hi in ((2, 3), (3, 5), (4, 5)):
        pd.testing.assert_frame_equal(
            _rows(epoch_diff(cg, lo, hi)),
            _rows(epoch_diff(full, _ref_epoch(cg, full, lo), _ref_epoch(cg, full, hi))),
        )


@pytest.mark.usefixtures("ray_session")
def test_partition_chains_reads_one_manifest(cg):

    class Counting(StateStore):
        reads = 0

        def manifest(self, epoch):
            Counting.reads += 1
            return super().manifest(epoch)

    store = Counting(cg.root)
    assert len(store.committed_epochs()) >= 6
    chains = partition_chains(store)
    assert Counting.reads == 1
    assert chains == partition_chains(cg)


@pytest.mark.usefixtures("ray_session")
def test_full_manifest_records_no_chain(stores):
    full, delta = stores
    for e in full.committed_epochs():
        assert all("chain" not in v for v in full.manifest(e)["partitions"].values())
    m = delta.manifest(delta.latest_epoch())["partitions"]
    assert all(v["chain"][-1] == v["file"] for v in m.values())


@pytest.mark.usefixtures("ray_session")
def test_price_task_equal_on_full_and_delta(stores):
    from cosmwasm_etl_ray.pipelines.price import PriceTask, repo_lang_edges

    full, delta = stores
    for e in full.committed_epochs():
        a = repo_lang_edges(full, e).sort_values(["repo", "lang"]).reset_index(drop=True)
        b = repo_lang_edges(delta, e).sort_values(["repo", "lang"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)
    live = _rows(read_state(full))
    assert a["n_files"].sum() == len(live)

    tf, td = PriceTask(full, FULL, base="repo_1"), PriceTask(delta, DELTA, base="repo_1")
    assert tf.run() == td.run() == full.committed_epochs()
    pd.testing.assert_frame_equal(tf.view(), td.view())
    assert len(tf.view()) > 0
    pd.testing.assert_frame_equal(tf.latest_routes(), td.latest_routes())


def _pid_of(repo: str, path: str, P: int) -> int:
    from cosmwasm_etl_ray.functions.hashing import assign_partition

    return int(assign_partition(np.array([repo], object), np.array([path], object), P)[0])


def _events(rows: pd.DataFrame, commit: str, op: str) -> "ray.data.Dataset":
    ev = rows[["repo", "path", "lang", "content"]].copy()
    ev["commit"], ev["op"] = commit, op
    return ray.data.from_pandas(ev.reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
def test_repair_reconverges_on_delta_store(log, tmp_path):
    """A tombstone sitting in an OLDER chain link must still lift the
    repair commit; after repair both layouts equal the snapshot."""
    from cosmwasm_etl_ray.state.repair import diff_and_repair

    results = []
    for cfg in (FULL, DELTA):
        store = StateStore(str(tmp_path / cfg.state_layout))
        replay_files(log[:4], store, cfg)
        snap = _rows(read_state(store))
        top = int(pd.to_numeric(snap["commit"]).max())
        victim = snap.iloc[[0]]
        pid = _pid_of(victim["repo"].iloc[0], victim["path"].iloc[0], cfg.num_partitions)
        other = snap[[
            _pid_of(r, p, cfg.num_partitions) == pid and p != victim["path"].iloc[0]
            for r, p in zip(snap["repo"], snap["path"])
        ]].head(1)
        e = store.latest_epoch()
        # the tombstone's link is older than the pid's newest link,
        # whose commits are lower
        apply_epoch(_events(victim, str(top + 10).zfill(COMMIT_WIDTH), "delete"),
                    store, e + 1, cfg)
        apply_epoch(_events(other.assign(content="stale"),
                            str(top + 1).zfill(COMMIT_WIDTH), "update"),
                    store, e + 2, cfg)
        want = snap.drop(index=snap.index[5])  # → delete
        want.loc[want.index[3], "content"] = "fixed"  # → update
        res = diff_and_repair(store, want.drop(columns=["mode"], errors="ignore"), cfg)
        got = _rows(read_state(store))
        key = ["repo", "path", "content"]
        pd.testing.assert_frame_equal(
            got[key].reset_index(drop=True), want[key].reset_index(drop=True)
        )
        results.append(res)
    assert results[0] == results[1]
    assert results[0]["n_insert"] == 1 and results[0]["n_delete"] == 1


@pytest.mark.usefixtures("ray_session")
def test_quarantine_replay_and_bootstrap_on_delta(tmp_path):
    """replay_quarantine and bootstrap_store write the store's layout
    and read back the same state as on a full store."""
    from cosmwasm_etl_ray.pipelines.replay import serial_oracle_replay
    from cosmwasm_etl_ray.state.gc import bootstrap_store
    from cosmwasm_etl_ray.state.quarantine import replay_quarantine

    files = generate_change_stream(
        str(tmp_path / "log"),
        GeneratorConfig(seed=89, n_keys=600, n_events=30_000, events_per_file=7_500,
                        malformed_frac=0.02, evolve_at_frac=None),
    )["files"]

    def fix(rows: pd.DataFrame) -> pd.DataFrame:
        rows = rows.copy()
        blank = rows["commit"] == ""
        rows.loc[blank, "commit"] = [f"{9_000_000_000 + i:010d}" for i in range(int(blank.sum()))]
        return rows

    quarantined, booted = [], []
    for cfg in (FULL, DELTA):
        store = StateStore(str(tmp_path / f"q-{cfg.state_layout}"))
        replay_files(files, store, cfg)
        m = replay_quarantine(store, cfg, fix_fn=fix)
        assert m["layout"] == cfg.state_layout and m["counts"]["quarantined"] == 0
        quarantined.append(_rows(read_state(store)))

        head = pd.concat([pd.read_parquet(f) for f in files[:2]], ignore_index=True)
        boot = StateStore(str(tmp_path / f"b-{cfg.state_layout}"))
        assert bootstrap_store(serial_oracle_replay(head), boot, cfg)["layout"] == cfg.state_layout
        for i, f in enumerate(files[2:], start=1):
            apply_epoch(ray.data.read_parquet([f]), boot, i, cfg, (f, f))
        booted.append(_rows(read_state(boot)))
    pd.testing.assert_frame_equal(quarantined[0], quarantined[1])
    pd.testing.assert_frame_equal(booted[0], booted[1])


# ---- lint: state files are read through the state layer only ----

_LINEAGE = {"partition_files", "partition_chains", "fold_chain", "state_dir"}
_PARQUET_READS = {"read_parquet", "read_table", "ParquetFile", "read_schema", "read_metadata"}
# the write policy: which committed file a full-layout link folds onto
_EXEMPT = {("cosmwasm_etl_ray/pipelines/replay.py", "_committed_prior")}


def _program_files() -> list[str]:
    out = ["bench.py", "__ray_entry__.py"]
    for top in ("cosmwasm_etl_ray", "tools"):
        for d, _, fs in os.walk(os.path.join(ROOT, top)):
            out += [
                os.path.relpath(os.path.join(d, f), ROOT) for f in fs if f.endswith(".py")
            ]
    return sorted(f for f in out if not f.startswith("cosmwasm_etl_ray/state/"))


def _names(node) -> set[str]:
    return {
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(node)
        if isinstance(n, (ast.Attribute, ast.Name))
    }


def test_no_state_reads_outside_state_layer():
    bad = []
    for rel in _program_files():
        tree = ast.parse(open(os.path.join(ROOT, rel)).read(), rel)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (rel, fn.name) in _EXEMPT:
                continue
            calls = {
                c.func.attr if isinstance(c.func, ast.Attribute) else getattr(c.func, "id", "")
                for c in ast.walk(fn) if isinstance(c, ast.Call)
            }
            if "partition_files" in calls:
                bad.append(f"{rel}:{fn.lineno} {fn.name} calls partition_files(")
            elif calls & _PARQUET_READS and _names(fn) & _LINEAGE:
                bad.append(f"{rel}:{fn.lineno} {fn.name} reads parquet next to state lineage")
    assert not bad, "read committed state through state/delta.map_chains:\n" + "\n".join(bad)
