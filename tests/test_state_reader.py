"""The one state reader (state/delta.map_chains): the same log written
by the engine and by a copy-on-write reference writer reads back
identically through read_state (now and as of every epoch),
lookup_state, epoch_diff, repair, quarantine replay, bootstrap and the
price task — for a dense log (every write a base) and a sparse one
(appended links, folded on the policy's bounds, and a copy gc'd to its
last four manifests); every result's blocks share one schema; and
nothing outside the state layer reads state files."""

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
    serial_oracle_replay,
)
from cosmwasm_etl_ray.sources.changes import COMMIT_WIDTH
from cosmwasm_etl_ray.sources.generator import generate_change_stream
from cosmwasm_etl_ray.state.delta import partition_chains
from cosmwasm_etl_ray.state.gc import gc_state
from cosmwasm_etl_ray.state.manifest import StateStore

DENSE = EngineConfig(num_partitions=8, epoch_max_events=15_000, batch_size=4096)
# one epoch per file: the sparse log's 120-event files stay single epochs
SPARSE = dataclasses.replace(DENSE, epoch_max_events=120)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _add_late_file(files: list[str], out: str) -> list[str]:
    """Append one 3-event file that has the additive ``mode`` column:
    the pids it touches gain ``mode``, every other pid's state
    predates it."""
    last = pq.read_table(files[-1]).to_pandas()
    top = int(pd.to_numeric(last["commit"], errors="coerce").max())
    late = last[last["commit"] != ""].drop_duplicates(["repo", "path"]).head(3).copy()
    late["commit"] = [str(top + i + 1).zfill(COMMIT_WIDTH) for i in range(3)]
    late["op"] = "update"
    late["content"] = "late"
    late["mode"] = "text"
    f = os.path.join(out, "changes-99999.parquet")
    pq.write_table(pa.Table.from_pandas(late, preserve_index=False), f)
    return files + [f]


@pytest.fixture(scope="module")
def logs(tmp_path_factory, write_sparse_log):
    """{"dense": six 7.5k-event files, "sparse": the sparse log}, each
    without the ``mode`` column until its late 3-event file."""
    out = str(tmp_path_factory.mktemp("dense"))
    dense = generate_change_stream(
        out,
        GeneratorConfig(
            seed=83, n_keys=1_200, n_events=45_000, events_per_file=7_500,
            malformed_frac=0.002, evolve_at_frac=None,
        ),
    )["files"]
    sparse_out = str(tmp_path_factory.mktemp("sparse"))
    sparse = write_sparse_log(sparse_out, 83, malformed_frac=0.002, evolve_at_frac=None)
    return {
        "dense": _add_late_file(dense, out),
        "sparse": _add_late_file(sparse, sparse_out),
    }


CFG = {"dense": DENSE, "sparse": SPARSE}


@pytest.fixture(scope="module")
def cases(logs, rewrite_every_epoch, tmp_path_factory):
    """name -> (reference store, engine store) over the same log and
    epochs: the reference rewrites every touched pid at every epoch."""
    out = {}
    for name, files in logs.items():
        root = tmp_path_factory.mktemp(name)
        ref, store = StateStore(str(root / "ref")), StateStore(str(root / "engine"))
        rewrite_every_epoch(files, ref, CFG[name])
        replay_files(files, store, CFG[name])
        out[name] = (ref, store)
    sparse = out["sparse"][1]
    assert max(len(c) for c in partition_chains(sparse).values()) > 1
    return out


@pytest.fixture(scope="module")
def cg(logs, tmp_path_factory):
    """The sparse log replayed and gc'd to its last four manifests
    (12-15): the links and bases before the fold at epoch 12 are
    gone."""
    cg = StateStore(str(tmp_path_factory.mktemp("cg")))
    replay_files(logs["sparse"], cg, SPARSE)
    assert cg.latest_epoch() == 15
    assert all("chain" not in v for v in cg.manifest(12)["partitions"].values())
    assert gc_state(cg, keep_manifests=4)["deleted"] > 0
    return cg


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
def test_read_state_equal_on_every_layout(cases, logs):
    for name, (ref, store) in cases.items():
        want = _rows(read_state(ref))
        assert "mode" in want.columns
        assert want["mode"].isna().any() and want["mode"].notna().any()
        pd.testing.assert_frame_equal(_rows(read_state(store)), want)
        oracle = serial_oracle_replay(pd.concat([pd.read_parquet(f) for f in logs[name]]))
        cols = ["repo", "path", "commit", "content"]
        pd.testing.assert_frame_equal(
            want[cols], oracle[cols].sort_values(["repo", "path"]).reset_index(drop=True)
        )


@pytest.mark.usefixtures("ray_session")
def test_read_state_as_of_epoch_equal(cases, cg):
    for ref, store in cases.values():
        assert store.committed_epochs() == ref.committed_epochs()
        for e in ref.committed_epochs():
            pd.testing.assert_frame_equal(
                _rows(read_state(store, epoch=e)), _rows(read_state(ref, epoch=e))
            )
    ref = cases["sparse"][0]
    assert max(len(c) for c in partition_chains(cg).values()) > 1
    for k in cg.committed_epochs()[-4:]:  # gc's kept window, latest included
        pd.testing.assert_frame_equal(
            _rows(read_state(cg, epoch=k)), _rows(read_state(ref, epoch=k))
        )


@pytest.mark.usefixtures("ray_session")
def test_lookup_equal_on_every_layout(cases, cg, logs):
    for name, (ref, store) in cases.items():
        live = _rows(read_state(ref))
        late = pq.read_table(logs[name][-1]).to_pandas()[["repo", "path"]]
        keys = pd.concat(
            [live[["repo", "path"]].head(7), late,
             live[["repo", "path"]].head(1),  # requested twice
             pd.DataFrame({"repo": [live["repo"].iloc[0]], "path": ["no/such/path"]})],
            ignore_index=True,
        )
        n_live = len(keys.iloc[:-2].drop_duplicates())
        want = _rows(lookup_state(ref, keys, DENSE.num_partitions)[0])
        assert len(want) == n_live
        assert set(want["path"]) >= set(late["path"])
        for s in (store, cg) if name == "sparse" else (store,):
            ds, files = lookup_state(s, keys, DENSE.num_partitions)
            pd.testing.assert_frame_equal(_rows(ds), want)
            assert 0 < len(files) < sum(len(c) for c in partition_chains(s).values())


@pytest.mark.usefixtures("ray_session")
def test_epoch_diff_equal_on_every_layout(cases, cg):
    for ref, store in cases.values():
        for e in ref.committed_epochs()[1:]:
            want = _rows(epoch_diff(ref, e - 1, e))
            assert len(want) > 0
            pd.testing.assert_frame_equal(_rows(epoch_diff(store, e - 1, e)), want)
    # on the gc'd store, inside its kept window: into the fold at 12,
    # across it (11 → 13 on the reference), and from it
    ref = cases["sparse"][0]
    for lo, hi in ((12, 13), (12, 15), (13, 15)):
        pd.testing.assert_frame_equal(_rows(epoch_diff(cg, lo, hi)), _rows(epoch_diff(ref, lo, hi)))
    store = cases["sparse"][1]
    pd.testing.assert_frame_equal(_rows(epoch_diff(store, 11, 13)), _rows(epoch_diff(ref, 11, 13)))


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
def test_full_manifest_records_no_chain(cases):
    """Dense epochs write bases only — the copy-on-write entry shape,
    no chain; the late 3-event epoch appends. Links record their chain
    (themselves last) and its files' row counts."""
    store = cases["dense"][1]
    *dense, late = store.committed_epochs()
    for e in dense:
        for v in store.manifest(e)["partitions"].values():
            assert set(v) == {"file", "rows", "live_rows", "epoch"}
    for s in (store, cases["sparse"][1]):
        links = [v for v in s.manifest(s.latest_epoch())["partitions"].values() if "chain" in v]
        assert links
        for v in links:
            assert v["chain"][-1] == v["file"] and len(v["chain_rows"]) == len(v["chain"])


@pytest.mark.usefixtures("ray_session")
def test_price_task_equal_on_full_and_delta(cases):
    from cosmwasm_etl_ray.pipelines.price import PriceTask, repo_lang_edges

    for name, (ref, store) in cases.items():
        for e in ref.committed_epochs():
            a = repo_lang_edges(ref, e).sort_values(["repo", "lang"]).reset_index(drop=True)
            b = repo_lang_edges(store, e).sort_values(["repo", "lang"]).reset_index(drop=True)
            pd.testing.assert_frame_equal(a, b)
        assert a["n_files"].sum() == len(_rows(read_state(ref)))

        tr = PriceTask(ref, CFG[name], base="repo_1")
        ts = PriceTask(store, CFG[name], base="repo_1")
        assert tr.run() == ts.run() == ref.committed_epochs()
        pd.testing.assert_frame_equal(tr.view(), ts.view())
        assert len(tr.view()) > 0
        pd.testing.assert_frame_equal(tr.latest_routes(), ts.latest_routes())


def _pid_of(repo: str, path: str, P: int) -> int:
    from cosmwasm_etl_ray.functions.hashing import assign_partition

    return int(assign_partition(np.array([repo], object), np.array([path], object), P)[0])


def _events(rows: pd.DataFrame, commit: str, op: str) -> "ray.data.Dataset":
    ev = rows[["repo", "path", "lang", "content"]].copy()
    ev["commit"], ev["op"] = commit, op
    return ray.data.from_pandas(ev.reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
def test_repair_reconverges_on_delta_store(logs, tmp_path):
    """A tombstone sitting in an OLDER chain link must still lift the
    repair commit; after repair the dense and the sparse store equal
    their snapshots."""
    from cosmwasm_etl_ray.state.repair import diff_and_repair

    for name, files in logs.items():
        cfg = CFG[name]
        store = StateStore(str(tmp_path / name))
        # sparse: two epochs leave room in the chain for both links
        replay_files(files[: 4 if name == "dense" else 2], store, cfg)
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
        assert len(partition_chains(store)[pid]) >= 3
        want = snap.drop(index=snap.index[5])  # → delete
        want.loc[want.index[3], "content"] = "fixed"  # → update
        res = diff_and_repair(store, want.drop(columns=["mode"], errors="ignore"), cfg)
        got = _rows(read_state(store))
        key = ["repo", "path", "content"]
        pd.testing.assert_frame_equal(
            got[key].reset_index(drop=True), want[key].reset_index(drop=True)
        )
        assert res["n_insert"] == 1 and res["n_delete"] == 1


@pytest.mark.usefixtures("ray_session")
def test_quarantine_replay_and_bootstrap_on_delta(tmp_path, write_sparse_log, rewrite_every_epoch):
    """replay_quarantine on a dense and a sparse store reads back the
    same state as on the copy-on-write reference; bootstrap_store plus
    per-file tail epochs equals the serial oracle of the whole log."""
    from cosmwasm_etl_ray.pipelines.replay import serial_oracle_replay
    from cosmwasm_etl_ray.state.gc import bootstrap_store
    from cosmwasm_etl_ray.state.quarantine import replay_quarantine

    logs = {
        "dense": generate_change_stream(
            str(tmp_path / "log"),
            GeneratorConfig(seed=89, n_keys=600, n_events=30_000, events_per_file=7_500,
                            malformed_frac=0.02, evolve_at_frac=None),
        )["files"],
        "sparse": write_sparse_log(str(tmp_path / "sparse"), 89,
                                   malformed_frac=0.02, evolve_at_frac=None),
    }

    def fix(rows: pd.DataFrame) -> pd.DataFrame:
        rows = rows.copy()
        blank = rows["commit"] == ""
        rows.loc[blank, "commit"] = [f"{9_000_000_000 + i:010d}" for i in range(int(blank.sum()))]
        return rows

    for name, files in logs.items():
        cfg = CFG[name]
        got = []
        for build in (replay_files, rewrite_every_epoch):
            store = StateStore(str(tmp_path / f"q-{name}-{build.__name__}"))
            build(files, store, cfg)
            m = replay_quarantine(store, cfg, fix_fn=fix)
            assert m["format"] == 2 and m["counts"]["quarantined"] == 0
            got.append(_rows(read_state(store)))
        pd.testing.assert_frame_equal(got[0], got[1])

        head = pd.concat([pd.read_parquet(f) for f in files[:2]], ignore_index=True)
        boot = StateStore(str(tmp_path / f"b-{name}"))
        assert bootstrap_store(serial_oracle_replay(head), boot, cfg)["format"] == 2
        for i, f in enumerate(files[2:], start=1):
            apply_epoch(ray.data.read_parquet([f]), boot, i, cfg, (f, f))
        cols = ["repo", "path", "commit", "content"]
        want = serial_oracle_replay(pd.concat([pd.read_parquet(f) for f in files]))
        pd.testing.assert_frame_equal(
            _rows(read_state(boot))[cols],
            want[cols].sort_values(["repo", "path"]).reset_index(drop=True),
        )
    assert max(len(c) for c in partition_chains(boot).values()) > 1


# ---- lint: state files are read through the state layer only ----

_LINEAGE = {"partition_files", "partition_chains", "fold_chain", "state_dir"}
_PARQUET_READS = {"read_parquet", "read_table", "ParquetFile", "read_schema", "read_metadata"}


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
            calls = {
                c.func.attr if isinstance(c.func, ast.Attribute) else getattr(c.func, "id", "")
                for c in ast.walk(fn) if isinstance(c, ast.Call)
            }
            if "partition_files" in calls:
                bad.append(f"{rel}:{fn.lineno} {fn.name} calls partition_files(")
            elif calls & _PARQUET_READS and _names(fn) & _LINEAGE:
                bad.append(f"{rel}:{fn.lineno} {fn.name} reads parquet next to state lineage")
    assert not bad, "read committed state through state/delta.map_chains:\n" + "\n".join(bad)
