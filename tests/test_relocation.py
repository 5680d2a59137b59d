"""A store is self-contained: manifests name files relative to the
store root, so a copy whose original has moved away reads, sweeps,
resumes and derives from its own files — for the CDC state store (a
store holding appended links and a fold) and for the transfer ledger.
A store holding a copy of another's manifests alone (a shallow clone)
reads the writer's files and never changes them."""

import glob
import json
import os
import shutil

import numpy as np
import pandas as pd
import pytest

from cosmwasm_etl_ray.config import EngineConfig
from cosmwasm_etl_ray.pipelines.price import PriceTask
from cosmwasm_etl_ray.pipelines.replay import (
    epoch_diff,
    lookup_state,
    read_state,
    replay_files,
    serial_oracle_replay,
)
from cosmwasm_etl_ray.state.delta import partition_chains
from cosmwasm_etl_ray.state.gc import gc_state
from cosmwasm_etl_ray.state.manifest import StateStore

SPARSE = EngineConfig(num_partitions=8, epoch_max_events=120, batch_size=4096)
COLS = ["repo", "path", "commit", "content"]


@pytest.fixture(scope="module")
def log(write_sparse_log, tmp_path_factory):
    return write_sparse_log(str(tmp_path_factory.mktemp("log")), 31, malformed_frac=0.003)


def _oracle(files) -> pd.DataFrame:
    df = serial_oracle_replay(pd.concat([pd.read_parquet(f) for f in files]))
    return df[COLS].sort_values(["repo", "path"]).reset_index(drop=True)


def _state(store, epoch=None) -> pd.DataFrame:
    df = read_state(store, epoch=epoch).to_pandas()
    return df[COLS].sort_values(["repo", "path"]).reset_index(drop=True)


def _diff_oracle(files_old, files_new) -> pd.DataFrame:
    """insert/update/delete between the serial oracle's live states."""
    old, new = _oracle(files_old), _oracle(files_new)
    m = old.merge(new, on=["repo", "path"], how="outer", suffixes=("_old", "_new"))
    m = m[m["commit_old"].fillna("") != m["commit_new"].fillna("")]
    kind = np.where(m["commit_old"].isna(), "insert",
                    np.where(m["commit_new"].isna(), "delete", "update"))
    out = pd.DataFrame({"repo": m["repo"], "path": m["path"], "kind": kind,
                        "commit": m["commit_new"].fillna(m["commit_old"])})
    return out.sort_values(["repo", "path"]).reset_index(drop=True)


def _relocate(root: str, tmp_path) -> str:
    """Copy the store at ``root``, then move the original away."""
    copy = str(tmp_path / "copy")
    shutil.copytree(root, copy)
    shutil.move(root, str(tmp_path / "moved"))
    return copy


def _check_price(task, files) -> None:
    """Run the price task's catch-up; its view equals the pandas oracle."""
    from test_price_router import _price_oracle

    task.run()
    want = _price_oracle(files, task.base)
    assert len(want)
    want = want.sort_values(["commit", "repo"], kind="stable").reset_index(drop=True)
    got = task.view().sort_values(["commit", "repo"], kind="stable").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[list(want.columns)], want)


def _recorded_names(store) -> list[str]:
    names = []
    for e in store.committed_epochs():
        with open(store._mpath(e)) as f:
            for info in json.load(f)["partitions"].values():
                names += [info["file"], *info.get("chain", [])]
    return names


@pytest.mark.usefixtures("ray_session")
def test_copied_state_store_works_after_the_original_moves(log, tmp_path):
    """Epochs 0–6 of the sparse log: epoch 4 folds every chain, 5 and
    6 append links. On a copy whose original is gone, reads, the change
    feed, gc, a resumed epoch and the price task equal the oracles."""
    src = StateStore(str(tmp_path / "src"))
    replay_files(log[:7], src, SPARSE)
    assert {len(c) for c in partition_chains(src).values()} == {3}
    store = StateStore(_relocate(src.root, tmp_path))
    assert not [n for n in _recorded_names(store) if os.path.isabs(n)]

    pd.testing.assert_frame_equal(_state(store), _oracle(log[:7]))
    pd.testing.assert_frame_equal(_state(store, 5), _oracle(log[:6]))
    keys = _oracle(log[:7])[["repo", "path"]].iloc[::25]
    got, files = lookup_state(store, keys, SPARSE.num_partitions)
    assert files and all(f.startswith(store.root + os.sep) for f in files)
    want = _oracle(log[:7]).merge(keys, on=["repo", "path"])
    pd.testing.assert_frame_equal(
        got.to_pandas()[COLS].sort_values(["repo", "path"]).reset_index(drop=True), want
    )
    diff = epoch_diff(store, 5, 6).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(diff, _diff_oracle(log[:6], log[:7]))

    # the price task reads every epoch's state, so it runs before gc
    task = PriceTask(store, SPARSE, base="repo_1")
    _check_price(task, log[:7])

    # gc deletes the chains the fold at epoch 4 covered and keeps the rest
    before = set(glob.glob(os.path.join(store.state_dir, "*", "*.parquet")))
    live = {f for c in partition_chains(store).values() for f in c}
    assert gc_state(store)["deleted"] == len(before - live) > 0
    assert set(glob.glob(os.path.join(store.state_dir, "*", "*.parquet"))) == live
    pd.testing.assert_frame_equal(_state(store), _oracle(log[:7]))

    replay_files(log[:8], store, SPARSE)
    assert store.latest_epoch() == 7
    assert not [n for n in _recorded_names(store) if os.path.isabs(n)]
    pd.testing.assert_frame_equal(_state(store), _oracle(log[:8]))
    _check_price(task, log[:8])


def _state_files(store) -> dict[str, float]:
    return {f: os.path.getmtime(f) for f in glob.glob(os.path.join(store.state_dir, "*", "*"))}


@pytest.mark.usefixtures("ray_session")
def test_copied_manifests_read_the_writers_files(log, tmp_path):
    """A store made of a copy of epochs 0–6's manifests alone reads the
    writer's files, resumes epoch 7 into its own root (naming the
    writer's files it still uses by absolute name, its own relative)
    and sweeps; the writer's store is left as it was."""
    src = StateStore(str(tmp_path / "src"))
    replay_files(log[:7], src, SPARSE)
    before = _state_files(src)
    shutil.copytree(src.manifest_dir, str(tmp_path / "shallow" / "manifests"))
    store = StateStore(str(tmp_path / "shallow"))
    pd.testing.assert_frame_equal(_state(store), _oracle(log[:7]))

    replay_files(log[:8], store, SPARSE)
    assert store.latest_epoch() == 7
    pd.testing.assert_frame_equal(_state(store), _oracle(log[:8]))
    with open(store._mpath(7)) as f:
        parts = json.load(f)["partitions"].values()
    names = [n for info in parts for n in (info["file"], *info.get("chain", []))]
    shared = [n for n in names if os.path.isabs(n)]
    assert shared and all(n.startswith(src.state_dir + os.sep) for n in shared)
    assert all(n.startswith("state" + os.sep) for n in names if n not in shared)
    gc_state(store)
    pd.testing.assert_frame_equal(_state(store), _oracle(log[:8]))
    assert _state_files(src) == before and src.latest_epoch() == 6


@pytest.mark.usefixtures("ray_session")
def test_copied_transfer_ledger_works_after_the_original_moves(tmp_path):
    """Epoch 0 of a two-epoch transfer run, copied and its original
    moved away: the copy resumes epoch 1, records it by root-relative
    names, and its ledger equals the quiet run's."""
    from test_transfer_parser import SF, _sorted

    from cosmwasm_etl_ray.pipelines.transfer_parser import TransferParserPipeline

    quiet = TransferParserPipeline(SF, str(tmp_path / "quiet"), n_epochs=2)
    quiet.run()
    want = _sorted(quiet.ledger().to_pandas())

    first = TransferParserPipeline(SF, str(tmp_path / "src"), n_epochs=2)
    first.run_epoch(0, *first.plan_epochs()[0])
    pipe = TransferParserPipeline(SF, _relocate(first.store.root, tmp_path), n_epochs=2)
    assert [r["skipped"] for r in pipe.run()] == [True, False]
    names = _recorded_names(pipe.store)
    assert names and all(n.startswith("epoch=") for n in names)
    assert all(f.startswith(pipe.store.root + os.sep) for f in pipe.epoch_files())
    pd.testing.assert_frame_equal(_sorted(pipe.ledger().to_pandas()), want)
