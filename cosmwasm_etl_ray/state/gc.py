"""State GC + checkpoint bootstrap.

- ``gc_state``: lineage-aware garbage collection. Copy-on-write leaves
  superseded partition files in older ``epoch=`` directories, and
  compaction leaves covered delta links; GC keeps every file in a
  chain of the last ``keep_manifests`` manifests and deletes the rest.
  Manifests themselves are kept (tiny, they ARE the lineage). The
  graft of the aggregator's truncate lever being safe to run anytime
  (D4).
- ``bootstrap_store``: seed epoch 0 of a fresh store from an existing
  current-state table — the checkpoint-builder analogue
  (/root/reference/parser/checkpoint/builder.go:28-49): start replay
  mid-stream from a snapshot instead of from offset 0.
"""

from __future__ import annotations

import glob
import os

import pandas as pd

import ray.data

from cosmwasm_etl_ray.config import DEFAULT_CONFIG, EngineConfig
from cosmwasm_etl_ray.pipelines.replay import apply_epoch


def gc_state(store, keep_manifests: int = 1) -> dict:
    """Delete state files not in any chain of the newest
    ``keep_manifests`` manifests, on either layout (a full-layout
    chain is the pid's one file). Returns {kept, deleted} counts.
    A delta store collects nothing until compact_state commits a base
    generation: the chains reset there, and the covered delta files
    fall out of the kept window.

    Files from epochs NEWER than the latest committed manifest belong to
    an in-flight (not-yet-committed) epoch — deleting them between
    MergeWithState's partition writes and commit_epoch would commit a
    manifest pointing at deleted files, so they are always kept."""
    from cosmwasm_etl_ray.state.delta import partition_chains

    epochs = store.committed_epochs()
    latest = epochs[-1] if epochs else -1
    referenced: set[str] = set()
    for e in epochs[-keep_manifests:]:
        for chain in partition_chains(store, e).values():
            referenced.update(chain)

    all_files = glob.glob(os.path.join(store.state_dir, "epoch=*", "*.parquet"))
    deleted = 0
    for f in all_files:
        try:
            file_epoch = int(f.split("epoch=")[1].split(os.sep)[0])
        except (IndexError, ValueError):
            continue
        if f not in referenced and file_epoch <= latest:
            os.remove(f)
            deleted += 1
    # drop now-empty epoch dirs
    for d in glob.glob(os.path.join(store.state_dir, "epoch=*")):
        if not os.listdir(d):
            os.rmdir(d)
    return {"kept": len(referenced), "deleted": deleted}


def bootstrap_store(
    state_df: pd.DataFrame,
    store,
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> dict:
    """Seed a fresh store's epoch 0 from a current-state table
    (columns: repo, path, commit, lang, content, ...). Rows are applied
    as insert events through the NORMAL apply path, so partitioning,
    state layout and manifest shape are identical to a replayed store —
    subsequent epochs replay on top seamlessly."""
    if store.latest_epoch() is not None:
        raise ValueError("bootstrap requires an empty store")
    events = state_df.copy()
    events["op"] = "insert"
    ds = ray.data.from_pandas(events.reset_index(drop=True))
    return apply_epoch(
        ds,
        store,
        epoch=0,
        cfg=cfg,
        offset_range=("bootstrap", "bootstrap"),
        input_rows=len(events),
    )
