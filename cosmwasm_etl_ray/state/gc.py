"""State GC + checkpoint bootstrap.

- ``gc_state``: lineage-aware garbage collection. Copy-on-write leaves
  superseded partition files in older ``epoch=`` directories; GC keeps
  every file referenced by the last ``keep_manifests`` manifests and
  deletes the rest. Manifests themselves are kept (tiny, they ARE the
  lineage). The graft of the aggregator's truncate lever being safe to
  run anytime (D4).
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
    """Delete state partition files not referenced by the newest
    ``keep_manifests`` manifests. Returns {kept, deleted} counts.
    Delta-layout stores retain the latest chains only, so they accept
    ``keep_manifests=1`` alone and raise otherwise.

    Files from epochs NEWER than the latest committed manifest belong to
    an in-flight (not-yet-committed) epoch — deleting them between
    MergeWithState's partition writes and commit_epoch would commit a
    manifest pointing at deleted files, so they are always kept."""
    from cosmwasm_etl_ray.state.delta import partition_chains, store_layout

    delta = store_layout(store) == "delta"
    if delta and keep_manifests != 1:
        raise ValueError(
            "gc_state on a delta-layout store keeps the latest chains "
            f"only; keep_manifests={keep_manifests} would promise "
            "time-travel reads of older epochs whose delta files this "
            "sweep deletes — call with keep_manifests=1"
        )
    epochs = store.committed_epochs()
    latest = epochs[-1] if epochs else -1
    referenced: set[str] = set()
    if delta:
        # delta layout: EVERY file in every live chain is state — the
        # latest manifest's per-pid file is just the newest link.
        # Before compaction nothing is collectable; after
        # compact_state commits a base generation the chains reset
        # there, and the covered delta files fall out of `referenced`.
        for chain in partition_chains(store).values():
            referenced.update(chain)
    else:
        for e in epochs[-keep_manifests:]:
            referenced.update(store.partition_files(e).values())

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
