"""State GC + checkpoint bootstrap.

- ``gc_state``: lineage-aware garbage collection. Every fold of a
  pid's chain into a new base (stages/merge.appends) leaves the
  superseded base and the links it covered in older ``epoch=``
  directories; GC keeps every file in a chain of the last
  ``keep_manifests`` manifests and deletes the rest. Derived tasks
  that read older state (the price task) refuse a catch-up behind the
  kept window (``require_chains``) instead of failing mid-run.
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
from cosmwasm_etl_ray.state import durable


def gc_state(store, keep_manifests: int = 1) -> dict:
    """Delete state files not in any chain of the newest
    ``keep_manifests`` manifests. Returns {kept, deleted} counts.
    A pid's appended links stay until a fold writes its next base;
    then they fall out of the kept window with the old base.

    Files from epochs NEWER than the latest committed manifest belong to
    an in-flight (not-yet-committed) epoch — deleting them between
    MergeWithState's partition writes and commit_epoch would commit a
    manifest pointing at deleted files, so they are always kept. In the
    state and quarantine dirs of the other epochs, the tmps of dead
    writers (durable.sweep) and then the emptied dirs go too, and so do
    the dead writers' manifest tmps; the deleted count includes those
    tmps."""
    from cosmwasm_etl_ray.state.delta import partition_chains

    epochs = store.committed_epochs()
    latest = epochs[-1] if epochs else -1
    referenced: set[str] = set()
    for e in epochs[-keep_manifests:]:
        for chain in partition_chains(store, e).values():
            referenced.update(chain)

    def settled(root: str) -> list[str]:
        dirs = glob.glob(os.path.join(root, "epoch=*"))
        return [d for d in dirs if (e := d.rsplit("=", 1)[1]).isdigit() and int(e) <= latest]

    deleted = 0
    for d in settled(store.state_dir):
        for f in glob.glob(os.path.join(d, "*.parquet")):
            if f not in referenced:
                os.remove(f)
                deleted += 1
    # a crashed writer's tmps, then the epoch dirs left empty; the
    # manifest dir's too, but that dir stays (only StateStore() makes it)
    deleted += durable.sweep(settled(store.state_dir) + settled(store.quarantine_dir))
    deleted += durable.sweep([store.manifest_dir], keep_dirs=True)
    return {"kept": len(referenced), "deleted": deleted}


def require_chains(store, epochs) -> None:
    """Refuse a reader of the state as of ``epochs`` that gc_state
    already swept: raises ValueError naming the first such epoch."""
    from cosmwasm_etl_ray.state.delta import partition_chains

    for e in epochs:
        for chain in partition_chains(store, e).values():
            gone = next((f for f in chain if not os.path.exists(f)), None)
            if gone is not None:
                raise ValueError(
                    f"the state as of epoch {e} is gone ({gone}): gc_state "
                    "kept fewer manifests than this catch-up reads — run the "
                    "derived tasks before gc_state, or raise its keep_manifests"
                )


def bootstrap_store(
    state_df: pd.DataFrame,
    store,
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> dict:
    """Seed a fresh store's epoch 0 from a current-state table
    (columns: repo, path, commit, lang, content, ...). Rows are applied
    as insert events through the NORMAL apply path, so partitioning,
    write policy and manifest shape are identical to a replayed store —
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
