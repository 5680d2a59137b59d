"""Quarantine replay: deterministic re-parse of dead-letter rows.

Graft of the reference's quarantine lifecycle
(/root/reference/parser/dex/dex.go:282-320,
/root/reference/parser/dex/repo/repository.go:234-330): pending rows
are read back in deterministic order, optionally repaired, re-fed
through the SAME apply path as a fresh epoch, and marked resolved
atomically (directory rename) only after that epoch commits — re-runs
are idempotent exactly like normal epochs.
"""

from __future__ import annotations

import glob
import os

import pandas as pd

import ray.data

from cosmwasm_etl_ray.config import EngineConfig
from cosmwasm_etl_ray.pipelines.replay import apply_epoch
from cosmwasm_etl_ray.state import durable


def pending_files(store) -> list[str]:
    return sorted(
        f
        for f in glob.glob(
            os.path.join(store.quarantine_dir, "epoch=*", "*.parquet")
        )
    )


def replay_quarantine(
    store,
    cfg: EngineConfig,
    fix_fn=None,
) -> dict | None:
    """Re-apply pending quarantine rows as a new epoch.

    fix_fn: DataFrame → DataFrame repair hook (e.g. fill the missing
    commit from a side channel). Rows still invalid after the fix are
    re-quarantined by the normal path. Returns the epoch manifest, or
    None when nothing is pending.
    """
    files = pending_files(store)
    if not files:
        return None

    rows = pd.concat([pd.read_parquet(f) for f in files], ignore_index=True)
    rows = rows.sort_values(["commit", "repo", "path"], kind="stable")
    rows = rows.drop(columns=[c for c in ("error", "pid", "valid") if c in rows.columns])
    if fix_fn is not None:
        rows = fix_fn(rows)

    epoch = (store.latest_epoch() or 0) + 1
    ds = ray.data.from_pandas(rows.reset_index(drop=True))
    manifest = apply_epoch(
        ds,
        store,
        epoch,
        cfg,
        offset_range=("quarantine", "quarantine"),
        input_rows=len(rows),
    )

    # mark resolved: move the source files under resolved/ atomically
    resolved_root = os.path.join(store.quarantine_dir, "resolved")
    os.makedirs(resolved_root, exist_ok=True)
    for f in files:
        rel = os.path.relpath(f, store.quarantine_dir)
        dest = os.path.join(resolved_root, rel.replace(os.sep, "__"))
        durable.commit(f, dest)
    return manifest
