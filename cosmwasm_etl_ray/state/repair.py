"""Checkpoint diff-and-repair — the A11 graft.

The reference's checkpoint builder diffs a trusted snapshot against the
replayed sums and synthesizes CLASSIFIED repair transactions that flow
through the normal apply path
(/root/reference/parser/checkpoint/builder.go:76-259): missing state →
provide-like inserts, stale state → swap-like adjustments, surplus →
withdraw-like removals, each at the checkpoint height so normal replay
continues on top.

Here: a distributed full-outer key diff of replayed state vs the
snapshot (tagged union → key-hash shards → vectorized merge per shard,
the J7 shape — the full key space never lands on the driver; only the
DIFF does, and a diff bounded by actual corruption is small by
definition), classified insert / update / delete, stamped with one
repair commit greater than every existing commit, and applied through
``apply_epoch`` as a regular epoch — so the repair is atomic,
idempotent, manifest-tracked, and later replay continues on top of it.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray
import ray.data

from cosmwasm_etl_ray.config import DEFAULT_CONFIG, EngineConfig
from cosmwasm_etl_ray.functions.agg import sharded_map_groups
from cosmwasm_etl_ray.pipelines.replay import apply_epoch, read_state
from cosmwasm_etl_ray.sources.changes import COMMIT_WIDTH
from cosmwasm_etl_ray.stages.merge import OP_COL
from cosmwasm_etl_ray.state.delta import map_chains, partition_slices, slices_schema

KEY = ["repo", "path"]


def _max_commit(t: "pa.Table") -> "pa.Table":
    """One reader task's numeric max commit, tombstones included (null
    when its chains hold no numeric commit)."""
    m = pd.to_numeric(t["commit"].to_pandas(), errors="coerce").max()
    return pa.table({"m": pa.array([None if pd.isna(m) else int(m)], pa.int64())})


def diff_state_vs_snapshot(
    store, snapshot: "ray.data.Dataset", shards: int = 32
) -> pd.DataFrame:
    """Classified key-level diff: one row per divergent key with
    ``repair_op`` ∈ insert (missing from state) / update (stale
    content) / delete (not in snapshot), carrying the snapshot's row
    for insert/update. Distributed; the returned frame is the diff
    only."""
    state = read_state(store)

    # snapshot and state schemas legitimately differ (a snapshot may
    # lack engine columns). Pad BOTH streams to the union column set
    # with typed nulls so every union block shares one schema — a
    # mixed-schema union makes group-block columns layout-dependent
    # (the events_asof_order failure mode).
    from cosmwasm_etl_ray.functions.joins import _null_series, _side_spec

    snap_names, snap_types = _side_spec(snapshot, None)
    # the state spec comes from ONE state file's parquet footer —
    # ds.schema() on the lazy read_state pipeline would execute part of
    # it (CLAUDE.md), only to be re-executed by the union below
    chain = next(iter(partition_slices(store).values()))
    empty_state = slices_schema(chain[:1])[0].empty_table().to_pandas()
    state_names = [c for c in empty_state.columns if c not in (OP_COL, "pid")]
    state_types = {c: empty_state.dtypes[c] for c in state_names}
    all_cols = list(dict.fromkeys(list(snap_names) + list(state_names)))
    all_types = {**state_types, **snap_types}

    def tag(side: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            for c in all_cols:
                if c not in df.columns:
                    df[c] = _null_series(df.index, all_types.get(c))
            df["_side"] = side
            return df[all_cols + ["_side"]]

        return fn

    unioned = snapshot.map_batches(tag("S"), batch_format="pandas").union(
        state.map_batches(tag("T"), batch_format="pandas")
    )

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        snap = g[g["_side"] == "S"].drop(columns=["_side"])
        st = g[g["_side"] == "T"].drop(columns=["_side"])
        m = snap.merge(
            st[KEY + ["content"]],
            on=KEY,
            how="outer",
            suffixes=("", "_state"),
            indicator=True,
        )
        missing = m["_merge"] == "left_only"
        extra = m["_merge"] == "right_only"
        stale = (m["_merge"] == "both") & (m["content"] != m["content_state"])
        out = m[missing | extra | stale].copy()
        out["repair_op"] = "update"
        out.loc[missing, "repair_op"] = "insert"
        out.loc[extra, "repair_op"] = "delete"
        return out.drop(columns=["_merge", "content_state"])

    diff = sharded_map_groups(unioned, KEY, per_shard, shards=shards).to_pandas()
    if diff.empty:
        return pd.DataFrame(columns=KEY + ["repair_op"])
    return diff.reset_index(drop=True)


def diff_and_repair(
    store,
    snapshot: "ray.data.Dataset | pd.DataFrame",
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> dict:
    """Diff, synthesize repair events, apply them through the NORMAL
    epoch path. Returns counts + the repair epoch (or epoch None when
    state already matches). Reconvergence: after repair,
    read_state == snapshot for every key (asserted in tests)."""
    if isinstance(snapshot, pd.DataFrame):
        snapshot_ds = ray.data.from_pandas(snapshot.reset_index(drop=True))
    else:
        snapshot_ds = snapshot

    diff = diff_state_vs_snapshot(store, snapshot_ds)
    counts = {
        "n_insert": int((diff["repair_op"] == "insert").sum()) if len(diff) else 0,
        "n_update": int((diff["repair_op"] == "update").sum()) if len(diff) else 0,
        "n_delete": int((diff["repair_op"] == "delete").sum()) if len(diff) else 0,
        "epoch": None,
    }
    if diff.empty:
        return counts

    # one repair commit above everything on either side — the
    # checkpoint-height analogue; LWW makes the repair rows win. The
    # max must include TOMBSTONES (read_state drops them, but a
    # tombstone's commit still participates in the LWW fold — a repair
    # insert stamped below a live tombstone would lose and the store
    # would never reconverge), so scan the folded chains WITH their
    # tombstones, pruned to the commit column; compare NUMERICALLY,
    # never lexicographic (a caller-supplied snapshot may carry
    # unpadded commits).
    chains = partition_slices(store)
    maxes = [
        ray.get(r)["m"].to_pandas()
        for _, r in map_chains(
            {p: (c,) for p, c in chains.items()}, _max_commit, columns=["commit"]
        )
    ]
    raw_max = pd.concat(maxes) if maxes else pd.Series(dtype="Int64")
    max_state = int(raw_max.max()) if raw_max.notna().any() else 0
    snap_commits = pd.to_numeric(
        diff.get("commit", pd.Series(dtype="object")), errors="coerce"
    )
    max_snap = int(snap_commits.max()) if snap_commits.notna().any() else 0
    next_commit = max(max_state, max_snap) + 1
    if len(str(next_commit)) > COMMIT_WIDTH:
        # a wider commit would break lexicographic==numeric ordering
        raise ValueError(
            f"repair commit {next_commit} exceeds COMMIT_WIDTH={COMMIT_WIDTH}"
        )
    repair_commit = str(next_commit).zfill(COMMIT_WIDTH)

    events = diff.rename(columns={"repair_op": "op"}).copy()
    events["commit"] = repair_commit
    for col in ("lang", "content"):
        if col in events.columns:
            events[col] = events[col].fillna("")
    drop = [c for c in events.columns if c.startswith("_")]
    events = events.drop(columns=drop)

    epoch = (store.latest_epoch() or 0) + 1
    apply_epoch(
        ray.data.from_pandas(events.reset_index(drop=True)),
        store,
        epoch,
        cfg,
        offset_range=("repair", "repair"),
        input_rows=len(events),
    )
    counts["epoch"] = epoch
    return counts
