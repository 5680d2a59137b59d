"""Validation: replayed state vs an independent batch recompute.

Graft of the reference's periodic validation
(/root/reference/parser/dex/dex.go:537-602): there, replayed pool sums
are compared against source snapshots with an exception anti-join; here
the incremental merge state is compared against a DIFFERENT code path —
a direct one-shot groupby fold over the raw committed offset range —
so a bug in the incremental path (carry-over, manifest, salting) cannot
hide. The comparison is a full-outer diff by key (J7), exceptions
excluded via a broadcast set (ST2).
"""

from __future__ import annotations

import hashlib
import os

import pandas as pd

import ray.data

from cosmwasm_etl_ray.config import EngineConfig
from cosmwasm_etl_ray.pipelines.replay import read_state
from cosmwasm_etl_ray.stages.normalize import FlagAndPartition
from cosmwasm_etl_ray.state import durable


def _content_hash(s: pd.Series) -> pd.Series:
    return s.fillna("").map(lambda v: hashlib.sha256(v.encode()).hexdigest())


def independent_state(files: list[str], cfg: EngineConfig) -> "ray.data.Dataset":
    """One-shot batch recompute of final state from the raw log —
    deliberately NOT using the incremental fold: per key, the row with
    max commit via pandas idxmax (ties resolve to first occurrence, a
    different tiebreak code path than the fold). Coarse-sharded by key
    hash — one vectorized idxmax per shard, not a task per key."""
    from cosmwasm_etl_ray.functions.agg import sharded_map_groups

    ds = ray.data.read_parquet(files)
    flagged = ds.map_batches(
        # same ruleset as the incremental path — a custom RuleSet
        # (EngineConfig.rules) must classify/rewrite identically here,
        # or every rule-rewritten key reports as a mismatch on a
        # healthy store
        FlagAndPartition(cfg.num_partitions, ruleset=cfg.rules),
        batch_format="pyarrow",
    )

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        out_cols = [c for c in g.columns if c not in ("valid", "pid", "op")]
        g = g[g["valid"]]
        if g.empty:
            # keep the non-empty branch's exact column set — a
            # zero-column frame makes block schemas layout-dependent
            return g[out_cols]
        idx = g.groupby(["repo", "path"], sort=False)["commit"].idxmax()
        last = g.loc[idx]
        last = last[last["op"] != "delete"]
        return last.drop(columns=["valid", "pid", "op"])

    return sharded_map_groups(flagged, ["repo", "path"], per_shard)


def validate_store(
    store,
    files: list[str],
    cfg: EngineConfig,
    exceptions: set[tuple[str, str]] | None = None,
) -> pd.DataFrame:
    """Full-outer diff of incremental state vs independent recompute,
    DISTRIBUTED: both sides hash their content per batch, flow as a
    tagged union sharded by key, and each shard emits only its
    mismatch rows (exception keys anti-joined in the shard via the
    broadcast set, ST2). Only the mismatch set — empty on a valid
    store — ever reaches the driver."""
    exceptions = exceptions or set()

    def prep(side: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            out = df[["repo", "path", "commit"]].copy()
            out["content_sha"] = _content_hash(df["content"])
            out["_side"] = side
            return out

        return fn

    unioned = read_state(store).map_batches(
        prep("state"), batch_format="pandas"
    ).union(
        independent_state(files, cfg).map_batches(prep("src"), batch_format="pandas")
    )

    def diff_shard(g: pd.DataFrame) -> pd.DataFrame:
        eng = g[g["_side"] == "state"].drop(columns=["_side"])
        ind = g[g["_side"] == "src"].drop(columns=["_side"])
        m = eng.merge(
            ind,
            on=["repo", "path"],
            how="outer",
            suffixes=("_state", "_src"),
            indicator=True,
        )
        bad = m[
            (m["_merge"] != "both")
            | (m["commit_state"] != m["commit_src"])
            | (m["content_sha_state"] != m["content_sha_src"])
        ].copy()
        if exceptions and len(bad):
            # vectorized key-set anti-join (MultiIndex isin) — no
            # per-row tuple apply on an unbounded mismatch frame
            exc_idx = pd.MultiIndex.from_tuples(sorted(exceptions))
            bad = bad[~pd.MultiIndex.from_frame(bad[["repo", "path"]]).isin(exc_idx)]
        bad["presence"] = bad["_merge"].astype(str)
        return bad.drop(columns=["_merge"])

    from cosmwasm_etl_ray.functions.agg import sharded_map_groups

    out = sharded_map_groups(unioned, ["repo", "path"], diff_shard).to_pandas()
    if out.empty:
        return pd.DataFrame(
            columns=["repo", "path", "commit_state", "content_sha_state",
                     "commit_src", "content_sha_src", "presence"]
        )
    return out.reset_index(drop=True)


def exceptions_path(store) -> str:
    return os.path.join(store.root, "validation_exceptions.parquet")


def load_exceptions(store) -> set[tuple[str, str]]:
    """The persisted exception key set (ST2's durable source)."""
    p = exceptions_path(store)
    if not os.path.exists(p):
        return set()
    df = pd.read_parquet(p)
    return set(zip(df["repo"], df["path"]))


def append_exceptions(
    store, bad: pd.DataFrame, reason: str = "validation_mismatch"
) -> int:
    """Append flagged keys to the durable exception table (the
    reference appends mismatched tokens so later validations skip them
    until an operator resolves — /root/reference/parser/dex/dex.go:669-689).
    Idempotent: existing keys are not duplicated; tmp+rename commit.
    Returns the number of NEW exception keys."""
    if bad.empty:
        return 0
    new = bad[["repo", "path"]].drop_duplicates().copy()
    new["reason"] = reason
    p = exceptions_path(store)
    if os.path.exists(p):
        cur = pd.read_parquet(p)
        have = pd.MultiIndex.from_frame(cur[["repo", "path"]])
        new = new[~pd.MultiIndex.from_frame(new[["repo", "path"]]).isin(have)]
        if new.empty:
            return 0
        allrows = pd.concat([cur, new], ignore_index=True)
    else:
        allrows = new
    durable.write(p, lambda tmp: allrows.to_parquet(tmp, index=False))
    return len(new)


def validate_and_except(
    store, files: list[str], cfg: EngineConfig
) -> tuple[pd.DataFrame, int]:
    """One validation pass with the full exception flow: consume the
    persisted exception set, diff, and append every NEW mismatch key to
    the exception table — the next pass reports clean on those keys
    (the operator resolves or repairs them out-of-band). Returns
    (mismatch frame, number of newly excepted keys)."""
    bad = validate_store(store, files, cfg, exceptions=load_exceptions(store))
    n_new = append_exceptions(store, bad)
    return bad, n_new


def snapshot_state(store, epoch: int | None = None) -> str:
    """Persist a per-repo aggregate snapshot of the current state (the
    PoolInfo-snapshot analogue used for later validation / bootstrap)."""
    state = read_state(store, epoch)

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "repo": [df["repo"].iloc[0]],
                "live_paths": [len(df)],
                "total_chars": [int(df["content"].str.len().sum())],
                "max_commit": [df["commit"].max()],
            }
        )

    snap = state.groupby("repo").map_groups(agg, batch_format="pandas").to_pandas()
    if snap.empty:
        # empty store: to_pandas() on an all-empty Dataset is
        # COLUMN-LESS — restore the schema WITH the non-empty dtypes
        # (all-object columns would write null-typed parquet, the
        # per-block schema-drift hazard)
        snap = pd.DataFrame(
            {
                "repo": pd.Series(dtype="object"),
                "live_paths": pd.Series(dtype="int64"),
                "total_chars": pd.Series(dtype="int64"),
                "max_commit": pd.Series(dtype="object"),
            }
        )
    e = epoch if epoch is not None else store.latest_epoch()
    out = store.snapshot_path(e if e is not None else 0)
    snap = snap.sort_values("repo")
    durable.write(out, lambda tmp: snap.to_parquet(tmp, index=False))
    return out
