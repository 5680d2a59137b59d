"""Distributed joins for Ray Data — the engine's J-operators (SURVEY §2.4).

Three strategies, chosen by side size (the reference always joins in
SQL; here the physical plan is explicit):

- ``broadcast_join``: small side is materialized once, shipped via
  ``ray.put`` and merged per batch inside map_batches — no shuffle
  (J1/J3/J9 pattern: dimension lookups).
- ``hash_join``: both sides large. Each side's blocks split by
  ``bucket = hash(key) % B`` in raw tasks, one raw task per bucket
  pandas-merges its two sides — ONE exchange total, the partitioned
  hash join (J2 pattern).
- ``asof_join_groups``: sort-within-key + pandas merge_asof per group
  (J4/J5 as-of price join pattern).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from cosmwasm_etl_ray.compat import cached_remote, task_cap
from cosmwasm_etl_ray.functions.hashing import stable_hash64


def broadcast_join(
    large: "ray.data.Dataset",
    small_df: pd.DataFrame,
    on: list[str] | str,
    how: str = "inner",
) -> "ray.data.Dataset":
    """Merge a driver-resident small side into every batch of the large
    side. The small frame is put in the object store ONCE; each task
    reads the shared copy (zero re-ship per batch)."""
    ref = ray.put(small_df)
    on = [on] if isinstance(on, str) else on

    class Joiner:
        def __init__(self):
            self.small = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            return batch.merge(self.small, on=on, how=how)

    return large.map_batches(Joiner, batch_format="pandas", concurrency=(1, 8))


def _merge_sides(
    lhs: pd.DataFrame,
    rhs: pd.DataFrame,
    on: list[str],
    how: str,
    suffixes: tuple[str, str],
    right_names: list[str],
    right_types: dict,
    left_fold,
    right_fold,
) -> pd.DataFrame:
    """One bucket's merge: the optional per-side folds, then a pandas
    merge (or the typed left-join padding for an empty right side)."""
    if right_fold is not None and not rhs.empty:
        rhs = right_fold(rhs)
    if left_fold is not None and not lhs.empty:
        lhs = left_fold(lhs)
    if lhs.empty:
        return pd.DataFrame()
    if rhs.empty:
        if how == "inner":
            return pd.DataFrame()
        if how == "left":
            # pad right columns with pandas-merge suffix semantics:
            # a name on both sides becomes x_l/x_r here too, so
            # empty and non-empty buckets emit ONE schema and left
            # data is never silently overwritten by the padding.
            # TYPED nulls, not bare np.nan — a float64 pad on a string
            # column would make this bucket's block schema diverge
            # from the non-empty buckets' (the mixed-schema hazard)
            overlap = (set(right_names) & set(lhs.columns)) - set(on)
            lhs = lhs.rename(columns={c: c + suffixes[0] for c in overlap})
            for c in right_names:
                if c not in on:
                    out_c = c + suffixes[1] if c in overlap else c
                    lhs[out_c] = _null_series(lhs.index, right_types.get(c))
            return _stabilize_left_pad(
                lhs, on, suffixes, right_names, right_types
            )
        raise NotImplementedError(f"hash_join how={how!r} on empty side")
    out = lhs.merge(rhs, on=on, how=how, suffixes=suffixes)
    if how == "left":
        # unmatched rows NaN-widen declared-int right columns to
        # float64 — but only in buckets that HAVE unmatched rows, so
        # per-bucket block schemas drift (int64 vs double: the exact
        # mixed-schema hazard that made events_asof_order flaky).
        # Normalize to pandas nullable ints → ONE Arrow schema
        # (int64 with nulls) from every bucket.
        out = _stabilize_left_pad(out, on, suffixes, right_names, right_types)
    return out


_NULLABLE = {"i": "Int64", "u": "UInt64", "b": "boolean"}


def _stabilize_left_pad(
    out: pd.DataFrame, on, suffixes, right_names, right_types
) -> pd.DataFrame:
    """Cast NaN-padded right-side value columns of a left join to the
    nullable dtype matching their DECLARED dtype, so matched-only,
    partially-matched, and empty-right buckets all emit one schema."""
    for c in right_names:
        if c in on:
            continue
        out_c = c if c in out.columns else c + suffixes[1]
        if out_c not in out.columns:
            continue
        try:
            kind = pd.api.types.pandas_dtype(right_types.get(c)).kind
        except TypeError:
            continue
        want = _NULLABLE.get(kind)
        if want and str(out[out_c].dtype) != want:
            try:
                out[out_c] = out[out_c].astype(want)
            except (ValueError, TypeError):
                pass  # non-integral floats keep the wide dtype
    return out


# ------------------------------------------------------------- hash join


def _as_table(b):
    """Ray blocks are pa.Table OR pd.DataFrame depending on how the
    upstream produced them — normalize to Arrow."""
    if isinstance(b, pd.DataFrame):
        return pa.Table.from_pandas(b, preserve_index=False)
    return b


def from_pandas_stable(df: pd.DataFrame) -> pa.Table:
    """pandas → Arrow with null-typed columns pinned to string: an
    object column that is all-None in THIS block (e.g. a LAG/as-of
    lookup shard where no key repeats) infers `null` where every other
    block infers `string`, and per-block schema drift is the
    mixed-schema hazard. Repo convention: object-dtype nulls ARE
    string nulls (numeric nulls ride float64 NaN), so the cast is the
    declared intent."""
    t = pa.Table.from_pandas(df, preserve_index=False)
    for i, f in enumerate(t.schema):
        if pa.types.is_null(f.type):
            t = t.set_column(
                i, pa.field(f.name, pa.string()), t.column(i).cast(pa.string())
            )
    return t


def _hj_split_blocks(B: int, on: list[str], names: list[str] | None, *blocks):
    """Raw task: concat a run of one side's blocks, project to the
    side's declared columns, bucket by the canonical key hash, split
    (num_returns=B; None for empty)."""
    from cosmwasm_etl_ray.functions.hashing import split_table_by_shard

    tabs = [t for t in (_as_table(b) for b in blocks if b is not None) if t.num_rows]
    if not tabs:
        return None if B == 1 else tuple([None] * B)
    t = pa.concat_tables(tabs, promote_options="default")
    if names:
        t = t.select([c for c in names if c in t.column_names])
    if B == 1:
        return t
    cols = [_canon_key_str(t[c]) for c in on]
    bucket = (stable_hash64(*cols) % np.uint64(B)).astype(np.int32)
    return split_table_by_shard(t, bucket, B)


def _hj_join_bucket(
    n_left: int, on, how, suffixes, right_names, right_types,
    left_fold, right_fold, *splits,
):
    """Raw task: merge one bucket's left and right splits. Sides never
    union here, so each keeps its own dtypes end-to-end. Returns
    (n_rows, table) as two objects so the driver can keep the table in
    the object store and fetch only the count."""
    lt = [t for t in splits[:n_left] if t is not None]
    rt = [t for t in splits[n_left:] if t is not None]
    lhs = (
        pa.concat_tables(lt, promote_options="default").to_pandas()
        if lt
        else pd.DataFrame()
    )
    rhs = (
        pa.concat_tables(rt, promote_options="default").to_pandas()
        if rt
        else pd.DataFrame()
    )
    out = _merge_sides(
        lhs, rhs, on, how, suffixes, right_names, right_types,
        left_fold, right_fold,
    )
    if out is None or not len(out):
        return 0, None
    return len(out), from_pandas_stable(out)


def _drain_block_refs(ds: "ray.data.Dataset") -> list:
    """Execute a Dataset and collect its block ObjectRefs (refs only —
    blocks stay in the object store)."""
    refs = []
    for bundle in ds.iter_internal_ref_bundles():
        refs.extend([br[0] for br in bundle.blocks])
    return refs


def hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: list[str] | str,
    num_buckets: int = 32,
    how: str = "inner",
    suffixes: tuple[str, str] = ("_l", "_r"),
    right_fold=None,
    left_fold=None,
    left_cols: list[str] | None = None,
    right_cols: list[str] | None = None,
) -> "ray.data.Dataset":
    """Partitioned hash join. Skewed keys should be pre-aggregated or
    salted by the caller; the bucket count B is independent of cluster
    size.

    Each side's blocks are drained on the driver (refs only) and split
    by key-hash bucket with raw tasks (num_returns=B); one raw task per
    bucket merges its splits — no tagged union, no groupby shuffle, no
    executor ramp, and each side keeps its own dtypes.

    ``right_fold(df) -> df`` / ``left_fold(df) -> df``, if given,
    reduce that side's rows inside each bucket before the merge.
    Because every row of a key lands in that key's bucket, a per-key
    fold here is a GLOBAL fold — the final-reduce half of a map-side
    partial aggregation (pre-agg per batch upstream, fold the partials
    per bucket here), or a global dedup of the probe side, without a
    second shuffle.
    """
    on = [on] if isinstance(on, str) else on
    B = num_buckets
    # project each side to its declared columns inside the split tasks
    left_names = list(left_cols) if left_cols is not None else None
    right_names = list(right_cols) if right_cols is not None else None
    pad_names = right_names
    pad_types: dict = dict(right_cols) if isinstance(right_cols, dict) else {}
    if pad_names is None:
        # only the left-join empty-bucket padding needs the right spec
        if how == "left":
            pad_names, pad_types = _side_spec(right, right_cols)
        else:
            pad_names = []

    split = cached_remote(("hj_split", B), _hj_split_blocks, num_returns=B)
    joinb = cached_remote("hj_join", _hj_join_bucket, num_returns=2)

    # drain BOTH upstream pipelines concurrently (each side executes
    # on its own thread; serial drains would make the join's wall time
    # the SUM of two independent scans)
    from concurrent.futures import ThreadPoolExecutor

    from cosmwasm_etl_ray.compat import ensure_thread_safe_lazy_imports

    ensure_thread_safe_lazy_imports()
    with ThreadPoolExecutor(max_workers=2) as pool:
        lblocks_f = pool.submit(_drain_block_refs, left)
        rblocks_f = pool.submit(_drain_block_refs, right)
        side_blocks = [lblocks_f.result(), rblocks_f.result()]

    per_bucket: list[list] = [[] for _ in range(B)]
    for side_idx, blocks in enumerate(side_blocks):
        # bound in-flight refs: split tasks × B ≤ ~4k per side (the
        # raylet degrades past ~4k small objects, same bound as the
        # replay's direct exchange)
        n_tasks = max(1, min(len(blocks), task_cap(), max(1, 4096 // B)))
        names = left_names if side_idx == 0 else right_names
        chunks = np.array_split(np.arange(len(blocks)), n_tasks) if blocks else []
        for idx in chunks:
            if not len(idx):
                continue
            refs = split.remote(B, on, names, *[blocks[i] for i in idx])
            if B == 1:
                refs = [refs]
            for b, r in enumerate(refs):
                per_bucket[b].append((side_idx, r))

    count_refs, table_refs = [], []
    for b in range(B):
        entries = per_bucket[b]
        lrefs = [r for s, r in entries if s == 0]
        rrefs = [r for s, r in entries if s == 1]
        if not lrefs:  # no left rows can ever reach this bucket
            continue
        if how == "inner" and not rrefs:
            continue
        nref, tref = joinb.remote(
            len(lrefs), on, how, suffixes, pad_names, pad_types,
            left_fold, right_fold, *lrefs, *rrefs,
        )
        count_refs.append(nref)
        table_refs.append(tref)
    counts = ray.get(count_refs)  # ints only — tables stay remote
    keep = [t for n, t in zip(counts, table_refs) if n]
    if not keep:
        return ray.data.from_pandas(pd.DataFrame())
    return ray.data.from_arrow_refs(keep)


def _side_spec(ds, cols) -> tuple[list[str], dict]:
    """One join side's (column names, pandas dtype map). ``cols`` may be
    a dict name→dtype (explicit, no schema fetch), a list of names
    (explicit names, no dtype restore), or None (derive both from the
    dataset schema)."""
    if isinstance(cols, dict):
        return list(cols), dict(cols)
    if cols is not None:
        return list(cols), {}
    sch = ds.schema()
    base = getattr(sch, "base_schema", None)
    if isinstance(base, pa.Schema):
        empty = base.empty_table().to_pandas()
        return list(empty.columns), {c: empty.dtypes[c] for c in empty.columns}
    names = list(sch.names)
    types = list(getattr(sch, "types", []) or [])
    return names, dict(zip(names, types))


def _null_series(index, dtype) -> pd.Series:
    """Typed null padding for union-schema alignment: numeric → float64
    NaN (int64 can't hold nulls), datetime → NaT with the declared
    unit, everything else → object None (Arrow null, concat-promoted)."""
    try:
        kind = pd.api.types.pandas_dtype(dtype).kind if dtype is not None else "O"
    except TypeError:
        kind = "O"
    if kind in "iuf":
        return pd.Series(np.nan, index=index, dtype="float64")
    if kind in "Mm":
        return pd.Series(pd.NaT, index=index, dtype=dtype)
    return pd.Series([None] * len(index), index=index, dtype="object")


def _canon_key_str(col: "pa.ChunkedArray") -> np.ndarray:
    """Key column → canonical string array for bucket hashing: integral
    float columns (a null-padding artifact) hash like their int64
    values, so both sides of a join bucket identically even when one
    side's key dtype was widened upstream."""
    a = np.asarray(col.to_numpy(zero_copy_only=False))
    if a.dtype.kind == "f":
        ints = a.astype(np.int64)
        if np.array_equal(ints.astype(a.dtype), a):
            a = ints
    return a.astype("U")


def asof_join_groups(
    events: "ray.data.Dataset",
    key: str,
    ts_col: str,
    fn,
    shards: int = 64,
) -> "ray.data.Dataset":
    """Per-key ordered processing: shard by key hash (a key's rows land
    in exactly one shard), sort by (key, ts) inside the shard, apply fn
    per key. The per-key ordering contract mirrors the reference's
    as-of price search (/root/reference/aggregator/task.go:558-578).
    Coarse shards, not one task per key — ``fn`` is arbitrary per-key
    code, so the per-key loop is unavoidable, but it runs inside
    ~shards tasks instead of paying task + frame overhead per key."""
    from cosmwasm_etl_ray.functions.agg import sharded_map_groups

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col], kind="stable")
        outs = [fn(grp) for _, grp in g.groupby(key, sort=False)]
        return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame()

    return sharded_map_groups(events, [key], per_shard, shards=shards)


# ------------------------------------------------------------ range join

def range_join(
    intervals: "ray.data.Dataset",
    points: "ray.data.Dataset",
    on: list[str] | str,
    start_col: str,
    end_col: str,
    ts_col: str,
    width: int,
    left_cols=None,
    right_cols=None,
    num_buckets: int = 32,
) -> "ray.data.Dataset":
    """Interval × point range join (ts in [start, end], inclusive;
    integer time units — strict bounds are the caller's ±1 shift).

    Plan: with ``width >= max(end - start)``, an interval overlaps at
    most TWO width-sized time buckets (floor(start/w) and floor(end/w))
    — replicate each interval row to its one or two buckets, tag each
    point with its single bucket, then ONE partitioned hash join on
    (keys..., bucket) followed by the exact containment filter. A
    matching pair co-occurs in exactly the point's bucket and the
    interval's replicas land in distinct buckets, so no pair ever
    duplicates. Replication factor <= 2 regardless of data; the join
    never sees cross-bucket candidates — this is the bounded-width
    range join the Dataset API lacks, built from the same exchange as
    hash_join."""
    on = [on] if isinstance(on, str) else list(on)

    def repl(df: pd.DataFrame) -> pd.DataFrame:
        b1 = df[start_col].to_numpy() // width
        b2 = df[end_col].to_numpy() // width
        first = df.assign(_rbucket=b1.astype("int64"))
        spill = df.loc[b2 != b1].assign(
            _rbucket=b2[b2 != b1].astype("int64")
        )
        return pd.concat([first, spill], ignore_index=True)

    def tag_points(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(_rbucket=(df[ts_col].to_numpy() // width).astype("int64"))

    ints_r = intervals.map_batches(repl, batch_format="pandas")
    pts = points.map_batches(tag_points, batch_format="pandas")

    lc = dict(left_cols, _rbucket="int64") if left_cols else None
    rc = dict(right_cols, _rbucket="int64") if right_cols else None
    joined = hash_join(
        ints_r, pts, on=on + ["_rbucket"], left_cols=lc, right_cols=rc,
        num_buckets=num_buckets,
    )

    def containment(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):  # an all-empty bucket block carries no columns
            return df
        m = (df[ts_col].to_numpy() >= df[start_col].to_numpy()) & (
            df[ts_col].to_numpy() <= df[end_col].to_numpy()
        )
        return df.loc[m].drop(columns=["_rbucket"])

    return joined.map_batches(containment, batch_format="pandas")
