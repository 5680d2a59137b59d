"""Keyed last-writer-wins upsert — the heart of the engine.

Graft of the reference's keyed apply: pair upsert + parsed-tx insert
committed per height (/root/reference/parser/dex/repo/repository.go:63-122)
and the ParsedTx.Override "last non-empty wins" merge
(/root/reference/parser/dex/dto.go:45-95), re-expressed as an
associative fold over Arrow tables, ONE kernel ``fold_lww_arrow``:

  fold(rows)       = max-commit row per exact (repo, path), tombstones
                     KEPT, an equal commit won by the later position
  fold(r1 ++ r2)   = fold(fold(r1) ++ fold(r2))            (associative)

Because the fold compares the ``commit`` sequence number (position
only breaks a tie, and every caller concatenates earlier input first),
the same kernel serves as:

- the COMBINER (``fold_partial_arrow``): every prep shard is pre-folded
  before the exchange, so a hot key's events collapse to one row per
  shard — skew dies before the all-to-all; quarantine rows pass through;
- the MERGE: a link folds the epoch's rows onto the pid's prior state;
- the CHAIN READ: a reader folds a pid's chain of base + appended
  links (state/delta.fold_chain), exactly (SURVEY.md §7.4 "fold by
  max-commit is associative").

Tombstones are retained in persisted state (readers filter them), so
re-applying an epoch is idempotent — the exactly-once story does not
depend on tasks running once.

Override mode (column-wise coalesce) applies the reference's
field-wise "last non-empty wins" within a key's live suffix (events
after the last tombstone); it is implemented as a per-group fold and is
NOT combined per-batch (per-column partials would need a commit vector
per column — documented limitation, config.override_coalesce).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from cosmwasm_etl_ray.state.manifest import entry_chain, entry_chain_rows

KEY_COLS = ["repo", "path"]

# State-checkpoint parquet codec. zstd-1 measured on a real 1.4M-row
# soak state partition: 99.4 MB vs snappy's 157.3 (1.58x smaller) AND
# faster to read back (0.59 vs 0.84 s) for +0.26 s parallel encode
# CPU — at 10^9-event scale the per-epoch copy-on-write rewrite is
# DISK-bound (SOAK_1B.json: 1.86 s/GB of state), so fewer bytes is
# directly faster epochs; at bench scale the state is small and the
# cost is noise (A/B in BASELINE.md round 5).
STATE_CODEC = {"compression": "zstd", "compression_level": 1}
SEQ_COL = "commit"
OP_COL = "op"
META_COLS = KEY_COLS + [SEQ_COL, OP_COL, "pid"]

# The append-or-fold policy of every state write (MergeWithState): a
# link APPENDS its own folded rows while the pid's chain stays at most
# MAX_CHAIN_LINKS files and the rows appended since the base stay under
# 1/FOLD_SHARE of the base's rows; otherwise it FOLDS the chain and the
# epoch's rows into a new base (copy-on-write). Dense epochs therefore
# always fold — the 1-CPU benchmark's workloads touch ≥ 0.29 of each
# pid's rows per epoch — while sparse ones append, which writes
# O(touched keys) instead of O(state) (SOAK_DELTA.json: 3.2× at 8%
# density) and folds every few epochs, so a read folds ≤ 4 files per
# pid and gc_state can sweep the covered links.
MAX_CHAIN_LINKS = 4
FOLD_SHARE = 4


def appends(chain_rows: list[int] | None, epoch_rows: int) -> bool:
    """The append-or-fold decision from counts the manifest already
    holds: ``chain_rows`` is the row count of each file of the pid's
    chain (base first; None when an older manifest did not record
    them, [] for a pid with no state — both fold) and ``epoch_rows``
    the epoch's rows for the pid before their fold (an upper bound of
    the link's rows, so deciding costs no extra fold)."""
    return (
        bool(chain_rows)
        and len(chain_rows) < MAX_CHAIN_LINKS
        and FOLD_SHARE * (sum(chain_rows[1:]) + epoch_rows) < chain_rows[0]
    )


def _rank(col: pa.ChunkedArray) -> tuple[np.ndarray, int]:
    """Order-preserving int64 codes of a string column: equal values
    share a code and codes sort like the values (Arrow compares UTF-8
    bytes, which is code-point order). Returns (codes, #distinct)."""
    enc = pc.dictionary_encode(col.combine_chunks(), null_encoding="encode")
    d = len(enc.dictionary)
    rank = np.empty(d, np.int64)
    rank[pc.sort_indices(enc.dictionary).to_numpy()] = np.arange(d)
    return rank[enc.indices.to_numpy(zero_copy_only=False)], d


def _lww_winners(t: pa.Table) -> np.ndarray:
    """Row indices of the LWW winners of ``t``, in (repo, path) order:
    per exact key the max-commit row, an equal commit won by the later
    input position (np.lexsort is stable)."""
    repo, _ = _rank(t["repo"])
    path, n_paths = _rank(t["path"])
    key = repo * n_paths + path
    commit = pc.cast(t["commit"], pa.int64()).to_numpy(zero_copy_only=False)
    order = np.lexsort((commit, key))
    k = key[order]
    return order[np.r_[k[1:] != k[:-1], True]]


def fold_lww_arrow(t: pa.Table) -> pa.Table:
    """THE LWW fold — the combiner's, the merge's and the chain read's:
    max-commit row per exact (repo, path) key, tombstones kept, ties on
    equal commit won by the later input position (prior state is
    concatenated before the epoch's rows, so state loses to same-commit
    re-applies). Only the key and commit columns are encoded; the wide
    content strings move in one ``take``. Output rows come out sorted
    by (repo, path) — the deterministic file order the sink wants."""
    if t.num_rows <= 1:
        return t
    return t.take(pa.array(_lww_winners(t)))


def fold_partial_arrow(t: pa.Table) -> pa.Table:
    """The prep combiner: fold_lww_arrow over the ``valid`` rows (the
    folded rows keep their input positions) while the quarantine rows
    pass through untouched, in input order — they reach the merge stage
    with their raw payload intact."""
    if t.num_rows <= 1:
        return t
    valid = t["valid"].to_numpy(zero_copy_only=False).astype(bool)
    vidx = np.nonzero(valid)[0]
    if len(vidx) == 0:
        return t
    keys = t.select(KEY_COLS + [SEQ_COL])
    if len(vidx) < t.num_rows:
        keys = keys.take(pa.array(vidx))
    keep = np.sort(np.concatenate([vidx[_lww_winners(keys)], np.nonzero(~valid)[0]]))
    return t if len(keep) == t.num_rows else t.take(pa.array(keep))


def fold_override(df: pd.DataFrame) -> pd.DataFrame:
    """Column-coalesce fold (Override semantics) with tombstone barrier.

    Per key: discard events up to and including the last delete; the
    surviving suffix folds column-wise "last non-empty wins". Keys whose
    last event is a delete yield their tombstone row (state keeps it).
    """
    if df.empty:
        return df
    df = df.sort_values(SEQ_COL, kind="stable").reset_index(drop=True)
    pos = np.arange(len(df))
    is_del = df[OP_COL].to_numpy() == "delete"
    delpos = np.where(is_del, pos, -1)
    g = pd.Series(delpos).groupby([df[c] for c in KEY_COLS], sort=False)
    last_del = g.transform("max").to_numpy()
    live = df[pos > last_del]

    value_cols = [c for c in df.columns if c not in META_COLS]
    out_parts = []
    if not live.empty:
        lv = live.copy()
        # '' counts as "no value" (Override non-empty wins)
        for c in value_cols:
            lv[c] = lv[c].replace("", np.nan)
        gb = lv.groupby(KEY_COLS, sort=False, dropna=False)
        folded = gb.last()  # column-wise last non-null
        folded[SEQ_COL] = gb[SEQ_COL].last()
        folded[OP_COL] = gb[OP_COL].last()
        if "pid" in lv.columns:
            folded["pid"] = gb["pid"].last()
        out_parts.append(folded.reset_index())
    # tombstones for keys with no live suffix
    dead = df[is_del].drop_duplicates(KEY_COLS, keep="last")
    if out_parts and len(dead):
        # vectorized anti-join on the key columns (a per-row
        # tuple-apply here sat inside the merge actor's hot path)
        dead_idx = pd.MultiIndex.from_frame(dead[KEY_COLS])
        live_idx = pd.MultiIndex.from_frame(out_parts[0][KEY_COLS])
        dead = dead[~dead_idx.isin(live_idx)]
    out_parts.append(dead)
    out = pd.concat(out_parts, ignore_index=True)
    return out[list(df.columns)]


def _to_arrow(df: pd.DataFrame) -> pa.Table:
    """pandas → Arrow, forcing all-null object columns to string (they
    appear when schema evolution backfills a new column with nulls —
    inferring them as pa.null() would poison later schema unification)."""
    arrays, fields = [], []
    for c in df.columns:
        if df[c].dtype == object and df[c].notna().sum() == 0:
            arr = pa.array([None] * len(df), type=pa.string())
        else:
            arr = pa.array(df[c], from_pandas=True)
            if pa.types.is_null(arr.type):
                arr = arr.cast(pa.string())
        arrays.append(arr)
        fields.append(pa.field(str(c), arr.type))
    return pa.Table.from_arrays(arrays, schema=pa.schema(fields))


class MergeWithState:
    """The per-partition merge stage — called once per (epoch, pid) by
    the replay's chain link for the pid's group
    (pipelines/replay._merge_group_chain), which hands it the group's
    state as of the previous epoch, per pid: its manifest entry (chain
    + per-file row counts), or a bare file path, which is a one-file
    chain of unknown size and so always folds.

    One call = one partition's folded change rows for this epoch, AS AN
    ARROW TABLE: the quarantine split, the append-or-fold decision
    (``appends``), the prior-chain concat (additive schema evolution:
    ``promote_options="permissive"`` null-backfills missing columns)
    and the LWW fold all run in Arrow, so the wide ``content`` strings
    never convert to Python/pandas objects on the hot path (override
    mode is the documented pandas exception — its column-wise coalesce
    is not associative, so it always folds onto the whole state).
    Writes ``epoch={e}/part-{pid:05d}.parquet`` — a new base or an
    appended link — atomically (tmp + rename → task retries
    self-overwrite, never duplicate — the exactly-once write half; the
    manifest commit is the other half), and returns a one-row stats table (the lineage
    record) whose ``chain``/``chain_rows`` are the pid's chain after
    this write (length 1 for a base).

    This is the ST1 analogue: the reference holds the pair key set in
    process memory and mutates it serially
    (/root/reference/parser/dex/dezswap/app.go:42-68); here each
    partition's key set lives in its chain files and is owned by
    whichever worker runs that pid's chain link — state is
    partition-local because keys route by pure hash.
    """

    def __init__(
        self,
        state_root: str,
        epoch: int,
        prior_files: dict[int, "str | dict"],
        override: bool = False,
        quarantine_root: str | None = None,
    ):
        self.state_root = state_root
        self.epoch = epoch
        self.prior_files = prior_files
        self.override = override
        self.quarantine_root = quarantine_root
        os.makedirs(os.path.join(state_root, f"epoch={epoch}"), exist_ok=True)
        if quarantine_root:
            os.makedirs(
                os.path.join(quarantine_root, f"epoch={epoch}"), exist_ok=True
            )

    def __call__(self, group: pa.Table) -> pa.Table:
        pid = int(group["pid"][0].as_py())
        n_in = group.num_rows

        n_quarantined = 0
        if "valid" in group.column_names:
            valid = group["valid"].combine_chunks()
            bad = group.filter(pc.invert(valid))
            group = group.filter(valid).drop_columns(["valid"])
            n_quarantined = bad.num_rows
            if n_quarantined and self.quarantine_root:
                qout = os.path.join(
                    self.quarantine_root,
                    f"epoch={self.epoch}",
                    f"part-{pid:05d}.parquet",
                )
                bad = bad.drop_columns(["valid"]).append_column(
                    "error",
                    pa.array(["invalid_commit_or_op"] * n_quarantined, pa.string()),
                )
                tmp = f"{qout}.tmp.{os.getpid()}"
                pq.write_table(bad, tmp, **STATE_CODEC)
                os.replace(tmp, qout)

        prior = self.prior_files.get(pid)
        if isinstance(prior, str):
            prior = {"file": prior}
        chain = entry_chain(prior) if prior else []
        chain_rows = entry_chain_rows(prior) if prior else []

        if not self.override and appends(chain_rows, group.num_rows):
            folded = fold_lww_arrow(group)
        else:
            from cosmwasm_etl_ray.state.delta import fold_chain

            state = fold_chain(chain)
            if state is not None and "key64" in state.column_names:
                # the routing hash that stores written before the exact-key
                # fold carry: a new base drops it
                state = state.drop_columns(["key64"])
            allrows = group if state is None else pa.concat_tables(
                [state, group], promote_options="permissive"
            )
            if self.override:
                folded_df = fold_override(allrows.to_pandas())
                folded_df = folded_df.sort_values(KEY_COLS, kind="stable")
                folded = _to_arrow(folded_df)
            else:
                folded = fold_lww_arrow(allrows)  # comes out key-sorted
            chain, chain_rows = [], []

        out = os.path.join(self.state_root, f"epoch={self.epoch}", f"part-{pid:05d}.parquet")
        tmp = f"{out}.tmp.{os.getpid()}"
        pq.write_table(folded, tmp, **STATE_CODEC)
        os.replace(tmp, out)

        live = int(pc.sum(pc.not_equal(folded[OP_COL], pa.scalar("delete"))).as_py() or 0)
        return pa.table(
            {
                "pid": pa.array([pid], pa.int64()),
                "rows": pa.array([folded.num_rows], pa.int64()),
                "live_rows": pa.array([live], pa.int64()),
                "merged_partials": pa.array([n_in], pa.int64()),
                "quarantined": pa.array([n_quarantined], pa.int64()),
                "file": pa.array([out], pa.string()),
                "chain": pa.array([[*chain, out]], pa.list_(pa.string())),
                "chain_rows": pa.array(
                    [[*chain_rows, folded.num_rows]], pa.list_(pa.int64())
                ),
            }
        )
