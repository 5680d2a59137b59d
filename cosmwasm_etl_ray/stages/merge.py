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
- the MERGE: a link folds the epoch's rows onto its pids' prior state;
- the CHAIN READ: a reader folds a pid's chain of base + appended
  links (state/delta.map_chains), exactly (SURVEY.md §7.4 "fold by
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
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from cosmwasm_etl_ray.functions.hashing import encode_keys
from cosmwasm_etl_ray.state import durable
from cosmwasm_etl_ray.state.manifest import entry_chain_rows, entry_slices

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
# A state file's row groups hold whole pids: one closes once it reaches
# this many rows, and MergeWithState folds and writes one row group's
# pids at a time, so a merge task holds about this many rows plus its
# largest pid whatever its group's size.
ROW_GROUP_ROWS = 1 << 17


def appends(chain_rows: list[int] | None, epoch_rows: int) -> bool:
    """The append-or-fold decision from counts the manifest already
    holds: ``chain_rows`` is the row count of each file of the pid's
    chain (base first; None for a bare prior file name, [] for a pid
    with no state — both fold) and ``epoch_rows`` the epoch's rows for
    the pid before their fold (an upper bound of the link's rows, so
    deciding costs no extra fold)."""
    return (
        bool(chain_rows)
        and len(chain_rows) < MAX_CHAIN_LINKS
        and FOLD_SHARE * (sum(chain_rows[1:]) + epoch_rows) < chain_rows[0]
    )


def _rank(col: pa.ChunkedArray) -> tuple[np.ndarray, int]:
    """Exact int64 codes of a string column that sort like the values
    (Arrow compares UTF-8 bytes, which is code-point order; a null
    sorts last). Returns (codes, #codes)."""
    codes, values = encode_keys(col)
    d = len(values)
    rank = np.empty(d + 1, np.int64)
    rank[pc.sort_indices(values).to_numpy()] = np.arange(d)
    rank[d] = d
    return rank[codes], d + 1


def _last_per_key(key: np.ndarray, commit: np.ndarray) -> np.ndarray:
    """Positions of the LWW winners: per key the max-commit row, an
    equal commit won by the later position (np.lexsort is stable), in
    key order."""
    order = np.lexsort((commit, key))
    k = key[order]
    return order[np.r_[k[1:] != k[:-1], True]]


def _commits(col) -> np.ndarray:
    return pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False)


def _lww_winners(t: pa.Table) -> np.ndarray:
    """Row indices of the LWW winners of ``t``, in (repo, path) order."""
    repo, _ = _rank(t["repo"])
    path, n_paths = _rank(t["path"])
    return _last_per_key(repo * n_paths + path, _commits(t["commit"]))


def combine_keep(t: pa.Table, repo, path) -> np.ndarray:
    """THE combiner, from the key codes prep already has (``repo`` and
    ``path`` are ``encode_keys`` results for ``t``'s rows): ascending
    positions of the rows it keeps — the LWW winner of each exact key
    among the ``valid`` rows, and every quarantine row. Any exact
    codes do, because the kept rows stay in input order."""
    valid = t["valid"].to_numpy(zero_copy_only=False).astype(bool)
    vidx = np.flatnonzero(valid)
    if not len(vidx):
        return np.arange(t.num_rows)
    key = repo[0][vidx] * (len(path[1]) + 1) + path[0][vidx]
    keep = ~valid
    keep[vidx[_last_per_key(key, _commits(t["commit"].take(pa.array(vidx))))]] = True
    return np.flatnonzero(keep)


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
    """The prep combiner as a table function (``combine_keep``): the
    LWW fold over the ``valid`` rows while the quarantine rows pass
    through untouched, all in input order — quarantine rows reach the
    merge stage with their raw payload intact."""
    keep = combine_keep(t, encode_keys(t["repo"]), encode_keys(t["path"]))
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
    """The merge stage — called once per (epoch, pid-group) by the
    replay's chain link (pipelines/replay._merge_group_chain) with the
    rows of all the group's pids, or once per pid by a caller that
    splits by pid itself. ``prior_files`` maps pid → its state as of
    the previous epoch: a manifest entry (chain of slices + per-slice
    row counts), or a bare file path, which is a one-slice chain of
    unknown size (read filtered to the pid, so it may be a group file)
    and so always folds.

    One call = one or more pids' change rows for this epoch, AS AN
    ARROW TABLE. Per pid it decides append or fold from the counts
    (``appends``): an appending pid's link is its folded epoch rows, a
    folding pid's new base is its chain folded with its epoch rows.
    Keys never cross pids, so ONE ``fold_lww_arrow`` over the folding
    pids' chains (each prior file read once, only the row groups that
    hold a folding pid's slice) and every pid's epoch rows equals the
    per-pid folds; override mode runs ``fold_override`` once the same
    way (its column-wise coalesce is not associative, so it always
    folds, and is the documented pandas exception — the wide
    ``content`` strings otherwise never leave Arrow). Additive schema
    evolution: ``promote_options="permissive"`` null-backfills a column
    that some rows lack.

    Writes ONE ``epoch={e}/part-{lo:05d}.parquet`` (``lo`` = the call's
    lowest pid; a one-pid call writes the pid's own name) with rows in
    (pid, repo, path) order, and one quarantine file of the call's
    invalid rows — each atomically (tmp + rename → task retries
    self-overwrite, never duplicate — the exactly-once write half; the
    manifest commit is the other half). A row group closes between
    pids once it holds ``ROW_GROUP_ROWS`` rows, and the call folds and
    writes one row group's pids at a time. Returns one stats row per
    pid (the lineage record): its slice (``file``, ``offset``,
    ``rows``), and ``chain``/``chain_offsets``/``chain_rows``, the
    pid's chain after this write (length 1 for a base). The call's
    ``read_s``/``fold_s``/``write_s`` and ``bytes_written`` ride on its
    first row (0 on the others), so sums over rows are exact.

    This is the ST1 analogue: the reference holds the pair key set in
    process memory and mutates it serially
    (/root/reference/parser/dex/dezswap/app.go:42-68); here each
    partition's key set lives in its chain's slices and is owned by
    whichever worker runs its group's chain link — state is
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

    def _prior(self, pid: int) -> tuple[list, list[int] | None, bool]:
        """(chain slices, chain row counts, bare path?) of the pid."""
        prior = self.prior_files.get(pid)
        if not prior:
            return [], [], False
        bare = isinstance(prior, str)
        info = {"file": prior} if bare else prior
        return entry_slices(info), entry_chain_rows(info), bare

    def _quarantine(self, bad: pa.Table, name: str) -> int:
        """Write the call's invalid rows; returns the bytes written."""
        if not bad.num_rows or not self.quarantine_root:
            return 0
        out = os.path.join(self.quarantine_root, f"epoch={self.epoch}", name)
        bad = bad.drop_columns(["valid"]).append_column(
            "error", pa.array(["invalid_commit_or_op"] * bad.num_rows, pa.string())
        )
        durable.write(out, lambda tmp: pq.write_table(bad, tmp, **STATE_CODEC))
        return os.path.getsize(out)

    def _fold(self, prior: list[pa.Table], rows: pa.Table) -> pa.Table:
        """One fold of several pids' prior rows (each pid's chain in
        order) and epoch rows, in (pid, repo, path) order."""
        t = pa.concat_tables([*prior, rows], promote_options="permissive")
        if self.override:
            df = fold_override(t.to_pandas())
            return _to_arrow(df.sort_values(["pid", *KEY_COLS], kind="stable"))
        if t.num_rows <= 1:
            return t
        win = _lww_winners(t)  # key-sorted; keys never cross pids
        pid = t["pid"].to_numpy(zero_copy_only=False)[win]
        return t.take(pa.array(win[np.argsort(pid, kind="stable")]))

    def __call__(self, group: pa.Table) -> pa.Table:
        from cosmwasm_etl_ray.state.delta import read_slices, slices_schema

        pids, n_in = np.unique(group["pid"].to_numpy(zero_copy_only=False), return_counts=True)
        name = f"part-{int(pids[0]):05d}.parquet"
        bad = group.slice(0, 0)
        if "valid" in group.column_names:
            valid = group["valid"].combine_chunks()
            bad = group.filter(pc.invert(valid))
            group = group.filter(valid).drop_columns(["valid"])
        t0 = time.perf_counter()
        q_bytes = self._quarantine(bad, name)
        write_s = time.perf_counter() - t0
        bad_pid = np.sort(bad["pid"].to_numpy(zero_copy_only=False))
        n_bad = np.searchsorted(bad_pid, pids, "right") - np.searchsorted(bad_pid, pids, "left")
        vpid = group["pid"].to_numpy(zero_copy_only=False)
        n_rows = n_in - n_bad

        priors = [self._prior(int(p)) for p in pids]
        folds = [
            self.override or not appends(crows, int(n)) for (_, crows, _), n in zip(priors, n_rows)
        ]
        # row groups: runs of whole pids of ≥ ROW_GROUP_ROWS estimated rows
        est = n_rows + np.array([sum(r or []) if f else 0 for (_, r, _), f in zip(priors, folds)])
        cuts, acc = [0], 0
        for i, n in enumerate(est):
            acc += int(n)
            if acc >= ROW_GROUP_ROWS and i + 1 < len(pids):
                cuts.append(i + 1)
                acc = 0
        cuts.append(len(pids))

        out = os.path.join(self.state_root, f"epoch={self.epoch}", name)
        tmp = durable.tmp_path(out)
        read_s = fold_s = 0.0
        writer = schema = None
        written, live = np.zeros(len(pids), np.int64), np.zeros(len(pids), np.int64)
        for a, b in zip(cuts, cuts[1:]):
            t0 = time.perf_counter()
            want = [(int(pids[i]), priors[i]) for i in range(a, b) if folds[i]]
            tabs = iter(read_slices([s for _, (c, _, _) in want for s in c]))
            prior = []
            for pid, (chain, _, bare) in want:
                for _ in chain:
                    t = next(tabs)
                    prior.append(t.filter(pc.equal(t["pid"], pid)) if bare else t)
            rows = group if len(cuts) == 2 else group.filter(
                pa.array((vpid >= pids[a]) & (vpid <= pids[b - 1]))
            )
            t1 = time.perf_counter()
            folded = self._fold(prior, rows)
            t2 = time.perf_counter()
            if schema is None:
                # several row groups share the schema of all the
                # folding pids' prior files and the epoch's rows
                schema = folded.schema if len(cuts) == 2 else pa.unify_schemas(
                    [*slices_schema([s for i, p in enumerate(priors) if folds[i] for s in p[0]]),
                     group.schema],
                    promote_options="permissive",
                )
                writer = pq.ParquetWriter(tmp, schema, **STATE_CODEC)
            fpid = folded["pid"].to_numpy(zero_copy_only=False)
            at = np.searchsorted(pids, fpid)
            written += np.bincount(at, minlength=len(pids))
            alive = pc.not_equal(folded[OP_COL], pa.scalar("delete")).to_numpy(zero_copy_only=False)
            live += np.bincount(at, weights=alive, minlength=len(pids)).astype(np.int64)
            if folded.num_rows:
                writer.write_table(_conform(folded, schema), row_group_size=folded.num_rows)
            t3 = time.perf_counter()
            read_s += t1 - t0
            fold_s += t2 - t1
            write_s += t3 - t2
        t0 = time.perf_counter()
        writer.close()
        durable.commit(tmp, out)
        write_s += time.perf_counter() - t0

        offsets = np.r_[0, np.cumsum(written)[:-1]]
        chains, chain_offsets, chain_rows = [], [], []
        for i, (chain, crows, _) in enumerate(priors):
            kept = [] if folds[i] else chain
            chains.append([*(s.file for s in kept), out])
            chain_offsets.append([*(s.offset for s in kept), int(offsets[i])])
            chain_rows.append([*([] if folds[i] else crows), int(written[i])])
        first = np.r_[1.0, np.zeros(len(pids) - 1)]
        return pa.table(
            {
                "pid": pa.array(pids, pa.int64()),
                "rows": pa.array(written, pa.int64()),
                "live_rows": pa.array(live, pa.int64()),
                "merged_partials": pa.array(n_in, pa.int64()),
                "quarantined": pa.array(n_bad, pa.int64()),
                "file": pa.array([out] * len(pids), pa.string()),
                "offset": pa.array(offsets, pa.int64()),
                "chain": pa.array(chains, pa.list_(pa.string())),
                "chain_offsets": pa.array(chain_offsets, pa.list_(pa.int64())),
                "chain_rows": pa.array(chain_rows, pa.list_(pa.int64())),
                "read_s": pa.array(first * read_s),
                "fold_s": pa.array(first * fold_s),
                "write_s": pa.array(first * write_s),
                "bytes_written": pa.array(
                    (first * (os.path.getsize(out) + q_bytes)).astype(np.int64)
                ),
            }
        )


def _conform(t: pa.Table, schema: pa.Schema) -> pa.Table:
    """Pad/reorder a table to ``schema``: typed nulls for a missing
    column (the mixed-schema union hazard, CLAUDE.md) — a state file's
    row groups, and the state reader's blocks, share one schema."""
    if t.schema.equals(schema):
        return t
    return pa.Table.from_arrays(
        [
            t[f.name].cast(f.type) if f.name in t.column_names
            else pa.nulls(t.num_rows, f.type)
            for f in schema
        ],
        schema=schema,
    )
