"""Epoch-driven transfer parser: the reference parser's Run loop on
the transfer domain, with the exactly-once sink.

The reference parses one height range per iteration and commits parsed
txs + the cursor in one transaction (reference parser/dex/dex.go:87-267,
parser/dex/repo/repository.go:63-122). Here the tx-id
key space splits into contiguous EPOCHS (a tx's logs never span
epochs — the same invariant as one height, which is what makes the
per-tx duplicate eliminator epoch-local); each epoch runs

    raw logs (tx in [lo, hi)) -> decode -> mapper family
      -> ONE tx-hash exchange into P pids; run_epoch cuts the pids
         into contiguous runs by their ledger rows, and each run's
         task eliminates duplicates AND writes the run's file
      -> manifest commit {offset_range=(lo,hi), per-run lineage}

through the SAME exactly-once discipline as the CDC replay sink: data
files land tmp+rename (task retries self-overwrite, never append), and
the epoch exists only once its manifest does — a crash mid-epoch
leaves no visible state, a re-run of a committed epoch is a no-op skip
(`state/manifest.StateStore`).

Unlike the CDC merge store (latest state per partition), this sink is
APPEND-shaped — every epoch contributes its own files, like the
reference's INSERT of parsed txs, and never rewrites them — so readers
collect each committed epoch's files from its manifest (`ledger()`).
The pids are a fixed routing key space; the number of files follows
the epoch's rows (one file per ``ROW_GROUP_ROWS`` rows or more, at
most ``task_cap()``), so a small epoch writes one file and a long run
of epochs needs no compaction.

At 100-TB scale the raw-log source is commit-partitioned storage and
``plan_epochs`` becomes the tail loop's next-range query; the sink
layout (tx-hash partitions per epoch) keeps the reference's
height-keyed locality — incremental consumers read whole epochs, and
a pair-keyed consumer does its own shuffle once downstream instead of
paying one per epoch here.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from cosmwasm_etl_ray.compat import cached_remote, empty_dataset, row_runs, task_cap
from cosmwasm_etl_ray.functions.hashing import stable_hash64
from cosmwasm_etl_ray.stages.merge import ROW_GROUP_ROWS
from cosmwasm_etl_ray.stages.transfers import (
    TransferMapperFamily,
    decode_raw_logs_batch,
)
from cosmwasm_etl_ray.state import durable
from cosmwasm_etl_ray.state.manifest import StateStore

_LEDGER_SCHEMA = pa.schema(
    [("tx_id", pa.int64()), ("log_idx", pa.int64()), ("pair", pa.string()),
     ("token", pa.string()), ("ttype", pa.string()), ("amount", pa.int64())]
)
LEDGER_COLS = _LEDGER_SCHEMA.names


def _split_by_tx_pid(t: pa.Table, P: int) -> list[pa.Table | None]:
    """Slice a table into one sub-table per tx-hash pid via the SHARED
    exchange splitter (functions/hashing.split_table_by_shard) —
    normalized to a P-list here so the caller can zip ledger and
    quarantine splits regardless of P."""
    from cosmwasm_etl_ray.functions.hashing import split_table_by_shard

    pid = (
        (
            stable_hash64(t["tx_id"].to_numpy(zero_copy_only=False))
            % np.uint64(P)
        ).astype(np.int64)
        if t.num_rows
        else None
    )
    parts = split_table_by_shard(t, pid, P)
    return [parts] if P == 1 else list(parts)


def _prep_transfer_shard(
    path: str, row_groups: list[int], lo: int, hi: int, P: int
):
    """One raw prep task: read a row-group run, keep the epoch's tx
    range, expand+decode+map it, and split BOTH the mapped ledger rows
    and the malformed (quarantine) rows by tx-hash pid. Returns
    ``num_returns=P+1`` values: each pid's (ledger, quarantine) table
    pair (None when it has neither), then each pid's ledger row count
    (int64[P]), the one value run_epoch fetches."""
    import pyarrow.compute as pc

    from cosmwasm_etl_ray.sources.rawlogs import expand_lineitem_batch

    t = pq.ParquetFile(path).read_row_groups(
        row_groups,
        columns=[
            "l_orderkey", "l_linenumber", "l_partkey", "l_suppkey", "l_quantity",
        ],
    )
    t = t.filter(
        pc.and_(
            pc.greater_equal(t["l_orderkey"], pa.scalar(lo, pa.int64())),
            pc.less(t["l_orderkey"], pa.scalar(hi, pa.int64())),
        )
    )
    if t.num_rows == 0:
        return (*[None] * P, np.zeros(P, np.int64))
    decoded = decode_raw_logs_batch(expand_lineitem_batch(t))
    bad = decoded.filter(pc.is_null(decoded["amount_str"]))
    led = TransferMapperFamily()(decoded)
    led_parts = _split_by_tx_pid(led, P)
    bad_parts = _split_by_tx_pid(bad, P)
    rows = np.array([0 if lp is None else lp.num_rows for lp in led_parts], np.int64)
    return (
        *(None if lp is None and bp is None else (lp, bp) for lp, bp in zip(led_parts, bad_parts)),
        rows,
    )


def _finish_transfer_run(root: str, qdir: str, epoch: int, lo: int, *parts):
    """One raw finish task per pid run: concat the run's slices, run
    the duplicate eliminator over its tx groups (each is whole: a tx
    hashes to one pid), write the run's ledger file and quarantine
    side file, named by its first pid, tmp+rename, and return a
    lineage row."""
    from cosmwasm_etl_ray.stages.transfers import _eliminate_shard

    led_tables = [p[0] for p in parts if p is not None and p[0] is not None]
    bad_tables = [p[1] for p in parts if p is not None and p[1] is not None]
    if not led_tables and not bad_tables:
        return None
    rows = q_rows = 0
    out = None
    if led_tables:
        g = pa.concat_tables(led_tables).to_pandas()
        kept = _eliminate_shard(g)
        out_dir = os.path.join(root, f"epoch={epoch}")
        os.makedirs(out_dir, exist_ok=True)
        out = os.path.join(out_dir, f"part-{lo:05d}.parquet")
        table = pa.Table.from_pandas(kept[LEDGER_COLS].reset_index(drop=True), preserve_index=False)
        durable.write(out, lambda tmp: pq.write_table(table, tmp))
        rows = len(kept)
    if bad_tables:
        qt = pa.concat_tables(bad_tables)
        q_dir = os.path.join(qdir, f"epoch={epoch}")
        os.makedirs(q_dir, exist_ok=True)
        durable.write(os.path.join(q_dir, f"part-{lo:05d}.parquet"), lambda tmp: pq.write_table(qt, tmp))
        q_rows = qt.num_rows
    return {"lo": lo, "file": out, "rows": rows, "quarantined": q_rows}


def _plan_epoch_shards(
    path: str, lo: int, hi: int, cap: int, target_rows: int | None = None
) -> list[tuple[str, list[int]]]:
    """Prep shards for one epoch, PRUNED by parquet row-group
    statistics: a row group whose [min, max] of l_orderkey misses
    [lo, hi) never leaves storage. With a tx-ordered writer (the normal
    case — the reference's source is height-ordered by construction)
    each epoch reads only ~1/n_epochs of the file instead of scanning
    and discarding; this is the single-file analogue of the
    range-partitioned source the 100-TB layout assumes. Row groups
    without statistics are conservatively kept. Measured at toy scale
    (4.8M rows, page-cached) pruning is cost-neutral (±5% vs the full
    rescan — the discarded read was cached); its value is real-storage
    I/O, where each epoch's read volume drops by ~n_epochs×.

    The shard size target derives from the PRUNED row count (not file
    total) so a pruned epoch still fans out to ~``cap`` prep tasks
    (compat.task_cap) when its row-group population allows."""
    md = pq.read_metadata(path)
    idx = md.schema.names.index("l_orderkey")
    keep: list[int] = []
    kept_rows = 0
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(idx).statistics
        if (
            st is None or st.min is None or st.max is None
            or (st.max >= lo and st.min < hi)
        ):
            keep.append(rg)
            kept_rows += md.row_group(rg).num_rows
    if target_rows is None:
        target_rows = max(65536, -(-kept_rows // cap))
    shards: list[tuple[str, list[int]]] = []
    cur: list[int] = []
    cur_rows = 0
    prev = None
    for rg in keep:
        n = md.row_group(rg).num_rows
        # a shard is a CONTIGUOUS row-group run (read_row_groups seeks
        # once per run); break on gaps left by pruning or on size
        if cur and (rg != prev + 1 or cur_rows + n > target_rows):
            shards.append((path, cur))
            cur, cur_rows = [], 0
        cur.append(rg)
        cur_rows += n
        prev = rg
    if cur:
        shards.append((path, cur))
    return shards


class TransferParserPipeline:
    """Run the transfer parse epoch by epoch into an exactly-once
    append store; resumable from the last committed manifest."""

    def __init__(
        self,
        sf_dir: str,
        store_root: str,
        n_epochs: int = 4,
        num_partitions: int = 16,
    ):
        self.sf_dir = sf_dir
        self.store = StateStore(store_root)
        self.n_epochs = n_epochs
        self.num_partitions = num_partitions

    # -- planning -----------------------------------------------------
    def plan_epochs(self) -> list[tuple[int, int]]:
        """Contiguous tx-id ranges covering [1, max_tx]. The tail-loop
        seam: at scale this asks the source for the next uncommitted
        range instead of scanning (S1/S2)."""
        hi = ray.data.read_parquet(
            f"{self.sf_dir}/lineitem.parquet", columns=["l_orderkey"]
        ).max("l_orderkey")
        hi = int(hi) + 1
        step = max(1, (hi + self.n_epochs - 1) // self.n_epochs)
        return [(lo, min(lo + step, hi)) for lo in range(1, hi, step)]

    # -- one epoch ----------------------------------------------------
    def run_epoch(self, epoch: int, lo: int, hi: int) -> dict:
        """One epoch through the DIRECT raw-task exchange (the replay
        engine's fast path): prep tasks read a row-group run, keep the
        epoch's tx range, run expand+decode+map vectorized and split by
        tx-hash pid (``num_returns=P+1``, the last value each pid's
        ledger rows). It fetches only those counts, cuts the
        pids into runs (``compat.row_runs``), and one finish task per run
        runs the duplicate eliminator over its complete tx groups and
        writes one ledger and one quarantine file tmp+rename. No
        Dataset shuffle anywhere — the sort-based groupby measured
        ~20 s per 1.5M rows and pinned 8->32 scaling at ~1.3x.
        Malformed rows ride the same exchange into dead-letter files,
        counted by the same manifest (the reference upserts quarantines
        inside the parsed-tx transaction, parser/dex/repo/
        repository.go:63-122)."""
        if self.store.is_committed(epoch):
            return {"epoch": epoch, "skipped": True}
        # a crashed run of this epoch may have cut its pids into other
        # files: they go before this run writes its own
        for d in (self.store.root, self.store.quarantine_dir):
            shutil.rmtree(os.path.join(d, f"epoch={epoch}"), ignore_errors=True)

        import ray as _ray

        P = self.num_partitions
        prep = cached_remote(
            ("xfer_prep", P), _prep_transfer_shard, num_returns=P + 1
        )
        finish = cached_remote("xfer_finish", _finish_transfer_run)

        path = f"{self.sf_dir}/lineitem.parquet"
        shards = [
            prep.remote(pth, rgs, lo, hi, P)
            for pth, rgs in _plan_epoch_shards(path, lo, hi, task_cap())
        ]
        rows = sum(_ray.get([s[P] for s in shards]), np.zeros(P, np.int64))
        results = _ray.get(
            [
                finish.remote(
                    self.store.root, self.store.quarantine_dir, epoch, a,
                    *(s[p] for p in range(a, b) for s in shards),
                )
                for a, b in row_runs(rows, task_cap(), ROW_GROUP_ROWS)
            ]
        )
        results = [r for r in results if r is not None]
        n_rows = sum(r["rows"] for r in results)
        n_q = sum(r["quarantined"] for r in results)
        self.store.commit_epoch(
            epoch,
            {
                r["lo"]: {"file": r["file"], "rows": r["rows"]}
                for r in results
                if r["file"] is not None
            },
            offset_range=(str(lo), str(hi)),
            counts={"rows": n_rows, "quarantined": n_q},
            num_partitions=P,
        )
        return {"epoch": epoch, "skipped": False, "rows": n_rows}

    # -- whole run ----------------------------------------------------
    def run(self, max_concurrent: int = 4) -> list[dict]:
        """Epochs are INDEPENDENT here (append sink, no cross-epoch
        state — unlike the CDC merge), so waves of them run
        concurrently: each thread just submits raw tasks and blocks on
        ray.get, and the cluster interleaves the work. ``ledger()``
        reads only each manifest's own-epoch entries, so commit order
        doesn't matter. With row-group pruning an epoch's own fan-out
        is bounded by its surviving row groups, so wave concurrency
        carries the parallelism (8× corpus, 32 CPUs: 7.6 s at 4 waves
        → 5.3 s at 8; default 4 keeps ≤4 epochs of refs in flight)."""
        plan = self.plan_epochs()
        if max_concurrent <= 1 or len(plan) == 1:
            return [self.run_epoch(e, lo, hi) for e, (lo, hi) in enumerate(plan)]

        from concurrent.futures import ThreadPoolExecutor

        from cosmwasm_etl_ray.compat import ensure_thread_safe_lazy_imports

        ensure_thread_safe_lazy_imports()
        with ThreadPoolExecutor(max_workers=max_concurrent) as pool:
            return list(pool.map(self.run_epoch, range(len(plan)), *zip(*plan)))

    # -- readers ------------------------------------------------------
    def epoch_files(self) -> list[str]:
        """Every committed epoch's OWN ledger files (each manifest also
        carries forward earlier epochs' entries, filtered back out by
        their recorded epoch). A crashed run's files are named by no
        manifest, so they are never read; the epoch's next run deletes
        them."""
        return sorted(
            info["file"]
            for e in self.store.committed_epochs()
            for info in self.store.manifest(e)["partitions"].values()
            if info["epoch"] == e
        )

    def ledger(self) -> "ray.data.Dataset":
        files = self.epoch_files()
        if not files:
            return empty_dataset(_LEDGER_SCHEMA.empty_table())
        return ray.data.read_parquet(files)
