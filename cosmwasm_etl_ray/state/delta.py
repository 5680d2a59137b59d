"""State chains and the one state reader.

Every read of committed state goes through ``map_chains``: one item
per pid (its chain, or an (old, new) chain pair for a diff), grouped
into at most min(#items, 2×NCPU) raw Ray tasks (the replay's
prep-shard cap); each task folds its pids' chains with ``fold_chain``,
applies the caller's per-pid function and returns one Arrow table, and
blocks are padded to one schema with typed nulls.

A pid's chain is the ordered file list [base?, delta, ...] recorded in
ONE manifest. ``state_layout="full"`` (copy-on-write) rewrites each
touched pid's whole state, so an entry is its own chain and full
manifests carry no ``chain`` field. ``state_layout="delta"`` APPENDS
one folded delta file per touched pid and records the link's
``chain`` — the write is O(touched keys), not O(total state), the 1B
soak's diagnosed limiter (SOAK_1B.json). ``compact_state`` folds every
chain into a base generation, committed as a synthetic epoch
(offset_range "compact", skipped by the resume cursor walk); a base
entry carries no chain, so it resets the chain, and gc_state then
sweeps the covered deltas.

How rows were written never changes how they are read: the fold is
fold_lww_arrow in epoch order (prior-first, so the tie-break matches
the full layout bit-for-bit — LWW is associative, which is why the
delta layout is sound). The only layout-specific code left is the
write policy (replay._committed_prior) and the resume identity check.
Reference analogue: one repository layer serves every reader (the
reference parser's parser/dex/repo/repository.go:63-122).
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from cosmwasm_etl_ray.compat import cached_remote
from cosmwasm_etl_ray.state.manifest import entry_chain
from cosmwasm_etl_ray.stages.merge import (
    OP_COL,
    STATE_CODEC,
    fold_lww_arrow,
)

_EPOCH_DIR_RE = re.compile(r"epoch=(\d+)")  # a state file's epoch dir


def partition_chains(
    store, epoch: int | None = None, touched_after: int | None = None
) -> dict[int, list[str]]:
    """pid -> ordered file chain as of ``epoch`` (default latest), from
    that ONE manifest. ``touched_after`` keeps only the pids an epoch
    in (touched_after, epoch] rewrote or appended to."""
    if epoch is None:
        epoch = store.latest_epoch()
    if epoch is None:
        return {}
    return {
        int(pid): entry_chain(info)
        for pid, info in store.manifest(epoch)["partitions"].items()
        if touched_after is None or info["epoch"] > touched_after
    }


def fold_chain(
    files: list[str], columns: list[str] | None = None, filters=None
) -> pa.Table | None:
    """Fold one pid's chain (None for an empty chain): concat in epoch
    order (earlier files first — fold_lww_arrow breaks equal-commit
    ties by input position, so later epochs win exactly like the full
    layout's prior-first concat) and LWW-fold. Tombstones KEPT (state
    semantics). ``filters`` must test key columns only (a key's rows
    then pass in every link or in none, so the fold is unchanged);
    ``columns`` prunes the read (the fold's key columns ride along on
    chains longer than one).

    A full read stamps each row with an ``epoch`` column (the chain
    file it survived from, string-typed like Ray's hive-partition
    inference): full mode stamps the epoch that last rewrote the
    PARTITION, delta the epoch that last wrote the ROW. The column is a
    layout artifact either way (lookup_state drops it; no gate query
    reads it)."""
    if not files:
        return None
    if columns is not None and len(files) > 1:
        columns = list(dict.fromkeys([*columns, "repo", "path", "commit"]))
    tables = []
    for f in files:
        t = pq.read_table(f, columns=columns, filters=filters)
        if columns is None and "epoch" not in t.column_names:
            t = t.append_column(
                "epoch", pa.array([_EPOCH_DIR_RE.search(f)[1]] * t.num_rows, pa.string())
            )
        tables.append(t)
    if len(tables) == 1:
        return tables[0]
    return fold_lww_arrow(pa.concat_tables(tables, promote_options="permissive"))


def _read_group(fn, columns, filters, group, *args):
    """One reader task: fold each (pid, chains) item, apply ``fn``,
    concat. Returns (table, schema) so the driver can align schemas
    without fetching the table."""
    outs = [
        fn(pid, *[fold_chain(c, columns, filters) for c in chains], *args)
        for pid, chains in group
    ]
    t = outs[0] if len(outs) == 1 else pa.concat_tables(outs, promote_options="permissive")
    return t, t.schema


def _conform(t: pa.Table, schema: pa.Schema) -> pa.Table:
    """Pad/reorder one block to the shared schema: typed nulls for a
    missing column (the mixed-schema union hazard, CLAUDE.md)."""
    return pa.Table.from_arrays(
        [
            t[f.name].cast(f.type) if f.name in t.column_names
            else pa.nulls(t.num_rows, f.type)
            for f in schema
        ],
        schema=schema,
    )


def map_chains(
    items: dict[int, tuple[list[str], ...]],
    fn,
    *args,
    columns: list[str] | None = None,
    filters=None,
) -> list[tuple[list[int], "ray.ObjectRef"]]:
    """THE state reader. ``items`` maps pid -> a tuple of chains (one
    chain to read, (old, new) to diff); ``fn(pid, *folded, *args)``
    runs inside the task on each pid's folded tables (None for an
    empty chain) and returns an Arrow table. Pids are grouped in pid
    order into at most min(#items, 2×NCPU) raw tasks — the cap
    ``_launch_prep_tasks`` puts on prep shards; one task per pid
    measured slower than a Dataset scan (BASELINE.md, "Read path
    unified"). Returns (pids, table ref) per task, every table in one
    schema."""
    if not items:
        return []
    ncpu = int(ray.cluster_resources().get("CPU", 32))
    pids = sorted(items)
    task = cached_remote("state_read_group", _read_group, num_returns=2)
    groups = [
        [int(p) for p in g]
        for g in np.array_split(np.array(pids), min(len(pids), 2 * ncpu))
    ]
    outs = [
        task.remote(fn, columns, filters, [(p, items[p]) for p in g], *args)
        for g in groups
    ]
    schemas = ray.get([s for _, s in outs])
    target = pa.unify_schemas(schemas, promote_options="permissive")
    conform = cached_remote("state_read_conform", _conform)
    return [
        (g, t if s == target else conform.remote(t, target))
        for g, (t, _), s in zip(groups, outs, schemas)
    ]


def read_chains(items, fn, *args, empty: pa.Table, **kw) -> "ray.data.Dataset":
    """``map_chains`` as a Dataset (``empty`` when no pid is read)."""
    import ray.data

    refs = [r for _, r in map_chains(items, fn, *args, **kw)]
    return ray.data.from_arrow_refs(refs) if refs else ray.data.from_arrow(empty)


def _write_base(pid: int, t: pa.Table, out_dir: str) -> pa.Table:
    """Write one folded chain as a base file (tmp+rename; task retries
    overwrite idempotently); returns its manifest stats row."""
    out = os.path.join(out_dir, f"part-{pid:05d}.parquet")
    tmp = f"{out}.tmp.{os.getpid()}"
    pq.write_table(t, tmp, **STATE_CODEC)
    os.replace(tmp, out)
    live = int(pc.sum(pc.not_equal(t[OP_COL], pa.scalar("delete"))).as_py() or 0)
    return pa.table(
        {
            "pid": pa.array([pid], pa.int64()),
            "rows": pa.array([t.num_rows], pa.int64()),
            "live_rows": pa.array([live], pa.int64()),
            "file": pa.array([out], pa.string()),
        }
    )


def compact_state(store) -> dict | None:
    """Fold every pid chain into a base generation, committed as a
    synthetic manifest epoch (offset_range "compact" — the resume
    cursor walk skips it, so replay continues from the last FILE
    cursor exactly as before). After this commits, gc_state can sweep
    the covered delta files. Single-compactor discipline (the replay
    driver owns the store); returns the manifest, or None when every
    chain already has length 1 (always so on a full-layout store)."""
    chains = partition_chains(store)
    if all(len(c) == 1 for c in chains.values()):
        return None
    latest = store.latest_epoch()
    e = latest + 1
    out_dir = os.path.join(store.state_dir, f"epoch={e}")
    os.makedirs(out_dir, exist_ok=True)
    refs = map_chains({p: (c,) for p, c in chains.items()}, _write_base, out_dir)
    stats = pa.concat_tables(ray.get([r for _, r in refs])).to_pylist()
    touched = {
        s["pid"]: {"file": s["file"], "rows": s["rows"],
                   "live_rows": s["live_rows"], "base": True}
        for s in stats
    }
    return store.commit_epoch(
        e,
        touched,
        ("compact", "compact"),
        {
            "input_events": 0,
            "applied_events": 0,
            "quarantined": 0,
            "touched_partitions": len(touched),
            "compacted_rows": sum(s["rows"] for s in stats),
        },
    )
