"""State chains and the one state reader.

Every read of committed state goes through ``map_chains``: one item
per pid (its chain, or an (old, new) chain pair for a diff), grouped
into at most min(#items, 2×NCPU) raw Ray tasks (compat.task_cap, also
the replay's cap on prep shards and merge pid-groups); each task folds
its pids' chains with ``fold_chain``, applies the caller's per-pid
function and returns one Arrow table, and blocks are padded to one
schema with typed nulls.

A pid's chain is the ordered file list [base, link, ...] recorded in
ONE manifest. Each merge link decides from the chain's own row counts
whether to append its folded rows as a link or fold the chain into a
new base (stages/merge.appends): dense epochs always write a base, so
the chain stays one file (copy-on-write); sparse epochs append — the
write is O(touched keys), not O(total state), the 1B soak's diagnosed
limiter (SOAK_1B.json) — and fold once the chain would exceed 4 files
or the appended rows reach ¼ of the base's, after which gc_state
sweeps the covered links. No caller compacts.

How rows were written never changes how they are read: the fold is
fold_lww_arrow in epoch order (prior-first, so the tie-break matches
a copy-on-write fold bit-for-bit — LWW is associative, which is why
appending is sound). The merge link's fold reads the prior chain
through ``fold_chain`` too. Readers take no parquet predicate: a
caller's key cut (lookup_state's semi join) runs on the folded rows.
Reference analogue: one repository layer serves every reader (the
reference parser's parser/dex/repo/repository.go:63-122).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from cosmwasm_etl_ray.compat import cached_remote, task_cap
from cosmwasm_etl_ray.stages.merge import fold_lww_arrow
from cosmwasm_etl_ray.state.manifest import entry_chain, manifest_entries


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
        for pid, info in manifest_entries(store.manifest(epoch)).items()
        if touched_after is None or info["epoch"] > touched_after
    }


def fold_chain(files: list[str], columns: list[str] | None = None) -> pa.Table | None:
    """Fold one pid's chain (None for an empty chain): concat in epoch
    order (earlier files first — fold_lww_arrow breaks equal-commit
    ties by input position, so later epochs win exactly like a
    copy-on-write fold's prior-first concat) and LWW-fold. Tombstones
    KEPT (state semantics). The read and the merge link's fold both
    come here. ``columns`` prunes the read (the fold's key columns
    ride along on chains longer than one); each file is read whole
    through ``ParquetFile`` — no dataset discovery, no predicate: a
    caller's key cut runs on the folded rows. The folded rows carry
    the state files' columns only, so how a chain was written never
    shows in a read."""
    if not files:
        return None
    if columns is not None and len(files) > 1:
        columns = list(dict.fromkeys([*columns, "repo", "path", "commit"]))
    tables = [pq.ParquetFile(f).read(columns=columns) for f in files]
    if len(tables) == 1:
        return tables[0]
    return fold_lww_arrow(pa.concat_tables(tables, promote_options="permissive"))


def _read_group(fn, columns, group, *args):
    """One reader task: fold each (pid, chains) item, apply ``fn``,
    concat. Returns (table, schema) so the driver can align schemas
    without fetching the table."""
    outs = [
        fn(pid, *[fold_chain(c, columns) for c in chains], *args)
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
) -> list[tuple[list[int], "ray.ObjectRef"]]:
    """THE state reader. ``items`` maps pid -> a tuple of chains (one
    chain to read, (old, new) to diff); ``fn(pid, *folded, *args)``
    runs inside the task on each pid's folded tables (None for an
    empty chain) and returns an Arrow table. Pids are grouped in pid
    order into at most min(#items, task_cap()) raw tasks; one task per
    pid measured slower than a Dataset scan (BASELINE.md, "Read path
    unified"). Returns (pids, table ref) per task, every table in one
    schema."""
    if not items:
        return []
    pids = sorted(items)
    task = cached_remote("state_read_group", _read_group, num_returns=2)
    groups = [
        [int(p) for p in g]
        for g in np.array_split(np.array(pids), min(len(pids), task_cap()))
    ]
    outs = [
        task.remote(fn, columns, [(p, items[p]) for p in g], *args)
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
