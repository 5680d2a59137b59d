"""State chains and the one state reader.

A pid's chain is the ordered list of slices [base, link, ...] recorded
in ONE manifest (state/manifest.py): each slice is the pid's rows in
one state file. The merge writes one file per (epoch, pid-group), with
rows in (pid, repo, path) order and row groups that close only between
pids, so a group's pids share their files. Each merge link decides from
the chain's own row counts whether to append its folded rows as a link
or fold the chain into a new base (stages/merge.appends): dense epochs
always write a base, so the chain stays one slice (copy-on-write);
sparse epochs append — the write is O(touched keys), not O(total
state), the 1B soak's diagnosed limiter (SOAK_1B.json) — and fold once
the chain would exceed 4 slices or the appended rows reach ¼ of the
base's, after which gc_state sweeps the files no kept chain names. No
caller compacts.

Every read of committed state goes through ``map_chains``: one item
per pid (its chain, or an (old, new) chain pair for a diff), grouped
by shared files into raw Ray tasks sized by rows: one task per
stages/merge.ROW_GROUP_ROWS rows its slices name, capped by 2×NCPU
(compat.task_cap; the replay sizes its merge pid-groups the same
way). A task reads each of its files once (``read_slices``: only the
row groups that hold its slices), folds the chains of more than one
slice, calls the caller's function once on the task's concatenated
tables and returns one Arrow table; blocks are padded to one schema
with typed nulls.

How rows were written never changes how they are read: the fold is
fold_lww_arrow in epoch order (prior-first, so the tie-break matches
a copy-on-write fold bit-for-bit — LWW is associative, which is why
appending is sound). The merge link reads the prior chain through
``read_slices`` too. Readers take no parquet predicate: a caller's key
cut (lookup_state's semi join) runs on the folded rows. Reference
analogue: one repository layer serves every reader (the reference
parser's parser/dex/repo/repository.go:63-122).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from cosmwasm_etl_ray.compat import cached_remote, empty_dataset, row_runs, task_cap
from cosmwasm_etl_ray.stages.merge import ROW_GROUP_ROWS, _conform, fold_lww_arrow
from cosmwasm_etl_ray.state.manifest import Slice, entry_slices

FOLD_COLS = ["repo", "path", "commit"]  # what a fold reads besides the caller's columns


def partition_slices(
    store, epoch: int | None = None, touched_after: int | None = None
) -> dict[int, list[Slice]]:
    """pid -> ordered chain of slices as of ``epoch`` (default latest),
    from that ONE manifest. ``touched_after`` keeps only the pids an
    epoch in (touched_after, epoch] rewrote or appended to."""
    if epoch is None:
        epoch = store.latest_epoch()
    if epoch is None:
        return {}
    return {
        int(pid): entry_slices(info)
        for pid, info in store.manifest(epoch)["partitions"].items()
        if touched_after is None or info["epoch"] > touched_after
    }


def partition_chains(
    store, epoch: int | None = None, touched_after: int | None = None
) -> dict[int, list[str]]:
    """pid -> the files of its chain (``partition_slices`` without the
    offsets): the lineage gc_state keeps."""
    return {
        pid: [s.file for s in chain]
        for pid, chain in partition_slices(store, epoch, touched_after).items()
    }


def _row_group(starts: np.ndarray, row: int) -> int:
    """The row group that holds ``row`` (row groups start at
    ``starts``; the last entry is the file's row count)."""
    return min(int(np.searchsorted(starts, row, "right")) - 1, len(starts) - 2)


def read_slices(slices: list[Slice], columns: list[str] | None = None) -> list[pa.Table]:
    """Each slice as a table, reading each distinct file once through
    ``ParquetFile`` and only the row groups that hold a requested slice
    (the merge closes a row group only between pids, so a pid's slice
    sits in one). No dataset discovery, no predicate: a caller's key
    cut runs on the rows read."""
    by_file: dict[str, list[Slice]] = {}
    for s in slices:
        by_file.setdefault(s.file, []).append(s)
    out: dict[Slice, pa.Table] = {}
    for f, ss in by_file.items():
        pf = pq.ParquetFile(f)
        md = pf.metadata
        starts = np.cumsum([0] + [md.row_group(i).num_rows for i in range(md.num_row_groups)])
        if any(s.offset is None for s in ss):
            rgs = list(range(md.num_row_groups))
        else:
            rgs = sorted({
                rg for s in ss if s.rows
                for rg in range(
                    _row_group(starts, s.offset),
                    min(int(np.searchsorted(starts, s.offset + s.rows, "left")), len(starts) - 1),
                )
            })
        t = pf.read_row_groups(rgs, columns=columns)
        # row r of the file sits at r - shift[rg] in t
        sizes = np.diff(starts)[rgs] if rgs else np.zeros(0, np.int64)
        shift = dict(zip(rgs, starts[rgs] - np.cumsum(np.r_[0, sizes[:-1]])))
        for s in ss:
            if s.offset is None:
                out[s] = t
            elif not s.rows:
                out[s] = t.slice(0, 0)
            else:
                rg = _row_group(starts, s.offset)
                out[s] = t.slice(int(s.offset - shift.get(rg, 0)), s.rows)
    return [out[s] for s in slices]


def slices_schema(slices: list[Slice]) -> list[pa.Schema]:
    """The schemas (footers only) of the files the slices name."""
    return [pq.read_schema(f) for f in dict.fromkeys(s.file for s in slices)]


def _fold_tables(chains: list[list[pa.Table]], columns: list[str] | None) -> pa.Table | None:
    """Fold the read slices of several pids' chains into one table
    (None when every chain is empty): a one-slice chain is its state
    as read; the chains of more than one slice are concatenated, each
    in epoch order (earlier slices first — fold_lww_arrow breaks
    equal-commit ties by input position, so later epochs win exactly
    like a copy-on-write fold's prior-first concat), and LWW-folded
    once — keys never cross pids, so one fold equals a fold per pid.
    Tombstones KEPT (state semantics)."""
    out = [c[0] for c in chains if len(c) == 1]
    multi = [t for c in chains if len(c) > 1 for t in c]
    if multi:
        out.append(fold_lww_arrow(pa.concat_tables(multi, promote_options="permissive")))
    if not out:
        return None
    t = out[0] if len(out) == 1 else pa.concat_tables(out, promote_options="permissive")
    if columns is not None:
        t = t.select([c for c in columns if c in t.column_names])
    return t


def _read_group(fn, columns, group, *args):
    """One reader task: read every slice of its pids' chains (each file
    once), fold each chain position over the task's pids, and call
    ``fn`` once on the folded tables. Returns (table, schema) so the
    driver can align schemas without fetching the table."""
    cols = columns
    if columns is not None and any(len(c) > 1 for _, chains in group for c in chains):
        cols = list(dict.fromkeys([*columns, *FOLD_COLS]))
    tables = iter(read_slices([s for _, chains in group for c in chains for s in c], cols))
    read = [[[next(tables) for _ in c] for c in chains] for _, chains in group]
    n = len(group[0][1])
    t = fn(*[_fold_tables([r[i] for r in read], columns) for i in range(n)], *args)
    return t, t.schema


def _file_groups(items: dict[int, tuple[list[Slice], ...]], cap: int) -> list[list[int]]:
    """Pids in at most min(cap, ⌈rows / ROW_GROUP_ROWS⌉) groups, pids
    whose slices share a file in the same group (so a task reads each
    file it needs once and no other task reads it): connected
    components over shared files, in pid order, cut into runs of
    consecutive components of at least ROW_GROUP_ROWS rows named by
    their slices (compat.row_runs; a whole-file slice, whose rows are
    unknown, counts as ROW_GROUP_ROWS)."""
    pids = sorted(items)
    root = {p: p for p in pids}

    def find(p: int) -> int:
        while root[p] != p:
            root[p] = p = root[root[p]]
        return p

    owner: dict[str, int] = {}
    for p in pids:
        for chain in items[p]:
            for s in chain:
                a, b = find(p), find(owner.setdefault(s.file, p))
                root[max(a, b)] = min(a, b)
    comps: dict[int, list[int]] = {}
    for p in pids:
        comps.setdefault(find(p), []).append(p)
    ordered = list(comps.values())
    rows = [
        sum(ROW_GROUP_ROWS if s.rows is None else s.rows
            for p in comp for chain in items[p] for s in chain)
        for comp in ordered
    ]
    return [
        [p for comp in ordered[a:b] for p in comp]
        for a, b in row_runs(rows, cap, ROW_GROUP_ROWS)
    ]


def map_chains(
    items: dict[int, tuple[list[Slice], ...]],
    fn,
    *args,
    columns: list[str] | None = None,
) -> list[tuple[list[int], "ray.ObjectRef"]]:
    """THE state reader. ``items`` maps pid -> a tuple of chains of
    slices (one chain to read, (old, new) to diff). Pids are grouped
    by the files they share into at most min(task_cap(), ⌈rows read /
    ROW_GROUP_ROWS⌉) raw tasks, so a small read is one task; one task
    per pid measured slower than a Dataset scan (BASELINE.md, "Read
    path unified"), and one task per file of a group store reads it
    once. Each task folds its pids' chains and calls
    ``fn(*folded, *args)`` ONCE on the folded tables (one per chain
    position, all the task's pids concatenated; None where every chain
    is empty), which returns an Arrow table — keys never cross pids, so
    ``fn`` needs no per-pid loop. Returns (pids, table ref)
    per task, every table in one schema."""
    if not items:
        return []
    task = cached_remote("state_read_group", _read_group, num_returns=2)
    groups = _file_groups(items, task_cap())
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
    return ray.data.from_arrow_refs(refs) if refs else empty_dataset(empty)
