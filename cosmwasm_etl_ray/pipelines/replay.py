"""The CDC replay pipeline: tail → normalize → exchange → merge → commit.

Graft of the reference parser's Run loop
(/root/reference/parser/dex/dex.go:87-267): the contiguous height
range becomes a contiguous range of change-log files (an epoch), the
per-height parse becomes vectorized Arrow kernels, the one-transaction
insert+cursor becomes per-partition Parquet writes + a manifest commit,
and quarantine rows become a side output under the same epoch.

ONE execution shape applies every epoch — ``replay_files`` (the CLI,
``tail_changes``, the gate) and ``apply_epoch`` (repair, quarantine
replay, bootstrap) both run it:

    prep task per input shard (parquet row groups, or a run of
    Dataset blocks for apply_epoch, each block prepped on its own):
        read → flag → encode repo, path once → pid, and the
        COMBINER (stages/merge.combine_keep), from those codes
             → one take, split by pid-group      # num_returns=G
    chain task per (epoch, pid-group):
        concat the group's slices (block order kept) → ONE
        MergeWithState call: per pid, append its folded rows as a
        chain link or fold them with its chain into a new base; one
        fold, one group file (rows in (pid, repo, path) order) and one
        quarantine file, each tmp + rename; the ObjectRef of
        (epoch-1, group) is an argument, so epochs pipeline per group
    driver: manifest commit, strictly in epoch order

G groups of consecutive pids are the unit of parallelism and of the
state file, like Flink's key groups: each (epoch, group) writes one
file, and each pid's manifest entry names its slice of it (file,
offset, rows). G comes from rows, capped by 2×NCPU, and is set once per
call: G = min(P, compat.task_cap(), ⌈(committed state rows + largest
epoch's input rows) / stages/merge.ROW_GROUP_ROWS⌉) — the rows a dense
(folding) epoch writes at most — so a small store writes one group
file an epoch, and one that grows past the target fans out again on
its next call. P stays the store's identity — the unit of routing and
of the append-or-fold decision — and G is never recorded: another G
writes the same pid slices into differently grouped files.

Raw Ray tasks, not a Dataset groupby: the hash-shuffle operator spawns
an aggregator pool per execution (a measured fixed cost per epoch,
BASELINE.md), and the routing here needs no repartition decision —
``pid`` is assigned upstream and P is fixed by the store.

Every store is a chain store with one write policy, owned by the
merge link: from the counts in the pid's committed manifest entry (or
the previous link's result) it appends while the chain is short and
small next to its base, and folds otherwise (stages/merge.appends), so
dense epochs write copy-on-write bases and sparse ones append. Reads —
``read_state``, ``lookup_state``, ``epoch_diff`` — fold per-pid chains
through the one state reader (state/delta.map_chains), which reads each
group file once per task and calls the reader's function once per task.
"""

from __future__ import annotations

import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from cosmwasm_etl_ray.compat import cached_remote, task_cap
from cosmwasm_etl_ray.config import DEFAULT_CONFIG, EngineConfig
from cosmwasm_etl_ray.functions.hashing import (
    assign_partition,
    encode_keys,
    partition_of_codes,
    split_table_by_shard,
)
from cosmwasm_etl_ray.stages.merge import OP_COL, ROW_GROUP_ROWS, MergeWithState, combine_keep
from cosmwasm_etl_ray.stages.normalize import flag
from cosmwasm_etl_ray.state.delta import partition_slices, read_chains
from cosmwasm_etl_ray.state.manifest import entry_chain_rows


def _pid_groups(P: int, cap: int) -> list[int]:
    """Bounds of the G = min(P, cap) pid-groups, sizes differing by at
    most one: group g holds pids bounds[g] .. bounds[g+1]-1."""
    G = min(P, cap)
    return [g * (P // G) + min(g, P % G) for g in range(G + 1)]


def _prep_split(t: "pa.Table", bounds: list[int], ruleset, combine: bool):
    """The pre-exchange half of an epoch, fused into one task body:
    flag → encode ``repo`` and ``path`` once → pid and LWW-combine
    (unless override mode) both from those codes → ONE ``take`` of the
    kept rows in (pid-group, position) order, sliced per pid-group.
    Returns a ``num_returns=G`` tuple; empty groups return None so the
    object store holds a tiny marker, not an empty table. Depends only
    on the epoch's own input, never on prior state."""
    t = flag(t, ruleset)
    repo, path = encode_keys(t["repo"]), encode_keys(t["path"])
    pid = partition_of_codes(repo, path, bounds[-1])
    t = t.append_column("pid", pa.array(pid, type=pa.int32()))
    keep = combine_keep(t, repo, path) if combine else None
    group = np.searchsorted(bounds, pid, "right") - 1
    return split_table_by_shard(t, group, len(bounds) - 1, rows=keep)


def _prep_split_shard(path: str, row_groups: list[int], bounds: list[int], ruleset, combine: bool):
    """Prep task over a file shard (a run of parquet row groups).
    Fusing read+flag+combine+split into one task (instead of a
    read→map→map Dataset execution) removes the streaming executor's
    per-execution ramp and its per-operator CPU allocation, which
    measurably cap the replay at ~45% utilization on an idle 32-CPU
    box (BASELINE.md). Task count = input shards, so parallelism
    follows the data, not the operator plan."""
    t = pq.ParquetFile(path).read_row_groups(row_groups)
    return _prep_split(t, bounds, ruleset, combine)


def _prep_split_blocks(bounds: list[int], ruleset, combine: bool, *blocks):
    """Prep task over a run of Dataset blocks (apply_epoch's input):
    each block runs the prep body on its own, like a file shard, and
    each group returns its blocks' slices as a list in block order (or
    None) — never concatenated here, so a column one block adds reaches
    only the pids of that block's rows."""
    from cosmwasm_etl_ray.functions.joins import _as_table

    G = len(bounds) - 1
    groups: list[list] = [[] for _ in range(G)]
    for b in blocks:
        t = None if b is None else _as_table(b)
        if t is None or not t.num_rows:
            continue
        split = _prep_split(t, bounds, ruleset, combine)
        for g, s in enumerate([split] if G == 1 else split):
            if s is not None:
                groups[g].append(s)
    out = [g or None for g in groups]
    return out[0] if G == 1 else tuple(out)


def _row_groups(files: list[str]) -> dict[str, list[int]]:
    """file → the row counts of its row groups: the one footer read of
    each change-log file a call makes (epoch plan, G, prep shards)."""
    out = {}
    for f in files:
        md = pq.read_metadata(f)
        out[f] = [md.row_group(rg).num_rows for rg in range(md.num_row_groups)]
    return out


def _plan_shards(
    files: list[str], sizes: dict[str, list[int]], target_rows: int
) -> list[tuple[str, list[int]]]:
    """Slice an epoch's files into prep shards of ≈target_rows
    consecutive row groups (never crossing a file; ``sizes`` from
    ``_row_groups``). Shard granularity = row-group granularity, so
    writers control read parallelism with row_group_size (the generator
    writes 65536-row groups)."""
    shards: list[tuple[str, list[int]]] = []
    for f in sorted(files):
        cur: list[int] = []
        cur_rows = 0
        for rg, n in enumerate(sizes[f]):
            if cur and cur_rows + n > target_rows:
                shards.append((f, cur))
                cur, cur_rows = [], 0
            cur.append(rg)
            cur_rows += n
        if cur:
            shards.append((f, cur))
    return shards


def _committed_prior(
    store, P: int, cap: int, input_rows: int | None
) -> tuple[list[int], dict[int, tuple]]:
    """The call's pid-group bounds and group → ([], pid → committed
    manifest entry (chain + row counts)): each group's first link reads
    it in place of a predecessor's result. G = min(P, cap, ⌈(committed
    state rows + input_rows) / ROW_GROUP_ROWS⌉), the state rows summed
    over every pid's chain (a bare entry counts as ROW_GROUP_ROWS):
    that sum bounds what a dense (folding) epoch writes. Unknown
    ``input_rows`` leave G at min(P, cap). num_partitions (P) is part
    of the store's identity: pid = hash(key) % P routes keys to state
    files, so replaying with a different P would silently send a key's
    new events to a different partition than its existing state row.
    Manifests record P; refuse a mismatch."""
    latest = store.latest_epoch()
    m = store.manifest(latest) if latest is not None else {}
    committed_p = m.get("num_partitions")
    if committed_p is not None and committed_p != P:
        raise ValueError(
            f"store was built with num_partitions={committed_p}; "
            f"config asks for {P} — refusing to mix"
        )
    committed = {int(p): info for p, info in m.get("partitions", {}).items()}
    if input_rows is not None:
        rows = sum(sum(entry_chain_rows(i) or [ROW_GROUP_ROWS]) for i in committed.values())
        cap = min(cap, max(1, -(-(rows + input_rows) // ROW_GROUP_ROWS)))
    bounds = _pid_groups(P, cap)
    return bounds, {
        g: ([], {p: committed[p] for p in range(lo, hi) if p in committed})
        for g, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    }


def _launch_prep_tasks(
    batch: list[str],
    sizes: dict[str, list[int]],
    rows: int,
    bounds: list[int],
    cfg: EngineConfig,
    ruleset_ref,
    cap: int,
) -> list:
    """Fan out the file-shard prep tasks of one epoch of ``rows`` rows
    and return each task's G group refs (``sizes`` from
    ``_row_groups``).

    Shard cap: in-flight ObjectRefs per epoch are shards × G, and the
    raylet measurably degrades past ~4k small objects in flight
    (BASELINE.md: 32M-row run 69.8 s → 11.0 s with coarser shards).
    Bound shards/epoch at ``cap`` (2×NCPU, enough to fill every core)
    by raising the per-shard row target on large epochs."""
    G = len(bounds) - 1
    prep = cached_remote(("replay_prep", G), _prep_split_shard, num_returns=G)
    target = max(cfg.batch_size, -(-rows // cap))
    return [
        prep.remote(path, rgs, bounds, ruleset_ref, not cfg.override_coalesce)
        for path, rgs in _plan_shards(batch, sizes, target)
    ]


def _launch_prep_blocks(
    ds: "ray.data.Dataset", bounds: list[int], cfg: EngineConfig, cap: int
) -> list:
    """apply_epoch's prep fan-out: drain the Dataset's block refs (refs
    only — blocks stay in the object store) IN DATASET ORDER (the
    executor otherwise yields them as they complete, and block order is
    the tie-break and the quarantine row order) and run runs of
    consecutive blocks through the same prep body, ≤ ``cap`` tasks
    (the file path's shard cap)."""
    from cosmwasm_etl_ray.functions.joins import _drain_block_refs

    G = len(bounds) - 1
    prep = cached_remote(("replay_prep_blocks", G), _prep_split_blocks, num_returns=G)
    ruleset_ref = ray.put(cfg.rules) if cfg.rules is not None else None
    ds = ray.data.Dataset.copy(ds, _deep_copy=True)  # own context: the caller's is untouched
    ds.context.execution_options.preserve_order = True
    blocks = _drain_block_refs(ds)
    n_tasks = max(1, min(len(blocks), cap))
    return [
        prep.remote(bounds, ruleset_ref, not cfg.override_coalesce, *[blocks[i] for i in idx])
        for idx in (np.array_split(np.arange(len(blocks)), n_tasks) if blocks else [])
        if len(idx)
    ]


def _entry(stats: dict) -> dict:
    """The manifest entry of one pid's written slice: a base names its
    slice; an appended link adds its chain's slices (files, offsets and
    row counts, state/manifest.py)."""
    entry = {k: stats[k] for k in ("file", "offset", "rows", "live_rows")}
    if len(stats["chain"]) > 1:
        for k in ("chain", "chain_offsets", "chain_rows"):
            entry[k] = stats[k]
    return entry


def _merge_group_chain(
    state_root: str,
    epoch: int,
    override: bool,
    quarantine_root: str | None,
    prev: tuple,
    *parts,
):
    """One link of the group-chained merge: ONE MergeWithState call
    writes the epoch's rows of every pid of the group that has any —
    each appended to its state as of the previous epoch or folded into
    it (decided per pid) — as one group file. ``prev`` is the group's
    (stats, pid → entry) from its task for epoch-1 — passing that
    ObjectRef makes Ray start this task only after the predecessor
    finished, so epochs pipeline per group with no global barrier — or
    the committed seed. A part is a prep task's slice of the group: a
    table, a list of them (one per Dataset block) or None; they concat
    in input order, which keeps each pid's rows in input order (the
    fold's tie-break). Returns (stats of the pids written, pid →
    entry)."""
    prior = dict(prev[1])
    parts = [
        t for p in parts for t in (p if isinstance(p, list) else [p])
        if t is not None and t.num_rows
    ]
    if not parts:
        return ([], prior)
    merge = MergeWithState(state_root, epoch, prior, override, quarantine_root)
    stats = merge(pa.concat_tables(parts, promote_options="permissive")).to_pylist()
    for s in stats:
        prior[s["pid"]] = _entry(s)
    return (stats, prior)


def _launch_chain(
    store, e: int, preps: list, bounds: list[int], cfg: EngineConfig, prev_refs: dict
) -> list:
    """Submit epoch ``e``'s G chain links, each fed its slice of every
    prep task; ``prev_refs`` is group → the previous link's ref (or the
    committed seed). Updates ``prev_refs``."""
    chain = cached_remote("replay_chain", _merge_group_chain)
    G = len(bounds) - 1
    for g in range(G):
        prev_refs[g] = chain.remote(
            store.state_dir,
            e,
            cfg.override_coalesce,
            store.quarantine_dir,
            prev_refs[g],
            *[r if G == 1 else r[g] for r in preps],
        )
    return [prev_refs[g] for g in range(G)]


_LAYERS = ("read_s", "fold_s", "write_s")


def _commit_wave(
    store,
    e: int,
    offset_range: tuple[str, str],
    rows: int | None,
    wave: list,
    P: int,
) -> dict:
    """Wait for one epoch's chain links and commit its manifest — the
    single commit protocol of every apply path. The manifest's
    ``timings`` block records the links' summed layer times and bytes,
    the slowest link's total, the number of state files the epoch
    wrote (``groups``) and the driver's wait for the wave."""
    t0 = time.perf_counter()
    done = ray.get(wave)
    wait_s = time.perf_counter() - t0
    quarantined = sum(s["quarantined"] for written, _ in done for s in written)
    touched = {s["pid"]: entries[s["pid"]] for written, entries in done for s in written}
    counts = {
        "input_events": int(rows) if rows is not None else None,
        "applied_events": int(rows) - quarantined if rows is not None else None,
        "quarantined": quarantined,
        "touched_partitions": len(touched),
    }
    timings = {
        k: sum(s[k] for written, _ in done for s in written)
        for k in (*_LAYERS, "bytes_written")
    }
    timings["slowest_group_s"] = max(
        (sum(s[k] for s in written for k in _LAYERS) for written, _ in done), default=0.0
    )
    timings["groups"] = len({s["file"] for written, _ in done for s in written})
    timings["wait_s"] = wait_s
    return store.commit_epoch(
        e, touched, offset_range, counts, num_partitions=P, timings=timings
    )


def plan_epochs(
    files: list[str], cfg: EngineConfig, sizes: dict[str, list[int]] | None = None
) -> list[list[str]]:
    """Slice the change log's file list into epochs of ≤ epoch_max_events,
    on file boundaries only (files are commit-contiguous, like height
    batches — /root/reference/pkg/db/parser/repository.go:143-164 never
    splits a height across batches). ``sizes`` (``_row_groups``) is
    read from the files when not given."""
    sizes = sizes if sizes is not None else _row_groups(files)
    epochs: list[list[str]] = []
    cur: list[str] = []
    cur_rows = 0
    for f in sorted(files):
        n = sum(sizes[f])
        if cur and cur_rows + n > cfg.epoch_max_events:
            epochs.append(cur)
            cur, cur_rows = [], 0
        cur.append(f)
        cur_rows += n
    if cur:
        epochs.append(cur)
    return epochs


def apply_epoch(
    changes: "ray.data.Dataset",
    store,
    epoch: int,
    cfg: EngineConfig = DEFAULT_CONFIG,
    offset_range: tuple[str, str] = ("", ""),
    input_rows: int | None = None,
) -> dict:
    """Apply one epoch of change events held in a Dataset through the
    replay's chain: block-run prep tasks → one merge link per
    pid-group → manifest commit (the links also write the quarantine
    side output per partition). Idempotent: re-running a committed
    epoch is a no-op; re-running an uncommitted (crashed) epoch
    overwrites the same partition files. Same links, same
    append-or-fold policy as replay_files; G follows the committed
    state's rows plus ``input_rows`` (at the cap when it is None)."""
    if store.is_committed(epoch):
        return store.manifest(epoch)

    cap = task_cap()
    bounds, prev_refs = _committed_prior(store, cfg.num_partitions, cap, input_rows)
    preps = _launch_prep_blocks(changes, bounds, cfg, cap)
    wave = _launch_chain(store, epoch, preps, bounds, cfg, prev_refs)
    return _commit_wave(store, epoch, offset_range, input_rows, wave, cfg.num_partitions)


def pending_files(files: list[str], store) -> tuple[list[str], int]:
    """Durable resume point: the files not yet covered by a committed
    manifest, plus the next epoch number. Epoch membership is decided by
    the committed manifest's ``offset_range`` high file — NOT by
    re-planning epochs over the current file list, which would silently
    absorb a file appended after commit into an already-committed
    epoch's slice and skip it forever (a partially-filled last epoch
    plus a late file used to do exactly that)."""
    files = sorted(files)
    latest = store.latest_epoch()
    if latest is None:
        return files, 0
    fileset = set(files)
    # walk manifests newest-first to the most recent FILE cursor —
    # bootstrap/repair/quarantine epochs carry no file range and are
    # skipped
    for e in reversed(store.committed_epochs()):
        hi = store.manifest(e)["offset_range"][1]
        if not hi or hi in ("bootstrap", "repair", "quarantine"):
            continue
        if hi in fileset:
            return files[files.index(hi) + 1 :], latest + 1
        raise ValueError(
            f"resume cursor file {hi!r} is missing from the change log; "
            "the source was truncated or the log dir is wrong"
        )
    # no file-based cursor at all: every listed file is pending
    return files, latest + 1


def replay_files(
    files: list[str], store, cfg: EngineConfig = DEFAULT_CONFIG
) -> list[dict]:
    """Tail the change log: resume from the cursor (the last committed
    manifest's offset_range), apply every remaining epoch in order. The
    epoch barrier is the reference's parent-height wait analogue
    (/root/reference/aggregator/task.go:785-811): epoch e+1's merge
    reads epoch e's state — per partition, through the chain."""
    todo, start = pending_files(files, store)
    sizes = _row_groups(todo)
    epochs = plan_epochs(todo, cfg, sizes)
    if not epochs:
        return []
    return _replay_files_direct(epochs, sizes, start, store, cfg)


def _replay_files_direct(
    epochs: list[list[str]], sizes: dict[str, list[int]], start: int, store, cfg: EngineConfig
) -> list[dict]:
    """The replay engine: file-shard prep tasks per epoch, then the
    group-chained merge links.

    The merge for (epoch e, pid-group g) is a raw task whose arguments
    include the ObjectRef of (e-1, g)'s result — Ray's dependency
    tracking replaces a global per-epoch barrier with G independent
    chains, so epoch e+1's prep and e's merges overlap without
    threads. G is fixed once per call, from the committed state's rows
    and the largest epoch's (``_committed_prior``): a link only chains
    to its own group's predecessor.

    Durability: each link writes its partition file tmp+rename, the
    driver commits manifests strictly in epoch order, and a crash
    leaves later epochs' orphan files that the re-run overwrites (an
    epoch exists only when its manifest does). Backpressure: at most
    MAX_WAVES epochs of split outputs are in flight; the driver
    commits (blocks on) the oldest wave first."""
    MAX_WAVES = 2
    P = cfg.num_partitions
    cap = task_cap()
    rows = [sum(sum(sizes[f]) for f in batch) for batch in epochs]
    bounds, prev_refs = _committed_prior(store, P, cap, max(rows))
    ruleset_ref = ray.put(cfg.rules) if cfg.rules is not None else None
    pending: list[tuple] = []
    out: list[dict] = []

    for i, batch in enumerate(epochs):
        e = start + i
        if store.is_committed(e):
            out.append(store.manifest(e))
            continue
        preps = _launch_prep_tasks(batch, sizes, rows[i], bounds, cfg, ruleset_ref, cap)
        wave = _launch_chain(store, e, preps, bounds, cfg, prev_refs)
        pending.append((e, (batch[0], batch[-1]), rows[i], wave))
        while len(pending) >= MAX_WAVES:
            out.append(_commit_wave(store, *pending.pop(0), P))

    for entry in pending:
        out.append(_commit_wave(store, *entry, P))
    return out


def _empty_state_table() -> "pa.Table":
    """Typed empty state table (the canonical change-log value columns
    minus the store-internal op/pid) — ONE definition shared by
    read_state and lookup_state so an empty store cannot produce two
    different schemas (the mixed-schema-union hazard)."""
    return pa.table(
        {
            "repo": pa.array([], pa.string()),
            "path": pa.array([], pa.string()),
            "commit": pa.array([], pa.string()),
            "lang": pa.array([], pa.string()),
            "content": pa.array([], pa.string()),
        }
    )


def _live_rows(t: "pa.Table") -> "pa.Table":
    """The serving view of folded chains: tombstones and the
    store-internal ``op``/``pid`` columns dropped, Arrow-native (the
    wide content strings never convert to pandas just for a tombstone
    filter)."""
    t = t.filter(pc.not_equal(t[OP_COL], pa.scalar("delete")))
    return t.drop_columns([c for c in (OP_COL, "pid") if c in t.column_names])


def read_state(store, epoch: int | None = None) -> "ray.data.Dataset":
    """The live current-state table (tombstones dropped) as a Dataset:
    every pid's chain as of ``epoch`` (default latest) folded by the
    one state reader (state/delta.map_chains)."""
    chains = partition_slices(store, epoch)
    return read_chains(
        {p: (c,) for p, c in chains.items()}, _live_rows, empty=_empty_state_table()
    )


def _probe_keys(t: "pa.Table", keys: "pa.Table") -> "pa.Table":
    """The exact (repo, path) cut of a point lookup: a semi join
    against the requested key set (a key requested twice still hits
    once), tombstones and store-internal columns dropped."""
    t = t.join(keys, keys=["repo", "path"], join_type="left semi")
    return _live_rows(t)


def lookup_state(
    store, keys: "pd.DataFrame", num_partitions: int
) -> tuple["ray.data.Dataset", list[str]]:
    """Point lookups on the merge store — its serving path: fold ONLY
    the chains of the pids the (repo, path) keys hash to, so a handful
    of keys reads a handful of slices whatever the store's width; the
    exact key probe runs on the folded chains in the reader task.
    Tombstoned keys simply miss. Returns the live-rows Dataset and the
    distinct state files read (a group file once, however many of its
    pids were probed)."""
    pids = np.unique(
        assign_partition(
            keys["repo"].to_numpy(dtype=object),
            keys["path"].to_numpy(dtype=object),
            num_partitions,
        )
    )
    chains = partition_slices(store)
    items = {int(p): (chains[int(p)],) for p in pids if int(p) in chains}
    files = list(dict.fromkeys(s.file for (c,) in items.values() for s in c))
    want = keys[["repo", "path"]].drop_duplicates()
    key_tab = pa.table(
        {c: pa.array(want[c].astype(str).tolist(), pa.string()) for c in ("repo", "path")}
    )
    ds = read_chains(
        items,
        _probe_keys,
        key_tab,
        empty=_empty_state_table(),
    )
    return ds, files


_DIFF_SCHEMA = pa.schema(
    [("repo", pa.string()), ("path", pa.string()),
     ("kind", pa.string()), ("commit", pa.string())]
)


def _diff_live(old: "pa.Table | None", new: "pa.Table") -> "pa.Table":
    """Diff folded state between two committed epochs (one reader
    task's pids): live rows only (tombstones are state-internal),
    classified insert/update/delete by a full-outer key join — keys
    never cross pids, so one join serves all of them. Commits strictly
    increase per key, so an update always changes the commit —
    (key, commit) equality means unchanged. Typed output even when
    nothing live changed: the mixed-schema hazard."""

    def live(t: "pa.Table") -> "pa.Table":
        t = t.filter(pc.not_equal(t[OP_COL], pa.scalar("delete")))
        return t.select(["repo", "path", "commit"])

    new = live(new)
    old = new.slice(0, 0) if old is None else live(old)
    m = old.join(new, ["repo", "path"], join_type="full outer",
                 left_suffix="_old", right_suffix="_new")
    m = m.filter(pc.invert(pc.fill_null(pc.equal(m["commit_old"], m["commit_new"]), False)))
    o, n = m["commit_old"], m["commit_new"]
    kind = pc.if_else(pc.is_null(o), pa.scalar("insert"), pc.if_else(
        pc.is_null(n), pa.scalar("delete"), pa.scalar("update")))
    return pa.table([m["repo"], m["path"], kind, pc.coalesce(n, o)], schema=_DIFF_SCHEMA)


def epoch_diff(store, e_old: int, e_new: int) -> "ray.data.Dataset":
    """The change feed BETWEEN two committed epochs, read delta-bounded:
    manifest lineage says which pids epoch (e_old, e_new] touched, and
    ONLY those pids are read — fold(chain@e_old) against
    fold(chain@e_new), across folds too, the two chains' slices may sit
    in different files — so IO follows the delta, not the store width
    (the CDC-out analogue of the reference's synced-height incremental
    consumers). Rows classify insert/update/delete by a full-outer key
    merge."""
    new = partition_slices(store, e_new, touched_after=e_old)
    old = partition_slices(store, e_old) if new else {}
    return read_chains(
        {p: (old.get(p, []), c) for p, c in new.items()},
        _diff_live,
        columns=["repo", "path", "commit", OP_COL],
        empty=_DIFF_SCHEMA.empty_table(),
    )


def serial_oracle_replay(changes_df: pd.DataFrame) -> pd.DataFrame:
    """Independent serial reference apply (plain dict LWW) — the test
    oracle (SURVEY.md §5): NOT built on the engine's fold code."""
    state: dict[tuple[str, str], dict] = {}
    df = changes_df.sort_values("commit", kind="stable")
    for row in df.to_dict("records"):
        if not row.get("commit") or not str(row["commit"]).isdigit():
            continue
        key = (row["repo"], row["path"])
        if row["op"] == "delete":
            state.pop(key, None)
        elif row["op"] in ("insert", "update"):
            state[key] = row
    rows = [
        {k: v for k, v in r.items() if k != "op"} for r in state.values()
    ]
    return pd.DataFrame(rows)
