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
    Dataset blocks for apply_epoch):
        read → FlagAndPartition → fold_partial_arrow (COMBINER)
             → split by pid                      # num_returns=P
    chain task per (epoch, pid):
        concat the pid's slices (block order) → MergeWithState
        (quarantine side output + append the folded rows as a chain
        link, or fold them with the pid's chain into a new base
        + atomic part-file write); the ObjectRef of (epoch-1, pid)
        is an argument, so epochs pipeline per partition
    driver: manifest commit, strictly in epoch order

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
through the one state reader (state/delta.map_chains).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from cosmwasm_etl_ray.compat import cached_remote
from cosmwasm_etl_ray.config import DEFAULT_CONFIG, EngineConfig
from cosmwasm_etl_ray.stages.merge import (
    OP_COL,
    MergeWithState,
    fold_lww_arrow,
    fold_override,
    fold_partial_arrow,
)
from cosmwasm_etl_ray.stages.normalize import FlagAndPartition
from cosmwasm_etl_ray.state.delta import partition_chains, read_chains
from cosmwasm_etl_ray.state.manifest import manifest_entries


def _prep_split(t: "pa.Table", num_partitions: int, ruleset, combine: bool):
    """The pre-exchange half of an epoch, fused into one task body:
    flag+partition → LWW-combine (unless override mode) → slice by pid
    (single argsort + zero-copy take). Returns a ``num_returns=P``
    tuple; empty pids return None so the object store holds a tiny
    marker, not an empty table. Depends only on the epoch's own input,
    never on prior state."""
    from cosmwasm_etl_ray.functions.hashing import split_table_by_shard

    out = FlagAndPartition(num_partitions, ruleset=ruleset)(t)
    if combine:
        out = fold_partial_arrow(out)
    pid = out["pid"].to_numpy(zero_copy_only=False) if out.num_rows else None
    return split_table_by_shard(out, pid, num_partitions)


def _prep_split_shard(
    path: str, row_groups: list[int], num_partitions: int, ruleset, combine: bool
):
    """Prep task over a file shard (a run of parquet row groups).
    Fusing read+flag+combine+split into one task (instead of a
    read→map→map Dataset execution) removes the streaming executor's
    per-execution ramp and its per-operator CPU allocation, which
    measurably cap the replay at ~45% utilization on an idle 32-CPU
    box (BASELINE.md). Task count = input shards, so parallelism
    follows the data, not the operator plan."""
    t = pq.ParquetFile(path).read_row_groups(row_groups)
    return _prep_split(t, num_partitions, ruleset, combine)


def _prep_split_blocks(num_partitions: int, ruleset, combine: bool, *blocks):
    """Prep task over a run of Dataset blocks (apply_epoch's input),
    concatenated in block order — the same positional tie-break a
    file shard's row order gives."""
    from cosmwasm_etl_ray.functions.joins import _as_table

    tabs = [_as_table(b) for b in blocks if b is not None]
    tabs = [t for t in tabs if t.num_rows]
    if not tabs:
        return None if num_partitions == 1 else (None,) * num_partitions
    t = pa.concat_tables(tabs, promote_options="permissive")
    return _prep_split(t, num_partitions, ruleset, combine)


def _plan_shards(files: list[str], target_rows: int) -> list[tuple[str, list[int]]]:
    """Slice an epoch's files into prep shards of ≈target_rows
    consecutive row groups (never crossing a file). Shard granularity =
    row-group granularity, so writers control read parallelism with
    row_group_size (the generator writes 65536-row groups)."""
    shards: list[tuple[str, list[int]]] = []
    for f in sorted(files):
        md = pq.read_metadata(f)
        cur: list[int] = []
        cur_rows = 0
        for rg in range(md.num_row_groups):
            n = md.row_group(rg).num_rows
            if cur and cur_rows + n > target_rows:
                shards.append((f, cur))
                cur, cur_rows = [], 0
            cur.append(rg)
            cur_rows += n
        if cur:
            shards.append((f, cur))
    return shards


def _committed_prior(store, P: int) -> dict[int, dict]:
    """pid → committed manifest entry (chain + row counts) that each
    pid's first link appends to or folds onto, shared by replay_files
    and apply_epoch. num_partitions is part of the store's identity:
    pid = hash(key) % P routes keys to state files, so replaying with a
    different P would silently send a key's new events to a different
    partition than its existing state row. Manifests record P; refuse
    a mismatch."""
    latest = store.latest_epoch()
    if latest is None:
        return {}
    m = store.manifest(latest)
    committed_p = m.get("num_partitions")
    if committed_p is not None and committed_p != P:
        raise ValueError(
            f"store was built with num_partitions={committed_p}; "
            f"config asks for {P} — refusing to mix"
        )
    return {int(p): info for p, info in manifest_entries(m).items()}


def _launch_prep_tasks(
    batch: list[str], P: int, cfg: EngineConfig, ruleset_ref, ncpu: int
) -> tuple[int, list[list]]:
    """Fan out one epoch's file-shard prep tasks and return
    (input_rows, per_pid ref lists).

    Shard cap: in-flight ObjectRefs per epoch are shards × P, and the
    raylet measurably degrades past ~4k small objects in flight
    (BASELINE.md: 32M-row run 69.8 s → 11.0 s with coarser shards).
    Bound shards/epoch at 2×NCPU — enough to fill every core — by
    raising the per-shard row target on large epochs."""
    prep = cached_remote(("replay_prep", P), _prep_split_shard, num_returns=P)
    rows = sum(pq.read_metadata(f).num_rows for f in batch)
    target = max(cfg.batch_size, -(-rows // (2 * ncpu)))
    per_pid: list[list] = [[] for _ in range(P)]
    for path, rgs in _plan_shards(batch, target):
        refs = prep.remote(path, rgs, P, ruleset_ref, not cfg.override_coalesce)
        _route(refs, P, per_pid)
    return rows, per_pid


def _launch_prep_blocks(
    ds: "ray.data.Dataset", P: int, cfg: EngineConfig, ncpu: int
) -> list[list]:
    """apply_epoch's prep fan-out: drain the Dataset's block refs (refs
    only — blocks stay in the object store) and run runs of
    consecutive blocks through the same prep body, ≤ 2×NCPU tasks (the
    file path's shard cap)."""
    from cosmwasm_etl_ray.functions.joins import _drain_block_refs

    prep = cached_remote(("replay_prep_blocks", P), _prep_split_blocks, num_returns=P)
    ruleset_ref = ray.put(cfg.rules) if cfg.rules is not None else None
    blocks = _drain_block_refs(ds)
    per_pid: list[list] = [[] for _ in range(P)]
    n_tasks = max(1, min(len(blocks), 2 * ncpu))
    for idx in np.array_split(np.arange(len(blocks)), n_tasks) if blocks else []:
        if len(idx):
            refs = prep.remote(
                P, ruleset_ref, not cfg.override_coalesce, *[blocks[i] for i in idx]
            )
            _route(refs, P, per_pid)
    return per_pid


def _route(refs, P: int, per_pid: list[list]) -> None:
    """Append one prep task's P split refs to the per-pid lists."""
    if P == 1:
        refs = [refs]
    for p, r in enumerate(refs):
        per_pid[p].append(r)


def _entry(stats: dict) -> dict:
    """The manifest entry of one written link: a base keeps the
    copy-on-write shape; an appended link adds its chain and the
    chain files' row counts (state/manifest.py)."""
    entry = {k: stats[k] for k in ("file", "rows", "live_rows")}
    if len(stats["chain"]) > 1:
        entry["chain"], entry["chain_rows"] = stats["chain"], stats["chain_rows"]
    return entry


def _merge_pid_chain(
    state_root: str,
    epoch: int,
    pid: int,
    override: bool,
    quarantine_root: str | None,
    committed: dict | None,
    prev,
    *parts,
):
    """One link of the pid-chained merge: append THIS pid's epoch
    slices to its state as of the previous epoch, or fold them into it
    (MergeWithState decides). ``prev`` is the (stats, entry) result of
    this pid's task for epoch-1 — passing its ObjectRef makes Ray start
    this task only after the predecessor finished, so epochs pipeline
    at PARTITION granularity with no global per-epoch barrier (pid A
    can be three epochs ahead of a straggling pid B; keys never move
    between pids, so only the chain orders anything). Returns
    (stats | None, entry | None): the pid's manifest entry after this
    epoch, for the next link and the commit."""
    prior = prev[1] if prev is not None else committed
    tables = [p for p in parts if p is not None and p.num_rows > 0]
    if not tables:
        return (None, prior)
    group = pa.concat_tables(tables, promote_options="permissive")
    merge = MergeWithState(
        state_root,
        epoch,
        {pid: prior} if prior else {},
        override=override,
        quarantine_root=quarantine_root,
    )
    stats = merge(group).to_pylist()[0]
    return (stats, _entry(stats))


def _launch_chain(
    store, e: int, per_pid: list[list], cfg: EngineConfig, prior: dict, prev_refs: dict
) -> list:
    """Submit epoch ``e``'s P chain links; ``prior`` is pid → committed
    manifest entry and ``prev_refs`` pid → the previous epoch's link
    (which supersedes ``prior``). Updates ``prev_refs``."""
    chain = cached_remote("replay_chain", _merge_pid_chain)
    wave = []
    for p, parts in enumerate(per_pid):
        ref = chain.remote(
            store.state_dir,
            e,
            p,
            cfg.override_coalesce,
            store.quarantine_dir,
            prior.get(p),
            prev_refs.get(p),
            *parts,
        )
        prev_refs[p] = ref
        wave.append(ref)
    return wave


def _commit_wave(
    store,
    e: int,
    offset_range: tuple[str, str],
    rows: int | None,
    wave: list,
    P: int,
) -> dict:
    """Wait for one epoch's chain links and commit its manifest — the
    single commit protocol of every apply path."""
    done = [r for r in ray.get(wave) if r[0] is not None]
    quarantined = sum(s["quarantined"] for s, _ in done)
    touched = {s["pid"]: entry for s, entry in done}
    counts = {
        "input_events": int(rows) if rows is not None else None,
        "applied_events": int(rows) - quarantined if rows is not None else None,
        "quarantined": quarantined,
        "touched_partitions": len(touched),
    }
    return store.commit_epoch(e, touched, offset_range, counts, num_partitions=P)


def plan_epochs(files: list[str], cfg: EngineConfig) -> list[list[str]]:
    """Slice the change log's file list into epochs of ≤ epoch_max_events,
    on file boundaries only (files are commit-contiguous, like height
    batches — /root/reference/pkg/db/parser/repository.go:143-164 never
    splits a height across batches)."""
    epochs: list[list[str]] = []
    cur: list[str] = []
    cur_rows = 0
    for f in sorted(files):
        n = pq.read_metadata(f).num_rows
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
    replay's chain: block-run prep tasks → one merge link per pid →
    manifest commit (which also writes the quarantine side output per
    partition). Idempotent: re-running a committed epoch is a no-op;
    re-running an uncommitted (crashed) epoch overwrites the same
    partition files. Same links, same append-or-fold policy as
    replay_files."""
    if store.is_committed(epoch):
        return store.manifest(epoch)

    P = cfg.num_partitions
    prior = _committed_prior(store, P)
    ncpu = int(ray.cluster_resources().get("CPU", 32))
    per_pid = _launch_prep_blocks(changes, P, cfg, ncpu)
    wave = _launch_chain(store, epoch, per_pid, cfg, prior, {})
    return _commit_wave(store, epoch, offset_range, input_rows, wave, P)


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
    # bootstrap/repair/quarantine epochs (and the compaction epochs of
    # format-1 stores) carry no file range and are skipped
    for e in reversed(store.committed_epochs()):
        hi = store.manifest(e)["offset_range"][1]
        if not hi or hi in ("bootstrap", "repair", "quarantine", "compact"):
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
    epochs = plan_epochs(todo, cfg)
    if not epochs:
        return []
    return _replay_files_direct(epochs, start, store, cfg)


def _replay_files_direct(
    epochs: list[list[str]], start: int, store, cfg: EngineConfig
) -> list[dict]:
    """The replay engine: file-shard prep tasks per epoch, then the
    pid-chained merge links.

    The merge for (epoch e, pid p) is a raw task whose arguments
    include the ObjectRef of (e-1, p)'s result — Ray's dependency
    tracking replaces a global per-epoch barrier with P independent
    per-partition chains, so epoch e+1's prep and e's merges overlap
    without threads.

    Durability: each link writes its partition file tmp+rename, the
    driver commits manifests strictly in epoch order, and a crash
    leaves later epochs' orphan files that the re-run overwrites (an
    epoch exists only when its manifest does). Backpressure: at most
    MAX_WAVES epochs of split outputs are in flight; the driver
    commits (blocks on) the oldest wave first."""
    MAX_WAVES = 2
    P = cfg.num_partitions
    committed = _committed_prior(store, P)
    ruleset_ref = ray.put(cfg.rules) if cfg.rules is not None else None
    prev_refs: dict[int, object] = {}
    pending: list[tuple] = []
    out: list[dict] = []

    for i, batch in enumerate(epochs):
        e = start + i
        if store.is_committed(e):
            out.append(store.manifest(e))
            continue
        ncpu = int(ray.cluster_resources().get("CPU", 32))
        rows, per_pid = _launch_prep_tasks(batch, P, cfg, ruleset_ref, ncpu)
        wave = _launch_chain(store, e, per_pid, cfg, committed, prev_refs)
        pending.append((e, (batch[0], batch[-1]), rows, wave))
        while len(pending) >= MAX_WAVES:
            out.append(_commit_wave(store, *pending.pop(0), P))

    for entry in pending:
        out.append(_commit_wave(store, *entry, P))
    return out


def _empty_state_table() -> "pa.Table":
    """Typed empty state table (the canonical change-log value columns
    minus the store-internal op/pid/key64) — ONE definition shared by
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


def _live_rows(pid: int, t: "pa.Table", drop=(OP_COL, "pid", "key64")) -> "pa.Table":
    """The serving view of one folded chain: tombstones and
    store-internal columns dropped, Arrow-native (the wide content
    strings never convert to pandas just for a tombstone filter)."""
    t = t.filter(pc.not_equal(t[OP_COL], pa.scalar("delete")))
    return t.drop_columns([c for c in drop if c in t.column_names])


def read_state(store, epoch: int | None = None) -> "ray.data.Dataset":
    """The live current-state table (tombstones dropped) as a Dataset:
    every pid's chain as of ``epoch`` (default latest) folded by the
    one state reader (state/delta.map_chains)."""
    chains = partition_chains(store, epoch)
    return read_chains(
        {p: (c,) for p, c in chains.items()}, _live_rows, empty=_empty_state_table()
    )


def _probe_keys(pid: int, t: "pa.Table", keys: "pa.Table") -> "pa.Table":
    """The exact (repo, path) cut of a point lookup: a semi join
    against the requested key set (a key requested twice still hits
    once), tombstones and store-internal columns dropped."""
    t = t.join(keys, keys=["repo", "path"], join_type="left semi")
    return _live_rows(pid, t, (OP_COL, "pid", "key64", "epoch"))


def lookup_state(
    store, keys: "pd.DataFrame", num_partitions: int
) -> tuple["ray.data.Dataset", list[str]]:
    """Point lookups on the merge store — its serving path: fold ONLY
    the chains of the pids the (repo, path) keys hash to, so a handful
    of keys reads a handful of chains whatever the store's width. The
    repo membership test is pushed into the parquet read (statistics
    can skip row groups); the exact key probe runs in the reader task.
    Tombstoned keys simply miss. Returns the live-rows Dataset and
    every chain file read."""
    from cosmwasm_etl_ray.functions.hashing import assign_partition
    pids = np.unique(
        assign_partition(
            keys["repo"].to_numpy(dtype=object),
            keys["path"].to_numpy(dtype=object),
            num_partitions,
        )
    )
    chains = partition_chains(store)
    items = {int(p): (chains[int(p)],) for p in pids if int(p) in chains}
    files = [f for (c,) in items.values() for f in c]
    want = keys[["repo", "path"]].drop_duplicates()
    key_tab = pa.table(
        {c: pa.array(want[c].astype(str).tolist(), pa.string()) for c in ("repo", "path")}
    )
    ds = read_chains(
        items,
        _probe_keys,
        key_tab,
        filters=pc.field("repo").isin(pc.unique(key_tab["repo"])),
        empty=_empty_state_table(),
    )
    return ds, files


_DIFF_SCHEMA = pa.schema(
    [("repo", pa.string()), ("path", pa.string()),
     ("kind", pa.string()), ("commit", pa.string())]
)


def _diff_live(pid: int, old: "pa.Table | None", new: "pa.Table") -> "pa.Table":
    """Diff one pid's folded state between two committed epochs: live
    rows only (tombstones are state-internal), classified
    insert/update/delete by a full-outer key join. Commits strictly
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
    fold(chain@e_new), across folds too — so IO follows the delta, not
    the store width (the CDC-out analogue of the reference's
    synced-height incremental consumers). Rows classify
    insert/update/delete by a full-outer key merge."""
    new = partition_chains(store, e_new, touched_after=e_old)
    old = partition_chains(store, e_old) if new else {}
    return read_chains(
        {p: (old.get(p, []), c) for p, c in new.items()},
        _diff_live,
        columns=["repo", "path", "commit", OP_COL],
        empty=_DIFF_SCHEMA.empty_table(),
    )


def quick_final_state(
    changes: "ray.data.Dataset", cfg: EngineConfig = DEFAULT_CONFIG
) -> "ray.data.Dataset":
    """Single-shot replay with no persistent store (for oracle-checked
    queries and tests): same operators, minus the sink. The final fold
    runs in Arrow (override mode is the pandas exception, like the
    merge stage)."""
    flagged = changes.map_batches(
        FlagAndPartition(cfg.num_partitions, ruleset=cfg.rules),
        batch_format="pyarrow",
    )
    if cfg.override_coalesce:

        def fold_and_finalize_pd(g: pd.DataFrame) -> pd.DataFrame:
            g = g[g["valid"]].drop(columns=["valid"])
            f = fold_override(g)
            return f[f[OP_COL] != "delete"].drop(
                columns=[c for c in ("pid", "key64") if c in f.columns]
            )

        return flagged.groupby("pid").map_groups(
            fold_and_finalize_pd, batch_format="pandas"
        )

    flagged = flagged.map_batches(
        fold_partial_arrow, batch_format="pyarrow", batch_size=cfg.batch_size
    )

    def fold_and_finalize(g: "pa.Table") -> "pa.Table":
        g = g.filter(g["valid"].combine_chunks()).drop_columns(["valid"])
        f = fold_lww_arrow(g)
        f = f.filter(pc.not_equal(f[OP_COL], pa.scalar("delete")))
        return f.drop_columns([c for c in ("pid", "key64") if c in f.column_names])

    return flagged.groupby("pid").map_groups(
        fold_and_finalize, batch_format="pyarrow"
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
