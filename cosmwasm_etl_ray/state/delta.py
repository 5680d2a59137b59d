"""Delta state layout: per-epoch APPEND instead of copy-on-write.

The 1B-event soak (SOAK_1B.json) diagnosed the full layout's scale
limiter: every epoch rewrites every dirty partition's ENTIRE state
(replay_sec ~= apply + ~2-3 s per GB of state), so at high key counts
the checkpoint rewrite — not the apply — bounds throughput, and the
write volume per epoch is O(total state) even when the epoch touched
1% of keys.

``state_layout="delta"`` makes the checkpoint write O(TOUCHED keys):
the merge folds only the epoch's own rows and appends one delta file
per (epoch, pid); reads fold the per-pid chain [base?, delta, delta,
...] with the SAME fold_lww_arrow (prior-first concat order, so the
tie-break matches the full layout bit-for-bit — LWW is associative,
which is the whole reason this layout is sound). Periodic
``compact_state`` folds chains into a new base generation (committed
as a synthetic manifest epoch with offset_range "compact", which the
resume cursor walk skips), after which chain-aware gc_state sweeps
the covered deltas. This is the same append+compact discipline the
transfer-parser store proves out, applied to the CDC merge store.

Trade: reads pay a fold over the chain until compaction. The right
layout is workload-dependent — full for small state / read-heavy,
delta for large state / low touch density (the common CDC regime) —
so it is a config, measured in BASELINE.md round 5.

Written only by ``replay_files`` (whole-row LWW; Override mode and
``apply_epoch`` refuse delta stores), and ``compact_state`` refuses
full-layout stores. ``epoch_diff``/``_diff_pid`` time-travel diffs
stay full-layout-only
(documented); ``read_state``/``lookup_state``/``state-at-epoch`` are
layout-aware via the helpers here.

Reference analogue: the Postgres sink gets deltas for free from heap
append + vacuum (/root/reference/parser/dex/repo/repository.go:63-122);
a Parquet lake must choose the layout explicitly.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray

from cosmwasm_etl_ray.stages.merge import (
    OP_COL,
    STATE_CODEC,
    fold_lww_arrow,
)


def store_layout(store) -> str:
    """The store's committed layout ("full" | "delta"), from the
    latest manifest; an empty store has no layout yet."""
    latest = store.latest_epoch()
    if latest is None:
        return "full"
    return store.manifest(latest).get("layout") or "full"


def partition_chains(store, epoch: int | None = None) -> dict[int, list[str]]:
    """pid -> ordered file chain as of ``epoch`` (default latest).
    Walk committed manifests in epoch order; a manifest contributes a
    pid's file iff it TOUCHED that pid (info["epoch"] == manifest
    epoch — carried-forward entries are skipped); a base entry
    (compaction output, info["base"]) RESETS the pid's chain."""
    epochs = store.committed_epochs()
    if epoch is not None:
        epochs = [e for e in epochs if e <= epoch]
    chains: dict[int, list[str]] = {}
    for e in epochs:
        for pid_s, info in store.manifest(e)["partitions"].items():
            if info.get("epoch") != e:
                continue  # carried forward, already in the chain
            pid = int(pid_s)
            if info.get("base"):
                chains[pid] = [info["file"]]
            else:
                chains.setdefault(pid, []).append(info["file"])
    return chains


_EPOCH_DIR_RE = None


def _file_epoch(path: str) -> int:
    import re

    global _EPOCH_DIR_RE
    if _EPOCH_DIR_RE is None:
        _EPOCH_DIR_RE = re.compile(r"epoch=(\d+)")
    m = _EPOCH_DIR_RE.search(path)
    return int(m.group(1)) if m else -1


def fold_chain(files: list[str]) -> pa.Table:
    """Fold one pid's chain: concat in epoch order (earlier files
    first — fold_lww_arrow breaks equal-commit ties by input position,
    so later epochs win exactly like the full layout's prior-first
    concat) and LWW-fold. Tombstones KEPT (state semantics).

    Each row carries an ``epoch`` column (the chain file it survived
    from) for schema parity with the full layout's hive-partition
    column — with sharper semantics: full mode stamps a row with the
    epoch that last rewrote its PARTITION, delta with the epoch that
    last wrote the ROW. The column is a layout artifact either way
    (lookup_state drops it; no gate query reads it)."""
    tables = []
    for f in files:
        t = pq.read_table(f)
        if "epoch" not in t.column_names:
            # string-typed to match Ray's hive-partition inference on
            # the full layout (epoch=N dirs surface as string values)
            t = t.append_column(
                "epoch",
                pa.array([str(_file_epoch(f))] * t.num_rows, pa.string()),
            )
        tables.append(t)
    if len(tables) == 1:
        return tables[0]
    return fold_lww_arrow(
        pa.concat_tables(tables, promote_options="permissive")
    )


@ray.remote
def _fold_chain_live(files: list[str]) -> pa.Table:
    """Raw fold task for read_state: folded chain with tombstones and
    store-internal columns dropped (the serving view)."""
    import pyarrow.compute as pc

    t = fold_chain(files)
    t = t.filter(pc.not_equal(t[OP_COL], pa.scalar("delete")))
    return t.drop_columns(
        [c for c in (OP_COL, "pid", "key64") if c in t.column_names]
    )


def read_state_delta(store, epoch: int | None = None) -> "ray.data.Dataset":
    """Delta-layout twin of read_state: one fold task per pid chain,
    streamed into a Dataset (chains read in parallel; nothing funnels
    through the driver)."""
    import ray.data

    chains = partition_chains(store, epoch)
    if not chains:
        from cosmwasm_etl_ray.pipelines.replay import _empty_state_table

        return ray.data.from_arrow(_empty_state_table())
    refs = [_fold_chain_live.remote(c) for _, c in sorted(chains.items())]
    return ray.data.from_arrow_refs(refs)


def lookup_state_delta(
    store, keys, num_partitions: int
) -> tuple["ray.data.Dataset", list[str]]:
    """Delta-layout twin of lookup_state: prune to the pids the keys
    hash to, fold ONLY those chains, filter to the requested keys.
    Returns (live rows Dataset, list of files read)."""
    import numpy as np
    import ray.data

    from cosmwasm_etl_ray.functions.hashing import assign_partition
    from cosmwasm_etl_ray.pipelines.replay import _empty_state_table, _key_probe

    pids = np.unique(
        assign_partition(
            keys["repo"].to_numpy(dtype=object),
            keys["path"].to_numpy(dtype=object),
            num_partitions,
        )
    )
    chains = partition_chains(store)
    touched = {int(p): chains[int(p)] for p in pids if int(p) in chains}
    files = [f for c in touched.values() for f in c]
    if not touched:
        return ray.data.from_arrow(_empty_state_table()), []
    refs = [_fold_chain_live.remote(c) for _, c in sorted(touched.items())]
    ds = ray.data.from_arrow_refs(refs)
    return ds.map_batches(_key_probe(keys), batch_format="pandas"), files


@ray.remote
def _compact_pid(files: list[str], out: str) -> dict:
    """Fold one chain into a base file (tmp+rename; task retries
    overwrite idempotently)."""
    import pyarrow.compute as pc

    t = fold_chain(files)
    tmp = f"{out}.tmp.{os.getpid()}"
    pq.write_table(t, tmp, **STATE_CODEC)
    os.replace(tmp, out)
    live = int(
        pc.sum(pc.not_equal(t[OP_COL], pa.scalar("delete"))).as_py() or 0
    )
    return {"rows": t.num_rows, "live_rows": live, "file": out}


def compact_state(store) -> dict | None:
    """Fold every pid chain into a base generation, committed as a
    synthetic manifest epoch (offset_range "compact" — the resume
    cursor walk skips it, so replay continues from the last FILE
    cursor exactly as before). After this commits, chain-aware
    gc_state can sweep the covered delta files. Single-compactor
    discipline (the replay driver owns the store); returns the
    manifest, or None on an empty store."""
    latest = store.latest_epoch()
    if latest is None:
        return None
    if store_layout(store) != "delta":
        raise ValueError(
            "compact_state is delta-layout only: a full-layout store "
            "already holds one state file per pid, and a base "
            "generation committed over it would switch the store's "
            "layout identity — replay with state_layout='delta'"
        )
    chains = partition_chains(store)
    if not chains or all(len(c) == 1 for c in chains.values()):
        return None  # already one file per pid
    e = latest + 1
    out_dir = os.path.join(store.state_dir, f"epoch={e}")
    os.makedirs(out_dir, exist_ok=True)
    refs = {
        pid: _compact_pid.remote(
            chain, os.path.join(out_dir, f"part-{pid:05d}.parquet")
        )
        for pid, chain in sorted(chains.items())
    }
    touched = {}
    total_rows = 0
    for pid, r in zip(refs, ray.get(list(refs.values()))):
        touched[pid] = {**r, "base": True}
        total_rows += r["rows"]
    return store.commit_epoch(
        e,
        touched,
        ("compact", "compact"),
        {
            "input_events": 0,
            "applied_events": 0,
            "quarantined": 0,
            "touched_partitions": len(touched),
            "compacted_rows": total_rows,
        },
        num_partitions=store.manifest(latest).get("num_partitions"),
        layout="delta",
    )
