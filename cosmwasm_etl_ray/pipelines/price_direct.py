"""Direct raw-task exchange for the incremental PriceTask — the same
treatment the replay's merge path gets (`pipelines/replay.py`), applied to
the derived DAG's one expensive stage (measured 61 s of the 8M-event
derived tick; the Dataset-shuffle shape spends ~19 s per epoch in
executor ramp + hash-shuffle for ~4M skinny rows).

The structural win over the Dataset shape: the prior epoch's state is
ALREADY partitioned by the replay's pid (``assign_partition``: its
partition chains), so the state side of the J6 state ⋈ events join
needs NO shuffle at all — prep tasks split the epoch's events by the
same pid, and join task p takes pid p's prior lengths from the state
reader (state/delta.map_chains) directly.

Per epoch (driver stays serial across epochs — the carry is the only
cross-epoch state, token-cardinality, file-backed):

  prep (per source shard)   read row-group run → valid filter → event
                            lengths (content column dropped INSIDE the
                            task) → split by pid, num_returns=P
  prior (≤ 2×NCPU tasks)    the state reader folds each pid's chain
                            as of epoch-1 → (pid, repo, path, length)
  join (per pid p)          concat p's splits + p's prior lengths →
                            per-(repo,path) previous length (in-epoch
                            shift, else state, else 0) → delta rows →
                            split by repo-shard, num_returns=S
  cumsum (per repo shard)   sort (repo, commit) → per-repo running
                            total seeded from the carry → sizes table
                            + small per-repo finals (num_returns=2)
  rel-size (per repo shard) as-of base-curve lookup → rel_size →
                            write one parquet part into the epoch tmp
                            dir (the driver renames the dir = commit)

Checked against a serial pandas oracle by
tests/test_price_router.py::test_price_task_matches_pandas_oracle.
Reference semantics unchanged: aggregator task chain
/root/reference/aggregator/aggregator.go:69-84.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from cosmwasm_etl_ray.compat import cached_remote, task_cap
from cosmwasm_etl_ray.functions.hashing import _row_hashes, assign_partition, encode_keys
from cosmwasm_etl_ray.state import durable

PRICE_REPO_SHARDS = 32  # repo shards of the running-sum stage


from cosmwasm_etl_ray.functions.hashing import split_table_by_shard as _split_table_by_shard


def _repo_shard(repo, n: int) -> np.ndarray:
    """stable_hash64(repo) % n, with each distinct repo hashed once (a
    null hashes as None, as it does per row)."""
    return (_row_hashes(encode_keys(repo), null=None) % np.uint64(n)).astype(np.int32)


def _price_prep_shard(path: str, row_groups: list[int], P: int):
    """Read a run of row groups → valid filter → per-event lengths
    (the wide content column dies here) → split by the REPLAY's pid so
    each split lands on the state partition that holds its keys."""
    from cosmwasm_etl_ray.pipelines.price import _event_lengths, _valid_events

    t = pq.ParquetFile(path).read_row_groups(
        row_groups, columns=["repo", "path", "commit", "content", "op"]
    )
    t = _event_lengths(_valid_events(t))
    return _split_table_by_shard(t, assign_partition(t["repo"], t["path"], P), P)


def _prior_lengths(t: pa.Table) -> pa.Table:
    """One reader task's folded prior state as (pid, repo, path,
    state_len) — the state side of the join, computed inside the state
    reader; the pid comes from the state's ``pid`` column."""
    from cosmwasm_etl_ray.pipelines.price import _state_lengths

    return _state_lengths(t).append_column("pid", pc.cast(t["pid"], pa.int32()))


def _prior_refs(store, epoch: int, pids: list[int]) -> dict:
    """pid → ref of the reader table holding that pid's prior lengths
    (state as of epoch-1), for the pids with events this epoch."""
    from cosmwasm_etl_ray.state.delta import map_chains, partition_slices

    chains = partition_slices(store, epoch - 1) if epoch > 0 else {}
    refs = map_chains(
        {p: (chains[p],) for p in pids if p in chains},
        _prior_lengths,
        columns=["repo", "path", "content", "op", "pid"],
    )
    return {p: ref for group, ref in refs for p in group}


def _price_join_pid(S: int, pid: int, state: pa.Table | None, *event_splits):
    """Join task for one pid: ``state`` is the reader task's table
    holding this pid's prior lengths (no state shuffle — the replay
    already partitioned state by the join key), previous-length
    resolution, delta rows split by repo shard."""
    tabs = [t for t in event_splits if t is not None]
    if not tabs:
        # num_returns=1 means a BARE value, not a 1-tuple — the same
        # contract every other splitter honors
        return None if S == 1 else tuple([None] * S)
    ev = pa.concat_tables(tabs).to_pandas()
    if state is not None:
        st = state.filter(pc.equal(state["pid"], pid)).drop_columns(["pid"]).to_pandas()
        ev = ev.merge(st, on=["repo", "path"], how="left")
    else:
        ev["state_len"] = 0
    ev = ev.sort_values(["repo", "path", "commit"], kind="stable")
    prev = ev.groupby(["repo", "path"], sort=False)["new_len"].shift(1)
    prev = prev.fillna(ev["state_len"].fillna(0)).astype("int64")
    ev["delta"] = ev["new_len"] - prev
    # path rides along so the cumsum shard can break intra-(repo,
    # commit) ties in PATH order — the same tie order the Dataset
    # shape's (repo, path, commit)-then-(repo, commit)-stable sorts
    # produce (pid-concat order would differ on multi-path commits)
    out = pa.Table.from_pandas(
        ev[["repo", "path", "commit", "delta"]], preserve_index=False
    )
    return _split_table_by_shard(
        out, _repo_shard(out["repo"], S), S
    )


def _price_cumsum_shard(carry_chars: dict, *delta_splits):
    """Per-repo running totals for one repo shard (every row of a repo
    is here). Returns (sizes table, small per-repo finals).

    The zipf-hot repo makes ONE shard carry most of the epoch's rows,
    so this task's constant factor is the derived DAG's critical path:
    a two-column object sort of 3M rows costs ~19 s in pandas, vs ~4 s
    as factorize(sort=True) codes + int64 commit keys under np.lexsort
    (valid because _valid_events pins commits to digit strings; uniform
    width ⇒ numeric order == string order; non-uniform widths fall
    back to an object-key lexsort — same order, slower)."""
    tabs = [t for t in delta_splits if t is not None]
    if not tabs:
        return None, None
    t = pa.concat_tables(tabs)
    n = t.num_rows
    repo = t["repo"].to_numpy(zero_copy_only=False)
    commit = t["commit"].to_numpy(zero_copy_only=False)
    delta = t["delta"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)

    rc, runiq = pd.factorize(repo, sort=True)
    pk = pd.factorize(
        t["path"].to_numpy(zero_copy_only=False), sort=True
    )[0]
    lens = pc.utf8_length(t["commit"]).to_numpy()
    if n == 0 or lens.min() == lens.max():
        ck = pc.cast(t["commit"], pa.int64()).to_numpy(zero_copy_only=False)
    else:
        ck = commit  # object keys: Python compares, correct but slow
    # ties within (repo, commit) break by path — matching the Dataset
    # shape's stable re-sort over (repo, path, commit)-ordered rows
    order = np.lexsort((pk, ck, rc))

    rcs = rc[order]
    cum = np.cumsum(delta[order])
    starts = np.flatnonzero(np.concatenate(([True], rcs[1:] != rcs[:-1])))
    sizes = np.diff(np.concatenate((starts, [n])))
    before = np.concatenate(([0], cum))[starts]  # cum just before each group
    seed = np.fromiter(
        (carry_chars.get(r, 0) for r in runiq[rcs[starts]]),
        dtype=np.int64,
        count=len(starts),
    )
    repo_chars = cum - np.repeat(before, sizes) + np.repeat(seed, sizes)
    last = np.zeros(n, dtype=bool)
    last[np.concatenate((starts[1:] - 1, [n - 1]))] = True

    taken = t.take(pa.array(order))
    out = pa.table(
        {
            "repo": taken["repo"],
            "commit": taken["commit"],
            "repo_chars": pa.array(repo_chars, type=pa.int64()),
            "_last": pa.array(last),
        }
    )
    finals = pd.DataFrame(
        {
            "repo": runiq[rcs[starts]],
            "commit": taken["commit"].to_numpy(zero_copy_only=False)[last],
            "repo_chars": repo_chars[last],
        }
    )
    return out, finals


def _price_base_rows(sizes: pa.Table | None, base: str) -> pd.DataFrame:
    if sizes is None:
        return pd.DataFrame(columns=["commit", "repo_chars"])
    df = sizes.to_pandas()
    return df.loc[df["repo"] == base, ["commit", "repo_chars"]]


def _price_relsize_write(
    sizes: pa.Table | None, curve, tmpdir: str, shard_idx: int
) -> int:
    """As-of rel_size against the base curve + one parquet part write
    (tmp+rename — a task retry self-overwrites)."""
    if sizes is None:
        return 0
    from cosmwasm_etl_ray.pipelines.price import relsize_asof

    commits, chars = curve
    out = relsize_asof(sizes.to_pandas(), commits, chars)
    part = os.path.join(tmpdir, f"part-{shard_idx:05d}.parquet")
    durable.write(part, lambda tmp: out.to_parquet(tmp, index=False))
    return len(out)


def process_epoch_direct(task, epoch: int, manifest: dict) -> None:
    """PriceTask.process_epoch's body: one epoch through the raw-task
    exchange described in the module docstring."""
    from cosmwasm_etl_ray.pipelines.aggregator import _epoch_source_files
    from cosmwasm_etl_ray.pipelines.replay import _plan_shards, _row_groups

    S = PRICE_REPO_SHARDS
    P = task.cfg.num_partitions
    # the per-pid join reads state partition p's chain DIRECTLY, which
    # is only correct when events split by the SAME modulus the store was
    # built with — refuse a mismatch exactly like the replay does
    committed_p = manifest.get("num_partitions")
    if committed_p is not None and committed_p != P:
        raise ValueError(
            f"store was built with num_partitions={committed_p}; "
            f"config asks for {P} — the direct price exchange would "
            f"join against the wrong state partitions, refusing"
        )

    carry: dict = {"repo_chars": {}, "base_curve": [], "edges_key": None}
    if epoch > 0 and os.path.exists(task._carry_path(epoch - 1)):
        with open(task._carry_path(epoch - 1)) as f:
            carry = json.load(f)

    files = _epoch_source_files(manifest)
    if not files:
        task._finish(epoch, carry)
        return

    prep = cached_remote(("price_prep", P), _price_prep_shard, num_returns=P)
    join = cached_remote(("price_join", S), _price_join_pid, num_returns=S)
    cumsum = cached_remote("price_cumsum", _price_cumsum_shard, num_returns=2)
    base_rows_t = cached_remote("price_base", _price_base_rows)
    relsize = cached_remote("price_relsize", _price_relsize_write)

    # prep shards: bounded like the replay (in-flight refs = shards×P)
    sizes = _row_groups(files)
    rows = sum(sum(n) for n in sizes.values())
    target = max(task.cfg.batch_size, -(-rows // task_cap()))
    per_pid: list[list] = [[] for _ in range(P)]
    for path, rgs in _plan_shards(files, sizes, target):
        refs = prep.remote(path, rgs, P)
        if P == 1:
            refs = [refs]
        for p, r in enumerate(refs):
            per_pid[p].append(r)

    prior = _prior_refs(task.store, epoch, [p for p in range(P) if per_pid[p]])
    per_shard_refs: list[list] = [[] for _ in range(S)]
    for p in range(P):
        if not per_pid[p]:
            continue
        refs = join.remote(S, p, prior.get(p), *per_pid[p])
        if S == 1:
            refs = [refs]
        for s, r in enumerate(refs):
            per_shard_refs[s].append(r)

    carry_chars = {k: int(v) for k, v in carry["repo_chars"].items()}
    carry_ref = ray.put(carry_chars)  # one object-store copy, S readers
    sizes_refs: list = [None] * S
    finals_refs: list = []
    for s in range(S):
        if not per_shard_refs[s]:
            continue
        tref, fref = cumsum.remote(carry_ref, *per_shard_refs[s])
        sizes_refs[s] = tref
        finals_refs.append(fref)

    finals_parts = [f for f in ray.get(finals_refs) if f is not None]
    finals = (
        pd.concat(finals_parts, ignore_index=True)
        if finals_parts
        else pd.DataFrame(columns=["repo", "commit", "repo_chars"])
    )

    base = carry.get("base") or task.base
    if base is None and len(finals):
        base = str(finals["repo"].min())
    carry = {**carry, "base": base}

    prev_curve = pd.DataFrame(carry["base_curve"], columns=["commit", "repo_chars"])
    if base is not None:
        bs = int(_repo_shard(np.array([base], dtype=object), S)[0])
        base_rows = (
            ray.get(base_rows_t.remote(sizes_refs[bs], base))
            if sizes_refs[bs] is not None
            else pd.DataFrame(columns=["commit", "repo_chars"])
        )
    else:
        base_rows = pd.DataFrame(columns=["commit", "repo_chars"])
    curve = (
        pd.concat([prev_curve, base_rows], ignore_index=True)
        .sort_values("commit", kind="stable")
        .reset_index(drop=True)
    )
    curve_ref = ray.put(
        (curve["commit"].to_numpy().astype("U"), curve["repo_chars"].to_numpy().astype("int64"))
    )

    outdir = task._out(epoch)
    tmpdir = durable.tmp_path(outdir)
    import shutil

    shutil.rmtree(tmpdir, ignore_errors=True)
    os.makedirs(tmpdir, exist_ok=True)
    writes = [
        relsize.remote(sizes_refs[s], curve_ref, tmpdir, s)
        for s in range(S)
        if sizes_refs[s] is not None
    ]
    ray.get(writes)

    final_chars = dict(carry_chars)
    if len(finals):
        final_chars.update(
            {r: int(c) for r, c in zip(finals["repo"], finals["repo_chars"])}
        )
    new_carry = {
        "repo_chars": final_chars,
        "base_curve": [
            [str(c), int(n)]
            for c, n in curve.tail(1)[["commit", "repo_chars"]].itertuples(index=False)
        ],
        "edges_key": carry.get("edges_key"),
        "base": carry.get("base"),
    }
    task._finish(epoch, new_carry, epoch_for_routes=epoch, parts_dir=tmpdir)
