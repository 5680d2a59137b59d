"""1B-event disk-streaming replay soak (VERDICT r4 #1: scale evidence
toward the 10^10 north rule).

The box cannot hold 1e9 events of input (100 B/event on disk vs ~79 GB
free), so the soak streams: each epoch's input is generated in
parallel (one Ray task per 2M-event chunk — the serial generator's
exact rng streams, `seen=None` skips only the insert RE-LABEL, which
the merge treats identically to update), replayed with the production
direct-exchange path, then DELETED; state GC keeps only the latest
committed checkpoint. Peak disk = one epoch of input + one state
checkpoint + the in-flight copy-on-write epoch.

Phases are strictly serialized (generate -> timed replay -> gc ->
delete) so the per-epoch replay wall is not polluted by generation
competing for the same 32 CPUs — the reported events/s is the
sustained upsert-apply rate, the north rule's metric; generation wall
is reported separately.

Correctness at this scale (the gate proves exact full-state equality
at sf scale; re-proving it at 1e9 would need a second 100 GB pass):
  - SENTINEL KEYS: ~10k keys are tracked through generation (every
    event touching them is returned to the driver); the expected
    final row per key = the max-commit valid event (LWW), tombstoned
    if that event is a delete. After the last epoch, lookup_state
    must return EXACTLY the expected (commit, content) per live
    sentinel and MISS every tombstoned one.
  - GLOBAL COUNTS: sum(applied) + sum(quarantined) == generated
    events, quarantined == the generator's malformed count, and
    live_keys (manifest live_rows sum; -1 while a pid's chain holds
    appended links) is reported per epoch.

Usage:
  python tools/soak_billion.py --trial            # 64M / 4 epochs
  python tools/soak_billion.py                    # 1e9 / 16 epochs
  python tools/soak_billion.py --events 256000000 --epochs 8

Emits one JSON line per epoch and a final summary line; full metrics
land in /tmp/soak_billion_metrics.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# 1M-event chunks at num_cpus=2 per generation task: the numpy U-dtype
# string temporaries inside _chunk peak at ~2.3 GB per 1M-event chunk,
# so 16-way concurrency bounds generation at ~37 GB — 32-way 2M chunks
# OOM-killed workers (measured, first full-run attempt).
CHUNK_EVENTS = 1_000_000
GEN_TASK_CPUS = 2


def _cpu_ticks() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def _steal_pct(a: list[int], b: list[int]) -> float:
    d = [y - x for x, y in zip(a, b)]
    tot = sum(d)
    return round(100.0 * d[7] / tot, 1) if tot and len(d) > 7 else 0.0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--events", type=int, default=1_000_000_000)
    ap.add_argument("--epochs", type=int, default=16)
    ap.add_argument("--keys", type=int, default=None,
                    help="default events//10 (the bench convention)")
    ap.add_argument("--parts", type=int, default=64)
    ap.add_argument("--sentinels", type=int, default=10_000)
    ap.add_argument("--cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--trial", action="store_true",
                    help="64M / 4 epochs / 6.4M keys quick validation")
    ap.add_argument("--root", default="/tmp/soak_billion")
    args = ap.parse_args()
    if args.trial:
        args.events, args.epochs = 64_000_000, 4
    n_keys = args.keys or args.events // 10

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from cosmwasm_etl_ray.config import EngineConfig, GeneratorConfig
    from cosmwasm_etl_ray.pipelines.replay import lookup_state, replay_files
    from cosmwasm_etl_ray.sources import generator as gen
    from cosmwasm_etl_ray.state import durable
    from cosmwasm_etl_ray.state.gc import gc_state
    from cosmwasm_etl_ray.state.manifest import StateStore

    # disk guard: one epoch input + ~2 state copies (in-flight CoW +
    # committed) + headroom must fit
    per_epoch = args.events // args.epochs
    est_state = n_keys * 100
    est_need = per_epoch * 100 + 2 * est_state + 5e9
    free = shutil.disk_usage("/tmp").free
    if free < est_need:
        raise SystemExit(
            f"refusing: ~{est_need/1e9:.0f} GB needed, {free/1e9:.0f} GB free"
        )

    gcfg = GeneratorConfig(
        seed=42, n_keys=n_keys, n_events=args.events,
        events_per_file=CHUNK_EVENTS, malformed_frac=0.001,
        evolve_at_frac=0.5,
    )
    evolve_at = int(args.events * 0.5)

    rng = np.random.default_rng(gcfg.seed)
    t0 = time.time()
    key_repo = (rng.zipf(gcfg.zipf_a, size=n_keys) % gcfg.n_repos).astype(
        np.int32
    )
    key_repo_ref = ray.put(key_repo)
    srng = np.random.default_rng(777)
    sent_ids = np.unique(srng.integers(0, n_keys, size=args.sentinels))
    sent_paths = pa.array([f"src/k{i}" for i in sent_ids], type=pa.string())
    sent_ref = ray.put(sent_paths)
    print(json.dumps({"setup_sec": round(time.time() - t0, 1),
                      "n_keys": n_keys, "events": args.events,
                      "epochs": args.epochs,
                      "sentinels": len(sent_ids)}), flush=True)

    @ray.remote(num_cpus=GEN_TASK_CPUS)
    def gen_chunk(chunk_i: int, start: int, stop: int, out_path: str):
        kr = ray.get(key_repo_ref)
        sp = ray.get(sent_ref)
        table, bad = gen._chunk(gcfg, chunk_i, start, stop, kr, None,
                                evolve_at)
        durable.write(out_path, lambda tmp: pq.write_table(table, tmp, row_group_size=65536))
        mask = pc.is_in(table["path"], value_set=sp)
        sent_rows = table.filter(mask).select(
            ["path", "commit", "op", "content"]
        )
        return int(bad), sent_rows

    shutil.rmtree(args.root, ignore_errors=True)
    in_root = os.path.join(args.root, "input")
    os.makedirs(in_root, exist_ok=True)
    store = StateStore(os.path.join(args.root, "store"))
    n_chunks = -(-args.events // CHUNK_EVENTS)
    chunks_per_epoch = -(-n_chunks // args.epochs)
    cfg = EngineConfig(
        num_partitions=args.parts,
        # one replay_files call == one epoch: the cap must sit at or
        # above the files actually passed (ceil rounding can push an
        # epoch's file total past events//epochs, which would split
        # the call into two epochs and garble per-epoch accounting)
        epoch_max_events=chunks_per_epoch * CHUNK_EVENTS,
        batch_size=262_144,
    )

    # sentinel LWW fold state (driver-side, ~10k keys)
    best: dict[str, tuple[int, str, str]] = {}  # path -> (commit, op, content)

    metrics: list[dict] = []
    total_bad = 0
    total_applied = 0
    total_quarantined = 0
    prev_cursor: str | None = None
    total_replay_sec = 0.0

    for e in range(args.epochs):
        lo_chunk = e * chunks_per_epoch
        hi_chunk = min((e + 1) * chunks_per_epoch, n_chunks)
        if lo_chunk >= hi_chunk:
            break
        # --- generate this epoch (parallel, untimed vs the rate) ---
        tg = time.time()
        futs, files = [], []
        for ci in range(lo_chunk, hi_chunk):
            start = ci * CHUNK_EVENTS
            stop = min(start + CHUNK_EVENTS, args.events)
            f = os.path.join(in_root, f"changes-{ci:05d}.parquet")
            files.append(f)
            futs.append(gen_chunk.remote(ci, start, stop, f))
        for bad, srows in ray.get(futs):
            total_bad += bad
            for p, c, op, content in zip(
                srows["path"].to_pylist(), srows["commit"].to_pylist(),
                srows["op"].to_pylist(), srows["content"].to_pylist(),
            ):
                if not c:
                    continue  # malformed -> quarantined, not applied
                ci_ = int(c)
                if p not in best or ci_ > best[p][0]:
                    best[p] = (ci_, op, content)
        gen_sec = time.time() - tg

        # --- timed replay of this epoch ---
        listing = ([prev_cursor] if prev_cursor else []) + files
        s0 = _cpu_ticks()
        tr = time.time()
        manifests = replay_files(listing, store, cfg)
        replay_sec = time.time() - tr
        steal = _steal_pct(s0, _cpu_ticks())
        total_replay_sec += replay_sec
        assert len(manifests) == 1, f"expected 1 epoch/call, got {len(manifests)}"
        m = manifests[-1]
        total_applied += m["counts"]["applied_events"]
        total_quarantined += m["counts"]["quarantined"]
        parts = m["partitions"].values()
        # a link's live_rows count only its own file
        live = -1 if any("chain" in v for v in parts) else sum(
            int(v.get("live_rows", 0)) for v in parts
        )

        # --- gc + delete-behind ---
        gc = gc_state(store, keep_manifests=1)
        for f in files:
            os.remove(f)
        prev_cursor = files[-1]

        ev = m["counts"]["input_events"]
        state_bytes = sum(
            os.path.getsize(p)
            for d, _, fs in os.walk(store.state_dir)
            for p in [os.path.join(d, x) for x in fs]
        )
        row = {
            "epoch": e,
            "events": ev,
            "gen_sec": round(gen_sec, 1),
            "replay_sec": round(replay_sec, 2),
            "events_per_sec": round(ev / replay_sec),
            "live_keys": live,
            "state_gb": round(state_bytes / 1e9, 2),
            "gc_deleted": gc["deleted"],
            "steal_pct": steal,
            "disk_free_gb": round(shutil.disk_usage("/tmp").free / 1e9, 1),
        }
        metrics.append(row)
        print(json.dumps(row), flush=True)

    # --- verification ---
    import pandas as pd

    expect_live = {
        p: (c, content) for p, (c, op, content) in best.items()
        if op != "delete"
    }
    expect_dead = {p for p, (c, op, _) in best.items() if op == "delete"}
    keys_df = pd.DataFrame(
        {
            "repo": [f"repo_{key_repo[int(p[5:])]}" for p in best],
            "path": list(best),
        }
    )
    got = lookup_state(store, keys_df, args.parts)[0].to_pandas()
    got_map = {
        p: (int(c), content)
        for p, c, content in zip(got["path"], got["commit"], got["content"])
    }
    miss = [p for p in expect_live if p not in got_map]
    wrong = [
        p for p, want in expect_live.items()
        if p in got_map and got_map[p] != want
    ]
    ghost = [p for p in expect_dead if p in got_map]
    never_touched = len(sent_ids) - len(best)
    summary = {
        "metric": "soak_billion",
        "events": args.events,
        "epochs": len(metrics),
        "n_keys": n_keys,
        "total_replay_sec": round(total_replay_sec, 1),
        "sustained_events_per_sec": round(args.events / total_replay_sec),
        "first_epoch_eps": metrics[0]["events_per_sec"],
        "last_epoch_eps": metrics[-1]["events_per_sec"],
        "decay_last_over_first": round(
            metrics[-1]["events_per_sec"] / metrics[0]["events_per_sec"], 3
        ),
        "final_live_keys": metrics[-1]["live_keys"],
        "final_state_gb": metrics[-1]["state_gb"],
        "quarantined": total_quarantined,
        "generated_malformed": total_bad,
        "counts_ok": (
            total_applied + total_quarantined == args.events
            and total_quarantined == total_bad
        ),
        "sentinels_tracked": len(best),
        "sentinels_never_touched": never_touched,
        "sentinel_misses": len(miss),
        "sentinel_wrong": len(wrong),
        "sentinel_ghosts": len(ghost),
        "sentinels_ok": not (miss or wrong or ghost),
    }
    print(json.dumps(summary), flush=True)
    with open("/tmp/soak_billion_metrics.json", "w") as f:
        json.dump({"summary": summary, "epochs": metrics}, f, indent=1)
    ray.shutdown()
    if not (summary["counts_ok"] and summary["sentinels_ok"]):
        raise SystemExit("SOAK VERIFICATION FAILED")


if __name__ == "__main__":
    main()
