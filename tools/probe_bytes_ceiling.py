"""Decide whether the 8->32 CPU scaling ceiling is bytes/event (shared
DRAM) or scheduling (VERDICT r3 #5): run the identical replay at 8 and
32 CPUs over two change logs that differ ONLY in content width
(content_len 200 vs 20 — ~5x fewer payload bytes/event). If thin
content lifts 8->32 efficiency, the ceiling is memory bandwidth and
bytes/event is the lever; if the efficiency stays put, the ceiling is
task/scheduling overhead and byte-shaving won't travel.

Also reports per-pid part sizes of the direct exchange (the VERDICT's
requested measurement).

Usage: python tools/probe_bytes_ceiling.py [n_events]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

CHILD = """
import json, os, sys, time
import ray
ray.init(address="local", num_cpus=int(os.environ["PB_CPUS"]),
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, "/root/repo")
from cosmwasm_etl_ray.config import EngineConfig
from cosmwasm_etl_ray.pipelines.replay import replay_files
from cosmwasm_etl_ray.state.manifest import StateStore
files = json.loads(os.environ["PB_FILES"])
cfg = EngineConfig(num_partitions=64, epoch_max_events=int(os.environ["PB_EPOCH"]),
                   batch_size=262144)
# warmup pass primes the page cache in an uncounted store
import shutil
for tag in ("warm", "run"):
    store_dir = os.environ["PB_STORE"] + "_" + tag
    shutil.rmtree(store_dir, ignore_errors=True)
    store = StateStore(store_dir)
    t0 = time.time()
    replay_files(files, store, cfg)
    wall = time.time() - t0
print(json.dumps({"cpus": int(os.environ["PB_CPUS"]), "wall_s": round(wall, 3)}))
ray.shutdown()
"""


def gen_log(n_events: int, content_len: int) -> list[str]:
    sys.path.insert(0, "/root/repo")
    from cosmwasm_etl_ray.config import GeneratorConfig
    from cosmwasm_etl_ray.sources.generator import generate_change_stream

    d = f"/tmp/pb_log_n{n_events}_c{content_len}"
    if not os.path.exists(os.path.join(d, "_DONE")):
        import shutil

        shutil.rmtree(d, ignore_errors=True)
        generate_change_stream(
            d,
            GeneratorConfig(seed=42, n_keys=max(1000, n_events // 10),
                            n_events=n_events, events_per_file=250_000,
                            malformed_frac=0.001, evolve_at_frac=0.5,
                            content_len=content_len),
        )
        open(os.path.join(d, "_DONE"), "w").close()
    return sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet"))


def measure_part_sizes(files: list[str]) -> dict:
    """Per-pid part sizes of one epoch's direct-exchange splits."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    sys.path.insert(0, "/root/repo")
    import numpy as np

    from cosmwasm_etl_ray.pipelines.replay import _plan_shards, _prep_split_shard

    sizes = []
    for path, rgs in _plan_shards(files[:1], 262144)[:2]:
        parts = _prep_split_shard(path, rgs, 64, None, True)
        for p in parts:
            if p is not None:
                sizes.append(p.nbytes)
    ray.shutdown()
    a = np.array(sizes)
    return {"n_parts": len(a), "part_bytes_p50": int(np.percentile(a, 50)),
            "part_bytes_p99": int(np.percentile(a, 99)),
            "part_bytes_mean": int(a.mean())}


def main() -> int:
    n_events = int(sys.argv[1]) if len(sys.argv) > 1 else 8_000_000
    out = {}
    for label, clen in (("wide", 200), ("thin", 20)):
        files = gen_log(n_events, clen)
        walls = {}
        for cpus in (8, 32):
            env = dict(os.environ, PB_CPUS=str(cpus), PB_FILES=json.dumps(files),
                       PB_EPOCH=str(n_events // 2),
                       PB_STORE=f"/tmp/pb_store_{label}_{cpus}")
            p = subprocess.run([sys.executable, "-c", CHILD], env=env,
                               capture_output=True, text=True, timeout=1800)
            line = [ln for ln in p.stdout.splitlines() if ln.startswith("{")]
            if not line:
                print(f"FAIL {label}/{cpus}: {p.stderr[-500:]}")
                return 1
            walls[cpus] = json.loads(line[-1])["wall_s"]
        eff = (walls[8] / walls[32]) / 4.0
        out[label] = {"wall_8": walls[8], "wall_32": walls[32],
                      "eff_8_to_32": round(eff, 3)}
        print(json.dumps({label: out[label]}))
    out["parts_wide"] = measure_part_sizes(gen_log(n_events, 200))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
