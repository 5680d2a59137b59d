"""Benchmark entry point: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload tail --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` re-drives the workload serially through the
engine's layers and prints the per-layer metrics. The line before the
result carries the run's annotations (versions, effective EngineConfig,
CPU steal, memcpy bandwidth, sample counts, failures). ``--workload
all`` runs each workload in its own process, so one failing workload
cannot stop the others. Exits non-zero without a result when the
engine package is not importable.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

# Ray's socket paths must fit AF_UNIX's 107 bytes: its session directory
# adds ~63 characters, so a longer checkout path falls back to Ray's
# default temp dir.
RAY_TMP_MAX = 40
# Ray reaps a worker idle for 1 s by default; on one CPU that restarts a
# worker about once per tick, and the restart (interpreter plus engine
# imports) lands inside a timed call. Workers started in set-up stay.
SYSTEM_CONFIG = {"idle_worker_killing_time_threshold_ms": 3_600_000}


def process_age_s() -> float:
    """Seconds since this process started, from /proc."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def start_ray(root: str) -> str:
    """Start the session; returns Ray's session directory."""
    import ray
    from ray.data import DataContext

    # One CPU for the whole session: Ray's daemons and workers inherit
    # the affinity, so no call waits on a wake-up across vCPUs, which
    # the host may have descheduled.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # Ray workers import the engine from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p
    )
    tmp = os.path.join(root, ".perfbench_work", "ray")
    if len(tmp) > RAY_TMP_MAX:
        tmp = None
    ctx = ray.init(
        address="local",
        num_cpus=1,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024 * 1024,
        _temp_dir=tmp,
        _system_config=SYSTEM_CONFIG,
    )
    DataContext.get_current().enable_progress_bars = False
    return ctx.address_info["session_dir"]


def stop_ray(session_dir: str | None = None) -> None:
    """Shut Ray down and wait until every process this run started has
    ended; kill what is still alive after a grace period. Then remove
    the session's logs when they live in the checkout."""
    import probes
    import ray

    def alive() -> list[int]:
        while True:  # reap ended children so they leave the process table
            try:
                if os.waitpid(-1, os.WNOHANG)[0] == 0:
                    break
            except ChildProcessError:
                break
        return probes.descendants()

    ray.shutdown()
    deadline = time.time() + 20
    while alive() and time.time() < deadline:
        time.sleep(0.1)
    for pid in alive():
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    while alive() and time.time() < deadline + 10:
        time.sleep(0.1)
    if session_dir and session_dir.startswith(ROOT + os.sep):
        shutil.rmtree(session_dir, ignore_errors=True)


def run_one(args) -> int:
    import probes
    import workloads

    inputs_t0 = time.perf_counter()
    inputs = workloads.prepare_inputs(ROOT, args.workload, args.seed, args.scale)
    inputs_s = time.perf_counter() - inputs_t0

    run = workloads.Run(args.workload, args.seed, args.seconds, args.scale,
                        ROOT, bool(args.trace), inputs)
    notes: dict = {"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "scale": args.scale,
                   "trace": args.trace, "inputs_s": round(inputs_s, 3)}
    setup_s = rss_mb = session_dir = None
    phases: dict = {}
    try:
        notes.update(probes.versions())
        session_dir = start_ray(ROOT)
        notes["ray_session_dir"] = os.path.relpath(session_dir, ROOT)
        notes["cpu_pinned"] = sorted(os.sched_getaffinity(0))
        notes["engine_config"] = {
            k: repr(v) for k, v in dataclasses.asdict(run.cfg).items()
        }
        phases["ray"] = process_age_s() - inputs_s
        run.warm_up()
        phases["warm_up"] = process_age_s() - inputs_s - phases["ray"]
        run.build_start_store()
        setup_s = process_age_s() - inputs_s
        bw0, ticks0 = probes.membw_gbps_child(), probes.cpu_ticks()
        t0 = time.perf_counter()
        with probes.RssSampler() as rss, run.tr.span("bench.run"):
            run.loop()
            phases["loop"] = time.perf_counter() - t0
            run.finish()
        phases["finish"] = time.perf_counter() - t0 - phases["loop"]
        notes["cpu_steal_pct"] = probes.steal_pct(ticks0, probes.cpu_ticks())
        notes["membw_gbps"] = [bw0, probes.membw_gbps_child()]
        rss_mb = rss.peak_mb
        notes["rss_samples"] = rss.samples
        # the benchmark process (client, oracle, bookkeeping) is left
        # out of peak_rss_mb; its own peak is recorded here
        notes["client_peak_rss_mb"] = round(probes.own_peak_rss_mb(), 1)
    except Exception as e:  # report what was measured, with the failure
        run.attempted += 1
        run.failures.append(f"run: {type(e).__name__}: {e}")
    finally:
        t0 = time.perf_counter()
        stop_ray(session_dir)
        run.close()
        phases["teardown"] = time.perf_counter() - t0

    notes["phases_s"] = {k: round(v, 3) for k, v in phases.items()}
    notes["samples"] = run.raw_samples()
    notes["failures"] = run.failures
    if args.trace:
        trace_path = os.path.join(
            ROOT, ".perfbench_out", f"trace-{args.workload}-s{args.seed}.json"
        )
        run.tr.dump(trace_path)
        notes["trace_file"] = os.path.relpath(trace_path, ROOT)
        metrics = run.per_layer()
    else:
        metrics = run.end_to_end(setup_s, rss_mb)
    print(json.dumps({"annotations": notes}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": max(1, run.attempted),
        "failed": len(run.failures),
        "metrics": metrics,
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a failed one is recorded with
    its error and the others still run."""
    import workloads

    out = {}
    for name in workloads.SPECS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", str(args.scale)]
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        try:
            out[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            out[name] = {"correct": False, "attempted": 1, "failed": 1,
                         "error": f"exit {p.returncode}: {p.stderr[-2000:]}"}
            continue
        for metric, m in out[name]["metrics"].items():
            print(f"{name:9s} {metric:45s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["backfill", "tail", "derive", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor (tests use a tiny scale)")
    args = ap.parse_args(argv)
    if importlib.util.find_spec("cosmwasm_etl_ray") is None:
        print("perfbench: the cosmwasm_etl_ray package is not in "
              f"{ROOT}; run from the repository root", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
