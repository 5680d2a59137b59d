"""Operational CLI — the ``cmd/*`` analogue of the reference and the
entry point you would hand to ``ray job submit`` on a real cluster:

    python -m cosmwasm_etl_ray.cli replay   --log-dir D --store S [--epoch-events N] [--partitions P]
    python -m cosmwasm_etl_ray.cli tail     --log-dir D --store S [--poll-sec X] [--max-idle N]
    python -m cosmwasm_etl_ray.cli validate --log-dir D --store S
    python -m cosmwasm_etl_ray.cli metrics  --store S
    python -m cosmwasm_etl_ray.cli gc       --store S [--keep N]
    python -m cosmwasm_etl_ray.cli diagnose   --log-dir D [--start I] [--end J]
    python -m cosmwasm_etl_ray.cli repair     --store S --snapshot F.parquet
    python -m cosmwasm_etl_ray.cli quarantine --store S [--replay]
    python -m cosmwasm_etl_ray.cli bootstrap  --store S --snapshot F.parquet
    python -m cosmwasm_etl_ray.cli export     --store S --out DIR
    python -m cosmwasm_etl_ray.cli import-events --in DIR --out LOGDIR --format jsonl|csv

``diagnose`` dry-runs a file range through the production replay into a
temporary store that is removed on exit
(/root/reference/cmd/parser/diagnose/main.go:96-120);
``repair`` diffs the store against a trusted snapshot and applies
classified repair events (/root/reference/parser/checkpoint/builder.go).

Owns its Ray session (guarded init — under ``ray job submit`` the job
is already connected and init is a no-op).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


_RAY_OWNED = False  # did the CLI start this session, or join one?


def _init_ray():
    global _RAY_OWNED
    import ray

    if not ray.is_initialized():
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
        _RAY_OWNED = True
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _shutdown_ray():
    """Tear down ONLY a session this CLI started — a host process that
    already held Ray (ray job submit, an embedding caller) keeps its
    session (the 'driver owns the session' rule, applied symmetrically)."""
    global _RAY_OWNED
    if _RAY_OWNED:
        import ray

        ray.shutdown()
        _RAY_OWNED = False


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="cosmwasm_etl_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, log=True):
        sp.add_argument("--store", required=True)
        if log:
            sp.add_argument("--log-dir", required=True)
        sp.add_argument("--partitions", type=int, default=64)
        sp.add_argument("--epoch-events", type=int, default=2_000_000)

    common(sub.add_parser("replay"))
    t = sub.add_parser("tail")
    common(t)
    t.add_argument("--poll-sec", type=float, default=5.0)
    t.add_argument("--max-idle", type=int, default=3)
    common(sub.add_parser("validate"))
    m = sub.add_parser("metrics")
    m.add_argument("--store", required=True)
    g = sub.add_parser("gc")
    g.add_argument("--store", required=True)
    g.add_argument("--keep", type=int, default=1)
    d = sub.add_parser("diagnose")
    d.add_argument("--log-dir", required=True)
    d.add_argument("--start", type=int, default=0)
    d.add_argument("--end", type=int, default=None)
    d.add_argument("--partitions", type=int, default=64)
    r = sub.add_parser("repair")
    r.add_argument("--store", required=True)
    r.add_argument("--snapshot", required=True)
    r.add_argument("--partitions", type=int, default=64)
    q = sub.add_parser("quarantine")
    q.add_argument("--store", required=True)
    q.add_argument("--replay", action="store_true")
    q.add_argument("--partitions", type=int, default=64)
    b = sub.add_parser("bootstrap")
    b.add_argument("--store", required=True)
    b.add_argument("--snapshot", required=True)
    b.add_argument("--partitions", type=int, default=64)
    x = sub.add_parser("export")
    x.add_argument("--store", required=True)
    x.add_argument("--out", required=True)
    ec = sub.add_parser("export-corpus")
    ec.add_argument("--sf-dir", required=True)
    ec.add_argument("--out", required=True)
    ec.add_argument("--shards", type=int, default=16)
    tp = sub.add_parser("transfer-parse")
    tp.add_argument("--sf-dir", required=True)
    tp.add_argument("--store", required=True)
    tp.add_argument("--epochs", type=int, default=4)
    tp.add_argument("--partitions", type=int, default=16)
    ie = sub.add_parser("import-events")
    ie.add_argument("--in", dest="in_dir", required=True)
    ie.add_argument("--out", required=True)
    ie.add_argument("--format", choices=["jsonl", "csv"], required=True)

    args = p.parse_args(argv)

    from cosmwasm_etl_ray.config import EngineConfig
    from cosmwasm_etl_ray.state.manifest import StateStore
    from cosmwasm_etl_ray.state.metrics import store_metrics

    if args.cmd == "diagnose":
        # dry run: the file range through the production replay into a
        # temporary store, removed on exit
        import tempfile

        from cosmwasm_etl_ray.pipelines.replay import read_state, replay_files

        _init_ray()
        try:
            files = sorted(glob.glob(os.path.join(args.log_dir, "*.parquet")))
            files = files[args.start : args.end]
            with tempfile.TemporaryDirectory(prefix="diagnose_") as tmp:
                dry = StateStore(tmp)
                counts = [m["counts"] for m in replay_files(
                    files, dry, EngineConfig(num_partitions=args.partitions)
                )]
                live = read_state(dry).count()
            events = sum(c["input_events"] for c in counts)
            quarantined = sum(c["quarantined"] for c in counts)
            print(json.dumps({
                "files": len(files),
                "events": events,
                "valid": events - quarantined,
                "would_quarantine": quarantined,
                "live_keys": live,
            }))
        finally:
            _shutdown_ray()
        return 0

    if args.cmd == "import-events":
        # normalize-at-the-edge ingest: JSONL/CSV drop → canonical
        # parquet change log (then `replay --log-dir OUT` runs natively)
        _init_ray()
        try:
            from cosmwasm_etl_ray.sources.files import convert_events_dir

            print(json.dumps(convert_events_dir(args.in_dir, args.out, args.format)))
        finally:
            _shutdown_ray()
        return 0

    if args.cmd == "export-corpus":
        # resumable partitioned export of the pretrain chunk stream
        _init_ray()
        try:
            from cosmwasm_etl_ray.pipelines.corpus_export import export_corpus

            man = export_corpus(args.sf_dir, args.out, num_shards=args.shards)
            print(json.dumps(man))
        finally:
            _shutdown_ray()
        return 0

    store = StateStore(args.store)

    if args.cmd == "metrics":
        print(json.dumps(store_metrics(store), indent=2, default=str))
        return 0

    if args.cmd == "gc":
        from cosmwasm_etl_ray.state.gc import gc_state

        print(json.dumps(gc_state(store, keep_manifests=args.keep)))
        return 0

    if args.cmd == "repair":
        _init_ray()
        import ray

        import pandas as pd

        from cosmwasm_etl_ray.state.repair import diff_and_repair

        try:
            snap = pd.read_parquet(args.snapshot)
            res = diff_and_repair(
                store, snap, EngineConfig(num_partitions=args.partitions)
            )
            print(json.dumps(res))
        finally:
            _shutdown_ray()
        return 0

    if args.cmd == "quarantine":
        from cosmwasm_etl_ray.state.quarantine import pending_files as qpending

        pending = qpending(store)
        if not args.replay:
            print(json.dumps({"pending_files": len(pending)}))
            return 0
        _init_ray()
        import ray

        from cosmwasm_etl_ray.state.quarantine import replay_quarantine

        try:
            m = replay_quarantine(
                store, EngineConfig(num_partitions=args.partitions)
            )
            print(json.dumps(
                {"replayed": m is not None,
                 "epoch": m["epoch"] if m else None,
                 "counts": m["counts"] if m else None}
            ))
        finally:
            _shutdown_ray()
        return 0

    if args.cmd == "bootstrap":
        _init_ray()
        import ray

        import pandas as pd

        from cosmwasm_etl_ray.state.gc import bootstrap_store

        try:
            snap = pd.read_parquet(args.snapshot)
            m = bootstrap_store(
                snap, store, EngineConfig(num_partitions=args.partitions)
            )
            print(json.dumps({"epoch": m["epoch"], "counts": m["counts"]}))
        finally:
            _shutdown_ray()
        return 0

    if args.cmd == "transfer-parse":
        _init_ray()
        import ray

        from cosmwasm_etl_ray.pipelines.transfer_parser import (
            TransferParserPipeline,
        )

        try:
            pipe = TransferParserPipeline(
                args.sf_dir, args.store,
                n_epochs=args.epochs, num_partitions=args.partitions,
            )
            results = pipe.run()
            print(json.dumps({
                "epochs": results,
                "rows": int(pipe.ledger().count()),
            }))
        finally:
            _shutdown_ray()
        return 0

    if args.cmd == "export":
        _init_ray()
        import ray

        from cosmwasm_etl_ray.pipelines.replay import read_state

        try:
            read_state(store).write_parquet(args.out)
            n = len(glob.glob(os.path.join(args.out, "*.parquet")))
            print(json.dumps({"out": args.out, "files": n}))
        finally:
            _shutdown_ray()
        return 0

    cfg = EngineConfig(
        num_partitions=args.partitions, epoch_max_events=args.epoch_events
    )
    _init_ray()
    import ray

    try:
        if args.cmd == "replay":
            from cosmwasm_etl_ray.pipelines.replay import replay_files

            files = sorted(glob.glob(os.path.join(args.log_dir, "*.parquet")))
            manifests = replay_files(files, store, cfg)
            print(json.dumps({"applied_epochs": len(manifests),
                              "cursor": store.latest_epoch()}))
        elif args.cmd == "tail":
            from cosmwasm_etl_ray.sources.tail import tail_changes

            summary = tail_changes(
                args.log_dir, store, cfg,
                poll_interval=args.poll_sec, max_idle_polls=args.max_idle,
            )
            print(json.dumps(summary))
        elif args.cmd == "validate":
            from cosmwasm_etl_ray.stages.validate import validate_store

            files = sorted(glob.glob(os.path.join(args.log_dir, "*.parquet")))
            bad = validate_store(store, files, cfg)
            print(json.dumps({"mismatches": len(bad)}))
            return 1 if len(bad) else 0
    finally:
        _shutdown_ray()
    return 0


if __name__ == "__main__":
    sys.exit(main())
