"""Many-epoch transfer-ledger soak: the files a long parse leaves and
the cost of reading them back.

Builds a K× stress lineitem (orderkey-shifted concat, staying
tx-ordered so row-group pruning keeps working), runs the transfer
parser at E epochs × P partitions, then times a full ledger scan.
Prints one JSON line: parse_s, files, scan_s and ledger_rows.

Usage: python tools/soak_ledger.py [--mult 4] [--epochs 32] [--parts 32]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def build_stress(sf_dir: str, out_dir: str, mult: int) -> str:
    """K copies of lineitem with shifted l_orderkey, written tx-ordered
    in bounded row groups (the pruning-friendly layout the 100-TB
    source contract assumes)."""
    src = pq.read_table(f"{sf_dir}/lineitem.parquet")
    hi = pc.max(src["l_orderkey"]).as_py() + 1
    parts = []
    for k in range(mult):
        t = src.set_column(
            src.schema.get_field_index("l_orderkey"),
            "l_orderkey",
            pc.add(src["l_orderkey"], pa.scalar(k * hi, pa.int64())),
        )
        parts.append(t)
    big = pa.concat_tables(parts)
    out = os.path.join(out_dir, "lineitem.parquet")
    pq.write_table(big, out, row_group_size=262144)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default=os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1"))
    ap.add_argument("--mult", type=int, default=4)
    ap.add_argument("--epochs", type=int, default=32)
    ap.add_argument("--parts", type=int, default=32)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from cosmwasm_etl_ray.pipelines.transfer_parser import TransferParserPipeline

    work = tempfile.mkdtemp(prefix="soak_ledger_", dir="/tmp")
    try:
        src_dir = os.path.join(work, "src")
        os.makedirs(src_dir)
        build_stress(args.sf_dir, src_dir, args.mult)

        pipe = TransferParserPipeline(
            src_dir,
            os.path.join(work, "store"),
            n_epochs=args.epochs,
            num_partitions=args.parts,
        )
        t0 = time.time()
        pipe.run(max_concurrent=8)
        parse_s = time.time() - t0

        files = pipe.epoch_files()
        t0 = time.time()
        rows = int(pipe.ledger().count())
        scan_s = time.time() - t0

        print(
            json.dumps(
                {
                    "metric": "ledger_soak",
                    "mult": args.mult,
                    "epochs": args.epochs,
                    "parts": args.parts,
                    "ledger_rows": rows,
                    "parse_s": round(parse_s, 2),
                    "files": len(files),
                    "scan_s": round(scan_s, 2),
                }
            )
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
