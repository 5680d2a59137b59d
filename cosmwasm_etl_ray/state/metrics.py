"""Metrics rollup over the manifest lineage.

The north rule asks for "resumable from checkpoint with per-partition
lineage + metrics": the lineage lives in the manifests; this module
derives the operational metrics from it — no separate metrics store to
drift out of sync (the manifests ARE the source of truth, like the
reference deriving task progress from its dest tables,
/root/reference/aggregator/task.go:595-616).
"""

from __future__ import annotations

import numpy as np

from cosmwasm_etl_ray.state.manifest import entry_chain_rows


def store_metrics(store) -> dict:
    """Roll up manifests → totals, per-epoch rates, partition stats,
    and the p50/p99 over the manifests of each value of their
    ``timings`` block (the merge's layer seconds and bytes written, the
    slowest group link, the state files written, the driver's wait;
    manifests that record none are skipped). ``state_rows`` and the partition sizes count every
    slice of each pid's chain; ``state_live_rows`` is None while any
    pid holds an appended link."""
    epochs = store.committed_epochs()
    per_epoch = []
    total_applied = 0
    total_quarantined = 0
    timings: dict[str, list[float]] = {}
    for e in epochs:
        m = store.manifest(e)
        for k, v in m.get("timings", {}).items():
            timings.setdefault(k, []).append(v)
        c = m.get("counts", {})
        applied = c.get("applied_events") or 0
        total_applied += applied
        total_quarantined += c.get("quarantined") or 0
        per_epoch.append(
            {
                "epoch": e,
                "applied_events": applied,
                "quarantined": c.get("quarantined") or 0,
                "touched_partitions": c.get("touched_partitions"),
                "offset_range": m.get("offset_range"),
                "committed_at": m.get("committed_at"),
            }
        )

    latest = store.latest_epoch()
    partitions = {}
    live_rows = rows = 0
    if latest is not None:
        parts = store.manifest(latest)["partitions"].values()
        # a pid's rows are its whole chain's (a link's own entry counts
        # only its file), and no count of the chain's live rows exists
        # until a fold writes a base
        sizes = sorted(sum(entry_chain_rows(p) or ()) for p in parts)
        rows = sum(sizes)
        linked = any("chain" in p for p in parts)
        live_rows = None if linked else sum(p.get("live_rows", 0) for p in parts)
        partitions = {
            "count": len(sizes),
            "rows_min": sizes[0] if sizes else 0,
            "rows_max": sizes[-1] if sizes else 0,
            "rows_p50": sizes[len(sizes) // 2] if sizes else 0,
            "skew_ratio": (sizes[-1] / max(1, sizes[len(sizes) // 2])) if sizes else 0,
        }

    return {
        "cursor_epoch": latest,
        "epochs_committed": len(epochs),
        "total_applied_events": total_applied,
        "total_quarantined": total_quarantined,
        "state_rows": rows,
        "state_live_rows": live_rows,
        "partitions": partitions,
        "timings": {
            k: {"p50": float(np.percentile(v, 50)), "p99": float(np.percentile(v, 99))}
            for k, v in timings.items()
        },
        "per_epoch": per_epoch,
    }
