"""In-memory spans for the traced run, and the serial layer re-drive.

The traced run calls the engine's layers one public function at a time
from the benchmark's own code, so no span lives inside the engine:

- replay of one epoch: read the epoch's files, ``FlagAndPartition``,
  ``fold_partial_arrow``, split by pid, ``MergeWithState`` per pid,
  then ``StateStore.commit_epoch``;
- derived views: each task's ``run()`` in dependency order.

A layer whose public function is missing reports null instead of
failing the run.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from collections import defaultdict


# Span names of the engine's layers, by package module. Containers only
# group other spans; the time between their children is not a layer's.
LAYER_PREFIXES = ("sources.", "stages.", "state.", "pipelines.")
CONTAINERS = frozenset({"bench.run", "bench.write", "pipelines.replay.epoch"})


class Tracer:
    """Spans (name, start, end, parent, attributes) kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(value)

    def self_times(self) -> list[float]:
        """Span duration minus the part its children cover. Spans are
        recorded by one thread, so children never overlap."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def by_name(self, under: str | None = None) -> dict[str, list[float]]:
        """Self times grouped by span name; with ``under``, only spans
        that descend from a span of that name."""
        out: dict[str, list[float]] = defaultdict(list)
        for s, t in zip(self.spans, self.self_times()):
            if under is None or self._descends(s, under):
                out[s["name"]].append(t)
        return out

    def _descends(self, s: dict, name: str) -> bool:
        return any(a["name"] == name for a in self._ancestors(s))

    def coverage(self, root_name: str) -> float | None:
        """Share of the root span's wall time that layer self times
        cover: the self times of the engine-layer spans below it
        (``sources.*``, ``stages.*``, ``state.*``, ``pipelines.*``,
        containers left out) over its duration less the benchmark's own
        spans (oracle checks, shadow runs, landing files, bookkeeping)."""
        roots = [s for s in self.spans if s["name"] == root_name]
        if not roots:
            return None
        root = roots[0]
        covered = own = 0.0
        for s, t in zip(self.spans, self.self_times()):
            if not self._descends(s, root_name):
                continue
            if s["name"].startswith(LAYER_PREFIXES) and s["name"] not in CONTAINERS:
                covered += t
            elif self._is_own(s) and not any(
                self._is_own(a) for a in self._ancestors(s)
            ):
                own += s["end"] - s["start"]
        wall = root["end"] - root["start"] - own
        return covered / wall if wall > 0 else None

    @staticmethod
    def _is_own(s: dict) -> bool:
        return s["name"].startswith("bench.") and s["name"] not in CONTAINERS

    def _ancestors(self, s: dict):
        while s["parent"] is not None:
            s = self.spans[s["parent"]]
            yield s

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)


class NullTracer:
    """The untimed run's tracer: records nothing."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext({})

    def count(self, name: str, value: float) -> None:
        pass


def _layers() -> dict:
    """Public layer functions, or None for one that no longer exists."""
    out = {}
    for key, mod, attr in (
        ("flag", "cosmwasm_etl_ray.stages.normalize", "FlagAndPartition"),
        ("combine", "cosmwasm_etl_ray.stages.merge", "fold_partial_arrow"),
        ("merge", "cosmwasm_etl_ray.stages.merge", "MergeWithState"),
        ("split", "cosmwasm_etl_ray.functions.hashing", "split_table_by_shard"),
        ("window", "cosmwasm_etl_ray.pipelines.aggregator", "WindowStatsTask"),
        ("history", "cosmwasm_etl_ray.pipelines.aggregator", "RepoHistoryTask"),
        ("distinct", "cosmwasm_etl_ray.pipelines.aggregator", "DistinctPathsTask"),
        ("lang", "cosmwasm_etl_ray.pipelines.aggregator", "LangWindowStatsTask"),
        ("price", "cosmwasm_etl_ray.pipelines.price", "PriceTask"),
    ):
        try:
            out[key] = getattr(__import__(mod, fromlist=[attr]), attr)
        except (ImportError, AttributeError):
            out[key] = None
    return out


def replay_epoch(store, files: list[str], epoch: int, cfg, tr: Tracer) -> int:
    """Apply one epoch through the layers in order, serially, with a
    span per layer. Returns the number of input events."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    L = _layers()
    if None in (L["flag"], L["combine"], L["merge"], L["split"]):
        raise RuntimeError("a replay layer's public function is missing")
    P = cfg.num_partitions
    layout = getattr(cfg, "state_layout", "full")
    with tr.span("pipelines.replay.epoch", epoch=epoch):
        with tr.span("sources.read", epoch=epoch):
            t = pa.concat_tables(
                [pq.read_table(f) for f in files], promote_options="permissive"
            )
        n = t.num_rows
        tr.count("sources.read_bytes", sum(os.path.getsize(f) for f in files))
        tr.count("events", n)
        with tr.span("stages.normalize.flag", epoch=epoch):
            t = L["flag"](P, ruleset=cfg.rules)(t)
        tr.count("quarantined", n - int(pc.sum(t["valid"]).as_py() or 0))
        with tr.span("stages.merge.combine", epoch=epoch):
            c = L["combine"](t)
        tr.count("combine_in", n)
        tr.count("combine_out", c.num_rows)
        with tr.span("pipelines.replay.exchange", epoch=epoch):
            parts = L["split"](c, c["pid"].to_numpy(zero_copy_only=False), P)
        tr.count("exchange_bytes", sum(p.nbytes for p in parts if p is not None))
        stats, pid_s = [], []
        with tr.span("stages.merge.fold", epoch=epoch):
            prior = {} if layout == "delta" else store.partition_files()
            merge = L["merge"](
                store.state_dir,
                epoch,
                prior,
                override=cfg.override_coalesce,
                quarantine_root=store.quarantine_dir,
            )
            for part in parts:
                if part is None:
                    continue
                t0 = time.perf_counter()
                stats.append(merge(part).to_pylist()[0])
                pid_s.append(time.perf_counter() - t0)
        if pid_s:
            tr.count("fold_slowest_over_median", max(pid_s) / statistics.median(pid_s))
        tr.count("bytes_written", sum(os.path.getsize(s["file"]) for s in stats))
        with tr.span("state.manifest.commit", epoch=epoch):
            quarantined = sum(s["quarantined"] for s in stats)
            store.commit_epoch(
                epoch,
                {
                    s["pid"]: {
                        "file": s["file"],
                        "rows": s["rows"],
                        "live_rows": s["live_rows"],
                    }
                    for s in stats
                },
                (files[0], files[-1]),
                {
                    "input_events": n,
                    "applied_events": n - quarantined,
                    "quarantined": quarantined,
                    "touched_partitions": len(stats),
                },
                num_partitions=P,
                layout=layout,
            )
    return n


def derive(store, cfg, tr: Tracer) -> None:
    """Run each derived task serially in dependency order: the three
    independent stats tasks and the price task, then lang stats gated
    on the price cursor (as ``run_all_tasks`` orders them)."""
    L = _layers()
    price = L["price"](store, cfg) if L["price"] else None
    for key, span in (
        ("window", "pipelines.aggregator.window_stats"),
        ("history", "pipelines.aggregator.repo_history"),
        ("distinct", "pipelines.aggregator.distinct_paths"),
    ):
        if L[key] is not None:
            with tr.span(span):
                tr.count(span + ".epochs", len(L[key](store, cfg).run()))
    if price is not None:
        with tr.span("pipelines.price.price"):
            tr.count("pipelines.price.price.epochs", len(price.run()))
    if L["lang"] is not None:
        with tr.span("pipelines.aggregator.lang_window_stats"):
            done = L["lang"](store, cfg).run(
                parent_cursor=price.cursor() if price is not None else None
            )
            tr.count("pipelines.aggregator.lang_window_stats.epochs", len(done))
