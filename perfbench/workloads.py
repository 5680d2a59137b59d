"""The closed-loop CDC workloads and the run that drives one.

One client, the benchmark process, sends each call only after the
previous one returned. Every call goes through the engine's public
entry points; every result is compared with the DuckDB oracle, outside
the timed region. A call that raises or disagrees counts as failed.

Each workload has the same shape: a write, then a read-your-writes
point lookup of 100 keys the write touched, then the write's change
feed, repeated until ``--seconds`` have passed; then one full scan and
the store size. The workloads differ in what one write is:

- ``backfill``: one ``replay_files`` over a 2-epoch log into an empty
  store (large epochs, so per-event work outweighs the fixed cost of
  each epoch);
- ``tail``: one tail tick, ``tail_changes`` over one newly landed file
  on a preloaded store (small epochs on a larger state; the per-epoch
  fixed cost and the state rewrite dominate); ``gc_state`` every few
  ticks;
- ``derive``: one tail tick with the derived views kept current
  (``run_derived=True``), so each write includes ``run_all_tasks``'s
  catch-up of the new epoch.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
import statistics
import time
import traceback

import gen
import oracle as oracle_mod
import probes
import tracing

NUM_PARTITIONS = 64
GC_EVERY = 5
OPS = ("tick", "lookup", "feed", "scan")


@dataclasses.dataclass(frozen=True)
class Spec:
    preload: tuple[int, ...]  # files replayed in set-up (events each)
    tick: int  # events per write file (backfill: per backlog file)
    max_ticks: int  # write files generated (backfill: backlog files)
    n_keys: int
    derived: bool = False


SPECS = {
    "backfill": Spec(
        preload=(),
        tick=160_000,
        max_ticks=2,
        n_keys=32_000,
    ),
    "tail": Spec(
        preload=(40_000, 40_000),
        tick=8_000,
        max_ticks=24,
        n_keys=16_000,
    ),
    # not in BENCHMARK.json: its runs do not fit the repeat budget (see
    # README); run it by name
    "derive": Spec(
        preload=(20_000,),
        tick=5_000,
        max_ticks=12,
        n_keys=4_000,
        derived=True,
    ),
}

WARMUP_FILES = (2_000, 2_000)


def engine_config(epoch_events: int):
    """num_partitions and the epoch size; the direct exchange only while
    EngineConfig still has that knob; every other knob at its default."""
    from cosmwasm_etl_ray.config import EngineConfig

    want = {
        "num_partitions": NUM_PARTITIONS,
        "epoch_max_events": epoch_events,
        "merge_exchange": "direct",
    }
    have = {f.name for f in dataclasses.fields(EngineConfig)}
    return EngineConfig(**{k: v for k, v in want.items() if k in have})


def _scaled(n: int, scale: float) -> int:
    return max(200, int(n * scale))


def prepare_inputs(root: str, name: str, seed: int, scale: float) -> dict:
    """Generate the workload's log, the warm-up log and the oracle, or
    reuse them from the cache keyed by (workload, seed, scale, file
    count, generator version)."""
    spec = SPECS[name]
    sizes = [_scaled(n, scale) for n in spec.preload] + [
        _scaled(spec.tick, scale)
    ] * spec.max_ticks
    keys = max(100, int(spec.n_keys * scale))
    cache = os.path.join(
        root, ".perfbench_cache", f"{name}-s{seed}-x{scale:g}-n{len(sizes)}-g{gen.GEN_VERSION}"
    )
    done = os.path.join(cache, "done.json")
    if not os.path.exists(done):
        shutil.rmtree(cache, ignore_errors=True)
        files = gen.write_log(os.path.join(cache, "log"), seed, sizes, keys)
        oracle_mod.build(files, cache, seed)
        warm = gen.write_log(
            os.path.join(cache, "warmup"), seed + 1, list(WARMUP_FILES), 500
        )
        with open(done, "w") as f:
            json.dump({"files": [os.path.relpath(p, cache) for p in files],
                       "warmup": [os.path.relpath(p, cache) for p in warm],
                       "sizes": sizes}, f)
    with open(done) as f:
        meta = json.load(f)
    for k in ("files", "warmup"):
        meta[k] = [os.path.join(cache, p) for p in meta[k]]
    meta["cache"] = cache
    return meta


def _consume(ds, columns: tuple[str, ...] = ("repo", "path", "commit", "content")):
    """Fully materialize a Dataset in this process as one Arrow table
    (an empty one with string ``columns`` when no block has a row).
    Iterating whole blocks executes the Dataset once; ``to_arrow_refs``
    would run it a second time to fetch the schema of a pandas-block
    Dataset and convert each block in an extra remote task."""
    import pyarrow as pa

    tables = [
        t for t in ds.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    ]
    if not tables:
        return pa.table({c: pa.array([], pa.string()) for c in columns})
    return pa.concat_tables(tables, promote_options="permissive")


def _pct(xs: list[float], q: float) -> float | None:
    if not xs:
        return None
    s = sorted(xs)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Run:
    """One workload run in one process: set-up, the timed loop, the end
    phase and the metrics. ``traced`` selects the serial layer re-drive
    with spans (per-layer metrics) instead of the engine's own calls."""

    def __init__(self, name: str, seed: int, seconds: float, scale: float,
                 root: str, traced: bool, inputs: dict):
        self.name, self.spec = name, SPECS[name]
        self.seconds, self.traced = seconds, traced
        self.tr = tracing.Tracer() if traced else tracing.NullTracer()
        self.files = inputs["files"]
        self.warmup_files = inputs["warmup"]
        self.sizes = inputs["sizes"]
        self.oracle = oracle_mod.Oracle(self.files, inputs["cache"])
        self.work = os.path.join(root, ".perfbench_work", f"{name}-{os.getpid()}")
        # per op kind: wall seconds and session CPU seconds of each call
        self.wall: dict[str, list[float]] = {k: [] for k in OPS}
        self.cpu: dict[str, list[float]] = {k: [] for k in OPS}
        self.write_events = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.cfg = engine_config(
            self.sizes[0] if name == "backfill" else _scaled(self.spec.tick, scale)
        )
        self.n_pre = len(self.spec.preload)
        self.k = -1  # index of the newest file committed to the store
        self.store = None
        self.disk: tuple[int, int] | None = None  # (store bytes, live keys)
        self.log_dir = os.path.join(self.work, "log")

    # ---- bookkeeping ----
    def _op(self, what: str, fn):
        """Run one checked call; an exception counts as a failed op."""
        self.attempted += 1
        try:
            bad = fn()
        except Exception as e:  # one failing call must not end the run
            self.failures.append(f"{what}: {type(e).__name__}: {e}")
            traceback.print_exc()
            return
        if bad:
            self.failures.append(f"{what}: {bad}")

    @contextlib.contextmanager
    def _measure(self, kind: str):
        """Wall time and the Ray session's CPU time of one call."""
        with self.tr.span("bench.aux"):
            c0 = probes.session_cpu_s()
        t0 = time.perf_counter()
        yield
        self.wall[kind].append(time.perf_counter() - t0)
        with self.tr.span("bench.aux"):
            self.cpu[kind].append(probes.session_cpu_s() - c0)

    def _new_store(self, path: str):
        from cosmwasm_etl_ray.state.manifest import StateStore

        class CountingStore(StateStore):
            """Counts manifest reads, for state.manifest.manifests_read."""

            manifest_reads = 0

            def manifest(self, epoch):
                self.manifest_reads += 1
                return super().manifest(epoch)

        return CountingStore(path)

    def _land(self, i: int) -> str:
        dst = os.path.join(self.log_dir, os.path.basename(self.files[i]))
        with self.tr.span("bench.land"):
            os.link(self.files[i], dst)
        return dst

    # ---- set-up ----
    def warm_up(self) -> None:
        """Start the Ray workers and load every code path once, on a
        throwaway store built from the warm-up log by the workload's own
        write path (``tail_changes`` for the tail workloads)."""
        from cosmwasm_etl_ray.pipelines.replay import (
            epoch_diff, lookup_state, read_state, replay_files,
        )
        from cosmwasm_etl_ray.sources.tail import tail_changes

        root = os.path.join(self.work, "warmup")
        store = self._new_store(os.path.join(root, "store"))
        cfg = engine_config(WARMUP_FILES[0])
        if self.name == "backfill":
            replay_files(self.warmup_files, store, cfg)
        else:
            log = os.path.join(root, "log")
            os.makedirs(log)
            for f in self.warmup_files:
                os.link(f, os.path.join(log, os.path.basename(f)))
            tail_changes(log, store, cfg, until_files=len(self.warmup_files),
                         run_derived=False, run_validation=False,
                         sleep=lambda s: None)
        keys = _consume(read_state(store)).select(["repo", "path"]).slice(0, 20)
        _consume(lookup_state(store, keys.to_pandas(), NUM_PARTITIONS)[0])
        _consume(epoch_diff(store, 0, 1))
        shutil.rmtree(root)

    def build_start_store(self) -> None:
        if self.name == "backfill":
            return
        from cosmwasm_etl_ray.pipelines.replay import replay_files

        os.makedirs(self.log_dir, exist_ok=True)
        self.store = self._new_store(os.path.join(self.work, "store"))
        landed = [self._land(i) for i in range(self.n_pre)]
        if self.traced:
            for e, f in enumerate(landed):
                tracing.replay_epoch(self.store, [f], e, self.cfg, self.tr)
        else:
            replay_files(landed, self.store, self.cfg)
        self.k = self.n_pre - 1
        if self.traced or self.spec.derived:
            # the derived cursors start level with the preloaded store;
            # in the traced tail run this is the light aggregator pass
            self._derive()

    def _derive(self) -> None:
        if self.traced:
            tracing.derive(self.store, self.cfg, self.tr)
        else:
            from cosmwasm_etl_ray.pipelines.aggregator import run_all_tasks

            run_all_tasks(self.store, self.cfg)

    # ---- the write of each workload ----
    def write(self, i: int) -> None:
        if self.name == "backfill":
            self._write_backfill(i)
        else:
            self._write_tick(i)

    def _write_backfill(self, i: int) -> None:
        from cosmwasm_etl_ray.pipelines.replay import replay_files

        if self.store is not None:
            with self.tr.span("bench.aux"):
                shutil.rmtree(self.store.root, ignore_errors=True)
        self.store = self._new_store(os.path.join(self.work, f"store-{i}"))
        n = sum(self.sizes)
        if self.traced:
            with self.tr.span("bench.untraced_write"):
                shadow = self._new_store(os.path.join(self.work, f"shadow-{i}"))
                t0 = time.perf_counter()
                replay_files(self.files, shadow, self.cfg)
                self.tr.count("untraced_write_s", time.perf_counter() - t0)
                self.tr.count("untraced_epochs", len(self.files))
                self.tr.count("manifests_read", shadow.manifest_reads)
                shutil.rmtree(shadow.root)
            with self._measure("tick"), self.tr.span("bench.write"):
                for e, f in enumerate(self.files):
                    tracing.replay_epoch(self.store, [f], e, self.cfg, self.tr)
        else:
            with self._measure("tick"):
                replay_files(self.files, self.store, self.cfg)
        self.write_events += n
        self.k = len(self.files) - 1
        latest = self.store.latest_epoch()
        if latest != self.k:
            raise RuntimeError(f"backfill committed epoch {latest}, expected {self.k}")

    def _write_tick(self, i: int) -> None:
        from cosmwasm_etl_ray.sources.tail import tail_changes

        k = self.n_pre + i
        f = self._land(k)
        if self.traced:
            self._shadow_tick(k)
            with self._measure("tick"), self.tr.span("bench.write", tick=k):
                tracing.replay_epoch(self.store, [f], k, self.cfg, self.tr)
                if self.spec.derived:
                    self._derive()
        else:
            with self._measure("tick"):
                tail_changes(
                    self.log_dir,
                    self.store,
                    self.cfg,
                    until_files=k + 1,
                    run_derived=self.spec.derived,
                    run_validation=False,
                    sleep=lambda s: None,
                )
        self.write_events += self.sizes[k]
        self.k = k
        latest = self.store.latest_epoch()
        if latest != k:
            raise RuntimeError(f"tick committed epoch {latest}, expected {k}")

    def _shadow_tick(self, k: int) -> None:
        """The same tick through the engine's own replay, untraced, on a
        copy of the store's manifests (partition files are shared
        read-only), for the orchestration overhead per epoch."""
        from cosmwasm_etl_ray.sources.tail import tail_changes

        root = os.path.join(self.work, f"shadow-{k}")
        with self.tr.span("bench.untraced_write", tick=k):
            shutil.copytree(self.store.manifest_dir, os.path.join(root, "manifests"))
            shadow = self._new_store(root)
            t0 = time.perf_counter()
            tail_changes(self.log_dir, shadow, self.cfg, until_files=k + 1,
                         run_derived=False, run_validation=False,
                         sleep=lambda s: None)
            self.tr.count("untraced_write_s", time.perf_counter() - t0)
            self.tr.count("untraced_epochs", 1)
            self.tr.count("manifests_read", shadow.manifest_reads)
            shutil.rmtree(root)

    # ---- reads ----
    def lookup(self) -> str | None:
        from cosmwasm_etl_ray.pipelines.replay import lookup_state

        keys = self.oracle.lookup_keys(self.k)
        with self._measure("lookup"), self.tr.span("pipelines.replay.lookup"):
            ds, files = lookup_state(self.store, keys, NUM_PARTITIONS)
            rows = _consume(ds)
        if self.traced:
            import pyarrow.parquet as pq

            with self.tr.span("bench.aux"):
                scanned = sum(pq.read_metadata(f).num_rows for f in files)
            self.tr.count("lookup_files_read", len(files))
            self.tr.count("lookup_rows_scanned_per_hit", scanned / max(1, rows.num_rows))
        with self.tr.span("bench.check"):
            bad = self.oracle.lookup_mismatches(self.k, rows)
        return f"{bad} lookup rows differ at file {self.k}" if bad else None

    def feed(self) -> str | None:
        from cosmwasm_etl_ray.pipelines.replay import epoch_diff

        e = self.k
        with self._measure("feed"), self.tr.span("pipelines.replay.feed"):
            rows = _consume(
                epoch_diff(self.store, e - 1, e), ("repo", "path", "kind", "commit")
            )
        if self.traced:
            with self.tr.span("bench.aux"):
                new = self.store.manifest(e)["partitions"]
                old = self.store.partition_files(e - 1)
            touched = [p for p, v in new.items() if v["epoch"] == e]
            self.tr.count("feed_files_read", len(touched) + sum(int(p) in old for p in touched))
        with self.tr.span("bench.check"):
            bad = self.oracle.feed_mismatches(e, rows)
        return f"{bad} feed rows differ at epoch {e}" if bad else None

    def gc(self) -> None:
        from cosmwasm_etl_ray.state.gc import gc_state

        t0 = time.perf_counter()
        with self.tr.span("state.gc"):
            out = gc_state(self.store)
        self.tr.count("gc_s", time.perf_counter() - t0)
        self.tr.count("gc_files_deleted", out.get("deleted", 0))

    def scan(self) -> str | None:
        from cosmwasm_etl_ray.pipelines.replay import read_state

        with self._measure("scan"), self.tr.span("pipelines.replay.scan"):
            rows = _consume(read_state(self.store))
        self.tr.count("scan_s", self.wall["scan"][-1])
        with self.tr.span("bench.check"):
            got, want = self.oracle.digest_of(rows), self.oracle.state_digest(self.k)
        if got != want:
            bad = self.oracle.state_mismatches(self.k, rows)
            return f"final state digest {got} != oracle {want} ({bad} rows differ)"
        return None

    def validate(self) -> str | None:
        from cosmwasm_etl_ray.stages.validate import snapshot_state, validate_and_except

        landed = self.files[: self.k + 1]
        with self.tr.span("stages.validate.snapshot"):
            snapshot_state(self.store)
        with self.tr.span("stages.validate.check"):
            bad, _ = validate_and_except(self.store, landed, self.cfg)
        return f"validation found {len(bad)} mismatched keys" if len(bad) else None

    def check_derived(self) -> str | None:
        """The window_stats and repo_history views, as of their cursor,
        against the oracle's DuckDB rollups."""
        from cosmwasm_etl_ray.pipelines.aggregator import RepoHistoryTask, WindowStatsTask

        with self.tr.span("bench.check"):
            return self._check_derived(WindowStatsTask, RepoHistoryTask)

    def _check_derived(self, WindowStatsTask, RepoHistoryTask) -> str | None:
        ws = WindowStatsTask(self.store, self.cfg)
        k = ws.cursor()
        got = ws.view().sort_values(["repo", "window"]).reset_index(drop=True)
        want = self.oracle.window_stats(k, ws.window)
        cols = ["repo", "window", "n_events", "n_deletes", "content_bytes"]
        if got[cols].astype(str).values.tolist() != want[cols].astype(str).values.tolist():
            return "window_stats view differs from the oracle rollup"
        got = RepoHistoryTask(self.store, self.cfg).view()
        want = self.oracle.repo_history(k)
        if got[["repo", "cum_events"]].astype(str).values.tolist() != (
            want[["repo", "cum_events"]].astype(str).values.tolist()
        ):
            return "repo_history view differs from the oracle rollup"
        return None

    # ---- the run ----
    def loop(self) -> None:
        """Writes (each followed by its lookup and feed) until another
        cycle of the median length so far would pass the deadline, so a
        run lasts about ``--seconds`` whatever a cycle costs; backfill
        repeats its one backlog into fresh stores, the tail workloads
        stop early when the generated ticks run out."""
        deadline = time.perf_counter() + self.seconds
        limit = None if self.name == "backfill" else self.spec.max_ticks
        cycles: list[float] = []
        i = 0
        while limit is None or i < limit:
            t0 = time.perf_counter()
            failed_before = len(self.failures)
            self._op(f"write {i}", lambda: self.write(i))
            if len(self.failures) == failed_before:
                self._op(f"lookup {i}", self.lookup)
                self._op(f"feed {i}", self.feed)
            elif self.name != "backfill":
                break  # a lost tick leaves the log ahead of the store
            i += 1
            if self.name != "backfill" and i % GC_EVERY == 0:
                self._op(f"gc {i}", self.gc)
                if i == GC_EVERY:
                    self._measure_disk()
            cycles.append(time.perf_counter() - t0)
            if time.perf_counter() + statistics.median(cycles) > deadline:
                break

    def finish(self) -> None:
        if self.name == "backfill" and self.traced:
            # the light derived pass, before gc: the price task joins
            # each epoch with the prior epoch's state files
            self._op("derive final", self._derive)
        if self.spec.derived or self.traced:
            self._op("derived views", self.check_derived)
        if self.name != "backfill" or self.traced:
            self._op("gc final", self.gc)
        self._op("scan", self.scan)
        if self.traced:
            self._op("validate", self.validate)
        if self.disk is None:
            self._measure_disk()

    def _measure_disk(self) -> None:
        """Bytes of the replay store over the live keys the oracle counts
        at the newest epoch. The tail workloads take it once, after the
        gc that follows tick ``GC_EVERY``: the store grows with every
        tick, so a size taken at the end of the run would grow with the
        number of ticks a faster engine or host reached. Derived outputs
        and snapshots are left out for the same reason."""
        with self.tr.span("bench.aux"):
            size = sum(
                probes.dir_bytes(d)
                for d in (self.store.manifest_dir, self.store.state_dir,
                          self.store.quarantine_dir)
            )
            self.disk = (size, self.oracle.state_digest(self.k)[0])

    def close(self) -> None:
        self.oracle.close()
        shutil.rmtree(self.work, ignore_errors=True)

    # ---- metrics ----
    def end_to_end(self, setup_s: float, rss_mb: float) -> dict:
        w = self.wall
        tick_total = sum(w["tick"])
        size, live = self.disk or (None, None)
        vals = {
            "setup_s": (setup_s, "s"),
            "ingest_events_per_s": (
                self.write_events / tick_total if tick_total else None, "events/s"
            ),
            "tick_s.p50": (_pct(w["tick"], 0.5), "s"),
            "lookup_s.p50": (_pct(w["lookup"], 0.5), "s"),
            "feed_s.p50": (_pct(w["feed"], 0.5), "s"),
            "disk_bytes_per_live_row": (
                size / live if live and size else None, "B/row"
            ),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in vals.items()}

    def raw_samples(self) -> dict:
        """Every op's wall seconds and the Ray session's CPU seconds for
        it: CPU time that rises with wall time points at a slower engine,
        wall time alone at contention for the host."""
        def r(xs):
            return [round(x, 4) for x in xs]

        return {
            "wall_s": {k: r(v) for k, v in self.wall.items()},
            "cpu_s": {k: r(v) for k, v in self.cpu.items()},
        }

    def per_layer(self) -> dict:
        """Per-layer metrics from the spans and counts of a traced run.
        ``_s`` metrics are medians of self time per epoch (replay layers)
        or per call; derived-task times are per derived epoch."""
        tr = self.tr
        st = tr.by_name()
        c = tr.counts
        events = sum(c["events"]) or None

        def med(name):
            return statistics.median(st[name]) if st.get(name) else None

        def ratio(num, den):
            return sum(c[num]) / den if c.get(num) and den else None

        def per_epoch(name):
            n = sum(c.get(name + ".epochs", []))
            return sum(st[name]) / n if st.get(name) and n else None

        replay_layers = ("sources.read", "stages.normalize.flag", "stages.merge.combine",
                         "pipelines.replay.exchange", "stages.merge.fold",
                         "state.manifest.commit", "pipelines.replay.epoch")
        in_writes = tr.by_name(under="bench.write")
        traced_epoch_s = sum(sum(in_writes.get(n, [])) for n in replay_layers)
        traced_epochs = len(in_writes.get("pipelines.replay.epoch", [])) or None
        untraced = sum(c["untraced_write_s"])
        untraced_epochs = sum(c["untraced_epochs"]) or None
        overhead = (
            untraced / untraced_epochs - traced_epoch_s / traced_epochs
            if untraced_epochs and traced_epochs else None
        )
        vals = {
            "sources.read_s": (med("sources.read"), "s"),
            "sources.read_bytes_per_event": (
                ratio("sources.read_bytes", events), "B/event"),
            "stages.normalize.flag_s": (med("stages.normalize.flag"), "s"),
            "stages.normalize.quarantined_events": (
                sum(c["quarantined"]), "count"),
            "stages.merge.combine_s": (med("stages.merge.combine"), "s"),
            "stages.merge.combine_keep_ratio": (
                ratio("combine_out", sum(c["combine_in"])), "ratio"),
            "pipelines.replay.exchange_bytes_per_event": (
                ratio("exchange_bytes", events), "B/event"),
            "stages.merge.fold_s": (med("stages.merge.fold"), "s"),
            "stages.merge.fold_slowest_over_median": (
                _pct(c["fold_slowest_over_median"], 0.5), "ratio"),
            "stages.merge.bytes_written_per_event": (
                ratio("bytes_written", events), "B/event"),
            "pipelines.replay.overhead_s": (overhead, "s"),
            "state.manifest.commit_s": (med("state.manifest.commit"), "s"),
            "state.manifest.manifests_read": (
                _pct(c["manifests_read"], 0.5), "count"),
            "pipelines.replay.lookup_files_read": (
                _pct(c["lookup_files_read"], 0.5), "count"),
            "pipelines.replay.lookup_rows_scanned_per_hit": (
                _pct(c["lookup_rows_scanned_per_hit"], 0.5), "ratio"),
            "pipelines.replay.feed_files_read": (
                _pct(c["feed_files_read"], 0.5), "count"),
            "pipelines.replay.scan_s": (_pct(c["scan_s"], 0.5), "s"),
            "state.gc_s": (_pct(c["gc_s"], 0.5), "s"),
            "state.gc_files_deleted": (sum(c["gc_files_deleted"]), "count"),
            "pipelines.aggregator.window_stats_s": (
                per_epoch("pipelines.aggregator.window_stats"), "s"),
            "pipelines.aggregator.repo_history_s": (
                per_epoch("pipelines.aggregator.repo_history"), "s"),
            "pipelines.aggregator.distinct_paths_s": (
                per_epoch("pipelines.aggregator.distinct_paths"), "s"),
            "pipelines.aggregator.lang_window_stats_s": (
                per_epoch("pipelines.aggregator.lang_window_stats"), "s"),
            "pipelines.price.price_s": (per_epoch("pipelines.price.price"), "s"),
            "stages.validate.snapshot_s": (med("stages.validate.snapshot"), "s"),
            "stages.validate.check_s": (med("stages.validate.check"), "s"),
            "trace.coverage": (tr.coverage("bench.run"), "ratio"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in vals.items()}
