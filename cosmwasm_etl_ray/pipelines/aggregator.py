"""Incremental derived-table layer — the aggregator graft.

The reference runs scheduled tasks (lp_history → price → pair_stats →
account_stats) that each keep a cursor, wait for their parent to reach
the target height, process only the new height range, and write
idempotently (/root/reference/aggregator/aggregator.go:69-84,
/root/reference/aggregator/task.go:785-811). Here:

- a **DerivedTask** owns ``derived/{name}/`` under the state root with
  its own epoch manifests (same tmp+rename commit protocol as the main
  sink);
- **parent coordination**: a task processes replay epoch e only when
  the replay manifest e exists (the waitUntilReachingHeight analogue —
  the epoch DAG replaces the height watermark);
- **incremental**: each run reads ONLY the new epochs' source files
  (from the replay manifest's offset_range lineage), computes per-epoch
  partials, and writes ``epoch={e}.parquet`` — the queryable view folds
  partials, so re-running an epoch overwrites idempotently (the
  cleanDups truncate-and-recompute lever, D4);
- **carry-in**: running totals (the lp_history prefix-sum-with-carry,
  A2) read the previous epoch's carry row instead of re-scanning
  history.

Two built-in tasks:

- ``window_stats``  — per (repo, commit-window) additive measures
  (n_events, n_deletes, content_bytes): the pair_stats_30m analogue.
- ``repo_history``  — per-repo cumulative event counts with carry-in:
  the lp_history analogue.

Plus ``recent_window_stats`` — the 48h-sliding-window analogue: a view
over only the trailing W windows of ``window_stats`` partials (expiry =
partition prune, no recompute).
"""

from __future__ import annotations

import json
import os

import pandas as pd

import ray.data

from cosmwasm_etl_ray.config import EngineConfig
from cosmwasm_etl_ray.functions.agg import grouped_agg
from cosmwasm_etl_ray.stages.normalize import FlagAndPartition
from cosmwasm_etl_ray.state import durable

WINDOW = 1_000_000  # commit-window size (30-min tumbling window analogue)


def _epoch_measures(files: list[str], cfg: EngineConfig, window: int = WINDOW) -> pd.DataFrame:
    """Per (repo, window) additive partials for one epoch's files."""
    ds = ray.data.read_parquet(files, columns=["repo", "path", "commit", "content", "op"])
    flagged = ds.map_batches(
        FlagAndPartition(cfg.num_partitions, ruleset=cfg.rules),
        batch_format="pyarrow",
    )

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["valid"]]
        out = pd.DataFrame(
            {
                "repo": df["repo"],
                "window": pd.to_numeric(df["commit"]) // window,
                "is_delete": (df["op"] == "delete").astype("int64"),
                "content_bytes": df["content"].str.len().astype("int64"),
            }
        )
        return out

    return grouped_agg(
        flagged.map_batches(prep, batch_format="pandas"),
        keys=["repo", "window"],
        spec={
            "n_events": ("is_delete", "count"),
            "n_deletes": ("is_delete", "sum"),
            "content_bytes": ("content_bytes", "sum"),
        },
    )


class DerivedTask:
    """Base: epoch-cursor bookkeeping + idempotent per-epoch output."""

    name: str = "base"

    def __init__(self, store, cfg: EngineConfig, window: int = WINDOW):
        self.store = store
        self.cfg = cfg
        self.window = window
        # the window size is part of the task identity — two tasks with
        # different windows must never share a cursor/output directory
        self.root = os.path.join(store.root, "derived", f"{self.name}-w{window}")
        os.makedirs(self.root, exist_ok=True)

    # cursor = highest epoch with a committed derived output
    def cursor(self) -> int | None:
        es = [
            int(f.split("=")[1].split(".")[0])
            for f in os.listdir(self.root)
            if f.startswith("epoch=") and f.endswith(".parquet")
        ]
        return max(es) if es else None

    def _epoch_out(self, epoch: int) -> str:
        return os.path.join(self.root, f"epoch={epoch}.parquet")

    def _commit(self, epoch: int, df: pd.DataFrame) -> None:
        durable.write(self._epoch_out(epoch), lambda tmp: df.to_parquet(tmp, index=False))

    def run(self, parent_cursor: int | None = None) -> list[int]:
        """Process every replay epoch the parent has committed but this
        task hasn't (the parent-height wait: we never run ahead of the
        replay manifest). ``parent_cursor`` adds a second barrier for
        task-DAG parents (the waitUntilReachingHeight analogue,
        /root/reference/aggregator/task.go:785-811): epochs beyond the
        parent task's cursor are left for a later tick."""
        done = []
        parent_epochs = self.store.committed_epochs()
        start = (self.cursor() + 1) if self.cursor() is not None else 0
        for e in parent_epochs:
            if e < start:
                continue
            if parent_cursor is not None and e > parent_cursor:
                break
            manifest = self.store.manifest(e)
            self.process_epoch(e, manifest)
            done.append(e)
        return done

    def process_epoch(self, epoch: int, manifest: dict) -> None:
        raise NotImplementedError


def _epoch_source_files(manifest: dict) -> list[str] | None:
    lo, hi = manifest.get("offset_range", ("", ""))
    if not lo or not os.path.exists(os.path.dirname(lo)):
        return None
    d = os.path.dirname(lo)
    # suffix filter: a concurrent writer's in-flight tmp
    # (state/durable.tmp_path) sorts INSIDE the bare lexical range and
    # would be read half-written by the derived tick
    names = sorted(n for n in os.listdir(d) if n.endswith(".parquet"))
    los, his = os.path.basename(lo), os.path.basename(hi)
    return [os.path.join(d, n) for n in names if los <= n <= his]


class WindowStatsTask(DerivedTask):
    """Per (repo, window) additive stats, one partial file per epoch.
    Query view = fold of all epoch partials (associative sums)."""

    name = "window_stats"

    def process_epoch(self, epoch: int, manifest: dict) -> None:
        files = _epoch_source_files(manifest)
        if not files:  # e.g. quarantine-replay epochs carry no file range
            # TYPED empty partial: an untyped empty frame round-trips
            # parquet as object columns and poisons view()'s concat to
            # object dtype for every numeric column
            self._commit(epoch, pd.DataFrame(
                {
                    "repo": pd.Series(dtype="object"),
                    "window": pd.Series(dtype="int64"),
                    "n_events": pd.Series(dtype="int64"),
                    "n_deletes": pd.Series(dtype="int64"),
                    "content_bytes": pd.Series(dtype="int64"),
                }
            ))
            return
        self._commit(epoch, _epoch_measures(files, self.cfg, self.window))

    def view(self) -> pd.DataFrame:
        cur = self.cursor()
        parts = [
            pd.read_parquet(self._epoch_out(e))
            for e in range((cur + 1) if cur is not None else 0)
            if os.path.exists(self._epoch_out(e))
        ]
        if not parts:
            return pd.DataFrame()
        allp = pd.concat(parts, ignore_index=True)
        return (
            allp.groupby(["repo", "window"], as_index=False)[
                ["n_events", "n_deletes", "content_bytes"]
            ]
            .sum()
            .sort_values(["repo", "window"])
            .reset_index(drop=True)
        )

    def recent_view(self, last_windows: int = 2) -> pd.DataFrame:
        """Sliding-window analogue: only the trailing W windows; older
        partitions are pruned, never recomputed (A5/D4)."""
        v = self.view()
        if v.empty:
            return v
        cutoff = v["window"].max() - last_windows + 1
        return v[v["window"] >= cutoff].reset_index(drop=True)


class RepoHistoryTask(DerivedTask):
    """Cumulative per-repo event counts with carry-in from the previous
    epoch (the lp_history seed-from-last-stored-value pattern,
    /root/reference/aggregator/task.go:104-219)."""

    name = "repo_history"

    def _carry_path(self, epoch: int) -> str:
        return os.path.join(self.root, f"carry={epoch}.json")

    def process_epoch(self, epoch: int, manifest: dict) -> None:
        files = _epoch_source_files(manifest)
        prev_carry: dict[str, int] = {}
        if epoch > 0 and os.path.exists(self._carry_path(epoch - 1)):
            with open(self._carry_path(epoch - 1)) as f:
                prev_carry = json.load(f)

        if files:
            m = _epoch_measures(files, self.cfg, self.window)
            per_repo = (
                m.groupby("repo", as_index=False)
                .agg(n=("n_events", "sum"))
            )
        else:
            per_repo = pd.DataFrame({"repo": [], "n": []})

        carry = dict(prev_carry)
        rows = []
        for r in per_repo.itertuples():
            carry[r.repo] = carry.get(r.repo, 0) + int(r.n)
            rows.append({"repo": r.repo, "epoch": epoch, "cum_events": carry[r.repo]})
        # repos untouched this epoch keep their carry (no row emitted).
        # Carry is written BEFORE the epoch parquet: the parquet is the
        # commit marker (cursor), so a crash in between reprocesses the
        # epoch and deterministically overwrites both.
        durable.write_json(self._carry_path(epoch), carry)
        self._commit(epoch, pd.DataFrame(rows, columns=["repo", "epoch", "cum_events"]))

    def view(self) -> pd.DataFrame:
        """Latest cumulative count per repo (from the newest carry)."""
        cur = self.cursor()
        if cur is None:
            return pd.DataFrame(columns=["repo", "cum_events"])
        with open(self._carry_path(cur)) as f:
            carry = json.load(f)
        return (
            pd.DataFrame({"repo": list(carry), "cum_events": list(carry.values())})
            .sort_values("repo")
            .reset_index(drop=True)
        )


class LangWindowStatsTask(DerivedTask):
    """Two-dimensional derived key (lang × window) — the account_stats
    shape (A4: per (account, pair) per window,
    /root/reference/pkg/db/parser/repository.go:462-540). Same
    epoch-partial + associative-fold machinery, different key."""

    name = "lang_window_stats"

    def process_epoch(self, epoch: int, manifest: dict) -> None:
        files = _epoch_source_files(manifest)
        if not files:
            # typed empty partial — see WindowStatsTask.process_epoch
            self._commit(epoch, pd.DataFrame(
                {
                    "lang": pd.Series(dtype="object"),
                    "window": pd.Series(dtype="int64"),
                    "n_events": pd.Series(dtype="int64"),
                    "n_deletes": pd.Series(dtype="int64"),
                    "content_bytes": pd.Series(dtype="int64"),
                }
            ))
            return
        ds = ray.data.read_parquet(
            files, columns=["lang", "commit", "content", "op"]
        )

        def prep(df: pd.DataFrame) -> pd.DataFrame:
            ok = df["commit"].str.fullmatch(r"[0-9]+")
            df = df[ok.fillna(False)]
            return pd.DataFrame(
                {
                    "lang": df["lang"],
                    "window": pd.to_numeric(df["commit"]) // self.window,
                    "is_delete": (df["op"] == "delete").astype("int64"),
                    "content_bytes": df["content"].str.len().astype("int64"),
                }
            )

        out = grouped_agg(
            ds.map_batches(prep, batch_format="pandas"),
            keys=["lang", "window"],
            spec={
                "n_events": ("is_delete", "count"),
                "n_deletes": ("is_delete", "sum"),
                "content_bytes": ("content_bytes", "sum"),
            },
        )
        self._commit(epoch, out)

    def view(self) -> pd.DataFrame:
        cur = self.cursor()
        parts = [
            pd.read_parquet(self._epoch_out(e))
            for e in range((cur + 1) if cur is not None else 0)
            if os.path.exists(self._epoch_out(e))
        ]
        if not parts:
            return pd.DataFrame()
        allp = pd.concat(parts, ignore_index=True)
        return (
            allp.groupby(["lang", "window"], as_index=False)[
                ["n_events", "n_deletes", "content_bytes"]
            ]
            .sum()
            .sort_values(["lang", "window"])
            .reset_index(drop=True)
        )


class DistinctPathsTask(DerivedTask):
    """Sketches as DERIVED STATE: per-repo HyperLogLog registers of
    distinct paths ever seen, folded across epochs. Each epoch commits
    its own register partial (<= repos x 1024 rows, whatever the epoch
    size); ``view()`` merges partials by register max — the fold is
    associative, commutative, and IDEMPOTENT, so a re-run of any epoch
    (crash recovery, D4 truncate-and-recompute) or a partial overlap
    changes nothing, and the cumulative estimate is identical at any
    epoch partitioning. The exactly-once sink discipline the additive
    tasks need (never double-count a partial) is thus not even load-
    bearing here; the same file layout is kept for uniformity."""

    name = "distinct_paths"

    def process_epoch(self, epoch: int, manifest: dict) -> None:
        files = _epoch_source_files(manifest)
        if not files:
            self._commit(epoch, pd.DataFrame(
                {
                    "g": pd.Series(dtype="object"),
                    "reg": pd.Series(dtype="int64"),
                    "rho": pd.Series(dtype="int64"),
                }
            ))
            return
        from cosmwasm_etl_ray.functions.approx import hll_partial
        from cosmwasm_etl_ray.functions.hashing import stable_hash64

        ds = ray.data.read_parquet(files, columns=["repo", "path"])

        def part(df: pd.DataFrame) -> pd.DataFrame:
            return hll_partial(
                df["repo"].to_numpy(), stable_hash64(df["path"].to_numpy())
            )

        from cosmwasm_etl_ray.functions.agg import shard_exchange
        from cosmwasm_etl_ray.functions.approx import HLL_M, hll_fold

        # fold per-block partials to one register set per (g, reg)
        # INSIDE the exchange (plus a coalescing pre-fold so shard
        # input is bounded per batch, not per block) — the driver
        # receives <= repos x 1024 rows however many blocks the epoch
        # had
        regs = shard_exchange(
            ds.map_batches(part, batch_format="pandas").map_batches(
                hll_fold, batch_format="pandas", batch_size=64 * HLL_M
            ),
            ["g"], hll_fold, 8,
        ).to_pandas()
        self._commit(epoch, regs)

    def view(self) -> pd.DataFrame:
        """Cumulative distinct-path estimate per repo."""
        from cosmwasm_etl_ray.functions.approx import hll_estimate

        cur = self.cursor()
        parts = [
            pd.read_parquet(self._epoch_out(e))
            for e in range((cur + 1) if cur is not None else 0)
            if os.path.exists(self._epoch_out(e))
        ]
        parts = [p for p in parts if len(p)]
        if not parts:
            return pd.DataFrame()
        merged = (
            pd.concat(parts, ignore_index=True)
            .groupby(["g", "reg"], as_index=False)["rho"]
            .max()
        )
        return (
            hll_estimate(merged)
            .rename(columns={"g": "repo", "hll_est": "distinct_paths_est"})
            .sort_values("repo")
            .reset_index(drop=True)
        )


def run_all_tasks(
    store, cfg: EngineConfig, concurrent: bool = True
) -> dict[str, list[int]]:
    """The scheduler tick, mirroring the reference's one-goroutine-per-
    task schedulers with first-error propagation
    (/root/reference/aggregator/aggregator.go:93-148): window_stats,
    repo_history and the cross-key PriceTask have no mutual dependency
    and tick CONCURRENTLY (each thread drives its own Ray Dataset jobs;
    the cluster interleaves them, so the cheap stats tasks ride the
    PriceTask's idle gaps instead of queueing behind it);
    lang_window_stats (the account-stats shape) is gated on the price
    cursor — it never processes an epoch the price stage hasn't
    reached. The first task error re-raises after the in-flight tick
    drains (per-task outputs are epoch-atomic, so a failed tick leaves
    resumable cursors). A price catch-up behind the epochs gc_state
    kept is refused before any task launches."""
    from concurrent.futures import ThreadPoolExecutor

    from cosmwasm_etl_ray.compat import ensure_thread_safe_lazy_imports
    from cosmwasm_etl_ray.pipelines.price import PriceTask

    out = {}
    price = PriceTask(store, cfg)
    price.pending()
    if concurrent:
        ensure_thread_safe_lazy_imports()
        with ThreadPoolExecutor(max_workers=4) as pool:
            futs = {
                WindowStatsTask.name: pool.submit(WindowStatsTask(store, cfg).run),
                RepoHistoryTask.name: pool.submit(RepoHistoryTask(store, cfg).run),
                DistinctPathsTask.name: pool.submit(
                    DistinctPathsTask(store, cfg).run
                ),
                PriceTask.name: pool.submit(price.run),
            }
            for name, f in futs.items():
                out[name] = f.result()  # first error propagates
    else:
        out[WindowStatsTask.name] = WindowStatsTask(store, cfg).run()
        out[RepoHistoryTask.name] = RepoHistoryTask(store, cfg).run()
        out[DistinctPathsTask.name] = DistinctPathsTask(store, cfg).run()
        out[PriceTask.name] = price.run()
    out[LangWindowStatsTask.name] = LangWindowStatsTask(store, cfg).run(
        parent_cursor=price.cursor()
    )
    return out
