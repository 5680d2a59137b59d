"""Oracle-checkable CDC queries over the documents-derived change stream.

Each function takes ``sf_dir`` and returns a Dataset / DataFrame; each
has an exact DuckDB twin in ``ORACLE_SQL`` built on the shared
``CHANGES_CTE``. These are the grafts of the reference's aggregation
layer (/root/reference/aggregator/task.go,
/root/reference/pkg/db/parser/repository.go):

- cdc_final_state   → the replayed "current state" table (A1 analogue,
                      the correctness oracle of the whole engine)
- cdc_live_counts   → per-repo live-path counts/bytes (pool-state sums)
- cdc_change_stats  → per (repo, window) change stats with distinct
                      counts (pair_stats_30m analogue, A3)
- cdc_history       → running cumulative per-repo prefix sums
                      (lp_history analogue, A2)
- cdc_first_seen    → first event per key (DISTINCT ON analogue, A9)

Every row that needs replayed state reads a store written by
``replay_files`` — the path the CLI, ``tail`` and the benchmark run —
never a store-less re-fold: ``_two_epoch_store`` (cut at the
time-travel commit; its epoch 0 is the as-of state, its latest the
final state) and ``_delta_store`` (small late epochs that append chain
links, with gc midway). Both come from one builder, ``_replayed_store``.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from cosmwasm_etl_ray.config import EngineConfig
from cosmwasm_etl_ray.functions.agg import grouped_agg, stats_with_distinct
from cosmwasm_etl_ray.functions.hashing import stable_hash64
from cosmwasm_etl_ray.functions.hashing import sha256_hex
from cosmwasm_etl_ray.pipelines.replay import read_state
from cosmwasm_etl_ray.sources.changes import CHANGES_CTE, changes_from_documents

_CFG = EngineConfig(num_partitions=32)

_WINDOW = 1_000_000  # commit-window size (the 30-min-window analogue)


def _final_state(sf_dir: str) -> "ray.data.Dataset":
    return read_state(_two_epoch_store(sf_dir))


def _hash_content(t: pa.Table) -> pa.Table:
    t = t.append_column("content_sha256", sha256_hex(t["content"]))
    return t.select(["repo", "path", "commit", "lang", "content_sha256"])


def cdc_final_state(sf_dir: str) -> "ray.data.Dataset":
    """Full replay; content replaced by its sha256 (the per-row
    invariant from BASELINE.json input_hint)."""
    return _final_state(sf_dir).map_batches(_hash_content, batch_format="pyarrow")


def cdc_live_counts(sf_dir: str) -> pd.DataFrame:
    """Per-repo live paths + content bytes — the replayed pool-state
    sums (/root/reference/pkg/db/parser/repository.go:147-152).
    Map-side partial aggregation, tiny final reduce."""

    def measures(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "repo": t["repo"],
                "n_chars": pc.utf8_length(t["content"]).cast(pa.int64()),
            }
        )

    return grouped_agg(
        _final_state(sf_dir).map_batches(measures, batch_format="pyarrow"),
        keys=["repo"],
        spec={"live_paths": ("n_chars", "count"), "total_chars": ("n_chars", "sum")},
    )


def _with_window(sf_dir: str) -> "ray.data.Dataset":
    def w(t: pa.Table) -> pa.Table:
        win = pc.divide(
            pc.cast(t["commit"], pa.int64()), pa.scalar(_WINDOW, pa.int64())
        )
        return t.append_column("window", win.cast(pa.int64()))

    return changes_from_documents(sf_dir).map_batches(w, batch_format="pyarrow")


def cdc_change_stats(sf_dir: str) -> "ray.data.Dataset":
    """Per (repo, commit-window): event counts by op + distinct paths —
    the reference's count(distinct) FILTER pattern
    (/root/reference/pkg/db/parser/repository.go:285-446). ONE shuffle:
    per-batch count partials and deduped distinct rows flow as a tagged
    stream, shard by key hash, reduce vectorized per shard — the
    high-cardinality key space never lands on the driver."""

    def measures(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(is_delete=(df["op"] == "delete").astype("int64"))
        return df[["repo", "window", "path", "is_delete"]]

    win = _with_window(sf_dir).map_batches(measures, batch_format="pandas")
    return stats_with_distinct(
        win,
        keys=["repo", "window"],
        spec={"n_events": ("is_delete", "count"), "n_deletes": ("is_delete", "sum")},
        distinct_col="path",
        distinct_name="distinct_paths",
    )


def cdc_history(sf_dir: str) -> pd.DataFrame:
    """Running cumulative events per repo over windows — the lp_history
    prefix-sum-with-carry analogue
    (/root/reference/aggregator/task.go:104-219). Window counts fold
    map-side; the prefix sum runs over the small per-window rollup."""
    win = grouped_agg(
        _with_window(sf_dir),
        keys=["repo", "window"],
        spec={"n": ("commit", "count")},
    )
    win = win.sort_values(["repo", "window"], kind="stable")
    win["cum_events"] = win.groupby("repo")["n"].cumsum().astype("int64")
    return win.drop(columns=["n"]).reset_index(drop=True)


def cdc_first_seen(sf_dir: str) -> pd.DataFrame:
    """First event per key — DISTINCT ON (key) ORDER BY commit analogue
    (/root/reference/pkg/db/parser/repository.go:677-743). min-commit
    per key is associative → per-batch partial fold, small final fold."""

    import numpy as np

    def partial_first(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("commit", kind="stable").drop_duplicates(
            ["repo", "path"], keep="first"
        )
        df = df[["repo", "path", "commit", "op"]].copy()
        cols = [df["repo"].to_numpy().astype("U"), df["path"].to_numpy().astype("U")]
        df["_ashard"] = (stable_hash64(*cols) % np.uint64(64)).astype("int32")
        return df

    def final_first(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values("commit", kind="stable").drop_duplicates(
            ["repo", "path"], keep="first"
        )

    # per-batch argmin partial → key-hash shard → per-shard vectorized
    # final fold: the full key space never reduces on the driver
    from cosmwasm_etl_ray.functions.agg import shard_exchange

    return shard_exchange(
        changes_from_documents(sf_dir).map_batches(
            partial_first, batch_format="pandas"
        ),
        ["_ashard"], final_first, 64, by_column=True,
    )


_SNAPSHOT_COMMIT = "0002000000"  # time-travel point: end of window 2


def cdc_state_at(sf_dir: str) -> "ray.data.Dataset":
    """Time-travel: final state as of a FIXED commit — read_state at
    the epoch that ends there (the liquidity-at-window-end / A6
    as-of-state pattern)."""

    def select(df):
        return df[["repo", "path", "commit", "lang"]]

    return read_state(_two_epoch_store(sf_dir), 0).map_batches(
        select, batch_format="pandas"
    )


def cdc_rel_size(sf_dir: str) -> "ray.data.Dataset":
    """Direct price (A7): per event, the repo's running live-char total
    and its ratio to the base repo's total as-of that commit — the
    cross-key as-of read in commit order
    (/root/reference/pkg/dex/price/price.go:125-175). The incremental
    PriceTask over the two-epoch store, so the as-of read crosses an
    epoch boundary through the task's carry."""
    from cosmwasm_etl_ray.pipelines.price import BASE_REPO, PriceTask

    task = PriceTask(_two_epoch_store(sf_dir), _CFG, base=BASE_REPO)
    task.run()
    return task.view()


def cdc_routes(sf_dir: str) -> pd.DataFrame:
    """Router (ST4/O4): shortest routes from every repo to the base
    repo over the bipartite repo–lang live-state graph; hop count then
    lexicographic route order
    (/root/reference/pkg/dex/router/route_info.go:130-147)."""
    from cosmwasm_etl_ray.pipelines.price import repo_lang_graph, shortest_routes

    edges, _ = repo_lang_graph(_final_state(sf_dir))
    return shortest_routes(edges)


def cdc_price_routed(sf_dir: str) -> pd.DataFrame:
    """Indirect price (A8/J9): resolve each repo's route, require every
    hop's pool live (liquidity cutoff), report the telescoped endpoint
    ratio chars(repo)/chars(base)."""
    from cosmwasm_etl_ray.pipelines.price import (
        repo_lang_graph,
        routed_prices,
        shortest_routes,
    )

    edges, sizes = repo_lang_graph(_final_state(sf_dir))
    return routed_prices(shortest_routes(edges), sizes)


def cdc_state_join_events(sf_dir: str) -> "ray.data.Dataset":
    """State ⋈ events (J6): later change events joined against the
    replayed state AS OF the snapshot commit — per event, whether its
    key existed in the snapshot and at which commit (the reference's
    lp_history ⋈ parsed_tx equi-join on (pair_id, height),
    /root/reference/pkg/db/parser/repository.go:184). Both sides are
    Datasets; one bucketed hash join, left-preserving."""
    from cosmwasm_etl_ray.functions.joins import hash_join

    def later(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["commit"], pa.scalar(_SNAPSHOT_COMMIT)))
        return t.select(["repo", "path", "commit", "op"])

    state = read_state(_two_epoch_store(sf_dir), 0).map_batches(
        lambda t: pa.table(
            {"repo": t["repo"], "path": t["path"], "prior_commit": t["commit"]}
        ),
        batch_format="pyarrow",
    )

    joined = hash_join(
        changes_from_documents(sf_dir).map_batches(later, batch_format="pyarrow"),
        state,
        on=["repo", "path"],
        how="left",
        left_cols={"repo": "object", "path": "object",
                   "commit": "object", "op": "object"},
        right_cols={"repo": "object", "path": "object", "prior_commit": "object"},
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["had_prior"] = df["prior_commit"].notna()
        df["prior_commit"] = df["prior_commit"].fillna("")
        return df[["repo", "path", "commit", "op", "had_prior", "prior_commit"]]

    return joined.map_batches(finish, batch_format="pandas")


_PREFIX = f"WITH {CHANGES_CTE.strip()}"

_FINAL_CTE = """
ranked AS (
    SELECT repo, path, "commit", lang, content, op,
           row_number() OVER (PARTITION BY repo, path ORDER BY "commit" DESC) AS rn
    FROM changes
),
final_state AS (
    SELECT repo, path, "commit", lang, content
    FROM ranked WHERE rn = 1 AND op <> 'delete'
)
"""

_WIN_EXPR = 'CAST(FLOOR(CAST("commit" AS BIGINT) / 1000000.0) AS BIGINT)'

ORACLE_SQL: dict[str, str] = {
    "cdc_final_state": f"""
{_PREFIX},
{_FINAL_CTE}
SELECT repo, path, "commit", lang, sha256(content) AS content_sha256
FROM final_state
""",
    "cdc_live_counts": f"""
{_PREFIX},
{_FINAL_CTE}
SELECT repo,
       CAST(count(*) AS BIGINT) AS live_paths,
       CAST(sum(length(content)) AS BIGINT) AS total_chars
FROM final_state GROUP BY repo
""",
    "cdc_change_stats": f"""
{_PREFIX}
SELECT repo,
       {_WIN_EXPR} AS window,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(count(*) FILTER (WHERE op = 'delete') AS BIGINT) AS n_deletes,
       CAST(count(DISTINCT path) AS BIGINT) AS distinct_paths
FROM changes GROUP BY repo, {_WIN_EXPR}
""",
    "cdc_history": f"""
{_PREFIX},
win AS (
    SELECT repo, {_WIN_EXPR} AS "window", count(*) AS n
    FROM changes GROUP BY repo, {_WIN_EXPR}
)
SELECT repo, "window",
       CAST(sum(n) OVER (PARTITION BY repo ORDER BY "window") AS BIGINT) AS cum_events
FROM win
""",
    "cdc_first_seen": f"""
{_PREFIX}
SELECT repo, path, "commit", op
FROM (
    SELECT repo, path, "commit", op,
           row_number() OVER (PARTITION BY repo, path ORDER BY "commit") AS rn
    FROM changes
) WHERE rn = 1
""",
}

_ROUTE_CTES = f"""
edges0 AS (SELECT DISTINCT repo AS u, 'lang:' || lang AS v FROM final_state),
edges AS (SELECT u, v FROM edges0 UNION ALL SELECT v, u FROM edges0),
walk(node, route, hops) AS (
    SELECT 'mono', ['mono'], 0
    UNION ALL
    SELECT e.v, list_prepend(e.v, w.route), w.hops + 1
    FROM walk w JOIN edges e ON e.u = w.node
    WHERE w.hops < 4 AND NOT list_contains(w.route, e.v)
),
best AS (
    SELECT node AS repo, hops, array_to_string(route, '->') AS route,
           row_number() OVER (
               PARTITION BY node
               ORDER BY hops, array_to_string(route, '->')
           ) AS rn
    FROM walk WHERE node NOT LIKE 'lang:%' AND node <> 'mono'
)
"""

ORACLE_SQL["cdc_rel_size"] = f"""
{_PREFIX},
ev AS (
    SELECT repo, path, "commit",
           CASE WHEN op = 'delete' THEN 0 ELSE length(content) END AS new_len
    FROM changes
),
d AS (
    SELECT repo, "commit",
           new_len - coalesce(lag(new_len) OVER (PARTITION BY repo, path ORDER BY "commit"), 0) AS delta
    FROM ev
),
r AS (
    SELECT repo, "commit",
           CAST(sum(delta) OVER (PARTITION BY repo ORDER BY "commit") AS BIGINT) AS repo_chars
    FROM d
),
base AS (SELECT "commit" AS bcommit, repo_chars AS base_chars FROM r WHERE repo = 'mono')
SELECT r.repo, r."commit", r.repo_chars, r.repo_chars / b.base_chars AS rel_size
FROM r ASOF JOIN base b ON r."commit" >= b.bcommit
WHERE b.base_chars > 0
"""

ORACLE_SQL["cdc_routes"] = f"""
WITH RECURSIVE {CHANGES_CTE.strip()},
{_FINAL_CTE.strip()},
{_ROUTE_CTES.strip()}
SELECT repo, CAST(hops AS BIGINT) AS hops, route FROM best WHERE rn = 1
"""

ORACLE_SQL["cdc_price_routed"] = f"""
WITH RECURSIVE {CHANGES_CTE.strip()},
{_FINAL_CTE.strip()},
{_ROUTE_CTES.strip()},
sizes AS (
    SELECT repo, CAST(sum(length(content)) AS BIGINT) AS chars
    FROM final_state GROUP BY repo
),
node_sizes AS (
    SELECT repo AS node, CAST(sum(length(content)) AS BIGINT) AS chars
    FROM final_state GROUP BY repo
    UNION ALL
    SELECT 'lang:' || lang AS node, CAST(sum(length(content)) AS BIGINT) AS chars
    FROM final_state GROUP BY lang
)
-- liquidity cutoff mirrored from the engine: EVERY hop node on the
-- route must have chars > 0, or the route is dry and emits no price
SELECT b.repo, CAST(b.hops AS BIGINT) AS hops,
       s.chars / (SELECT chars FROM sizes WHERE repo = 'mono') AS price
FROM best b JOIN sizes s ON s.repo = b.repo
WHERE b.rn = 1
  AND NOT EXISTS (
      SELECT 1 FROM unnest(string_split(b.route, '->')) AS t(node)
      LEFT JOIN node_sizes ns ON ns.node = t.node
      WHERE coalesce(ns.chars, 0) <= 0
  )
"""

ORACLE_SQL["cdc_state_at"] = f"""
{_PREFIX},
bounded AS (SELECT * FROM changes WHERE "commit" <= '{_SNAPSHOT_COMMIT}'),
ranked AS (
    SELECT repo, path, "commit", lang, op,
           row_number() OVER (PARTITION BY repo, path ORDER BY "commit" DESC) AS rn
    FROM bounded
)
SELECT repo, path, "commit", lang
FROM ranked WHERE rn = 1 AND op <> 'delete'
"""

def cdc_heavy_repos(sf_dir: str) -> "pd.DataFrame":
    """Hot-key detection over the change stream without an exact
    per-key pre-count: a Misra-Gries summary
    (<= 257 rows leave each block whatever the repo cardinality)
    proposes candidates, a broadcast count pass verifies them exactly,
    and the emitted shares are value-exact. phi = 5% of the stream;
    the generated stream's 'mono' repo (~14%) is the planted hitter."""
    from cosmwasm_etl_ray.functions.approx import heavy_hitters

    out = heavy_hitters(
        changes_from_documents(sf_dir).map_batches(
            lambda t: t.select(["repo"]), batch_format="pyarrow"
        ),
        key_fn=lambda df: df["repo"],
        phi_e4=500,
    )
    return out.rename(columns={"key": "repo"})


def cdc_running_distinct(sf_dir: str) -> "ray.data.Dataset":
    """Per-repo RUNNING count(DISTINCT path) across commit windows —
    the incremental-distinct shape: materializing per-window distinct
    SETS and unioning them is corpus-bounded, so the engine reduces
    distinct to FIRST-SEEN (each key contributes exactly once, at its
    min window — one partial-agg shuffle), counts new keys per
    (repo, window), left-joins those onto the repo's present windows,
    and prefix-sums per repo in one repo-sharded pass (the A2 carry
    pattern). The SQL twin counts first-seen keys <= w by an
    inequality join — an independent derivation, no window function.
    """
    from cosmwasm_etl_ray.functions.agg import sharded_map_groups
    from cosmwasm_etl_ray.functions.joins import hash_join

    win = _with_window(sf_dir).map_batches(
        lambda t: t.select(["repo", "path", "window"]), batch_format="pyarrow"
    ).materialize()  # two consumers: first-seen and present-windows

    first_seen = grouped_agg(
        win,
        keys=["repo", "path"],
        spec={"fw": ("window", "min")},
        final="shuffle",
    )
    new_counts = grouped_agg(
        first_seen.map_batches(
            lambda df: df.rename(columns={"fw": "window"}), batch_format="pandas"
        ),
        keys=["repo", "window"],
        spec={"n_new": ("path", "count")},
        final="shuffle",
    )
    wins = grouped_agg(
        win,
        keys=["repo", "window"],
        spec={"n_events": ("path", "count")},
        final="shuffle",
    )
    joined = hash_join(
        wins,
        new_counts,
        on=["repo", "window"],
        how="left",
        left_cols={"repo": "object", "window": "int64", "n_events": "int64"},
        right_cols={"repo": "object", "window": "int64", "n_new": "int64"},
    )

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["repo", "window"], kind="stable")
        new = g["n_new"].fillna(0).astype("int64")
        g["distinct_paths_cum"] = new.groupby(
            g["repo"], sort=False
        ).cumsum().astype("int64")
        return g[["repo", "window", "n_events", "distinct_paths_cum"]]

    return sharded_map_groups(joined, ["repo"], running)


ORACLE_SQL["cdc_running_distinct"] = f"""
{_PREFIX},
w AS (SELECT repo, path, {_WIN_EXPR} AS win FROM changes),
fs AS (SELECT repo, path, min(win) AS fw FROM w GROUP BY repo, path),
wins AS (
    SELECT repo, win, CAST(count(*) AS BIGINT) AS n_events
    FROM w GROUP BY repo, win
)
SELECT wins.repo, wins.win AS "window", wins.n_events,
       CAST(count(fs.path) AS BIGINT) AS distinct_paths_cum
FROM wins LEFT JOIN fs ON fs.repo = wins.repo AND fs.fw <= wins.win
GROUP BY wins.repo, wins.win, wins.n_events
"""


_STORES: dict[tuple[str, str], object] = {}
_GATE_MAX_EVENTS = 2_000_000


def _tmp_store_root(prefix: str) -> str:
    """mkdtemp under /tmp, removed at process exit — the query-cache
    stores are process-lifetime caches, not persistent artifacts, so
    repeated gate/bench runs must not accumulate /tmp state."""
    import atexit
    import shutil
    import tempfile

    root = tempfile.mkdtemp(prefix=prefix, dir="/tmp")
    atexit.register(shutil.rmtree, root, ignore_errors=True)
    return root


def _replayed_store(sf_dir: str, name: str, cuts, gc_after: int | None = None):
    """The gate's state store ``name`` for ``sf_dir``, built once per
    process by the production replay: the commit-sorted change stream
    is written as change-log files split at the row offsets
    ``cuts(stream)`` returns, and ``replay_files`` applies one file per
    epoch. With ``gc_after=k`` it replays the first k files, runs
    gc_state, and resumes over the rest."""
    import dataclasses
    import os

    import pyarrow.parquet as pq

    from cosmwasm_etl_ray.pipelines.replay import replay_files
    from cosmwasm_etl_ray.state.gc import gc_state
    from cosmwasm_etl_ray.state.manifest import StateStore

    if (name, sf_dir) in _STORES:
        return _STORES[name, sf_dir]
    # gate-scale only: the whole change stream is sorted on the driver
    # (≤ 50 events per document, the CHANGES_CTE expansion bound)
    n_docs = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    if n_docs * 50 > _GATE_MAX_EVENTS:
        raise ValueError(
            f"the {name} gate store would sort up to {n_docs * 50} change rows "
            f"on the driver; it is a gate fixture for ≤ {_GATE_MAX_EVENTS} events"
        )
    root = _tmp_store_root(f"cdc_{name}_store_")
    stream = pa.concat_tables(
        ray.get(changes_from_documents(sf_dir).to_arrow_refs())
    ).sort_by("commit")
    bounds = [0, *cuts(stream), stream.num_rows]
    files = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        files.append(os.path.join(root, f"changes-{i:03d}.parquet"))
        pq.write_table(stream.slice(lo, hi - lo), files[-1])
    cfg = dataclasses.replace(_CFG, epoch_max_events=1)  # one file per epoch
    store = StateStore(os.path.join(root, "store"))
    if gc_after is not None:
        replay_files(files[:gc_after], store, cfg)
        gc_state(store)
    replay_files(files, store, cfg)
    _STORES[name, sf_dir] = store
    return store


def _two_epoch_store(sf_dir: str):
    """Two epochs split at the time-travel commit: epoch 0 is the
    state as of ``_SNAPSHOT_COMMIT``, the latest the final state (LWW
    is epoch-split invariant). Every dense gate row reads it."""
    snap = pa.scalar(_SNAPSHOT_COMMIT)
    return _replayed_store(
        sf_dir, "two_epoch",
        lambda t: [pc.sum(pc.less_equal(t["commit"], snap)).as_py()],
    )


def cdc_epoch_diff(sf_dir: str) -> "ray.data.Dataset":
    """The change feed between two committed epochs — CDC OUT of the
    state store: manifest lineage names the partitions epoch 1 touched
    and only those pids' old+new files are read (IO follows the delta,
    not the store width), each diffed by a full-outer key merge into
    insert/update/delete rows. The incremental-consumer analogue of
    the reference's synced-height subscription
    (/root/reference/collector/repo/repository.go:102)."""
    from cosmwasm_etl_ray.pipelines.replay import epoch_diff

    return epoch_diff(_two_epoch_store(sf_dir), 0, 1)


ORACLE_SQL["cdc_epoch_diff"] = f"""
{_PREFIX},
r1 AS (
    SELECT repo, path, "commit", op,
           row_number() OVER (PARTITION BY repo, path ORDER BY "commit" DESC) AS rn
    FROM changes WHERE "commit" <= '{_SNAPSHOT_COMMIT}'
),
s1 AS (SELECT repo, path, "commit" FROM r1 WHERE rn = 1 AND op <> 'delete'),
r2 AS (
    SELECT repo, path, "commit", op,
           row_number() OVER (PARTITION BY repo, path ORDER BY "commit" DESC) AS rn
    FROM changes
),
s2 AS (SELECT repo, path, "commit" FROM r2 WHERE rn = 1 AND op <> 'delete')
SELECT coalesce(s2.repo, s1.repo) AS repo,
       coalesce(s2.path, s1.path) AS path,
       CASE WHEN s1.path IS NULL THEN 'insert'
            WHEN s2.path IS NULL THEN 'delete'
            ELSE 'update' END AS kind,
       coalesce(s2."commit", s1."commit") AS "commit"
FROM s1 FULL OUTER JOIN s2 ON s1.repo = s2.repo AND s1.path = s2.path
WHERE s1.path IS NULL OR s2.path IS NULL OR s1."commit" <> s2."commit"
"""


_LOOKUP_K = 16


def cdc_state_lookup(sf_dir: str) -> "ray.data.Dataset":
    """Point lookups on the replayed state store, pid-pruned: the key
    set (first K distinct keys in (repo, path) order, found by a
    per-block min-k contraction — never a global sort) hashes to a
    handful of partitions and ONLY those files are read
    (`replay.lookup_state`), however wide the store. The serving-path
    analogue of the reference's primary-key state reads
    (/root/reference/parser/dex/repo/repository.go:238-259), with
    partition pruning standing in for the B-tree."""
    from cosmwasm_etl_ray.pipelines.replay import lookup_state

    def local_topk(df: "pd.DataFrame") -> "pd.DataFrame":
        return (
            df[["repo", "path"]]
            .drop_duplicates()
            .sort_values(["repo", "path"], kind="stable")
            .head(_LOOKUP_K)
        )

    cand = (
        changes_from_documents(sf_dir)
        .map_batches(local_topk, batch_format="pandas")
        .to_pandas()
    )
    keys = (
        cand.drop_duplicates()
        .sort_values(["repo", "path"], kind="stable")
        .head(_LOOKUP_K)
        .reset_index(drop=True)
    )
    ds, _files = lookup_state(_two_epoch_store(sf_dir), keys, _CFG.num_partitions)
    return ds.map_batches(_hash_content, batch_format="pyarrow")


ORACLE_SQL["cdc_state_lookup"] = f"""
{_PREFIX},
{_FINAL_CTE},
keys AS (
    SELECT DISTINCT repo, path FROM changes ORDER BY repo, path LIMIT {_LOOKUP_K}
)
SELECT f.repo, f.path, f."commit", f.lang, sha256(f.content) AS content_sha256
FROM final_state f JOIN keys USING (repo, path)
"""


QUERIES = {
    "cdc_final_state": cdc_final_state,
    "cdc_state_lookup": cdc_state_lookup,
    "cdc_running_distinct": cdc_running_distinct,
    "cdc_epoch_diff": cdc_epoch_diff,
    "cdc_heavy_repos": cdc_heavy_repos,
    "cdc_state_at": cdc_state_at,
    "cdc_live_counts": cdc_live_counts,
    "cdc_change_stats": cdc_change_stats,
    "cdc_history": cdc_history,
    "cdc_first_seen": cdc_first_seen,
    "cdc_rel_size": cdc_rel_size,
    "cdc_routes": cdc_routes,
    "cdc_price_routed": cdc_price_routed,
    "cdc_state_join_events": cdc_state_join_events,
}

ORACLE_SQL["cdc_heavy_repos"] = f"""
{_PREFIX}
SELECT repo,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(count(*) * 10000 // (SELECT count(*) FROM changes) AS BIGINT)
           AS share_e4
FROM changes
GROUP BY repo
HAVING count(*) * 10000 > 500 * (SELECT count(*) FROM changes)
"""

ORACLE_SQL["cdc_state_join_events"] = f"""
{_PREFIX},
ranked AS (
    SELECT repo, path, "commit",
           row_number() OVER (PARTITION BY repo, path ORDER BY "commit" DESC) AS rn
    FROM changes WHERE "commit" <= '{_SNAPSHOT_COMMIT}'
),
snap AS (
    SELECT repo, path, "commit" AS prior_commit
    FROM ranked r
    WHERE rn = 1
      AND NOT EXISTS (
          SELECT 1 FROM changes c
          WHERE c.repo = r.repo AND c.path = r.path
            AND c."commit" = r."commit" AND c.op = 'delete'
      )
)
SELECT c.repo, c.path, c."commit", c.op,
       s.prior_commit IS NOT NULL AS had_prior,
       coalesce(s.prior_commit, '') AS prior_commit
FROM changes c
LEFT JOIN snap s ON s.repo = c.repo AND s.path = c.path
WHERE c."commit" > '{_SNAPSHOT_COMMIT}'
"""


def _delta_store(sf_dir: str):
    """A store whose final read folds appended links: one large first
    epoch writes the bases, then four epochs of ⅛ as many events as
    there are keys, which the write policy (stages/merge.appends)
    appends as links until a chain reaches its bounds. gc_state runs
    after the third file and the replay resumes — the chain lifecycle
    under the oracle gate."""

    def cuts(t: pa.Table) -> list[int]:
        inserts = pc.sum(pc.equal(t["op"], pa.scalar("insert"))).as_py() or 0
        small = max(1, inserts // 8)  # one insert per key
        return [t.num_rows - k * small for k in (4, 3, 2, 1)]

    store = _replayed_store(sf_dir, "delta", cuts, gc_after=3)
    if not any("chain" in v for v in store.manifest(store.latest_epoch())["partitions"].values()):
        raise RuntimeError("the gate's chain store holds no appended link")
    return store


def cdc_final_state_delta(sf_dir: str) -> "ray.data.Dataset":
    """cdc_final_state re-derived THROUGH appended state chains:
    epoch-split replay -> gc -> resume -> chain-folding read_state.
    Same oracle as cdc_final_state — appended links must hash-match
    the one-shot fold bit-for-bit."""
    return read_state(_delta_store(sf_dir)).map_batches(
        _hash_content, batch_format="pyarrow"
    )


QUERIES["cdc_final_state_delta"] = cdc_final_state_delta
ORACLE_SQL["cdc_final_state_delta"] = ORACLE_SQL["cdc_final_state"]
