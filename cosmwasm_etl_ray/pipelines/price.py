"""Price derivation + router — the cross-key stateful derived stage.

Graft of the reference's price/route subsystem, the one stage whose
value for an event depends on OTHER keys' state as-of that event:

- direct price (/root/reference/pkg/dex/price/price.go:125-175): on
  every swap, price = asset ratio of the touched pair. Graft:
  ``rel_size`` — for every change event, the emitting repo's running
  live-char count divided by the BASE repo's running count as-of that
  commit (a cross-key as-of read in commit order).
- route DFS (/root/reference/pkg/dex/router/router.go:22-45,
  route_info.go:31-181): routes between tokens through pairs, rebuilt
  only when the pair set grows, sorted by hop count then lexicographic
  order (O4). Graft: repos link through langs they have live files of
  (a bipartite repo–lang graph derived from replayed state); shortest
  routes to the base repo with the same (hops, lexicographic) order.
- indirect price (price.go:194-408): walk the route multiplying
  per-hop pool ratios. Graft: per-hop node-size ratios — which
  telescope, so the reported value is the exact endpoint ratio (the
  honest float choice); the walk itself (route resolve + per-hop
  liquidity lookup, J9) is what the machinery exercises.

Physical design (SURVEY §7.4 "hard parts"):
- per-repo running sums are PARTITION-LOCAL (shard by repo, vectorized
  cumsum in commit order);
- the cross-key denominator is ONE repo's curve — broadcast once per
  epoch and binary-searched per batch (the in-memory as-of search,
  J5 / aggregator/task.go:558-578), never a shuffle;
- the incremental task (PriceTask) runs under an epoch barrier: it
  joins each epoch's events against the PRIOR epoch's replayed state
  (the J6 state ⋈ events join) for previous content lengths, carries
  per-repo totals (token-cardinality state, like the reference's price
  cache ST3) and the base-curve tail between epochs, and rebuilds the
  route table only when the edge set changes (ST4).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from cosmwasm_etl_ray.config import EngineConfig
from cosmwasm_etl_ray.functions.agg import grouped_agg, sharded_map_groups

BASE_REPO = "mono"
MAX_HOPS = 4


# ---------------------------------------------------------------- direct price


def _event_lengths(t: pa.Table) -> pa.Table:
    """Per event: the length the key has AFTER the event (0 for delete)."""
    ln = pc.if_else(
        pc.equal(t["op"], pa.scalar("delete")),
        pa.scalar(0, pa.int64()),
        pc.cast(pc.utf8_length(t["content"]), pa.int64()),
    )
    return pa.table(
        {"repo": t["repo"], "path": t["path"], "commit": t["commit"], "new_len": ln}
    )


def repo_size_stream(
    changes: "ray.data.Dataset", shards: int = 32
) -> "ray.data.Dataset":
    """(repo, commit, repo_chars): each repo's running live-char total
    after every one of its events, in commit order. ONE shuffle: shard
    by repo; within a shard both the per-(repo,path) previous-length
    lag and the per-repo cumulative sum are vectorized groupby
    transforms."""
    ev = changes.map_batches(_event_lengths, batch_format="pyarrow")

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["repo", "path", "commit"], kind="stable")
        prev = (
            g.groupby(["repo", "path"], sort=False)["new_len"].shift(1).fillna(0)
        )
        g["delta"] = g["new_len"] - prev.astype("int64")
        g = g.sort_values(["repo", "commit"], kind="stable")
        g["repo_chars"] = (
            g.groupby("repo", sort=False)["delta"].cumsum().astype("int64")
        )
        return g[["repo", "commit", "repo_chars"]]

    return sharded_map_groups(ev, ["repo"], per_shard, shards=shards)


def relsize_asof(
    df: pd.DataFrame, commits: np.ndarray, chars: np.ndarray
) -> pd.DataFrame:
    """As-of rel_size against the base curve — THE shared kernel for
    all three shapes (streaming RelSize, incremental RelSizeEpoch, the
    direct exchange's part write), so a boundary-semantics change
    (side='right', the idx>=0 / chars>0 liquidity cutoffs) happens in
    exactly one place. Rows before the curve starts or at a dry base
    are dropped (no price is definable)."""
    idx = (
        np.searchsorted(commits, df["commit"].to_numpy().astype("U"), side="right")
        - 1
    )
    ok = idx >= 0
    df = df[ok]
    b = chars[idx[ok]]
    df = df[b > 0].copy()
    df["rel_size"] = df["repo_chars"].to_numpy() / b[b > 0]
    return df[["repo", "commit", "repo_chars", "rel_size"]]


def rel_size_stream(
    changes: "ray.data.Dataset", base: str = BASE_REPO, shards: int = 32
) -> "ray.data.Dataset":
    """Direct-price analogue: every event's repo_chars divided by the
    base repo's chars as-of that commit. The base curve (one repo's
    series) is broadcast once; each batch binary-searches it.

    ``sizes`` is consumed twice (base-curve extraction + the final
    map), so it is materialized into the object store once — without
    this the whole upstream shuffle would re-execute for the second
    consumer."""
    sizes = repo_size_stream(changes, shards=shards).materialize()
    base_df = (
        sizes.filter(expr=f"repo == '{base}'")
        .to_pandas()
        .sort_values("commit", kind="stable")
    )
    curve_ref = ray.put(
        (base_df["commit"].to_numpy().astype("U"), base_df["repo_chars"].to_numpy())
    )

    class RelSize:
        def __init__(self):
            self.commits, self.chars = ray.get(curve_ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            return relsize_asof(df, self.commits, self.chars)

    return sizes.map_batches(RelSize, batch_format="pandas", concurrency=(1, 8))


# --------------------------------------------------------------------- router


def repo_lang_graph(state: "ray.data.Dataset") -> tuple[pd.DataFrame, pd.DataFrame]:
    """From live state: (edges repo↔lang with n_files 'liquidity',
    node sizes in chars). Both are token-cardinality small (distributed
    pre-agg, driver-resident result — the reference's route/price cache
    scale, ST3/ST4)."""

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "repo": t["repo"],
                "lang": t["lang"],
                "chars": pc.cast(pc.utf8_length(t["content"]), pa.int64()),
            }
        )

    rl = grouped_agg(
        state.map_batches(prep, batch_format="pyarrow"),
        keys=["repo", "lang"],
        spec={"n_files": ("chars", "count"), "chars": ("chars", "sum")},
    )
    edges = rl[["repo", "lang", "n_files"]].copy()
    repo_sizes = rl.groupby("repo", as_index=False)["chars"].sum()
    lang_sizes = rl.groupby("lang", as_index=False)["chars"].sum()
    sizes = pd.concat(
        [
            repo_sizes.rename(columns={"repo": "node"}),
            lang_sizes.rename(columns={"lang": "node"}).assign(
                node=lambda d: "lang:" + d["node"]
            ),
        ],
        ignore_index=True,
    )
    return edges, sizes


def _lang_counts(pid: int, t: pa.Table) -> pa.Table:
    """One pid's live (repo, lang, n) counts — partials summed by
    repo_lang_edges (a (repo, lang) pair spans pids)."""
    t = t.filter(pc.invert(pc.equal(t["op"], pa.scalar("delete"))))
    n = t.group_by(["repo", "lang"]).aggregate([([], "count_all")])
    return n.select(["repo", "lang", "count_all"]).rename_columns(["repo", "lang", "n"])


def repo_lang_edges(store, epoch: int) -> pd.DataFrame:
    """Edge set ONLY (repo, lang, n_files) via a CONTENT-FREE pruned
    read of the state chains as of ``epoch``. The per-epoch ST4 change
    check needs just the edge key — paying for the wide content column
    every epoch (as repo_lang_graph's sizes side does) made the
    'rebuild only on growth' guard more expensive than what it guards.
    Each reader task returns its pids' partial counts (token
    cardinality); the driver sums them."""
    from cosmwasm_etl_ray.state.delta import map_chains, partition_chains

    chains = partition_chains(store, epoch)
    refs = map_chains(
        {p: (c,) for p, c in chains.items()}, _lang_counts, columns=["repo", "lang", "op"]
    )
    if not refs:
        return pd.DataFrame(columns=["repo", "lang", "n_files"])
    parts = pa.concat_tables(ray.get([r for _, r in refs]))
    edges = parts.group_by(["repo", "lang"]).aggregate([("n", "sum")])
    return edges.select(["repo", "lang", "n_sum"]).rename_columns(
        ["repo", "lang", "n_files"]
    ).to_pandas()


def shortest_routes(
    edges: pd.DataFrame, base: str = BASE_REPO, max_hops: int = MAX_HOPS
) -> pd.DataFrame:
    """Deterministic shortest routes from every repo to the base repo
    over the bipartite repo–lang graph. Order: hop count, then
    lexicographically smallest route string (the reference's route sort
    O4, /root/reference/pkg/dex/router/route_info.go:130-147).
    Driver-side BFS over the token-cardinality edge list, recomputed
    only when the edge set changes (ST4 rebuild-on-growth)."""
    adj: dict[str, set[str]] = {}
    for r in edges.itertuples():
        u, v = r.repo, f"lang:{r.lang}"
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    if base not in adj:
        return pd.DataFrame(columns=["repo", "hops", "route"])

    # BFS distances from base
    dist = {base: 0}
    frontier = [base]
    while frontier:
        nxt = []
        for n in frontier:
            for m in adj[n]:
                if m not in dist:
                    dist[m] = dist[n] + 1
                    nxt.append(m)
        frontier = nxt

    # lexicographically-minimal shortest route per node: process nodes
    # by distance; route(n) = n + '->' + min over predecessors' routes
    route = {base: base}
    for n in sorted(dist, key=lambda x: (dist[x], x)):
        if n == base:
            continue
        preds = [m for m in adj[n] if dist.get(m) == dist[n] - 1]
        route[n] = f"{n}->" + min(route[m] for m in preds)

    rows = [
        {"repo": n, "hops": dist[n], "route": route[n]}
        for n in dist
        if not n.startswith("lang:") and n != base and dist[n] <= max_hops
    ]
    return (
        pd.DataFrame(rows, columns=["repo", "hops", "route"])
        .sort_values("repo")
        .reset_index(drop=True)
    )


def routed_prices(
    routes: pd.DataFrame, sizes: pd.DataFrame, base: str = BASE_REPO
) -> pd.DataFrame:
    """Indirect price via the route walk (J9 route ⋈ sizes resolve):
    every hop's node must resolve to a positive size; per-hop ratios
    telescope, so the reported price is the exact endpoint ratio
    chars(repo)/chars(base) — float-products along the walk would only
    add rounding noise to the same value."""
    size_by_node = dict(zip(sizes["node"], sizes["chars"]))
    rows = []
    for r in routes.itertuples():
        nodes = r.route.split("->")
        if any(size_by_node.get(n, 0) <= 0 for n in nodes):
            continue  # a dry pool breaks the route (liquidity cutoff)
        rows.append(
            {
                "repo": r.repo,
                "hops": int(r.hops),
                "price": size_by_node[nodes[0]] / size_by_node[nodes[-1]],
            }
        )
    return pd.DataFrame(rows, columns=["repo", "hops", "price"])


# --------------------------------------------------- incremental derived task


class PriceTask:
    """Incremental rel_size under the epoch barrier — wired between the
    replay and the window-stats layer like the reference's
    lp_history → price → pair_stats chain
    (/root/reference/aggregator/aggregator.go:69-84).

    Per replay epoch e (never ahead of the replay manifest):
    1. join the epoch's events against the PRIOR epoch's replayed state
       on (repo, path) for previous content lengths — the J6
       state ⋈ events join;
    2. per-repo running sums continue from the carried totals (ST5
       carry-over; token-cardinality state, like the price cache ST3);
    3. the base curve tail carries over so as-of lookups cross epoch
       boundaries;
    4. the route table recomputes only when the repo–lang edge set
       changed (ST4) and is stored per epoch.
    Output: derived/price/epoch={e}/ — a DIRECTORY of parquet parts
    written distributed (per-event rel_size rows never funnel through
    the driver); the directory rename is the commit marker, idempotent
    on re-run. Only token-cardinality things (the carry, the base
    curve tail, per-repo finals) are driver-resident.
    """

    name = "price"

    def __init__(self, store, cfg: EngineConfig, base: str | None = None):
        """``base=None`` auto-resolves the base repo at the first
        non-empty epoch (lexicographically smallest repo seen) and
        PERSISTS the choice in the carry, so every later epoch — and
        every resume — prices against the same denominator."""
        self.store = store
        self.cfg = cfg
        self.base = base
        self.root = os.path.join(store.root, "derived", "price")
        os.makedirs(self.root, exist_ok=True)

    def cursor(self) -> int | None:
        es = [
            int(d.split("=")[1])
            for d in os.listdir(self.root)
            if d.startswith("epoch=") and "." not in d
        ]
        return max(es) if es else None

    def _out(self, epoch: int) -> str:
        return os.path.join(self.root, f"epoch={epoch}")

    def _carry_path(self, epoch: int) -> str:
        return os.path.join(self.root, f"carry={epoch}.json")

    def _routes_path(self, epoch: int) -> str:
        return os.path.join(self.root, f"routes={epoch}.parquet")

    def pending(self) -> list[int]:
        """The committed epochs this task has not processed yet. Epoch
        e joins the state as of e-1 and reads its own, so a catch-up
        behind the epochs gc_state kept is refused here, before any
        task launches (state/gc.require_chains)."""
        from cosmwasm_etl_ray.state.gc import require_chains

        start = (self.cursor() + 1) if self.cursor() is not None else 0
        todo = [e for e in self.store.committed_epochs() if e >= start]
        if todo:
            require_chains(self.store, range(max(todo[0] - 1, 0), todo[-1] + 1))
        return todo

    def run(self) -> list[int]:
        done = []
        for e in self.pending():
            self.process_epoch(e, self.store.manifest(e))
            done.append(e)
        return done

    def process_epoch(self, epoch: int, manifest: dict) -> None:
        from cosmwasm_etl_ray.pipelines.price_direct import process_epoch_direct

        process_epoch_direct(self, epoch, manifest)

    def _finish(self, epoch: int, carry: dict,
                epoch_for_routes: int | None = None,
                parts_dir: str | None = None) -> None:
        import shutil

        # ST4: rebuild routes only when the edge set changed. The check
        # itself is content-free (repo_lang_edges) — the old full
        # repo_lang_graph scan read the wide content column per epoch
        # only to discard the sizes half.
        if epoch_for_routes is not None:
            edges = repo_lang_edges(self.store, epoch)
            key = "|".join(sorted(edges["repo"] + ":" + edges["lang"]))
            if key != carry.get("edges_key"):
                route_base = carry.get("base") or self.base or BASE_REPO
                routes = shortest_routes(edges, base=route_base)
                tmp = f"{self._routes_path(epoch)}.tmp.{os.getpid()}"
                routes.to_parquet(tmp, index=False)
                os.replace(tmp, self._routes_path(epoch))
                carry = {**carry, "edges_key": key}

        tmp = f"{self._carry_path(epoch)}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(carry, f)
        os.replace(tmp, self._carry_path(epoch))

        # the output DIRECTORY rename is the commit marker (cursor):
        # ``parts_dir`` is the tmp dir the exchange's tasks wrote their
        # parts into (None: an epoch with no source events)
        outdir = self._out(epoch)
        tmpdir = parts_dir or f"{outdir}.tmp.{os.getpid()}"
        # a crashed PRIOR run leaves orphan tmps under its old pid —
        # epoch output dirs AND carry=/routes= sidecar files — sweep
        # the whole task root, but ONLY tmps whose writer is dead
        # (deleting a LIVE pid's tmp would break the concurrent-writer
        # safety the pid suffix exists for)
        import glob as _glob

        for stale in _glob.glob(os.path.join(self.root, "*.tmp.*")):
            if stale == tmpdir:
                continue
            owner = stale.rsplit(".", 1)[-1]
            if owner.isdigit() and os.path.exists(f"/proc/{owner}"):
                continue  # writer still alive — leave its tmp alone
            if os.path.isdir(stale):
                shutil.rmtree(stale, ignore_errors=True)
            else:
                try:
                    os.remove(stale)
                except OSError:
                    pass
        if parts_dir is None:
            shutil.rmtree(tmpdir, ignore_errors=True)
        # an all-empty output writes no files (and no dir) — the epoch
        # marker must exist regardless
        os.makedirs(tmpdir, exist_ok=True)
        shutil.rmtree(outdir, ignore_errors=True)
        os.replace(tmpdir, outdir)

    def view(self) -> pd.DataFrame:
        import glob as _glob

        cur = self.cursor()
        files = [
            f
            for e in range((cur + 1) if cur is not None else 0)
            for f in sorted(_glob.glob(os.path.join(self._out(e), "*.parquet")))
        ]
        if not files:
            return pd.DataFrame(columns=["repo", "commit", "repo_chars", "rel_size"])
        return (
            pd.concat([pd.read_parquet(f) for f in files], ignore_index=True)
            .sort_values(["commit"], kind="stable")
            .reset_index(drop=True)
        )

    def latest_routes(self) -> pd.DataFrame:
        rs = [
            int(f.split("=")[1].split(".")[0])
            for f in os.listdir(self.root)
            if f.startswith("routes=") and f.endswith(".parquet")
        ]
        if not rs:
            return pd.DataFrame(columns=["repo", "hops", "route"])
        return pd.read_parquet(self._routes_path(max(rs)))


def _valid_events(t: pa.Table) -> pa.Table:
    """THE replay's validity predicate (stages/normalize._valid_mask),
    not a local rewrite: the derived task must drop exactly the rows
    the replay quarantined — a null-repo row that slips through here
    silently seeds the carry from the wrong repo (factorize code -1)."""
    from cosmwasm_etl_ray.stages.normalize import _valid_mask

    return t.filter(_valid_mask(t))


def _state_lengths(t: pa.Table) -> pa.Table:
    ln = pc.if_else(
        pc.equal(t["op"], pa.scalar("delete")),
        pa.scalar(0, pa.int64()),
        pc.cast(pc.utf8_length(t["content"]), pa.int64()),
    )
    return pa.table({"repo": t["repo"], "path": t["path"], "state_len": ln})
