"""Price/router derived stage: the incremental task equals a serial
pandas oracle, carry-over across epochs, route rebuild only on edge-set
change, DAG gating of downstream tasks on the price cursor."""

import os

import numpy as np
import pandas as pd
import pytest

from cosmwasm_etl_ray.config import EngineConfig, GeneratorConfig
from cosmwasm_etl_ray.pipelines.price import (
    PriceTask,
    repo_lang_graph,
    routed_prices,
    shortest_routes,
)
from cosmwasm_etl_ray.pipelines.replay import replay_files
from cosmwasm_etl_ray.sources.generator import generate_change_stream
from cosmwasm_etl_ray.state.manifest import StateStore

CFG = EngineConfig(num_partitions=8, epoch_max_events=15_000, batch_size=4096)
BASE = "repo_1"  # the zipf-hot repo: active from the first events


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    root = tmp_path_factory.mktemp("price")
    log = generate_change_stream(
        str(root / "log"),
        GeneratorConfig(
            seed=71, n_keys=800, n_events=60_000, events_per_file=7_500,
            malformed_frac=0.002, evolve_at_frac=None,
        ),
    )
    store = StateStore(str(root / "store"))
    replay_files(log["files"], store, CFG)
    return log, store


def test_price_task_rerun_is_incremental_noop(replayed):
    log, store = replayed
    task = PriceTask(store, CFG, base=BASE)
    task.run()
    assert task.run() == []  # cursor says done


def test_routes_deterministic_and_reachable(replayed):
    log, store = replayed
    from cosmwasm_etl_ray.pipelines.replay import read_state

    edges, sizes = repo_lang_graph(read_state(store))
    routes = shortest_routes(edges, base=BASE)
    assert len(routes) > 0
    # every route starts at its repo, ends at base, alternates repo/lang
    for r in routes.itertuples():
        nodes = r.route.split("->")
        assert nodes[0] == r.repo and nodes[-1] == BASE
        assert r.hops == len(nodes) - 1
        assert all(n.startswith("lang:") for n in nodes[1:-1:2])
    # deterministic across recomputation
    routes2 = shortest_routes(edges, base=BASE)
    pd.testing.assert_frame_equal(routes, routes2)

    prices = routed_prices(routes, sizes, base=BASE)
    per_repo = dict(zip(sizes["node"], sizes["chars"]))
    for p in prices.itertuples():
        assert p.price == per_repo[p.repo] / per_repo[BASE]


def test_route_table_rebuilt_only_on_edge_change(replayed):
    """A routes file exists at exactly the epochs whose edge-set key
    differs from the previous epoch's (ST4: rebuild on key-space
    change, never redundantly)."""
    import json

    log, store = replayed
    task = PriceTask(store, CFG, base=BASE)
    task.run()
    epochs = store.committed_epochs()
    keys = []
    for e in epochs:
        with open(task._carry_path(e)) as f:
            keys.append(json.load(f)["edges_key"])
    expected_rebuilds = [
        e for i, e in enumerate(epochs) if i == 0 or keys[i] != keys[i - 1]
    ]
    route_epochs = sorted(
        int(f.split("=")[1].split(".")[0])
        for f in os.listdir(task.root)
        if f.startswith("routes=")
    )
    assert route_epochs == expected_rebuilds
    assert len(task.latest_routes()) > 0


def test_lang_window_stats_gated_on_price_cursor(replayed):
    """Child task never runs ahead of its parent's cursor (the
    waitUntilReachingHeight analogue)."""
    log, store = replayed
    from cosmwasm_etl_ray.pipelines.aggregator import LangWindowStatsTask

    child = LangWindowStatsTask(store, CFG)
    assert child.run(parent_cursor=1) == [0, 1]  # parent only reached 1
    assert child.cursor() == 1
    assert child.run(parent_cursor=None) == store.committed_epochs()[2:]


def test_price_task_crash_resume(replayed):
    """Carry is written before the epoch parquet (the cursor): a crash
    between the two reprocesses the epoch deterministically."""
    import glob

    log, store = replayed
    task = PriceTask(store, CFG, base=BASE)
    task.run()
    full = task.view()

    # simulate the crash: last epoch's output dir (cursor) vanishes,
    # the carry file survives
    import shutil

    last = task.cursor()
    shutil.rmtree(task._out(last))
    assert task.cursor() == last - 1

    resumed = PriceTask(store, CFG, base=BASE)
    assert resumed.run() == [last]  # exactly the lost epoch reruns
    pd.testing.assert_frame_equal(resumed.view(), full)


def _price_oracle(files, base: str) -> pd.DataFrame:
    """Serial pandas rel_size: per key the length after each valid
    event (0 for a delete), per repo the running sum of length deltas
    in commit order, divided by the base repo's running sum as of the
    same commit (rows before the base curve or at a dry base drop)."""
    ev = pd.concat([pd.read_parquet(f) for f in files], ignore_index=True)
    ok = (
        ev["commit"].fillna("").str.fullmatch(r"[0-9]+")
        & ev["op"].isin(["insert", "update", "delete"])
        & ev["repo"].notna() & ev["path"].notna()
    )
    ev = ev[ok].sort_values("commit", kind="stable").reset_index(drop=True)
    new_len = np.where(ev["op"] == "delete", 0, ev["content"].fillna("").str.len())
    ev["new_len"] = new_len.astype("int64")
    prev = ev.groupby(["repo", "path"])["new_len"].shift(1).fillna(0)
    ev["repo_chars"] = (
        (ev["new_len"] - prev).groupby(ev["repo"]).cumsum().astype("int64")
    )
    curve = ev[ev["repo"] == base]
    commits = curve["commit"].to_numpy().astype("U")
    chars = curve["repo_chars"].to_numpy()
    idx = np.searchsorted(commits, ev["commit"].to_numpy().astype("U"), "right") - 1
    b = np.where(idx >= 0, chars[np.maximum(idx, 0)], 0)
    out = ev.loc[b > 0, ["repo", "commit", "repo_chars"]].copy()
    out["rel_size"] = out["repo_chars"].to_numpy() / b[b > 0]
    return out


def test_price_task_matches_pandas_oracle(replayed, tmp_path):
    """Per-event rel_size of the incremental task equals the serial
    pandas oracle over the raw log, and its latest route table equals
    the routes of the final state's repo–lang edges."""
    from cosmwasm_etl_ray.pipelines.replay import serial_oracle_replay

    log, store = replayed
    task = PriceTask.__new__(PriceTask)
    task.store, task.cfg, task.base = store, CFG, BASE
    task.root = str(tmp_path / "price")
    os.makedirs(task.root, exist_ok=True)
    task.run()

    def norm(df):
        return df.sort_values(["commit", "repo"], kind="stable").reset_index(drop=True)

    want = norm(_price_oracle(log["files"], BASE))
    got = norm(task.view())[list(want.columns)]
    pd.testing.assert_frame_equal(got, want)

    raw = pd.concat([pd.read_parquet(f) for f in log["files"]], ignore_index=True)
    final = serial_oracle_replay(raw)
    edges = final.groupby(["repo", "lang"], as_index=False).size()
    pd.testing.assert_frame_equal(
        task.latest_routes(), shortest_routes(edges, base=BASE)
    )


def test_valid_events_matches_replay_predicate():
    """The price task must drop exactly what the replay quarantines:
    a null-repo row that slips through crashes the dataset path's
    cumsum int cast and mis-seeds the direct path's carry
    (factorize code -1 indexes the last real repo)."""
    import pyarrow as pa

    from cosmwasm_etl_ray.pipelines.price import _valid_events
    from cosmwasm_etl_ray.stages.normalize import _valid_mask

    t = pa.table(
        {
            "repo": ["r", None, "r", "r", "r"],
            "path": ["p", "p", None, "p", "p"],
            "commit": ["0001", "0002", "0003", "bad", "0005"],
            "content": ["a"] * 5,
            "op": ["insert", "update", "update", "update", "weird"],
        }
    )
    out = _valid_events(t)
    assert out.num_rows == 1  # only the fully-valid first row
    assert out.num_rows == _valid_mask(t).to_pandas().sum()
