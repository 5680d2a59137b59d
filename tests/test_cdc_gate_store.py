"""The CDC gate rows that read replayed state: each reads a store written
by ``replay_files`` (the two-epoch store, or the chained store with gc
midway) and must hash-match its DuckDB oracle, as the gate checks it.
No pipeline re-folds state through a Dataset ``groupby("pid")``."""

import pathlib

import duckdb
import pytest

from cosmwasm_etl_ray.pipelines import queries_cdc
from tools.check_correctness import to_pandas, value_hash

GATE_ROWS = [
    "cdc_final_state",
    "cdc_state_at",
    "cdc_state_join_events",
    "cdc_rel_size",
    "cdc_epoch_diff",
    "cdc_final_state_delta",
]


@pytest.fixture(scope="module")
def duck(sf_dir):
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')"
    )
    return con


@pytest.mark.parametrize("name", GATE_ROWS)
def test_gate_row_matches_oracle(name, sf_dir, duck):
    mine = to_pandas(queries_cdc.QUERIES[name](sf_dir))
    ref = duck.sql(queries_cdc.ORACLE_SQL[name]).df()
    assert len(mine) == len(ref) > 0
    assert sorted(mine.columns) == sorted(ref.columns)
    assert value_hash(mine) == value_hash(ref)


def test_pipelines_hold_no_pid_groupby():
    """State is folded only by the replay's merge links and the state
    reader; a Dataset hash shuffle by pid is a second apply path."""
    root = pathlib.Path(queries_cdc.__file__).parent
    hits = [
        f"{f.relative_to(root)}:{i}"
        for f in sorted(root.rglob("*.py"))
        for i, line in enumerate(f.read_text().splitlines(), 1)
        if 'groupby("pid")' in line
    ]
    assert hits == []


def test_feed_over_links_matches_oracle(sf_dir, duck):
    """epoch_diff on the chained gate store (``_delta_store``: links,
    gc after the third file, a resume) across an epoch that appends a
    link and one that folds chains into bases — a link and its base,
    and a fold's old and new slices, sit in different files — equals
    DuckDB's diff of the LWW states over the change-log files the
    store replayed."""
    import glob
    import os

    from cosmwasm_etl_ray.pipelines.replay import epoch_diff

    store = queries_cdc._delta_store(sf_dir)
    logs = sorted(glob.glob(os.path.join(os.path.dirname(store.root), "changes-*.parquet")))
    assert len(logs) == store.latest_epoch() + 1

    def touched(e):
        return [(p, v) for p, v in store.manifest(e)["partitions"].items() if v["epoch"] == e]

    # epochs after gc (its kept window starts at epoch 2)
    appends = [e for e in (3, 4) if any("chain" in v for _, v in touched(e))]
    folds = [
        e for e in (3, 4)
        if any("chain" not in v and "chain" in store.manifest(e - 1)["partitions"][p]
               for p, v in touched(e))
    ]
    assert appends and folds

    def state(k: int) -> str:
        files = ", ".join(f"'{f}'" for f in logs[: k + 1])
        return f"""
            SELECT repo, path, "commit" FROM (
                SELECT repo, path, "commit", op, row_number() OVER (
                    PARTITION BY repo, path ORDER BY "commit" DESC) AS rn
                FROM read_parquet([{files}], union_by_name = true)
            ) WHERE rn = 1 AND op <> 'delete'"""

    for e in sorted({appends[0], folds[0]}):
        ref = duck.sql(f"""
            WITH s1 AS ({state(e - 1)}), s2 AS ({state(e)})
            SELECT coalesce(s2.repo, s1.repo) AS repo,
                   coalesce(s2.path, s1.path) AS path,
                   CASE WHEN s1.path IS NULL THEN 'insert'
                        WHEN s2.path IS NULL THEN 'delete'
                        ELSE 'update' END AS kind,
                   coalesce(s2."commit", s1."commit") AS "commit"
            FROM s1 FULL OUTER JOIN s2 ON s1.repo = s2.repo AND s1.path = s2.path
            WHERE s1.path IS NULL OR s2.path IS NULL OR s1."commit" <> s2."commit"
        """).df()
        mine = to_pandas(epoch_diff(store, e - 1, e))
        assert len(mine) == len(ref) > 0, e
        assert value_hash(mine[sorted(mine.columns)]) == value_hash(ref[sorted(ref.columns)]), e
