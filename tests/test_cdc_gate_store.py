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
