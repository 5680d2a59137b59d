"""Independent DuckDB oracle over a generated change log.

Nothing here imports the engine. Everything is derived from the log
files alone with SQL:

- ``last``: per key and file index, the key's last valid event in that
  file (commit, op, sha256 of content);
- the live state after file ``k`` and its digest over
  ``(repo, path, commit, sha256(content))``;
- the expected rows of a point lookup at file ``k``;
- the expected insert/update/delete rows of the change feed of file
  ``k`` (one file is one epoch in every workload);
- the ``window_stats`` and ``repo_history`` rollups after file ``k``.

The cached part (``last`` and the lookup keys) is written beside the
inputs, so building it is not part of any timed region.
"""

from __future__ import annotations

import contextlib
import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa

LOOKUP_KEYS = 100
_ENGINE_STATE = (
    'SELECT repo, path, "commit", sha256(content) AS csha FROM engine_rows'
)
_VALID = (
    "\"commit\" IS NOT NULL AND regexp_full_match(\"commit\", '[0-9]+') "
    "AND op IN ('insert', 'update', 'delete') "
    "AND repo IS NOT NULL AND path IS NOT NULL"
)


def _events_sql(files: list[str], columns: str) -> str:
    lst = ", ".join("'" + f.replace("'", "''") + "'" for f in files)
    return (
        f"SELECT {columns}, CAST(regexp_extract(filename, "
        f"'changes-([0-9]+)\\.parquet', 1) AS INTEGER) AS f "
        f"FROM read_parquet([{lst}], union_by_name = true, filename = true) "
        f"WHERE {_VALID}"
    )


def build(files: list[str], out_dir: str, seed: int) -> None:
    """Write ``last.parquet`` and ``lookup_keys.parquet`` to ``out_dir``."""
    con = duckdb.connect(config={"threads": 1})
    events = _events_sql(files, 'repo, path, "commit", op, content')
    con.execute(
        "COPY (SELECT repo, path, f, max(\"commit\") AS \"commit\", "
        "arg_max(op, \"commit\") AS op, "
        "arg_max(sha256(content), \"commit\") AS csha "
        f"FROM ({events}) "
        "GROUP BY repo, path, f ORDER BY f, repo, path) "
        f"TO '{os.path.join(out_dir, 'last.parquet')}' (FORMAT parquet)"
    )
    last = con.execute(
        f"SELECT f, repo, path FROM '{os.path.join(out_dir, 'last.parquet')}' "
        "ORDER BY f, repo, path"
    ).df()
    picks = []
    for f, g in last.groupby("f", sort=True):
        rng = np.random.default_rng([seed, int(f), 99])
        n = min(LOOKUP_KEYS, len(g))
        picks.append(g.iloc[np.sort(rng.choice(len(g), size=n, replace=False))])
    pd.concat(picks, ignore_index=True).to_parquet(
        os.path.join(out_dir, "lookup_keys.parquet"), index=False
    )
    con.close()


class Oracle:
    """Queries over a built oracle directory and its log files."""

    def __init__(self, files: list[str], out_dir: str):
        self.files = files
        self.con = duckdb.connect(config={"threads": 1})
        self.con.execute(
            f"CREATE VIEW last AS SELECT * FROM "
            f"'{os.path.join(out_dir, 'last.parquet')}'"
        )
        self.keys = pd.read_parquet(os.path.join(out_dir, "lookup_keys.parquet"))

    def close(self) -> None:
        self.con.close()

    # ---- state ----
    def _state_sql(self, k: int) -> str:
        return (
            "SELECT repo, path, \"commit\", csha FROM ("
            "SELECT repo, path, arg_max(\"commit\", f) AS \"commit\", "
            "arg_max(op, f) AS op, arg_max(csha, f) AS csha "
            f"FROM last WHERE f <= {int(k)} GROUP BY repo, path) "
            "WHERE op <> 'delete'"
        )

    def state_digest(self, k: int) -> tuple[int, int]:
        return self._digest(self._state_sql(k))

    def _digest(self, rel_sql: str) -> tuple[int, int]:
        n, h = self.con.execute(
            "SELECT count(*), coalesce(sum(hash(repo, path, \"commit\", csha)"
            f"::HUGEINT), 0) FROM ({rel_sql})"
        ).fetchone()
        return int(n), int(h)

    @contextlib.contextmanager
    def _registered(self, **frames):
        """Engine output (and other frames) visible to SQL by name."""
        for name, frame in frames.items():
            self.con.register(name, frame)
        try:
            yield
        finally:
            for name in frames:
                self.con.unregister(name)

    def _differ(self, a: str, b: str) -> int:
        """Rows in the symmetric (multiset) difference of two queries."""
        return int(
            self.con.execute(
                f"SELECT count(*) FROM (({a} EXCEPT ALL {b}) "
                f"UNION ALL ({b} EXCEPT ALL {a}))"
            ).fetchone()[0]
        )

    def digest_of(self, table: pa.Table) -> tuple[int, int]:
        """Digest of an engine-produced table with repo, path, commit,
        content columns, by the same SQL as the oracle side."""
        with self._registered(engine_rows=table):
            return self._digest(_ENGINE_STATE)

    def state_mismatches(self, k: int, table: pa.Table) -> int:
        """Rows in the symmetric difference of the engine's live state
        and the oracle state after file ``k`` (0 = equal)."""
        with self._registered(engine_rows=table):
            return self._differ(_ENGINE_STATE, self._state_sql(k))

    # ---- point lookups ----
    def lookup_keys(self, k: int) -> pd.DataFrame:
        return self.keys[self.keys["f"] == k][["repo", "path"]].reset_index(drop=True)

    def lookup_mismatches(self, k: int, table: pa.Table) -> int:
        """Lookup of file k's keys, read right after file k committed:
        each key's newest event is in file k, so the expected live rows
        are file k's last events that are not deletes."""
        exp = (
            "SELECT l.repo, l.path, l.\"commit\", l.csha FROM last l "
            f"JOIN want w USING (repo, path) WHERE l.f = {int(k)} "
            "AND l.op <> 'delete'"
        )
        with self._registered(engine_rows=table, want=self.lookup_keys(k)):
            return self._differ(_ENGINE_STATE, exp)

    # ---- change feed ----
    def _feed_sql(self, k: int) -> str:
        return (
            "SELECT repo, path, kind, \"commit\" FROM ("
            "SELECT repo, path, "
            "CASE WHEN c.op <> 'delete' AND (p.op IS NULL OR p.op = 'delete') "
            "THEN 'insert' WHEN c.op <> 'delete' THEN 'update' "
            "WHEN p.op IS NOT NULL AND p.op <> 'delete' THEN 'delete' END AS kind, "
            "CASE WHEN c.op <> 'delete' THEN c.\"commit\" ELSE p.\"commit\" END "
            "AS \"commit\" "
            f"FROM (SELECT * FROM last WHERE f = {int(k)}) c LEFT JOIN ("
            "SELECT repo, path, arg_max(op, f) AS op, "
            "arg_max(\"commit\", f) AS \"commit\" "
            f"FROM last WHERE f < {int(k)} GROUP BY repo, path) p "
            "USING (repo, path)) WHERE kind IS NOT NULL"
        )

    def feed_mismatches(self, k: int, table: pa.Table) -> int:
        """Engine feed rows (repo, path, kind, commit) against the
        expected change feed of file ``k``."""
        with self._registered(engine_rows=table):
            return self._differ(
                'SELECT repo, path, kind, "commit" FROM engine_rows',
                self._feed_sql(k),
            )

    # ---- derived rollups ----
    def window_stats(self, k: int, window: int) -> pd.DataFrame:
        ev = _events_sql(self.files, 'repo, "commit", op, content')
        return self.con.execute(
            f"SELECT repo, CAST(\"commit\" AS BIGINT) // {int(window)} AS \"window\", "
            "count(*) AS n_events, "
            "CAST(sum(CASE WHEN op = 'delete' THEN 1 ELSE 0 END) AS BIGINT) AS n_deletes, "
            "CAST(sum(length(content)) AS BIGINT) AS content_bytes "
            f"FROM ({ev}) WHERE f <= {int(k)} GROUP BY ALL ORDER BY repo, \"window\""
        ).df()

    def repo_history(self, k: int) -> pd.DataFrame:
        ev = _events_sql(self.files, "repo")
        return self.con.execute(
            "SELECT repo, count(*) AS cum_events "
            f"FROM ({ev}) WHERE f <= {int(k)} GROUP BY repo ORDER BY repo"
        ).df()

