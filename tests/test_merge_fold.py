"""Unit tests for the LWW fold — golden tables, associativity, the
combiner, Override.

Mirrors the reference's table-driven mapper tests
(/root/reference/parser/dex/dezswap/mappers_test.go) for the graft's
merge semantics.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from cosmwasm_etl_ray.pipelines.replay import _live_rows
from cosmwasm_etl_ray.stages.merge import (
    fold_lww_arrow,
    fold_override,
    fold_partial_arrow,
)


def ev(repo, path, commit, op="update", lang="go", content="x", **extra):
    return {
        "repo": repo,
        "path": path,
        "commit": f"{commit:010d}",
        "op": op,
        "lang": lang,
        "content": content,
        **extra,
    }


def lww(df: pd.DataFrame) -> pd.DataFrame:
    """fold_lww_arrow on a frame (tombstones kept)."""
    return fold_lww_arrow(pa.Table.from_pandas(df, preserve_index=False)).to_pandas()


def live(df: pd.DataFrame) -> pd.DataFrame:
    """The readers' view of folded state: tombstones dropped."""
    return _live_rows(pa.Table.from_pandas(df, preserve_index=False)).to_pandas()


def pandas_lww(df: pd.DataFrame) -> pd.DataFrame:
    """Reference fold kept in the test: stable sort by numeric commit,
    last row per key wins, output sorted by key."""
    order = pd.to_numeric(df["commit"]).sort_values(kind="stable").index
    out = df.loc[order].drop_duplicates(["repo", "path"], keep="last")
    return out.sort_values(["repo", "path"], kind="stable").reset_index(drop=True)


def test_lww_keeps_max_commit_row():
    df = pd.DataFrame(
        [
            ev("r", "a", 1, "insert", content="v1"),
            ev("r", "a", 3, "update", content="v3"),
            ev("r", "a", 2, "update", content="v2"),
            ev("r", "b", 5, "insert", content="b5"),
        ]
    )
    out = lww(df)
    assert out["content"].tolist() == ["v3", "b5"]
    assert out["commit"].tolist() == ["0000000003", "0000000005"]


def test_tombstone_kept_in_partial_dropped_in_finalize():
    df = pd.DataFrame(
        [
            ev("r", "a", 1, "insert"),
            ev("r", "a", 2, "delete", content=""),
            ev("r", "b", 1, "insert"),
        ]
    )
    part = lww(df)
    assert set(part["op"]) == {"delete", "insert"}
    fin = live(part)
    assert fin["path"].tolist() == ["b"]
    assert "op" not in fin.columns


def test_delete_then_reinsert_survives():
    df = pd.DataFrame(
        [
            ev("r", "a", 1, "insert", content="old"),
            ev("r", "a", 2, "delete", content=""),
            ev("r", "a", 3, "insert", content="new"),
        ]
    )
    fin = live(lww(df))
    assert fin["content"].tolist() == ["new"]


def test_fold_is_associative_under_arbitrary_splits():
    rng = np.random.default_rng(7)
    n = 500
    df = pd.DataFrame(
        [
            ev(
                "r",
                f"p{rng.integers(0, 20)}",
                int(c),
                op=rng.choice(["update", "delete"], p=[0.85, 0.15]),
                content=f"c{c}",
            )
            for c in rng.permutation(n)
        ]
    )
    whole = live(lww(df))
    for splits in (2, 3, 7):
        parts = [
            lww(chunk)
            for chunk in np.array_split(df.sample(frac=1, random_state=splits), splits)
        ]
        merged = live(lww(pd.concat(parts, ignore_index=True)))
        pd.testing.assert_frame_equal(
            whole[["repo", "path", "commit", "content"]],
            merged[["repo", "path", "commit", "content"]],
        )


def test_override_coalesce_last_non_empty_wins():
    # the ParsedTx.Override analogue: empty/missing column inherits
    df = pd.DataFrame(
        [
            ev("r", "a", 1, "insert", lang="go", content="v1"),
            ev("r", "a", 2, "update", lang="", content="v2"),
            ev("r", "a", 3, "update", lang="py", content=""),
        ]
    )
    out = live(fold_override(df))
    assert out["lang"].tolist() == ["py"]
    assert out["content"].tolist() == ["v2"]  # v3 was empty → v2 survives
    assert out["commit"].tolist() == ["0000000003"]


def test_override_tombstone_barrier_blocks_resurrection():
    df = pd.DataFrame(
        [
            ev("r", "a", 1, "insert", lang="go", content="old"),
            ev("r", "a", 2, "delete", lang="", content=""),
            ev("r", "a", 3, "update", lang="", content="new"),
        ]
    )
    out = live(fold_override(df))
    # content from after the delete; lang must NOT resurrect 'go'
    assert out["content"].tolist() == ["new"]
    assert out["lang"].isna().all()


def test_override_dead_key_keeps_tombstone():
    df = pd.DataFrame(
        [
            ev("r", "a", 1, "insert"),
            ev("r", "a", 2, "delete", content=""),
        ]
    )
    part = fold_override(df)
    assert part["op"].tolist() == ["delete"]
    assert live(part).empty


@pytest.mark.parametrize("commit_tie", [True])
def test_equal_commit_tie_breaks_by_input_order(commit_tie):
    df = pd.DataFrame(
        [
            ev("r", "a", 5, "update", content="first"),
            ev("r", "a", 5, "update", content="second"),
        ]
    )
    assert lww(df)["content"].tolist() == ["second"]
    flagged = pa.Table.from_pandas(df, preserve_index=False).append_column(
        "valid", pa.array([True, True])
    )
    assert fold_partial_arrow(flagged)["content"].to_pylist() == ["second"]


def test_fold_lww_arrow_equals_pandas_fold():
    """fold_lww_arrow and a pandas reference pick identical winners
    (max commit per exact key, ties to later input position) and the
    same key-sorted row order."""
    rng = np.random.default_rng(17)
    rows = []
    for i in range(5000):
        rows.append(
            ev(
                f"r{rng.integers(0, 20)}",
                f"p{rng.integers(0, 50)}",
                int(rng.integers(0, 30)),  # many commit ties
                op=("delete" if rng.random() < 0.1 else "update"),
                content=f"c{i}",
            )
        )
    df = pd.DataFrame(rows)
    pd.testing.assert_frame_equal(lww(df), pandas_lww(df))


def test_combiner_folds_valid_rows_and_passes_quarantine_through():
    """fold_partial_arrow = fold_lww_arrow over the valid rows, whose
    winners keep their input positions, with every invalid row kept in
    input order."""
    df = pd.DataFrame(
        [
            ev("r", "a", 1, content="a1"),
            ev("r", "b", 2, content="bad1"),
            ev("r", "a", 3, content="a3"),
            ev("q", "z", 1, content="z1"),
            ev("r", "a", 2, content="a2"),
            ev("r", "b", 9, content="bad2"),
        ]
    )
    t = pa.Table.from_pandas(df, preserve_index=False).append_column(
        "valid", pa.array([True, False, True, True, True, False])
    )
    out = fold_partial_arrow(t)
    assert out["content"].to_pylist() == ["bad1", "a3", "z1", "bad2"]
    assert out.schema == t.schema


def test_combiner_keeps_distinct_keys_that_share_a_hash():
    """Two distinct keys carrying one ``key64`` value (a forced 64-bit
    hash collision, as a flagged table of an older store had it) both
    survive the combiner: the fold keys on the exact (repo, path)."""
    df = pd.DataFrame([ev("r", "a", 1, content="A"), ev("s", "b", 2, content="B")])
    t = pa.Table.from_pandas(df, preserve_index=False)
    t = t.append_column("valid", pa.array([True, True]))
    t = t.append_column("key64", pa.array([7, 7], pa.uint64()))
    t = t.append_column("pid", pa.array([3, 3], pa.int32()))
    out = fold_partial_arrow(t)
    assert sorted(out["content"].to_pylist()) == ["A", "B"]
