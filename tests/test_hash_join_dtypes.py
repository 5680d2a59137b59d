"""hash_join invariants: union null-padding must not leak widened
dtypes into outputs or mis-bucket keys in chained joins."""

import numpy as np
import pandas as pd
import pytest

import ray.data

from cosmwasm_etl_ray.functions.joins import hash_join


def test_chained_joins_keep_int_keys(ray_session):
    """A join output's int64 key column must hash into the same bucket
    as a fresh int64 column in a SECOND join (union padding used to
    widen it to float64, whose stringified hash landed elsewhere)."""
    pairs = ray.data.from_pandas(
        pd.DataFrame({"a": np.arange(50, dtype=np.int64),
                      "b": np.arange(50, dtype=np.int64) + 1_000_000})
    )
    names_a = ray.data.from_pandas(
        pd.DataFrame({"a": np.arange(50, dtype=np.int64),
                      "name_a": [f"n{i}" for i in range(50)]})
    )
    names_b = ray.data.from_pandas(
        pd.DataFrame({"b": np.arange(50, dtype=np.int64) + 1_000_000,
                      "name_b": [f"m{i}" for i in range(50)]})
    )
    j1 = hash_join(
        pairs, names_a, on="a", num_buckets=8,
        left_cols={"a": "int64", "b": "int64"},
        right_cols={"a": "int64", "name_a": "object"},
    )
    j2 = hash_join(
        j1, names_b, on="b", num_buckets=8,
        left_cols={"a": "int64", "b": "int64", "name_a": "object"},
        right_cols={"b": "int64", "name_b": "object"},
    )
    out = j2.to_pandas().sort_values("a").reset_index(drop=True)
    assert len(out) == 50  # every pair survived BOTH joins
    assert out["a"].dtype == np.int64 and out["b"].dtype == np.int64
    assert (out["name_b"] == [f"m{i}" for i in range(50)]).all()


def test_left_join_empty_right_bucket_pads_columns(ray_session):
    left = ray.data.from_pandas(
        pd.DataFrame({"k": np.arange(10, dtype=np.int64), "v": list("abcdefghij")})
    )
    right = ray.data.from_pandas(
        pd.DataFrame({"k": pd.Series(dtype="int64"), "w": pd.Series(dtype="object")})
    )
    out = hash_join(
        left, right, on="k", num_buckets=4, how="left",
        left_cols={"k": "int64", "v": "object"},
        right_cols={"k": "int64", "w": "object"},
    ).to_pandas()
    assert len(out) == 10
    assert out["w"].isna().all()  # right side absent → padded, rows kept


def test_hash_join_matches_pandas_merge(ray_session):
    """Inner and left joins (incl. empty-right buckets, name collisions,
    folds) equal a plain pandas merge of the two frames."""
    import numpy as np

    rng = np.random.default_rng(3)
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 200, 1000),
            "v": rng.integers(0, 10, 1000),
            "x": [f"l{i}" for i in range(1000)],
        }
    )
    right = pd.DataFrame(
        {
            "k": rng.integers(0, 120, 300),  # keys 120-199 miss -> empty rhs rows
            "w": rng.integers(0, 5, 300),
            "x": [f"r{i}" for i in range(300)],  # collides with left's x
        }
    )

    def norm(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)

    def run(how, right_fold=None):
        return norm(hash_join(
            ray.data.from_pandas(left.copy()),
            ray.data.from_pandas(right.copy()),
            on="k",
            how=how,
            num_buckets=8,
            right_fold=right_fold,
            left_cols={"k": "int64", "v": "int64", "x": "object"},
            right_cols={"k": "int64", "w": "int64", "x": "object"},
        ).to_pandas())

    for how in ("inner", "left"):
        want = left.merge(right, on="k", how=how, suffixes=("_l", "_r"))
        if how == "left":
            want["w"] = want["w"].astype("Int64")  # nullable int pad
        pd.testing.assert_frame_equal(run(how), norm(want))

    fold = lambda df: df.groupby("k", as_index=False).agg(
        w=("w", "max"), x=("x", "min")
    )
    want = left.merge(fold(right), on="k", how="inner", suffixes=("_l", "_r"))
    pd.testing.assert_frame_equal(run("inner", right_fold=fold), norm(want))


def test_left_join_pad_is_typed_not_nan(ray_session):
    """Empty-right buckets must pad STRING right columns as object
    nulls, not float64 NaN — a float pad makes that bucket's block
    schema diverge from buckets that had right rows (the mixed-schema
    union hazard, this time inside the join primitive)."""
    left = ray.data.from_pandas(
        pd.DataFrame({"k": np.arange(64, dtype=np.int64),
                      "v": [f"v{i}" for i in range(64)]})
    )
    # right rows exist for ONE key only → most buckets are right-empty
    right = ray.data.from_pandas(
        pd.DataFrame({"k": np.array([3], dtype=np.int64), "w": ["hit"]})
    )
    out = hash_join(
        left, right, on="k", num_buckets=8, how="left",
        left_cols={"k": "int64", "v": "object"},
        right_cols={"k": "int64", "w": "object"},
    ).to_pandas()
    assert len(out) == 64
    assert out["w"].dtype == object, out["w"].dtype
    assert out.loc[out["k"] == 3, "w"].iloc[0] == "hit"


def _blocks(ds):
    """Materialized Arrow block tables of a Dataset (pandas blocks
    normalized through Arrow), non-empty only."""
    import pyarrow as pa

    tabs = []
    for bundle in ds.iter_internal_ref_bundles():
        for ref in bundle.block_refs:
            b = ray.get(ref)
            t = pa.Table.from_pandas(b) if isinstance(b, pd.DataFrame) else b
            if t.num_rows:
                tabs.append(t)
    return tabs


def test_left_join_int_pad_one_schema_across_buckets(ray_session):
    """Integer right columns of a left join must come out as ONE Arrow
    schema (int64 with nulls) whether a bucket matched every left row,
    some, or none — pandas merge NaN-widening to float64 in only the
    partially-matched buckets is per-block schema drift (the
    decontaminate_bloom n_hit int64-vs-double warning)."""
    import pyarrow as pa

    left = ray.data.from_pandas(
        pd.DataFrame({"k": np.arange(64, dtype=np.int64),
                      "v": np.arange(64, dtype=np.int64)})
    )
    # half the keys match → most buckets mix matched/unmatched rows
    right = ray.data.from_pandas(
        pd.DataFrame({"k": np.arange(0, 64, 2, dtype=np.int64),
                      "n_hit": np.arange(32, dtype=np.int64)})
    )
    ds = hash_join(
        left, right, on="k", num_buckets=8, how="left",
        left_cols={"k": "int64", "v": "int64"},
        right_cols={"k": "int64", "n_hit": "int64"},
    )
    types = {str(t.schema.field("n_hit").type) for t in _blocks(ds)}
    out = ds.to_pandas()
    assert len(out) == 64
    # every BLOCK carries int64-with-nulls, never double
    assert types <= {"int64"}, types
    got = out.set_index("k")["n_hit"]
    assert int(got.loc[4]) == 2 and pd.isna(got.loc[5])


def test_shard_allnull_string_column_stays_string(ray_session):
    """A shard whose output string column is ALL null (e.g. a LAG
    where no key repeats in that shard) must still emit an Arrow
    string column, not `null` type — per-block drift again (the
    cdc_prev_commit warning)."""
    from cosmwasm_etl_ray.functions.agg import sharded_map_groups

    df = pd.DataFrame(
        {"k": [f"k{i}" for i in range(40)], "c": [f"c{i}" for i in range(40)]}
    )

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["k", "c"], kind="stable")
        prev = g.groupby("k", sort=False)["c"].shift(1)  # all-null: unique keys
        g["prev"] = prev.astype(object).where(prev.notna(), None)
        return g[["k", "c", "prev"]]

    ds = sharded_map_groups(
        ray.data.from_pandas(df).repartition(4), ["k"], per_shard, shards=8
    )
    schemas = {str(t.schema.field("prev").type) for t in _blocks(ds)}
    out = ds.to_pandas()
    assert len(out) == 40 and out["prev"].isna().all()
    assert "null" not in schemas, schemas


# ------------------------------------------------------------ range join


def test_range_join_boundaries_and_no_dup_pairs(ray_session):
    import pandas as pd
    import ray.data

    from cosmwasm_etl_ray.functions.joins import range_join

    W = 100
    # intervals straddling bucket boundaries on purpose
    ints = pd.DataFrame(
        {
            "iid": pd.Series([1, 2, 3], dtype="int64"),
            "key": pd.Series([7, 7, 8], dtype="int64"),
            "start": pd.Series([95, 100, 10], dtype="int64"),
            "end": pd.Series([150, 199, 20], dtype="int64"),
        }
    )
    pts = pd.DataFrame(
        {
            "key": pd.Series([7, 7, 7, 7, 8, 8], dtype="int64"),
            "ts": pd.Series([94, 95, 150, 199, 10, 21], dtype="int64"),
        }
    )
    out = range_join(
        ray.data.from_pandas(ints).repartition(2),
        ray.data.from_pandas(pts).repartition(3),
        on="key",
        start_col="start",
        end_col="end",
        ts_col="ts",
        width=W,
        left_cols={"iid": "int64", "key": "int64", "start": "int64", "end": "int64"},
        right_cols={"key": "int64", "ts": "int64"},
    ).to_pandas()
    got = sorted(zip(out["iid"], out["ts"]))
    # iid=1 [95,150]: ts 95, 150 (94 excluded); iid=2 [100,199]: 150, 199;
    # iid=3 [10,20]: 10 (21 excluded). No pair appears twice.
    assert got == [(1, 95), (1, 150), (2, 150), (2, 199), (3, 10)]
