"""grouped_agg (map-side partial aggregation) vs plain pandas."""

import numpy as np
import pandas as pd
import pytest

import ray.data

from cosmwasm_etl_ray.functions.agg import grouped_agg


def test_grouped_agg_matches_pandas():
    rng = np.random.default_rng(5)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 7, 10_000).astype(str),
            "k2": rng.integers(0, 3, 10_000),
            "x": rng.normal(size=10_000),
            "y": rng.integers(0, 100, 10_000),
        }
    )
    ds = ray.data.from_pandas(df).repartition(8)  # force multiple batches
    got = grouped_agg(
        ds,
        keys=["k", "k2"],
        spec={
            "sum_x": ("x", "sum"),
            "mean_x": ("x", "mean"),
            "n": ("x", "count"),
            "min_y": ("y", "min"),
            "max_y": ("y", "max"),
        },
        batch_size=1024,
    ).sort_values(["k", "k2"]).reset_index(drop=True)

    expect = (
        df.groupby(["k", "k2"], as_index=False)
        .agg(sum_x=("x", "sum"), mean_x=("x", "mean"), n=("x", "count"),
             min_y=("y", "min"), max_y=("y", "max"))
        .sort_values(["k", "k2"])
        .reset_index(drop=True)
    )
    expect["n"] = expect["n"].astype("int64")
    pd.testing.assert_frame_equal(got, expect, check_dtype=False)


def test_grouped_agg_two_counts_and_only_counts():
    df = pd.DataFrame({"k": list("aabbc"), "v": [1, 2, 3, 4, 5]})
    ds = ray.data.from_pandas(df)
    got = grouped_agg(ds, keys=["k"], spec={"n1": ("v", "count"), "n2": ("k", "count")})
    assert got["n1"].tolist() == got["n2"].tolist() == [2, 2, 1]


def test_grouped_agg_shuffle_mode_equals_driver_mode():
    rng = np.random.default_rng(9)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 500, 20_000).astype(str),  # high cardinality
            "x": rng.normal(size=20_000),
        }
    )
    ds = ray.data.from_pandas(df).repartition(8)
    spec = {"sum_x": ("x", "sum"), "n": ("x", "count"), "mean_x": ("x", "mean")}
    drv = grouped_agg(ds, ["k"], spec).sort_values("k").reset_index(drop=True)
    shf = (
        grouped_agg(ds, ["k"], spec, final="shuffle", shards=16)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(drv, shf, check_dtype=False, check_exact=False)


def test_stats_with_distinct_matches_pandas():
    from cosmwasm_etl_ray.functions.agg import stats_with_distinct

    rng = np.random.default_rng(3)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 300, 30_000).astype(str),
            "t": rng.choice(list("abcdef"), 30_000),
            "v": rng.integers(0, 50, 30_000),
        }
    )
    ds = ray.data.from_pandas(df).repartition(8)
    got = (
        stats_with_distinct(
            ds, ["k"], {"n": ("v", "count"), "sv": ("v", "sum")},
            distinct_col="t", distinct_name="nt", shards=16, batch_size=2048,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    expect = (
        df.groupby("k", as_index=False)
        .agg(n=("v", "count"), sv=("v", "sum"), nt=("t", "nunique"))
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, expect, check_dtype=False)

def test_grouped_agg_driver_mode_enforces_cardinality_bound():
    import pytest

    rng = np.random.default_rng(1)
    df = pd.DataFrame(
        {"k": rng.integers(0, 5000, 20_000).astype(str), "x": rng.normal(size=20_000)}
    )
    ds = ray.data.from_pandas(df).repartition(8)
    with pytest.raises(ValueError, match="final='shuffle'"):
        grouped_agg(ds, ["k"], {"sum_x": ("x", "sum")}, driver_limit=1000)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, kind="stable").reset_index(drop=True)


def test_shard_exchange_matches_pandas(ray_session):
    """sharded_map_groups and grouped_agg(final='shuffle') through the
    raw-task shard exchange equal the same computation in pandas."""
    import numpy as np
    from cosmwasm_etl_ray.functions.agg import grouped_agg, sharded_map_groups

    rng = np.random.default_rng(9)
    df = pd.DataFrame(
        {
            "k": [f"key_{i}" for i in rng.integers(0, 500, 4000)],
            "v": rng.integers(0, 100, 4000),
        }
    )
    ds = ray.data.from_pandas(df)

    def per_shard(g):
        g = g.sort_values(["k", "v"], kind="stable")
        g["rt"] = g.groupby("k", sort=False)["v"].cumsum()
        return g

    got = sharded_map_groups(ds, ["k"], per_shard, shards=8).to_pandas()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(per_shard(df.copy())))

    got = grouped_agg(
        ds, ["k"], {"s": ("v", "sum"), "m": ("v", "mean")},
        final="shuffle", shards=8,
    ).to_pandas()
    want = df.groupby("k", as_index=False).agg(s=("v", "sum"), m=("v", "mean"))
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want))


def test_stats_with_distinct_exchange_equal(ray_session):
    """stats_with_distinct through the raw-task shard exchange equals a
    pandas groupby with nunique on the same inputs."""
    import numpy as np
    from cosmwasm_etl_ray.functions.agg import stats_with_distinct

    rng = np.random.default_rng(4)
    df = pd.DataFrame(
        {
            "w": rng.integers(0, 20, 3000).astype(str),
            "v": rng.integers(0, 50, 3000),
            "u": rng.integers(0, 30, 3000),
        }
    )
    got = stats_with_distinct(
        ray.data.from_pandas(df), ["w"], {"sv": ("v", "sum")}, "u", "nu",
        shards=8,
    ).to_pandas()
    want = df.groupby("w", as_index=False).agg(sv=("v", "sum"), nu=("u", "nunique"))
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want))


# -------------------------------------------------------- grouped top-k


def test_grouped_topk_exact_vs_pandas(ray_session):
    import numpy as np

    from cosmwasm_etl_ray.functions.agg import grouped_topk

    rng = np.random.RandomState(7)
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c"], 500),
            "v": rng.randint(0, 50, 500).astype("int64"),  # many ties
            "id": np.arange(500, dtype=np.int64),
        }
    )
    got = (
        grouped_topk(
            ray.data.from_pandas(df).repartition(9), "g", ["v", "id"], 7
        )
        .to_pandas()
        .sort_values(["g", "v", "id"])
        .reset_index(drop=True)
    )
    expect = (
        df.sort_values(["v", "id"])
        .groupby("g", sort=False)
        .head(7)
        .sort_values(["g", "v", "id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["g", "v", "id"]], expect)


def test_grouped_topk_descending_and_small_groups(ray_session):
    import numpy as np

    from cosmwasm_etl_ray.functions.agg import grouped_topk

    df = pd.DataFrame(
        {
            "g": ["x"] * 3 + ["y"] * 10,
            "v": np.arange(13, dtype=np.int64),
            "id": np.arange(13, dtype=np.int64),
        }
    )
    got = (
        grouped_topk(
            ray.data.from_pandas(df).repartition(4), "g", ["v", "id"], 5,
            ascending=[False, True],
        )
        .to_pandas()
        .sort_values(["g", "v"])
        .reset_index(drop=True)
    )
    # group x has only 3 rows: all kept; y keeps its 5 largest
    assert list(got.loc[got["g"] == "x", "v"]) == [0, 1, 2]
    assert list(got.loc[got["g"] == "y", "v"]) == [8, 9, 10, 11, 12]


def test_grouped_quantiles_exact_vs_duckdb(ray_session):
    import duckdb
    import numpy as np

    from cosmwasm_etl_ray.functions.agg import grouped_quantiles

    rng = np.random.RandomState(11)
    df = pd.DataFrame(
        {
            # a singleton group and heavy ties stress the rank walk
            "g": np.r_[rng.choice(["a", "b", "c"], 999), ["solo"]],
            "v": np.r_[rng.randint(0, 40, 999), [7]].astype("int64"),
        }
    )
    got = (
        grouped_quantiles(
            ray.data.from_pandas(df).repartition(8), "g", "v", [1, 50, 90, 99]
        )
        .to_pandas()
        .sort_values("g")
        .reset_index(drop=True)
    )
    expect = (
        duckdb.connect()
        .execute(
            """
            SELECT g, CAST(quantile_disc(v, 0.01) AS BIGINT) AS p01,
                   CAST(quantile_disc(v, 0.50) AS BIGINT) AS p50,
                   CAST(quantile_disc(v, 0.90) AS BIGINT) AS p90,
                   CAST(quantile_disc(v, 0.99) AS BIGINT) AS p99
            FROM df GROUP BY g ORDER BY g
            """
        )
        .df()
    )
    pd.testing.assert_frame_equal(
        got[["g", "p01", "p50", "p90", "p99"]], expect
    )


def test_grouped_quantiles_rejects_unknown_mode(ray_session):
    """A typo'd mode ('discrete', 'cont.') must raise at entry, not
    silently fall through to the interpolated branch."""
    from cosmwasm_etl_ray.functions.agg import grouped_quantiles

    ds = ray.data.from_pandas(pd.DataFrame({"g": ["a"], "v": [1]}))
    with pytest.raises(ValueError, match="unknown mode"):
        grouped_quantiles(ds, "g", "v", [50], mode="discrete")


def test_grouped_agg_nullable_measure_sql_parity(ray_session):
    """COUNT(col)/AVG(col) skip nulls per column — a shared row-count
    partial would report mean=5 for v=[10, NaN]."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cosmwasm_etl_ray.functions.agg import grouped_agg

    df = pd.DataFrame(
        {"g": ["a", "a", "b"], "v": [10.0, np.nan, 4.0]}
    )
    out = grouped_agg(
        ray.data.from_pandas(df).repartition(2),
        keys=["g"],
        spec={"n_v": ("v", "count"), "avg_v": ("v", "mean")},
        final="driver",
    ).sort_values("g").reset_index(drop=True)
    assert out["n_v"].tolist() == [1, 1]
    assert out["avg_v"].tolist() == [10.0, 4.0]


def test_shard_exchange_all_filtered_keeps_schema(ray_session):
    """An exchange whose every input row is filtered must still return
    a Dataset with the output columns (typed 0-row), not a schema-less
    empty that KeyErrors the caller."""
    import pandas as pd
    import ray.data

    from cosmwasm_etl_ray.functions.agg import grouped_agg

    ds = ray.data.from_pandas(
        pd.DataFrame({"g": ["x"], "v": [1]})
    ).map_batches(lambda df: df[df["v"] > 99], batch_format="pandas")
    out = grouped_agg(ds, keys=["g"], spec={"s": ("v", "sum")}, final="shuffle")
    # the DATASET carries the output schema (this Ray's to_pandas drops
    # columns on any empty dataset, so assert at the schema level)
    assert out.schema().names == ["g", "s"]
    assert out.count() == 0


def test_heavy_hitters_total_key_not_special(ray_session):
    """A genuine data key named '__total__' must count normally (the
    stream-size row is an out-of-band column, not an in-band key)."""
    import pandas as pd
    import ray.data

    from cosmwasm_etl_ray.functions.approx import heavy_hitters

    df = pd.DataFrame({"k": ["__total__"] * 60 + ["other"] * 40})
    out = heavy_hitters(
        ray.data.from_pandas(df).repartition(3),
        key_fn=lambda d: d["k"],
        phi_e4=2000,
    )
    got = dict(zip(out["key"], out["n_events"]))
    assert got == {"__total__": 60, "other": 40}
    shares = dict(zip(out["key"], out["share_e4"]))
    assert shares["__total__"] == 6000


# ------------------------- overflow-safe money sums (VERDICT r3 #1)

def test_sum_exact_past_int64(ray_session):
    """A group sum past 2^63 comes back as the exact decimal string —
    the DECIMAL(40)/big.Int headroom the reference carries
    (/root/reference/pkg/util/decimals.go:12-59)."""
    vals = [2**62, 2**62, 2**62, 2**62, -17]  # sum = 2^64 - 17 > int64
    df = pd.DataFrame({"k": ["a"] * 5, "v": np.array(vals, dtype=np.int64)})
    for final in ("driver", "shuffle"):
        got = grouped_agg(
            ray.data.from_pandas(df).repartition(3),
            keys=["k"],
            spec={"total": ("v", "sum_exact")},
            batch_size=2,
            final=final,
            shards=4,
        )
        if final == "shuffle":
            got = got.to_pandas()
        assert got["total"].tolist() == [str(sum(vals))]


def test_sum_exact_mixed_signs_matches_python():
    rng = np.random.default_rng(11)
    v = rng.integers(-(2**61), 2**61, 5000, dtype=np.int64)
    k = rng.integers(0, 13, 5000).astype(str)
    df = pd.DataFrame({"k": k, "v": v})
    got = grouped_agg(
        ray.data.from_pandas(df).repartition(6),
        keys=["k"],
        spec={"total": ("v", "sum_exact")},
        batch_size=512,
    ).set_index("k")["total"]
    expect = df.groupby("k")["v"].apply(lambda s: str(sum(int(x) for x in s)))
    for key, val in expect.items():
        assert got[key] == val


def test_sum_checked_matches_sum_under_bound():
    rng = np.random.default_rng(12)
    df = pd.DataFrame(
        {"k": rng.integers(0, 5, 4000).astype(str),
         "v": rng.integers(-(10**9), 10**9, 4000, dtype=np.int64)}
    )
    got = grouped_agg(
        ray.data.from_pandas(df).repartition(4),
        keys=["k"],
        spec={"total": ("v", "sum_checked")},
        batch_size=512,
    ).set_index("k")["total"]
    expect = df.groupby("k")["v"].sum()
    for key, val in expect.items():
        assert got[key] == val


def test_sum_checked_raises_when_uncertifiable():
    """count × max|v| ≥ 2^62 ⇒ raise, never a silently-wrapped int64."""
    df = pd.DataFrame({"k": ["a"] * 4, "v": np.array([2**61] * 4, dtype=np.int64)})
    # the raise fires inside a Ray task → surfaces as RayTaskError
    with pytest.raises(Exception, match="sum_checked"):
        grouped_agg(
            ray.data.from_pandas(df),
            keys=["k"],
            spec={"total": ("v", "sum_checked")},
        )


def test_sum_checked_rejects_int64_min():
    df = pd.DataFrame({"k": ["a"], "v": np.array([np.iinfo(np.int64).min])})
    with pytest.raises(Exception, match="INT64_MIN"):
        grouped_agg(
            ray.data.from_pandas(df),
            keys=["k"],
            spec={"total": ("v", "sum_checked")},
        )


def test_checked_sums_reject_float_measure():
    df = pd.DataFrame({"k": ["a", "a"], "v": [1.5, 2.5]})
    with pytest.raises(Exception, match="integer measure"):
        grouped_agg(
            ray.data.from_pandas(df),
            keys=["k"],
            spec={"total": ("v", "sum_exact")},
        )


def test_rev_e4_checked_kernel_raises_on_element_overflow():
    """Per-element products past int64 raise ArrowInvalid (checked
    kernels) instead of wrapping — parser/dex/util.go:72-79 semantics."""
    import pyarrow as pa

    from cosmwasm_etl_ray.functions.money import rev_e4, scale_checked

    price = pa.chunked_array([pa.array([1.0e15], pa.float64())])
    disc = pa.chunked_array([pa.array([0.0], pa.float64())])
    with pytest.raises(pa.lib.ArrowInvalid):
        rev_e4(price, disc)  # 1e17 cents × 100 = 1e19 > 2^63

    ok = rev_e4(
        pa.chunked_array([pa.array([100.0])]),
        pa.chunked_array([pa.array([0.05])]),
    )
    assert ok.to_pylist() == [10000 * 95]

    with pytest.raises(pa.lib.ArrowInvalid):
        scale_checked(pa.array([2**40], pa.int64()), 2**30)


def test_unknown_op_raises_at_entry():
    """A typo'd op ('sum_exactt', 'size') raises ValueError BEFORE any
    Ray task launches — not an opaque KeyError inside map_batches."""
    df = pd.DataFrame({"k": ["a"], "v": [1]})
    for bad in ("sum_exactt", "size", "avg"):
        with pytest.raises(ValueError, match="unknown op"):
            grouped_agg(
                ray.data.from_pandas(df),
                keys=["k"],
                spec={"total": ("v", bad)},
            )
