"""Empty-input robustness for public operators.

Ray's ``Dataset.to_pandas()`` on an all-empty dataset returns a
COLUMN-LESS frame regardless of block format — any operator that
collects and then indexes columns must restore its schema or guard the
empty case (bit detect_hot_keys and train_sample; both fixed). These
tests pin typed-empty results (never KeyError) for the operators whose
empty case is reachable in production: an empty epoch, an empty corpus
shard, a threshold nothing clears.
"""

import pandas as pd
import pyarrow as pa

import ray.data


def _empty_docs():
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "text": pa.array([], pa.string()),
                "lang": pa.array([], pa.string()),
            }
        )
    )


def _empty_emb():
    return ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.array([], pa.list_(pa.float32())),
                "label": pa.array([], pa.string()),
            }
        )
    )


def _empty_changes():
    return ray.data.from_arrow(
        pa.table(
            {
                "repo": pa.array([], pa.string()),
                "path": pa.array([], pa.string()),
                "commit": pa.array([], pa.string()),
                "op": pa.array([], pa.string()),
                "content": pa.array([], pa.string()),
            }
        )
    )


def test_train_sample_empty_returns_typed_frame(ray_session):
    from cosmwasm_etl_ray.functions.similarity import train_sample

    out = train_sample(_empty_emb(), cap=10, seed=1, min_rows=0)
    assert len(out) == 0
    assert "vec_id" in out.columns  # not the column-less to_pandas frame


def test_apply_epoch_empty_changes(ray_session, tmp_path):
    """An empty epoch through the apply chain commits a manifest that
    touches nothing."""
    from cosmwasm_etl_ray.config import EngineConfig
    from cosmwasm_etl_ray.pipelines.replay import apply_epoch
    from cosmwasm_etl_ray.state.manifest import StateStore

    store = StateStore(str(tmp_path / "store"))
    m = apply_epoch(_empty_changes(), store, 0, EngineConfig(num_partitions=4))
    assert m["counts"]["touched_partitions"] == 0
    assert m["partitions"] == {} and store.latest_epoch() == 0


def test_dedup_family_empty(ray_session):
    from cosmwasm_etl_ray.functions.dedup import (
        exact_dedup_keep_min,
        minhash_dedup_pairs,
        simhash_dedup_pairs,
    )

    def key_fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"], "k": df["text"].str[:8]})

    assert len(exact_dedup_keep_min(_empty_docs(), key_fn, "k").to_pandas()) == 0
    assert len(minhash_dedup_pairs(_empty_docs()).to_pandas()) == 0
    assert len(simhash_dedup_pairs(_empty_docs()).to_pandas()) == 0


def test_agg_family_empty(ray_session):
    from cosmwasm_etl_ray.functions.agg import (
        grouped_agg,
        grouped_quantiles,
        sharded_map_groups,
    )

    assert (
        len(
            grouped_agg(
                _empty_docs(), keys=["lang"], spec={"n": ("doc_id", "count")}
            )
        )
        == 0
    )
    assert (
        len(grouped_quantiles(_empty_docs(), "lang", "doc_id", [50]).to_pandas())
        == 0
    )
    assert (
        len(
            sharded_map_groups(
                _empty_docs(), ["lang"], lambda df: df.head(1)
            ).to_pandas()
        )
        == 0
    )


def test_similarity_pairs_empty(ray_session):
    from cosmwasm_etl_ray.functions.similarity import embedding_neardup_pairs

    out = embedding_neardup_pairs(_empty_emb(), threshold=0.8).to_pandas()
    assert len(out) == 0


def test_snapshot_state_empty_store(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from cosmwasm_etl_ray.stages.validate import snapshot_state
    from cosmwasm_etl_ray.state.manifest import StateStore

    store = StateStore(str(tmp_path / "empty_store"))
    path = snapshot_state(store)
    snap = pq.read_table(path).to_pandas()
    assert len(snap) == 0
    assert list(snap.columns) == ["repo", "live_paths", "total_chars", "max_commit"]
