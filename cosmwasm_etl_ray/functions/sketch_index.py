"""Persistent MinHash band-bucket index: sketch ONCE, reuse across
dedup runs — and dedup an incoming INCREMENT against the indexed
corpus without re-sketching it.

``minhash_dedup_pairs`` (functions/dedup.py) re-sketches the whole
corpus per call — right for one-shot jobs, wrong for a recurring
ingest. Here the (doc_id, band_id, band_hash) bucket table is written
once, hive-partitioned by ``bshard = band_hash % n_shards`` with a tiny
params sidecar (the reference persists its route cache and rebuilds
only on growth, /root/reference/pkg/dex/router/route_info.go:106-143 —
the same discipline for the sketch family; the IVF twin is
functions/ann_index.py).

At 100 TB the increment-probe is the money path: sketch only the new
documents (same stored permutation params), read ONLY the bucket
partitions their band hashes land in (path pruning — I/O scales with
the increment, not the corpus), and join new vs indexed rows on
(band_id, band_hash) for candidates.
"""

from __future__ import annotations

import glob as _glob
import json
import os

import numpy as np
import pandas as pd

import ray
import ray.data

from cosmwasm_etl_ray.functions.dedup import MinHasher, candidate_pairs_from_buckets
from cosmwasm_etl_ray.state import durable


def _bucketed(docs: "ray.data.Dataset", meta: dict) -> "ray.data.Dataset":
    return docs.map_batches(
        MinHasher(
            num_perm=meta["num_perm"],
            bands=meta["bands"],
            ngram=meta["ngram"],
            seed=meta["seed"],
        ),
        batch_format="pandas",
        batch_size=1024,
    )


def _add_bshard(n_shards: int):
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["bshard"] = (
            df["band_hash"].to_numpy().view(np.uint64) % np.uint64(n_shards)
        ).astype("int32")
        return df

    return fn


def build_minhash_index(
    docs: "ray.data.Dataset",
    index_dir: str,
    num_perm: int = 64,
    bands: int = 16,
    ngram: int = 3,
    seed: int = 7,
    n_shards: int = 64,
) -> dict:
    """Sketch the corpus and persist the band-bucket table. Immutable,
    versioned by directory (rebuild = new dir + pointer swap)."""
    meta = {
        "num_perm": num_perm,
        "bands": bands,
        "ngram": ngram,
        "seed": seed,
        "n_shards": n_shards,
    }
    from cosmwasm_etl_ray.functions.ann_index import _coalesced

    bucketed = _bucketed(docs, meta).map_batches(
        _add_bshard(n_shards), batch_format="pandas"
    )
    # bound files-per-partition before the hive write (see _coalesced);
    # bucket rows = bands per doc, cheaper to count the built table once
    bucketed = bucketed.materialize()
    _coalesced(bucketed, bucketed.count()).write_parquet(
        os.path.join(index_dir, "buckets"), partition_cols=["bshard"]
    )
    durable.write_json(os.path.join(index_dir, "_meta.json"), meta)
    return meta


def _load_meta(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "_meta.json")) as f:
        return json.load(f)


def index_candidate_pairs(
    index_dir: str, max_bucket: int = 64, shards: int = 256
) -> "ray.data.Dataset":
    """Whole-index candidate pairs from the PERSISTED buckets — the
    same output as sketching the corpus fresh, minus the sketch pass.
    Gated on the meta file: a crashed build (buckets written, meta
    never committed) must read as ABSENT, not as a complete index —
    the same manifest-last discipline as every other sink here."""
    _load_meta(index_dir)  # raises on a torn build
    bucketed = ray.data.read_parquet(os.path.join(index_dir, "buckets"))
    return candidate_pairs_from_buckets(
        bucketed, max_bucket=max_bucket, shards=shards, dedup=True
    )


def probe_minhash_index(
    index_dir: str,
    new_docs: "ray.data.Dataset",
    num_buckets: int = 16,
) -> "ray.data.Dataset":
    """Near-dup CANDIDATES of an increment against the indexed corpus:
    (doc_new, doc_indexed) pairs sharing any band bucket. Only the new
    docs are sketched; only the bucket partitions their band hashes
    land in are read (path pruning). Callers verify with
    verify_pairs_jaccard (exact), exactly like the one-shot pipeline."""
    from cosmwasm_etl_ray.functions.joins import hash_join

    meta = _load_meta(index_dir)
    n_shards = meta["n_shards"]

    # sketch the increment; it is increment-sized, so collecting the
    # bucket rows to plan the pruned read is bounded by the increment
    new_rows = _bucketed(new_docs, meta).to_pandas()
    if new_rows.empty:  # idle tick: no new docs since the last ingest
        return ray.data.from_pandas(
            pd.DataFrame({"doc_new": pd.Series(dtype="int64"),
                          "doc_indexed": pd.Series(dtype="int64")})
        )
    needed = sorted(
        set(
            (new_rows["band_hash"].to_numpy().view(np.uint64) % np.uint64(n_shards))
            .astype(int)
            .tolist()
        )
    )
    probe_files = [
        f
        for s in needed
        for f in sorted(
            _glob.glob(
                os.path.join(index_dir, "buckets", f"bshard={s}", "*.parquet")
            )
        )
    ]
    if not probe_files:
        return ray.data.from_pandas(
            pd.DataFrame({"doc_new": pd.Series(dtype="int64"),
                          "doc_indexed": pd.Series(dtype="int64")})
        )
    indexed = ray.data.read_parquet(probe_files)

    def rename_new(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"band_id": df["band_id"], "band_hash": df["band_hash"],
             "doc_new": df["doc_id"]}
        )

    def rename_idx(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"band_id": df["band_id"], "band_hash": df["band_hash"],
             "doc_indexed": df["doc_id"]}
        )

    joined = hash_join(
        ray.data.from_pandas(rename_new(new_rows)),
        indexed.map_batches(rename_idx, batch_format="pandas"),
        on=["band_id", "band_hash"],
        num_buckets=num_buckets,
        left_cols={"band_id": "int64", "band_hash": "int64", "doc_new": "int64"},
        right_cols={"band_id": "int64", "band_hash": "int64", "doc_indexed": "int64"},
    )

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        out = df[df["doc_new"] != df["doc_indexed"]][["doc_new", "doc_indexed"]]
        return out.drop_duplicates()

    return joined.map_batches(pairs, batch_format="pandas")
