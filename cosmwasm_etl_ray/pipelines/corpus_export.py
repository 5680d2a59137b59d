"""Resumable partitioned export of the training-corpus chunk stream —
the prep-side twin of the CDC epoch sink's commit discipline: one
directory per doc-hash shard, each committed by an atomic tmp+rename
(pid-suffixed tmp, concurrent-writer safe), the export manifest written
LAST so the export "exists" only when its manifest does. A re-run
skips every shard directory already committed and, via
``pretrain_chunks``' doc predicate, pushes the skip onto the pipeline
itself: only the cleaning decisions run corpus-wide (the exact-dup
winner is a corpus-wide min by definition); the text join, the CDC
chunking, and the writes touch ONLY missing shards — at 100 TB the
writer restarts from where it died instead of from zero.

Shard assignment is ``doc_id % num_shards`` — a pure function of the
row, so the resume filter needs no bookkeeping join and the layout is
cluster-size-independent. ``num_shards`` is pinned by a meta file
written BEFORE any shard: resuming with a different value is an error,
not silent row duplication.

Reference analogue: the collector sink's upsert + GREATEST cursor
(/root/reference/collector/collector.go) makes re-runs idempotent; here
idempotency is directory-grain (rename atomicity) instead of row-grain.
"""

from __future__ import annotations

import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from cosmwasm_etl_ray.state import durable

EXPORT_SHARDS = 16
_MANIFEST = "export_manifest.json"
_META = "export_meta.json"

_CHUNK_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("chunk_id", pa.int64()),
        ("chunk_text", pa.string()),
        ("n_tokens", pa.int64()),
    ]
)


def _shard_dir(out_dir: str, sid: int) -> str:
    return os.path.join(out_dir, f"shard={sid}")


def _commit_shard(final: str, t: pa.Table) -> None:
    """Commit one shard directory; the first writer wins a race (the
    winner holds identical deterministic content)."""

    def write(tmp: str) -> None:
        os.makedirs(tmp, exist_ok=True)
        pq.write_table(t, os.path.join(tmp, "part-0.parquet"))

    durable.write(final, write, overwrite=False)


def _pin_num_shards(out_dir: str, num_shards: int) -> None:
    meta_path = os.path.join(out_dir, _META)
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            pinned = json.load(fh)["num_shards"]
        if pinned != num_shards:
            raise ValueError(
                f"export at {out_dir} was started with num_shards={pinned}; "
                f"resuming with {num_shards} would duplicate or drop rows"
            )
        return
    durable.write_json(meta_path, {"num_shards": num_shards})


def export_corpus(
    sf_dir: str, out_dir: str, num_shards: int = EXPORT_SHARDS
) -> dict:
    """Export ``pretrain_chunks(sf_dir)`` under ``out_dir`` as
    ``shard=K/part-0.parquet`` directories. Returns the manifest dict
    ``{"shards": {sid: n_rows}, "n_rows": total, "num_shards": N}``.
    Safe to re-run: committed shards are skipped and their docs are
    filtered out of the pipeline before the join/chunk stages."""
    from cosmwasm_etl_ray.functions.agg import shard_exchange
    from cosmwasm_etl_ray.pipelines.queries_dataprep import pretrain_chunks

    os.makedirs(out_dir, exist_ok=True)
    _pin_num_shards(out_dir, num_shards)
    missing = [
        s for s in range(num_shards) if not os.path.isdir(_shard_dir(out_dir, s))
    ]

    if missing:
        missing_arr = sorted(missing)

        def doc_pred(ids):
            return pd.Series(ids % num_shards).isin(missing_arr).to_numpy()

        def tag(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["shard"] = (df["doc_id"].to_numpy() % num_shards).astype("int64")
            return df

        chunks = pretrain_chunks(sf_dir, doc_pred=doc_pred).map_batches(
            tag, batch_format="pandas"
        )

        def write_shard(df: pd.DataFrame) -> pd.DataFrame:
            rows = []
            # the exchange routes every row of a shard VALUE to one
            # task; a task may hold several values (hash co-location)
            for sid, g in df.groupby("shard", sort=False):
                t = pa.Table.from_pandas(
                    g.drop(columns=["shard"]).sort_values(["doc_id", "chunk_id"]),
                    schema=_CHUNK_SCHEMA,
                    preserve_index=False,
                )
                _commit_shard(_shard_dir(out_dir, int(sid)), t)
                rows.append({"shard": int(sid), "n_rows": len(g)})
            return pd.DataFrame(rows)

        shard_exchange(
            chunks, ["shard"], write_shard, shards=min(num_shards, 32)
        ).materialize()

        # shards with zero chunk rows still need a committed (empty,
        # schema-typed) directory, or every re-run would recompute them
        for s in missing:
            final = _shard_dir(out_dir, s)
            if not os.path.isdir(final):
                _commit_shard(final, _CHUNK_SCHEMA.empty_table())

    # manifest from the committed files' own metadata (covers shards
    # written by earlier runs), tmp+rename last
    shards: dict[str, int] = {}
    for s in range(num_shards):
        f = os.path.join(_shard_dir(out_dir, s), "part-0.parquet")
        shards[str(s)] = pq.read_metadata(f).num_rows
    manifest = {
        "shards": shards,
        "n_rows": int(sum(shards.values())),
        "num_shards": num_shards,
    }
    durable.write_json(os.path.join(out_dir, _MANIFEST), manifest)
    return manifest


def read_export(out_dir: str) -> "ray.data.Dataset":
    """Read a committed export back (manifest required — a dir without
    one is an unfinished write). Every shard file carries the explicit
    chunk schema, so empty shards read uniformly with populated ones."""
    with open(os.path.join(out_dir, _MANIFEST)) as fh:
        manifest = json.load(fh)
    paths = [
        os.path.join(_shard_dir(out_dir, int(s)), "part-0.parquet")
        for s in sorted(manifest["shards"], key=int)
    ]
    return ray.data.read_parquet(paths)
