"""Hashing primitives used across the engine.

- ``sha256_hex``: the per-row content invariant (BASELINE.json
  ``input_hint``) — must agree byte-for-byte with DuckDB's ``sha256``.
  The reference hashes raw tx bytes the same way for IDs
  (/root/reference/collector/datastore/datastore.go:426-459).
- ``stable_hash64``: deterministic 64-bit string hash for partition
  assignment (``pid = hash(repo, path) % P``). Uses pandas' SipHash
  with its fixed default key, so the partition → file mapping is
  stable across processes, runs and cluster sizes (SURVEY.md §7.4
  determinism requirement). Correctness of the LWW fold never depends
  on the hash — only file layout does. ``assign_partition`` is the one
  pid function: it hashes each distinct key string once
  (``encode_keys``), not each row.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def sha256_hex(values) -> pa.Array:
    """Vectorized-enough sha256 hex over a string Arrow array.

    hashlib releases the GIL and dominates the cost; the Python loop
    is the iteration only. Called inside map_batches so it scales out.
    """
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    out = [
        hashlib.sha256(v.encode("utf-8")).hexdigest() if v is not None else None
        for v in values.to_pylist()
    ]
    return pa.array(out, type=pa.string())


_MIX = np.uint64(0x9E3779B97F4A7C15)  # 64-bit golden-ratio mix constant


def stable_hash64(*cols: np.ndarray) -> np.ndarray:
    """Combine string columns into one deterministic uint64 per row.

    Each column is SipHashed independently and mixed arithmetically —
    4-5× faster than joining strings first (no unicode concatenation),
    same determinism guarantees."""
    h = pd.util.hash_array(np.asarray(cols[0], dtype=object), categorize=False)
    for c in cols[1:]:
        h = h * _MIX ^ pd.util.hash_array(np.asarray(c, dtype=object), categorize=False)
    return h


def encode_keys(col) -> tuple[np.ndarray, pa.Array]:
    """Exact codes of a key column (Arrow, dictionary-typed Arrow or
    numpy): equal values share a code, and a null gets code
    len(dictionary), after every value. Returns (int64 codes, the
    distinct values) — what the pid and the combiner both key on, so
    prep encodes a shard's keys once."""
    if isinstance(col, np.ndarray):
        col = pa.array(np.asarray(col, dtype=object), from_pandas=True)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_dictionary(col.type):
        col = col.cast(col.type.value_type)  # a dictionary may repeat values
    enc = pc.dictionary_encode(col)
    idx = enc.indices
    if idx.null_count:
        idx = pc.fill_null(idx, len(enc.dictionary))
    return idx.to_numpy().astype(np.int64), enc.dictionary


def _row_hashes(enc, null="") -> np.ndarray:
    """Each row's SipHash from an ``encode_keys`` result: the distinct
    values (and ``null`` for a null) are hashed once, then gathered by
    code."""
    codes, values = enc
    values = values.to_numpy(zero_copy_only=False).astype(object, copy=False)
    return pd.util.hash_array(np.append(values, null), categorize=False)[codes]


def partition_of_codes(repo, path, num_partitions: int) -> np.ndarray:
    """pid = stable_hash64(repo, path) % P, a null key hashed as "",
    from two ``encode_keys`` results, mixed exactly as ``stable_hash64``
    mixes per row (the pid is bit-identical)."""
    h = _row_hashes(repo) * _MIX ^ _row_hashes(path)
    return (h % np.uint64(num_partitions)).astype(np.int32)


def assign_partition(repo, path, num_partitions: int) -> np.ndarray:
    """THE pid of each (repo, path) row: Arrow or numpy key columns in,
    int32 pids out (see ``partition_of_codes``)."""
    return partition_of_codes(encode_keys(repo), encode_keys(path), num_partitions)


def split_table_by_shard(t, shard, n: int, rows=None):
    """Slice an Arrow table into n sub-tables by a precomputed shard id
    array (single stable argsort + zero-copy slices; None for empty
    shards). THE shared splitter for every direct raw-task exchange
    (replay pid split, hash_join buckets, shard_exchange, price):
    num_returns=1 delivers a task's return as ONE value, so n == 1
    returns the bare table (or None), never a 1-tuple. ``rows``
    (ascending positions; default all) keeps only those rows, in the
    split's one ``take``.
    """
    if t is None or t.num_rows == 0 or (rows is not None and not len(rows)):
        return None if n == 1 else tuple([None] * n)
    if n == 1:
        return t if rows is None or len(rows) == t.num_rows else t.take(pa.array(rows))
    if rows is not None:
        shard = shard[rows]
    order = np.argsort(shard, kind="stable")
    st = t.take(pa.array(order if rows is None else rows[order]))
    s = shard[order]
    bounds = np.searchsorted(s, np.arange(n + 1))
    return tuple(
        st.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i]))
        if bounds[i + 1] > bounds[i]
        else None
        for i in range(n)
    )
