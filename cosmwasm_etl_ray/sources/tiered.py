"""Tiered change source: staged Parquet first, live-source fallback.

Graft of the reference's collector-or-fallback source
(/root/reference/parser/dex/srcstore/collector_datastore.go:27-84):
the parser prefers the collector's staged store and falls back to the
live chain when a height is missing — and of the collector itself
(S7), which stages what it fetches so the next reader hits the fast
tier. Here:

- the staged tier is a directory of ``chunk-{i:06d}.parquet`` files;
- ``fetch(chunk_id)`` is the live-source callback (in production an
  API/git reader; in tests a deterministic generator);
- a fetched chunk is staged via tmp+rename (idempotent under races),
  so fallback happens at most once per chunk.
"""

from __future__ import annotations

import os

import pyarrow.parquet as pq

import ray.data

from cosmwasm_etl_ray.state import durable


class TieredSource:
    def __init__(self, staging_dir: str, fetch):
        """fetch: chunk_id -> pyarrow.Table (the live-source tier)."""
        self.staging_dir = staging_dir
        self.fetch = fetch
        self.fallback_calls = 0
        os.makedirs(staging_dir, exist_ok=True)

    def _path(self, chunk_id: int) -> str:
        return os.path.join(self.staging_dir, f"chunk-{chunk_id:06d}.parquet")

    def ensure_chunk(self, chunk_id: int) -> str:
        """Staged path for a chunk, fetching + staging on miss."""
        p = self._path(chunk_id)
        if not os.path.exists(p):
            table = self.fetch(chunk_id)
            self.fallback_calls += 1
            durable.write(p, lambda tmp: pq.write_table(table, tmp))
        return p

    def read_range(self, first_chunk: int, last_chunk: int) -> "ray.data.Dataset":
        """Dataset over a contiguous chunk range, staging misses."""
        files = [self.ensure_chunk(c) for c in range(first_chunk, last_chunk + 1)]
        return ray.data.read_parquet(files)


class PaginatedBackfill:
    """Offset-paginated historical backfill, resumable and retrying —
    the S6 graft (/root/reference/collector/terra/fcd/fcdepo.go:40-80:
    reverse-order pages, resume from the stored collected offset,
    sleep-retry on transient 5xx; staged in batches,
    /root/reference/collector/terra/fcd/collector.go:68-93).

    ``fetch_page(offset) -> (pyarrow.Table, next_offset | None)`` is
    the remote tier (None = backfill complete). Each page stages as
    ``page-{offset}.parquet`` via tmp+rename BEFORE the offset marker
    advances (also tmp+rename), so a crash between the two refetches
    one page and overwrites the same file — resumable and idempotent,
    the same commit discipline as the epoch sink."""

    def __init__(
        self,
        staging_dir: str,
        fetch_page,
        start_offset: int = 0,
        max_retries: int = 5,
        sleep=None,
    ):
        import time as _time

        self.staging_dir = staging_dir
        self.fetch_page = fetch_page
        self.start_offset = start_offset
        self.max_retries = max_retries
        self.sleep = sleep if sleep is not None else _time.sleep
        self.retries = 0
        os.makedirs(staging_dir, exist_ok=True)

    def _marker(self) -> str:
        return os.path.join(self.staging_dir, "_offset.json")

    def collected_offset(self):
        import json

        if not os.path.exists(self._marker()):
            return self.start_offset
        with open(self._marker()) as f:
            return json.load(f)["next_offset"]

    def run(self, max_pages: int | None = None) -> list[str]:
        """Backfill from the stored offset; returns the staged files
        (all pages, including previously staged ones, in offset
        order)."""
        offset = self.collected_offset()
        pages = 0
        while offset is not None and (max_pages is None or pages < max_pages):
            for attempt in range(self.max_retries + 1):
                try:
                    table, nxt = self.fetch_page(offset)
                    break
                except Exception:
                    self.retries += 1
                    if attempt == self.max_retries:
                        raise
                    self.sleep(min(60.0, 0.5 * (2**attempt)))
            p = os.path.join(self.staging_dir, f"page-{offset:010d}.parquet")
            durable.write(p, lambda tmp: pq.write_table(table, tmp))
            durable.write_json(self._marker(), {"next_offset": nxt})
            offset = nxt
            pages += 1
        import glob as _glob

        return sorted(_glob.glob(os.path.join(self.staging_dir, "page-*.parquet")))
