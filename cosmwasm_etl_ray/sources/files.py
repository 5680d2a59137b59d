"""File-format ingestion: JSONL and CSV change-event sources.

The reference consumes chain data as JSON documents (RawTx / log JSON,
/root/reference/parser/dto.go:9-17, collector/datastore/datastore.go
block JSON) and republishes CSV-ish exports; this module grafts the
same "events arrive as text files" seam onto Ray Data's native file
readers: `ray.data.read_json` / `ray.data.read_csv` scale the scan
across the cluster (one task per file / byte range), so a 100 TB
JSONL drop is read with the same streaming backpressure as parquet.

Fidelity hazards the normalizer pins down (each has a test):

- ``commit`` is a ZERO-PADDED string whose lexicographic order is the
  replay order — CSV/JSON type inference would read it as int64 and
  drop the padding, so both readers force explicit string types;
- ``content`` is "" on deletes — Arrow's CSV reader treats empty
  strings as null by default (``strings_can_be_null``), and JSON
  writers may emit ``null``; the normalizer restores "";
- ``content`` may contain commas / quotes / newlines — the CSV reader
  enables ``newlines_in_values`` and relies on standard quoting.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from cosmwasm_etl_ray.state import durable

EVENT_COLUMNS = ("repo", "path", "commit", "lang", "content", "op")


def normalize_events(batch: pa.Table, empty_extras_null: bool = False) -> pa.Table:
    """Restore the canonical change-event schema after a lossy text
    format: column order, all-string types, content null → "".

    Additive-evolution columns (anything beyond the canonical six,
    e.g. the generator's nullable ``mode``) are PRESERVED after them in
    arrival order — an export/import round-trip must not silently drop
    evolved columns. An all-null extra column infers Arrow ``null`` in
    shards written before the evolution point (the per-block schema
    drift CLAUDE.md documents); it is stabilized to ``string`` here so
    unioned blocks agree. ``empty_extras_null`` (the CSV reader):
    CSV cannot distinguish null from "" (the writer emits both as an
    empty field), so extras resolve "" → null, matching evolution's
    backfilled-null convention; JSONL keeps the exact distinction."""
    cols = {}
    for name in EVENT_COLUMNS:
        arr = batch[name]
        if not pa.types.is_string(arr.type) and not pa.types.is_large_string(
            arr.type
        ):
            arr = pc.cast(arr, pa.string())
        cols[name] = arr
    cols["content"] = pc.fill_null(cols["content"], "")
    for name in batch.schema.names:
        if name not in cols:
            arr = batch[name]
            if pa.types.is_null(arr.type):
                arr = pc.cast(arr, pa.string())
            elif empty_extras_null and (
                pa.types.is_string(arr.type)
                or pa.types.is_large_string(arr.type)
            ):
                arr = pc.if_else(
                    pc.equal(pc.fill_null(arr, ""), ""),
                    pa.scalar(None, type=arr.type),
                    arr,
                )
            cols[name] = arr
    return pa.table(cols)


def write_events_jsonl(events: "ray.data.Dataset", out_dir: str) -> None:
    """Partitioned JSONL export — one file per block (resumable shape:
    a re-run overwrites per-file, never one giant file)."""
    events.write_json(out_dir)


def read_events_jsonl(path: str) -> "ray.data.Dataset":
    """JSONL change events → canonical event stream."""
    return ray.data.read_json(path).map_batches(
        normalize_events, batch_format="pyarrow"
    )


def write_events_csv(events: "ray.data.Dataset", out_dir: str) -> None:
    events.write_csv(out_dir)


def read_events_csv(path: str) -> "ray.data.Dataset":
    """CSV change events → canonical event stream. Explicit per-column
    string types (zero-padded commits survive), empty-string ≠ null,
    embedded newlines allowed."""
    from pyarrow import csv as pacsv

    convert = pacsv.ConvertOptions(
        column_types={c: pa.string() for c in EVENT_COLUMNS},
        strings_can_be_null=False,
    )
    parse = pacsv.ParseOptions(newlines_in_values=True)

    def norm(t: pa.Table) -> pa.Table:
        return normalize_events(t, empty_extras_null=True)

    return ray.data.read_csv(
        path, convert_options=convert, parse_options=parse
    ).map_batches(norm, batch_format="pyarrow")


# .gz variants ride pyarrow's extension-based auto-decompression in
# _read_one — compressed text logs are the shipping norm, and the
# converter is exactly where decompression belongs (parsed once, at
# the edge, in parallel; parquet downstream)
_FMT_EXT = {
    "jsonl": ("*.json", "*.jsonl", "*.json.gz", "*.jsonl.gz"),
    "csv": ("*.csv", "*.csv.gz"),
}


def _read_one(path: str, fmt: str) -> pa.Table:
    """One input file → canonical Arrow table (runs inside a task)."""
    if fmt == "jsonl":
        from pyarrow import json as pajson

        t = pajson.read_json(path)
        return normalize_events(t)
    from pyarrow import csv as pacsv

    t = pacsv.read_csv(
        path,
        convert_options=pacsv.ConvertOptions(
            column_types={c: pa.string() for c in EVENT_COLUMNS},
            strings_can_be_null=False,
        ),
        parse_options=pacsv.ParseOptions(newlines_in_values=True),
    )
    return normalize_events(t, empty_extras_null=True)


@ray.remote
def _convert_one(src: str, dst: str, fmt: str) -> int:
    """Convert one file, commit tmp+rename (idempotent: a re-run
    overwrites; a crash leaves only a durable tmp the next run ignores)."""
    import pyarrow.parquet as pq

    t = _read_one(src, fmt)
    durable.write(dst, lambda tmp: pq.write_table(t, tmp))
    return t.num_rows


def convert_events_dir(in_dir: str, out_dir: str, fmt: str) -> dict:
    """Normalize-at-the-edge ingest: a directory of JSONL/CSV change
    files → the canonical parquet change log replay_files consumes —
    the 100 TB shape (text formats are parsed ONCE, in parallel, at
    the boundary; everything downstream reads columnar parquet with
    row-group pruning). One Ray task per input file; output file order
    mirrors sorted input order, so epoch planning sees the same stream
    order the producer wrote. Resumable: files that already exist with
    the right name are still rewritten (cheap, idempotent) — a partial
    previous run cannot leave a torn file because commits are
    tmp+rename."""
    if fmt not in _FMT_EXT:
        raise ValueError(f"fmt must be one of {sorted(_FMT_EXT)}")
    srcs: list[str] = []
    for pat in _FMT_EXT[fmt]:
        srcs.extend(glob.glob(os.path.join(in_dir, pat)))
    srcs = sorted(set(srcs))
    if not srcs:
        raise FileNotFoundError(f"no {fmt} files under {in_dir}")
    os.makedirs(out_dir, exist_ok=True)
    refs = [
        _convert_one.remote(
            s, os.path.join(out_dir, f"events-{i:05d}.parquet"), fmt
        )
        for i, s in enumerate(srcs)
    ]
    rows = ray.get(refs)
    return {"files": len(srcs), "events": int(sum(rows)), "out_dir": out_dir}
