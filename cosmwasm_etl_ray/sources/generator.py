"""Seeded synthetic change-stream generator (FIXTURES.md §1).

Writes a binlog-style Parquet change log under ``out_dir`` as
``changes-{i:05d}.parquet`` files of ``events_per_file`` rows each, in
global commit order — the analogue of the reference collector's
per-height staging store (/root/reference/collector/repo/repository.go:88-139).
Files are the tail unit: the replay driver consumes contiguous file
ranges as epochs, the way the reference parser consumes contiguous
height ranges (/root/reference/parser/dex/dex.go:141).

Properties (deterministic under the seed):
- Zipf-skewed repo popularity → hot (repo, path) keys for the salting
  path;
- keys appear mid-stream; the first event of a key is its insert
  (create_pair analogue — tracked across chunks);
- ``delete_frac`` tombstones;
- ``malformed_frac`` rows with an empty ``commit`` (quarantine path);
- from ``evolve_at_frac`` of the stream onward an additive nullable
  ``mode`` column appears (schema-evolution replay test).

Generation is CHUNKED: one ``events_per_file`` chunk in memory at a
time, each chunk seeded as ``default_rng([seed, chunk_i])`` — memory is
bounded regardless of n_events (a 10^10-event log is a longer loop, not
a bigger array), and chunks could be generated in parallel workers as
long as the sequential ``seen`` insert-marking is partitioned by key.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from cosmwasm_etl_ray.config import GeneratorConfig
from cosmwasm_etl_ray.sources.changes import COMMIT_WIDTH

_WORDS = np.array(
    "the fast key order sort table scan merge part window small hash join query "
    "row data slow filter customer line batch value stream group".split(),
    dtype=object,
)


def _chunk(
    cfg: GeneratorConfig,
    chunk_i: int,
    start: int,
    stop: int,
    key_repo: np.ndarray,
    seen: np.ndarray,
    evolve_at: int | None,
) -> pa.Table:
    rng = np.random.default_rng([cfg.seed, chunk_i])
    m = stop - start
    key_ids = rng.integers(0, cfg.n_keys, size=m)

    op = np.where(rng.random(m) < cfg.delete_frac, "delete", "update").astype(object)
    if seen is not None:
        # first global occurrence of a key is its insert — even when
        # its draw was a delete. seen=None (the parallel soak
        # generator) skips the relabel, so every rng draw is the same
        # but the two streams agree on final state only for keys whose
        # first draw is an upsert (or that have a later event): a
        # first-draw delete is an insert here and a no-op delete
        # there. The serial path keeps exact labels for the
        # op-distribution tests.
        uniq, first_idx = np.unique(key_ids, return_index=True)
        new_mask = ~seen[uniq]
        op[first_idx[new_mask]] = "insert"
        seen[uniq] = True

    repo = np.char.add("repo_", key_repo[key_ids].astype("U6")).astype(object)
    path = np.char.add("src/k", key_ids.astype("U10")).astype(object)
    lang = np.array(["go", "py", "rs", "md", "ts"], dtype=object)[key_ids % 5].astype(object)

    # content pool per chunk (deterministic), + unique version suffix
    pool_n = min(m, 8_192)
    pool_words = _WORDS[rng.integers(0, len(_WORDS), size=(pool_n, max(1, cfg.content_len // 5)))]
    pool = np.array([" ".join(w) for w in pool_words], dtype=object)
    content = np.char.add(
        np.char.add(pool[rng.integers(0, pool_n, size=m)].astype("U"), " #v"),
        np.arange(start, stop).astype("U12"),
    ).astype(object)
    content[op == "delete"] = ""

    commit_s = np.char.zfill(
        np.arange(start + 1, stop + 1).astype("U20"), COMMIT_WIDTH
    ).astype(object)
    bad = rng.random(m) < cfg.malformed_frac
    commit_s[bad] = ""

    cols = {
        "repo": pa.array(repo, type=pa.string()),
        "path": pa.array(path, type=pa.string()),
        "commit": pa.array(commit_s, type=pa.string()),
        "lang": pa.array(lang, type=pa.string()),
        "content": pa.array(content, type=pa.string()),
        "op": pa.array(op, type=pa.string()),
    }
    # additive evolution: files wholly before the evolution point lack
    # the column entirely; later files carry it (null before the point)
    if evolve_at is not None and stop > evolve_at:
        idx = np.arange(start, stop)
        mode = np.where(
            idx >= evolve_at,
            np.where(idx % 3 == 0, "binary", "text"),
            None,
        ).astype(object)
        mode[idx < evolve_at] = None
        cols["mode"] = pa.array(mode, type=pa.string())
    return pa.table(cols), int(bad.sum())


def generate_change_stream(out_dir: str, cfg: GeneratorConfig) -> dict:
    """Write the change log chunk by chunk; returns a summary dict."""
    os.makedirs(out_dir, exist_ok=True)
    master = np.random.default_rng(cfg.seed)
    key_repo = master.zipf(cfg.zipf_a, size=cfg.n_keys) % cfg.n_repos
    seen = np.zeros(cfg.n_keys, dtype=bool)
    evolve_at = (
        int(cfg.n_events * cfg.evolve_at_frac)
        if cfg.evolve_at_frac is not None
        else None
    )

    files = []
    n_malformed = 0
    per = cfg.events_per_file
    for i, start in enumerate(range(0, cfg.n_events, per)):
        stop = min(start + per, cfg.n_events)
        table, bad = _chunk(cfg, i, start, stop, key_repo, seen, evolve_at)
        fname = os.path.join(out_dir, f"changes-{i:05d}.parquet")
        # 65536-row groups: prep-shard granularity for the direct
        # replay (_plan_shards slices on row-group boundaries, so
        # read parallelism is writer-controlled, not one-task-per-file)
        pq.write_table(table, fname, row_group_size=65536)
        files.append(fname)
        n_malformed += bad

    return {
        "n_events": cfg.n_events,
        "n_files": len(files),
        "files": files,
        "n_keys": cfg.n_keys,
        "n_malformed": n_malformed,
    }
