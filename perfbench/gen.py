"""Seeded change-log generator owned by the benchmark.

The benchmark writes its own inputs so that a change to the engine's
``sources/generator.py`` cannot change what is measured. Bump
``GEN_VERSION`` whenever the output for a given seed changes: the
version is part of the input cache key.

A log is a list of ``changes-{i:05d}.parquet`` files in global commit
order. Each file's rows are drawn from ``default_rng([seed, i])``:

- keys ``(repo, path)`` with Zipf-skewed repo popularity;
- the first event of a key is an ``insert``, later ones ``update``,
  ``delete_frac`` of them ``delete`` (a delete carries empty content);
- ``malformed_frac`` of rows carry an empty commit (quarantined);
- from ``evolve_at`` events onward an additive nullable ``mode``
  column appears (files wholly before that point lack the column).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

GEN_VERSION = 1
COMMIT_WIDTH = 12
N_REPOS = 40
ZIPF_A = 1.3
DELETE_FRAC = 0.08
MALFORMED_FRAC = 0.001
CONTENT_WORDS = 24

_WORDS = np.array(
    "alpha beta gamma delta ledger swap pool pair token route price block "
    "chain query state merge epoch shard window commit repo path event".split(),
    dtype=object,
)


def write_log(
    out_dir: str,
    seed: int,
    file_events: list[int],
    n_keys: int,
    evolve_at_frac: float = 0.5,
) -> list[str]:
    """Write one file per entry of ``file_events`` (its row count) and
    return the file paths in commit order."""
    os.makedirs(out_dir, exist_ok=True)
    master = np.random.default_rng(seed)
    key_repo = master.zipf(ZIPF_A, size=n_keys) % N_REPOS
    seen = np.zeros(n_keys, dtype=bool)
    total = sum(file_events)
    evolve_at = int(total * evolve_at_frac)
    files = []
    start = 0
    for i, m in enumerate(file_events):
        rng = np.random.default_rng([seed, i])
        key_ids = rng.integers(0, n_keys, size=m)
        op = np.where(rng.random(m) < DELETE_FRAC, "delete", "update").astype(object)
        uniq, first = np.unique(key_ids, return_index=True)
        fresh = ~seen[uniq]
        op[first[fresh]] = "insert"
        seen[uniq] = True

        pool_n = min(m, 4096)
        words = _WORDS[rng.integers(0, len(_WORDS), size=(pool_n, CONTENT_WORDS))]
        pool = np.array([" ".join(w) for w in words], dtype=object)
        content = np.char.add(
            np.char.add(pool[rng.integers(0, pool_n, size=m)].astype("U"), " #v"),
            np.arange(start, start + m).astype("U12"),
        ).astype(object)
        content[op == "delete"] = ""
        commit = np.char.zfill(
            np.arange(start + 1, start + m + 1).astype("U20"), COMMIT_WIDTH
        ).astype(object)
        commit[rng.random(m) < MALFORMED_FRAC] = ""

        cols = {
            "repo": pa.array(
                np.char.add("repo_", key_repo[key_ids].astype("U4")), pa.string()
            ),
            "path": pa.array(np.char.add("src/k", key_ids.astype("U10")), pa.string()),
            "commit": pa.array(commit, pa.string()),
            "lang": pa.array(
                np.array(["go", "py", "rs", "md", "ts"])[key_ids % 5], pa.string()
            ),
            "content": pa.array(content, pa.string()),
            "op": pa.array(op, pa.string()),
        }
        if start + m > evolve_at:
            idx = np.arange(start, start + m)
            mode = np.where(idx % 3 == 0, "binary", "text").astype(object)
            mode[idx < evolve_at] = None
            cols["mode"] = pa.array(mode, pa.string())
        path = os.path.join(out_dir, f"changes-{i:05d}.parquet")
        tmp = path + ".tmp"
        pq.write_table(pa.table(cols), tmp, row_group_size=65536)
        os.replace(tmp, path)
        files.append(path)
        start += m
    return files
