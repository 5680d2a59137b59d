"""Runtime compatibility shims.

``ensure_thread_safe_lazy_imports``: Ray Data's ``read_parquet`` imports
``fsspec.implementations.http`` inside ``_is_http_filesystem`` and
catches ``ModuleNotFoundError`` (ray/data/datasource/path_util.py:152).
In this environment the import always fails (no ``aiohttp``), so it is
re-executed on EVERY ``read_parquet`` — and when two threads run
``read_parquet`` concurrently (the pipelined replay, the concurrent
derived-task tick), the second thread can observe the first thread's
partially initialized module in ``sys.modules`` and raise plain
``ImportError: cannot import name 'HTTPFileSystem'``, which escapes
Ray's ``except ModuleNotFoundError``. Registering an explicit stub
module with an ``HTTPFileSystem`` sentinel class makes the import
succeed exactly once and removes the race; the sentinel is never
instantiated (without the real module no HTTPFileSystem instance can
exist), so the ``isinstance`` checks it feeds are trivially False.
"""

from __future__ import annotations

import sys
import threading
import types

_lock = threading.Lock()
_done = False


def ensure_thread_safe_lazy_imports() -> None:
    """Idempotent; call before spawning threads that run Ray Data jobs."""
    global _done
    with _lock:
        if _done:
            return
        try:
            import fsspec.implementations.http  # noqa: F401
        except ModuleNotFoundError:
            import fsspec.implementations

            mod = types.ModuleType("fsspec.implementations.http")

            class HTTPFileSystem:  # sentinel — never instantiated
                pass

            mod.HTTPFileSystem = HTTPFileSystem
            sys.modules["fsspec.implementations.http"] = mod
            fsspec.implementations.http = mod
        _done = True


# ------------------------------------------------ memoized ray.remote

_REMOTE_CACHE: dict = {}


def cached_remote(key, fn, **opts):
    """Memoized ``ray.remote`` wrapper: creating a fresh remote
    function object per call re-exports ``fn`` to the cluster every
    time; the key-keyed cache creates each task definition ONCE per
    process. ``key`` must be globally unique — prefix it with the
    owning exchange (every direct-exchange implementation shares this
    one helper: replay merge, hash_join, shard_exchange, price,
    transfer parse)."""
    import ray

    r = _REMOTE_CACHE.get(key)
    if r is None:
        r = ray.remote(**opts)(fn) if opts else ray.remote(fn)
        _REMOTE_CACHE[key] = r
    return r


def task_cap() -> int:
    """The host's cap on the fan-out of one raw-task step (prep shards,
    merge pid-groups, state reader tasks, exchange prep): 2×NCPU of the
    session — every core busy, per-task orchestration bounded. The
    state steps size their fan-out by rows (one task per
    stages/merge.ROW_GROUP_ROWS rows) and take this as its cap."""
    import ray

    return 2 * int(ray.cluster_resources().get("CPU", 32))


def row_runs(rows, cap: int, target: int) -> list[tuple[int, int]]:
    """Cut items 0..n-1 (``rows`` holds each one's row count) into
    contiguous runs [lo, hi), each of at least max(target, total / cap)
    rows unless it is the only run: at most ``cap`` runs, and items of
    under ``target`` rows in all are one run."""
    rows = [int(n) for n in rows]
    target = max(target, -(-sum(rows) // cap))
    cuts, acc = [0], 0
    for i, n in enumerate(rows):
        acc += n
        if acc >= target:
            cuts.append(i + 1)
            acc = 0
    if len(cuts) > 1:
        cuts.pop()  # the items after it hold < target rows: they join the run before
    return list(zip(cuts, cuts[1:] + [len(rows)]))


def empty_dataset(empty) -> "ray.data.Dataset":
    """``ray.data.from_arrow`` of the 0-row table ``empty``, whose
    ``to_pandas()`` keeps the typed columns: Ray Data 2.49's drops every
    column of a Dataset with no rows (its ``schema()`` is right). A
    transform of it returns a plain Dataset, which drops them again."""
    import ray.data

    ds = ray.data.from_arrow(empty)
    ds.to_pandas = lambda limit=None: empty.to_pandas()
    return ds
