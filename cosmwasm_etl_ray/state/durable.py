"""Durable writes: every file and directory commit of the engine.

Graft of the reference's one-transaction commit of rows and cursor
(/root/reference/parser/dex/repo/repository.go:98-122) onto files: a
writer writes ``tmp_path(path)`` (``<path>.tmp.<pid>``, a name no reader
lists) and ``commit`` renames it into place, so readers see the old
bytes or the new, never a torn file. A directory commit with
``overwrite=False`` refuses a lost race. ``sweep`` deletes dead
writers' tmps. Tests crash any durable write by monkeypatching
``commit``.
"""

from __future__ import annotations

import json
import os
import shutil

_TMP = ".tmp."


def tmp_path(path: str) -> str:
    """``<path>.tmp.<pid>``."""
    return f"{path}{_TMP}{os.getpid()}"


def commit(tmp: str, path: str, overwrite: bool = True) -> None:
    """Rename ``tmp`` into place at ``path``: an existing file is
    replaced atomically, an existing directory removed first. With
    ``overwrite=False`` (directories only) an existing directory wins
    and ``tmp`` is removed."""
    if not os.path.isdir(tmp):
        os.replace(tmp, path)
        return
    if overwrite:
        shutil.rmtree(path, ignore_errors=True)
    try:
        os.rename(tmp, path)
    except OSError:
        if overwrite or not os.path.isdir(path):
            raise
        shutil.rmtree(tmp, ignore_errors=True)


def write(path: str, write_fn, overwrite: bool = True) -> None:
    """``write_fn(tmp)`` writes the bytes, then ``commit``."""
    tmp = tmp_path(path)
    write_fn(tmp)
    commit(tmp, path, overwrite)


def write_json(path: str, obj) -> None:
    def dump(tmp: str) -> None:
        with open(tmp, "w") as f:
            json.dump(obj, f)

    write(path, dump)


def _dead(name: str) -> bool:
    """A tmp name whose writer pid no longer runs."""
    head, _, pid = name.rpartition(_TMP)
    if not (head and pid.isdigit()):
        return False
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        pass
    return False


def sweep(dirs, keep_dirs: bool = False) -> int:
    """Delete the dead writers' tmp files and directories in each of
    ``dirs``, then (unless ``keep_dirs``) each of ``dirs`` left empty.
    Returns the number of tmps deleted."""
    deleted = 0
    for d in dirs:
        for name in os.listdir(d) if os.path.isdir(d) else []:
            if _dead(name):
                p = os.path.join(d, name)
                if os.path.isdir(p):
                    shutil.rmtree(p, ignore_errors=True)
                else:
                    os.remove(p)
                deleted += 1
        if not keep_dirs:
            try:
                os.rmdir(d)  # only an empty dir goes
            except OSError:
                pass
    return deleted
