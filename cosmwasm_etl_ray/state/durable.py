"""Durable writes: every file and directory commit of the engine.

Graft of the reference's one-transaction commit of rows and cursor
(/root/reference/parser/dex/repo/repository.go:98-122) onto files: a
writer writes ``tmp_path(path)`` (``<path>.tmp.<pid>``, a name no reader
lists) and ``commit`` renames it into place, so readers see the old
bytes or the new, never a torn file. ``overwrite=False`` refuses a lost
race. ``sweep`` deletes dead writers' tmps. Tests crash any durable
write by monkeypatching ``commit``.
"""

from __future__ import annotations

import json
import os
import shutil

_TMP = ".tmp."


def tmp_path(path: str, token: str | None = None) -> str:
    """``<path>.tmp.<pid>``, or ``<path>.tmp.<token>`` for a name unique
    per racer (the token starts with the pid: ``<pid>-<suffix>``)."""
    return f"{path}{_TMP}{os.getpid() if token is None else token}"


def commit(tmp: str, path: str, overwrite: bool = True) -> bool:
    """Rename ``tmp`` into place at ``path``: an existing file is
    replaced atomically, an existing directory removed first. With
    ``overwrite=False`` an existing target wins: ``tmp`` is removed and
    the call returns False."""
    if os.path.isdir(tmp):
        if overwrite:
            shutil.rmtree(path, ignore_errors=True)
        try:
            os.rename(tmp, path)
        except OSError:
            if overwrite or not os.path.isdir(path):
                raise
            shutil.rmtree(tmp, ignore_errors=True)
            return False
        return True
    if overwrite:
        os.replace(tmp, path)
        return True
    try:
        os.link(tmp, path)
    except FileExistsError:
        return False
    finally:
        os.remove(tmp)
    return True


def write(path: str, write_fn, overwrite: bool = True, token: str | None = None) -> bool:
    """``write_fn(tmp)`` writes the bytes, then ``commit``."""
    tmp = tmp_path(path, token)
    write_fn(tmp)
    return commit(tmp, path, overwrite)


def write_json(path: str, obj, overwrite: bool = True, token: str | None = None) -> bool:
    def dump(tmp: str) -> None:
        with open(tmp, "w") as f:
            json.dump(obj, f)

    return write(path, dump, overwrite, token)


def _dead(name: str) -> bool:
    """A tmp name whose writer pid no longer runs."""
    head, _, tag = name.rpartition(_TMP)
    pid = tag.split("-", 1)[0]
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
