"""Exactly-once sink: manifest-commit protocol + cursor.

Graft of the reference's single-transaction data+cursor commit
(/root/reference/parser/dex/repo/repository.go:98-122: insert rows,
then ``UPDATE synced_height SET height=target WHERE height=src`` — a
CAS on the prior cursor) onto a Parquet lake:

- every partition file is written to its final name via tmp+rename
  (idempotent overwrite under task retry — at-least-once tasks, never
  append);
- an epoch is COMMITTED only when ``manifests/epoch-{e:06d}.json``
  exists; that file is itself written tmp+rename (the atomic commit
  point) and carries full lineage per partition: file name, row
  counts, applied-event counts, the source offset range
  (= the synced-height cursor), and which epoch last wrote each
  partition (untouched partitions carry forward);
- a partition entry names a SLICE of a state file: ``file``,
  ``offset`` (the pid's first row in it) and ``rows``. The merge
  writes one file per (epoch, pid-group) with rows in (pid, repo,
  path) order, so a group's pids share the file and each entry names
  its pid's rows; gc keeps a file while any kept entry names a slice
  of it. An entry without ``offset`` names the whole file (callers
  that write one file per pid, and the transfer ledger);
- an entry is a BASE (the pid's whole state in one slice: ``file``,
  ``offset``, ``rows``, ``live_rows``, ``epoch``) or an appended LINK,
  which adds the pid's chain of slices, base first and itself last:
  ``chain`` (their files), ``chain_offsets`` and ``chain_rows``
  (``rows``/``live_rows`` count the link's own slice). The merge link
  decides which it writes from those counts (stages/merge.appends);
- resume = read the max committed epoch, replay from its
  ``offset_range[1] + 1``; a crash after partition writes but before
  the manifest leaves the epoch uncommitted and the re-run overwrites
  the same filenames → reconverges to identical state (LWW by commit
  is idempotent).

Manifests carry ``"format": 4`` and the ``root`` that wrote them, and
name each ``file``/``chain`` file under that root relative to it (one
outside it, shared with a cloned store, by absolute name). Only
``StateStore`` knows this: ``commit_epoch`` records names so, and
``manifest()``, the one read point, refuses any other format and joins
names to the store root. A copied or moved store reads and sweeps its
own files; one holding a copy of another's manifests alone (a shallow
clone) reads the files it lacks from the writing root. ``offset_range``
names change-log files and is recorded as given.

The layout is resumable-by-partition at 100 TB: state is one file per
pid-group per touching epoch (a group per 2^17 rows, at most 2×NCPU
files an epoch), never one giant file, and the pid stays the unit of
routing and of the append-or-fold decision.
"""

from __future__ import annotations

import json
import os
import re
import time
from typing import NamedTuple

from cosmwasm_etl_ray.state import durable

_MANIFEST_RE = re.compile(r"^epoch-(\d{6})\.json$")
MANIFEST_FORMAT = 4


class Slice(NamedTuple):
    """One pid's rows in one state file: ``rows`` rows from row
    ``offset`` on, or the whole file when ``offset`` is None."""

    file: str
    offset: int | None = None
    rows: int | None = None


def entry_slices(info: dict) -> list[Slice]:
    """One manifest partition entry's chain as slices, base first; an
    entry without ``offset`` names its whole file."""
    if "chain" in info:
        return [Slice(*s) for s in zip(info["chain"], info["chain_offsets"], info["chain_rows"])]
    offset = info.get("offset")
    return [Slice(info["file"], offset, None if offset is None else info["rows"])]


def entry_chain_rows(info: dict) -> list[int] | None:
    """Row count of each file of the entry's chain, or None when the
    entry records none (a bare file name)."""
    if "chain" in info:
        return info["chain_rows"]
    return [info["rows"]] if "rows" in info else None


def _map_names(partitions: dict[str, dict], fn) -> dict[str, dict]:
    """The partition entries with ``fn`` applied to every ``file`` and
    ``chain`` name."""
    out = {pid: {**info, "file": fn(info["file"])} for pid, info in partitions.items()}
    for info in out.values():
        if "chain" in info:
            info["chain"] = [fn(f) for f in info["chain"]]
    return out


class StateStore:
    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.manifest_dir = os.path.join(self.root, "manifests")
        self.state_dir = os.path.join(self.root, "state")
        self.quarantine_dir = os.path.join(self.root, "quarantine")
        for d in (self.manifest_dir, self.state_dir, self.quarantine_dir):
            os.makedirs(d, exist_ok=True)

    # ---- cursor ----
    def committed_epochs(self) -> list[int]:
        out = []
        for f in os.listdir(self.manifest_dir):
            m = _MANIFEST_RE.match(f)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def latest_epoch(self) -> int | None:
        es = self.committed_epochs()
        return es[-1] if es else None

    def is_committed(self, epoch: int) -> bool:
        return os.path.exists(self._mpath(epoch))

    def _mpath(self, epoch: int) -> str:
        return os.path.join(self.manifest_dir, f"epoch-{epoch:06d}.json")

    def _load(self, epoch: int) -> dict:
        """The manifest as recorded (root-relative names); refuses any
        format but MANIFEST_FORMAT."""
        with open(self._mpath(epoch)) as f:
            m = json.load(f)
        if m.get("format") != MANIFEST_FORMAT:
            raise ValueError(f"manifest of epoch {epoch} in {self.root} is format "
                             f"{m.get('format')}, not {MANIFEST_FORMAT}: replay the "
                             "change log into a new store")
        return m

    def _resolve(self, m: dict) -> dict:
        """``m`` with every name joined to the store root, or, in a
        manifest another root wrote, to that root where this store
        holds no copy of the file (it copied the manifests alone)."""
        def join(name: str) -> str:
            own = os.path.join(self.root, name)
            if m["root"] == self.root or os.path.exists(own):
                return own
            return os.path.join(m["root"], name)

        return {**m, "partitions": _map_names(m["partitions"], join)}

    def _relative(self, name: str) -> str:
        """``name`` relative to the store root; absolute outside it."""
        return os.path.abspath(name).removeprefix(self.root + os.sep)

    def manifest(self, epoch: int) -> dict:
        """The committed manifest of ``epoch``, every file name joined
        to the store root (absolute names stay as they are)."""
        return self._resolve(self._load(epoch))

    # ---- lineage ----
    def partition_files(self, epoch: int | None = None) -> dict[int, str]:
        """pid → newest file as of `epoch` (default: latest): the file
        that holds the pid's whole state for a base entry, its newest
        link otherwise — a group file also holds the other pids of the
        pid's group (its ``pid`` column tells them apart). Readers use
        state/delta.partition_slices."""
        if epoch is None:
            epoch = self.latest_epoch()
        if epoch is None:
            return {}
        return {
            int(pid): info["file"]
            for pid, info in self.manifest(epoch)["partitions"].items()
        }

    def commit_epoch(
        self,
        epoch: int,
        touched: dict[int, dict],
        offset_range: tuple[str, str],
        counts: dict,
        num_partitions: int | None = None,
        layout: str | None = None,
        timings: dict | None = None,
    ) -> dict:
        """Atomic commit: carry forward untouched partitions from the
        previous manifest, record touched ones as given (an entry with a
        ``chain`` is an appended link, any other entry a base), names
        made root-relative, rename into place; returns the manifest as
        ``manifest()`` reads it. ``num_partitions`` is part of the
        store's identity (pid routing; the replay validates it on
        resume). ``layout`` is accepted and ignored. ``timings`` (where
        the epoch's time and bytes went) is recorded as given."""
        prev = self.latest_epoch()
        partitions: dict[str, dict] = {}
        if prev is not None:
            prev_manifest = self._load(prev)
            partitions.update(self._resolve(prev_manifest)["partitions"])
            if num_partitions is None:
                num_partitions = prev_manifest.get("num_partitions")
        partitions.update({str(pid): {**info, "epoch": epoch} for pid, info in touched.items()})
        manifest = {
            "format": MANIFEST_FORMAT,
            "epoch": epoch,
            "root": self.root,
            "offset_range": list(offset_range),
            "committed_at": time.time(),
            "counts": counts,
            "num_partitions": num_partitions,
            "partitions": _map_names(partitions, self._relative),
        }
        if timings is not None:
            manifest["timings"] = timings
        durable.write_json(self._mpath(epoch), manifest)
        return self._resolve(manifest)

    # ---- snapshots dir for validation ----
    def snapshot_path(self, epoch: int) -> str:
        d = os.path.join(self.root, "snapshots")
        os.makedirs(d, exist_ok=True)
        return os.path.join(d, f"epoch-{epoch:06d}.parquet")
