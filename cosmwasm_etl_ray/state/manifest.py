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
  point) and carries full lineage per partition: file path, row
  counts, applied-event counts, the source offset range
  (= the synced-height cursor), and which epoch last wrote each
  partition (untouched partitions carry forward);
- a partition entry is a BASE (the pid's whole state in one file:
  ``file``, ``rows``, ``live_rows``, ``epoch``) or an appended LINK,
  which adds the pid's ``chain`` (base first, itself last) and
  ``chain_rows`` (each chain file's rows; ``rows``/``live_rows`` count
  the link's own file). The merge link decides which it writes from
  those counts (stages/merge.appends); manifests carry ``"format": 2``;
- resume = read the max committed epoch, replay from its
  ``offset_range[1] + 1``; a crash after partition writes but before
  the manifest leaves the epoch uncommitted and the re-run overwrites
  the same filenames → reconverges to identical state (LWW by commit
  is idempotent).

The layout is resumable-by-partition at 100 TB: state is one file per
hash partition per touching epoch, never one giant file.

Older manifests stay readable: format-1 full-layout entries and
compaction ``base`` entries are bases, format-1 delta links carry
``chain`` without ``chain_rows`` (their next write folds). A format-1
delta manifest written before chains were recorded names only each
pid's newest link, so ``manifest_entries`` refuses it.
"""

from __future__ import annotations

import json
import os
import re
import time

_MANIFEST_RE = re.compile(r"^epoch-(\d{6})\.json$")
MANIFEST_FORMAT = 2


def entry_chain(info: dict) -> list[str]:
    """One manifest partition entry's chain: a link records it; a base
    is its own chain."""
    return info.get("chain") or [info["file"]]


def entry_chain_rows(info: dict) -> list[int] | None:
    """Row count of each file of the entry's chain, or None when the
    manifest that wrote it did not record them."""
    if "chain" in info:
        return info.get("chain_rows")
    return [info["rows"]] if "rows" in info else None


def manifest_entries(m: dict) -> dict[str, dict]:
    """One manifest's pid → partition entry map; refuses a delta
    manifest written before chains were recorded (no ``format``,
    ``layout: "delta"``, an entry with neither ``chain`` nor ``base``):
    its entries name only each pid's newest link, so reading them would
    serve one epoch's slice as the whole state."""
    if "format" not in m and m.get("layout") == "delta":
        for pid, info in m["partitions"].items():
            if "chain" not in info and not info.get("base"):
                raise ValueError(
                    f"manifest of epoch {m['epoch']} is a delta-layout manifest "
                    f"written before chains were recorded (pid {pid} has neither "
                    "'chain' nor 'base'); its state cannot be read — rebuild the "
                    "store by replaying the change log"
                )
    return m["partitions"]


class StateStore:
    def __init__(self, root: str):
        self.root = root
        self.manifest_dir = os.path.join(root, "manifests")
        self.state_dir = os.path.join(root, "state")
        self.quarantine_dir = os.path.join(root, "quarantine")
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

    def manifest(self, epoch: int) -> dict:
        with open(self._mpath(epoch)) as f:
            return json.load(f)

    # ---- lineage ----
    def partition_files(self, epoch: int | None = None) -> dict[int, str]:
        """pid → newest file as of `epoch` (default: latest): the pid's
        whole state for a base entry, its newest link otherwise.
        Readers use state/delta.partition_chains."""
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
    ) -> dict:
        """Atomic commit: carry forward untouched partitions from the
        previous manifest, record touched ones as given (an entry with a
        ``chain`` is an appended link, any other entry a base), rename
        into place. ``num_partitions`` is recorded because it is part of
        the store's identity (pid routing); the replay validates it on
        resume. ``layout`` is accepted for callers written against
        format-1 stores and ignored: how a pid's state was written no
        longer identifies a store."""
        prev = self.latest_epoch()
        partitions: dict[str, dict] = {}
        if prev is not None:
            prev_manifest = self.manifest(prev)
            partitions.update(prev_manifest["partitions"])
            if num_partitions is None:
                num_partitions = prev_manifest.get("num_partitions")
        for pid, info in touched.items():
            partitions[str(pid)] = {**info, "epoch": epoch}
        manifest = {
            "format": MANIFEST_FORMAT,
            "epoch": epoch,
            "offset_range": list(offset_range),
            "committed_at": time.time(),
            "counts": counts,
            "num_partitions": num_partitions,
            "partitions": partitions,
        }
        tmp = f"{self._mpath(epoch)}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp, self._mpath(epoch))
        return manifest

    # ---- snapshots dir for validation ----
    def snapshot_path(self, epoch: int) -> str:
        d = os.path.join(self.root, "snapshots")
        os.makedirs(d, exist_ok=True)
        return os.path.join(d, f"epoch-{epoch:06d}.parquet")
