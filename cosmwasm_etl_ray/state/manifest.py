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
  (= the synced-height cursor), and which epoch last rewrote each
  partition (untouched partitions carry forward — copy-on-write);
- resume = read the max committed epoch, replay from its
  ``offset_range[1] + 1``; a crash after partition writes but before
  the manifest leaves the epoch uncommitted and the re-run overwrites
  the same filenames → reconverges to identical state (LWW by commit
  is idempotent).

The layout is resumable-by-partition at 100 TB: state is one file per
hash partition per touching epoch, never one giant file.
"""

from __future__ import annotations

import json
import os
import re
import time

_MANIFEST_RE = re.compile(r"^epoch-(\d{6})\.json$")


def entry_chain(info: dict) -> list[str]:
    """One manifest partition entry's chain: a delta link records
    it; a full-layout or base entry is its own chain."""
    return info.get("chain") or [info["file"]]


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
        """pid → newest file as of `epoch` (default: latest): the whole
        state on a full-layout store, the newest chain link on a delta
        store. Readers use state/delta.partition_chains."""
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
        previous manifest, record touched ones, rename into place.
        ``num_partitions`` is recorded because it is part of the store's
        identity (pid routing); apply_epoch validates it on resume.
        ``layout`` ("full" | "delta") is equally identity (resume
        refuses a mismatch): a full entry is the pid's whole state, a
        delta link records its ``chain`` — the previous entry's chain
        plus the new file — and a ``base`` entry (compaction output)
        carries none, which resets the chain (state/delta.py)."""
        prev = self.latest_epoch()
        partitions: dict[str, dict] = {}
        if prev is not None:
            prev_manifest = self.manifest(prev)
            partitions.update(prev_manifest["partitions"])
            if num_partitions is None:
                num_partitions = prev_manifest.get("num_partitions")
            if layout is None:
                layout = prev_manifest.get("layout")
        for pid, info in touched.items():
            entry = {**info, "epoch": epoch}
            prior = partitions.get(str(pid))
            if layout == "delta" and not info.get("base"):
                entry["chain"] = (entry_chain(prior) if prior else []) + [info["file"]]
            partitions[str(pid)] = entry
        manifest = {
            "epoch": epoch,
            "offset_range": list(offset_range),
            "committed_at": time.time(),
            "counts": counts,
            "num_partitions": num_partitions,
            "layout": layout or "full",
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
