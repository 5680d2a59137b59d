"""Run annotations read from /proc and a memcpy probe (no psutil).

Steal share and memory bandwidth follow ``bench.py``: a slow run at
low steal but low bandwidth points at a neighbour's memory traffic,
not at the code under test.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time


def cpu_ticks() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_pct(a: list[int], b: list[int]) -> float:
    d = [y - x for x, y in zip(a, b)]
    return round(100.0 * d[7] / (sum(d) or 1), 2)


def membw_gbps(n_mb: int = 64) -> float:
    """Single-thread memcpy bandwidth in GB/s (4 copies of n_mb MiB)."""
    import numpy as np

    src = np.ones(n_mb * 131072, dtype=np.float64)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # first-touch faults stay outside the timing
    t0 = time.perf_counter()
    for _ in range(4):
        np.copyto(dst, src)
    return round(8 * n_mb / 1024 / (time.perf_counter() - t0), 2)


def membw_gbps_child() -> float:
    """``membw_gbps`` in a short-lived child process, so its buffers
    never count in this process's or the session's memory."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _status(pid: int) -> dict[str, str]:
    out = {}
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                k, _, v = line.partition(":")
                out[k] = v.strip()
    except OSError:
        pass
    return out


def _kb(status: dict[str, str], key: str) -> int:
    return int(status.get(key, "0 kB").split()[0])


def session_rss_mb(pids: list[int]) -> float:
    """Resident memory of ``pids`` (the Ray session's daemons and
    workers, not the benchmark process itself): each process's private
    anonymous memory, plus the shared memory of the object store
    counted once (its largest mapping) rather than once per process
    that maps it."""
    anon_kb = shmem_kb = 0
    for pid in pids:
        st = _status(pid)
        anon_kb += _kb(st, "RssAnon")
        shmem_kb = max(shmem_kb, _kb(st, "RssShmem"))
    return (anon_kb + shmem_kb) / 1024.0


class RssSampler:
    """The peak of ``session_rss_mb`` over this process's descendants,
    sampled every ``PERIOD`` seconds on a thread; the process list is
    re-read every ``REFRESH`` samples. Both reads are a few
    milliseconds a second of the pinned CPU."""

    PERIOD = 0.2
    REFRESH = 5

    def __init__(self):
        self.peak_mb, self.samples = 0.0, 0
        self._root = os.getpid()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        pids: list[int] = []
        while True:
            if self.samples % self.REFRESH == 0:
                pids = descendants(self._root)
            self.peak_mb = max(self.peak_mb, session_rss_mb(pids))
            self.samples += 1
            if self._stop.wait(self.PERIOD):
                return

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def own_peak_rss_mb() -> float:
    """VmHWM (peak resident set) of this process."""
    return _kb(_status(os.getpid()), "VmHWM") / 1024.0


def descendants(root_pid: int | None = None) -> list[int]:
    """Every live process below ``root_pid`` in the parent tree."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(name))
    out, stack = [], list(children.get(root_pid or os.getpid(), []))
    while stack:
        pid = stack.pop()
        out.append(pid)
        stack.extend(children.get(pid, []))
    return out


def session_cpu_s(root_pid: int | None = None) -> float:
    """CPU seconds (user + system) used so far by ``root_pid`` and every
    live process below it. The kernel books stolen ticks as steal, not
    to the process, so this moves far less than wall time when other
    tenants take the host's CPUs."""
    root_pid = root_pid or os.getpid()
    ticks = 0
    for pid in [root_pid] + descendants(root_pid):
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def dir_bytes(path: str) -> int:
    total = 0
    for d, _, names in os.walk(path):
        for n in names:
            try:
                total += os.path.getsize(os.path.join(d, n))
            except OSError:
                pass
    return total


def versions() -> dict:
    """Call before the session is pinned to one CPU: ``nproc`` reads
    this process's CPU affinity."""
    import pyarrow
    import ray

    return {
        # what `nproc` prints: OMP_NUM_THREADS caps it when set
        "nproc": int(os.environ.get("OMP_NUM_THREADS") or len(os.sched_getaffinity(0))),
        "cpus_online": os.cpu_count(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
    }


if __name__ == "__main__":
    print(membw_gbps())
