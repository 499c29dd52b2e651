"""Run one CLI process and measure its wall time and peak memory.

Peak memory is the sum, over the process and every child it starts (the
pool workers), of each process's own peak resident set (``VmHWM``), polled
from ``/proc`` while the processes live.  A high-water mark never drops, so
polling misses only growth in a process's last poll interval.  The kernel's
own figure (``ru_maxrss``) is no use here: a child started with ``vfork``
keeps the parent's peak across ``exec``.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time
from dataclasses import dataclass

POLL_S = 0.01


@dataclass(frozen=True)
class ProcResult:
    argv: list[str]
    returncode: int
    wall_s: float
    peak_rss_kb: int
    stderr: str


def _children(pid: int) -> list[int]:
    out = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
    return out


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class _TreePeaks(threading.Thread):
    """Polls ``root`` and its descendants for their peak resident set."""

    def __init__(self, root: int):
        super().__init__(daemon=True)
        self.root = root
        self.peaks: dict[int, int] = {}
        self.done = threading.Event()

    def run(self) -> None:
        while True:
            todo = [self.root]
            while todo:
                pid = todo.pop()
                hwm = _hwm_kb(pid)
                if hwm > self.peaks.get(pid, 0):
                    self.peaks[pid] = hwm
                todo.extend(_children(pid))
            if self.done.wait(POLL_S):
                return


def run(argv: list[str], env: dict, cwd: str, timeout: float = 170.0) -> ProcResult:
    """Run ``argv`` to completion; stdout is discarded, stderr kept."""
    with open(os.devnull, "wb") as devnull:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=devnull, stderr=subprocess.PIPE
        )
    poller = _TreePeaks(proc.pid)
    poller.start()
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        stderr = proc.stderr.read()  # EOF when the process exits
        proc.wait()
        wall = time.perf_counter() - started
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        poller.done.set()
        poller.join()
        proc.stderr.close()
    peak = sum(poller.peaks.values())
    return ProcResult(argv, proc.returncode, wall, peak, stderr.decode("utf-8", "replace"))
