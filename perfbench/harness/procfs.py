"""Process-tree CPU and memory from ``/proc`` (psutil is not available).

CPU of a process tree is the sum, over the live processes of the tree,
of utime + stime + cutime + cstime: a worker that exits and is reaped
moves its CPU into its parent's cutime/cstime, so nothing is lost or
counted twice between two snapshots taken while the tree runs.
"""
from __future__ import annotations

import os
import signal
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> tuple[int, str, str, int] | None:
    """(ppid, comm, state, cpu ticks incl. reaped children) of a pid."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    comm = raw[raw.index("(") + 1 : raw.rindex(")")]
    fields = raw[raw.rindex(")") + 2 :].split()
    state, ppid = fields[0], int(fields[1])
    ticks = sum(int(x) for x in fields[11:15])  # utime stime cutime cstime
    return ppid, comm, state, ticks


def _snapshot() -> dict[int, tuple[int, str, str, int]]:
    out = {}
    for name in os.listdir("/proc"):
        if name.isdigit() and (st := _stat(int(name))) is not None:
            out[int(name)] = st
    return out


def descendants(root: int, snap: dict | None = None) -> list[int]:
    """Pids of every live descendant of ``root`` (not ``root`` itself)."""
    snap = _snapshot() if snap is None else snap
    kids: dict[int, list[int]] = {}
    for pid, (ppid, *_rest) in snap.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def tree_cpu(root: int | None = None) -> dict[str, float]:
    """CPU seconds so far of ``root`` (default: this process) and its
    descendants, split into ``driver`` (root), ``jvm`` (java processes)
    and ``python`` (every other descendant: Spark's Python daemon and
    workers), plus their ``total``."""
    root = os.getpid() if root is None else root
    snap = _snapshot()
    out = {"driver": 0.0, "jvm": 0.0, "python": 0.0}
    if root in snap:
        out["driver"] = snap[root][3] / CLK_TCK
    for pid in descendants(root, snap):
        _, comm, _, ticks = snap[pid]
        out["jvm" if comm == "java" else "python"] += ticks / CLK_TCK
    out["total"] = out["driver"] + out["jvm"] + out["python"]
    return out


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the peak resident set sizes (VmHWM) of ``pids``, in MB."""
    kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
        except OSError:
            continue
    return kb / 1024.0


def mem_total_kb() -> int:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    raise RuntimeError("MemTotal missing from /proc/meminfo")


def wait_gone(pids: list[int], timeout: float) -> list[int]:
    """Wait until every pid has exited (or is a zombie); SIGKILL what
    is left after ``timeout`` and return the pids that had to be killed."""
    deadline = time.monotonic() + timeout
    left = list(pids)
    while left and time.monotonic() < deadline:
        left = [p for p in left if (st := _stat(p)) is not None and st[2] != "Z"]
        if left:
            time.sleep(0.05)
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    return left
