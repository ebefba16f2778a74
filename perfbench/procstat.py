"""CPU and memory accounting for the benchmark's process tree, read from /proc.

The tree is this process and every descendant: the Ray session started by
``ray.init(address="local")`` (gcs, raylet, agents and workers) hangs off
the driver. A process's CPU is ``utime + stime``; a process is keyed by
pid and start time so a reused pid is never mistaken for the old one.
Workers and actors may exit mid-pass, and the raylet does not collect
their CPU, so ``CpuSampler`` polls the tree during a pass and keeps the
last CPU reading of every process that disappears.
"""

import os
import signal
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int):
    """(ppid, starttime, cpu ticks) of ``pid``, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            data = f.read()
    except OSError:
        return None
    # the command name is parenthesised and may contain spaces
    fields = data[data.rindex(b")") + 2 :].split()
    return int(fields[1]), int(fields[19]), int(fields[11]) + int(fields[12])


def tree() -> dict[tuple[int, int], int]:
    """{(pid, starttime): cpu ticks} for this process and its descendants."""
    stats = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                stats[int(name)] = st
    me = os.getpid()
    children: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in stats.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = {}, [me]
    while todo:
        pid = todo.pop()
        if pid in stats:
            _, start, cpu = stats[pid]
            out[(pid, start)] = cpu
        todo.extend(children.get(pid, ()))
    return out


class CpuSampler:
    """Polls ``tree()`` every ``interval_s`` on a thread between
    ``start()`` and ``stop()``. A process that exits mid-pass loses at
    most one interval of CPU."""

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> dict:
        self.before = tree()
        self.last = dict(self.before)
        self._thread.start()
        return self.before

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.last.update(tree())

    def stop(self) -> tuple[float, int, dict]:
        """(CPU seconds used since ``start``, processes that exited, the
        final snapshot)."""
        self._stop.set()
        self._thread.join()
        after = tree()
        self.last.update(after)
        ticks = sum(self.last.values()) - sum(self.before.values())
        exited = sum(1 for key in self.last if key not in after)
        return ticks / _TICK, exited, after


def steal_s() -> float:
    """CPU steal seconds so far (``/proc/stat``), summed over the CPUs this
    process may run on: time those virtual CPUs were ready to run while
    the host ran something else."""
    cpus = {f"cpu{i}" for i in os.sched_getaffinity(0)}
    ticks = 0
    with open("/proc/stat") as f:
        for line in f:
            fields = line.split()
            if fields and fields[0] in cpus and len(fields) > 8:
                ticks += int(fields[8])
    return ticks / _TICK


def unstolen(wall_s: float, cpu_s: float, steal_s: float) -> float:
    """Wall time scaled by the share of the CPUs' runnable time that was
    not stolen. A virtual CPU accrues steal only while it has work to run,
    so the tree's CPUs wanted ``cpu_s + steal_s`` seconds and ran
    ``cpu_s``; work on the critical path was slowed by the same share.
    Equals ``wall_s`` when nothing was stolen."""
    total = cpu_s + steal_s
    return wall_s * cpu_s / total if total > 0 else wall_s


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peaks(procs) -> None:
    """Reset VmHWM of each process to its current RSS (clear_refs 5)."""
    for pid, _ in procs:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_mb(procs) -> float:
    """Sum of VmHWM over the processes: an upper bound on their joint peak."""
    return sum(_status_kb(pid, "VmHWM:") for pid, _ in procs) / 1024.0


def _live_descendants() -> list[int]:
    """Descendants still running; exited children are reaped first."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            break
    me = os.getpid()
    return [pid for pid, _ in tree() if pid != me]


def stop_descendants(timeout_s: float = 20.0) -> int:
    """Wait for every descendant to exit, killing stragglers at the end.
    Returns how many had to be killed."""
    deadline = time.monotonic() + timeout_s
    while True:
        left = _live_descendants()
        if not left:
            return 0
        if time.monotonic() >= deadline:
            break
        time.sleep(0.2)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    for _ in range(50):
        if not _live_descendants():
            break
        time.sleep(0.1)
    return len(left)
