"""What every workload shares: the outcome record and process-level readings."""

from __future__ import annotations

import os
import platform
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from spans import median

#: Operations per workload phase in ``--smoke`` mode (replaces the time limit).
SMOKE_OPS = 5
#: Set-ups timed per untraced run; ``setup_s`` is the fastest of them (a set-up
#: allocates ~400 MB, and host-side page-fault stalls double or triple one in
#: five at random, which a median of three does not survive).
SETUP_REPEATS = 3


class Budget:
    """Stop rule of a measured phase: a time limit, or an operation count in smoke mode."""

    def __init__(self, seconds: float, smoke: bool) -> None:
        self.smoke = smoke
        self.deadline = time.perf_counter() + float(seconds)

    def spent(self, operations_done: int) -> bool:
        if self.smoke:
            return operations_done >= SMOKE_OPS
        return time.perf_counter() >= self.deadline


def pin_to_one_cpu() -> None:
    """Pin this process to the last CPU it may run on (less migration noise)."""
    if hasattr(os, "sched_setaffinity"):
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[-1]})


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited between listing and reading
    return total_kb / 1024.0


def shm_entries() -> set:
    """Names under ``/dev/shm`` (diffed before/after to find leaked segments)."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def process_group_members(pgid: int) -> List[int]:
    """PIDs of every live process in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                # pid (comm) state ppid pgrp ...; comm may contain spaces.
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


class SpeedReference:
    """How fast the machine is while a run lasts, from a fixed NumPy kernel.

    The box this benchmark was defined on drifts: for minutes at a time every
    computation, this kernel included, takes 10–20 % longer (CPU time rises
    with wall time, so it is the host, not the scheduler).  Two sets of runs
    of one commit, twenty minutes apart, differed by 18 % in wall-clock.  A
    run therefore interleaves this kernel with its operations and reports
    its times multiplied by :meth:`speed` — the milliseconds the kernel took
    on a quiet machine when the benchmark was defined, over what it takes
    now — so a reading is in milliseconds of that machine, and moves with
    the program rather than with the neighbours.  The kernel streams a 2 MB
    array, the working-set size whose slowdowns tracked the pipeline's best.
    """

    NOMINAL_MS = 3.0

    def __init__(self) -> None:
        self._data = np.arange(1 << 18, dtype=np.float64)
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self, count: int = 1) -> float:
        """Time the kernel ``count`` times (thread CPU seconds); returns the time spent."""
        begin = time.perf_counter()
        for _ in range(count):
            start = time.thread_time()
            total = 0.0
            for _ in range(8):
                total += float((self._data * 1.0001 + 0.5).sum())
            self.samples.append(time.thread_time() - start)
        return time.perf_counter() - begin

    def start(self, interval: float = 0.1) -> None:
        """Sample from a background thread (the serving workloads' harness is idle)."""

        def loop() -> None:
            while not self._stop.wait(interval):
                self.sample()

        self.sample()
        self._stop.clear()
        self._thread = threading.Thread(target=loop, name="bench-speed-reference", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None

    def ms(self) -> float:
        """Median kernel time of the run, in milliseconds."""
        return median(self.samples) * 1e3

    def speed(self) -> float:
        """Relative machine speed during the run (1.0 = the definition machine, quiet)."""
        return self.NOMINAL_MS / self.ms()


@dataclass
class Outcome:
    """Result of one workload run, before it is checked against the catalogue."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Per-layer metrics whose public target no longer exists (printed as 0).
    absent: List[str] = field(default_factory=list)
    #: Machine speed during the run; every time printed is multiplied by it.
    reference: SpeedReference = field(default_factory=SpeedReference)

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; record ``what`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def fingerprint() -> Dict[str, object]:
    """Machine fingerprint stored beside every result set."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
