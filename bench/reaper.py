"""Run a workload in a child process and outlive everything it started.

A workload starts processes the harness does not hold a handle on: the
server's pool workers and manager, and ``multiprocessing``'s resource tracker,
which ends only *after* the process that used shared memory has exited.  Left
to ``init`` they linger, sometimes as zombies, past the end of a run.

:func:`supervise` therefore makes the calling process a *child subreaper*
(``prctl(PR_SET_CHILD_SUBREAPER)``): every orphaned descendant is re-parented
to it instead of to ``init``.  It runs the workload in one child, and when
that child has ended — however it ended — gives the orphans a moment to end
on their own, kills what is left, and waits for every one of them.  It
returns only when it has no descendant left.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Sequence

PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36
#: Seconds a terminated workload gets to run its ``finally`` blocks (the
#: server's SIGINT + shutdown grace fit inside).
TERMINATE_GRACE = 20.0
#: Seconds orphans get to end by themselves before they are killed.
ORPHAN_GRACE = 3.0


def _prctl(option: int, value: int) -> bool:
    try:
        return ctypes.CDLL(None, use_errno=True).prctl(option, value, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False  # not Linux: orphans go to init, as they did before


def _die_with_parent() -> None:
    """In the child: be terminated (``finally`` blocks run) if the supervisor dies."""
    _prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def descendants(root: int) -> List[int]:
    """PIDs of every live or zombie process below ``root`` in the process tree."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii", errors="replace") as handle:
                # pid (comm) state ppid ...; comm may contain spaces.
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # exited between listing and reading
        children.setdefault(ppid, []).append(int(entry))
    found: List[int] = []
    frontier = [root]
    while frontier:
        frontier = [child for parent in frontier for child in children.get(parent, [])]
        found.extend(frontier)
    return found


def _reap() -> None:
    """Collect every child that has ended, without blocking."""
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                return
        except ChildProcessError:
            return


def reap_descendants(grace: float = ORPHAN_GRACE, limit: float = 30.0) -> List[int]:
    """Wait until this process has no descendant; returns the PIDs it had to kill."""
    killed: List[int] = []
    begin = time.monotonic()
    while True:
        _reap()
        left = descendants(os.getpid())
        waited = time.monotonic() - begin
        if not left or waited > limit:
            return killed
        if waited > grace:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def supervise(command: Sequence[str]) -> int:
    """Run ``command`` with this process's streams; return its exit code.

    On return every process the command started, directly or not, has ended
    and has been waited for.
    """
    _prctl(PR_SET_CHILD_SUBREAPER, 1)
    child = subprocess.Popen(list(command), stdin=subprocess.DEVNULL, preexec_fn=_die_with_parent)
    try:
        code = child.wait()
    except BaseException:  # SIGTERM (raised as SystemExit by run.py) or Ctrl-C
        child.terminate()
        try:
            child.wait(timeout=TERMINATE_GRACE)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        reap_descendants(grace=0.0)
        raise
    killed = reap_descendants()
    if killed:
        print(f"bench: killed {len(set(killed))} process(es) the workload left behind", file=sys.stderr)
    return code if code >= 0 else 128 - code
