"""Every process a benchmark run starts ends before the run does.

Some processes outlive the code that started them: the
``multiprocessing`` resource tracker (started by the spawn pools of the
oracle checks and by ``run_trials``'s shared-memory merges) lives until
its owner exits, the pool of ``run_trials`` is shut down without
waiting, and a stopped service's workers and resource tracker are
orphaned when it exits.  The benchmark process therefore becomes a child
subreaper, so orphaned descendants are re-parented to it, and
:func:`stop_all` waits for every one of them before the run ends.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
import time
from multiprocessing import resource_tracker
from typing import Iterable, List

#: ``prctl`` option of Linux: orphaned descendants re-parent to the caller.
PR_SET_CHILD_SUBREAPER = 36
#: Longest wait for descendants to exit on their own before they are killed.
EXIT_TIMEOUT_S = 30.0


def become_subreaper() -> None:
    """Adopt this process's orphaned descendants (Linux; a no-op elsewhere)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def children_of(pid: int) -> List[int]:
    """The live child processes of *pid*, from ``/proc`` (empty if unknown)."""
    children = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return children
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                children += [int(child) for child in handle.read().split()]
        except OSError:
            continue
    return children


def wait_pids(pids: Iterable[int], timeout: float = EXIT_TIMEOUT_S) -> None:
    """Wait for adopted processes *pids* to exit; kill them at *timeout*.

    A pid that is not (or no longer) a child of this process was reaped
    by its own parent and is skipped.
    """
    pending = set(pids)
    deadline = time.monotonic() + timeout
    while pending:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                pending.discard(pid)
        if pending and time.monotonic() > deadline:
            _kill(pending)
            deadline = float("inf")
        if pending:
            time.sleep(0.002)


def stop_all(timeout: float = EXIT_TIMEOUT_S) -> None:
    """Stop every process this run started and wait until each has ended."""
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
    # The tracker exits when its pipe closes; this closes it and waits.
    resource_tracker._resource_tracker._stop()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid:
            continue
        if time.monotonic() > deadline:
            _kill(children_of(os.getpid()))
            deadline = float("inf")
        time.sleep(0.002)


def _kill(pids: Iterable[int]) -> None:
    for pid in pids:
        print(f"e2ebench: killing process {pid}, still running at the end", file=sys.stderr)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
