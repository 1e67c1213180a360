"""Spawning the program: own process group, timeout, peak RSS, leak guard.

Every program the benchmark starts leads its own process group, so a
timeout (or any exit) can kill the whole group, pool workers
included.  Exit is awaited through a pidfd, so the recorded end time is
when the kernel reported the exit, not when a poll loop woke up.
``os.wait4`` returns the leader's resource usage, whose ``ru_maxrss``
covers the leader and every descendant it reaped (its pool workers).
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: /dev/shm segment prefixes of the program: ``drh*`` result segments
#: and ``psm_*`` (the stdlib default name the shared arena's segment gets).
SHM_DIR = "/dev/shm"
ARENA_DIR_PREFIX = "deeprh-arena-"


@dataclass
class Exit:
    """How one spawned program ended."""

    argv: List[str]
    pid: int
    start_ns: int
    end_ns: int
    returncode: int
    timed_out: bool
    maxrss_mb: float

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Program:
    """One running program in its own process group."""

    def __init__(self, argv: Sequence[str], *, cwd: str,
                 env: Dict[str, str], log_path: str) -> None:
        self.argv = list(argv)
        with open(log_path, "ab") as log:
            self.start_ns = time.monotonic_ns()
            self._proc = subprocess.Popen(
                self.argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
        self.pid = self._proc.pid
        self._pidfd = os.pidfd_open(self.pid)
        self.exit: Optional[Exit] = None

    def exited(self) -> bool:
        """True once the program has ended (it is not reaped until waited)."""
        if self.exit is not None:
            return True
        ready, _, _ = select.select([self._pidfd], [], [], 0)
        return bool(ready)

    def signal(self, signum: int) -> None:
        if self.exit is None:
            try:
                os.kill(self.pid, signum)
            except ProcessLookupError:
                pass

    def wait(self, timeout_s: float) -> Exit:
        """Wait for exit; past ``timeout_s`` kill the group and mark it."""
        if self.exit is not None:
            return self.exit
        try:
            ready, _, _ = select.select([self._pidfd], [], [],
                                        max(0.0, timeout_s))
        except BaseException:
            # Interrupted (the benchmark itself is being stopped): take the
            # program down with it, then let the interruption propagate.
            _kill_group(self.pid)
            os.wait4(self.pid, 0)
            _reap_group(self.pid)
            raise
        timed_out = not ready
        if timed_out:
            _kill_group(self.pid)
        _, status, usage = os.wait4(self.pid, 0)
        end_ns = time.monotonic_ns()
        os.close(self._pidfd)
        self._proc.returncode = os.waitstatus_to_exitcode(status)
        _reap_group(self.pid)
        self.exit = Exit(self.argv, self.pid, self.start_ns, end_ns,
                         self._proc.returncode, timed_out,
                         usage.ru_maxrss / 1024.0)
        return self.exit

    def stop(self, grace_s: float) -> Exit:
        """SIGTERM (the program drains), then the group is killed."""
        self.signal(signal.SIGTERM)
        return self.wait(grace_s)


def run(argv: Sequence[str], *, cwd: str, env: Dict[str, str],
        log_path: str, timeout_s: float) -> Exit:
    """Run one program to completion (or to its timeout)."""
    return Program(argv, cwd=cwd, env=env, log_path=log_path).wait(timeout_s)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int, bound_s: float = 10.0) -> None:
    """Kill what is left of the group and wait until it is gone.

    Orphaned members are reparented away from us, so "gone" is observed
    as ``killpg(pgid, 0)`` failing.
    """
    _kill_group(pgid)
    deadline = time.monotonic() + bound_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# ----------------------------------------------------------------------
# Leak guard
# ----------------------------------------------------------------------
def _shm_entries() -> set:
    try:
        names = os.listdir(SHM_DIR)
    except FileNotFoundError:
        return set()
    return {n for n in names if n.startswith(("drh", "psm_"))}


def _arena_dirs(tmpdir: str) -> List[str]:
    if not os.path.isdir(tmpdir):
        return []
    return [os.path.join(tmpdir, n) for n in os.listdir(tmpdir)
            if n.startswith(ARENA_DIR_PREFIX)]


class LeakGuard:
    """Counts and removes leaked shm segments and arena dirs around a run.

    Before a run, leftover ``drh*`` segments and arena dirs (from a run
    that was killed) are removed and counted.  After it, every segment or
    arena dir that appeared during the run and is still there is a leak:
    counted and removed, so one run cannot fill tmpfs for the next.
    Pre-existing ``psm_*`` segments are never touched: that stdlib
    default name is not the program's alone.
    """

    def __init__(self, tmpdir: str) -> None:
        self.tmpdir = tmpdir
        self.leaked = 0
        self._before: set = set()

    def before(self) -> None:
        entries = _shm_entries()
        stale = {n for n in entries if n.startswith("drh")}
        self.leaked += self._remove(stale) + self._remove_dirs()
        self._before = entries - stale

    def after(self) -> None:
        fresh = _shm_entries() - self._before
        self.leaked += self._remove(fresh) + self._remove_dirs()

    @staticmethod
    def _remove(names) -> int:
        removed = 0
        for name in names:
            try:
                os.unlink(os.path.join(SHM_DIR, name))
                removed += 1
            except FileNotFoundError:
                pass
        return removed

    def _remove_dirs(self) -> int:
        dirs = _arena_dirs(self.tmpdir)
        for path in dirs:
            shutil.rmtree(path, ignore_errors=True)
        return len(dirs)
