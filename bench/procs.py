"""Child interpreters that cannot outlive the benchmark.

Every pass runs in its own session (``start_new_session=True``), so the pass,
its ``ProcessCluster`` workers and their helper processes share one process
group that is killed as a whole on timeout, error, SIGINT and SIGTERM.
:func:`leaked` scans ``/proc`` for anything that survived anyway.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time


def exit_on_signals() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks kill the children.

    (SIGINT already raises ``KeyboardInterrupt``.)
    """

    def handler(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass  # nothing left in the group


def _stat_fields(pid: str) -> tuple[int, int, str] | None:
    """``(ppid, pgrp, state)`` of a live process, else ``None``."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return None
    # The command name is parenthesised and may itself hold spaces.
    fields = stat[stat.rindex(")") + 2 :].split()
    return int(fields[1]), int(fields[2]), fields[0]


def _live_processes() -> dict[int, tuple[int, int, str]]:
    """pid -> ``(ppid, pgrp, state)`` of every process that is not a zombie."""
    table = {}
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            fields = _stat_fields(pid)
            if fields is not None and fields[2] not in ("Z", "X"):
                table[int(pid)] = fields
    return table


def _wait_group_gone(pgid: int, timeout: float = 5.0) -> None:
    """Wait until no live process is left in group ``pgid`` (SIGKILL is not
    synchronous, and grandchildren are reaped by init, not by us)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(pgrp == pgid for _, pgrp, _ in _live_processes().values()):
            return
        time.sleep(0.02)


class Children:
    """The child interpreters one benchmark command starts."""

    def __init__(self) -> None:
        self._groups: set[int] = set()  # every process group started here

    def run(self, argv: list[str], cwd: str, timeout: float) -> tuple[int, str]:
        """Run ``argv`` to completion; returns ``(exit code, stdout)``.

        stderr passes through.  Whatever happens, the child's whole process
        group is dead and reaped when this returns or raises.
        """
        proc = subprocess.Popen(
            argv, cwd=cwd, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        self._groups.add(proc.pid)
        try:
            out, _ = proc.communicate(timeout=timeout)
            return proc.returncode, out
        finally:
            _kill_group(proc.pid)
            proc.wait()
            _wait_group_gone(proc.pid)
            if proc.stdout is not None:
                proc.stdout.close()

    def leaked(self) -> list[int]:
        """Pids still alive that descend from this process or sit in one of
        the process groups it started (an orphan is re-parented, its group is
        not)."""
        me = os.getpid()
        table = _live_processes()
        out = []
        for pid, (ppid, pgrp, _) in table.items():
            if pid == me:
                continue
            ancestor = ppid
            while ancestor not in (0, 1, me) and ancestor in table:
                ancestor = table[ancestor][0]
            if ancestor == me or pgrp in self._groups:
                out.append(pid)
        return sorted(out)

    def report_leaks(self) -> int:
        """Print ``leaked_processes N``; kill and name any survivor."""
        pids = self.leaked()
        print(f"leaked_processes {len(pids)}", file=sys.stderr)
        for pid in pids:
            print(f"bench: killing leaked process {pid}", file=sys.stderr)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return len(pids)
