"""The ``repro serve`` process group: spawn, banner, stop, /proc readings.

Every server runs in its own session, so the front-end and any workers
it spawns share one process group.  :meth:`Server.stop` interrupts the
server (its own Ctrl-C path closes the pool), waits for every process
of the group, escalates to SIGTERM and SIGKILL on the group if needed,
and fails the run when any of them is still alive afterwards.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Union

from common import BenchError, child_env

_BANNER = re.compile(r"serving on http://([0-9.]+):(\d+)")
_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """utime + stime of a live process, in seconds (0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stream:
            fields = stream.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _group_members(pgid: int) -> list:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stream:
                fields = stream.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


class Server:
    """One server process (and its workers), started from ``argv``."""

    def __init__(self, argv: list, workdir: Path, name: str = "server"):
        self.argv = [sys.executable] + list(argv)
        self.workdir = workdir
        self.log = workdir / f"{name}.log"
        self.proc: Union[subprocess.Popen, None] = None
        self.port: Union[int, None] = None

    def start(self, timeout: float = 60.0) -> int:
        """Spawn and wait for the banner; returns the bound port."""
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                self.argv, cwd=self.workdir, env=child_env(),
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=log, start_new_session=True)
        deadline = time.monotonic() + timeout
        stdout = self.proc.stdout
        buffered = b""
        while self.port is None:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise BenchError(f"server gave no banner: {self.tail()}")
            ready, _, _ = select.select([stdout], [], [], min(left, 0.5))
            if not ready:
                continue
            chunk = os.read(stdout.fileno(), 4096)
            if not chunk:
                continue
            buffered += chunk
            match = _BANNER.search(buffered.decode("utf-8", "replace"))
            if match:
                self.port = int(match.group(2))
        threading.Thread(target=self._drain, daemon=True).start()
        return self.port

    def _drain(self) -> None:
        try:
            while self.proc.stdout.read(4096):
                pass
        except (OSError, ValueError):
            pass

    def tail(self) -> str:
        try:
            return self.log.read_text(errors="replace")[-800:]
        except OSError:
            return ""

    def stop(self, timeout: float = 20.0) -> None:
        """Stop the group on any exit path; raise if anything survives."""
        proc = self.proc
        if proc is None:
            return
        pgid = proc.pid
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self._signal_group(pgid, signal.SIGTERM)
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    self._signal_group(pgid, signal.SIGKILL)
                    proc.wait(timeout=5.0)
        # Workers exit on their own once the front-end is gone (they
        # watch their parent); wait for the whole group, then force it.
        deadline = time.monotonic() + 10.0
        while _group_members(pgid):
            if time.monotonic() > deadline:
                self._signal_group(pgid, signal.SIGKILL)
                time.sleep(0.5)
                alive = _group_members(pgid)
                if alive:
                    raise BenchError(f"processes outlived the run: {alive}")
                break
            time.sleep(0.05)
        if proc.stdout is not None:
            proc.stdout.close()
        self.proc = None

    @staticmethod
    def _signal_group(pgid: int, sig: int) -> None:
        try:
            os.killpg(pgid, sig)
        except (ProcessLookupError, PermissionError):
            pass
