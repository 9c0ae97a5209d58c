"""Processes under test: launch, readiness, /proc readings, shutdown."""

from __future__ import annotations

import ctypes
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_TICK = os.sysconf("SC_CLK_TCK")
_PR_SET_PDEATHSIG = 1
_libc = ctypes.CDLL(None, use_errno=True)


def die_with_parent() -> None:
    """``preexec_fn``: the child gets SIGTERM if the benchmark dies."""
    _libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


def env() -> dict:
    e = dict(os.environ)
    e["PYTHONPATH"] = str(ROOT / "src")
    e.pop("REPRO_TRACE", None)
    e.pop("REPRO_METRICS", None)
    return e


def _healthz(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=1) as s:
            s.sendall(b"GET /healthz HTTP/1.1\r\nhost: bench\r\n"
                      b"connection: close\r\n\r\n")
            return s.recv(64).startswith(b"HTTP/1.1 200")
    except OSError:
        return False


class Server:
    """One server process; ``setup_s`` runs from spawn to a 200 /healthz."""

    def __init__(self, argv: list[str]) -> None:
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env(), stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True,
            preexec_fn=die_with_parent)
        line = self.proc.stdout.readline()
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        deadline = t0 + 60
        while not _healthz(self.port):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)
        self.setup_s = time.monotonic() - t0
        self.pid = self.proc.pid

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode


def serve_cli() -> list[str]:
    """The server exactly as users launch it, on its CLI defaults."""
    return [sys.executable, "-m", "repro", "serve", "--port", "0"]


def cpu_s(pid: int) -> float:
    """utime + stime of one process (all its threads) and of the
    children it has waited for, in seconds."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return sum(int(f) for f in fields[11:15]) / _TICK


def tree_cpu_s(pid: int) -> float:
    """CPU seconds used by ``pid`` and its descendants, live or reaped:
    a pool worker's time stays counted after it exits.  Read it while no
    process of the tree is exiting."""
    return sum(cpu_s(p) for p in [pid] + descendants(pid))


def _status_kb(pid: int, key: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(key):
                return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except FileNotFoundError:
            continue
        for tid in tasks:
            try:
                kids = Path(f"/proc/{p}/task/{tid}/children").read_text()
            except FileNotFoundError:
                continue
            for k in kids.split():
                out.append(int(k))
                todo.append(int(k))
    return out


def tree_rss_mb(pid: int) -> float:
    """Current RSS of ``pid`` plus all its descendants, MiB."""
    return sum(_status_kb(p, "VmRSS:")
               for p in [pid] + descendants(pid)) / 1024.0


def hwm_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of one process, MiB."""
    return _status_kb(pid, "VmHWM:") / 1024.0


class RssSampler:
    """Samples the tree RSS of ``pid`` every 20 ms; keeps the peak."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(0.02):
            self.peak_mb = max(self.peak_mb, tree_rss_mb(self.pid),
                               hwm_mb(self.pid))

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return self.peak_mb
