"""Server processes, connections and summary statistics for the benchmark.

Every server is a fresh ``python -m repro.netproto.server`` subprocess (or
the tracing launcher wrapped around the same ``main``) on a loopback port,
serving a freshly written image.  The harness owns each process it starts
and kills and reaps it on every exit path.
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
REOPEN = Path(__file__).resolve().parent / "reopen.py"

#: The tail is the highest percentile with at least this many samples
#: beyond it.
TAIL_BEYOND = 10
_LISTENING = re.compile(r"server listening on ([\d.]+):(\d+)")


# --------------------------------------------------------------------------- #
# summary statistics
# --------------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND
         ) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that still has at
    least ``beyond`` samples above it.

    With ``n`` sorted samples that is the sample at 0-based rank
    ``n - beyond - 1``, the ``100 * (n - beyond) / n``-th percentile.  With
    ``beyond`` samples or fewer no percentile qualifies; the maximum is
    returned with percentile 100 so the caller can flag it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n <= beyond:
        return float(ordered[-1]), 100.0
    rank = n - beyond - 1
    return float(ordered[rank]), 100.0 * (rank + 1) / n


# --------------------------------------------------------------------------- #
# server subprocesses
# --------------------------------------------------------------------------- #
#: CPUs the database processes may use; set by :func:`pin_generator`.
_database_cpus: set[int] | None = None


def pin_generator() -> None:
    """Give the load generator one CPU and the database processes the
    others, like a client and a server on separate hosts.

    Sharing CPUs, the generator's threads and the server's threads
    preempted and migrated across each other, and throughput on a 2-CPU
    machine swung by 20-40% from run to run.
    """
    global _database_cpus
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = os.sched_getaffinity(0)
    generator = min(cpus)
    _database_cpus = set(cpus) - {generator} or set(cpus)
    os.sched_setaffinity(0, {generator})


def spawn(command: list[str], **kwargs: Any) -> subprocess.Popen:
    """Start a database process (server or reopen) on the database CPUs."""
    process = subprocess.Popen(command, env=python_env(), cwd=str(ROOT),
                               stdin=subprocess.DEVNULL, **kwargs)
    if _database_cpus:
        try:
            os.sched_setaffinity(process.pid, _database_cpus)
        except OSError:         # it already exited; the caller will see
            pass
    return process


def python_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


class ServerProcess:
    """One server subprocess on a loopback port, logging to a file."""

    def __init__(self, db_path: Path, log_path: Path, *, workers: int,
                 spans_path: Path | None = None) -> None:
        server_args = ["--db", str(db_path), "--workers", str(workers),
                       "--host", "127.0.0.1", "--port", "0"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.netproto.server",
                       *server_args]
        else:
            command = [sys.executable, str(LAUNCHER), "--spans",
                       str(spans_path), "--", *server_args]
        self.spans_path = spans_path
        self.log_path = log_path
        self._log = open(log_path, "wb")
        try:
            self.process = spawn(command, stdout=self._log,
                                 stderr=subprocess.STDOUT)
        except BaseException:
            self._log.close()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_listening(self, timeout: float = 120.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_text(errors="replace"))
            if match:
                return int(match.group(2))
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}: "
                    + self.log_path.read_text(errors="replace")[-2000:])
            time.sleep(0.005)
        raise RuntimeError("server did not start listening in time")

    def peak_rss_mb(self) -> float:
        """High-water resident set size (``VmHWM``) of the server."""
        status = Path(f"/proc/{self.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
        if match is None:
            raise RuntimeError("VmHWM not reported by /proc")
        return int(match.group(1)) / 1024.0

    def dump_spans(self, timeout: float = 30.0) -> dict[str, Any]:
        """Ask the traced server to write its spans; return them."""
        import json

        assert self.spans_path is not None
        self.spans_path.unlink(missing_ok=True)
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not self.spans_path.exists():
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError("traced server did not write its spans")
            time.sleep(0.01)
        return json.loads(self.spans_path.read_text())

    def kill(self) -> None:
        """SIGKILL the server (the crash path) and reap it."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=60)
        self._log.close()


def reopen(spec_path: Path, timeout: float = 120.0) -> dict[str, Any]:
    """Run ``reopen.py`` on a spec file; returns its result object."""
    import json

    process = spawn([sys.executable, str(REOPEN), str(spec_path)],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = process.communicate(timeout=timeout)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"reopen failed: {err.decode(errors='replace')}")
    return json.loads(out.decode().splitlines()[-1])


def connect(port: int) -> Any:
    """A TCP client connection with client-side retries disabled, so a
    refused or failed statement is counted instead of silently retried."""
    from repro.netproto.client import Connection, ConnectionInfo, RetryPolicy

    return Connection.connect_tcp(
        ConnectionInfo(host="127.0.0.1", port=port),
        timeout=120.0, retry_policy=RetryPolicy(max_attempts=1))


def timed_fetch(connection: Any, sql: str, *, fetch_rows: int = 8192,
                options: Any = None) -> tuple[list[tuple], float, float]:
    """Run one statement to completion; returns ``(rows, first_row_s,
    total_s)`` measured from sending the statement.  ``first_row_s`` is the
    time until the first decoded row (the total when there are no rows)."""
    started = time.perf_counter()
    stream = connection.execute_stream(sql, options=options)
    rows: list[tuple] = []
    first = None
    while True:
        batch = stream.fetchmany(fetch_rows)
        if not batch:
            break
        if first is None:
            first = time.perf_counter()
        rows.extend(batch)
    finished = time.perf_counter()
    return rows, (first or finished) - started, finished - started


def environment() -> dict[str, Any]:
    """What a run was measured on; runs on different ``cpu_count`` are
    not compared."""
    import platform

    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), check=True,
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha}
