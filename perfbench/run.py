"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload olap --seed 1 --seconds 10 --trace 0

Workloads: ``olap``, ``export``, ``ingest`` and ``udf_debug`` (see
``perfbench/README.md``).  Each run builds its inputs from ``--seed``,
starts a fresh server subprocess on fresh files, warms it up untimed,
drives it closed-loop over loopback TCP for ``--seconds``, kills it and
reopens what it left on disk, and checks every answer it timed.

With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics.  With ``--trace 1`` the run measures the workload twice, untraced
then traced (server started through ``perfbench/launcher.py``), and the
metrics are the per-layer ones plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import signal
import sys
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import harness as H  # noqa: E402
from perfbench import tracing as T  # noqa: E402
from perfbench import workloads as W  # noqa: E402

RUNS = ROOT / ".perfbench"
#: Runs are killed by an alarm well inside the 180 s a run may take.
RUN_LIMIT_S = 170

E2E_UNITS = {
    "setup_s": "s", "lat_p50_ms": "ms", "lat_tail_ms": "ms",
    "ops_per_s": "1/s", "rows_per_s": "rows/s", "first_row_ms": "ms",
    "read_p50_ms": "ms", "open_first_query_s": "s",
    "stored_bytes_per_row": "B/row", "wire_bytes_per_row": "B/row",
    "server_peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "parser.ms_per_stmt": "ms", "parser.share_of_server": "ratio",
    "cache.plan_hit_ratio": "ratio", "cache.result_hit_ratio": "ratio",
    "planner.ms_per_stmt": "ms", "executor.ms_per_stmt": "ms",
    "executor.morsels_per_stmt": "count", "storage.materialise_ms": "ms",
    "storage.materialise_calls": "count", "storage.append_us_per_row": "us",
    "wal.append_ms_per_stmt": "ms", "wal.fsyncs": "count",
    "wal.bytes_per_row": "B/row", "checkpoint.ms": "ms",
    "checkpoint.count": "count", "open.load_ms": "ms",
    "open.replay_ms": "ms", "udf.calls": "count", "udf.ms_per_call": "ms",
    "server.admission_wait_ms": "ms", "server.self_ms_per_stmt": "ms",
    "server.encode_ms_per_stmt": "ms", "server.encode_bytes": "B",
    "client.decode_ms_per_stmt": "ms", "client.wait_first_frame_ms": "ms",
    "compression.ms_per_cycle": "ms", "compression.ratio": "ratio",
    "core.extract_ms": "ms", "core.blob_write_ms": "ms",
    "core.blob_bytes": "B", "core.local_run_ms": "ms",
    "core.export_ms": "ms", "core.catalog_ms": "ms",
    "crosscheck.parse_ratio": "ratio", "crosscheck.execute_ratio": "ratio",
    "crosscheck.wal_ratio": "ratio", "trace.overhead_ms": "ms",
}


@dataclass
class Measurement:
    """What one closed-loop measured phase observed."""

    latencies: list[float] = field(default_factory=list)
    first_rows: list[float] = field(default_factory=list)
    reads: list[float] = field(default_factory=list)
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    rows: int = 0
    rows_acked: int = 0
    check_s: float = 0.0
    wall_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def merge(self, other: "Measurement") -> None:
        self.latencies += other.latencies
        self.first_rows += other.first_rows
        self.reads += other.reads
        for name in ("ops", "attempted", "failed", "rows", "rows_acked"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.check_s += other.check_s
        self.errors += other.errors[:5 - len(self.errors)]


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
class Workload:
    """One traffic mix; subclasses fill in image, warm-up and loop."""

    clients = 1
    #: Reopens per session (each in a fresh process).
    reopen_reps = 1

    def __init__(self, seed: int, sizes: Any) -> None:
        self.seed = seed
        self.sizes = sizes
        self.connections: list[Any] = []

    # -- set-up ---------------------------------------------------------- #
    def generate(self) -> None:
        self.data = W.big_data(self.seed, self.sizes)

    def build_image(self, path: Path) -> None:
        W.build_big_image(path, self.data)

    @property
    def stored_rows(self) -> int:
        return self.data.rows

    def answer_check(self, connection: Any) -> None:
        """The query that proves the new server answers with its data."""
        count = connection.execute("SELECT COUNT(*) FROM big").scalar()
        if count != len(self.data.k):
            raise RuntimeError(f"server answered {count} rows in big")

    # -- phases ---------------------------------------------------------- #
    def attach(self, port: int, run_dir: Path) -> None:
        """Called once the measured server is up and connected."""

    def warm(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def verify(self, measurement: Measurement) -> None:
        """Checks deferred until after the timed phase."""

    def before_kill(self, measurement: Measurement) -> None:
        """Untimed work between the measured phase and the kill."""

    # -- reopen after the kill ------------------------------------------- #
    def reopen_spec(self) -> tuple[str, list, list, str | None]:
        """``(first query, its expected rows, [sql, rows] checks,
        function that must survive)`` for the reopened files."""
        return (W.INGEST_READ_SQL, W.IngestExpectation(self.data).grouped(),
                [], None)


def _run_loop(deadline: float, body: Any, out: Measurement) -> None:
    while time.perf_counter() < deadline:
        body(out)


class Olap(Workload):
    """Two closed-loop clients, small results, a skewed finite pool."""

    def __init__(self, seed: int, sizes: Any) -> None:
        super().__init__(seed, sizes)
        self.clients = max(1, min(2, os.cpu_count() or 1))
        self.pool = W.olap_pool(seed, sizes)
        self.checks: list[tuple[Any, list[tuple]]] = []

    def warm(self) -> None:
        warm_stream = W.olap_stream(self.seed, 99, self.pool, self.sizes)
        statements = [statement for hot in self.pool.hot.values()
                      for statement in hot]
        statements += [next(warm_stream)[0] for _ in range(10)]
        for statement in statements:
            H.timed_fetch(self.connections[0], statement.sql,
                          fetch_rows=1024)

    def measure(self, seconds: float) -> Measurement:
        outs = [Measurement() for _ in range(self.clients)]
        barrier = threading.Barrier(self.clients + 1)
        started = time.perf_counter()
        deadline = started + seconds

        def client(index: int) -> None:
            stream = W.olap_stream(self.seed, index, self.pool, self.sizes)
            connection = self.connections[index]
            out = outs[index]
            checks: list[tuple[Any, list[tuple]]] = []

            def op(out: Measurement) -> None:
                statement, check = next(stream)
                out.attempted += 1
                try:
                    rows, first, total = H.timed_fetch(
                        connection, statement.sql, fetch_rows=1024)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    out.fail(f"{statement.sql}: {exc!r}")
                    return
                out.ops += 1
                out.rows += len(rows)
                out.latencies.append(total)
                out.first_rows.append(first)
                out.reads.append(total)
                if check:
                    checks.append((statement, rows))

            barrier.wait()
            _run_loop(deadline, op, out)
            self.checks += checks

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(self.clients)]
        for thread in threads:
            thread.start()
        barrier.wait()
        for thread in threads:
            thread.join()
        total = Measurement()
        for out in outs:
            total.merge(out)
        total.wall_s = time.perf_counter() - started
        return total

    def verify(self, measurement: Measurement) -> None:
        checks, self.checks = self.checks, []
        references: dict[str, list[tuple]] = {}
        for statement, rows in checks:
            if statement.sql not in references:
                references[statement.sql] = W.olap_reference(statement,
                                                             self.data)
            if not W.rows_match(rows, references[statement.sql]):
                measurement.fail(f"wrong answer: {statement.sql}")


class Export(Workload):
    """One client fetching distinct 20k-100k-row results, row by row."""

    def __init__(self, seed: int, sizes: Any) -> None:
        super().__init__(seed, sizes)
        self.stream = W.export_stream(seed, sizes)

    def _fetch(self, out: Measurement) -> None:
        statement = next(self.stream)
        out.attempted += 1
        try:
            rows, first, total = H.timed_fetch(self.connections[0],
                                               statement.sql,
                                               fetch_rows=1024)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            out.fail(f"{statement.sql}: {exc!r}")
            return
        checked = time.perf_counter()
        if not W.checksums_match(W.export_checksum(rows),
                                 W.export_reference(statement, self.data)):
            out.fail(f"wrong checksum: {statement.sql}")
        out.check_s += time.perf_counter() - checked
        out.ops += 1
        out.rows += len(rows)
        out.latencies.append(total)
        out.first_rows.append(first)
        out.reads.append(total)

    def warm(self) -> None:
        out = Measurement()
        for _ in range(2):
            self._fetch(out)
        if out.failed:
            raise RuntimeError(f"warm-up failed: {out.errors}")

    def measure(self, seconds: float) -> Measurement:
        out = Measurement()
        started = time.perf_counter()
        _run_loop(started + seconds, self._fetch, out)
        out.wall_s = time.perf_counter() - started
        return out


class Ingest(Workload):
    """500-row INSERT batches, a read every 20, a CHECKPOINT every 20k
    rows; the measured phase ends on a checkpoint boundary."""

    def generate(self) -> None:
        super().generate()
        self.batches = W.ingest_batches(self.seed, self.sizes)
        self.expect = W.IngestExpectation(self.data)

    @property
    def stored_rows(self) -> int:
        return self.data.rows + self.expect.acked_rows

    def _insert(self, out: Measurement) -> None:
        batch = next(self.batches)
        out.attempted += 1
        started = time.perf_counter()
        try:
            result = self.connections[0].execute(batch.sql)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            out.fail(f"INSERT batch {batch.index}: {exc!r}")
            return
        elapsed = time.perf_counter() - started
        if result.affected_rows != len(batch.name):
            out.fail(f"INSERT batch {batch.index} acknowledged "
                     f"{result.affected_rows} rows")
            return
        self.expect.ack(batch)
        out.ops += 1
        out.rows_acked += len(batch.name)
        out.latencies.append(elapsed)

    def _read(self, out: Measurement) -> None:
        out.attempted += 1
        try:
            rows, first, total = H.timed_fetch(self.connections[0],
                                               W.INGEST_READ_SQL)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            out.fail(f"read: {exc!r}")
            return
        checked = time.perf_counter()
        if not W.rows_match(rows, self.expect.grouped()):
            out.fail("read after writes missed acknowledged rows")
        out.check_s += time.perf_counter() - checked
        out.rows += len(rows)
        out.reads.append(total)
        out.first_rows.append(first)

    def _checkpoint(self, out: Measurement) -> None:
        out.attempted += 1
        try:
            self.connections[0].execute("CHECKPOINT")
        except Exception as exc:  # noqa: BLE001 - counted, reported
            out.fail(f"CHECKPOINT: {exc!r}")

    def _round(self, out: Measurement) -> None:
        per_round = max(1, self.sizes.ingest_checkpoint_rows
                        // self.sizes.ingest_batch)
        for index in range(1, per_round + 1):
            self._insert(out)
            if index % self.sizes.ingest_read_every == 0:
                self._read(out)
        self._checkpoint(out)

    def warm(self) -> None:
        out = Measurement()
        self._insert(out)
        self._read(out)
        if out.failed:
            raise RuntimeError(f"warm-up failed: {out.errors}")

    def measure(self, seconds: float) -> Measurement:
        out = Measurement()
        started = time.perf_counter()
        _run_loop(started + seconds, self._round, out)
        out.wall_s = time.perf_counter() - started
        return out

    def before_kill(self, measurement: Measurement) -> None:
        """Leave a fixed amount of acknowledged, not yet checkpointed rows
        in the WAL for the reopen to replay."""
        for _ in range(self.sizes.ingest_tail_batches):
            self._insert(measurement)

    def reopen_spec(self) -> tuple[str, list, list, str | None]:
        count, total = self.expect.key_summary()
        return (W.INGEST_READ_SQL, self.expect.grouped(),
                [[W.INGEST_KEY_SQL, [(count, total if count else None)]]],
                None)


class UdfDebug(Workload):
    """The paper's loop through DevUDFPlugin: debug query, extract and
    write input.bin, run locally, export the other body."""

    #: A 100k-row reopen takes ~0.1 s, so process noise needs more samples.
    reopen_reps = 3

    def generate(self) -> None:
        self.values = W.numbers_data(self.seed, self.sizes)
        self.fixed = False

    def build_image(self, path: Path) -> None:
        W.build_numbers_image(path, self.values)

    @property
    def stored_rows(self) -> int:
        return len(self.values)

    def answer_check(self, connection: Any) -> None:
        count = connection.execute("SELECT COUNT(*) FROM numbers").scalar()
        if count != len(self.values):
            raise RuntimeError(f"server answered {count} rows in numbers")

    def attach(self, port: int, run_dir: Path) -> None:
        from repro.core import DevUDFPlugin, DevUDFProject, DevUDFSettings

        settings = DevUDFSettings(host="127.0.0.1", port=port,
                                  debug_query=W.UDF_DEBUG_QUERY)
        settings.transfer.use_compression = True
        settings.transfer.use_encryption = False
        settings.transfer.use_sampling = False
        self.settings = settings
        self.plugin = DevUDFPlugin(DevUDFProject(run_dir / "project"),
                                   settings)
        self.connections = [self.plugin.connect()]

    def _cycle(self, out: Measurement) -> None:
        from repro.core import read_input_blob

        plugin = self.plugin
        out.attempted += 1
        started = time.perf_counter()
        try:
            rows, first, query_s = H.timed_fetch(
                plugin.connect(), W.UDF_DEBUG_QUERY,
                options=self.settings.transfer.transfer_options())
            preparation = plugin.prepare_debug(W.UDF_NAME)
            run = plugin.run_udf_locally(preparation=preparation)
            buffer = plugin.project.open_udf(W.UDF_NAME)
            source, fixed_next = W.toggle_udf_source(buffer.text)
            buffer.set_text(source)
            buffer.save()
            report = plugin.export_udfs([W.UDF_NAME])
        except Exception as exc:  # noqa: BLE001 - counted, reported
            out.fail(f"debug cycle: {exc!r}")
            return
        elapsed = time.perf_counter() - started
        checked = time.perf_counter()
        server_value = rows[0][0] if rows else None
        expected = W.mean_deviation_reference(self.values, self.fixed)
        blob = read_input_blob(preparation.input_path)
        if not (run.completed and report.ok and server_value is not None
                and math.isclose(run.result, server_value, rel_tol=1e-9,
                                 abs_tol=1e-9)
                and math.isclose(server_value, expected, rel_tol=1e-9,
                                 abs_tol=1e-6)
                and np.array_equal(blob.get("column"), self.values)):
            out.fail(f"debug cycle disagrees: server={server_value} "
                     f"local={run.result} expected={expected}")
        out.check_s += time.perf_counter() - checked
        self.fixed = fixed_next
        out.ops += 1
        out.rows += len(rows) + preparation.inputs.rows_extracted
        out.latencies.append(elapsed)
        out.reads.append(query_s)
        out.first_rows.append(first)

    def warm(self) -> None:
        out = Measurement()
        for _ in range(2):
            self._cycle(out)
        if out.failed:
            raise RuntimeError(f"warm-up failed: {out.errors}")

    def measure(self, seconds: float) -> Measurement:
        out = Measurement()
        started = time.perf_counter()
        _run_loop(started + seconds, self._cycle, out)
        out.wall_s = time.perf_counter() - started
        return out

    def reopen_spec(self) -> tuple[str, list, list, str | None]:
        return ("SELECT COUNT(*), SUM(i) FROM numbers",
                [(len(self.values), int(self.values.sum()))], [], W.UDF_NAME)


WORKLOADS = {"olap": Olap, "export": Export, "ingest": Ingest,
             "udf_debug": UdfDebug}


# --------------------------------------------------------------------------- #
# one session: set-up, warm-up, measure, kill, reopen
# --------------------------------------------------------------------------- #
@dataclass
class Session:
    measurement: Measurement
    setup_s: float
    stats: dict[str, int]
    stats_bytes: int
    rss_mb: float
    stored_bytes: int
    stored_rows: int
    reopen_s: list[float]
    window: tuple[float, float]
    reopen_spans: list[list[Any]]
    reopen_absent: list[str]
    server_trace: dict[str, Any] | None


def _wire_bytes(stats: dict[str, int]) -> int:
    return stats.get("server.bytes_sent", 0) + stats.get(
        "server.bytes_received", 0)


def workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def set_up(workload: Workload, directory: Path, stack: ExitStack, *,
           traced: bool) -> tuple[Any, float]:
    """Generate, build the image, start the server, wait for an answer."""
    directory.mkdir(parents=True)
    started = time.perf_counter()
    workload.generate()
    image = directory / "image.db"
    workload.build_image(image)
    server = H.ServerProcess(
        image, directory / "server.log", workers=workers(),
        spans_path=directory / "spans.json" if traced else None)
    stack.callback(server.kill)
    port = server.wait_listening()
    connection = H.connect(port)
    stack.callback(connection.close)
    workload.answer_check(connection)
    elapsed = time.perf_counter() - started
    return (server, port, connection), elapsed


def reopen(workload: Workload, image: Path, directory: Path,
           measurement: Measurement, *, traced: bool
           ) -> tuple[list[float], list[list[Any]], list[str]]:
    """Open copies of the killed server's image + WAL, each in a fresh
    process, until the first query answers; cold on purpose (no column
    cache survives a restart).  Returns the times, the concatenated
    spans and the absent wrapper targets."""
    files = [path for path in image.parent.iterdir()
             if path.name.startswith(image.name)
             and not path.name.endswith(".lock")]
    first_sql, expect_first, checks, function = workload.reopen_spec()
    times: list[float] = []
    spans: list[list[Any]] = []
    absent: list[str] = []
    for rep in range(workload.reopen_reps):
        copy = directory / f"reopen{rep}"
        copy.mkdir()
        for path in files:
            shutil.copy2(path, copy / path.name)
        spec = directory / f"reopen{rep}.json"
        spec.write_text(json.dumps({
            "path": str(copy / image.name), "workers": workers(),
            "first_sql": first_sql, "expect_first": expect_first,
            "checks": checks, "function": function, "trace": traced}))
        measurement.attempted += 1
        result = H.reopen(spec)
        times.append(result["seconds"])
        if not result["ok"]:
            measurement.fail("reopened files lack acknowledged data")
        offset = len(spans)
        for span in result["spans"]:
            if span[T.PARENT] is not None:
                span[T.PARENT] += offset
            spans.append(span)
        absent = result["absent"]
        shutil.rmtree(copy)
    return times, spans, absent


def session(workload: Workload, directory: Path, seconds: float, *,
            traced: bool) -> Session:
    """Set up a fresh server, warm it, measure it, kill it, reopen."""
    with ExitStack() as stack:
        run_dir = directory / "run"
        (server, port, first), setup_s = set_up(workload, run_dir, stack,
                                                traced=traced)
        connections = [first]
        for _ in range(workload.clients - 1):
            connection = H.connect(port)
            stack.callback(connection.close)
            connections.append(connection)
        workload.connections = connections
        workload.attach(port, run_dir)
        if isinstance(workload, UdfDebug):
            stack.callback(workload.plugin.close)
        workload.warm()
        before = first.server_stats()
        # a second exchange at once measures what one stats exchange adds
        # to the wire counters (its reply carries the slow-query log), so
        # that can be taken out of the workload's traffic
        probe = first.server_stats()
        stats_bytes = _wire_bytes(probe) - _wire_bytes(before)
        # the generator's own collector pauses are not the server's latency
        gc.collect()
        gc.disable()
        try:
            window_start = time.perf_counter()
            measurement = workload.measure(seconds)
            window_end = time.perf_counter()
        finally:
            gc.enable()
        after = first.server_stats()
        stats = {name: after[name] - probe.get(name, 0) for name in after}
        rss = server.peak_rss_mb()
        workload.before_kill(measurement)
        trace = server.dump_spans() if traced else None
        stack.close()           # clients first, then SIGKILL the server
        image = run_dir / "image.db"
        stored = sum(path.stat().st_size for path in run_dir.iterdir()
                     if path.name.startswith(image.name)
                     and not path.name.endswith(".lock"))
        reopen_s, reopen_spans, reopen_absent = reopen(
            workload, image, directory, measurement, traced=traced)
    workload.verify(measurement)
    return Session(measurement, setup_s, stats, stats_bytes, rss, stored,
                   workload.stored_rows, reopen_s, (window_start, window_end), reopen_spans,
                   reopen_absent, trace)


def end_to_end(workload: Workload, sessions: list[Session]
               ) -> tuple[dict[str, float], dict[str, Any]]:
    """Latencies and rates over all sessions' operations pooled; set-up
    and reopen times as medians over the sessions; sizes as medians."""
    def pooled(name: str) -> list[float]:
        return [value for result in sessions
                for value in getattr(result.measurement, name)]

    ops = sum(result.measurement.ops for result in sessions)
    moved = sum(result.measurement.rows + result.measurement.rows_acked
                for result in sessions)
    busy = sum(result.measurement.wall_s - result.measurement.check_s
               for result in sessions)
    wire = sum(_wire_bytes(result.stats) - result.stats_bytes
               for result in sessions)
    latencies = pooled("latencies")
    tail_value, tail_pct = H.tail(latencies)
    reopens = [seconds for result in sessions for seconds in result.reopen_s]
    metrics = {
        "setup_s": H.median([result.setup_s for result in sessions]),
        "lat_p50_ms": 1000 * H.median(latencies),
        "lat_tail_ms": 1000 * tail_value,
        "ops_per_s": ops / busy if busy > 0 else 0.0,
        "rows_per_s": moved / busy if busy > 0 else 0.0,
        "first_row_ms": 1000 * H.median(pooled("first_rows")),
        "read_p50_ms": 1000 * H.median(pooled("reads")),
        "open_first_query_s": H.median(reopens),
        "stored_bytes_per_row": H.median([
            result.stored_bytes / result.stored_rows for result in sessions]),
        "wire_bytes_per_row": wire / moved if moved else 0.0,
        "server_peak_rss_mb": H.median([result.rss_mb
                                         for result in sessions]),
    }
    samples = {
        "setup_s": len(sessions), "lat_p50_ms": len(latencies),
        "lat_tail_ms": len(latencies), "ops_per_s": ops, "rows_per_s": ops,
        "first_row_ms": len(pooled("first_rows")),
        "read_p50_ms": len(pooled("reads")),
        "open_first_query_s": len(reopens),
        "stored_bytes_per_row": len(sessions), "wire_bytes_per_row": ops,
        "server_peak_rss_mb": len(sessions),
    }
    return metrics, {"samples": samples, "tail_percentile": tail_pct,
                     "reopen_s": reopens}


def per_layer(workload: Workload, untraced: Session, traced: Session,
              client_tracer: Any) -> dict[str, float]:
    server_trace = traced.server_trace or {"spans": [], "absent": []}
    client_spans = client_tracer.closed_spans()
    statements = traced.stats.get("server.queries_executed", 0)
    metrics = T.layer_metrics(
        T.in_window(server_trace["spans"], *traced.window),
        T.in_window(client_spans, *traced.window),
        traced.reopen_spans,
        stats=traced.stats, statements=statements,
        ops=traced.measurement.ops,
        rows_acked=traced.measurement.rows_acked,
        reopens=len(traced.reopen_s),
        absent=(list(server_trace["absent"]) + client_tracer.absent
                + traced.reopen_absent))
    metrics["trace.overhead_ms"] = 1000 * (
        H.median(traced.measurement.latencies)
        - H.median(untraced.measurement.latencies))
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Any,
        directory: Path) -> dict[str, Any]:
    workload = WORKLOADS[name](seed, sizes)
    record: dict[str, Any] = {"workload": name, "seed": seed,
                              "seconds": seconds, "trace": int(trace),
                              "env": H.environment()}
    if not trace:
        # each set-up is a full session; the sessions' measured phases
        # together take --seconds and spread it across the run
        sessions = [session(workload, directory / f"s{rep}",
                            seconds / sizes.setup_reps, traced=False)
                    for rep in range(sizes.setup_reps)]
        metrics, detail = end_to_end(workload, sessions)
        units = E2E_UNITS
        record.update(detail)
        measurement = Measurement()
        for result in sessions:
            measurement.merge(result.measurement)
    else:
        untraced = session(workload, directory / "u", seconds, traced=False)
        client_tracer = T.Tracer("client")
        T.install(client_tracer)
        workload = WORKLOADS[name](seed, sizes)
        traced = session(workload, directory / "t", seconds, traced=True)
        metrics = per_layer(workload, untraced, traced, client_tracer)
        units = LAYER_UNITS
        measurement = untraced.measurement
        measurement.merge(traced.measurement)
        record["absent"] = sorted(set(LAYER_UNITS) - set(metrics))
        record["reopen_s"] = traced.reopen_s
    record["failed_frac"] = (measurement.failed / measurement.attempted
                             if measurement.attempted else 1.0)
    record["errors"] = measurement.errors
    return {"record": record, "attempted": measurement.attempted,
            "failed": measurement.failed,
            "metrics": {metric: {"value": value, "unit": units[metric]}
                        for metric, value in metrics.items()}}


def _alarm(signum: int, frame: Any) -> None:
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data sizes (the benchmark's own tests)")
    parser.add_argument("--record", type=Path, default=None,
                        help="append the run record (environment, sample "
                             "counts, metrics) to this JSON-lines file")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sizes = W.SMOKE if args.smoke else W.FULL
    H.pin_generator()
    directory = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        directory.mkdir(parents=True)
        outcome = run(args.workload, args.seed, args.seconds,
                      bool(args.trace), sizes, directory)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(directory, ignore_errors=True)
    record = outcome.pop("record")
    record["metrics"] = outcome["metrics"]
    record["failed"] = outcome["failed"]
    record["attempted"] = outcome["attempted"]
    for metric, entry in outcome["metrics"].items():
        count = record.get("samples", {}).get(metric)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"{args.workload:10s} {metric:28s} {entry['value']:14.4f} "
              f"{entry['unit']}{suffix}")
    print(f"{args.workload:10s} {'failed_frac':28s} "
          f"{record['failed_frac']:14.4f} ({outcome['failed']}/"
          f"{outcome['attempted']})")
    for error in record["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(record))
    if args.record is not None:
        with open(args.record, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": outcome["failed"] == 0,
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"],
                      "metrics": outcome["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
