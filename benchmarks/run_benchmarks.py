#!/usr/bin/env python
"""Micro-benchmark entry point: emits machine-readable BENCH_*.json reports.

Three suites, selectable with ``--suite``:

* ``sqldb``    — engine operator hot paths (scan, filter, equi-join, GROUP BY)
  at 10k and 100k rows, plus 100k-row UDF outputs converted back to columns,
  written to ``BENCH_sqldb.json``.  The seed
  (pre-vectorisation) baselines recorded in the output were measured on the
  same workload shapes with the nested-loop/per-group engine at ``v0``.
* ``netproto`` — result-set transfer cost: the columnar wire format (typed
  column buffers, PR 2) against the legacy per-value codec, with and without
  compression, at 10k and 100k rows, plus client row building (100k rows
  fetched over loopback TCP with ``fetchmany``, and ``QueryResult.fetchall``
  in-process), written to ``BENCH_netproto.json``.
  The legacy baselines are measured live so the speedup is same-machine.
* ``persist``  — durable storage: insert throughput with write-ahead logging
  (vs in-memory, and with per-statement fsync), checkpoint time, cold-open
  and WAL-recovery time at 1M rows, and one-row INSERTs of unseen strings
  into a 1M-distinct STRING column plus their WAL replay, written to
  ``BENCH_persist.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py
        [--suite {sqldb,netproto,persist,all}] [--quick] [--output-dir DIR]

``--quick`` shrinks row counts and repeats so a CI smoke run finishes in a
couple of seconds; committed BENCH_*.json files should come from a full run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from repro.netproto.compression import CODEC_NONE, CODEC_ZLIB
from repro.netproto.messages import (
    ColumnarResultAssembler,
    columnar_result_messages,
    decode_result,
    encode_result,
)
from repro.sqldb.database import Database
from repro.sqldb.result import QueryResult, ResultColumn
from repro.sqldb.types import SQLType

GROUP_COUNT = 500
JOIN_SIDE_ROWS = 2_000
STRING_CARDINALITY = 500

#: Observability must stay nearly free: the instrumented engine may cost at
#: most this factor over ``observability=False`` on the acceptance workload.
#: ``--quick`` runs enforce the gate (the benchmark exits non-zero beyond it),
#: with headroom over the ~3% design target so CI noise does not flake.
OBS_OVERHEAD_BUDGET = 1.15

#: Milliseconds measured for the same workloads on the seed engine (v0),
#: kept here so the report can state the speedup without re-running the
#: (extremely slow) nested-loop join.
SEED_BASELINE_MS = {
    "scan_100000": 6.2,
    "filter_100000": 28.2,
    "group_by_100000": 84.6,
    "join_2000": 32080.5,
}

#: Milliseconds measured for the string/NULL workloads on the pre-vector
#: engine (PR 2 state: object-array fallback for strings and NULL-bearing
#: columns), same machine; the unified vector representation PR is the
#: first one these run vectorised.
PRE_VECTOR_BASELINE_MS = {
    "str_filter_100000": 26.3,
    "str_group_by_100000": 19.3,
    "null_sum_100000": 22.8,
    "null_group_sum_100000": 29.1,
}


def median_seconds(fn, *, repeat: int) -> float:
    fn()  # warm caches / allocators
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


# --------------------------------------------------------------------------- #
# sqldb suite
# --------------------------------------------------------------------------- #
def build_database(row_counts: list[int]) -> Database:
    database = Database()
    database.execute("CREATE TABLE big (k INTEGER, v DOUBLE)")
    table = database.storage.table("big")
    rng = random.Random(7)
    for index in range(max(row_counts)):
        table.insert_row([index % GROUP_COUNT, rng.random()])
    for rows in row_counts:
        database.execute(
            f"CREATE TABLE big_{rows} AS SELECT k, v FROM big LIMIT {rows}")

    for rows in [JOIN_SIDE_ROWS] + row_counts:
        database.execute(f"CREATE TABLE join_l_{rows} (id INTEGER, x DOUBLE)")
        database.execute(f"CREATE TABLE join_r_{rows} (id INTEGER, y DOUBLE)")
        left = database.storage.table(f"join_l_{rows}")
        right = database.storage.table(f"join_r_{rows}")
        left.column("id").extend(range(rows))
        left.column("x").extend(index * 0.5 for index in range(rows))
        right.column("id").extend(range(rows))
        right.column("y").extend(index * 0.25 for index in range(rows))

    for rows in row_counts:
        # string + NULL-heavy workloads: exercise the dictionary-encoded
        # and validity-masked vector paths
        database.execute(
            f"CREATE TABLE str_{rows} (name STRING, v DOUBLE, nv DOUBLE)")
        table = database.storage.table(f"str_{rows}")
        table.column("name").extend(
            f"cat_{index % STRING_CARDINALITY}" for index in range(rows))
        table.column("v").extend(rng.random() for _ in range(rows))
        table.column("nv").extend(
            None if index % 2 else float(index % 97) for index in range(rows))
    return database


def run_sqldb(*, quick: bool = False) -> dict:
    row_counts = [1_000, 10_000] if quick else [10_000, 100_000]
    repeat = 2 if quick else 5
    database = build_database(row_counts)
    results: dict[str, dict] = {}

    def record(name: str, sql: str, input_rows: int) -> None:
        out_rows = database.execute(sql).row_count
        seconds = median_seconds(lambda: database.execute(sql), repeat=repeat)
        entry = {
            "sql": sql,
            "input_rows": input_rows,
            "output_rows": out_rows,
            "seconds": round(seconds, 6),
            "rows_per_sec": round(input_rows / seconds) if seconds > 0 else None,
        }
        baseline = SEED_BASELINE_MS.get(name)
        if baseline is not None:
            entry["seed_baseline_ms"] = baseline
            entry["speedup_vs_seed"] = round(baseline / (seconds * 1000), 1)
        pre_vector = PRE_VECTOR_BASELINE_MS.get(name)
        if pre_vector is not None:
            entry["pre_vector_baseline_ms"] = pre_vector
            entry["speedup_vs_pre_vector"] = round(
                pre_vector / (seconds * 1000), 1)
        results[name] = entry

    for rows in row_counts:
        record(f"scan_{rows}", f"SELECT k, v FROM big_{rows}", rows)
        record(f"filter_{rows}", f"SELECT v FROM big_{rows} WHERE v > 0.5", rows)
        record(f"group_by_{rows}",
               f"SELECT k, COUNT(*), SUM(v), AVG(v) FROM big_{rows} GROUP BY k",
               rows)
        record(f"join_{rows}",
               f"SELECT l.id, r.y FROM join_l_{rows} l JOIN join_r_{rows} r "
               f"ON l.id = r.id", rows)
        record(f"str_filter_{rows}",
               f"SELECT v FROM str_{rows} WHERE name = 'cat_123'", rows)
        record(f"str_group_by_{rows}",
               f"SELECT name, COUNT(*), SUM(v) FROM str_{rows} GROUP BY name",
               rows)
        record(f"null_sum_{rows}",
               f"SELECT SUM(nv), COUNT(nv), AVG(nv) FROM str_{rows}", rows)
        record(f"null_group_sum_{rows}",
               f"SELECT name, SUM(nv) FROM str_{rows} GROUP BY name", rows)
    record(f"join_{JOIN_SIDE_ROWS}",
           f"SELECT l.id, r.y FROM join_l_{JOIN_SIDE_ROWS} l "
           f"JOIN join_r_{JOIN_SIDE_ROWS} r ON l.id = r.id",
           JOIN_SIDE_ROWS)

    results.update(run_udf_output(repeat=repeat))
    results.update(run_parallel(quick=quick))
    results.update(run_obs_overhead(quick=quick))

    return {
        "suite": "sqldb-vectorized-engine",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "row_counts": row_counts,
        "group_count": GROUP_COUNT,
        "results": results,
    }


# --------------------------------------------------------------------------- #
# UDF output conversion
# --------------------------------------------------------------------------- #
UDF_OUTPUT_ROWS = 100_000


def run_udf_output(*, repeat: int) -> dict:
    """UDF outputs of 100k rows turned back into columns, int64/float64/bool.

    ``udf_table_output_100k`` is the extract-function shape (a table UDF
    handing its input columns back); ``udf_scalar_rowaligned_100k`` is three
    row-aligned scalar UDFs in one projection.  Both time ``execute`` until
    the result columns exist, without materialising Python values.
    """
    rows = UDF_OUTPUT_ROWS
    database = Database()
    database.execute("CREATE TABLE udf_src (i BIGINT, v DOUBLE)")
    table = database.storage.table("udf_src")
    rng = random.Random(23)
    table.column("i").extend(range(rows))
    table.column("v").extend(rng.random() for _ in range(rows))
    database.execute(
        "CREATE FUNCTION udf_echo(i BIGINT, v DOUBLE) "
        "RETURNS TABLE(i BIGINT, v DOUBLE, b BOOLEAN) "
        "LANGUAGE PYTHON { return {'i': i, 'v': v, 'b': v > 0.5} }")
    database.execute("CREATE FUNCTION udf_next(x BIGINT) RETURNS BIGINT "
                     "LANGUAGE PYTHON { return x + 1 }")
    database.execute("CREATE FUNCTION udf_half(x DOUBLE) RETURNS DOUBLE "
                     "LANGUAGE PYTHON { return x / 2 }")
    database.execute("CREATE FUNCTION udf_big(x DOUBLE) RETURNS BOOLEAN "
                     "LANGUAGE PYTHON { return x > 0.5 }")
    cases = {
        "udf_table_output_100k":
            "SELECT * FROM udf_echo((SELECT i, v FROM udf_src))",
        "udf_scalar_rowaligned_100k":
            "SELECT udf_next(i), udf_half(v), udf_big(v) FROM udf_src",
    }
    results: dict[str, dict] = {}
    for name, sql in cases.items():
        out_rows = database.execute(sql).row_count
        seconds = median_seconds(lambda: database.execute(sql), repeat=repeat)
        results[name] = {
            "sql": sql,
            "input_rows": rows,
            "output_rows": out_rows,
            "seconds": round(seconds, 6),
            "rows_per_sec": round(rows / seconds) if seconds > 0 else None,
        }
    database.close()
    return results


# --------------------------------------------------------------------------- #
# parallel (morsel-driven) suite
# --------------------------------------------------------------------------- #
def run_parallel(*, quick: bool = False) -> dict:
    """Morsel-parallel execution: the same pipeline at workers 1/2/4.

    The acceptance workload is the 1M-row scan-filter-aggregate; join-probe
    and plain hash aggregation ride along.  Each worker count gets its own
    Database over one shared dataset (the same value lists are appended to
    each engine's columns).  Speedups are relative to the
    same build's ``workers=1`` run — on a single-core container they hover
    around 1x (``cpu_count`` is recorded alongside for honest reading).
    """
    from repro.sqldb.database import Database

    rows = 50_000 if quick else 1_000_000
    worker_counts = [1, 2] if quick else [1, 2, 4]
    repeat = 2 if quick else 5
    rng = random.Random(11)
    keys = [i % GROUP_COUNT for i in range(rows)]
    values = [rng.random() for _ in range(rows)]
    build_ids = list(range(0, rows, 100))
    build_payload = [i * 0.5 for i in build_ids]

    workloads = {
        "scan_filter_agg": ("SELECT k, COUNT(*), SUM(v) FROM big "
                            "WHERE v > 0.5 GROUP BY k"),
        "group_by": "SELECT k, SUM(v), AVG(v) FROM big GROUP BY k",
        "join_probe": ("SELECT b.k, s.y FROM big b JOIN small s "
                       "ON b.k = s.id WHERE b.v > 0.9"),
    }

    results: dict[str, dict] = {}
    baseline_seconds: dict[str, float] = {}
    for workers in worker_counts:
        database = Database(workers=workers)
        database.execute("CREATE TABLE big (k INTEGER, v DOUBLE)")
        table = database.storage.table("big")
        table.column("k").extend(keys)
        table.column("v").extend(values)
        database.execute("CREATE TABLE small (id INTEGER, y DOUBLE)")
        small = database.storage.table("small")
        small.column("id").extend(build_ids)
        small.column("y").extend(build_payload)
        for name, sql in workloads.items():
            seconds = median_seconds(lambda: database.execute(sql),
                                     repeat=repeat)
            entry = {
                "sql": sql,
                "workers": workers,
                "input_rows": rows,
                "seconds": round(seconds, 6),
                "rows_per_sec": round(rows / seconds) if seconds > 0 else None,
            }
            if workers == 1:
                baseline_seconds[name] = seconds
            else:
                entry["speedup_vs_1_worker"] = round(
                    baseline_seconds[name] / seconds, 2)
            results[f"parallel_{name}_{rows}_w{workers}"] = entry
        database.close()
    return results


# --------------------------------------------------------------------------- #
# observability overhead
# --------------------------------------------------------------------------- #
def run_obs_overhead(*, quick: bool = False) -> dict:
    """Cost of default-on metrics: instrumented vs ``observability=False``.

    The acceptance workload is the scan-filter-aggregate pipeline; both
    engines run the identical query over the identical column data, so the
    delta is exactly the per-query histogram observations plus the per-morsel
    counter bumps.  The ratio is reported honestly (it hovers around 1.0 and
    can dip below on a noisy machine); ``--quick`` turns the budget into a CI
    gate via the process exit code.
    """
    rows = 100_000 if quick else 1_000_000
    repeat = 5 if quick else 7
    rng = random.Random(17)
    keys = [i % GROUP_COUNT for i in range(rows)]
    values = [rng.random() for _ in range(rows)]
    sql = "SELECT k, COUNT(*), SUM(v) FROM big WHERE v > 0.5 GROUP BY k"

    def measure(observability: bool) -> float:
        database = Database(workers=1, observability=observability)
        database.execute("CREATE TABLE big (k INTEGER, v DOUBLE)")
        table = database.storage.table("big")
        table.column("k").extend(keys)
        table.column("v").extend(values)
        seconds = median_seconds(lambda: database.execute(sql), repeat=repeat)
        database.close()
        return seconds

    bare_s = measure(False)
    instrumented_s = measure(True)
    ratio = instrumented_s / max(bare_s, 1e-9)
    return {"obs_overhead": {
        "sql": sql,
        "input_rows": rows,
        "bare_seconds": round(bare_s, 6),
        "instrumented_seconds": round(instrumented_s, 6),
        "overhead_ratio": round(ratio, 4),
        "overhead_percent": round((ratio - 1.0) * 100, 2),
        "budget_ratio": OBS_OVERHEAD_BUDGET,
        "within_budget": ratio <= OBS_OVERHEAD_BUDGET,
    }}


# --------------------------------------------------------------------------- #
# persist (durable storage) suite
# --------------------------------------------------------------------------- #
def unique_string_case(workdir: Path, rows: int, inserts: int) -> dict:
    """One-row INSERTs into a STRING column of ``rows`` distinct values,
    then the reopen that replays them from the WAL.

    Each inserted string is unseen and sorts inside the existing values,
    so every statement extends the middle of the column's dictionary.
    The reopen is timed alone and up to the first query over the strings.
    """
    from repro.sqldb.persist import wal_path_for

    path = workdir / "unique.db"
    database = Database(path=path)
    database.execute("CREATE TABLE u (k INTEGER, s STRING)")
    table = database.storage.table("u")
    table.column("k").extend(range(rows))
    table.column("s").extend(f"s{i:08d}" for i in range(rows))
    database.checkpoint()
    database.execute("SELECT MAX(s) FROM u")  # untimed warm-up
    latencies = []
    for j in range(inserts):
        # 7919 is prime: the suffixed keys land all over the dictionary
        sql = (f"INSERT INTO u VALUES ({rows + j}, "
               f"'s{j * 7919 % rows:08d}~')")
        start = time.perf_counter()
        database.execute(sql)
        latencies.append(time.perf_counter() - start)
    start = time.perf_counter()
    database.execute("SELECT MAX(s) FROM u")
    read_after_s = time.perf_counter() - start
    database.persistence.close(checkpoint=False)
    database.scheduler.shutdown()
    start = time.perf_counter()
    reopened = Database(path=path)
    assert reopened.row_count("u") == rows + inserts
    open_s = time.perf_counter() - start
    reopened.execute("SELECT MAX(s) FROM u")
    first_query_s = time.perf_counter() - start
    replayed = reopened.persistence.last_recovery.wal_records_replayed
    reopened.persistence.close(checkpoint=False)
    reopened.scheduler.shutdown()
    for victim in (path, wal_path_for(path)):
        victim.unlink()
    latencies.sort()
    return {
        f"unique_string_insert_{rows}": {
            "rows": rows,
            "statements": inserts,
            "seconds": round(sum(latencies), 6),
            "statement_p50_ms": round(latencies[len(latencies) // 2] * 1e3,
                                      3),
            "read_after_ms": round(read_after_s * 1e3, 3),
        },
        f"unique_string_recovery_{rows}": {
            "rows": rows,
            "wal_records_replayed": replayed,
            "seconds": round(open_s, 6),
            "first_string_query_seconds": round(first_query_s, 6),
        },
    }


def run_persist(*, quick: bool = False) -> dict:
    """Durable-storage costs: WAL-logged inserts, checkpoint, open, recovery.

    The acceptance workload is the 1M-row table (``--quick`` shrinks it for
    CI): bulk-load, ``checkpoint`` (segment encode + atomic replace),
    cold-open from the image (segment decode through the shared wire path)
    and recovery-open with a WAL tail to replay.  Insert throughput is
    measured as whole INSERT statements against a fresh engine per mode so
    the WAL's cost shows up as the delta against the in-memory run.
    """
    from repro.sqldb.persist import wal_path_for

    rows = 50_000 if quick else 1_000_000
    insert_rows = 5_000 if quick else 50_000
    recovery_rows = 2_000 if quick else 20_000
    batch_rows = 500
    repeat = 2 if quick else 3
    results: dict[str, dict] = {}
    workdir = Path(tempfile.mkdtemp(prefix="bench_persist_"))

    def timed(fn) -> float:
        samples = []
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        samples.sort()
        return samples[len(samples) // 2]

    def cleanup(path: Path) -> None:
        for victim in (path, wal_path_for(path)):
            if victim.exists():
                victim.unlink()

    try:
        # ---- insert-with-WAL throughput ------------------------------- #
        statements = ["CREATE TABLE w (i INTEGER, s STRING, v DOUBLE)"]
        for start in range(0, insert_rows, batch_rows):
            values = ", ".join(
                f"({i}, 'cat_{i % 50}', {i * 0.5})"
                for i in range(start, start + batch_rows))
            statements.append(f"INSERT INTO w VALUES {values}")

        def run_inserts(**db_kwargs) -> None:
            database = Database(**db_kwargs)
            for sql in statements:
                database.execute(sql)
            if database.persistence is not None:
                database.persistence.wal.flush()
                database.persistence.close(checkpoint=False)
            path = db_kwargs.get("path")
            if path is not None:
                cleanup(Path(path))

        memory_s = timed(lambda: run_inserts())
        wal_s = timed(lambda: run_inserts(path=workdir / "ins.db"))
        wal_sync_s = timed(lambda: run_inserts(path=workdir / "ins.db",
                                               wal_fsync_batch=1))
        for name, seconds in (("memory", memory_s), ("wal_batched", wal_s),
                              ("wal_fsync_per_statement", wal_sync_s)):
            results[f"insert_{insert_rows}_{name}"] = {
                "rows": insert_rows,
                "seconds": round(seconds, 6),
                "rows_per_sec": round(insert_rows / seconds)
                if seconds > 0 else None,
                "wal_overhead_vs_memory": round(seconds / memory_s, 2)
                if name != "memory" else 1.0,
            }

        # ---- checkpoint / cold open / recovery at `rows` ---------------- #
        base_path = workdir / "big.db"
        database = Database(path=base_path)
        database.execute(
            "CREATE TABLE big (k INTEGER, name STRING, v DOUBLE)")
        table = database.storage.table("big")
        rng = random.Random(13)
        table.column("k").extend(i % GROUP_COUNT for i in range(rows))
        table.column("name").extend(
            f"cat_{i % STRING_CARDINALITY}" for i in range(rows))
        table.column("v").extend(rng.random() for _ in range(rows))

        checkpoint_s = timed(database.checkpoint)
        stats = database.persistence.last_checkpoint
        results[f"checkpoint_{rows}"] = {
            "rows": rows,
            "seconds": round(checkpoint_s, 6),
            "rows_per_sec": round(rows / checkpoint_s)
            if checkpoint_s > 0 else None,
            "file_bytes": stats.file_bytes,
            "segments": stats.segments,
        }
        database.close()

        # the timed body must measure only the open (image decode + WAL
        # replay): shut down without the auto-checkpoint a full close runs
        def open_and_discard(path: Path, expected_rows: int) -> None:
            reopened = Database(path=path)
            assert reopened.row_count("big") == expected_rows
            reopened.persistence.close(checkpoint=False)
            reopened.scheduler.shutdown()

        cold_open_s = timed(lambda: open_and_discard(base_path, rows))
        results[f"cold_open_{rows}"] = {
            "rows": rows,
            "seconds": round(cold_open_s, 6),
            "rows_per_sec": round(rows / cold_open_s)
            if cold_open_s > 0 else None,
        }

        # recovery: the checkpointed image plus a WAL tail to replay
        live = Database(path=base_path)
        for start in range(0, recovery_rows, batch_rows):
            values = ", ".join(
                f"({i}, 'cat_{i % 50}', {i * 0.25})"
                for i in range(start, start + batch_rows))
            live.execute(f"INSERT INTO big VALUES {values}")
        live.persistence.close(checkpoint=False)
        crash_path = workdir / "crash.db"

        samples = []
        for _ in range(repeat):
            # restore the crash snapshot outside the timed region
            shutil.copy(base_path, crash_path)
            shutil.copy(wal_path_for(base_path), wal_path_for(crash_path))
            start_time = time.perf_counter()
            open_and_discard(crash_path, rows + recovery_rows)
            samples.append(time.perf_counter() - start_time)
        samples.sort()
        recovery_s = samples[len(samples) // 2]
        results[f"recovery_open_{rows}"] = {
            "rows": rows,
            "wal_rows_replayed": recovery_rows,
            "seconds": round(recovery_s, 6),
            "cold_open_seconds": round(cold_open_s, 6),
            "replay_seconds_estimate": round(
                max(recovery_s - cold_open_s, 0.0), 6),
        }

        # ---- VERIFY scrub / BACKUP TO over the live database ------------ #
        total_rows = rows + recovery_rows
        scrub = Database(path=base_path)
        verify_s = timed(scrub.verify)
        report = scrub.verify()
        results[f"verify_{total_rows}"] = {
            "rows": total_rows,
            "seconds": round(verify_s, 6),
            "rows_per_sec": round(total_rows / verify_s)
            if verify_s > 0 else None,
            "wal_records_checked": report.wal_records,
            "ok": report.ok,
        }

        backup_target = workdir / "copyout.db"

        def run_backup() -> None:
            if backup_target.exists():
                backup_target.unlink()
            scrub.backup(backup_target)

        backup_s = timed(run_backup)
        backup_bytes = backup_target.stat().st_size
        results[f"backup_{total_rows}"] = {
            "rows": total_rows,
            "seconds": round(backup_s, 6),
            "rows_per_sec": round(total_rows / backup_s)
            if backup_s > 0 else None,
            "file_bytes": backup_bytes,
        }
        scrub.persistence.close(checkpoint=False)
        scrub.scheduler.shutdown()

        results.update(unique_string_case(
            workdir, 20_000 if quick else 1_000_000, 100 if quick else 300))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "suite": "persist-durable-storage",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "rows": rows,
        "results": results,
    }


# --------------------------------------------------------------------------- #
# netproto suite
# --------------------------------------------------------------------------- #
def build_transfer_result(rows: int) -> QueryResult:
    """The acceptance workload: a 2-column numeric result, list-backed so the
    columnar path pays its buffer-export cost inside the measurement."""
    rng = random.Random(7)
    return QueryResult([
        ResultColumn("k", SQLType.INTEGER, [i % GROUP_COUNT for i in range(rows)]),
        ResultColumn("v", SQLType.DOUBLE, [rng.random() for _ in range(rows)]),
    ])


def build_string_transfer_result(rows: int, cardinality: int = 50) -> QueryResult:
    """A low-cardinality string column: the TAG_DICT acceptance workload."""
    return QueryResult([
        ResultColumn("s", SQLType.STRING,
                     [f"name_{i % cardinality}" for i in range(rows)]),
    ])


def _bench_legacy(result: QueryResult, codec: str, repeat: int) -> dict:
    compression = None if codec == CODEC_NONE else codec
    encoded = encode_result(result, compression=compression)
    encode_s = median_seconds(
        lambda: encode_result(result, compression=compression), repeat=repeat)
    decode_s = median_seconds(
        lambda: decode_result(encoded.blob, compressed=encoded.compressed,
                              encrypted=False), repeat=repeat)
    return {
        "encode_seconds": round(encode_s, 6),
        "decode_seconds": round(decode_s, 6),
        "encode_decode_seconds": round(encode_s + decode_s, 6),
        "wire_bytes": len(encoded.blob),
        "raw_bytes": encoded.stats.raw_bytes,
    }


def _bench_columnar(result: QueryResult, codec: str, repeat: int,
                    protocol_version: int = 3) -> dict:
    def encode() -> list[dict]:
        return list(columnar_result_messages(result, compression=codec,
                                             protocol_version=protocol_version))

    messages = encode()

    def decode() -> QueryResult:
        assembler = ColumnarResultAssembler(messages[0])
        for message in messages[1:]:
            assembler.add_chunk(message)
        return assembler.finish()[0]

    def decode_materialised() -> QueryResult:
        decoded = decode()
        for column in decoded.columns:
            column.values  # force Python-object materialisation
        return decoded

    encode_s = median_seconds(encode, repeat=repeat)
    decode_s = median_seconds(decode, repeat=repeat)
    materialise_s = median_seconds(decode_materialised, repeat=repeat)
    raw_bytes = sum(m["stats"]["raw_bytes"] for m in messages[1:])
    return {
        "encode_seconds": round(encode_s, 6),
        "decode_seconds": round(decode_s, 6),
        "encode_decode_seconds": round(encode_s + decode_s, 6),
        "decode_materialised_seconds": round(materialise_s, 6),
        "wire_bytes": sum(len(m["payload"]) for m in messages[1:]),
        "raw_bytes": raw_bytes,
        "chunks": len(messages) - 1,
    }


def timing_stats(fn, *, repeat: int, setup=lambda: None) -> dict:
    """Time ``fn(setup())`` ``repeat`` times after one warm-up call; only
    ``fn`` is timed.  Reports n, median, min and interquartile range."""
    fn(setup())
    samples = []
    for _ in range(repeat):
        argument = setup()
        start = time.perf_counter()
        fn(argument)
        samples.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"n": repeat, "median_ms": round(median * 1000, 3),
            "min_ms": round(min(samples) * 1000, 3),
            "iqr_ms": round((q3 - q1) * 1000, 3)}


def run_row_fetch(*, quick: bool = False) -> dict:
    """Building result rows on the client, a column at a time.

    ``stream_fetchmany_*`` sends one SELECT over loopback TCP to an async
    v4 server and drains it with ``execute_stream`` + ``fetchmany(1024)``;
    ``result_fetchall_*`` times ``QueryResult.fetchall`` on a fresh
    in-process result (value lists plus the row ``zip``).  The table is
    (BIGINT, low-cardinality STRING shipped as a dictionary, DOUBLE with
    20% NULL).
    """
    from repro.netproto.client import Connection, ConnectionInfo
    from repro.netproto.server import AsyncSocketServer, DatabaseServer

    rows = 10_000 if quick else 100_000
    repeat = 3 if quick else 15
    rng = random.Random(17)
    database = Database()
    database.execute("CREATE TABLE fetch_src (i BIGINT, s STRING, v DOUBLE)")
    table = database.storage.table("fetch_src")
    table.column("i").extend(range(rows))
    table.column("s").extend(f"name_{i % STRING_CARDINALITY}"
                             for i in range(rows))
    table.column("v").extend(None if rng.random() < 0.2 else rng.random()
                             for _ in range(rows))
    sql = "SELECT i, s, v FROM fetch_src"
    front = AsyncSocketServer(DatabaseServer(database), host="127.0.0.1",
                              port=0)
    host, port = front.start_background()
    connection = Connection.connect_tcp(ConnectionInfo(host=host, port=port))

    def fetch_stream(_: None) -> None:
        stream = connection.execute_stream(sql)
        fetched = 0
        while batch := stream.fetchmany(1024):
            fetched += len(batch)
        assert fetched == rows, fetched

    results = {
        f"stream_fetchmany_{rows}": {
            "rows": rows, "protocol_version": connection.protocol_version,
            **timing_stats(fetch_stream, repeat=repeat)},
        f"result_fetchall_{rows}": {
            "rows": rows,
            **timing_stats(lambda result: result.fetchall(), repeat=repeat,
                           setup=lambda: database.execute(sql))},
    }
    connection.close()
    front.stop()
    database.close()
    return results


def run_concurrency(*, quick: bool = False) -> dict:
    """Concurrent clients against one server: throughput and tail latency.

    N simulated clients (threads over in-process transports, so the protocol
    and admission-control paths are measured without socket noise) share a
    fixed total query budget.  The server keeps its default 8 execution
    slots; at N=256 most clients sit in the admission queue, so p99 shows
    the queueing delay an overloaded server hands out instead of failures.
    """
    import threading as _threading

    from repro.netproto.client import Connection
    from repro.netproto.server import DatabaseServer, ServerLimits

    rows = 5_000 if quick else 20_000
    client_counts = [1, 8] if quick else [1, 16, 256]
    total_queries = 64 if quick else 768
    rng = random.Random(7)
    # mirror the server CLI defaults: plan cache on, 8 MiB result cache —
    # the repeated identical read-only aggregate is exactly the workload
    # the result cache exists for
    database = Database(workers=2, result_cache_bytes=8 << 20)
    database.execute("CREATE TABLE big (k INTEGER, v DOUBLE)")
    table = database.storage.table("big")
    table.column("k").extend(i % GROUP_COUNT for i in range(rows))
    table.column("v").extend(rng.random() for _ in range(rows))
    limits = ServerLimits(max_concurrent_queries=8, max_queue_depth=512,
                          max_queue_wait=60.0)
    server = DatabaseServer(database, limits=limits)
    sql = "SELECT COUNT(*), SUM(v) FROM big WHERE v > 0.5"

    results: dict[str, dict] = {}
    for clients in client_counts:
        per_client = max(1, total_queries // clients)
        barrier = _threading.Barrier(clients + 1)
        samples: list[float] = []
        lock = _threading.Lock()

        def client_worker() -> None:
            connection = Connection.connect_in_process(server)
            local: list[float] = []
            barrier.wait()
            for _ in range(per_client):
                start = time.perf_counter()
                connection.execute(sql)
                local.append(time.perf_counter() - start)
            connection.close()
            with lock:
                samples.extend(local)

        threads = [_threading.Thread(target=client_worker)
                   for _ in range(clients)]
        rejected_before = server.stats.queries_rejected
        for thread in threads:
            thread.start()
        barrier.wait()
        wall_start = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall_start
        samples.sort()
        executed = len(samples)
        results[f"concurrency_{clients}_clients"] = {
            "clients": clients,
            "queries_per_client": per_client,
            "queries_total": executed,
            "wall_seconds": round(wall, 6),
            "queries_per_sec": round(executed / wall) if wall > 0 else None,
            "latency_p50_ms": round(samples[executed // 2] * 1000, 3),
            "latency_p99_ms": round(
                samples[min(executed - 1, int(executed * 0.99))] * 1000, 3),
            "latency_max_ms": round(samples[-1] * 1000, 3),
            "rejected": server.stats.queries_rejected - rejected_before,
            "execution_slots": limits.max_concurrent_queries,
            "plan_cache": True,
            "result_cache": True,
            # default-on observability: every query lands in the server's
            # latency histogram and is trace-tracked for the slow-query ring
            "stats_histograms": True,
            "slow_query_tracking_ms": server.slow_query_ms,
        }
    counters = database.cache_counters()
    results["concurrency_cache_counters"] = {
        "plan_cache_hits": counters["plan_cache_hits"],
        "result_cache_hits": counters["result_cache_hits"],
    }
    database.close()
    return results


def run_prepared(*, quick: bool = False) -> dict:
    """The repeated-query fast path: cold parse vs plan cache vs
    PREPARE/EXECUTE vs the result cache, over the full wire protocol.

    Each mode gets a fresh database so caches cannot leak between modes.
    ``cold`` disables every cache and varies the literal so each query is
    parsed and planned from scratch; ``prepared`` binds a new argument per
    execution (so the *result* cache cannot help and the win is parse/plan
    elimination); ``result_cached`` repeats the identical statement.
    """
    from repro.netproto.client import Connection
    from repro.netproto.server import DatabaseServer

    rows = 5_000 if quick else 20_000
    repeats = 60 if quick else 400
    rng = random.Random(11)
    # an expression-heavy dashboard-style template: the select list is wide
    # on purpose (PREPARE targets exactly the regime where parsing a complex
    # statement rivals executing it), while the k = ? filter keeps the
    # post-filter evaluation cost per execution small
    template = (
        "SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v), "
        "SUM(CASE WHEN v > 0.9 THEN 4 WHEN v > 0.7 THEN 3 "
        "WHEN v > 0.5 THEN 2 WHEN v > 0.3 THEN 1 ELSE 0 END), "
        "AVG(CASE WHEN v < 0.1 THEN v * 100.0 WHEN v < 0.2 THEN v * 50.0 "
        "WHEN v < 0.4 THEN v * 25.0 ELSE v END), "
        "MIN(v * v + 2.0 * v + 1.0), MAX(v * v - 2.0 * v + 1.0), "
        "SUM(CASE WHEN v >= 0.25 AND v <= 0.75 THEN 1 ELSE 0 END) "
        "FROM big WHERE k = {arg} AND v >= 0.0")

    def fresh_server(**db_kwargs):
        database = Database(workers=1, **db_kwargs)
        database.execute("CREATE TABLE big (k INTEGER, v DOUBLE)")
        table = database.storage.table("big")
        table.column("k").extend(i % GROUP_COUNT for i in range(rows))
        table.column("v").extend(rng.random() for _ in range(rows))
        return database, DatabaseServer(database)

    def measure(run_one) -> float:
        samples = []
        for index in range(repeats):
            start = time.perf_counter()
            run_one(index)
            samples.append(time.perf_counter() - start)
        samples.sort()
        return samples[len(samples) // 2]

    results: dict[str, dict] = {}

    # cold: no caches, distinct literal every time -> full parse + plan
    database, server = fresh_server(plan_cache=0)
    connection = Connection.connect_in_process(server)
    cold_s = measure(lambda i: connection.execute(
        template.format(arg=i % GROUP_COUNT)))
    connection.close()
    database.close()

    # plan-cached: identical statement, plan cache on, result cache off
    database, server = fresh_server()
    connection = Connection.connect_in_process(server)
    warm_sql = template.format(arg=7)
    connection.execute(warm_sql)
    plan_cached_s = measure(lambda i: connection.execute(warm_sql))
    plan_hits = database.cache_counters()["plan_cache_hits"]
    connection.close()
    database.close()

    # prepared: parse once, bind a different argument per execution
    database, server = fresh_server()
    connection = Connection.connect_in_process(server)
    handle = connection.prepare(
        "fastpath", template.format(arg="?"))
    prepared_s = measure(lambda i: handle.execute([i % GROUP_COUNT]))
    connection.close()
    database.close()

    # result-cached: identical statement with the result cache enabled
    database, server = fresh_server(result_cache_bytes=8 << 20)
    connection = Connection.connect_in_process(server)
    connection.execute(warm_sql)
    result_cached_s = measure(lambda i: connection.execute(warm_sql))
    result_hits = database.cache_counters()["result_cache_hits"]
    connection.close()
    database.close()

    results["prepared_repeat"] = {
        "rows": rows,
        "repeats": repeats,
        "cold_parse_ms": round(cold_s * 1000, 4),
        "plan_cached_ms": round(plan_cached_s * 1000, 4),
        "prepared_ms": round(prepared_s * 1000, 4),
        "result_cached_ms": round(result_cached_s * 1000, 4),
        "prepared_speedup_vs_cold": round(cold_s / max(prepared_s, 1e-9), 2),
        "plan_cached_speedup_vs_cold": round(
            cold_s / max(plan_cached_s, 1e-9), 2),
        "result_cached_speedup_vs_cold": round(
            cold_s / max(result_cached_s, 1e-9), 2),
        "plan_cache_hits": plan_hits,
        "result_cache_hits": result_hits,
    }
    return results


def run_idle_connections(*, quick: bool = False) -> dict:
    """Thousands of open-but-idle connections against the async front end.

    The event loop holds every idle connection without a thread each; the
    measurement is (a) that the connections *can* be held, and (b) what the
    idle crowd costs the 16 active clients in tail latency.  Scales the
    idle count down gracefully when RLIMIT_NOFILE is too small (each
    in-process TCP connection costs two descriptors).
    """
    import resource
    import threading as _threading

    from repro.netproto.client import Connection, ConnectionInfo
    from repro.netproto.server import (
        AsyncSocketServer,
        DatabaseServer,
        ServerLimits,
    )

    idle_target = 100 if quick else 2_000
    active_clients = 4 if quick else 16
    queries_per_client = 8 if quick else 24
    rows = 5_000 if quick else 20_000

    soft_limit, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    fd_budget = max(16, (soft_limit - 256) // 3)
    idle_count = min(idle_target, fd_budget)

    rng = random.Random(13)
    database = Database(workers=2, result_cache_bytes=8 << 20)
    database.execute("CREATE TABLE big (k INTEGER, v DOUBLE)")
    table = database.storage.table("big")
    table.column("k").extend(i % GROUP_COUNT for i in range(rows))
    table.column("v").extend(rng.random() for _ in range(rows))
    limits = ServerLimits(max_concurrent_queries=8, max_queue_depth=512,
                          max_queue_wait=60.0,
                          max_sessions=idle_count + active_clients + 8)
    server = DatabaseServer(database, limits=limits)
    front = AsyncSocketServer(server, host="127.0.0.1", port=0)
    host, port = front.start_background()
    info = ConnectionInfo(host=host, port=port)

    open_start = time.perf_counter()
    idle = [Connection.connect_tcp(info) for _ in range(idle_count)]
    open_seconds = time.perf_counter() - open_start

    sql = "SELECT COUNT(*), SUM(v) FROM big WHERE v > 0.5"
    samples: list[float] = []
    lock = _threading.Lock()
    barrier = _threading.Barrier(active_clients + 1)

    def active_worker() -> None:
        connection = Connection.connect_tcp(info)
        local = []
        barrier.wait()
        for _ in range(queries_per_client):
            start = time.perf_counter()
            connection.execute(sql)
            local.append(time.perf_counter() - start)
        connection.close()
        with lock:
            samples.extend(local)

    threads = [_threading.Thread(target=active_worker)
               for _ in range(active_clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start

    # one PREPARE round trip over the async front end (the CI smoke path)
    probe = Connection.connect_tcp(info)
    handle = probe.prepare("idle_probe",
                           "SELECT COUNT(*) FROM big WHERE k = ?")
    prepared_ok = handle.execute([3]).scalar() is not None
    probe.close()

    open_connections = server.active_sessions
    for connection in idle:
        connection.close()
    front.stop()
    database.close()

    samples.sort()
    executed = len(samples)
    return {"idle_connections": {
        "idle_connections": idle_count,
        "idle_target": idle_target,
        "scaled_down": idle_count < idle_target,
        "nofile_soft_limit": soft_limit,
        "active_clients": active_clients,
        "queries_total": executed,
        "open_seconds": round(open_seconds, 3),
        "connects_per_sec": round(idle_count / max(open_seconds, 1e-9)),
        "wall_seconds": round(wall, 6),
        "queries_per_sec": round(executed / wall) if wall > 0 else None,
        "latency_p50_ms": round(samples[executed // 2] * 1000, 3),
        "latency_p99_ms": round(
            samples[min(executed - 1, int(executed * 0.99))] * 1000, 3),
        "peak_open_connections": open_connections,
        "prepared_round_trip_ok": prepared_ok,
        "front_end": "async",
    }}


def run_netproto(*, quick: bool = False) -> dict:
    row_counts = [1_000, 10_000] if quick else [10_000, 100_000]
    repeat = 2 if quick else 5
    results: dict[str, dict] = {}
    for rows in row_counts:
        result = build_transfer_result(rows)
        for codec in (CODEC_NONE, CODEC_ZLIB):
            legacy = _bench_legacy(result, codec, repeat)
            columnar = _bench_columnar(result, codec, repeat)
            speedup = (legacy["encode_decode_seconds"]
                       / max(columnar["encode_decode_seconds"], 1e-9))
            materialised_speedup = (
                legacy["encode_decode_seconds"]
                / max(columnar["encode_seconds"]
                      + columnar["decode_materialised_seconds"], 1e-9))
            results[f"transfer_{rows}_{codec}"] = {
                "rows": rows,
                "columns": 2,
                "codec": codec,
                "legacy": legacy,
                "columnar": columnar,
                "columnar_speedup": round(speedup, 1),
                "columnar_speedup_materialised": round(materialised_speedup, 1),
                "wire_bytes_ratio_legacy_over_columnar": round(
                    legacy["wire_bytes"] / max(columnar["wire_bytes"], 1), 2),
            }
        # low-cardinality string transfer: dictionary encoding (TAG_DICT,
        # protocol v3) vs plain offsets+blob columnar (v2) vs legacy
        string_result = build_string_transfer_result(rows)
        legacy = _bench_legacy(string_result, CODEC_NONE, repeat)
        columnar_v2 = _bench_columnar(string_result, CODEC_NONE, repeat,
                                      protocol_version=2)
        columnar_dict = _bench_columnar(string_result, CODEC_NONE, repeat,
                                        protocol_version=3)
        results[f"string_transfer_{rows}_none"] = {
            "rows": rows,
            "columns": 1,
            "codec": CODEC_NONE,
            "legacy": legacy,
            "columnar_v2": columnar_v2,
            "columnar_dict": columnar_dict,
            "dict_wire_bytes_saved_vs_v2":
                columnar_v2["wire_bytes"] - columnar_dict["wire_bytes"],
            "wire_bytes_ratio_v2_over_dict": round(
                columnar_v2["wire_bytes"]
                / max(columnar_dict["wire_bytes"], 1), 2),
            "wire_bytes_ratio_legacy_over_dict": round(
                legacy["wire_bytes"] / max(columnar_dict["wire_bytes"], 1), 2),
        }
    results.update(run_row_fetch(quick=quick))
    results.update(run_concurrency(quick=quick))
    results.update(run_prepared(quick=quick))
    results.update(run_idle_connections(quick=quick))
    return {
        "suite": "netproto-columnar-transfer",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "row_counts": row_counts,
        "results": results,
    }


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def _print_sqldb(report: dict) -> None:
    for name, entry in report["results"].items():
        if name == "obs_overhead":
            verdict = "ok" if entry["within_budget"] else "OVER BUDGET"
            print(f"  {name:>16}: bare {entry['bare_seconds'] * 1000:.2f} ms "
                  f"-> instrumented {entry['instrumented_seconds'] * 1000:.2f} "
                  f"ms  ({entry['overhead_ratio']}x, budget "
                  f"{entry['budget_ratio']}x: {verdict})")
            continue
        speedup = entry.get("speedup_vs_seed")
        suffix = f"  ({speedup}x vs seed)" if speedup else ""
        print(f"  {name:>16}: {entry['seconds'] * 1000:8.2f} ms  "
              f"{entry['rows_per_sec']:>12,} rows/sec{suffix}")


def _print_netproto(report: dict) -> None:
    for name, entry in report["results"].items():
        if name == "prepared_repeat":
            print(f"  {name:>24}: cold {entry['cold_parse_ms']:.3f} ms -> "
                  f"plan-cached {entry['plan_cached_ms']:.3f} ms, "
                  f"prepared {entry['prepared_ms']:.3f} ms "
                  f"({entry['prepared_speedup_vs_cold']}x), "
                  f"result-cached {entry['result_cached_ms']:.3f} ms "
                  f"({entry['result_cached_speedup_vs_cold']}x)")
            continue
        if name == "idle_connections":
            print(f"  {name:>24}: {entry['idle_connections']} idle + "
                  f"{entry['active_clients']} active  "
                  f"p50 {entry['latency_p50_ms']:.2f} ms  "
                  f"p99 {entry['latency_p99_ms']:.2f} ms  "
                  f"(opened in {entry['open_seconds']}s)")
            continue
        if name == "concurrency_cache_counters":
            continue
        if "median_ms" in entry:
            print(f"  {name:>24}: median {entry['median_ms']:8.2f} ms  "
                  f"min {entry['min_ms']:8.2f} ms  "
                  f"IQR {entry['iqr_ms']:6.2f} ms  (n={entry['n']})")
            continue
        if "clients" in entry:
            print(f"  {name:>24}: {entry['queries_per_sec']:>6,} q/s  "
                  f"p50 {entry['latency_p50_ms']:8.2f} ms  "
                  f"p99 {entry['latency_p99_ms']:9.2f} ms  "
                  f"({entry['queries_total']} queries, "
                  f"{entry['rejected']} rejected)")
            continue
        legacy_ms = entry["legacy"]["encode_decode_seconds"] * 1000
        if "columnar_dict" in entry:
            print(f"  {name:>24}: v2 {entry['columnar_v2']['wire_bytes']:,} "
                  f"wire bytes -> dict {entry['columnar_dict']['wire_bytes']:,} "
                  f"({entry['wire_bytes_ratio_v2_over_dict']}x smaller, "
                  f"legacy {legacy_ms:.2f} ms)")
            continue
        columnar_ms = entry["columnar"]["encode_decode_seconds"] * 1000
        print(f"  {name:>24}: legacy {legacy_ms:8.2f} ms -> "
              f"columnar {columnar_ms:7.2f} ms  "
              f"({entry['columnar_speedup']}x, "
              f"{entry['columnar']['wire_bytes']:,} wire bytes)")


def _print_persist(report: dict) -> None:
    for name, entry in report["results"].items():
        seconds = entry["seconds"]
        extra = ""
        if "rows_per_sec" in entry and entry["rows_per_sec"]:
            extra = f"  {entry['rows_per_sec']:>12,} rows/sec"
        if "wal_overhead_vs_memory" in entry:
            extra += f"  ({entry['wal_overhead_vs_memory']}x vs memory)"
        if "file_bytes" in entry:
            extra += f"  ({entry['file_bytes']:,} file bytes)"
        if "wal_rows_replayed" in entry:
            extra += f"  ({entry['wal_rows_replayed']:,} WAL rows replayed)"
        if "statement_p50_ms" in entry:
            extra += (f"  (p50 {entry['statement_p50_ms']} ms/statement, "
                      f"next read {entry['read_after_ms']} ms)")
        if "first_string_query_seconds" in entry:
            extra += (f"  ({entry['wal_records_replayed']:,} WAL records; "
                      f"first string query at "
                      f"{entry['first_string_query_seconds']:.3f} s)")
        print(f"  {name:>32}: {seconds * 1000:9.2f} ms{extra}")


SUITES = {
    "sqldb": (run_sqldb, "BENCH_sqldb.json", _print_sqldb),
    "netproto": (run_netproto, "BENCH_netproto.json", _print_netproto),
    "persist": (run_persist, "BENCH_persist.json", _print_persist),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=[*SUITES, "all"], default="all",
                        help="which benchmark suite to run (default: all)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run: smaller row counts, fewer repeats")
    parser.add_argument("--output-dir", default=".",
                        help="directory for the BENCH_*.json reports")
    args = parser.parse_args()

    names = list(SUITES) if args.suite == "all" else [args.suite]
    exit_code = 0
    for name in names:
        runner, filename, printer = SUITES[name]
        report = runner(quick=args.quick)
        output = Path(args.output_dir) / filename
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {output}")
        printer(report)
        # --quick doubles as the CI gate: observability must stay within
        # its overhead budget or the run fails the build
        obs = report.get("results", {}).get("obs_overhead")
        if args.quick and obs is not None and not obs["within_budget"]:
            print(f"FAIL: observability overhead {obs['overhead_ratio']}x "
                  f"exceeds the {obs['budget_ratio']}x budget")
            exit_code = 1
    if exit_code:
        raise SystemExit(exit_code)


if __name__ == "__main__":
    main()
