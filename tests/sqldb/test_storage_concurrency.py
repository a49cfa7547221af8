"""Snapshot isolation of the storage layer's append-only column buffers.

A scan is an O(1) snapshot of a column's buffers.  Appends write only past
the snapshot's end and UPDATE/DELETE/TRUNCATE build new buffers, so a
snapshot — and a streamed SELECT running lock-free on one — never observes a
later write, without any lock or cache invalidation.
"""

import sys
import threading

import numpy as np
import pytest

from repro.sqldb.database import Database
from repro.sqldb.schema import ColumnDef
from repro.sqldb.storage import Column
from repro.sqldb.types import ColumnType, SQLType
from repro.sqldb.vector import Vector


def make_column(values, sql_type=SQLType.INTEGER):
    column = Column(ColumnDef("c", ColumnType(sql_type)))
    column.extend(values)
    return column


def hammer(workers, fn):
    start = threading.Barrier(workers)
    errors = []

    def run():
        start.wait()
        try:
            for _ in range(200):
                fn()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors


def test_concurrent_scans_see_one_consistent_snapshot():
    column = make_column(range(1000))

    def scan():
        array = column.to_numpy()
        assert len(array) == 1000 and array[-1] == 999
        assert not array.flags.writeable

    hammer(4, scan)


def test_concurrent_appends_never_tear_a_snapshot():
    column = make_column(range(100))
    stop = threading.Event()

    def mutate():
        while not stop.is_set():
            column.extend([None, 1])  # grows the buffers and the mask

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    writer = threading.Thread(target=mutate)
    writer.start()
    try:
        for _ in range(300):
            vector = column.to_vector()
            # always a consistent prefix: data and mask of equal length
            assert vector.to_list()[:100] == list(range(100))
            if vector.mask is not None:
                assert len(vector.mask) == len(vector.data)
                assert vector.to_list()[100:] == [None, 1] * (
                    (len(vector) - 100) // 2)
    finally:
        stop.set()
        writer.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not writer.is_alive()
    assert len(column.to_numpy()) == len(column.values)


def test_concurrent_vector_scans_string_column():
    column = make_column([f"s_{i % 7}" if i % 5 else None
                          for i in range(500)], SQLType.STRING)

    def scan():
        vector = column.to_vector()
        assert isinstance(vector, Vector)
        assert len(vector) == 500
        assert vector[0] is None

    hammer(4, scan)


def test_scan_vector_range_slices_are_zero_copy_views():
    column = make_column(range(100))
    full = column.scan_vector(0, 100)
    part = column.scan_vector(10, 20)
    assert isinstance(part, np.ndarray)
    assert list(part) == list(range(10, 20))
    assert np.shares_memory(part, full)  # views of one buffer, no copy


def test_scan_vector_slices_share_vector_buffers():
    column = make_column([f"s_{i % 3}" for i in range(30)], SQLType.STRING)
    full = column.scan_vector(0, 30)
    part = column.scan_vector(5, 25)
    assert isinstance(part, Vector)
    assert len(part) == 20
    assert part.dictionary is full.dictionary
    assert part.to_list() == full.to_list()[5:25]


def test_append_leaves_earlier_snapshot_unchanged():
    column = make_column(range(10))
    before = column.scan_vector(0, 10)
    column.append(11)
    after = column.scan_vector(0, 11)
    assert len(before) == 10
    assert len(after) == 11


@pytest.mark.parametrize("workers", [2, 8])
def test_parallel_queries_share_scan_caches(workers):
    db = Database(workers=workers, morsel_rows=64, parallel_threshold=0)
    db.execute("CREATE TABLE t (k INTEGER, v DOUBLE)")
    table = db.storage.table("t")
    for i in range(1000):
        table.insert_row([i % 10, i * 0.25])
    try:
        expected = db.execute("SELECT k, SUM(v) FROM t GROUP BY k").fetchall()
        results = []

        def query():
            results.append(
                db.execute("SELECT k, SUM(v) FROM t GROUP BY k").fetchall())

        threads = [threading.Thread(target=query) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result == expected for result in results)
    finally:
        db.close()


MUTATIONS = {
    "insert": "INSERT INTO t VALUES (-1, 'aaa', NULL), (-2, 'zzz', 0.5)",
    "update": "UPDATE t SET name = 'changed', v = NULL WHERE k % 3 = 0",
    "delete": "DELETE FROM t WHERE k % 2 = 0",
    "truncate": "DELETE FROM t",
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_streamed_select_reads_rows_from_before_the_mutation(mutation):
    db = Database(morsel_rows=16)
    db.execute("CREATE TABLE t (k INTEGER, name STRING, v DOUBLE)")
    db.storage.table("t").insert_rows(
        [(k, f"n{k % 5}", None if k % 4 == 0 else k * 0.5)
         for k in range(200)])
    try:
        expected = db.execute("SELECT k, name, v FROM t").fetchall()
        stream = db.execute_stream("SELECT k, name, v FROM t")
        pieces = iter(stream)
        first = next(pieces).fetchall()
        db.execute(MUTATIONS[mutation])
        rest = [row for piece in pieces for row in piece.fetchall()]
        assert first + rest == expected
        assert db.execute("SELECT k, name, v FROM t").fetchall() != expected
    finally:
        db.close()
