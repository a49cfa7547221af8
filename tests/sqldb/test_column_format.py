"""The stored column format: typed append-only vectors.

Covers the sorted string dictionary merged on append, copy-on-write
rewrites, values equal to a NULL placeholder, and the int64 range of the
integer buffers — each checked in memory and, where it matters, across a
checkpoint and a reopen.
"""

import random
import shutil

import numpy as np
import pytest

from repro.errors import TypeMismatchError
from repro.sqldb.database import Database
from repro.sqldb.persist import read_wal, wal_path_for
from repro.sqldb.schema import ColumnDef
from repro.sqldb.storage import Column
from repro.sqldb.types import ColumnType, SQLType


def rows(db, sql):
    return db.execute(sql).fetchall()


class TestStringDictionaryMerge:
    FIRST = ["m", "p", None, "m", "q"]
    # sorts before, between and after the existing entries
    SECOND = ["a", "n", "m", None, "zz", "", "a"]

    @pytest.fixture
    def db(self):
        database = Database()
        database.execute("CREATE TABLE t (id INTEGER, name STRING)")
        database.storage.table("t").insert_rows(enumerate(self.FIRST))
        # the first scan fixes a snapshot of the first dictionary
        database.execute("SELECT name FROM t WHERE name > 'a'")
        database.storage.table("t").insert_rows(
            enumerate(self.SECOND, start=len(self.FIRST)))
        return database

    @property
    def names(self):
        return self.FIRST + self.SECOND

    def test_dictionary_stays_sorted_and_codes_decode(self, db):
        vector = db.storage.table("t").column("name").to_vector()
        dictionary = vector.dictionary.tolist()
        assert dictionary == sorted(dictionary)
        assert vector.to_list() == self.names

    def test_where_less_than(self, db):
        expected = [(i,) for i, name in enumerate(self.names)
                    if name is not None and name < "n"]
        assert rows(db, "SELECT id FROM t WHERE name < 'n'") == expected

    def test_min_max(self, db):
        present = [name for name in self.names if name is not None]
        assert rows(db, "SELECT MIN(name), MAX(name) FROM t") \
            == [(min(present), max(present))]

    def test_order_by(self, db):
        present = sorted(name for name in self.names if name is not None)
        nulls = [None] * self.names.count(None)
        assert rows(db, "SELECT name FROM t ORDER BY name") \
            == [(name,) for name in present + nulls]

    def test_group_by(self, db):
        got = sorted(rows(db, "SELECT name, COUNT(*) FROM t GROUP BY name"),
                     key=lambda row: (row[0] is None, row[0] or ""))
        keys = sorted(set(self.names), key=lambda n: (n is None, n or ""))
        assert got == [(key, self.names.count(key)) for key in keys]

    def test_rewrites_drop_unreferenced_entries(self, db):
        db.execute("DELETE FROM t WHERE name < 'n'")
        db.execute("UPDATE t SET name = 'z' WHERE name = 'zz'")
        vector = db.storage.table("t").column("name").to_vector()
        assert vector.dictionary.tolist() == ["n", "p", "q", "z"]
        assert vector.to_list() == ["p", None, "q", "n", None, "z"]


    def test_unseen_strings_sorting_last_keep_the_stored_codes(self, db):
        column = db.storage.table("t").column("name")
        before = column.to_vector()
        column.extend(["zzz", "zzzz"])
        after = column.to_vector()
        # codes of the stored rows are unchanged: nothing was remapped
        assert np.array_equal(after.data[:len(before)], before.data)
        assert before.to_list() == self.names
        assert after.to_list() == self.names + ["zzz", "zzzz"]

    def test_random_batches_match_python(self):
        rng = random.Random(7)
        pool = [f"s{rng.randrange(10_000):05d}" for _ in range(300)]
        column = Column(ColumnDef("s", ColumnType(SQLType.STRING)))
        expected, snapshots = [], []
        for _ in range(60):
            batch = [None if rng.random() < 0.1 else rng.choice(pool)
                     for _ in range(rng.choice([1, 1, 3, 40]))]
            snapshots.append((column.to_vector(), list(expected)))
            column.extend(batch)
            expected.extend(batch)
            vector = column.to_vector()
            assert vector.to_list() == expected
            assert vector.dictionary.tolist() == sorted(
                set(vector.dictionary.tolist()))
        for snapshot, rows_then in snapshots:
            assert snapshot.to_list() == rows_then


class TestSnapshotReuse:
    @pytest.mark.parametrize("sql_type, values", [
        (SQLType.STRING, ["b", "a", "b"]),
        (SQLType.INTEGER, [1, None, 3]),
    ])
    def test_udf_array_is_built_once_per_state(self, sql_type, values):
        column = Column(ColumnDef("c", ColumnType(sql_type)))
        column.extend(values)
        first = column.to_numpy()
        assert column.to_numpy() is first
        column.extend(values[:1])
        second = column.to_numpy()
        assert second is not first
        assert first.tolist() == values
        assert second.tolist() == values + values[:1]


class TestBulkAssignment:
    def column(self):
        column = Column(ColumnDef("k", ColumnType(SQLType.INTEGER)))
        column.extend([9])
        return column

    def test_assigned_values_are_coerced(self):
        column = self.column()
        column.values = [1, "2", 3.0, None, True]
        assert column.values == [1, 2, 3, None, 1]

    def test_out_of_range_assignment_leaves_the_column(self):
        column = self.column()
        with pytest.raises(TypeMismatchError):
            column.values = [1, 2**64]
        assert column.values == [9]


def test_wal_replay_of_interleaved_single_row_inserts(tmp_path):
    path = tmp_path / "live.db"
    database = Database(path=str(path))
    database.execute("CREATE TABLE a (s STRING)")
    database.execute("CREATE TABLE b (k INTEGER)")
    database.execute("CHECKPOINT")
    rng = random.Random(3)
    for step in range(200):
        if step % 3:
            database.execute(f"INSERT INTO a VALUES ('u{rng.random()}')")
        else:
            database.execute(f"INSERT INTO b VALUES ({step})")
        if step in (90, 150):
            database.execute("DELETE FROM a WHERE s < 'u0.3'")
            database.execute("UPDATE b SET k = k + 1000 WHERE k < 60")
    expected = {name: rows(database, f"SELECT * FROM {name}")
                for name in ("a", "b")}
    crashed = tmp_path / "crash.db"
    shutil.copy(path, crashed)
    shutil.copy(wal_path_for(path), wal_path_for(crashed))
    database.close()
    records = read_wal(wal_path_for(crashed)).records
    assert {record["op"] for record in records} \
        == {"insert", "delete", "update"}
    reopened = Database(path=str(crashed))
    try:
        assert reopened.persistence.last_recovery.wal_records_replayed \
            == len(records)
        for name, table_rows in expected.items():
            assert rows(reopened, f"SELECT * FROM {name}") == table_rows
    finally:
        reopened.close()


class TestPlaceholderValuesBesideNulls:
    ROWS = [("", 0, False, 0.0, b""), (None, None, None, None, None),
            ("x", 5, True, 1.5, b"y"), ("", 0, False, 0.0, b"")]

    def test_survive_checkpoint_and_reopen(self, tmp_path):
        path = tmp_path / "placeholders.db"
        database = Database(path=str(path))
        database.execute("CREATE TABLE t (s STRING, i BIGINT, b BOOLEAN, "
                         "d DOUBLE, x BLOB)")
        database.storage.table("t").insert_rows(self.ROWS)
        database.execute("CHECKPOINT")
        database.close()
        reopened = Database(path=str(path))
        try:
            assert rows(reopened, "SELECT * FROM t") == self.ROWS
            assert rows(reopened, "SELECT COUNT(s), COUNT(i), COUNT(b), "
                                  "COUNT(d), COUNT(x) FROM t") == [(3,) * 5]
        finally:
            reopened.close()


class TestInt64Range:
    HUGE = 170141183460469231731687303715884105727

    @pytest.mark.parametrize("value", [2**63, -2**63 - 1, HUGE])
    def test_rejected_in_memory(self, value):
        db = Database()
        db.execute("CREATE TABLE t (k BIGINT, i INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 1)")
        with pytest.raises(TypeMismatchError):
            db.execute(f"INSERT INTO t VALUES ({value}, 2)")
        with pytest.raises(TypeMismatchError):
            db.execute(f"INSERT INTO t VALUES (2, {value})")
        assert rows(db, "SELECT COUNT(*), SUM(k) FROM t") == [(1, 1)]

    def test_bounds_are_accepted(self):
        db = Database()
        db.execute("CREATE TABLE t (k BIGINT)")
        db.execute(f"INSERT INTO t VALUES ({2**63 - 1}), ({-2**63})")
        assert rows(db, "SELECT k FROM t") == [(2**63 - 1,), (-2**63,)]

    def test_rejected_on_disk_then_checkpoint_and_reopen(self, tmp_path):
        path = tmp_path / "range.db"
        database = Database(path=str(path))
        database.execute("CREATE TABLE t (k BIGINT)")
        database.execute("INSERT INTO t VALUES (7)")
        with pytest.raises(TypeMismatchError):
            database.execute(f"INSERT INTO t VALUES (8), ({self.HUGE})")
        assert rows(database, "SELECT COUNT(*) FROM t") == [(1,)]
        database.execute("CHECKPOINT")
        database.close()
        reopened = Database(path=str(path))
        try:
            assert rows(reopened, "SELECT k FROM t") == [(7,)]
        finally:
            reopened.close()


def test_stored_buffers_cannot_be_unlocked_through_a_snapshot():
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    view = db.storage.table("t").column("k").to_numpy().view()
    with pytest.raises(ValueError):
        view.setflags(write=True)
    db.execute("INSERT INTO t VALUES (3)")  # appends still write
    assert np.array_equal(db.storage.table("t").column("k").to_numpy(),
                          [1, 2, 3])
