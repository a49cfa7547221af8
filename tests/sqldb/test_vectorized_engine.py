"""Tests for the vectorised execution engine.

Covers the storage layer's zero-copy numpy handoff, the hash-join vs
nested fallback equivalence, hash aggregation vs the per-group path, and the
NULL-ordering guarantees of the vectorised ORDER BY.
"""

import numpy as np
import pytest

from repro.errors import TypeMismatchError
from repro.sqldb.database import Database
from repro.sqldb.schema import ColumnDef, TableSchema
from repro.sqldb.storage import Table
from repro.sqldb.types import ColumnType, SQLType


def make_table(name: str = "t") -> Table:
    return Table(TableSchema(name, [
        ColumnDef("i", ColumnType(SQLType.INTEGER)),
        ColumnDef("s", ColumnType(SQLType.STRING)),
    ]))


# --------------------------------------------------------------------------- #
# storage: to_numpy views of the stored buffers, new buffers on rewrite
# --------------------------------------------------------------------------- #
class TestColumnArrayCache:
    def test_repeated_to_numpy_returns_cached_array(self):
        table = make_table()
        table.insert_rows([(1, "a"), (2, "b")])
        column = table.column("i")
        first = column.to_numpy()
        # no re-materialisation: both are views of the stored buffer
        assert np.shares_memory(column.to_numpy(), first)

    def test_cached_array_is_read_only(self):
        table = make_table()
        table.insert_row([1, "a"])
        array = table.column("i").to_numpy()
        with pytest.raises(ValueError):
            array[0] = 99

    def test_append_invalidates_cache(self):
        table = make_table()
        table.insert_row([1, "a"])
        column = table.column("i")
        first = column.to_numpy()
        column.append(2)
        second = column.to_numpy()
        assert second is not first
        assert second.tolist() == [1, 2]

    def test_extend_invalidates_cache_and_bulk_coerces(self):
        table = make_table()
        column = table.column("i")
        first = column.to_numpy()
        column.extend(["3", 4.0, True])
        assert column.values == [3, 4, 1]
        assert column.to_numpy() is not first
        with pytest.raises(TypeMismatchError):
            column.extend([1.5])

    def test_delete_update_truncate_invalidate_cache(self):
        table = make_table()
        table.insert_rows([(1, "a"), (2, "b"), (3, "c")])
        column = table.column("i")

        before = column.to_numpy()
        table.delete_rows([True, False, True])
        assert column.to_numpy() is not before
        assert column.to_numpy().tolist() == [1, 3]

        before = column.to_numpy()
        table.update_rows([True, False], {"i": [9, 9]})
        assert column.to_numpy() is not before
        assert column.to_numpy().tolist() == [9, 3]

        before = column.to_numpy()
        table.truncate()
        assert len(column.to_numpy()) == 0

    def test_delete_rows_count_with_list_and_array_masks(self):
        table = make_table()
        table.insert_rows([(1, "a"), (2, "b"), (3, "c"), (4, "d")])
        assert table.delete_rows([True, False, False, True]) == 2
        assert table.delete_rows(np.array([False, True])) == 1
        assert [row[0] for row in table.rows()] == [4]


# --------------------------------------------------------------------------- #
# joins: hash path vs nested fallback must agree
# --------------------------------------------------------------------------- #
def join_db() -> Database:
    database = Database()
    database.execute("CREATE TABLE l (k INTEGER, tag STRING)")
    database.execute("CREATE TABLE r (k INTEGER, score DOUBLE)")
    database.execute(
        "INSERT INTO l VALUES (1, 'one'), (2, 'two'), (2, 'dos'), "
        "(NULL, 'null-left'), (5, 'five')")
    database.execute(
        "INSERT INTO r VALUES (1, 10.0), (2, 20.0), (2, 21.0), "
        "(NULL, -1.0), (7, 70.0)")
    return database


# appending AND 1 = 1 defeats equi-detection, forcing the generic
# cross-product-mask path while keeping the condition's meaning
FALLBACK_SUFFIX = " AND 1 = 1"


class TestJoinEquivalence:
    def test_inner_join_with_duplicates_and_null_keys(self):
        db = join_db()
        base = "SELECT l.k, l.tag, r.score FROM l JOIN r ON l.k = r.k"
        hash_rows = db.execute(base).fetchall()
        fallback_rows = db.execute(base + FALLBACK_SUFFIX).fetchall()
        assert hash_rows == fallback_rows
        # 1x1 match + 2x2 duplicate matches; NULL keys never match
        assert len(hash_rows) == 5
        assert all(row[0] is not None for row in hash_rows)

    def test_left_join_unmatched_rows_agree(self):
        db = join_db()
        base = "SELECT l.tag, r.score FROM l LEFT JOIN r ON l.k = r.k"
        hash_rows = db.execute(base).fetchall()
        fallback_rows = db.execute(base + FALLBACK_SUFFIX).fetchall()
        assert hash_rows == fallback_rows
        unmatched = [row for row in hash_rows if row[1] is None]
        assert sorted(row[0] for row in unmatched) == ["five", "null-left"]

    def test_multi_key_and_of_equalities(self):
        db = Database()
        db.execute("CREATE TABLE a (x INTEGER, y INTEGER, v STRING)")
        db.execute("CREATE TABLE b (x INTEGER, y INTEGER, w STRING)")
        db.execute("INSERT INTO a VALUES (1, 1, 'a11'), (1, 2, 'a12'), (2, 1, 'a21')")
        db.execute("INSERT INTO b VALUES (1, 1, 'b11'), (1, 2, 'b12'), (3, 3, 'b33')")
        base = ("SELECT a.v, b.w FROM a JOIN b ON a.x = b.x AND a.y = b.y")
        assert db.execute(base).fetchall() == db.execute(base + FALLBACK_SUFFIX).fetchall()
        assert db.execute(base).fetchall() == [("a11", "b11"), ("a12", "b12")]

    def test_non_equi_condition_uses_vectorised_fallback(self):
        db = Database()
        db.execute("CREATE TABLE a (x INTEGER)")
        db.execute("CREATE TABLE b (y INTEGER)")
        db.execute("INSERT INTO a VALUES (1), (2), (3)")
        db.execute("INSERT INTO b VALUES (2), (3)")
        rows = db.execute("SELECT a.x, b.y FROM a JOIN b ON a.x < b.y").fetchall()
        expected = [(x, y) for x in (1, 2, 3) for y in (2, 3) if x < y]
        assert rows == expected

    def test_left_join_with_non_equi_condition(self):
        db = Database()
        db.execute("CREATE TABLE a (x INTEGER)")
        db.execute("CREATE TABLE b (y INTEGER)")
        db.execute("INSERT INTO a VALUES (1), (9)")
        db.execute("INSERT INTO b VALUES (5)")
        rows = db.execute("SELECT a.x, b.y FROM a LEFT JOIN b ON a.x < b.y").fetchall()
        assert rows == [(1, 5), (9, None)]

    def test_swapped_equi_sides_detected(self):
        db = join_db()
        forward = db.execute("SELECT l.tag, r.score FROM l JOIN r ON l.k = r.k").fetchall()
        swapped = db.execute("SELECT l.tag, r.score FROM l JOIN r ON r.k = l.k").fetchall()
        assert forward == swapped

    def test_string_keys_hash_join(self):
        db = Database()
        db.execute("CREATE TABLE a (name STRING)")
        db.execute("CREATE TABLE b (name STRING, v INTEGER)")
        db.execute("INSERT INTO a VALUES ('x'), ('y'), (NULL)")
        db.execute("INSERT INTO b VALUES ('y', 1), (NULL, 2)")
        base = "SELECT a.name, b.v FROM a JOIN b ON a.name = b.name"
        assert db.execute(base).fetchall() == [("y", 1)]
        assert db.execute(base).fetchall() == db.execute(base + FALLBACK_SUFFIX).fetchall()


# --------------------------------------------------------------------------- #
# aggregation: hash aggregation vs the per-group path must agree
# --------------------------------------------------------------------------- #
def agg_db() -> Database:
    database = Database()
    database.execute("CREATE TABLE m (k STRING, g INTEGER, v DOUBLE)")
    database.execute(
        "INSERT INTO m VALUES "
        "('a', 1, 1.0), ('b', 1, 2.0), ('a', 2, NULL), ('a', 1, 4.0), "
        "(NULL, 2, 5.0), ('b', NULL, 6.0), ('a', 2, 7.0)")
    return database


class TestAggregationEquivalence:
    def test_group_by_with_null_keys_and_null_values(self):
        db = agg_db()
        rows = db.execute(
            "SELECT k, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) "
            "FROM m GROUP BY k").fetchall()
        # first-appearance order: 'a', 'b', NULL
        assert rows == [
            ("a", 4, 3, 12.0, 4.0, 1.0, 7.0),
            ("b", 2, 2, 8.0, 4.0, 2.0, 6.0),
            (None, 1, 1, 5.0, 5.0, 5.0, 5.0),
        ]

    def test_numeric_key_vector_path_matches_per_group_path(self):
        db = Database()
        db.execute("CREATE TABLE n (g INTEGER, v DOUBLE)")
        for i in range(50):
            db.execute(f"INSERT INTO n VALUES ({i % 7}, {i * 0.5})")
        db.execute("CREATE FUNCTION ident(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return x }")
        vectorised = db.execute(
            "SELECT g, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) "
            "FROM n GROUP BY g").fetchall()
        # a UDF in the select list routes the whole query to the per-group path
        per_group = db.execute(
            "SELECT ident(g), COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) "
            "FROM n GROUP BY g").fetchall()
        assert vectorised == per_group

    def test_null_key_object_path_matches_per_group_path(self):
        db = agg_db()
        db.execute("CREATE FUNCTION identd(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return x }")
        hashed = db.execute(
            "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM m GROUP BY g").fetchall()
        per_group = db.execute(
            "SELECT identd(g), COUNT(*), SUM(v), MIN(v), MAX(v) FROM m GROUP BY g"
        ).fetchall()
        assert hashed == per_group

    def test_udf_aggregate_runs_once_per_group(self):
        db = Database()
        db.execute("CREATE TABLE t (g INTEGER, v DOUBLE)")
        db.execute("INSERT INTO t VALUES (1, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)")
        db.execute("CREATE FUNCTION total(v DOUBLE) RETURNS DOUBLE "
                   "LANGUAGE PYTHON { return float(numpy.sum(v)) }")
        rows = db.execute("SELECT g, total(v) FROM t GROUP BY g").fetchall()
        assert rows == [(1, 3.0), (2, 3.0), (3, 4.0)]
        assert db.udf_runtime.invocation_counts["total"] == 3

    def test_empty_groups_and_empty_input(self):
        db = agg_db()
        empty = db.execute("SELECT k, COUNT(*) FROM m WHERE v > 100 GROUP BY k")
        assert empty.fetchall() == []
        implicit = db.execute("SELECT COUNT(*), COUNT(v), SUM(v), AVG(v) "
                              "FROM m WHERE v > 100")
        assert implicit.fetchall() == [(0, 0, None, None)]

    def test_having_filters_groups(self):
        db = agg_db()
        rows = db.execute(
            "SELECT g, COUNT(*) FROM m GROUP BY g HAVING COUNT(*) > 2").fetchall()
        assert rows == [(1, 3), (2, 3)]

    def test_aggregate_arithmetic_and_group_key_expressions(self):
        db = agg_db()
        rows = db.execute(
            "SELECT g, SUM(v) / COUNT(v) AS manual_avg, AVG(v) "
            "FROM m WHERE v IS NOT NULL GROUP BY g ORDER BY g").fetchall()
        for _, manual_avg, avg in rows:
            assert manual_avg == pytest.approx(avg)

    def test_count_distinct_matches_python(self):
        db = agg_db()
        rows = db.execute("SELECT g, COUNT(DISTINCT k) FROM m GROUP BY g").fetchall()
        assert rows == [(1, 2), (2, 1), (None, 1)]

    def test_group_output_preserves_first_appearance_order(self):
        db = Database()
        db.execute("CREATE TABLE t (k INTEGER)")
        db.execute("INSERT INTO t VALUES (30), (10), (30), (20), (10)")
        rows = db.execute("SELECT k, COUNT(*) FROM t GROUP BY k").fetchall()
        assert rows == [(30, 2), (10, 2), (20, 1)]

    def test_median_and_stddev_still_python_tier(self):
        db = Database()
        db.execute("CREATE TABLE t (g INTEGER, v INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 1), (1, 2), (1, 3), (2, 5), (2, 7)")
        rows = db.execute("SELECT g, MEDIAN(v), STDDEV(v) FROM t GROUP BY g").fetchall()
        assert rows[0][0] == 1 and rows[0][1] == 2
        assert rows[0][2] == pytest.approx(1.0)
        assert rows[1][1] == 6.0


# --------------------------------------------------------------------------- #
# ORDER BY: NULLs sort last under both directions
# --------------------------------------------------------------------------- #
class TestOrderByNulls:
    @pytest.fixture()
    def db(self) -> Database:
        database = Database()
        database.execute("CREATE TABLE t (i INTEGER, s STRING)")
        database.execute(
            "INSERT INTO t VALUES (2, 'b'), (NULL, 'n'), (1, 'a'), (3, NULL)")
        return database

    def test_nulls_last_ascending(self, db):
        rows = [r[0] for r in db.execute("SELECT i FROM t ORDER BY i").rows()]
        assert rows == [1, 2, 3, None]

    def test_nulls_last_descending(self, db):
        rows = [r[0] for r in db.execute("SELECT i FROM t ORDER BY i DESC").rows()]
        assert rows == [3, 2, 1, None]

    def test_string_keys_nulls_last_both_directions(self, db):
        asc = [r[0] for r in db.execute("SELECT s FROM t ORDER BY s").rows()]
        desc = [r[0] for r in db.execute("SELECT s FROM t ORDER BY s DESC").rows()]
        assert asc == ["a", "b", "n", None]
        assert desc == ["n", "b", "a", None]

    def test_multi_key_lexsort_matches_python_sort(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        values = [(i % 3, (i * 7) % 5) for i in range(40)]
        for a, b in values:
            db.execute(f"INSERT INTO t VALUES ({a}, {b})")
        rows = db.execute("SELECT a, b FROM t ORDER BY a, b DESC").fetchall()
        assert rows == sorted(values, key=lambda t: (t[0], -t[1]))


# --------------------------------------------------------------------------- #
# DML through vectorised masks
# --------------------------------------------------------------------------- #
class TestVectorisedDML:
    def test_delete_with_vector_mask(self):
        db = Database()
        db.execute("CREATE TABLE t (i INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2), (3), (4)")
        result = db.execute("DELETE FROM t WHERE i >= 3")
        assert result.affected_rows == 2
        assert db.execute("SELECT i FROM t").fetchall() == [(1,), (2,)]

    def test_update_with_vector_mask_invalidates_scan_cache(self):
        db = Database()
        db.execute("CREATE TABLE t (i INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        assert db.execute("SELECT SUM(i) FROM t").scalar() == 6
        db.execute("UPDATE t SET i = i * 10 WHERE i > 1")
        assert db.execute("SELECT SUM(i) FROM t").scalar() == 51


# --------------------------------------------------------------------------- #
# review regressions: semantics the vector fast paths must not change
# --------------------------------------------------------------------------- #
class TestVectorPathSemantics:
    def test_ambiguous_join_column_still_raises(self):
        db = Database()
        db.execute("CREATE TABLE a (id INTEGER, x INTEGER)")
        db.execute("CREATE TABLE b (id INTEGER, x INTEGER)")
        db.execute("CREATE TABLE c (k INTEGER, x INTEGER)")
        db.execute("INSERT INTO a VALUES (1, 1)")
        db.execute("INSERT INTO b VALUES (1, 1)")
        db.execute("INSERT INTO c VALUES (99, 1)")
        from repro.errors import ExecutionError
        with pytest.raises(ExecutionError, match="ambiguous"):
            db.execute("SELECT c.k FROM a JOIN b ON a.id = b.id JOIN c ON x = a.id")

    def test_int64_sum_overflow_stays_exact(self):
        db = Database()
        db.execute("CREATE TABLE big (v BIGINT, g INTEGER)")
        for _ in range(3):
            db.execute("INSERT INTO big VALUES (4611686018427387904, 1)")
        assert db.execute("SELECT SUM(v) FROM big").scalar() == 3 * 4611686018427387904
        assert db.execute("SELECT g, SUM(v) FROM big GROUP BY g").fetchall() == \
            [(1, 3 * 4611686018427387904)]

    def test_case_over_vector_column_yields_python_values(self):
        import json

        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (-2)")
        result = db.execute("SELECT CASE WHEN x > 0 THEN x ELSE 0 END FROM t")
        assert all(type(v) is int for v in result.columns[0].values)
        assert json.dumps(list(result.rows())) == "[[1], [0]]"

    def test_mutating_udf_fails_consistently(self):
        from repro.errors import UDFError

        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        db.execute("CREATE FUNCTION mut(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { x[0] = 9; return x }")
        with pytest.raises(UDFError):
            db.execute("SELECT mut(x) FROM t")
        with pytest.raises(UDFError):
            db.execute("SELECT mut(x) FROM t WHERE x > 1")
        assert db.execute("SELECT x FROM t ORDER BY x").fetchall() == [(1,), (2,), (3,)]

    def test_int64_arithmetic_overflow_stays_exact(self):
        db = Database()
        db.execute("CREATE TABLE b (a BIGINT)")
        db.execute("INSERT INTO b VALUES (4611686018427387904)")
        assert db.execute("SELECT a + a FROM b").scalar() == 2 ** 63
        assert db.execute("SELECT a * 4 FROM b").scalar() == 2 ** 64
        assert db.execute("SELECT 0 - a FROM b").scalar() == -(2 ** 62)
