"""Three-valued logic on the vectorised path.

Every test compares the NULL-aware vector kernels against the seed
row-at-a-time semantics: a plain-Python reference computed over the same
data (or the SQL-defined behaviour directly).  Covers the ISSUE checklist:
filters over NULLs, join keys containing NULL, COUNT(col) vs COUNT(*), and
dictionary-encoded GROUP BY equivalence.
"""

import numpy as np
import pytest

from repro.sqldb.database import Database
from repro.sqldb.vector import Vector


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE t (k INTEGER, v DOUBLE, name STRING, flag BOOLEAN)")
    table = database.storage.table("t")
    table.column("k").extend([1, 2, None, 1, 2, None, 3])
    table.column("v").extend([10.0, None, 30.0, 40.0, 5.0, None, 0.0])
    table.column("name").extend(["a", "b", None, "a", "", "b", None])
    table.column("flag").extend([True, None, False, True, None, False, True])
    return database


def rows(db, sql):
    return db.execute(sql).fetchall()


class TestNullFilters:
    def test_comparison_filter_excludes_nulls(self, db):
        # WHERE v > 5 : NULL comparisons are not true
        assert rows(db, "SELECT v FROM t WHERE v > 5") == [(10.0,), (30.0,), (40.0,)]

    def test_filter_runs_on_vector_path(self, db):
        """The predicate over a NULL-bearing column must stay typed."""
        column = db.storage.table("t").column("v")
        batch_column = column.scan_vector(0, len(column))
        assert isinstance(batch_column, Vector)
        assert batch_column.data.dtype == np.float64

    def test_negated_filter_still_excludes_nulls(self, db):
        # NOT (v > 5) is false for v NULL as well
        assert rows(db, "SELECT v FROM t WHERE NOT (v > 5)") == [(5.0,), (0.0,)]

    def test_null_never_equal_to_null(self, db):
        assert rows(db, "SELECT k FROM t WHERE v = v") \
            == [(1,), (None,), (1,), (2,), (3,)]

    def test_is_null_and_is_not_null(self, db):
        assert rows(db, "SELECT k FROM t WHERE v IS NULL") == [(2,), (None,)]
        assert len(rows(db, "SELECT k FROM t WHERE v IS NOT NULL")) == 5

    def test_kleene_and_or(self, db):
        # flag AND v > 5: NULL AND false = false (row excluded either way),
        # NULL AND true = NULL (excluded); OR keeps rows with one true side.
        assert rows(db, "SELECT k FROM t WHERE flag AND v > 5") == [(1,), (1,)]
        assert rows(db, "SELECT k FROM t WHERE flag OR v > 5") \
            == [(1,), (None,), (1,), (3,)]

    def test_kleene_truth_table_projected(self, db):
        db.execute("CREATE TABLE b3 (x BOOLEAN, y BOOLEAN)")
        table = db.storage.table("b3")
        values = [True, False, None]
        for x in values:
            for y in values:
                table.insert_row([x, y])
        result = db.execute("SELECT x AND y, x OR y FROM b3").fetchall()

        def k_and(x, y):
            if x is False or y is False:
                return False
            if x is None or y is None:
                return None
            return True

        def k_or(x, y):
            if x is True or y is True:
                return True
            if x is None or y is None:
                return None
            return False

        expected = [(k_and(x, y), k_or(x, y)) for x in values for y in values]
        assert result == expected

    def test_kleene_with_boolean_literal_operand(self, db):
        # regression: a scalar bool operand must not poison the Kleene masks
        # (~False on a Python bool is the *integer* -1)
        got = rows(db, "SELECT (v > 15) OR FALSE FROM t")
        assert got == [(False,), (None,), (True,), (True,),
                       (False,), (None,), (False,)]
        got = rows(db, "SELECT (v > 15) AND TRUE FROM t")
        assert got == [(False,), (None,), (True,), (True,),
                       (False,), (None,), (False,)]
        got = rows(db, "SELECT (v > 15) AND NULL FROM t")
        assert got == [(False,), (None,), (None,), (None,),
                       (False,), (None,), (False,)]

    def test_between_with_nulls(self, db):
        assert rows(db, "SELECT v FROM t WHERE v BETWEEN 1 AND 30") \
            == [(10.0,), (30.0,), (5.0,)]

    def test_arithmetic_propagates_null(self, db):
        assert rows(db, "SELECT v + 1 FROM t") \
            == [(11.0,), (None,), (31.0,), (41.0,), (6.0,), (None,), (1.0,)]

    def test_division_by_zero_on_null_row_is_null_not_error(self, db):
        db.execute("CREATE TABLE dz (a DOUBLE, b DOUBLE)")
        table = db.storage.table("dz")
        table.insert_row([None, 0.0])
        table.insert_row([4.0, 2.0])
        # the NULL row's zero divisor must not raise: NULL / 0 is NULL
        assert rows(db, "SELECT a / b FROM dz") == [(None,), (2.0,)]

    def test_string_filter_with_nulls(self, db):
        assert rows(db, "SELECT k FROM t WHERE name = 'a'") == [(1,), (1,)]
        assert rows(db, "SELECT k FROM t WHERE name <> 'a'") == [(2,), (2,), (None,)]
        assert rows(db, "SELECT k FROM t WHERE name = ''") == [(2,)]

    def test_like_with_nulls_and_dictionary(self, db):
        assert rows(db, "SELECT k FROM t WHERE name LIKE 'a%'") == [(1,), (1,)]
        assert rows(db, "SELECT k FROM t WHERE name NOT LIKE 'a%'") \
            == [(2,), (2,), (None,)]


class TestNullJoinKeys:
    @pytest.fixture
    def join_db(self):
        database = Database()
        database.execute("CREATE TABLE l (k INTEGER, tag STRING)")
        database.execute("CREATE TABLE r (k INTEGER, y INTEGER)")
        left = database.storage.table("l")
        right = database.storage.table("r")
        left.column("k").extend([1, None, 2, 3])
        left.column("tag").extend(["l1", "l2", "l3", "l4"])
        right.column("k").extend([1, None, 2, 2])
        right.column("y").extend([10, 20, 30, 40])
        return database

    def test_null_keys_never_match(self, join_db):
        # NULL = NULL is not true: the None rows join to nothing
        assert rows(join_db, "SELECT l.tag, r.y FROM l JOIN r ON l.k = r.k") \
            == [("l1", 10), ("l3", 30), ("l3", 40)]

    def test_left_join_emits_null_key_rows_unmatched(self, join_db):
        assert rows(join_db,
                    "SELECT l.tag, r.y FROM l LEFT JOIN r ON l.k = r.k") \
            == [("l1", 10), ("l3", 30), ("l3", 40), ("l2", None), ("l4", None)]

    def test_string_join_with_null_keys(self):
        database = Database()
        database.execute("CREATE TABLE sl (s STRING)")
        database.execute("CREATE TABLE sr (s STRING, z INTEGER)")
        database.storage.table("sl").column("s").extend(["a", None, "b", ""])
        database.storage.table("sr").column("s").extend(["b", None, "a", "a", ""])
        database.storage.table("sr").column("z").extend([1, 2, 3, 4, 5])
        # dictionary-coded equi-join: NULLs drop, "" matches "" (not NULL)
        assert rows(database, "SELECT sl.s, sr.z FROM sl JOIN sr ON sl.s = sr.s") \
            == [("a", 3), ("a", 4), ("b", 1), ("", 5)]

    def test_mixed_int_float_join_beyond_float53_stays_exact(self):
        # regression: int64 keys beyond 2^53 must not collide with nearby
        # doubles through the float64 cast (Python equality is exact)
        database = Database()
        database.execute("CREATE TABLE bl (k BIGINT)")
        database.execute("CREATE TABLE br (k DOUBLE)")
        database.storage.table("bl").column("k").extend([2**53 + 1, 10])
        database.storage.table("br").column("k").extend([float(2**53), 10.0])
        assert rows(database, "SELECT bl.k FROM bl JOIN br ON bl.k = br.k") \
            == [(10,)]

    def test_join_matches_python_reference(self):
        rng = np.random.default_rng(11)
        database = Database()
        database.execute("CREATE TABLE jl (k INTEGER)")
        database.execute("CREATE TABLE jr (k INTEGER)")
        left_keys = [None if rng.random() < 0.2 else int(rng.integers(0, 20))
                     for _ in range(200)]
        right_keys = [None if rng.random() < 0.2 else int(rng.integers(0, 20))
                      for _ in range(150)]
        database.storage.table("jl").column("k").extend(left_keys)
        database.storage.table("jr").column("k").extend(right_keys)
        got = rows(database,
                   "SELECT jl.k, jr.k FROM jl JOIN jr ON jl.k = jr.k")
        expected = [
            (lk, rk)
            for lk in left_keys if lk is not None
            for rk in right_keys
            if rk is not None and lk == rk
        ]
        # same multiset and same (left-major, right row order) sequence
        assert got == [
            (lk, rk)
            for li, lk in enumerate(left_keys) if lk is not None
            for rk in right_keys if rk is not None and rk == lk
        ]
        assert sorted(got) == sorted(expected)


class TestCountSemantics:
    def test_count_col_vs_count_star(self, db):
        assert rows(db, "SELECT COUNT(*), COUNT(v), COUNT(name), COUNT(k) FROM t") \
            == [(7, 5, 5, 5)]

    def test_grouped_count_col_vs_star(self, db):
        got = rows(db, "SELECT k, COUNT(*), COUNT(v) FROM t GROUP BY k")
        assert got == [(1, 2, 2), (2, 2, 1), (None, 2, 1), (3, 1, 1)]

    def test_masked_aggregates_match_python_reference(self, db):
        table = db.storage.table("t").to_dict()
        present = [v for v in table["v"] if v is not None]
        got = rows(db, "SELECT SUM(v), AVG(v), MIN(v), MAX(v) FROM t")[0]
        assert got == (sum(present), sum(present) / len(present),
                       min(present), max(present))

    def test_aggregate_over_all_null_group_is_null(self):
        database = Database()
        database.execute("CREATE TABLE g (k INTEGER, v DOUBLE)")
        table = database.storage.table("g")
        table.column("k").extend([1, 1, 2])
        table.column("v").extend([None, None, 3.0])
        assert rows(database,
                    "SELECT k, SUM(v), AVG(v), MIN(v), MAX(v), COUNT(v) "
                    "FROM g GROUP BY k") \
            == [(1, None, None, None, None, 0), (2, 3.0, 3.0, 3.0, 3.0, 1)]


class TestDictionaryGroupBy:
    def test_group_by_string_matches_seed_semantics(self, db):
        """Dictionary-coded GROUP BY: first-appearance order, NULLs as one
        group, '' distinct from NULL — exactly the per-row dict behaviour."""
        got = rows(db, "SELECT name, COUNT(*), SUM(v) FROM t GROUP BY name")
        # seed reference: python dict over rows in order
        table = db.storage.table("t").to_dict()
        reference = {}
        order = []
        for name, v in zip(table["name"], table["v"]):
            if name not in reference:
                reference[name] = [0, []]
                order.append(name)
            reference[name][0] += 1
            if v is not None:
                reference[name][1].append(v)
        expected = [
            (name, reference[name][0],
             sum(reference[name][1]) if reference[name][1] else None)
            for name in order
        ]
        assert got == expected

    def test_group_by_nullable_int_groups_nulls_together(self, db):
        got = rows(db, "SELECT k, COUNT(*) FROM t GROUP BY k")
        assert got == [(1, 2), (2, 2), (None, 2), (3, 1)]

    def test_string_min_max_on_codes(self, db):
        # dictionary is sorted, so MIN/MAX run on codes; NULLs excluded
        assert rows(db, "SELECT MIN(name), MAX(name) FROM t") == [("", "b")]
        got = rows(db, "SELECT k, MIN(name) FROM t GROUP BY k")
        assert got == [(1, "a"), (2, ""), (None, "b"), (3, None)]

    def test_group_by_string_large_random_equivalence(self):
        rng = np.random.default_rng(5)
        database = Database()
        database.execute("CREATE TABLE big (name STRING, v INTEGER)")
        table = database.storage.table("big")
        names = [None if rng.random() < 0.1
                 else f"g{int(rng.integers(0, 30))}" for _ in range(2000)]
        values = [None if rng.random() < 0.3 else int(rng.integers(0, 100))
                  for _ in range(2000)]
        table.column("name").extend(names)
        table.column("v").extend(values)
        got = rows(database,
                   "SELECT name, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v) "
                   "FROM big GROUP BY name")
        groups: dict = {}
        order = []
        for name, v in zip(names, values):
            if name not in groups:
                groups[name] = []
                order.append(name)
            groups[name].append(v)
        expected = []
        for name in order:
            vals = groups[name]
            present = [v for v in vals if v is not None]
            expected.append((
                name, len(vals), len(present),
                sum(present) if present else None,
                min(present) if present else None,
                max(present) if present else None,
            ))
        assert got == expected

    def test_order_by_string_column(self, db):
        got = rows(db, "SELECT name FROM t ORDER BY name")
        assert got == [("",), ("a",), ("a",), ("b",), ("b",), (None,), (None,)]


class TestDistinctAndCase:
    def test_distinct_over_nullable_strings(self, db):
        got = rows(db, "SELECT DISTINCT name FROM t")
        assert got == [("a",), ("b",), (None,), ("",)]

    def test_case_over_vector_column(self, db):
        got = rows(db, "SELECT CASE WHEN v > 5 THEN 'big' ELSE 'small' END "
                       "FROM t")
        # NULL > 5 is not true -> ELSE branch, matching the seed behaviour
        assert got == [("big",), ("small",), ("big",), ("big",),
                       ("small",), ("small",), ("small",)]


class TestInWithNullMembers:
    """``x IN (..., NULL)`` is NULL, not false, when nothing matches."""

    @pytest.mark.parametrize("sql,expected", [
        ("SELECT 1 IN (2, NULL)", None),
        ("SELECT 2 NOT IN (1, NULL)", None),
        ("SELECT 1 IN (1, NULL)", True),
        ("SELECT 1 NOT IN (1, NULL)", False),
        ("SELECT 1 IN (NULL)", None),
    ])
    def test_per_element_tier(self, sql, expected):
        assert Database().execute(sql).scalar() is expected

    def test_vector_tier(self):
        db = Database()
        db.execute("CREATE TABLE n (k INTEGER)")
        db.execute("INSERT INTO n VALUES (1), (2), (3)")
        assert rows(db, "SELECT k IN (1, NULL), k NOT IN (1, NULL) FROM n") \
            == [(True, False), (None, None), (None, None)]
        assert rows(db, "SELECT k FROM n WHERE k NOT IN (1, NULL)") == []
        assert rows(db, "SELECT k FROM n WHERE k IN (3, NULL)") == [(3,)]

    def test_subquery_with_null_member(self, db):
        assert rows(db, "SELECT k FROM t WHERE k NOT IN "
                        "(SELECT k FROM t WHERE name = 'b')") == []
        assert rows(db, "SELECT DISTINCT k FROM t WHERE k IN "
                        "(SELECT k FROM t WHERE name = 'b')") == [(2,)]
        assert rows(db, "SELECT k FROM t WHERE k NOT IN "
                        "(SELECT k FROM t WHERE k > 1) ORDER BY k") \
            == [(1,), (1,)]
