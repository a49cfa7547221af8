"""Tests for Python UDF execution: operator-at-a-time, table UDFs, loopback."""

import numpy as np
import pytest

from repro.errors import CatalogError, ExecutionError, TypeMismatchError, UDFError
from repro.sqldb.catalog import make_signature
from repro.sqldb.database import Database
from repro.sqldb.persist import read_wal, wal_path_for
from repro.sqldb.types import SQLType
from repro.sqldb.udf import build_udf_source, compile_udf, convert_table_result


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.execute("CREATE TABLE numbers (i INTEGER)")
    database.execute("INSERT INTO numbers VALUES (1), (2), (3), (4), (10)")
    return database


class TestScalarUDFs:
    def test_elementwise_udf(self, db):
        db.execute("CREATE FUNCTION double_it(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return x * 2 }")
        result = db.execute("SELECT double_it(i) FROM numbers")
        assert [r[0] for r in result.rows()] == [2, 4, 6, 8, 20]

    def test_aggregating_udf_returns_one_row(self, db):
        """The paper's mean_deviation shape: column in, single DOUBLE out."""
        db.execute("CREATE FUNCTION col_mean(x INTEGER) RETURNS DOUBLE "
                   "LANGUAGE PYTHON { return float(numpy.mean(x)) }")
        result = db.execute("SELECT col_mean(i) FROM numbers")
        assert result.row_count == 1
        assert result.scalar() == 4.0

    def test_udf_receives_numpy_array(self, db):
        db.execute("CREATE FUNCTION type_name(x INTEGER) RETURNS STRING "
                   "LANGUAGE PYTHON { return type(x).__name__ }")
        assert db.execute("SELECT type_name(i) FROM numbers").scalar() == "ndarray"

    def test_operator_at_a_time_single_invocation(self, db):
        db.execute("CREATE FUNCTION identity_col(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return x }")
        db.execute("SELECT identity_col(i) FROM numbers")
        assert db.udf_runtime.invocation_counts["identity_col"] == 1

    def test_udf_with_scalar_literal_argument(self, db):
        db.execute("CREATE FUNCTION add_n(x INTEGER, n INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return x + n }")
        result = db.execute("SELECT add_n(i, 100) FROM numbers WHERE i <= 2")
        assert result.fetchall() == [(101,), (102,)]

    def test_udf_in_where_clause(self, db):
        db.execute("CREATE FUNCTION is_even(x INTEGER) RETURNS BOOLEAN "
                   "LANGUAGE PYTHON { return x % 2 == 0 }")
        result = db.execute("SELECT i FROM numbers WHERE is_even(i)")
        assert [r[0] for r in result.rows()] == [2, 4, 10]

    def test_udf_error_propagates_with_name(self, db):
        db.execute("CREATE FUNCTION broken(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { raise ValueError('kaput') }")
        with pytest.raises(UDFError, match="broken"):
            db.execute("SELECT broken(i) FROM numbers")

    def test_udf_body_syntax_error(self, db):
        db.execute("CREATE FUNCTION bad_syntax(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return ((( }")
        with pytest.raises(UDFError, match="compile"):
            db.execute("SELECT bad_syntax(i) FROM numbers")

    def test_unknown_function_raises(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT no_such_function(i) FROM numbers")

    def test_wrong_arity_raises(self, db):
        db.execute("CREATE FUNCTION one_arg(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return x }")
        with pytest.raises(ExecutionError):
            db.execute("SELECT one_arg(i, i) FROM numbers")


class TestTableUDFs:
    def test_table_udf_multiple_columns(self, db):
        db.execute(
            "CREATE FUNCTION stats(v INTEGER) RETURNS TABLE(lo INTEGER, hi INTEGER) "
            "LANGUAGE PYTHON { return {'lo': int(min(v)), 'hi': int(max(v))} }")
        result = db.execute("SELECT * FROM stats((SELECT i FROM numbers))")
        assert result.fetchall() == [(1, 10)]

    def test_table_udf_row_expansion(self, db):
        db.execute(
            "CREATE FUNCTION expand(n INTEGER) RETURNS TABLE(v INTEGER) "
            "LANGUAGE PYTHON {\n"
            "    if hasattr(n, '__len__'):\n"
            "        n = int(numpy.asarray(n).ravel()[0])\n"
            "    return {'v': numpy.arange(int(n))}\n}")
        result = db.execute("SELECT * FROM expand(4)")
        assert [r[0] for r in result.rows()] == [0, 1, 2, 3]

    def test_table_udf_scalar_broadcast(self, db):
        db.execute(
            "CREATE FUNCTION broadcast(v INTEGER) RETURNS TABLE(x INTEGER, tag STRING) "
            "LANGUAGE PYTHON { return {'x': v, 'tag': 'all'} }")
        result = db.execute("SELECT * FROM broadcast((SELECT i FROM numbers))")
        assert result.row_count == 5
        assert set(row[1] for row in result.rows()) == {"all"}

    def test_table_udf_used_in_further_query(self, db):
        db.execute(
            "CREATE FUNCTION expand2(n INTEGER) RETURNS TABLE(v INTEGER) "
            "LANGUAGE PYTHON {\n"
            "    if hasattr(n, '__len__'):\n"
            "        n = int(numpy.asarray(n).ravel()[0])\n"
            "    return {'v': numpy.arange(int(n))}\n}")
        result = db.execute("SELECT SUM(v) FROM expand2(5) WHERE v > 1")
        assert result.scalar() == 9

    def test_missing_return_column_raises(self, db):
        db.execute(
            "CREATE FUNCTION missing_col(v INTEGER) RETURNS TABLE(a INTEGER, b INTEGER) "
            "LANGUAGE PYTHON { return {'a': v} }")
        with pytest.raises(UDFError, match="missing"):
            db.execute("SELECT * FROM missing_col((SELECT i FROM numbers))")

    def test_table_udf_in_expression_position_rejected(self, db):
        db.execute(
            "CREATE FUNCTION table_fn(v INTEGER) RETURNS TABLE(a INTEGER) "
            "LANGUAGE PYTHON { return {'a': v} }")
        with pytest.raises(ExecutionError):
            db.execute("SELECT table_fn(i) FROM numbers")


class TestUDFOutputs:
    def test_zero_d_array_scalar_result(self, db):
        db.execute("CREATE FUNCTION mean_0d(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return numpy.asarray(numpy.mean(x)) }")
        assert db.execute("SELECT mean_0d(i) FROM numbers").fetchall() == [(4,)]

    def test_zero_d_array_table_entry(self, db):
        db.execute(
            "CREATE FUNCTION five(v INTEGER) RETURNS TABLE(a INTEGER) "
            "LANGUAGE PYTHON { return {'a': numpy.asarray(5)} }")
        result = db.execute("SELECT * FROM five((SELECT i FROM numbers))")
        assert result.fetchall() == [(5,)]

    def test_typed_result_stays_typed(self, db):
        db.execute("CREATE FUNCTION halve(x INTEGER) RETURNS DOUBLE "
                   "LANGUAGE PYTHON { return x / 2 }")
        column = db.execute("SELECT halve(i) FROM numbers").columns[0]
        assert not column.is_materialised
        assert column.values == [0.5, 1.0, 1.5, 2.0, 5.0]

    def test_non_integral_result_raises_type_mismatch(self, db):
        db.execute("CREATE FUNCTION third(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return x / 3 }")
        with pytest.raises(TypeMismatchError,
                           match="non-integral value 0.3333333333333333"):
            db.execute("SELECT third(i) FROM numbers")

    def test_returning_the_read_only_input(self, db):
        """The extract function's shape: the input column handed back."""
        db.execute(
            "CREATE FUNCTION echo(column INTEGER) RETURNS TABLE(column INTEGER) "
            "LANGUAGE PYTHON { return {'column': column} }")
        result = db.execute("SELECT * FROM echo((SELECT i FROM numbers))")
        assert [row[0] for row in result.rows()] == [1, 2, 3, 4, 10]

    def test_udf_mutating_a_kept_result_leaves_earlier_results(self, db):
        db.execute(
            "CREATE FUNCTION keeper(x INTEGER) RETURNS INTEGER "
            "LANGUAGE PYTHON {\n"
            "    global kept\n"
            "    if 'kept' in globals():\n"
            "        kept[:] = -1\n"
            "    kept = numpy.array(x)\n"
            "    return kept\n}")
        first = db.execute("SELECT keeper(i) FROM numbers")
        db.execute("CREATE TABLE kept_copy AS SELECT keeper(i) AS k FROM numbers")
        db.execute("SELECT keeper(i) FROM numbers")
        assert [row[0] for row in first.rows()] == [1, 2, 3, 4, 10]
        assert [row[0] for row in db.execute(
            "SELECT k FROM kept_copy").rows()] == [1, 2, 3, 4, 10]

    def test_invoke_and_convert_histograms_in_show_stats(self, db):
        db.execute("CREATE FUNCTION plus_one(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return x + 1 }")
        db.execute("SELECT plus_one(i) FROM numbers")
        result = db.execute("SHOW STATS").to_dict()
        stats = dict(zip(result["name"], result["value"]))
        assert stats["udf.invoke_us_count"] == 1
        assert stats["udf.convert_us_count"] == 1


class TestCreateFunctionIdempotence:
    SQL = ("CREATE OR REPLACE FUNCTION idem(x INTEGER) RETURNS INTEGER "
           "LANGUAGE PYTHON { return x + 1 }")

    def _wal_records(self, path):
        return len(read_wal(wal_path_for(path)).records)

    def test_identical_recreate_logs_nothing_and_keeps_caches(self, tmp_path):
        path = tmp_path / "idem.db"
        database = Database(path=path, result_cache_bytes=1 << 20)
        database.execute("CREATE TABLE t (i INTEGER)")
        database.execute("INSERT INTO t VALUES (1), (2)")
        database.execute(self.SQL)
        database.execute("SELECT idem(i) FROM t")
        compiled = database.udf_runtime._compiled["idem"]
        database.execute("SELECT i FROM t")
        records = self._wal_records(path)
        hits = database.cache_counters()["result_cache_hits"]

        database.execute(self.SQL)
        assert self._wal_records(path) == records
        assert database.udf_runtime._compiled["idem"] is compiled
        database.execute("SELECT i FROM t")
        assert database.cache_counters()["result_cache_hits"] == hits + 1
        database.close()

    def test_changed_body_still_logs_and_invalidates(self, tmp_path):
        path = tmp_path / "idem.db"
        database = Database(path=path, result_cache_bytes=1 << 20)
        database.execute("CREATE TABLE t (i INTEGER)")
        database.execute("INSERT INTO t VALUES (1), (2)")
        database.execute(self.SQL)
        database.execute("SELECT i FROM t")
        records = self._wal_records(path)
        hits = database.cache_counters()["result_cache_hits"]

        database.execute(self.SQL.replace("x + 1", "x + 2"))
        assert self._wal_records(path) == records + 1
        database.execute("SELECT i FROM t")
        assert database.cache_counters()["result_cache_hits"] == hits
        assert database.execute("SELECT idem(i) FROM t").fetchall() == \
            [(3,), (4,)]
        database.close()

    def test_identical_create_without_replace_still_raises(self, db):
        db.execute(self.SQL)
        with pytest.raises(CatalogError, match="already exists"):
            db.execute(self.SQL.replace("OR REPLACE ", ""))


class TestLoopback:
    def test_loopback_query(self, db):
        db.execute(
            "CREATE FUNCTION loop_sum(n INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {\n"
            "    res = _conn.execute('SELECT SUM(i) AS total FROM numbers')\n"
            "    return float(res['total'][0]) + n\n}")
        assert db.execute("SELECT loop_sum(5)").scalar() == 25.0

    def test_loopback_returns_numpy_arrays(self, db):
        db.execute(
            "CREATE FUNCTION loop_type(n INTEGER) RETURNS STRING LANGUAGE PYTHON {\n"
            "    res = _conn.execute('SELECT i FROM numbers')\n"
            "    return type(res['i']).__name__\n}")
        assert db.execute("SELECT loop_type(1)").scalar() == "ndarray"

    def test_nested_udf_via_loopback(self, db):
        db.execute("CREATE FUNCTION inner_double(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return x * 2 }")
        db.execute(
            "CREATE FUNCTION outer_caller(n INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {\n"
            "    res = _conn.execute('SELECT inner_double(i) AS d FROM numbers')\n"
            "    return float(numpy.sum(res['d']))\n}")
        assert db.execute("SELECT outer_caller(0)").scalar() == 40.0


class TestCompileUDF:
    def test_build_udf_source_shape(self):
        signature = make_signature("f", [("a", SQLType.INTEGER), ("b", SQLType.DOUBLE)],
                                   return_type=SQLType.DOUBLE, body="return a + b")
        source = build_udf_source(signature)
        assert source.startswith("def f(a, b, _conn=None):")
        assert "    return a + b" in source

    def test_compile_and_call(self):
        signature = make_signature("add", [("a", SQLType.INTEGER), ("b", SQLType.INTEGER)],
                                   return_type=SQLType.INTEGER, body="return a + b")
        function = compile_udf(signature)
        assert function(2, 3) == 5

    def test_compiled_namespace_has_numpy(self):
        signature = make_signature("use_numpy", [("x", SQLType.DOUBLE)],
                                   return_type=SQLType.DOUBLE,
                                   body="return float(numpy.sum(x))")
        function = compile_udf(signature)
        assert function(np.array([1.0, 2.0])) == 3.0

    def test_empty_body_is_pass(self):
        signature = make_signature("noop", [], return_type=SQLType.INTEGER, body="")
        assert compile_udf(signature)() is None


def as_lists(columns):
    return {name: vector.to_list() for name, vector in columns.items()}


class TestConvertTableResult:
    def test_dict_result(self):
        signature = make_signature(
            "t", [], returns_table=True,
            return_columns=[("a", SQLType.INTEGER), ("b", SQLType.STRING)])
        out = convert_table_result(signature, {"a": [1, 2], "b": ["x", "y"]})
        assert as_lists(out) == {"a": [1, 2], "b": ["x", "y"]}

    def test_single_column_list(self):
        signature = make_signature("t", [], returns_table=True,
                                   return_columns=[("v", SQLType.INTEGER)])
        assert as_lists(convert_table_result(signature, [1, 2, 3])) == \
            {"v": [1, 2, 3]}

    def test_case_insensitive_keys(self):
        signature = make_signature("t", [], returns_table=True,
                                   return_columns=[("Value", SQLType.INTEGER)])
        assert as_lists(convert_table_result(signature, {"value": [1]})) == \
            {"Value": [1]}

    def test_length_mismatch_raises(self):
        signature = make_signature(
            "t", [], returns_table=True,
            return_columns=[("a", SQLType.INTEGER), ("b", SQLType.INTEGER)])
        with pytest.raises(UDFError):
            convert_table_result(signature, {"a": [1, 2], "b": [1, 2, 3]})


class TestCatalogIntegration:
    def test_catalog_stores_body_only(self, db):
        db.execute("CREATE FUNCTION body_check(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return x + 1 }")
        entry = db.catalog.get("body_check")
        assert "def " not in entry.signature.body
        assert "return x + 1" in entry.signature.body

    def test_sys_functions_wraps_body_in_braces(self, db):
        db.execute("CREATE FUNCTION wrapped(x INTEGER) RETURNS INTEGER "
                   "LANGUAGE PYTHON { return x }")
        func_text = db.execute(
            "SELECT func FROM sys.functions WHERE name = 'wrapped'").scalar()
        assert func_text.startswith("{")
        assert func_text.rstrip().endswith("};")

    def test_catalog_missing_function(self, db):
        with pytest.raises(CatalogError):
            db.catalog.get("missing")
