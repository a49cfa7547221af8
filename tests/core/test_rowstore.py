"""Tests for the tuple-at-a-time processing-model simulation (paper §2.4)."""

import numpy as np
import pytest

from repro.core.rowstore import ProcessingModelSimulator, results_equivalent
from repro.errors import ExecutionError
from repro.sqldb.database import Database


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.execute("CREATE TABLE values_table (i INTEGER, x DOUBLE)")
    for index in range(20):
        database.execute(f"INSERT INTO values_table VALUES ({index}, {index * 0.5})")
    database.execute("CREATE FUNCTION scale(i INTEGER, x DOUBLE) RETURNS DOUBLE "
                     "LANGUAGE PYTHON { return i * x }")
    database.execute("CREATE FUNCTION col_sum(i INTEGER) RETURNS DOUBLE "
                     "LANGUAGE PYTHON { return float(numpy.sum(i)) }")
    return database


@pytest.fixture()
def simulator(db) -> ProcessingModelSimulator:
    return ProcessingModelSimulator(db)


class TestOperatorAtATime:
    def test_single_invocation_for_whole_column(self, simulator):
        result = simulator.run_operator_at_a_time("scale", "values_table", ["i", "x"])
        assert result.invocations == 1
        assert result.rows == 20
        assert len(result.values) == 20
        assert result.values[4] == pytest.approx(4 * 2.0)

    def test_invocations_per_row_is_small(self, simulator):
        result = simulator.run_operator_at_a_time("scale", "values_table", ["i", "x"])
        assert result.invocations_per_row == pytest.approx(1 / 20)


class TestTupleAtATime:
    def test_one_invocation_per_row(self, simulator):
        result = simulator.run_tuple_at_a_time("scale", "values_table", ["i", "x"])
        assert result.invocations == 20
        assert result.rows == 20
        assert result.invocations_per_row == 1.0

    def test_results_match_operator_model(self, simulator):
        """§2.4: simulating tuple-at-a-time by looping must not change results."""
        comparison = simulator.compare("scale", "values_table", ["i", "x"])
        assert results_equivalent(comparison["operator-at-a-time"],
                                  comparison["tuple-at-a-time"])

    def test_invocation_overhead_shape(self, simulator):
        comparison = simulator.compare("scale", "values_table", ["i", "x"])
        assert comparison["tuple-at-a-time"].invocations == \
            20 * comparison["operator-at-a-time"].invocations


class TestValidation:
    def test_arity_checked(self, simulator):
        with pytest.raises(ExecutionError):
            simulator.run_operator_at_a_time("scale", "values_table", ["i"])

    def test_unknown_table(self, simulator):
        with pytest.raises(Exception):
            simulator.run_operator_at_a_time("scale", "missing", ["i", "x"])

    def test_results_equivalent_tolerance(self):
        from repro.core.rowstore import ProcessingModelResult

        a = ProcessingModelResult("m", values=[1.0, 2.0])
        b = ProcessingModelResult("m", values=[1.0, 2.0 + 1e-12])
        c = ProcessingModelResult("m", values=[1.0, 3.0])
        d = ProcessingModelResult("m", values=[1.0])
        assert results_equivalent(a, b)
        assert not results_equivalent(a, c)
        assert not results_equivalent(a, d)


class TestVectorisedStorageRegression:
    """The storage layer's cached-array scan must not change §2.4 results."""

    def test_compare_reports_identical_values_and_invocation_gap(self, simulator):
        comparison = simulator.compare("scale", "values_table", ["i", "x"])
        operator = comparison["operator-at-a-time"]
        per_tuple = comparison["tuple-at-a-time"]
        assert results_equivalent(operator, per_tuple)
        assert operator.invocations == 1
        assert per_tuple.invocations == operator.rows == per_tuple.rows == 20
        assert per_tuple.invocations_per_row == 1.0
        assert operator.invocations_per_row == pytest.approx(1 / 20)

    def test_operator_model_reuses_cached_column_arrays(self, db, simulator):
        simulator.run_operator_at_a_time("scale", "values_table", ["i", "x"])
        column = db.storage.table("values_table").column("i")
        cached = column.to_numpy()
        # a second run must hand the UDF a view of the same stored buffer
        assert np.shares_memory(column.to_numpy(), cached)
        result = simulator.run_operator_at_a_time("scale", "values_table", ["i", "x"])
        assert np.shares_memory(column.to_numpy(), cached)
        assert result.invocations == 1

    def test_mutation_between_runs_is_visible(self, db, simulator):
        before = simulator.run_operator_at_a_time("scale", "values_table", ["i", "x"])
        db.execute("UPDATE values_table SET x = x + 1.0 WHERE i = 0")
        after = simulator.run_operator_at_a_time("scale", "values_table", ["i", "x"])
        assert before.values[1:] == after.values[1:]
        assert before.values[0] == after.values[0]  # i = 0 masks the change
        assert db.execute("SELECT x FROM values_table WHERE i = 0").scalar() == 1.0

    def test_udf_cannot_unlock_the_shared_cache(self, db, simulator):
        """setflags(write=True) inside a UDF must not reach the cache array."""
        db.execute("CREATE FUNCTION unlock(i INTEGER) RETURNS INTEGER LANGUAGE "
                   "PYTHON { i.setflags(write=True); i[0] = 999; return i }")
        from repro.errors import UDFError
        with pytest.raises(UDFError):
            simulator.run_operator_at_a_time("unlock", "values_table", ["i"])
        assert db.execute("SELECT MIN(i) FROM values_table").scalar() == 0
