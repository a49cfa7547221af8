"""Tests of the benchmark itself: determinism, statistics, span arithmetic,
and a tiny smoke run of every workload through ``run.py``."""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from perfbench import compare, harness, run, tracing, workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------- #
# generators are deterministic for a seed
# --------------------------------------------------------------------------- #
def _big_equal(a: workloads.BigData, b: workloads.BigData) -> bool:
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("k", "name", "v", "nv", "nv_null", "dim_id",
                            "dim_grp", "dim_w"))


def test_table_data_is_deterministic_per_seed():
    sizes = workloads.SMOKE
    assert _big_equal(workloads.big_data(4, sizes),
                      workloads.big_data(4, sizes))
    assert not _big_equal(workloads.big_data(4, sizes),
                          workloads.big_data(5, sizes))
    assert np.array_equal(workloads.numbers_data(4, sizes),
                          workloads.numbers_data(4, sizes))


@pytest.mark.parametrize("name", ["olap", "export", "ingest"])
def test_statement_streams_are_deterministic_per_seed(name):
    sizes = workloads.SMOKE

    def first(seed: int) -> list[str]:
        if name == "olap":
            pool = workloads.olap_pool(seed, sizes)
            stream = workloads.olap_stream(seed, 0, pool, sizes)
            return [f"{statement.sql}|{check}"
                    for statement, check in islice(stream, 60)]
        if name == "export":
            return [statement.sql for statement in
                    islice(workloads.export_stream(seed, sizes), 20)]
        return [batch.sql for batch in
                islice(workloads.ingest_batches(seed, sizes), 3)]

    assert first(8) == first(8)
    assert first(8) != first(9)


def test_olap_mix_is_fixed_and_a_minority_repeats():
    sizes = workloads.FULL
    pool = workloads.olap_pool(1, sizes)
    drawn = [statement for statement, _ in
             islice(workloads.olap_stream(1, 0, pool, sizes), 1000)]
    kinds = {kind: sum(s.kind == kind for s in drawn)
             for kind in workloads.OLAP_KINDS}
    assert set(kinds.values()) == {200}
    hot = {s.sql for kind in pool.hot.values() for s in kind}
    assert 0.2 <= sum(s.sql in hot for s in drawn) / len(drawn) <= 0.3


def test_export_statements_are_distinct():
    sqls = [s.sql for s in islice(
        workloads.export_stream(2, workloads.FULL), 300)]
    assert len(set(sqls)) == len(sqls)


def test_references_agree_with_the_engine():
    from repro.sqldb.database import Database

    sizes = workloads.SMOKE
    data = workloads.big_data(6, sizes)
    database = Database()
    database.execute("CREATE TABLE big (k INTEGER, name STRING, "
                     "v DOUBLE, nv DOUBLE)")
    database.execute("CREATE TABLE dim (id INTEGER, grp STRING, w DOUBLE)")
    names = np.array(workloads.NAMES, dtype=object)
    groups = np.array(workloads.GROUPS, dtype=object)
    workloads._load_columns(database, "big", [
        data.k.tolist(), names[data.name].tolist(), data.v.tolist(),
        workloads._with_nulls(data.nv, data.nv_null)])
    workloads._load_columns(database, "dim", [
        data.dim_id.tolist(), groups[data.dim_grp].tolist(),
        data.dim_w.tolist()])
    pool = workloads.olap_pool(6, sizes)
    for statement, _ in islice(workloads.olap_stream(6, 0, pool, sizes), 40):
        rows = database.execute(statement.sql).fetchall()
        assert workloads.rows_match(
            rows, workloads.olap_reference(statement, data)), statement.sql
    statement = next(workloads.export_stream(6, sizes))
    rows = database.execute(statement.sql).fetchall()
    assert workloads.checksums_match(workloads.export_checksum(rows),
                                     workloads.export_reference(statement,
                                                                data))
    # a wrong answer is caught
    assert not workloads.rows_match(rows[1:], rows)


# --------------------------------------------------------------------------- #
# the tail rule: highest percentile with at least ten samples beyond it
# --------------------------------------------------------------------------- #
def test_tail_has_exactly_ten_samples_beyond():
    values = list(range(1, 101))
    value, percentile = harness.tail(values)
    assert value == 90 and percentile == 90.0
    assert sum(v > value for v in values) == 10


def test_tail_is_the_highest_such_percentile():
    rng = np.random.default_rng(0)
    values = rng.exponential(size=537).tolist()
    value, percentile = harness.tail(values)
    ordered = sorted(values)
    assert sum(v > value for v in values) == 10
    # the next sample up would leave only nine beyond it
    assert sum(v > ordered[ordered.index(value) + 1] for v in values) == 9
    assert percentile == pytest.approx(100 * 527 / 537)


def test_tail_with_too_few_samples_is_flagged():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert harness.tail([]) == (0.0, 0.0)


# --------------------------------------------------------------------------- #
# span arithmetic
# --------------------------------------------------------------------------- #
def _span(name, start, end, parent=None):
    return [name, start, end, parent, "r", None]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),        # overlaps a: union 1..5
        _span("c", 8.0, 12.0, 0),       # clipped to the parent: 8..10
        _span("a.child", 1.5, 2.5, 1),  # grandchild: not the root's child
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0,
                                                      1.0])


def test_covered_merges_and_clips():
    assert tracing.covered([], 0, 1) == 0
    assert tracing.covered([(0, 2), (1, 3), (5, 6)], 1, 5.5) == \
        pytest.approx(2.5)


def test_window_reindexes_parents():
    spans = [_span("old", 0, 1), _span("p", 5, 9), _span("c", 6, 7, 1),
             _span("orphan", 6, 8, 0)]
    kept = tracing.in_window(spans, 4, 10)
    assert [span[tracing.NAME] for span in kept] == ["p", "c", "orphan"]
    assert kept[1][tracing.PARENT] == 0
    assert kept[2][tracing.PARENT] is None


def test_missing_wrapper_target_is_reported_absent():
    tracer = tracing.Tracer("test")
    assert not tracing.wrap(tracer, "repro.sqldb.storage:Column.gone", "x")
    assert not tracing.wrap(tracer, "repro.no_such_module:f", "y")
    assert tracer.absent == ["repro.sqldb.storage:Column.gone",
                             "repro.no_such_module:f"]
    metrics = tracing.layer_metrics(
        [], [], [], stats={}, statements=1, ops=1, rows_acked=0, reopens=1,
        absent=["repro.sqldb.storage:Column.to_vector"])
    assert "storage.materialise_ms" not in metrics
    assert "parser.ms_per_stmt" in metrics


def test_wrapper_records_nested_spans_with_a_request_id():
    tracer = tracing.Tracer("test")

    class Target:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    module = type(sys)("perfbench_wrap_target")
    module.Target = Target
    sys.modules[module.__name__] = module
    try:
        assert tracing.wrap(tracer, "perfbench_wrap_target:Target.outer",
                            "outer")
        assert tracing.wrap(tracer, "perfbench_wrap_target:Target.inner",
                            "inner")
        tracer.new_request()
        assert Target().outer() == 2
    finally:
        del sys.modules[module.__name__]
    outer, inner = tracer.closed_spans()
    assert inner[tracing.PARENT] == 0 and outer[tracing.PARENT] is None
    assert outer[tracing.REQUEST] == inner[tracing.REQUEST] == "test-1"


# --------------------------------------------------------------------------- #
# the benchmark's contract
# --------------------------------------------------------------------------- #
def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_compare_refuses_different_cpu_counts(tmp_path):
    for name, cpus in (("a", 2), ("b", 4)):
        (tmp_path / name).write_text(json.dumps({
            "workload": "olap", "env": {"cpu_count": cpus},
            "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}) + "\n")
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0


def _smoke(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--smoke"], capture_output=True, text=True, timeout=170)
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_passes_its_output_checks(workload):
    result = _smoke(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer():
    result = _smoke("udf_debug", 1)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.LAYER_UNITS)
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    assert metrics["udf.calls"] > 0 and metrics["core.extract_ms"] > 0
    assert metrics["compression.ratio"] > 1


def test_run_refuses_without_the_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "olap",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
