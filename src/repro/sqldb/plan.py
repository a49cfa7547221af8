"""SELECT planning and the morsel-driven plan driver.

:class:`Planner` lowers a parsed ``SELECT`` into a tree of physical
operators (:mod:`repro.sqldb.operators`); :class:`SelectPlan` then drives
execution:

* **prepare** (under the database lock): bind scan sources — snapshot
  storage-table scans, execute FROM-clause subqueries / table functions /
  virtual meta tables — and materialise every join's build side.
* **run**: split the pipeline source into row-range morsels
  (:class:`~repro.sqldb.parallel.MorselScheduler` policy) and push each
  morsel through the fused stage chain (join probes, filter) into the sink
  (projection or aggregation) — on the worker pool when parallelism is
  enabled and the statement is parallel-safe, inline otherwise.  LEFT-join
  unmatched rows are deferred per stage and flushed, in arrival order,
  after the morsel phase — reproducing the sequential engine's
  matches-first output order.
* **finish**: concatenate projection pieces or merge aggregation partials,
  then apply the pipeline breakers (DISTINCT → ORDER BY → OFFSET/LIMIT) in
  the clause order the engine always used.

Single-worker execution is one morsel through the same code the
clause-at-a-time engine ran, so its results are byte-identical.  The plan
also renders itself (:meth:`SelectPlan.explain_lines`) for ``EXPLAIN``.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from ..errors import CatalogError, ExecutionError
from . import ast_nodes as ast
from .aggregates import is_aggregate
from .expressions import (
    Batch,
    BatchColumn,
    ExpressionEvaluator,
    child_expressions,
    expression_contains_aggregate,
)
from .functions import is_builtin_scalar
from .operators import (
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    PhysicalOperator,
    Project,
    Scan,
    Sort,
    batch_from_result,
    concat_batches,
    concat_result_pieces,
    slice_result,
    statement_expressions,
)
from .result import QueryResult
from .schema import FunctionSignature
from .types import SQLType
from .udf import convert_scalar_result, convert_table_result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import QueryContext
    from .database import Database
    from .parallel import MorselScheduler


#: Schemas of the virtual meta tables exposed by the catalog (Listing 1).
_SYS_FUNCTIONS_SCHEMA = [
    ("id", SQLType.INTEGER),
    ("name", SQLType.STRING),
    ("func", SQLType.STRING),
    ("mod", SQLType.STRING),
    ("language", SQLType.INTEGER),
    ("type", SQLType.INTEGER),
]

_SYS_ARGS_SCHEMA = [
    ("id", SQLType.INTEGER),
    ("func_id", SQLType.INTEGER),
    ("name", SQLType.STRING),
    ("type", SQLType.STRING),
    ("number", SQLType.INTEGER),
    ("inout", SQLType.INTEGER),
]

_SYS_TABLES_SCHEMA = [
    ("id", SQLType.INTEGER),
    ("name", SQLType.STRING),
    ("row_count", SQLType.BIGINT),
]


def virtual_table(database: "Database", name: str
                  ) -> tuple[list[tuple[str, SQLType]], list[tuple]] | None:
    lowered = name.lower()
    if lowered in ("sys.functions", "functions"):
        return _SYS_FUNCTIONS_SCHEMA, database.catalog.sys_functions_rows()
    if lowered in ("sys.args", "args"):
        return _SYS_ARGS_SCHEMA, database.catalog.sys_args_rows()
    if lowered in ("sys.tables", "tables"):
        rows = [
            (index, table_name, database.storage.table(table_name).row_count)
            for index, table_name in enumerate(database.storage.table_names())
        ]
        return _SYS_TABLES_SCHEMA, rows
    return None


def table_function_batch(database: "Database",
                         ref: ast.TableFunctionCall) -> Batch:
    """Materialise a table-producing UDF called in the FROM clause."""
    if not database.catalog.has(ref.name):
        raise CatalogError(f"unknown table function {ref.name!r}")
    signature: FunctionSignature = database.catalog.get(ref.name).signature
    alias = ref.alias or ref.name

    # Evaluate arguments: subqueries contribute one argument per result
    # column (MonetDB flattens them positionally); scalar expressions are
    # evaluated as constants.
    arg_values: list[Any] = []
    for arg in ref.args:
        if isinstance(arg, ast.Select):
            sub_result = database.execute_select(arg)
            for column in sub_result.columns:
                arg_values.append(column.to_numpy())
        else:
            evaluator = ExpressionEvaluator(database, Batch.empty())
            arg_values.append(evaluator.evaluate(arg).values[0])

    if len(arg_values) != len(signature.parameters):
        raise ExecutionError(
            f"table function {ref.name!r} expects {len(signature.parameters)} "
            f"arguments, got {len(arg_values)}"
        )
    runtime = database.udf_runtime
    raw = runtime.invoke(signature, arg_values)
    if signature.returns_table:
        vectors = runtime.convert(convert_table_result, signature, raw)
    else:  # a scalar function used in FROM: a one-column table
        vector, _ = runtime.convert(convert_scalar_result, signature, raw, 0)
        vectors = {signature.name: vector}
    columns = [
        BatchColumn(alias, name, vector.sql_type, vector.executor_values())
        for name, vector in vectors.items()
    ]
    row_count = len(columns[0].values) if columns else 0
    return Batch(columns, row_count=row_count)


# --------------------------------------------------------------------------- #
# parallel-safety analysis
# --------------------------------------------------------------------------- #
def _walk_expression(expression: ast.Expression) -> Iterator[ast.Expression]:
    yield expression
    if isinstance(expression, ast.InSubquery):
        yield from _walk_expression(expression.operand)
        return
    for child in child_expressions(expression):
        yield from _walk_expression(child)


def _expression_parallel_safe(expression: ast.Expression) -> bool:
    """Safe to evaluate per morsel, possibly on worker threads.

    Scalar subqueries (re-executed per evaluation) and Python UDFs (invoked
    once per whole column, an observable count) force whole-batch execution.
    """
    for node in _walk_expression(expression):
        if isinstance(node, (ast.ScalarSubquery, ast.ExistsSubquery,
                             ast.InSubquery)):
            return False
        if isinstance(node, ast.FunctionCall):
            if not is_aggregate(node.name) and not is_builtin_scalar(node.name):
                return False
    return True


def _from_clause_conditions(from_clause: ast.TableRef | None
                            ) -> Iterator[ast.Expression]:
    if isinstance(from_clause, ast.Join):
        if from_clause.condition is not None:
            yield from_clause.condition
        yield from _from_clause_conditions(from_clause.left)
        yield from _from_clause_conditions(from_clause.right)


def statement_parallel_safe(select: ast.Select) -> bool:
    expressions = statement_expressions(select)
    expressions.extend(_from_clause_conditions(select.from_clause))
    return all(_expression_parallel_safe(expr) for expr in expressions)


# --------------------------------------------------------------------------- #
# planner
# --------------------------------------------------------------------------- #
class Planner:
    """Lowers a ``SELECT`` AST into a :class:`SelectPlan`."""

    def __init__(self, database: "Database") -> None:
        self.database = database

    def plan(self, select: ast.Select) -> "SelectPlan":
        source, stages = self._lower_from(select.from_clause)
        if select.where is not None:
            stages.append(Filter(self.database, select.where))

        has_aggregates = any(
            expression_contains_aggregate(item.expression)
            for item in select.items
            if not isinstance(item.expression, ast.Star)
        ) or (select.having is not None
              and expression_contains_aggregate(select.having))

        sink: Project | HashAggregate
        if select.group_by or has_aggregates:
            sink = HashAggregate(self.database, select)
        else:
            sink = Project(self.database, select.items)

        distinct = Distinct() if select.distinct else None
        sort = Sort(self.database, select) if select.order_by else None
        limit = None
        if select.limit is not None or select.offset is not None:
            limit = Limit(select.limit, select.offset)
        return SelectPlan(self.database, select, source, stages, sink,
                          distinct=distinct, sort=sort, limit=limit)

    def _lower_from(self, from_clause: ast.TableRef | None
                    ) -> tuple[Scan, list[PhysicalOperator]]:
        """Lower a FROM tree into (pipeline source, probe/filter stages)."""
        if from_clause is None:
            return Scan("(no table)"), []
        if isinstance(from_clause, ast.NamedTable):
            name = from_clause.name
            alias = from_clause.alias or name.split(".")[-1]
            scan = Scan(name, alias)
            scan.source_ast = from_clause
            return scan, []
        if isinstance(from_clause, ast.SubquerySource):
            scan = Scan("(subquery)", from_clause.alias)
            scan.source_ast = from_clause
            return scan, []
        if isinstance(from_clause, ast.TableFunctionCall):
            scan = Scan(f"{from_clause.name}()", from_clause.alias)
            scan.source_ast = from_clause
            return scan, []
        if isinstance(from_clause, ast.Join):
            source, stages = self._lower_from(from_clause.left)
            build_source, build_stages = self._lower_from(from_clause.right)
            join = HashJoin(self.database, from_clause.join_type,
                            from_clause.condition)
            join.build_source = build_source
            join.build_stages = build_stages
            stages.append(join)
            return source, stages
        raise ExecutionError(
            f"unsupported FROM item {type(from_clause).__name__}")


# --------------------------------------------------------------------------- #
# per-operator actuals (EXPLAIN ANALYZE)
# --------------------------------------------------------------------------- #
class PlanMetrics:
    """Actual rows / batches / wall time per plan node, one execution.

    Morsels run concurrently on the worker pool, so every sample — one
    ``(rows, batches, seconds)`` increment per operator per morsel — is
    merged under a single lock keyed by operator identity.  Wall times are
    *cumulative across workers*: with ``workers=4`` an operator's ``time``
    can legitimately exceed the query's elapsed time.
    """

    __slots__ = ("_lock", "_stats")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: ``id(operator) -> [rows, batches, seconds]``
        self._stats: dict[int, list[Any]] = {}

    def record(self, operator: PhysicalOperator, rows: int, seconds: float,
               batches: int = 1) -> None:
        key = id(operator)
        with self._lock:
            entry = self._stats.get(key)
            if entry is None:
                self._stats[key] = [rows, batches, seconds]
            else:
                entry[0] += rows
                entry[1] += batches
                entry[2] += seconds

    def stats_for(self, operator: PhysicalOperator
                  ) -> tuple[int, int, float] | None:
        entry = self._stats.get(id(operator))
        if entry is None:
            return None
        return entry[0], entry[1], entry[2]


# --------------------------------------------------------------------------- #
# the plan driver
# --------------------------------------------------------------------------- #
class SelectPlan:
    """An executable physical plan for one SELECT statement."""

    def __init__(self, database: "Database", select: ast.Select, source: Scan,
                 stages: list[PhysicalOperator],
                 sink: Project | HashAggregate, *,
                 distinct: Distinct | None, sort: Sort | None,
                 limit: Limit | None) -> None:
        self.database = database
        self.select = select
        self.source = source
        self.stages = stages
        self.sink = sink
        self.distinct = distinct
        self.sort = sort
        self.limit = limit
        self.parallel_safe = statement_parallel_safe(select)
        #: Cooperative cancellation/timeout control block; ``None`` runs
        #: unchecked (the pre-resilience behaviour).  Set by the executor
        #: before :meth:`prepare`.
        self.context: "QueryContext | None" = None
        #: Per-operator actuals collector (EXPLAIN ANALYZE).  ``None`` — the
        #: default — takes the untimed hot paths; the executor installs a
        #: fresh :class:`PlanMetrics` for one instrumented run and clears it
        #: afterwards (plans can be cached and re-run bare).
        self.plan_metrics: PlanMetrics | None = None
        self._prepared = False
        self.root = self._link_tree()

    @property
    def scheduler(self) -> "MorselScheduler":
        return self.database.scheduler

    # -- plan-tree shape (EXPLAIN) ---------------------------------------- #
    def _link_tree(self) -> PhysicalOperator:
        def pipeline_root(source: Scan,
                          stages: Sequence[PhysicalOperator]) -> PhysicalOperator:
            node: PhysicalOperator = source
            for stage in stages:
                if isinstance(stage, HashJoin):
                    build_root = pipeline_root(stage.build_source,
                                               stage.build_stages)
                    stage.children = [node, build_root]
                else:
                    stage.children = [node]
                node = stage
            return node

        node = pipeline_root(self.source, self.stages)
        self.sink.children = [node]
        node = self.sink
        for breaker in (self.distinct, self.sort, self.limit):
            if breaker is not None:
                breaker.children = [node]
                node = breaker
        return node

    @property
    def streamable(self) -> bool:
        """Whether morsel results can leave before execution finishes.

        Projection pipelines only: aggregation, DISTINCT and ORDER BY are
        pipeline breakers, and statements that are not parallel-safe (UDF
        calls, scalar subqueries) must run whole-batch under the database
        lock.
        """
        return (isinstance(self.sink, Project) and self.distinct is None
                and self.sort is None and self.parallel_safe)

    # -- preparation ------------------------------------------------------- #
    def prepare(self) -> None:
        """Bind sources and join build sides (run under the database lock)."""
        if self._prepared:
            return
        if self.context is not None:
            self.context.check()
        self._template = self._prepare_pipeline(self.source, self.stages)
        self._prepared = True

    def _prepare_pipeline(self, source: Scan,
                          stages: Sequence[PhysicalOperator]) -> Batch:
        self._prepare_scan(source)
        template = source.batch_slice(0, 0)
        for stage in stages:
            if isinstance(stage, HashJoin):
                self._prepare_pipeline(stage.build_source, stage.build_stages)
                right_batch = self._run_pipeline_whole(stage.build_source,
                                                       stage.build_stages)
                if self.plan_metrics is None:
                    template = stage.prepare(template, right_batch)
                else:
                    started = perf_counter()
                    template = stage.prepare(template, right_batch)
                    # build time counts toward the join, but not as a batch:
                    # ``batches`` stays the number of probed morsels
                    self.plan_metrics.record(stage, 0,
                                             perf_counter() - started, 0)
            # Filter is schema-preserving: the template passes through
            # unevaluated (predicates only run over real morsels)
        return template

    def _prepare_scan(self, scan: Scan) -> None:
        source_ast = getattr(scan, "source_ast", None)
        if source_ast is None:
            scan.bind_batch(Batch.empty())
            return
        if isinstance(source_ast, ast.NamedTable):
            virtual = virtual_table(self.database, source_ast.name)
            if virtual is not None:
                schema, rows = virtual
                alias = scan.alias or source_ast.name
                columns = [
                    BatchColumn(alias, column_name, sql_type,
                                [row[i] for row in rows])
                    for i, (column_name, sql_type) in enumerate(schema)
                ]
                scan.bind_batch(Batch(columns, row_count=len(rows)))
                return
            table = self.database.storage.table(source_ast.name)
            # quarantined (salvaged) row ranges must fail the query with a
            # structured CorruptionError, never scan as placeholder NULLs
            table.check_readable()
            scan.bind_table(table)
            return
        if isinstance(source_ast, ast.SubquerySource):
            result = self.database.execute_select(source_ast.query)
            scan.bind_batch(batch_from_result(result, source_ast.alias))
            return
        if isinstance(source_ast, ast.TableFunctionCall):
            scan.bind_batch(table_function_batch(self.database, source_ast))
            return
        raise ExecutionError(
            f"unsupported FROM item {type(source_ast).__name__}")

    def _run_pipeline_whole(self, source: Scan,
                            stages: Sequence[PhysicalOperator]) -> Batch:
        """Materialise a build-side pipeline as one batch (single morsel)."""
        outputs: list[Batch] = []
        deferred: dict[int, list[Batch]] = {}
        batch = self._scan_slice(source, 0, source.row_count)
        outputs.append(self._push(batch, stages, 0, deferred))
        self._flush_deferred(stages, deferred, outputs)
        return concat_batches(outputs)

    # -- stage-chain execution --------------------------------------------- #
    @staticmethod
    def _push_stages(batch: Batch, stages: Sequence[PhysicalOperator],
                     from_index: int,
                     deferred: dict[int, list[Batch]]) -> Batch:
        """Push one batch through ``stages[from_index:]``.

        LEFT-join unmatched rows are recorded per stage index in
        ``deferred`` (processed later by :meth:`_flush_deferred`)."""
        for index in range(from_index, len(stages)):
            stage = stages[index]
            if isinstance(stage, HashJoin):
                batch, extra = stage.probe(batch)
                if extra is not None:
                    deferred.setdefault(index, []).append(extra)
            else:
                batch = stage.process(batch)
        return batch

    def _push_stages_timed(self, batch: Batch,
                           stages: Sequence[PhysicalOperator],
                           from_index: int,
                           deferred: dict[int, list[Batch]]) -> Batch:
        """:meth:`_push_stages` recording per-stage rows/batches/time."""
        metrics = self.plan_metrics
        assert metrics is not None
        for index in range(from_index, len(stages)):
            stage = stages[index]
            started = perf_counter()
            if isinstance(stage, HashJoin):
                batch, extra = stage.probe(batch)
                if extra is not None:
                    deferred.setdefault(index, []).append(extra)
            else:
                batch = stage.process(batch)
            metrics.record(stage, batch.row_count, perf_counter() - started)
        return batch

    def _push(self, batch: Batch, stages: Sequence[PhysicalOperator],
              from_index: int, deferred: dict[int, list[Batch]]) -> Batch:
        if self.plan_metrics is None:
            return self._push_stages(batch, stages, from_index, deferred)
        return self._push_stages_timed(batch, stages, from_index, deferred)

    def _scan_slice(self, source: Scan, start: int, stop: int) -> Batch:
        metrics = self.plan_metrics
        if metrics is None:
            return source.batch_slice(start, stop)
        started = perf_counter()
        batch = source.batch_slice(start, stop)
        metrics.record(source, batch.row_count, perf_counter() - started)
        return batch

    def _morsel_batch(self, span: tuple[int, int],
                      deferred: dict[int, list[Batch]]) -> Batch:
        """Scan one morsel and push it through the full stage chain."""
        return self._push(self._scan_slice(self.source, *span),
                          self.stages, 0, deferred)

    def _project_piece(self, sink: Project,
                       batch: Batch) -> tuple[QueryResult, bool]:
        metrics = self.plan_metrics
        if metrics is None:
            return sink.project(batch)
        started = perf_counter()
        piece, constant = sink.project(batch)
        metrics.record(sink, piece.row_count, perf_counter() - started)
        return piece, constant

    def _flush_deferred(self, stages: Sequence[PhysicalOperator],
                        deferred: dict[int, list[Batch]],
                        outputs: list[Batch]) -> None:
        """Push deferred LEFT-join rows through the remaining stages.

        A flush can defer new rows at later stages; the ascending scan picks
        those up, so arrival order (the sequential output order) holds."""
        for index in range(len(stages)):
            extras = deferred.pop(index, None)
            if extras:
                batch = concat_batches(extras)
                outputs.append(
                    self._push(batch, stages, index + 1, deferred))

    # -- execution ---------------------------------------------------------- #
    def _split_ranges(self, max_rows: int | None = None
                      ) -> list[tuple[int, int]]:
        row_count = self.source.row_count
        if not self.parallel_safe:
            return [(0, row_count)]
        if max_rows is None and self.context is not None:
            # a cancellable statement needs morsel boundaries (= cancellation
            # points) even single-worker, where the scheduler would otherwise
            # run the whole input as one morsel
            max_rows = self.scheduler.morsel_rows
        if max_rows is not None:
            step = max(1, min(max_rows, self.scheduler.morsel_rows))
            if row_count > step:
                return [(start, min(start + step, row_count))
                        for start in range(0, row_count, step)]
            return [(0, row_count)]
        return self.scheduler.split(row_count)

    def execute(self) -> QueryResult:
        """Run the plan to a complete :class:`QueryResult`."""
        self.prepare()
        ranges = self._split_ranges()
        keep_batches = self.sort is not None
        out_batches: list[Batch] = []

        if isinstance(self.sink, HashAggregate):
            result = self._run_aggregate(ranges, out_batches, keep_batches)
        else:
            result = self._run_projection(ranges, out_batches, keep_batches)

        if self.context is not None:
            # last checkpoint before the pipeline breakers (sort etc.) run
            self.context.check()
        if self.distinct is not None:
            result = self._apply_breaker(
                self.distinct, lambda: self.distinct.apply(result))
        if self.sort is not None:
            result = self._apply_breaker(
                self.sort,
                lambda: self.sort.apply(result, concat_batches(out_batches)))
        if self.limit is not None:
            result = self._apply_breaker(
                self.limit, lambda: self.limit.apply(result))
        return result

    def _apply_breaker(self, operator: PhysicalOperator,
                       apply: Any) -> QueryResult:
        metrics = self.plan_metrics
        if metrics is None:
            return apply()
        started = perf_counter()
        result = apply()
        metrics.record(operator, result.row_count, perf_counter() - started)
        return result

    def _run_projection(self, ranges: list[tuple[int, int]],
                        out_batches: list[Batch],
                        keep_batches: bool) -> QueryResult:
        sink = self.sink
        assert isinstance(sink, Project)
        stages = self.stages
        stop_after = None
        if (self.limit is not None and self.distinct is None
                and self.sort is None):
            stop_after = self.limit.stop_after

        def task(span: tuple[int, int]
                 ) -> tuple[QueryResult, bool, Batch, dict[int, list[Batch]]]:
            deferred: dict[int, list[Batch]] = {}
            batch = self._morsel_batch(span, deferred)
            piece, constant = self._project_piece(sink, batch)
            return piece, constant, batch, deferred

        pieces: list[QueryResult] = []
        all_constant = True
        deferred: dict[int, list[Batch]] = {}
        produced = 0
        stopped_early = False
        for piece, constant, batch, task_deferred in \
                self.scheduler.imap(task, ranges, context=self.context):
            for index, extras in task_deferred.items():
                deferred.setdefault(index, []).extend(extras)
            pieces.append(piece)
            all_constant = all_constant and constant
            if keep_batches:
                out_batches.append(batch)
            produced += piece.row_count
            if (stop_after is not None and not constant
                    and produced >= stop_after):
                stopped_early = True
                break

        if all_constant and pieces:
            # no item depended on the input rows: the sequential engine
            # broadcast constants to a single row, not one row per morsel
            return pieces[0]
        if not stopped_early:
            flush_batches: list[Batch] = []
            self._flush_deferred(stages, deferred, flush_batches)
            for batch in flush_batches:
                piece, _ = self._project_piece(sink, batch)
                pieces.append(piece)
                if keep_batches:
                    out_batches.append(batch)
        return concat_result_pieces(pieces)

    def _run_aggregate(self, ranges: list[tuple[int, int]],
                       out_batches: list[Batch],
                       keep_batches: bool) -> QueryResult:
        sink = self.sink
        assert isinstance(sink, HashAggregate)
        stages = self.stages
        use_partial = sink.mode == "partial" and len(ranges) > 1
        metrics = self.plan_metrics

        def task(span: tuple[int, int]) -> tuple[Any, dict[int, list[Batch]]]:
            deferred: dict[int, list[Batch]] = {}
            batch = self._morsel_batch(span, deferred)
            if use_partial:
                if metrics is None:
                    payload = sink.morsel_state(batch)
                else:
                    started = perf_counter()
                    payload = sink.morsel_state(batch)
                    # one partial state per morsel; output rows come from
                    # the merge below, so only batches/time accrue here
                    metrics.record(sink, 0, perf_counter() - started)
            else:
                payload = batch
            return payload, deferred

        payloads: list[Any] = []
        deferred: dict[int, list[Batch]] = {}
        for payload, task_deferred in self.scheduler.imap(
                task, ranges, context=self.context):
            for index, extras in task_deferred.items():
                deferred.setdefault(index, []).extend(extras)
            payloads.append(payload)

        flush_batches: list[Batch] = []
        self._flush_deferred(stages, deferred, flush_batches)

        if use_partial:
            states = payloads + [sink.morsel_state(batch)
                                 for batch in flush_batches]
            if keep_batches:
                out_batches.extend(state.batch for state in states)
            if metrics is None:
                return sink.finish_partial(states)
            started = perf_counter()
            result = sink.finish_partial(states)
            # the merge produces the operator's output rows; batches were
            # already counted one per partial state above
            metrics.record(sink, result.row_count,
                           perf_counter() - started, 0)
            return result
        batches = payloads + flush_batches
        if keep_batches:
            out_batches.extend(batches)
        if metrics is None:
            return sink.finish_sequential(concat_batches(batches))
        started = perf_counter()
        result = sink.finish_sequential(concat_batches(batches))
        metrics.record(sink, result.row_count, perf_counter() - started)
        return result

    # -- streaming ---------------------------------------------------------- #
    def stream_morsels(self, *, max_rows: int | None = None
                       ) -> Iterator[QueryResult]:
        """Yield the projection result morsel by morsel (streamable plans).

        OFFSET/LIMIT are applied across the stream; at least one (possibly
        empty) piece is always produced so consumers can read the result
        schema from the first piece.  :meth:`prepare` must have been called
        (under the database lock) before iterating.
        """
        assert self.streamable and self._prepared
        sink = self.sink
        assert isinstance(sink, Project)
        stages = self.stages
        skip = self.limit.offset or 0 if self.limit is not None else 0
        remaining = self.limit.limit if self.limit is not None else None

        def task(span: tuple[int, int]
                 ) -> tuple[QueryResult, bool, dict[int, list[Batch]]]:
            deferred: dict[int, list[Batch]] = {}
            batch = self._morsel_batch(span, deferred)
            piece, constant = self._project_piece(sink, batch)
            return piece, constant, deferred

        def clip(piece: QueryResult) -> QueryResult | None:
            nonlocal skip, remaining
            rows = piece.row_count
            if skip >= rows:
                skip -= rows
                return None
            if skip or (remaining is not None and remaining < rows - skip):
                piece = slice_result(piece, skip, remaining)
                skip = 0
            if remaining is not None:
                remaining -= piece.row_count
            return piece

        deferred: dict[int, list[Batch]] = {}
        yielded = False
        exhausted = False
        for piece, constant, task_deferred in \
                self.scheduler.imap(task, self._split_ranges(max_rows),
                                    context=self.context):
            for index, extras in task_deferred.items():
                deferred.setdefault(index, []).extend(extras)
            if constant:
                # constants broadcast to one row total (sequential rule)
                clipped = clip(piece)
                yield clipped if clipped is not None else slice_result(
                    piece, 0, 0)
                yielded = True
                exhausted = True
                break
            clipped = clip(piece)
            if clipped is not None:
                yield clipped
                yielded = True
            if remaining is not None and remaining <= 0:
                exhausted = True
                break
        if not exhausted:
            if self.context is not None:
                self.context.check()
            flush_batches: list[Batch] = []
            self._flush_deferred(stages, deferred, flush_batches)
            for batch in flush_batches:
                piece, _ = self._project_piece(sink, batch)
                clipped = clip(piece)
                if clipped is not None:
                    yield clipped
                    yielded = True
                if remaining is not None and remaining <= 0:
                    break
        if not yielded:
            # schema-only piece so consumers always see the column layout
            piece, _ = sink.project(self._template)
            yield slice_result(piece, 0, 0)

    # -- EXPLAIN ------------------------------------------------------------ #
    def explain_lines(self) -> list[str]:
        """Render the operator tree with estimated morsel counts."""
        self._estimate_scans()
        lines: list[str] = []

        def render(node: PhysicalOperator, depth: int) -> None:
            lines.append("  " * depth + node.describe())
            for child in node.children:
                render(child, depth + 1)

        render(self.root, 0)
        scheduler = self.scheduler
        safety = "yes" if self.parallel_safe else "no"
        lines.append(f"-- workers={scheduler.workers} "
                     f"morsel_rows={scheduler.morsel_rows} "
                     f"parallel_safe={safety}")
        return lines

    def analyze_lines(self, *, elapsed: float) -> list[str]:
        """Render the executed tree annotated with per-operator actuals.

        Requires :attr:`plan_metrics` to have been installed before the
        plan ran.  Operators that never saw a batch (e.g. pruned by an
        early LIMIT stop) carry no annotation.
        """
        self._estimate_scans()
        metrics = self.plan_metrics
        lines: list[str] = []

        def render(node: PhysicalOperator, depth: int) -> None:
            text = node.describe()
            stats = metrics.stats_for(node) if metrics is not None else None
            if stats is not None:
                rows, batches, seconds = stats
                text += (f" (actual rows={rows} batches={batches} "
                         f"time={seconds * 1000.0:.3f}ms)")
            lines.append("  " * depth + text)
            for child in node.children:
                render(child, depth + 1)

        render(self.root, 0)
        scheduler = self.scheduler
        safety = "yes" if self.parallel_safe else "no"
        lines.append(f"-- workers={scheduler.workers} "
                     f"morsel_rows={scheduler.morsel_rows} "
                     f"parallel_safe={safety} "
                     f"total_time={elapsed * 1000.0:.3f}ms")
        return lines

    def _estimate_scans(self) -> None:
        """Annotate scans with row/morsel estimates without executing
        subqueries or UDFs (storage tables only)."""
        def visit(source: Scan, stages: Sequence[PhysicalOperator],
                  pipeline: bool) -> None:
            source_ast = getattr(source, "source_ast", None)
            if isinstance(source_ast, ast.NamedTable) \
                    and virtual_table(self.database, source_ast.name) is None:
                # unknown tables raise here, exactly as execution would
                rows = self.database.storage.table(source_ast.name).row_count
                source.estimated_rows = rows
                if pipeline and self.parallel_safe:
                    source.morsel_hint = self.scheduler.morsel_count(rows)
                else:
                    source.morsel_hint = 1
            for stage in stages:
                if isinstance(stage, HashJoin):
                    visit(stage.build_source, stage.build_stages, False)

        visit(self.source, self.stages, True)


# re-exported for the executor's EXPLAIN statement
def explain_select(database: "Database", select: ast.Select) -> list[str]:
    return Planner(database).plan(select).explain_lines()
