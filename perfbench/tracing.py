"""Spans recorded around calls into each layer's public functions.

The benchmark wraps functions from its own files only: nothing under
``src/`` changes.  Each wrapper records a span ``[name, start, end, parent,
request, attrs]`` in an in-memory list; ``parent`` is the index of the span
open on the same thread when this one began, ``request`` the per-request id
current on that thread.  ``perf_counter`` is a system-wide monotonic clock,
so spans from the server and from the generator share one time base.

A wrapper whose target no longer exists (renamed or removed) is recorded
in :attr:`Tracer.absent` and the metrics that need it are left out of the
report; it never fails the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import weakref
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


class Tracer:
    """Thread-aware span recorder for one process."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.spans: list[list[Any]] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._requests = itertools.count(1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> str | None:
        return getattr(self._local, "request", None)

    def new_request(self) -> str:
        """Start a new request id on the calling thread."""
        request = f"{self.process}-{next(self._requests)}"
        self._local.request = request
        return request

    def begin(self, name: str, request: str | None = None) -> int:
        stack = self._stack()
        span = [name, perf_counter(), None, stack[-1] if stack else None,
                request if request is not None else self.request, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int, attrs: dict[str, Any] | None = None) -> None:
        span = self.spans[index]
        span[END] = perf_counter()
        if attrs:
            span[ATTRS] = attrs
        stack = self._stack()
        if index in stack:
            stack.remove(index)

    def end_open(self, name: str) -> None:
        """End the innermost open span called ``name`` on this thread, or
        else the most recent open one on any thread."""
        stack = self._stack()
        for index in reversed(stack):
            if self.spans[index][NAME] == name:
                self.end(index)
                return
        with self._lock:
            candidates = [index for index in range(len(self.spans) - 1, -1, -1)
                          if self.spans[index][NAME] == name
                          and self.spans[index][END] is None]
        if candidates:
            self.end(candidates[0])

    def closed_spans(self) -> list[list[Any]]:
        with self._lock:
            return [list(span) for span in self.spans if span[END] is not None]


# --------------------------------------------------------------------------- #
# span arithmetic
# --------------------------------------------------------------------------- #
def covered(intervals: Sequence[tuple[float, float]], start: float,
            end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    total = 0.0
    current_start = current_end = None
    for a, b in clipped:
        if current_end is None or a > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = a, b
        else:
            current_end = max(current_end, b)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Sequence[Any]]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    return [span[END] - span[START]
            - covered(children.get(index, ()), span[START], span[END])
            for index, span in enumerate(spans)]


# --------------------------------------------------------------------------- #
# wrappers
# --------------------------------------------------------------------------- #
def _resolve(path: str) -> tuple[Any, str] | None:
    """``"pkg.module:Class.attr"`` or ``"pkg.module:attr"`` -> (owner, attr)."""
    module_name, _, qualname = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = qualname.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def wrap(tracer: Tracer, path: str, span: str, *,
         before: Callable[..., Any] | None = None,
         after: Callable[..., dict[str, Any] | None] | None = None) -> bool:
    """Replace ``path`` with a wrapper recording one ``span`` per call.

    ``before(args, kwargs)`` runs ahead of the call; ``after(args, kwargs,
    result, state)`` returns the span's attributes.
    """
    resolved = _resolve(path)
    if resolved is None:
        tracer.absent.append(path)
        return False
    owner, attr = resolved
    target = getattr(owner, attr)

    @functools.wraps(target)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        state = before(args, kwargs) if before is not None else None
        index = tracer.begin(span)
        attrs = None
        try:
            result = target(*args, **kwargs)
            if after is not None:
                attrs = after(args, kwargs, result, state)
            return result
        finally:
            tracer.end(index, attrs)

    setattr(owner, attr, wrapper)
    return True


def _message_bytes(message: Any) -> int:
    if isinstance(message, (bytes, bytearray, memoryview)):
        return len(message)
    if isinstance(message, dict):
        return sum(_message_bytes(value) for value in message.values())
    if isinstance(message, (list, tuple)):
        return sum(_message_bytes(value) for value in message)
    return 0


def _traced_messages(tracer: Tracer, inner: Iterator[Any], span: str,
                     request: str | None) -> Iterator[Any]:
    try:
        while True:
            index = tracer.begin(span, request)
            try:
                message = next(inner)
            except StopIteration:
                tracer.end(index)
                return
            except BaseException:
                tracer.end(index)
                raise
            tracer.end(index, {"bytes": _message_bytes(message)})
            yield message
    finally:
        close = getattr(inner, "close", None)
        if close is not None:
            close()


def wrap_message_generator(tracer: Tracer, path: str, span: str) -> bool:
    """Wrap a function returning a message generator: one span per
    ``next()``, carrying the bytes of the message it produced."""
    resolved = _resolve(path)
    if resolved is None:
        tracer.absent.append(path)
        return False
    owner, attr = resolved
    target = getattr(owner, attr)

    @functools.wraps(target)
    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        return _traced_messages(tracer, target(*args, **kwargs), span,
                                tracer.request)

    setattr(owner, attr, wrapper)
    return True


def wrap_admission(tracer: Tracer) -> bool:
    """``try_acquire`` opens a request: its call is the admission wait, and
    a ``server.slot`` span stays open from the grant until ``release``."""
    acquire = _resolve("repro.netproto.server:AdmissionController.try_acquire")
    release = _resolve("repro.netproto.server:AdmissionController.release")
    if acquire is None or release is None:
        tracer.absent.append("repro.netproto.server:AdmissionController")
        return False
    cls = acquire[0]
    original_acquire, original_release = cls.try_acquire, cls.release

    @functools.wraps(original_acquire)
    def try_acquire(self: Any) -> Any:
        tracer.new_request()
        index = tracer.begin("server.admission")
        try:
            rejection = original_acquire(self)
        finally:
            tracer.end(index)
        if rejection is None:
            tracer.begin("server.slot")
        return rejection

    @functools.wraps(original_release)
    def release(self: Any) -> None:
        original_release(self)
        tracer.end_open("server.slot")

    cls.try_acquire = try_acquire
    cls.release = release
    return True


def _file_size(path: Any) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer report reads."""
    wrap(tracer, "repro.sqldb.database:parse_statement", "parser.parse")
    wrap(tracer, "repro.core.extract:parse_statement", "parser.parse")
    wrap(tracer, "repro.sqldb.executor:Executor.plan_select", "planner.plan")
    wrap(tracer, "repro.sqldb.plan:SelectPlan.execute", "executor.execute")
    wrap(tracer, "repro.sqldb.storage:Column.to_vector", "storage.to_vector")
    wrap(tracer, "repro.sqldb.storage:Column.scan_vector",
         "storage.scan_vector")
    wrap(tracer, "repro.sqldb.storage:Table.insert_rows",
         "storage.insert_rows",
         after=lambda args, kwargs, result, state: {"rows": result})
    wrap(tracer, "repro.sqldb.persist.wal:WriteAheadLog.append_group",
         "wal.append_group",
         before=lambda args, kwargs: _file_size(args[0].path),
         after=lambda args, kwargs, result, state: {
             "bytes": _file_size(args[0].path) - state})
    wrap(tracer, "repro.sqldb.persist.wal:WriteAheadLog.flush", "wal.flush")
    wrap(tracer, "repro.sqldb.persist:PersistentStore.checkpoint",
         "checkpoint")
    wrap(tracer, "repro.sqldb.persist.format:read_database",
         "open.read_database")
    wrap(tracer, "repro.sqldb.persist:recover", "open.recover")
    wrap(tracer, "repro.sqldb.udf:UDFRuntime.invoke", "udf.invoke")
    wrap_admission(tracer)
    wrap_message_generator(tracer, "repro.netproto.server:"
                           "columnar_result_messages", "server.encode")
    wrap_message_generator(tracer, "repro.netproto.server:"
                           "streamed_result_messages", "server.encode")
    sizes = (lambda args, kwargs, result, state:
             {"in": len(args[0]), "out": len(result)})
    wrap(tracer, "repro.netproto.compression:compress",
         "compression.compress", after=sizes)
    wrap(tracer, "repro.netproto.compression:decompress",
         "compression.decompress", after=sizes)
    wrap(tracer, "repro.netproto.messages:ColumnarResultAssembler.add_chunk",
         "client.decode")
    wrap(tracer, "repro.netproto.messages:ColumnarResultAssembler.finish",
         "client.decode")
    seen_streams: weakref.WeakSet = weakref.WeakSet()

    def first_fetch(args: Any, kwargs: Any) -> bool:
        first = args[0] not in seen_streams
        seen_streams.add(args[0])
        return first

    wrap(tracer, "repro.netproto.client:ResultStream.fetchmany",
         "client.fetchmany", before=first_fetch,
         after=lambda args, kwargs, result, first: {"first": first})
    wrap(tracer, "repro.core.extract:InputExtractor.extract", "core.extract")
    wrap(tracer, "repro.core.plugin:write_input_blob", "core.blob_write",
         after=lambda args, kwargs, result, state: {
             "bytes": result.stored_bytes})
    wrap(tracer, "repro.core.runner:LocalUDFRunner.run_file",
         "core.local_run")
    wrap(tracer, "repro.core.exporter:UDFExporter.export_udfs",
         "core.export")
    wrap(tracer, "repro.core.importer:UDFImporter.fetch_signatures",
         "core.catalog")


# --------------------------------------------------------------------------- #
# per-layer report
# --------------------------------------------------------------------------- #
#: metric -> the wrapped targets it is computed from.
METRIC_TARGETS = {
    "parser.ms_per_stmt": ["repro.sqldb.database:parse_statement"],
    "parser.share_of_server": ["repro.sqldb.database:parse_statement",
                               "repro.netproto.server:AdmissionController"],
    "planner.ms_per_stmt": ["repro.sqldb.executor:Executor.plan_select"],
    "executor.ms_per_stmt": ["repro.sqldb.plan:SelectPlan.execute"],
    "storage.materialise_ms": ["repro.sqldb.storage:Column.to_vector",
                               "repro.sqldb.storage:Column.scan_vector"],
    "storage.materialise_calls": ["repro.sqldb.storage:Column.to_vector",
                                  "repro.sqldb.storage:Column.scan_vector"],
    "storage.append_us_per_row": ["repro.sqldb.storage:Table.insert_rows"],
    "wal.append_ms_per_stmt": [
        "repro.sqldb.persist.wal:WriteAheadLog.append_group"],
    "wal.fsyncs": ["repro.sqldb.persist.wal:WriteAheadLog.append_group"],
    "wal.bytes_per_row": [
        "repro.sqldb.persist.wal:WriteAheadLog.append_group"],
    "checkpoint.ms": ["repro.sqldb.persist:PersistentStore.checkpoint"],
    "checkpoint.count": ["repro.sqldb.persist:PersistentStore.checkpoint"],
    "open.load_ms": ["repro.sqldb.persist.format:read_database"],
    "open.replay_ms": ["repro.sqldb.persist:recover",
                       "repro.sqldb.persist.format:read_database"],
    "udf.calls": ["repro.sqldb.udf:UDFRuntime.invoke"],
    "udf.ms_per_call": ["repro.sqldb.udf:UDFRuntime.invoke"],
    "server.admission_wait_ms": ["repro.netproto.server:AdmissionController"],
    "server.self_ms_per_stmt": ["repro.netproto.server:AdmissionController"],
    "server.encode_ms_per_stmt": [
        "repro.netproto.server:columnar_result_messages",
        "repro.netproto.server:streamed_result_messages"],
    "server.encode_bytes": [
        "repro.netproto.server:columnar_result_messages",
        "repro.netproto.server:streamed_result_messages"],
    "client.decode_ms_per_stmt": [
        "repro.netproto.messages:ColumnarResultAssembler.add_chunk",
        "repro.netproto.messages:ColumnarResultAssembler.finish"],
    "client.wait_first_frame_ms": [
        "repro.netproto.client:ResultStream.fetchmany"],
    "compression.ms_per_cycle": ["repro.netproto.compression:compress",
                                 "repro.netproto.compression:decompress"],
    "compression.ratio": ["repro.netproto.compression:compress"],
    "core.extract_ms": ["repro.core.extract:InputExtractor.extract"],
    "core.blob_write_ms": ["repro.core.plugin:write_input_blob"],
    "core.blob_bytes": ["repro.core.plugin:write_input_blob"],
    "core.local_run_ms": ["repro.core.runner:LocalUDFRunner.run_file"],
    "core.export_ms": ["repro.core.exporter:UDFExporter.export_udfs"],
    "core.catalog_ms": ["repro.core.importer:UDFImporter.fetch_signatures"],
    "crosscheck.parse_ratio": ["repro.sqldb.database:parse_statement"],
    "crosscheck.execute_ratio": ["repro.sqldb.plan:SelectPlan.execute"],
    "crosscheck.wal_ratio": [
        "repro.sqldb.persist.wal:WriteAheadLog.append_group"],
}


def in_window(spans: Sequence[Sequence[Any]], start: float,
              end: float) -> list[list[Any]]:
    """Spans that began inside ``[start, end]``, parents re-indexed."""
    kept = [index for index, span in enumerate(spans)
            if start <= span[START] <= end]
    position = {old: new for new, old in enumerate(kept)}
    out = []
    for old in kept:
        span = list(spans[old])
        span[PARENT] = position.get(span[PARENT])
        out.append(span)
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(server: Sequence[Sequence[Any]],
                  client: Sequence[Sequence[Any]],
                  reopen: Sequence[Sequence[Any]], *,
                  stats: dict[str, int], statements: int, ops: int,
                  rows_acked: int, reopens: int,
                  absent: Sequence[str]) -> dict[str, float]:
    """The per-layer metrics from one traced run.

    ``server``/``client`` hold the spans of the measured phase, ``reopen``
    the generator's spans while reopening the killed server's files;
    ``stats`` is the ``SHOW STATS`` delta over the measured phase.
    """
    def spans_named(spans: Sequence[Sequence[Any]],
                    *names: str) -> list[Sequence[Any]]:
        return [span for span in spans if span[NAME] in names]

    def total(spans: Sequence[Sequence[Any]], *names: str) -> float:
        return sum(span[END] - span[START]
                   for span in spans_named(spans, *names))

    def attr_sum(spans: Sequence[Sequence[Any]], name: str,
                 key: str) -> float:
        return sum((span[ATTRS] or {}).get(key, 0)
                   for span in spans_named(spans, name))

    ms = 1000.0
    server_self = self_times(server)
    roots = [index for index, span in enumerate(server)
             if span[PARENT] is None]
    server_busy = sum(server[index][END] - server[index][START]
                      for index in roots)
    slot_self = sum(server_self[index] for index, span in enumerate(server)
                    if span[NAME] == "server.slot")
    storage_names = ("storage.to_vector", "storage.scan_vector")
    storage_top = [span for span in server if span[NAME] in storage_names
                   and (span[PARENT] is None
                        or server[span[PARENT]][NAME] not in storage_names)]
    appends = spans_named(server, "wal.append_group")
    checkpoints = spans_named(server, "checkpoint")
    admissions = spans_named(server, "server.admission")
    invokes = spans_named(server, "udf.invoke")
    inserts = spans_named(list(server) + list(reopen), "storage.insert_rows")
    client_self = self_times(client)
    first_fetches = [client_self[index] for index, span in enumerate(client)
                     if span[NAME] == "client.fetchmany"
                     and (span[ATTRS] or {}).get("first")]
    compressions = spans_named(list(server) + list(client),
                               "compression.compress")
    compressed_in = sum(span[ATTRS]["in"] for span in compressions
                        if span[ATTRS])
    compressed_out = sum(span[ATTRS]["out"] for span in compressions
                         if span[ATTRS])
    replay = 0.0
    for index, span in enumerate(reopen):
        if span[NAME] == "open.recover":
            replay += span[END] - span[START] - sum(
                child[END] - child[START] for child in reopen
                if child[PARENT] == index
                and child[NAME] == "open.read_database")
    both = list(server) + list(client)
    metrics = {
        "parser.ms_per_stmt": ms * _ratio(total(server, "parser.parse"),
                                          statements),
        "parser.share_of_server": _ratio(total(server, "parser.parse"),
                                         server_busy),
        "cache.plan_hit_ratio": _ratio(
            stats.get("server.plan_cache_hits", 0),
            stats.get("server.plan_cache_hits", 0)
            + stats.get("server.plan_cache_misses", 0)),
        "cache.result_hit_ratio": _ratio(
            stats.get("server.result_cache_hits", 0),
            stats.get("server.result_cache_hits", 0)
            + stats.get("server.result_cache_misses", 0)),
        "planner.ms_per_stmt": ms * _ratio(total(server, "planner.plan"),
                                           statements),
        "executor.ms_per_stmt": ms * _ratio(
            total(server, "executor.execute"), statements),
        "executor.morsels_per_stmt": _ratio(
            stats.get("db.morsels_executed", 0), statements),
        "storage.materialise_ms": ms * _ratio(
            sum(span[END] - span[START] for span in storage_top), statements),
        "storage.materialise_calls": _ratio(
            len(spans_named(server, *storage_names)), statements),
        "storage.append_us_per_row": 1e6 * _ratio(
            total(inserts, "storage.insert_rows"),
            sum((span[ATTRS] or {}).get("rows", 0) for span in inserts)),
        "wal.append_ms_per_stmt": ms * _ratio(
            total(appends, "wal.append_group"), len(appends)),
        "wal.fsyncs": _ratio(stats.get("persist.wal_fsync_us_count", 0),
                             len(appends)),
        "wal.bytes_per_row": _ratio(
            attr_sum(server, "wal.append_group", "bytes"), rows_acked),
        "checkpoint.ms": ms * _ratio(total(checkpoints, "checkpoint"),
                                     len(checkpoints)),
        "checkpoint.count": float(len(checkpoints)),
        "open.load_ms": ms * _ratio(total(reopen, "open.read_database"),
                                    reopens),
        "open.replay_ms": ms * _ratio(replay, reopens),
        "udf.calls": _ratio(len(invokes), ops),
        "udf.ms_per_call": ms * _ratio(total(invokes, "udf.invoke"),
                                       len(invokes)),
        "server.admission_wait_ms": ms * _ratio(
            total(admissions, "server.admission"), len(admissions)),
        "server.self_ms_per_stmt": ms * _ratio(slot_self, statements),
        "server.encode_ms_per_stmt": ms * _ratio(
            total(server, "server.encode"), statements),
        "server.encode_bytes": _ratio(
            attr_sum(server, "server.encode", "bytes"), statements),
        "client.decode_ms_per_stmt": ms * _ratio(
            total(client, "client.decode"), statements),
        "client.wait_first_frame_ms": ms * _ratio(sum(first_fetches),
                                                  len(first_fetches)),
        "compression.ms_per_cycle": ms * _ratio(
            total(both, "compression.compress", "compression.decompress"),
            ops),
        "compression.ratio": _ratio(compressed_in, compressed_out),
        "core.extract_ms": ms * _ratio(total(client, "core.extract"), ops),
        "core.blob_write_ms": ms * _ratio(total(client, "core.blob_write"),
                                          ops),
        "core.blob_bytes": _ratio(attr_sum(client, "core.blob_write",
                                           "bytes"),
                                  len(spans_named(client, "core.blob_write"))),
        "core.local_run_ms": ms * _ratio(total(client, "core.local_run"), ops),
        "core.export_ms": ms * _ratio(total(client, "core.export"), ops),
        "core.catalog_ms": ms * _ratio(total(client, "core.catalog"), ops),
        "crosscheck.parse_ratio": _ratio(
            1e6 * total(server, "parser.parse"),
            stats.get("db.parse_us_sum_us", 0)),
        "crosscheck.execute_ratio": _ratio(
            1e6 * total(server, "executor.execute"),
            stats.get("db.execute_us_sum_us", 0)),
        "crosscheck.wal_ratio": _ratio(
            1e6 * total(appends, "wal.append_group"),
            stats.get("persist.wal_append_us_sum_us", 0)),
    }
    for metric, targets in METRIC_TARGETS.items():
        if any(target in absent for target in targets):
            metrics.pop(metric, None)
    return metrics
