"""Columnar storage engine.

Tables are stored column-at-a-time (MonetDB's BAT layout, simplified).  Every
column is a :class:`repro.sqldb.vector.Vector` kept as append-only typed
buffers — the very representation scans, UDF handoffs, checkpoints and the
wire encoder consume, so there is no second format to convert or cache:

* the value buffer is ``int64``/``float64``/``bool`` (an object array for
  BLOB) and grows by capacity doubling;
* a boolean validity mask (``True`` = NULL) is allocated on the first NULL.
  The mask, never the ``NULL_FILL`` placeholder in the value buffer, is the
  source of truth for NULLs, so ``""``, ``0`` and ``False`` round-trip;
* STRING columns store ``int64`` codes into a **sorted** dictionary, so code
  order is string order.  A batch with unseen strings merges the dictionary
  once, inserting them at their sorted positions, and remaps the stored
  codes into a new buffer (skipped when they all sort last).

A scan (:meth:`Column.to_vector`) is an O(1) snapshot ``(data[:n], mask[:n],
dictionary)`` of read-only views, read from one atomically replaced state
tuple and shared by every reader of that state.  The snapshot invariant:
nothing a snapshot can see is written again.  Appends write only past
``n``; a dictionary merge remaps into a new buffer; UPDATE, DELETE and
TRUNCATE build new buffers (copy-on-write).  A streamed SELECT running
lock-free on its snapshot thus stays isolated from later statements
without a lock or invalidation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..errors import CatalogError, CorruptionError, ExecutionError
from .schema import ColumnDef, TableSchema
from .types import NUMPY_DTYPES, SQLType, coerce_value
from .vector import (NULL_CODE, NULL_FILL, Vector, fill_nulls,
                     slice_column_values)


#: The Python types :func:`coerce_value` returns for each SQL type (plus
#: NULL): a batch holding only these needs no per-value coercion.
_STORED_TYPES = {
    sql_type: frozenset({python_type, type(None)})
    for sql_type, python_type in (
        (SQLType.INTEGER, int), (SQLType.BIGINT, int),
        (SQLType.DOUBLE, float), (SQLType.REAL, float),
        (SQLType.BOOLEAN, bool), (SQLType.STRING, str),
        (SQLType.BLOB, bytes))}


def _sealed(array: np.ndarray) -> np.ndarray:
    """A writable view of ``array`` whose owner becomes read-only.

    Storage writes through the view and snapshots slice the owner, so no
    scan or UDF can flip a snapshot writable and reach the stored bytes.
    """
    if array.base is not None:  # already sealed
        return array
    view = array[:]
    array.setflags(write=False)
    return view


def _grown(buffer: np.ndarray, length: int, capacity: int) -> np.ndarray:
    grown = np.empty(capacity, dtype=buffer.dtype)
    grown[:length] = buffer[:length]
    return grown


def _compacted(codes: np.ndarray, dictionary: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Drop dictionary entries no code refers to (after a rewrite)."""
    used = np.zeros(len(dictionary) + 1, dtype=bool)
    used[codes] = True  # NULL_CODE (-1) lands in the spare last slot
    used = used[:-1]
    if used.all():
        return codes, dictionary
    remap = np.append(np.cumsum(used) - 1, NULL_CODE)
    return remap[codes], dictionary[used]


class Column:
    """One stored column: append-only typed buffers behind O(1) snapshots."""

    __slots__ = ("definition", "_state")

    def __init__(self, definition: ColumnDef) -> None:
        self.definition = definition
        #: ``(data, mask or None, dictionary or None, row count, snapshot)``,
        #: replaced as a whole so a concurrent reader never sees a torn
        #: state.  Every reader of one state shares its snapshot, and with
        #: it the memoised UDF array (:meth:`Vector.to_numpy`).
        self._state: tuple[np.ndarray, np.ndarray | None,
                           np.ndarray | None, int, Vector]
        self.truncate()

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def sql_type(self) -> SQLType:
        return self.definition.sql_type

    def __len__(self) -> int:
        return self._state[3]

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def to_vector(self) -> Vector:
        """A snapshot of the stored rows: read-only views, no copy."""
        return self._state[4]

    def scan_vector(self, start: int, stop: int) -> Any:
        """Rows ``[start, stop)`` of a snapshot in the executor's format:
        a typed array for NULL-free numeric/boolean columns, an object array
        (``None`` at NULLs) for BLOB, else the :class:`Vector`."""
        return slice_column_values(self.to_vector().executor_values(),
                                   start, stop)

    def to_numpy(self) -> np.ndarray:
        """The UDF handoff format (read-only), derived from a snapshot."""
        return self.to_vector().to_numpy()

    @property
    def values(self) -> list[Any]:
        """The stored rows as Python values (``None`` = NULL); a copy."""
        return self.to_vector().to_list()

    @values.setter
    def values(self, values: Sequence[Any]) -> None:
        """Replace the stored rows (coerced, like :meth:`extend`)."""
        vector = self.coerce(values)
        self.truncate()
        self.append_vector(vector)

    def mark_dirty(self) -> None:
        """No-op kept for bulk loaders that call it after assigning
        :attr:`values` (``perfbench/workloads.py``): there is no cache."""

    # ------------------------------------------------------------------ #
    # writes: append past the end, rewrite by copy
    # ------------------------------------------------------------------ #
    def coerce(self, values: Iterable[Any]) -> Vector:
        """``values`` coerced to this column's type, as a vector."""
        sql_type = self.sql_type
        values = list(values)
        if set(map(type, values)) <= _STORED_TYPES[sql_type]:
            try:  # already the stored Python type: nothing to convert
                return Vector.from_values(values, sql_type)
            except OverflowError:  # an int beyond int64: coerce_value says
                pass
        return Vector.from_values(
            [coerce_value(value, sql_type) for value in values], sql_type)

    def append(self, value: Any) -> None:
        self.append_vector(self.coerce([value]))

    def extend(self, values: Iterable[Any]) -> None:
        self.append_vector(self.coerce(values))

    def append_nulls(self, count: int) -> None:
        """Append ``count`` NULL rows (the salvage loader's placeholders)."""
        data, _, dictionary, _, _ = self._state
        fill = NULL_FILL[self.sql_type] if dictionary is None else NULL_CODE
        self.append_vector(Vector(np.full(count, fill, dtype=data.dtype),
                                  np.ones(count, dtype=bool), dictionary,
                                  self.sql_type))

    def append_vector(self, vector: Vector) -> None:
        """Append ``vector``'s rows; the only write into existing buffers,
        and it lands past the end of every snapshot."""
        codes = self._codes(vector)
        data, mask, dictionary, length, _ = self._state
        stop = length + len(codes)
        if stop > len(data):
            capacity = max(stop, 2 * len(data))
            data = _grown(data, length, capacity)
            if mask is not None:
                mask = _grown(mask, length, capacity)
        data = _sealed(data)
        data[length:stop] = codes
        if mask is None and vector.mask is not None:
            mask = np.zeros(len(data), dtype=bool)
        if mask is not None:
            mask = _sealed(mask)
            mask[length:stop] = False if vector.mask is None else vector.mask
        self._store(data, mask, dictionary, stop)

    def assign(self, indices: np.ndarray, vector: Vector) -> None:
        """UPDATE: new buffers with the rows at ``indices`` replaced."""
        codes = self._codes(vector)
        data, mask, dictionary, length, _ = self._state
        data = data[:length].copy()
        data[indices] = codes
        if mask is not None or vector.mask is not None:
            mask = np.zeros(length, dtype=bool) if mask is None \
                else mask[:length].copy()
            mask[indices] = False if vector.mask is None else vector.mask
        self._rewrite(data, mask, dictionary)

    def keep(self, keep: np.ndarray) -> None:
        """DELETE: new buffers holding only the rows where ``keep``."""
        data, mask, dictionary, length, _ = self._state
        self._rewrite(data[:length][keep],
                      None if mask is None else mask[:length][keep],
                      dictionary)

    def truncate(self, length: int = 0) -> None:
        """Drop the rows past ``length``; ``0`` starts over on new buffers.

        A non-zero ``length`` only rolls back the rows a failing statement
        appended, which no snapshot outside that statement can hold.
        """
        if length:
            self._store(*self._state[:3], length)
            return
        is_string = self.sql_type is SQLType.STRING
        dtype = np.int64 if is_string else NUMPY_DTYPES[self.sql_type]
        self._store(np.empty(0, dtype), None,
                    np.empty(0, dtype=object) if is_string else None, 0)

    def _store(self, data: np.ndarray, mask: np.ndarray | None,
               dictionary: np.ndarray | None, length: int) -> None:
        """Publish a new state and its snapshot."""
        if dictionary is not None:
            dictionary.setflags(write=False)
        data = _sealed(data)
        mask = None if mask is None else _sealed(mask)
        # slices of the read-only owners (see _sealed), not of the writers
        snapshot = Vector(data.base[:length],
                          None if mask is None else mask.base[:length],
                          dictionary, self.sql_type)
        self._state = (data, mask, dictionary, length, snapshot)

    def _rewrite(self, data: np.ndarray, mask: np.ndarray | None,
                 dictionary: np.ndarray | None) -> None:
        if mask is not None and not mask.any():
            mask = None
        if dictionary is not None:
            data, dictionary = _compacted(data, dictionary)
        self._store(data, mask, dictionary, len(data))

    def _codes(self, vector: Vector) -> np.ndarray:
        """``vector``'s data in this column's encoding.  For STRING, maps
        its (sorted, unique) dictionary into the column's; unseen strings
        are first inserted in place and the stored codes remapped into a
        new buffer."""
        if self.sql_type is not SQLType.STRING:
            return vector.data
        incoming = vector.dictionary
        data, mask, dictionary, length, _ = self._state
        positions = np.searchsorted(dictionary, incoming)
        seen = positions < len(dictionary)
        seen[seen] = dictionary[positions[seen]] == incoming[seen]
        if not seen.all():
            # both sides are sorted: insert the unseen strings, no re-sort
            at = positions[~seen]
            merged = np.insert(dictionary, at, incoming[~seen])
            if at[0] < len(dictionary):  # else all sort last: codes hold
                # a code moves right by the insertions at or before it
                # (NULL_CODE sorts before every insertion point: it stays)
                stored = data[:length]
                remapped = np.empty(len(data), dtype=np.int64)
                np.add(stored, np.searchsorted(at, stored, side="right"),
                       out=remapped[:length])
                data = remapped
            self._store(data, mask, merged, length)
            positions = positions + np.searchsorted(at, positions,
                                                    side="right")
            positions[~seen] = at + np.arange(len(at))
        return np.append(positions, NULL_CODE)[vector.data]


def column_to_numpy(values: Sequence[Any], sql_type: SQLType) -> np.ndarray:
    """Convert a list of SQL values to the numpy array handed to UDFs.

    Columns containing NULLs fall back to an object array so that ``None``
    survives the conversion (MonetDB uses masked arrays; an object array keeps
    the reproduction dependency-light while preserving the observable
    behaviour that UDFs can see missing values).
    """
    dtype = NUMPY_DTYPES[sql_type]
    if any(value is None for value in values):
        return np.array(list(values), dtype="object")
    if dtype == "object":
        array = np.empty(len(values), dtype="object")
        for index, value in enumerate(values):
            array[index] = value
        return array
    return np.array(list(values), dtype=dtype)


def values_to_arrays(values: Sequence[Any],
                     sql_type: SQLType) -> tuple[np.ndarray, np.ndarray | None]:
    """Export a value list as ``(data array, null mask)`` buffer pair.

    This is the wire-export shape: a contiguous typed data array with NULL
    positions filled by a placeholder, plus a boolean mask that is ``None``
    when the column has no NULLs.  The inverse is :func:`arrays_to_values`.
    """
    return Vector.from_values(values, sql_type).buffer_arrays()


def arrays_to_values(data: np.ndarray | Sequence[Any],
                     mask: np.ndarray | None = None) -> list[Any]:
    """Import a ``(data, mask)`` buffer pair back into a plain value list."""
    values = data.tolist() if isinstance(data, np.ndarray) else list(data)
    return fill_nulls(values, mask)


@dataclass(frozen=True)
class QuarantinedRange:
    """A row range whose on-disk segment failed its checksum.

    Created by the salvage loader (``Database(path=..., salvage=True)``):
    the range's rows are NULL placeholders, not data, so any access to the
    table raises a structured :class:`~repro.errors.CorruptionError` until
    the operator discards the damage (TRUNCATE or DROP TABLE).
    """

    table: str
    start_row: int
    stop_row: int
    offset: int
    reason: str

    def as_dict(self) -> dict[str, Any]:
        return {"table": self.table, "start_row": self.start_row,
                "stop_row": self.stop_row, "offset": self.offset,
                "reason": self.reason}


class Table:
    """A stored table: a schema plus one :class:`Column` per schema column."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.columns: list[Column] = [Column(col) for col in schema.columns]
        #: Row ranges sealed by the salvage loader; non-empty quarantine
        #: blocks every read and row-rewriting mutation (see
        #: :meth:`check_readable`).  Appends are still allowed — they land
        #: after the damaged range — and TRUNCATE/DROP clear it.
        self.quarantined: list[QuarantinedRange] = []

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def column_names(self) -> list[str]:
        return self.schema.column_names

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column(self, name: str) -> Column:
        return self.columns[self.schema.column_index(name)]

    # ------------------------------------------------------------------ #
    # quarantine (salvage mode)
    # ------------------------------------------------------------------ #
    def quarantine(self, entry: QuarantinedRange) -> None:
        """Seal a row range whose backing segment failed its checksum."""
        self.quarantined.append(entry)

    def check_readable(self) -> None:
        """Raise :class:`CorruptionError` when quarantined rows exist.

        Called by every scan and row-rewriting mutation path: quarantined
        rows are NULL placeholders, and serving (or rewriting) them as data
        would silently launder the corruption into query results.
        """
        if not self.quarantined:
            return
        first = self.quarantined[0]
        ranges = ", ".join(f"{entry.start_row}..{entry.stop_row}"
                           for entry in self.quarantined)
        raise CorruptionError(
            f"table {self.name!r} has quarantined row ranges [{ranges}] "
            f"from corrupt on-disk segments (first: {first.reason}); "
            "restore from backup, or TRUNCATE/DROP the table to discard",
            table=self.name,
            row_range=(first.start_row, first.stop_row),
            offset=first.offset)

    # ------------------------------------------------------------------ #
    # mutation: every value is coerced before any column is touched, so a
    # bad value fails the statement with the table unchanged (never ragged)
    # ------------------------------------------------------------------ #
    def insert_row(self, values: Sequence[Any]) -> None:
        self.insert_rows([values])

    def insert_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append a batch of rows, one append per column; returns the count."""
        rows = list(rows)
        for row in rows:
            if len(row) != len(self.columns):
                raise ExecutionError(
                    f"INSERT into {self.name!r}: expected "
                    f"{len(self.columns)} values, got {len(row)}")
        vectors = [column.coerce([row[index] for row in rows])
                   for index, column in enumerate(self.columns)]
        for column, vector in zip(self.columns, vectors):
            column.append_vector(vector)
        return len(rows)

    def truncate_to(self, row_count: int) -> None:
        """Roll back the rows appended since ``row_count``.

        A failed INSERT/COPY/CTAS calls this whether coercion or the WAL
        append failed, so the rows in memory never diverge from what a
        crash would recover.
        """
        for column in self.columns:
            column.truncate(row_count)

    def delete_rows(self, keep_mask: Sequence[bool]) -> int:
        """Keep only rows where ``keep_mask`` is True; return rows removed."""
        self.check_readable()
        keep = np.asarray(keep_mask, dtype=bool)
        if len(keep) != self.row_count:
            raise ExecutionError("DELETE mask length mismatch")
        for column in self.columns:
            column.keep(keep)
        return len(keep) - int(np.count_nonzero(keep))

    def update_rows(self, mask: Sequence[bool], assignments: dict[str, list[Any]]) -> int:
        """Set each assigned column to its per-row new value where ``mask``."""
        self.check_readable()
        selected = np.flatnonzero(np.asarray(mask, dtype=bool))
        updates = [(self.column(name),
                    self.column(name).coerce(values[index]
                                             for index in selected.tolist()))
                   for name, values in assignments.items()]
        for column, vector in updates:
            column.assign(selected, vector)
        return len(selected)

    def truncate(self) -> None:
        # explicit destruction discards quarantined placeholders with the
        # data, so a salvaged table becomes writable again
        for column in self.columns:
            column.truncate()
        self.quarantined.clear()

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def rows(self) -> Iterator[tuple[Any, ...]]:
        self.check_readable()
        return zip(*(column.values for column in self.columns))

    def to_dict(self) -> dict[str, list[Any]]:
        self.check_readable()
        return {column.name: column.values for column in self.columns}

    def to_numpy_dict(self) -> dict[str, np.ndarray]:
        self.check_readable()
        return {column.name: column.to_numpy() for column in self.columns}


class Storage:
    """The collection of all stored tables, addressed by (schema, name)."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    @staticmethod
    def _key(name: str) -> str:
        return name.lower()

    def create_table(self, schema: TableSchema, *, if_not_exists: bool = False) -> Table:
        key = self._key(schema.name)
        if key in self._tables:
            if if_not_exists:
                return self._tables[key]
            raise CatalogError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self._tables[key] = table
        return table

    def drop_table(self, name: str, *, if_exists: bool = False) -> None:
        key = self._key(name)
        if key not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]

    def has_table(self, name: str) -> bool:
        return self._key(name) in self._tables

    def table(self, name: str) -> Table:
        key = self._key(name)
        try:
            return self._tables[key]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def table_names(self) -> list[str]:
        return sorted(table.name for table in self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)
