"""SQL type system for the embedded column store.

MonetDB's type system is much richer than what devUDF needs; we implement the
subset the paper's UDFs and demo scenarios touch (integers, floating point,
strings, booleans, blobs) plus the coercion rules between them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import TypeMismatchError


class SQLType(enum.Enum):
    """Logical SQL column types supported by the engine."""

    INTEGER = "INTEGER"
    BIGINT = "BIGINT"
    DOUBLE = "DOUBLE"
    REAL = "REAL"
    STRING = "STRING"
    BOOLEAN = "BOOLEAN"
    BLOB = "BLOB"

    @property
    def is_numeric(self) -> bool:
        return self in _NUMERIC_TYPES

    @property
    def is_integer(self) -> bool:
        return self in (SQLType.INTEGER, SQLType.BIGINT)

    @property
    def is_floating(self) -> bool:
        return self in (SQLType.DOUBLE, SQLType.REAL)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_NUMERIC_TYPES = frozenset(
    {SQLType.INTEGER, SQLType.BIGINT, SQLType.DOUBLE, SQLType.REAL}
)

#: Aliases accepted by the SQL parser, mapping to canonical types.
TYPE_ALIASES: dict[str, SQLType] = {
    "INT": SQLType.INTEGER,
    "INTEGER": SQLType.INTEGER,
    "SMALLINT": SQLType.INTEGER,
    "TINYINT": SQLType.INTEGER,
    "BIGINT": SQLType.BIGINT,
    "HUGEINT": SQLType.BIGINT,
    "DOUBLE": SQLType.DOUBLE,
    "FLOAT": SQLType.DOUBLE,
    "REAL": SQLType.REAL,
    "DECIMAL": SQLType.DOUBLE,
    "NUMERIC": SQLType.DOUBLE,
    "STRING": SQLType.STRING,
    "VARCHAR": SQLType.STRING,
    "CHAR": SQLType.STRING,
    "TEXT": SQLType.STRING,
    "CLOB": SQLType.STRING,
    "BOOLEAN": SQLType.BOOLEAN,
    "BOOL": SQLType.BOOLEAN,
    "BLOB": SQLType.BLOB,
}


def parse_type_name(name: str) -> SQLType:
    """Resolve a SQL type name (possibly an alias) to a :class:`SQLType`.

    Raises :class:`TypeMismatchError` for unknown type names.
    """
    canonical = TYPE_ALIASES.get(name.upper())
    if canonical is None:
        raise TypeMismatchError(f"unknown SQL type {name!r}")
    return canonical


@dataclass(frozen=True)
class ColumnType:
    """A column's declared type plus nullability."""

    sql_type: SQLType
    nullable: bool = True

    def __str__(self) -> str:
        suffix = "" if self.nullable else " NOT NULL"
        return f"{self.sql_type}{suffix}"


_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


def coerce_value(value: Any, sql_type: SQLType) -> Any:
    """Coerce a Python value to the representation used for ``sql_type``.

    ``None`` always passes through (SQL NULL).  Raises
    :class:`TypeMismatchError` when the value cannot be represented.
    """
    if value is None:
        return None
    if isinstance(value, np.generic):  # numpy scalar leaked from a kernel
        value = value.item()
    try:
        if sql_type.is_integer:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, float) and not value.is_integer():
                raise TypeMismatchError(
                    f"cannot store non-integral value {value!r} in {sql_type}"
                )
            integer = int(value)
            # both integer types are stored as int64
            if not _INT64_MIN <= integer <= _INT64_MAX:
                raise TypeMismatchError(
                    f"integer {integer} out of range for {sql_type} (64-bit)")
            return integer
        if sql_type.is_floating:
            return float(value)
        if sql_type is SQLType.STRING:
            if isinstance(value, bytes):
                return value.decode("utf-8")
            return str(value)
        if sql_type is SQLType.BOOLEAN:
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "1"):
                    return True
                if lowered in ("false", "f", "0"):
                    return False
                raise TypeMismatchError(f"cannot parse boolean from {value!r}")
            return bool(value)
        if sql_type is SQLType.BLOB:
            if isinstance(value, str):
                return value.encode("utf-8")
            if isinstance(value, (bytes, bytearray, memoryview)):
                return bytes(value)
            raise TypeMismatchError(f"cannot store {type(value).__name__} as BLOB")
    except TypeMismatchError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise TypeMismatchError(
            f"cannot coerce {value!r} to {sql_type}: {exc}"
        ) from exc
    raise TypeMismatchError(f"unsupported SQL type {sql_type!r}")


def python_value(value: Any) -> Any:
    """Unwrap a numpy scalar leaked from a vector kernel to its Python value."""
    return value.item() if isinstance(value, np.generic) else value


def infer_sql_type(value: Any) -> SQLType:
    """Infer the narrowest SQL type able to hold a Python ``value``."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return SQLType.BOOLEAN
    if isinstance(value, int):
        return SQLType.INTEGER if -2**31 <= value < 2**31 else SQLType.BIGINT
    if isinstance(value, float):
        return SQLType.DOUBLE
    if isinstance(value, (bytes, bytearray, memoryview)):
        return SQLType.BLOB
    return SQLType.STRING


def common_type(left: SQLType, right: SQLType) -> SQLType:
    """The result type of combining two operand types in an expression."""
    if left == right:
        return left
    if left.is_numeric and right.is_numeric:
        if left.is_floating or right.is_floating:
            return SQLType.DOUBLE
        if SQLType.BIGINT in (left, right):
            return SQLType.BIGINT
        return SQLType.INTEGER
    if SQLType.STRING in (left, right):
        return SQLType.STRING
    raise TypeMismatchError(f"no common type for {left} and {right}")


#: Map from SQLType to the numpy dtype used when handing columns to UDFs.
NUMPY_DTYPES = {
    SQLType.INTEGER: "int64",
    SQLType.BIGINT: "int64",
    SQLType.DOUBLE: "float64",
    SQLType.REAL: "float64",
    SQLType.BOOLEAN: "bool",
    SQLType.STRING: "object",
    SQLType.BLOB: "object",
}
