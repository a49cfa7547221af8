"""Python UDF compilation and execution (the MonetDB/Python "pyapi" stand-in).

MonetDB stores only the *body* of a Python UDF (paper Listing 1).  At call
time the engine synthesises a real Python function from the catalog signature
and the body, executes it **once per operator invocation** with entire columns
as numpy arrays (operator-at-a-time), and converts the return value back to
columns.  Loopback queries are available through the ``_conn`` object passed
to every UDF (paper §2.3).

The output contract (:func:`output_vector`): every returned column becomes a
:class:`Vector` of the declared type.

* A 1-D ``bool``/integer/float array bound for a numeric or BOOLEAN column is
  adopted with one read-only copy (``astype``).  Whole-array checks apply
  :func:`coerce_value`'s rules, and a refused value raises the same
  :class:`TypeMismatchError` that ``coerce_value`` raises for it.
* Everything else — lists, tuples, object arrays, STRING/BLOB columns — is
  coerced one value at a time; ``None`` becomes NULL.
* A scalar (a Python value, a ``np.generic`` or a 0-d array) is a
  one-element column; a table UDF's scalar entry is broadcast to the
  length of its longest column.
"""

from __future__ import annotations

import textwrap
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence, TypeVar

import numpy as np

from ..errors import UDFError
from .schema import FunctionSignature
from .storage import column_to_numpy
from .types import NUMPY_DTYPES, SQLType, coerce_value
from .vector import Vector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import Database

_T = TypeVar("_T")


class LoopbackConnection:
    """The ``_conn`` object handed to every MonetDB/Python UDF.

    ``execute`` runs a SQL query against the owning database and returns the
    result as a dict of column name -> numpy array, which is how
    MonetDB/Python surfaces loopback results to the UDF author.
    """

    def __init__(self, database: "Database") -> None:
        self._database = database
        self.queries_executed: list[str] = []

    def execute(self, query: str) -> dict[str, np.ndarray]:
        self.queries_executed.append(query)
        result = self._database.execute(query)
        return result.to_numpy_dict()


def build_udf_source(signature: FunctionSignature, *, function_name: str | None = None) -> str:
    """Build the Python source of a ``def`` wrapping the stored body.

    The generated header is exactly the transformation devUDF performs on
    import (paper Listing 1 -> Listing 2): parameters in catalog order plus
    the implicit ``_conn`` parameter.
    """
    name = function_name or signature.name
    params = list(signature.parameter_names) + ["_conn=None"]
    header = f"def {name}({', '.join(params)}):"
    body = signature.body
    if not body.strip():
        body = "pass"
    dedented = textwrap.dedent(body).strip("\n")
    indented = textwrap.indent(dedented, "    ")
    return f"{header}\n{indented}\n"


def compile_udf(signature: FunctionSignature) -> Callable[..., Any]:
    """Compile the stored body into a callable Python function.

    The execution namespace pre-imports ``numpy`` (as both ``numpy`` and
    ``np``) and ``pickle``, matching the MonetDB/Python embedded interpreter
    environment that the paper's example UDFs rely on.
    """
    import pickle  # local import: the UDF namespace needs the module object

    source = build_udf_source(signature, function_name="_devudf_function")
    namespace: dict[str, Any] = {
        "numpy": np,
        "np": np,
        "pickle": pickle,
    }
    try:
        code = compile(source, f"<udf {signature.name}>", "exec")
        exec(code, namespace)  # noqa: S102 - executing user UDF code is the feature
    except SyntaxError as exc:
        raise UDFError(signature.name, f"body does not compile: {exc}", exc) from exc
    return namespace["_devudf_function"]


def columns_to_udf_args(
    arg_values: Sequence[Any],
    arg_is_column: Sequence[bool],
    sql_types: Sequence[SQLType],
) -> list[Any]:
    """Convert evaluated argument columns/scalars to the UDF input format.

    Columns that are already numpy arrays (the zero-copy scan format)
    are handed to the UDF without re-conversion.  All column arguments are
    read-only, regardless of which execution path produced them: the zero-copy
    handoff means a write could reach shared engine state, so mutation fails
    loudly and *consistently* instead of depending on the query shape.
    """
    converted: list[Any] = []
    for value, is_column, sql_type in zip(arg_values, arg_is_column, sql_types):
        if is_column:
            if isinstance(value, Vector):
                # same observable shapes as column_to_numpy: object array
                # with Nones for NULL-bearing/string columns, typed otherwise
                array = value.to_numpy().view()
            elif isinstance(value, np.ndarray):
                array = value.view()
            else:
                array = column_to_numpy(value, sql_type)
            array.setflags(write=False)
            converted.append(array)
        else:
            converted.append(value)
    return converted


#: ``-2**63`` and ``2**63`` are exact doubles, and every double in
#: ``[-2**63, 2**63)`` fits in int64.  NumPy scalars, so a narrower float
#: array is compared in float64 instead of overflowing the bounds.
_INT64_FLOAT_MIN = np.float64(-2.0 ** 63)
_INT64_FLOAT_MAX = np.float64(2.0 ** 63)


def _as_column(value: Any) -> Any:
    """Normalise a UDF output to something with a length: arrays and
    sequences pass through; a scalar — a ``np.generic``, a 0-d array or any
    other object — becomes a one-element list."""
    if isinstance(value, np.ndarray):
        return value if value.ndim else [value[()]]
    if isinstance(value, (list, tuple)):
        return value
    return [value]


def _not_int64(array: np.ndarray) -> np.ndarray | None:
    """Mask of the elements :func:`coerce_value` refuses to store as int64
    (None: booleans and signed integers always fit)."""
    if array.dtype.kind == "u":
        return array > np.iinfo(np.int64).max
    if array.dtype.kind == "f":
        # NaN fails the equality and the infinities fail the range
        return ~((array == np.trunc(array)) & (array >= _INT64_FLOAT_MIN)
                 & (array < _INT64_FLOAT_MAX))
    return None


def _adopted(array: np.ndarray, sql_type: SQLType) -> np.ndarray:
    """A typed 1-D array converted to ``sql_type`` exactly as
    :func:`coerce_value` converts each element, in one read-only copy."""
    if sql_type is SQLType.BOOLEAN:
        data = array.astype(bool) if array.dtype.kind == "b" else array != 0
    else:
        bad = _not_int64(array) if sql_type.is_integer else None
        if bad is not None and bad.any():
            # the first offending value raises what coerce_value raises
            coerce_value(array[int(np.argmax(bad))], sql_type)
        data = array.astype(NUMPY_DTYPES[sql_type])
    data.setflags(write=False)
    return data


def output_vector(value: Any, sql_type: SQLType) -> Vector:
    """Convert one UDF output (array, sequence or scalar) to a Vector.

    A 1-D boolean/integer/float array bound for a numeric or BOOLEAN column
    is adopted whole (see :func:`_adopted`); everything else is coerced per
    value.
    """
    column = _as_column(value)
    if (isinstance(column, np.ndarray) and column.ndim == 1
            and column.dtype.kind in "biuf"
            and (sql_type.is_numeric or sql_type is SQLType.BOOLEAN)):
        return Vector(_adopted(column, sql_type), None, None, sql_type)
    if isinstance(column, np.ndarray):
        column = column.tolist()
    return Vector.from_values(
        [coerce_value(item, sql_type) for item in column], sql_type)


def convert_scalar_result(
    signature: FunctionSignature, result: Any, input_length: int
) -> tuple[Vector, bool]:
    """Convert a scalar UDF's return value to a column.

    Returns ``(vector, is_row_aligned)``.  ``is_row_aligned`` is True when the
    UDF returned one value per input row; False when it aggregated the column
    to fewer values (e.g. the paper's ``mean_deviation`` returns one DOUBLE for
    the whole input column).
    """
    vector = output_vector(result, signature.return_type or SQLType.DOUBLE)
    row_aligned = input_length > 0 and len(vector) == input_length
    return vector, row_aligned


def convert_table_result(
    signature: FunctionSignature, result: Any
) -> dict[str, Vector]:
    """Convert a table-returning UDF's output to named columns.

    Accepted shapes (matching MonetDB/Python):

    * ``dict`` mapping column name -> array/list/scalar,
    * a single array/list (only valid for single-column return tables),
    * a scalar (single column, single row).

    Scalar entries are broadcast to the length of the longest column.
    """
    columns = signature.return_columns
    if isinstance(result, Mapping):
        raw = {str(key): _as_column(value) for key, value in result.items()}
    elif len(columns) == 1:
        raw = {columns[0].name: _as_column(result)}
    else:
        raise UDFError(
            signature.name,
            f"table UDF must return a dict with {len(columns)} columns, "
            f"got {type(result).__name__}",
        )

    # Align dict keys with declared return columns (case-insensitive).
    lowered = {key.lower(): values for key, values in raw.items()}
    missing = [col.name for col in columns if col.name.lower() not in lowered]
    if missing:
        raise UDFError(
            signature.name,
            f"table UDF result is missing declared column(s) {missing}; "
            f"returned keys: {sorted(raw)}",
        )

    ordered = {col.name: lowered[col.name.lower()] for col in columns}
    length = max((len(values) for values in ordered.values()), default=0)
    out: dict[str, Vector] = {}
    for col in columns:
        values = ordered[col.name]
        if len(values) not in (1, length):
            raise UDFError(
                signature.name,
                f"column {col.name!r} has {len(values)} values, expected {length}",
            )
        vector = output_vector(values, col.sql_type)
        if len(vector) != length:  # a scalar entry: broadcast it
            vector = vector.take(np.zeros(length, dtype=np.intp))
        out[col.name] = vector
    return out


class UDFRuntime:
    """Caches compiled UDFs and invokes them operator-at-a-time."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._compiled: dict[str, tuple[str, Callable[..., Any]]] = {}
        #: number of times each UDF was invoked (one invocation per operator
        #: call — the quantity the tuple-at-a-time comparison in §2.4 varies).
        self.invocation_counts: dict[str, int] = {}
        self._h_invoke = database.metrics.histogram("udf.invoke_us")
        self._h_convert = database.metrics.histogram("udf.convert_us")

    def loopback(self) -> LoopbackConnection:
        return LoopbackConnection(self._database)

    def _get_callable(self, signature: FunctionSignature) -> Callable[..., Any]:
        key = signature.name.lower()
        cached = self._compiled.get(key)
        if cached is not None and cached[0] == signature.body:
            return cached[1]
        function = compile_udf(signature)
        self._compiled[key] = (signature.body, function)
        return function

    def invalidate(self, name: str) -> None:
        self._compiled.pop(name.lower(), None)

    def invoke(self, signature: FunctionSignature, args: Sequence[Any]) -> Any:
        """Call the UDF once with the given (column/scalar) arguments."""
        function = self._get_callable(signature)
        self.invocation_counts[signature.name.lower()] = (
            self.invocation_counts.get(signature.name.lower(), 0) + 1
        )
        conn = self.loopback()
        started = perf_counter()
        try:
            return function(*args, _conn=conn)
        except Exception as exc:  # noqa: BLE001 - UDF code is arbitrary user code
            raise UDFError(signature.name, f"raised {type(exc).__name__}: {exc}", exc) from exc
        finally:
            self._h_invoke.observe(perf_counter() - started)

    def convert(self, converter: Callable[..., _T], *args: Any) -> _T:
        """Run one output conversion (:func:`convert_scalar_result` or
        :func:`convert_table_result`), timed into ``udf.convert_us``."""
        started = perf_counter()
        try:
            return converter(*args)
        finally:
            self._h_convert.observe(perf_counter() - started)
