"""Built-in scalar SQL functions.

These mirror the MonetDB built-ins that the demo queries and the workload
corpus use.  Each built-in is a plain Python function operating on a single
row's values; the evaluator maps it over the batch (NULL in → NULL out except
for ``COALESCE``/``IFNULL`` which are variadic NULL handlers).
"""

from __future__ import annotations

import math
from typing import Any, Callable

from ..errors import ExecutionError

ScalarFunction = Callable[..., Any]


def _sql_round(value: float, digits: int = 0) -> float:
    return round(float(value), int(digits))


def _sql_substring(value: str, start: int, length: int | None = None) -> str:
    # SQL SUBSTRING is 1-based.
    begin = max(int(start) - 1, 0)
    if length is None:
        return str(value)[begin:]
    return str(value)[begin:begin + int(length)]


def _sql_concat(*parts: Any) -> str:
    return "".join("" if part is None else str(part) for part in parts)


def _sql_sign(value: float) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def sql_mod(left: Any, right: Any) -> Any:
    """SQL ``%``/``MOD``: the remainder takes the sign of the dividend
    (truncated division, as in sqlite, Postgres and MonetDB): -7 % 3 = -1."""
    if isinstance(left, float) or isinstance(right, float):
        return math.fmod(left, right)
    remainder = abs(left) % abs(right)
    return -remainder if left < 0 else remainder


def _sql_log(value: float, base: float | None = None) -> float:
    if base is None:
        return math.log(value)
    return math.log(value, base)


#: NULL-propagating scalar built-ins: name -> callable.
SCALAR_FUNCTIONS: dict[str, ScalarFunction] = {
    "ABS": abs,
    "ROUND": _sql_round,
    "FLOOR": math.floor,
    "CEIL": math.ceil,
    "CEILING": math.ceil,
    "SQRT": math.sqrt,
    "EXP": math.exp,
    "LN": math.log,
    "LOG": _sql_log,
    "LOG10": math.log10,
    "POWER": pow,
    "POW": pow,
    "MOD": sql_mod,
    "SIGN": _sql_sign,
    "GREATEST": max,
    "LEAST": min,
    "LENGTH": lambda s: len(str(s)),
    "CHAR_LENGTH": lambda s: len(str(s)),
    "LOWER": lambda s: str(s).lower(),
    "UPPER": lambda s: str(s).upper(),
    "TRIM": lambda s: str(s).strip(),
    "LTRIM": lambda s: str(s).lstrip(),
    "RTRIM": lambda s: str(s).rstrip(),
    "SUBSTRING": _sql_substring,
    "SUBSTR": _sql_substring,
    "REPLACE": lambda s, old, new: str(s).replace(str(old), str(new)),
    "REVERSE": lambda s: str(s)[::-1],
    "STARTSWITH": lambda s, prefix: str(s).startswith(str(prefix)),
    "ENDSWITH": lambda s, suffix: str(s).endswith(str(suffix)),
    "CONTAINS": lambda s, needle: str(needle) in str(s),
}

#: Built-ins that receive all argument values even when some are NULL.
NULL_TOLERANT_FUNCTIONS: dict[str, ScalarFunction] = {
    # CONCAT skips NULL operands (it is the one string builtin the demo uses
    # to assemble labels from possibly-missing parts)
    "CONCAT": _sql_concat,
    "COALESCE": lambda *args: next((a for a in args if a is not None), None),
    "IFNULL": lambda value, default: default if value is None else value,
    "NULLIF": lambda a, b: None if a == b else a,
    "ISNULL": lambda value: value is None,
}


def is_builtin_scalar(name: str) -> bool:
    upper = name.upper()
    return upper in SCALAR_FUNCTIONS or upper in NULL_TOLERANT_FUNCTIONS


def call_builtin_scalar(name: str, args: list[Any]) -> Any:
    """Invoke a built-in for one row of already-evaluated argument values."""
    upper = name.upper()
    if upper in NULL_TOLERANT_FUNCTIONS:
        return NULL_TOLERANT_FUNCTIONS[upper](*args)
    if upper in SCALAR_FUNCTIONS:
        if any(arg is None for arg in args):
            return None
        try:
            return SCALAR_FUNCTIONS[upper](*args)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ExecutionError(f"error in {upper}({args!r}): {exc}") from exc
    raise ExecutionError(f"unknown function {name!r}")
