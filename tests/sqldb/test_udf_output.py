"""Equivalence of the whole-array UDF output conversion with ``coerce_value``.

A typed 1-D NumPy result is adopted into a :class:`Vector` with whole-array
checks; every other result is coerced one value at a time.  These properties
pin the array path to the per-value rules: same values, same Python types,
no NULL mask, and the same error class and message for the first value the
per-value path would refuse.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import TypeMismatchError
from repro.sqldb.types import SQLType, coerce_value
from repro.sqldb.udf import output_vector

_SETTINGS = settings(max_examples=400, deadline=None)

_EDGES = [0.5, -0.5, 2.0 ** 63, -(2.0 ** 63), math.nan, math.inf, -math.inf,
          -0.0]
#: the largest value of each width below 2**63 (the last one int64 holds)
_BELOW_2_63 = {width: float(np.nextafter(dtype(2.0 ** 63), dtype(0)))
               for width, dtype in ((32, np.float32), (64, np.float64))}
#: float16 tops out at 65504, far inside int64
_FLOAT16_EDGES = [0.5, -0.5, 65504.0, -65504.0, math.nan, math.inf, -math.inf,
                  -0.0]

_ELEMENTS = {
    np.bool_: st.booleans(),
    np.int8: st.integers(-128, 127),
    np.int64: st.integers(-2 ** 63, 2 ** 63 - 1),
    np.uint64: st.one_of(st.integers(0, 2 ** 64 - 1),
                         st.sampled_from([2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1])),
    np.float16: st.one_of(st.floats(width=16),
                          st.sampled_from(_FLOAT16_EDGES)),
    np.float32: st.one_of(st.floats(width=32), st.sampled_from(
        _EDGES + [_BELOW_2_63[32]])),
    np.float64: st.one_of(st.floats(), st.sampled_from(
        _EDGES + [_BELOW_2_63[64], 1e300])),
}

_TARGETS = [SQLType.INTEGER, SQLType.BIGINT, SQLType.DOUBLE, SQLType.BOOLEAN,
            SQLType.STRING]


@st.composite
def typed_arrays(draw):
    dtype = draw(st.sampled_from(sorted(_ELEMENTS, key=str)))
    return draw(hnp.arrays(dtype, st.integers(0, 12),
                           elements=_ELEMENTS[dtype]))


def per_value(values, sql_type):
    """The reference: ``coerce_value`` on each value, in order."""
    try:
        return [coerce_value(value, sql_type) for value in values], None
    except TypeMismatchError as exc:
        return None, exc


def converted(value, sql_type):
    try:
        vector = output_vector(value, sql_type)
    except TypeMismatchError as exc:
        return None, None, exc
    return vector.to_list(), vector.mask, None


def same_values(left, right):
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if type(a) is not type(b):
            return False
        if isinstance(a, float) and math.isnan(a):
            if not math.isnan(b):
                return False
        elif a != b:
            return False
    return True


def assert_equivalent(value, reference_values, sql_type):
    expected, expected_error = per_value(reference_values, sql_type)
    values, mask, error = converted(value, sql_type)
    if expected_error is not None:
        assert error is not None, f"{value!r} -> {sql_type}: expected an error"
        assert type(error) is type(expected_error)
        assert str(error) == str(expected_error)
        return
    assert error is None, f"{value!r} -> {sql_type}: unexpected {error}"
    assert mask is None
    assert same_values(values, expected), (values, expected)


class TestArrayPathMatchesPerValueCoercion:
    @_SETTINGS
    @given(typed_arrays(), st.sampled_from(_TARGETS))
    def test_typed_array(self, array, sql_type):
        assert_equivalent(array, array.tolist(), sql_type)

    @_SETTINGS
    @given(typed_arrays(), st.sampled_from(_TARGETS))
    def test_non_contiguous_view(self, array, sql_type):
        view = array[::2]
        assert_equivalent(view, view.tolist(), sql_type)

    def test_adopted_buffer_is_a_read_only_copy(self):
        source = np.arange(4, dtype=np.int64)
        vector = output_vector(source, SQLType.INTEGER)
        assert not np.shares_memory(vector.data, source)
        assert not vector.data.flags.writeable
        source[:] = -1
        assert vector.to_list() == [0, 1, 2, 3]


class TestScalarShapes:
    @_SETTINGS
    @given(typed_arrays(), st.sampled_from(_TARGETS))
    def test_zero_d_array_is_a_scalar(self, array, sql_type):
        if not len(array):
            return
        zero_d = np.asarray(array[0])
        assert zero_d.ndim == 0
        assert_equivalent(zero_d, [array[0]], sql_type)
        assert_equivalent(array[0], [array[0]], sql_type)  # np.generic

    def test_list_with_nulls_keeps_the_mask(self):
        vector = output_vector([1, None, np.int64(3)], SQLType.INTEGER)
        assert vector.to_list() == [1, None, 3]
        assert vector.mask.tolist() == [False, True, False]

    def test_object_array_takes_the_per_value_path(self):
        array = np.array(["a", None, "b"], dtype=object)
        assert output_vector(array, SQLType.STRING).to_list() == \
            ["a", None, "b"]
