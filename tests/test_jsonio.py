"""Pinned JSON rendering: the row fast paths render the same bytes as the
per-item path, and ``dump`` writes the bytes ``dumps`` returns."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapinit import cli, jsonio

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
         1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5, 1e16, 123456789.0]


def _per_item(values) -> str:
    # each item through the scalar branch, joined as the generic list path does
    return "[" + ", ".join(jsonio.dumps(x) for x in values) + "]"


def test_edge_floats_render_as_the_per_item_path():
    assert jsonio.dumps(EDGES) == _per_item(EDGES)
    assert jsonio.dumps(tuple(EDGES)) == jsonio.dumps(EDGES)  # tuples take the generic path
    assert jsonio.dumps(np.array(EDGES)) == jsonio.dumps(EDGES)
    assert jsonio.dumps([[x] for x in EDGES]) == "[" + ", ".join(f"[{jsonio.dumps(x)}]" for x in EDGES) + "]"
    assert json.loads(jsonio.dumps(EDGES)) == EDGES


@pytest.mark.parametrize("row", [
    [1.5, 2, -0.0],
    [1.5, True, 0.25],
    [np.float64(0.1), 0.2],
    [0.1, np.float32(0.5)],
    [0.5, None],
    [0.5, "x"],
    [],
])
def test_mixed_lists_keep_their_rendering(row):
    assert jsonio.dumps(row) == "[" + ", ".join(jsonio.dumps(x) for x in row) + "]"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_raise(bad):
    with pytest.raises(ValueError, match="non-finite"):
        jsonio.dumps([0.5, bad, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        jsonio.dumps(np.array([[0.5, bad]]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
def test_any_finite_row_matches_the_per_item_path(row):
    assert jsonio.dumps(row) == _per_item(row)


def _per_field(obj) -> str:
    # each value through its own branch, joined as the generic dict path does
    return "{" + ", ".join(f"{json.dumps(k)}: {jsonio.dumps(v)}" for k, v in obj.items()) + "}"


@pytest.mark.parametrize("obj", [
    {f"x{i}": x for i, x in enumerate(EDGES)},
    {"d": 3, "big": 10**30, "neg": -7, "zero": 0, "half": 0.5},
    {"100%": 1.5, "%d": 2, "%%s": 0.25, 'quote"': -0.0, "\u00fc\n": 1e-300},
    *(cli._table_row(d, alpha) for d in (1, 2, 64) for alpha in (0.1, -0.5)),
])
def test_number_dicts_render_as_the_per_field_path(obj):
    assert jsonio.dumps(obj) == _per_field(obj)
    assert json.loads(jsonio.dumps(obj)) == obj


@pytest.mark.parametrize("obj", [
    {"a": 1.0, "b": True},
    {"a": np.float64(0.5), "b": 1.0},
    {"a": 1, "b": None},
    {"a": 0.5, "b": [1.0]},
    {"a": np.int64(2), "b": 0.5},
    {},
])
def test_mixed_dicts_keep_their_rendering(obj):
    assert jsonio.dumps(obj) == _per_field(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_dict_values_raise_the_list_message(bad):
    with pytest.raises(ValueError) as from_dict:
        jsonio.dumps({"a": 0.5, "b": bad, "c": 1})
    assert str(from_dict.value) == f"non-finite float {bad!r} cannot be serialized"


@pytest.mark.parametrize("obj", [{1: 0.5}, {"a": 0.5, 2: 1}, {1: None}])
def test_non_string_keys_raise(obj):
    with pytest.raises(TypeError, match="keys must be strings"):
        jsonio.dumps(obj)


def _dumped(obj) -> str:
    fh = io.StringIO()
    jsonio.dump(obj, fh)
    return fh.getvalue()


ARRAYS = [
    np.array(EDGES).reshape(1, -1),
    np.array(EDGES[:12]).reshape(3, 4),
    np.array(EDGES[:12]).reshape(2, 3, 2),
    np.array(EDGES[:12]).reshape(3, 4)[:, ::2],  # a strided view
    np.empty((2, 0)),
    np.empty((0, 3)),
]


@pytest.mark.parametrize("obj", [
    EDGES,
    [1.5, 2, -0.0],
    [np.float64(0.1), 0.2],
    [0.5, None, "x", True],
    {"a": EDGES, "b": [1, 2.5, {"c": None}], "m": np.array(EDGES[:6]).reshape(2, 3)},
    *ARRAYS,
])
def test_dump_writes_the_bytes_dumps_returns(obj):
    assert _dumped(obj) == jsonio.dumps(obj)


@pytest.mark.parametrize("array", ARRAYS)
def test_float64_arrays_render_as_their_nested_lists(array):
    assert jsonio.dumps(array) == jsonio.dumps(array.tolist())
    assert json.loads(jsonio.dumps(array)) == array.tolist()


def test_extreme_floats_keep_their_digits_in_an_array_row():
    row = jsonio.dumps(np.array([[-0.0, 5e-324, 1.7976931348623157e308]]))
    assert row == "[[-0, 4.9406564584124654e-324, 1.7976931348623157e+308]]"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_array_rows_raise_the_list_message(bad):
    with pytest.raises(ValueError) as from_list:
        jsonio.dumps([[0.5, 1.0], [0.25, bad]])
    with pytest.raises(ValueError) as from_array:
        jsonio.dumps(np.array([[0.5, 1.0], [0.25, bad]]))
    assert str(from_array.value) == str(from_list.value) == f"non-finite float {bad!r} cannot be serialized"


def test_float32_arrays_keep_their_rendering():
    values = np.array([[0.1, -0.0], [3.4e38, 1e-45]], dtype=np.float32)
    assert jsonio.dumps(values) == jsonio.dumps(values.tolist())
    assert jsonio.dumps(values[0]) == "[0.10000000149011612, -0]"


@pytest.mark.parametrize("obj, found", [
    ({"a": 1.0, "b": [2.0, {"c": math.inf}]}, (".b[1].c", math.inf)),
    ({"m": np.array([[1.0, 2.0], [-math.inf, 3.0]])}, (".m[1][0]", -math.inf)),
    ([np.float32(0.5), np.float64(-math.inf)], ("[1]", -math.inf)),
    ({"a": [1, True, None, "nan", np.arange(3)], "b": np.zeros((2, 2))}, None),
])
def test_first_non_finite_names_the_value_dumps_would_meet(obj, found):
    assert jsonio.first_non_finite(obj) == found


def test_first_non_finite_finds_nan():
    where, value = jsonio.first_non_finite({"x": [0.0, math.nan]})
    assert where == ".x[1]" and math.isnan(value)
