"""The plain-float row fast path renders the same bytes as the per-item path."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapinit import jsonio

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
