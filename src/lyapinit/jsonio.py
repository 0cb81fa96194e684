"""Deterministic JSON with pinned float formatting.

The stock encoder prints floats via ``repr``, whose digit count varies by
value.  Experiment records and weight files instead render every float with
17 significant digits, which round-trips exactly through IEEE-754 double
precision and makes byte-for-byte comparison of two runs meaningful.

``dump`` writes to an open file as it renders, so a weight file is never
held as one string; ``dumps`` joins the same pieces.  A float64 ndarray is
rendered one row at a time.
"""

import functools
import json
import math
from typing import Optional, Tuple

import numpy as np


def _non_finite(bad: float) -> ValueError:
    return ValueError(f"non-finite float {bad!r} cannot be serialized")


def _float_row(values: list) -> str:
    # One %-format for the whole row; it renders each float as "{:.17g}" does.
    return ("[" + ", ".join(["%.17g"] * len(values)) + "]") % tuple(values)


@functools.lru_cache(maxsize=1024)
def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"JSON object keys must be strings, got {key!r}")
    return json.dumps(key)


def _number_object(obj: dict) -> str:
    # One %-format for a dict of plain ints and floats: "%d" renders an int
    # as str() does, "%.17g" a float as "{:.17g}" does.
    fields = []
    for key, value in obj.items():
        if type(value) is float and not math.isfinite(value):
            raise _non_finite(value)
        fields.append(_key(key).replace("%", "%%") + (": %d" if type(value) is int else ": %.17g"))
    return ("{" + ", ".join(fields) + "}") % tuple(obj.values())


def _render(obj, emit) -> None:
    if obj is None or isinstance(obj, bool):
        emit(json.dumps(obj))
    elif isinstance(obj, (np.floating, float)):
        x = float(obj)
        if not np.isfinite(x):
            raise _non_finite(x)
        emit(format(x, ".17g"))
    elif isinstance(obj, (int, np.integer)):
        emit(str(int(obj)))
    elif isinstance(obj, str):
        emit(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim == 0:
            _render(obj.tolist(), emit)
        elif obj.ndim > 1:
            _render_items(obj, emit)
        else:
            # One finite check and one join per row; the items need no type scan.
            finite = np.isfinite(obj)
            if not finite.all():
                raise _non_finite(float(obj[~finite][0]))
            emit(_float_row(obj.tolist()))
    elif isinstance(obj, dict) and obj and all(type(v) in (int, float) for v in obj.values()):
        emit(_number_object(obj))
    elif isinstance(obj, dict):
        emit("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                emit(", ")
            emit(_key(key))
            emit(": ")
            _render(value, emit)
        emit("}")
    elif isinstance(obj, (list, tuple)):
        _render_items(obj, emit)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_items(items, emit) -> None:
    emit("[")
    for i, value in enumerate(items):
        if i:
            emit(", ")
        _render(value, emit)
    emit("]")


def dumps(obj) -> str:
    """Serialize to a JSON string with 17-significant-digit floats."""
    out: list = []
    _render(obj, out.append)
    return "".join(out)


def dump(obj, fh) -> None:
    """Write to the open text file ``fh`` the bytes ``dumps(obj)`` returns.

    Rendering and writing interleave, so a non-finite float or an
    unserializable value raises after the part before it was written;
    ``first_non_finite`` finds the former before any byte goes out.
    """
    _render(obj, fh.write)


def first_non_finite(obj) -> Optional[Tuple[str, float]]:
    """Path and value of the first NaN or infinity ``dumps`` would meet, or None.

    The path is written as jq writes it, such as
    ``.diagnostics.per_candidate_score[3]``.
    """
    if isinstance(obj, (np.floating, float)):
        return None if math.isfinite(obj) else ("", float(obj))
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind != "f":
            return None
        bad = ~np.isfinite(obj)
        if not bad.any():
            return None
        index = np.unravel_index(np.argmax(bad), obj.shape)  # the first in row-major order
        return "".join(f"[{i}]" for i in index), float(obj[index])
    if isinstance(obj, dict):
        items, step = obj.items(), ".{}".format
    elif isinstance(obj, (list, tuple)):
        items, step = enumerate(obj), "[{}]".format
    else:
        return None
    for key, value in items:
        if type(value) is float:  # the common leaf, checked without a call
            found = None if math.isfinite(value) else ("", value)
        else:
            found = first_non_finite(value)
        if found is not None:
            return step(key) + found[0], found[1]
    return None


def load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
