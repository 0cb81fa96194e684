"""Deterministic JSON with pinned float formatting.

The stock encoder prints floats via ``repr``, whose digit count varies by
value.  Experiment records and weight files instead render every float with
17 significant digits, which round-trips exactly through IEEE-754 double
precision and makes byte-for-byte comparison of two runs meaningful.
"""

import json
import math

import numpy as np


def _render(obj, out: list) -> None:
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, (np.floating, float)):
        x = float(obj)
        if not np.isfinite(x):
            raise ValueError(f"non-finite float {x!r} cannot be serialized")
        out.append(format(x, ".17g"))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _render(value, out)
        out.append("}")
    elif isinstance(obj, list) and obj and all(type(x) is float for x in obj):
        # A row of plain floats, as ndarray.tolist() gives: one join instead
        # of a call per item.  Ints, bools and numpy scalars take the path below.
        if not all(map(math.isfinite, obj)):
            bad = next(x for x in obj if not math.isfinite(x))
            raise ValueError(f"non-finite float {bad!r} cannot be serialized")
        out.append("[" + ", ".join(map("{:.17g}".format, obj)) + "]")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _render(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to a JSON string with 17-significant-digit floats."""
    out: list = []
    _render(obj, out)
    return "".join(out)


def load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
