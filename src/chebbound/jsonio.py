"""Deterministic JSON, CSV and table text formatting.

The CLI and the interpolant serializer promise byte-identical output for
identical inputs, so floats are always written with 17 significant digits
(enough for a lossless double round-trip) instead of whatever repr picks;
tables, which are for reading, use 6.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

FLOAT_DIGITS = 17
TABLE_DIGITS = 6


def format_float(x: float, digits: int = FLOAT_DIGITS) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("cannot serialize non-finite float %r" % x)
    text = "%.*g" % (digits, x)
    # keep JSON numbers recognizable as floats
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def dumps(obj: Any) -> str:
    """Serialize dict/list/str/int/float/bool/None with fixed float formatting."""
    pieces: list[str] = []
    _write(obj, pieces)
    return "".join(pieces)


def _write(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            _write(key, out)
            out.append(": ")
            _write(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _write(value, out)
        out.append("]")
    else:
        raise TypeError("cannot serialize %r" % type(obj))


def _is_pairs(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and bool(value) and isinstance(value[0], (list, tuple))


def csv_cell(value: Any) -> str:
    """One CSV cell: a list is space-separated, a list of (lo, hi) pairs is ``lo:hi;...``."""
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if _is_pairs(value):
        text = ";".join(f"{csv_cell(lo)}:{csv_cell(hi)}" for lo, hi in value)
    elif isinstance(value, (list, tuple)):
        text = " ".join(csv_cell(v) for v in value)
    else:
        text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def csv_text(columns: Sequence[str], rows: Iterable[Mapping[str, Any]]) -> str:
    """A header line plus one line per row, each cell looked up by column name."""
    lines = [",".join(columns)]
    lines += [",".join(csv_cell(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def table_cell(value: Any) -> str:
    """One table cell: a list is ``(a, b)``, a list of (lo, hi) pairs is ``[lo, hi], ...``."""
    if isinstance(value, float):
        return "%.*g" % (TABLE_DIGITS, value)
    if _is_pairs(value):
        return ", ".join(f"[{table_cell(lo)}, {table_cell(hi)}]" for lo, hi in value)
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(table_cell(v) for v in value) + ")"
    return str(value)


def table_text(rows: Sequence[tuple[str, Any]]) -> str:
    """``label  value`` lines with the labels padded to one width."""
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label.ljust(width)}  {table_cell(value)}" for label, value in rows)
