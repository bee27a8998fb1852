"""Deterministic report rendering: JSON, CSV and plain-text tables.

The stdlib json encoder renders floats with shortest-roundtrip repr,
which is stable but not the fixed 17-significant-digit form the output
contract pins down, and it cannot be overridden for the float type.
The renderer here is a minimal serializer over plain data (dict, list,
str, int, float, bool, None) with insertion-ordered keys, leaving only
string escaping to the stdlib encoder, so two runs
that compute identical numbers emit byte-identical documents on any
platform or locale.
"""

from __future__ import annotations

import csv
import io
import math

__all__ = ["json_render", "csv_render", "table_render", "flatten"]


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    if x == int(x) and abs(x) < 1e16:
        # keep a float marker so parsers round-trip the type
        return format(x, ".1f")
    return format(x, ".17g")


def _quote(s: str) -> str:
    from json import dumps  # loaded by JSON output alone, not at every start

    return dumps(s, ensure_ascii=False)


def _render(obj, parts, level):
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(_quote(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(_fmt_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            parts.append(pad_in + _quote(str(k)) + ": ")
            _render(v, parts, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            parts.append("[]")
            return
        parts.append("[\n")
        for i, v in enumerate(obj):
            parts.append(pad_in)
            _render(v, parts, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "]")
    else:
        raise TypeError(f"cannot render {type(obj).__name__} to JSON")


def json_render(obj) -> str:
    """Render nested plain data as JSON with 17-significant-digit
    floats, insertion-ordered keys and a two-space indent."""
    parts = []
    _render(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def flatten(obj, prefix: str = "") -> dict:
    """Flatten nested dicts into dotted keys (lists indexed)."""
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            out.update(flatten(v, key))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.update(flatten(v, f"{prefix}.{i}" if prefix else str(i)))
    else:
        out[prefix] = obj
    return out


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "" if math.isnan(v) or math.isinf(v) else _fmt_float(v)
    return str(v)


def csv_render(rows: list) -> str:
    """RFC-4180-style CSV with a header row and '.' decimal separator.

    ``rows`` is a list of dicts; the header is the union of keys in
    first-appearance order.
    """
    header = list(dict.fromkeys(k for row in rows for k in row))
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(row.get(k)) for k in header])
    return buf.getvalue()


def table_render(rows: list, title: str = "") -> str:
    """Aligned fixed-width text table from a list of dicts."""
    if not rows:
        return (title + "\n") if title else ""
    header = list(dict.fromkeys(k for row in rows for k in row))

    def cell(v):
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.10g}"
        return str(v)

    table = [[cell(row.get(k)) for k in header] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in table))
        for i in range(len(header))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"
