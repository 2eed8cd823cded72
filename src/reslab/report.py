"""Deterministic result emission: atomic file writes, CSV/JSON with fixed
floating-point formatting, and static SVG scatter plots."""

from __future__ import annotations

import itertools
import math
import os
import tempfile
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "fmt_float",
    "atomic_write",
    "write_csv",
    "write_json",
    "emit_svg",
]

SCHEMA_VERSION = 1

_SVG_WIDTH = 800
_SVG_HEIGHT = 600
_SVG_MARGIN = 60


def fmt_float(x: float) -> str:
    """17 significant digits: enough for exact float round-trips."""
    return "%.17g" % float(x)


def atomic_write(path: str, text: str) -> None:
    """Write via a temporary file in the target directory plus rename, so
    readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-reslab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return fmt_float(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    s = str(v)
    if any(ch in s for ch in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _column(values: tuple) -> tuple[str, Sequence]:
    """A column's %-format and the values it formats: one format for a
    column of floats or of integers, else the column's cells rendered one
    by one."""
    types = set(map(type, values))
    if all(issubclass(t, (float, np.floating)) for t in types):
        return "%.17g", values
    if all(issubclass(t, (int, np.integer)) and not issubclass(t, bool) for t in types):
        return "%d", values
    return "%s", [_cell(v) for v in values]


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Every cell as _cell renders it; rows must all have the same length."""
    columns = [_column(c) for c in zip(*rows, strict=True)]
    nrows = len(columns[0][1]) if columns else 0
    line = ",".join(fmt for fmt, _ in columns) + "\n"
    # one format call over every cell, row by row: no string per row
    cells = tuple(itertools.chain.from_iterable(zip(*(vals for _, vals in columns))))
    atomic_write(path, ",".join(header) + "\n" + (line * nrows) % cells)


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            return '"nan"'
        if math.isinf(f):
            return '"inf"' if f > 0 else '"-inf"'
        return fmt_float(f)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, complex):
        return '{"re": %s, "im": %s}' % (fmt_float(v.real), fmt_float(v.imag))
    if isinstance(v, str):
        out = v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return '"' + out + '"'
    if isinstance(v, dict):
        items = sorted(v.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join('%s: %s' % (_json_value(str(k)), _json_value(val))
                               for k, val in items) + "}"
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value(x) for x in list(v)) + "]"
    return _json_value(str(v))


def write_json(path: str, obj: dict) -> None:
    """Serialized with sorted keys and 17-digit floats; a schema_version
    field is always present."""
    body = dict(obj)
    body.setdefault("schema_version", SCHEMA_VERSION)
    atomic_write(path, _json_value(body) + "\n")


def _scale(vals, lo, hi, out_lo, out_hi):
    if hi - lo < 1e-300:
        return [0.5 * (out_lo + out_hi) for _ in vals]
    return [out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo) for v in vals]


def emit_svg(points: Sequence[tuple], path: str,
             annotations: Optional[Sequence[tuple]] = None,
             title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Deterministic scatter plot: fixed viewport, no timestamps.  Points
    are (x, y) or (x, y, weight); weight scales the circle radius.
    Annotations are (x, y, text) labels."""
    annotations = annotations or []
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    ws = [float(p[2]) if len(p) > 2 else 1.0 for p in points]
    ax = [float(a[0]) for a in annotations]
    ay = [float(a[1]) for a in annotations]
    all_x = xs + ax or [0.0, 1.0]
    all_y = ys + ay or [0.0, 1.0]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi - x_lo < 1e-300:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-300:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    px = _scale(xs, x_lo, x_hi, _SVG_MARGIN, _SVG_WIDTH - _SVG_MARGIN)
    # SVG y axis points down
    py = _scale(ys, y_lo, y_hi, _SVG_HEIGHT - _SVG_MARGIN, _SVG_MARGIN)
    pax = _scale(ax, x_lo, x_hi, _SVG_MARGIN, _SVG_WIDTH - _SVG_MARGIN)
    pay = _scale(ay, y_lo, y_hi, _SVG_HEIGHT - _SVG_MARGIN, _SVG_MARGIN)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d">'
        % (_SVG_WIDTH, _SVG_HEIGHT),
        '<rect width="%d" height="%d" fill="white"/>' % (_SVG_WIDTH, _SVG_HEIGHT),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (_SVG_MARGIN, _SVG_HEIGHT - _SVG_MARGIN,
           _SVG_WIDTH - _SVG_MARGIN, _SVG_HEIGHT - _SVG_MARGIN),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (_SVG_MARGIN, _SVG_MARGIN, _SVG_MARGIN, _SVG_HEIGHT - _SVG_MARGIN),
    ]
    if title:
        parts.append('<text x="%d" y="30" font-size="16" text-anchor="middle">%s</text>'
                     % (_SVG_WIDTH // 2, title))
    if xlabel:
        parts.append('<text x="%d" y="%d" font-size="12" text-anchor="middle">%s</text>'
                     % (_SVG_WIDTH // 2, _SVG_HEIGHT - 20, xlabel))
    if ylabel:
        parts.append('<text x="20" y="%d" font-size="12" text-anchor="middle" '
                     'transform="rotate(-90 20 %d)">%s</text>'
                     % (_SVG_HEIGHT // 2, _SVG_HEIGHT // 2, ylabel))
    # axis extent labels
    parts.append('<text x="%d" y="%d" font-size="10">%s</text>'
                 % (_SVG_MARGIN, _SVG_HEIGHT - _SVG_MARGIN + 15, fmt_float(x_lo)))
    parts.append('<text x="%d" y="%d" font-size="10" text-anchor="end">%s</text>'
                 % (_SVG_WIDTH - _SVG_MARGIN, _SVG_HEIGHT - _SVG_MARGIN + 15,
                    fmt_float(x_hi)))
    parts.append('<text x="%d" y="%d" font-size="10">%s</text>'
                 % (5, _SVG_HEIGHT - _SVG_MARGIN, fmt_float(y_lo)))
    parts.append('<text x="%d" y="%d" font-size="10">%s</text>'
                 % (5, _SVG_MARGIN, fmt_float(y_hi)))
    for x, y, w in zip(px, py, ws):
        parts.append('<circle cx="%s" cy="%s" r="%s" fill="steelblue" '
                     'fill-opacity="0.7"/>'
                     % (fmt_float(x), fmt_float(y), fmt_float(3.0 * w)))
    for x, y, (_, _, text) in zip(pax, pay, annotations):
        parts.append('<circle cx="%s" cy="%s" r="4" fill="none" stroke="red"/>'
                     % (fmt_float(x), fmt_float(y)))
        parts.append('<text x="%s" y="%s" font-size="10" fill="red">%s</text>'
                     % (fmt_float(x + 6), fmt_float(y - 6), text))
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts) + "\n")
