"""Deterministic CSV, JSON and chart artifact writers.

Floats are rendered with repr (shortest round-trip form), so identical inputs
produce byte-identical files regardless of platform thread count.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .sublevel import ExponentFit
from .svgplot import write_fit_svg, write_scan_svg


def format_cell(v) -> str:
    if isinstance(v, np.generic):  # np.float64 is a float whose repr names its type
        v = v.item()
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(format_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(path, header: list[str], rows: list[list]) -> None:
    Path(path).write_text(csv_text(header, rows), encoding="utf-8")


def _encode(v):
    """json ``default=`` hook: complex as [re, im], numpy scalars as plain numbers."""
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, np.generic):
        return v.item()
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def json_text(data, indent: int | None = 2) -> str:
    return json.dumps(data, indent=indent, sort_keys=True, default=_encode)


def write_json(path, data) -> None:
    Path(path).write_text(json_text(data) + "\n", encoding="utf-8")


def write_result(out_dir, stem: str, result, title: str, formats=("csv", "svg"),
                 summary: dict | None = None) -> None:
    """Write a fit's or scan's CSV, its chart and, when given, its JSON summary.

    ``result`` is an ``ExponentFit`` (charted as volumes) or a ``RatioScan``
    (charted as ratios); ``formats`` picks which of csv, svg and json to write.
    """
    out_dir = Path(out_dir)
    if "csv" in formats:
        write_csv(out_dir / f"{stem}.csv", *result.csv_rows())
    if "svg" in formats:
        write_svg = write_fit_svg if isinstance(result, ExponentFit) else write_scan_svg
        write_svg(out_dir / f"{stem}.svg", result, title)
    if summary is not None and "json" in formats:
        write_json(out_dir / f"{stem}.json", summary)
