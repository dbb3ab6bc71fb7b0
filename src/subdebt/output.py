"""Output conventions that every command shares.

Every CSV and JSON output, the sweep tables of ``subdebt.sweeps`` and the
``price``, ``thresholds`` and ``verify`` reports of ``subdebt.cli``, is
written by ``write_csv`` or ``write_json``, and every CSV or text value
by ``cell``.  Floats are written with ``repr`` (shortest round-trip
form), '.' decimal separator, no grouping, header row mandatory, so
``float`` on a cell gives back the exact value.  Missing values (no
interior maximizer, or no vega where sigma sqrt(tau) underflows to 0)
are NaN in memory, empty cells in CSV, ``n/a`` in text, and null in
JSON.  JSON is indented by two spaces and ends with a newline.

``csv`` and ``json`` are imported inside the writers, so that a
text-format report loads neither.
"""

from __future__ import annotations

from typing import IO


def cell(value, missing: str = "") -> str:
    """One CSV or text value: None and NaN as ``missing``, bools as true/false.

    ``float`` keeps a numpy float's repr to the digits alone.
    """
    if isinstance(value, float):
        return repr(float(value)) if value == value else missing
    if value is None:
        return missing
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv(header, rows, stream: IO[str]) -> None:
    """The header, then each row's values through ``cell``, rows ending in LF."""
    import csv

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(cell, row) for row in rows)


def write_json(payload, stream: IO[str]) -> None:
    """The payload as JSON indented by two spaces, ending in LF."""
    import json

    json.dump(payload, stream, indent=2)
    stream.write("\n")
