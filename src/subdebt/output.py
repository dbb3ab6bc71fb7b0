"""Output conventions that every command shares.

Every CSV or text value, and every value in sweep JSON, is written by
``cell``: floats with ``repr`` (shortest round-trip form), '.' decimal
separator, no grouping, so ``float`` on a cell gives back the exact
value.  Missing values (no interior maximizer, or no vega where sigma
sqrt(tau) underflows to 0) are NaN in memory, empty cells in CSV,
``n/a`` in text, and null in JSON.  CSV has a header row; JSON is
indented by two spaces and ends with a newline.  ``write_report`` writes
the flat ``price`` and ``thresholds`` reports, and ``verify.write_report``
the ``verify`` report, through ``write_csv`` and ``write_json``; the
sweep writers give the bytes these two would, without them (``sweeps``).

``csv`` and ``json`` are imported inside the writers, so that a
text-format report, or a sweep in any format, loads neither.
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


def write_report(report: dict, fmt: str | None, stream: IO[str]) -> None:
    """A flat report as JSON, as CSV ``key,value`` rows, or as text (the
    default): one ``key  value`` line each, the keys padded to one width."""
    if fmt == "json":
        write_json(report, stream)
    elif fmt == "csv":
        write_csv(("key", "value"), report.items(), stream)
    else:
        width = max(len(key) for key in report)
        for key, value in report.items():
            stream.write(f"{key:<{width}}  {cell(value, 'n/a')}\n")
