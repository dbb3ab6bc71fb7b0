"""Sweep tables over volatility or capital structure, with CSV/JSON emission.

Floats are written with ``repr`` (shortest round-trip form), '.' decimal
separator, no grouping, header row mandatory; re-parsing a written table
reproduces the exact values.  Missing values (no interior maximizer) are
NaN in memory, empty cells in CSV, and null in JSON.  JSON output mirrors
the CSV columns as arrays.

numpy is imported inside the sweep functions, after their arguments are
validated, so that importing the package does not load it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from typing import IO

from .claims import CapitalStructure, value_all_claims
from .errors import ValidationError
from .risk import chosen_risk, classify_regime, junior_debt_vega

SIGMA_SWEEP_COLUMNS = ("junior_value", "senior_value", "equity_value", "junior_vega")
STRUCTURE_SWEEP_COLUMNS = (
    "chosen_risk",
    "optimal_volatility",
    "shift_threshold",
    "hump_threshold",
)


@dataclass
class SweepTable:
    """Rows of (independent value, named outputs) with a stable column order."""

    independent_name: str
    output_names: tuple[str, ...]
    rows: list[tuple[float, dict[str, float]]]

    def __post_init__(self) -> None:
        for earlier, later in zip(self.rows, self.rows[1:]):
            if not earlier[0] < later[0]:
                raise ValidationError(
                    f"independent values must be strictly increasing, "
                    f"got {earlier[0]} before {later[0]}"
                )
        expected = set(self.output_names)
        for value, outputs in self.rows:
            if set(outputs) != expected:
                raise ValidationError(f"row at {value} has mismatched output keys")

    def column(self, name: str) -> list[float]:
        if name == self.independent_name:
            return [value for value, _ in self.rows]
        return [outputs[name] for _, outputs in self.rows]


def sweep_sigma(
    cs: CapitalStructure, lower: float, upper: float, steps: int
) -> SweepTable:
    """Value the claims on an evenly spaced volatility grid.

    Columns: sigma; junior_value, senior_value, equity_value, junior_vega.
    """
    if not lower > 0.0:
        raise ValidationError(f"sigma lower bound must be > 0, got {lower}")
    if not lower < upper:
        raise ValidationError(f"sigma range must satisfy lower < upper, got [{lower}, {upper}]")
    if steps < 2:
        raise ValidationError(f"steps must be >= 2, got {steps}")
    import numpy as np

    rows = []
    for sigma in np.linspace(lower, upper, steps):
        at_sigma = replace(cs, volatility=float(sigma))
        values = value_all_claims(at_sigma)
        rows.append(
            (
                float(sigma),
                {
                    "junior_value": values.junior_value,
                    "senior_value": values.senior_value,
                    "equity_value": values.equity_value,
                    "junior_vega": junior_debt_vega(at_sigma),
                },
            )
        )
    return SweepTable("sigma", SIGMA_SWEEP_COLUMNS, rows)


def sweep_structure(
    total_face: float,
    junior_proportions: list[float],
    v_lower: float,
    v_upper: float,
    steps: int,
    initial_sigma: float,
    maturity: float,
    rate: float,
    dividend_yield: float = 0.0,
) -> list[tuple[float, SweepTable]]:
    """Risk-shifting diagnostics over asset value, one table per debt mix.

    For junior proportion p the faces are F_J = p * total_face and
    F_S = (1 - p) * total_face.  Columns per table: asset_value;
    chosen_risk, optimal_volatility, shift_threshold, hump_threshold.
    """
    if not total_face > 0.0:
        raise ValidationError(f"total_face must be > 0, got {total_face}")
    if not junior_proportions:
        raise ValidationError("at least one junior proportion is required")
    for proportion in junior_proportions:
        if not 0.0 < proportion < 1.0:
            raise ValidationError(
                f"junior proportions must lie strictly in (0, 1), got {proportion}"
            )
    if not v_lower > 0.0:
        raise ValidationError(f"asset-value lower bound must be > 0, got {v_lower}")
    if not v_lower < v_upper:
        raise ValidationError(
            f"asset-value range must satisfy lower < upper, got [{v_lower}, {v_upper}]"
        )
    if steps < 2:
        raise ValidationError(f"steps must be >= 2, got {steps}")
    import numpy as np

    tables = []
    for proportion in junior_proportions:
        junior_face = proportion * total_face
        senior_face = total_face - junior_face
        rows = []
        for asset_value in np.linspace(v_lower, v_upper, steps):
            cs = CapitalStructure(
                asset_value=float(asset_value),
                senior_face=senior_face,
                junior_face=junior_face,
                volatility=initial_sigma,
                maturity=maturity,
                rate=rate,
                dividend_yield=dividend_yield,
            )
            profile = classify_regime(cs, initial_sigma)
            best = profile.optimal_volatility
            rows.append(
                (
                    float(asset_value),
                    {
                        "chosen_risk": chosen_risk(cs, initial_sigma),
                        "optimal_volatility": math.nan if best is None else best,
                        "shift_threshold": profile.shift_threshold,
                        "hump_threshold": profile.hump_threshold,
                    },
                )
            )
        tables.append((proportion, SweepTable("asset_value", STRUCTURE_SWEEP_COLUMNS, rows)))
    return tables


def write_sweep_csv(table: SweepTable, stream: IO[str]) -> None:
    """Write a table as CSV: header row, then one row per grid point."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([table.independent_name, *table.output_names])
    for value, outputs in table.rows:
        writer.writerow(
            [_format(value), *(_format(outputs[name]) for name in table.output_names)]
        )


def read_sweep_csv(stream: IO[str]) -> SweepTable:
    """Re-parse a CSV written by ``write_sweep_csv``."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("empty sweep CSV") from None
    independent_name, *output_names = header
    rows = []
    for record in reader:
        value = float(record[0])
        outputs = {
            name: _parse(cell) for name, cell in zip(output_names, record[1:])
        }
        rows.append((value, outputs))
    return SweepTable(independent_name, tuple(output_names), rows)


def write_sweep_json(table: SweepTable, stream: IO[str]) -> None:
    """Write a table as JSON with columns mirrored as arrays."""
    json.dump(_table_payload(table), stream, indent=2)
    stream.write("\n")


def write_structure_csv(
    tables: list[tuple[float, SweepTable]], stream: IO[str]
) -> None:
    """Write per-proportion tables as one CSV with a junior_proportion column."""
    writer = csv.writer(stream, lineterminator="\n")
    first_table = tables[0][1]
    writer.writerow(
        ["junior_proportion", first_table.independent_name, *first_table.output_names]
    )
    for proportion, table in tables:
        for value, outputs in table.rows:
            writer.writerow(
                [
                    _format(proportion),
                    _format(value),
                    *(_format(outputs[name]) for name in table.output_names),
                ]
            )


def write_structure_json(
    tables: list[tuple[float, SweepTable]], stream: IO[str]
) -> None:
    """Write per-proportion tables as a JSON list of column payloads."""
    payload = {
        "tables": [
            {"junior_proportion": proportion, **_table_payload(table)}
            for proportion, table in tables
        ]
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _table_payload(table: SweepTable) -> dict:
    columns: dict[str, list] = {
        table.independent_name: [value for value, _ in table.rows]
    }
    for name in table.output_names:
        columns[name] = [
            None if math.isnan(outputs[name]) else outputs[name]
            for _, outputs in table.rows
        ]
    return {"independent": table.independent_name, "columns": columns}


def _format(value: float) -> str:
    if math.isnan(value):
        return ""
    return repr(float(value))


def _parse(cell: str) -> float:
    if cell == "":
        return math.nan
    return float(cell)
