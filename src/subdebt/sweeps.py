"""Sweep tables over volatility or capital structure.

The tables are written as CSV or JSON with the conventions of
``subdebt.output``, which the ``price``, ``thresholds`` and ``verify``
reports share; sweep JSON mirrors the CSV columns as arrays.

Sweeps use only the standard library.  Their grids place each point as
numpy.linspace does, i * step + start with the last point set to stop,
so they are bit-identical to it.  The volatility sweep calls the fused
claims kernel once per point; the structure sweep computes the two
thresholds, which do not depend on the asset value, once per debt mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

from .claims import CapitalStructure, _claims
from .errors import ValidationError, check, check_range
from .output import write_csv, write_json
from .risk import _chosen_risk, _optimal_volatility, _threshold, hump_threshold

SIGMA_SWEEP_COLUMNS = ("junior_value", "senior_value", "equity_value", "junior_vega")
STRUCTURE_SWEEP_COLUMNS = (
    "chosen_risk",
    "optimal_volatility",
    "shift_threshold",
    "hump_threshold",
)


@dataclass
class SweepTable:
    """Sweep results as columns of floats.

    ``columns`` holds the independent values first, then one column per
    output name in order, all of one length.
    """

    independent_name: str
    output_names: tuple[str, ...]
    columns: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        lengths = {len(column) for column in self.columns}
        if len(self.columns) != 1 + len(self.output_names) or len(lengths) > 1:
            raise ValidationError("need one column per name, all of one length")
        independent = self.columns[0]
        for earlier, later in zip(independent, independent[1:]):
            if not earlier < later:
                raise ValidationError(
                    f"independent values must be strictly increasing, "
                    f"got {earlier} before {later}"
                )

    def column(self, name: str) -> list[float]:
        names = (self.independent_name, *self.output_names)
        return list(self.columns[names.index(name)])


def sweep_sigma(
    cs: CapitalStructure, lower: float, upper: float, steps: int
) -> SweepTable:
    """Value the claims on an evenly spaced volatility grid.

    Columns: sigma; junior_value, senior_value, equity_value, junior_vega.
    The vega is NaN where sigma sqrt(tau) underflows to 0.
    """
    sigmas = _grid("sigma", lower, upper, steps)
    points = [_claims(cs, sigma) for sigma in sigmas]
    senior, junior, equity, vega = zip(*points)
    vega = tuple(math.nan if value is None else value for value in vega)
    columns = (sigmas, junior, senior, equity, vega)
    return SweepTable("sigma", SIGMA_SWEEP_COLUMNS, columns)


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
    check("total_face", total_face, "finite and > 0")
    if not junior_proportions:
        raise ValidationError("at least one junior proportion is required")
    asset_values = _grid("asset-value", v_lower, v_upper, steps)
    tables = []
    for proportion in junior_proportions:
        check("junior proportion", proportion, "strictly in (0, 1)")
        junior_face = proportion * total_face
        # One structure per debt mix validates its inputs and gives the two
        # thresholds, which do not depend on the asset value.
        cs = CapitalStructure(
            asset_values[0],
            total_face - junior_face,
            junior_face,
            initial_sigma,
            maturity,
            rate,
            dividend_yield,
        )
        check("initial_sigma", initial_sigma, "finite and > 0")
        best = [_optimal_volatility(cs, asset_value) for asset_value in asset_values]
        shift = _threshold(cs, initial_sigma)
        columns = (
            asset_values,
            tuple(
                _chosen_risk(peak, asset_value < shift, initial_sigma)
                for peak, asset_value in zip(best, asset_values)
            ),
            tuple(math.nan if peak is None else peak for peak in best),
            (shift,) * steps,
            (hump_threshold(cs),) * steps,
        )
        tables.append(
            (proportion, SweepTable("asset_value", STRUCTURE_SWEEP_COLUMNS, columns))
        )
    return tables


def _grid(name: str, start: float, stop: float, steps: int) -> tuple[float, ...]:
    """``steps`` evenly spaced points from start to stop, both included."""
    check(f"{name} lower bound", start, "finite and > 0")
    check_range(f"{name} range", start, stop)
    if steps < 2:
        raise ValidationError(f"steps must be >= 2, got {steps}")
    step = (stop - start) / (steps - 1)
    grid = [i * step + start for i in range(steps)]
    grid[-1] = float(stop)
    return tuple(grid)


def write_sweep_csv(table: SweepTable, stream: IO[str]) -> None:
    """Write a table as CSV: header row, then one row per grid point."""
    header = (table.independent_name, *table.output_names)
    write_csv(header, zip(*table.columns), stream)


def write_sweep_json(table: SweepTable, stream: IO[str]) -> None:
    """Write a table as JSON with columns mirrored as arrays."""
    write_json(_table_payload(table), stream)


def write_structure_csv(
    tables: list[tuple[float, SweepTable]], stream: IO[str]
) -> None:
    """Write per-proportion tables as one CSV with a junior_proportion column."""
    first = tables[0][1]
    header = ("junior_proportion", first.independent_name, *first.output_names)
    rows = (
        (proportion, *row) for proportion, table in tables for row in zip(*table.columns)
    )
    write_csv(header, rows, stream)


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
    write_json(payload, stream)


def _table_payload(table: SweepTable) -> dict:
    independent, *outputs = table.columns
    columns: dict[str, list] = {table.independent_name: list(independent)}
    for name, column in zip(table.output_names, outputs):
        columns[name] = [None if math.isnan(value) else value for value in column]
    return {"independent": table.independent_name, "columns": columns}
