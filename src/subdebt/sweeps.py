"""Sweep tables over volatility or capital structure.

A table is a plain dict that maps each column name to a tuple of floats,
the independent column first and then the outputs, in output order.  The
tables are written as CSV or JSON with the conventions of
``subdebt.output``, which the ``price``, ``thresholds`` and ``verify``
reports share; the CSV header is the dict's keys, and sweep JSON mirrors
the CSV columns as arrays.

Sweeps use only the standard library.  Their grids place each point as
numpy.linspace does, i * step + start with the last point set to stop,
so they are bit-identical to it; a range too narrow for its step count
to give strictly increasing points raises ``ValidationError``.  The
volatility sweep calls the fused claims kernel once per point; the
structure sweep computes the two thresholds, which do not depend on the
asset value, once per debt mix.
"""

from __future__ import annotations

import math
from typing import IO

from .claims import CapitalStructure, _claims
from .errors import ValidationError, check, check_range
from .output import write_csv, write_json
from .risk import _chosen_risk, _optimal_volatility, _threshold, hump_threshold

# A sweep table: column name -> values, the independent column first.
Table = dict[str, tuple[float, ...]]


def sweep_sigma(
    cs: CapitalStructure, lower: float, upper: float, steps: int
) -> Table:
    """Value the claims on an evenly spaced volatility grid.

    Columns: sigma; junior_value, senior_value, equity_value, junior_vega.
    The vega is NaN where sigma sqrt(tau) underflows to 0.
    """
    sigmas = _grid("sigma", lower, upper, steps)
    points = [_claims(cs, sigma) for sigma in sigmas]
    senior, junior, equity, vega = zip(*points)
    return {
        "sigma": sigmas,
        "junior_value": junior,
        "senior_value": senior,
        "equity_value": equity,
        "junior_vega": tuple(math.nan if value is None else value for value in vega),
    }


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
) -> list[tuple[float, Table]]:
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
        table = {
            "asset_value": asset_values,
            "chosen_risk": tuple(
                _chosen_risk(peak, asset_value < shift, initial_sigma)
                for peak, asset_value in zip(best, asset_values)
            ),
            "optimal_volatility": tuple(math.nan if peak is None else peak for peak in best),
            "shift_threshold": (shift,) * steps,
            "hump_threshold": (hump_threshold(cs),) * steps,
        }
        tables.append((proportion, table))
    return tables


def _grid(name: str, start: float, stop: float, steps: int) -> tuple[float, ...]:
    """``steps`` strictly increasing, evenly spaced points from start to
    stop, both included."""
    check(f"{name} lower bound", start, "finite and > 0")
    check_range(f"{name} range", start, stop)
    if steps < 2:
        raise ValidationError(f"steps must be >= 2, got {steps}")
    step = (stop - start) / (steps - 1)
    grid = [i * step + start for i in range(steps)]
    grid[-1] = float(stop)
    for earlier, later in zip(grid, grid[1:]):
        if not earlier < later:
            raise ValidationError(
                f"independent values must be strictly increasing, "
                f"got {earlier} before {later}"
            )
    return tuple(grid)


def write_sweep_csv(table: Table, stream: IO[str]) -> None:
    """Write a table as CSV: header row, then one row per grid point."""
    write_csv(tuple(table), zip(*table.values()), stream)


def write_sweep_json(table: Table, stream: IO[str]) -> None:
    """Write a table as JSON with columns mirrored as arrays."""
    write_json(_table_payload(table), stream)


def write_structure_csv(tables: list[tuple[float, Table]], stream: IO[str]) -> None:
    """Write per-proportion tables as one CSV with a junior_proportion column."""
    header = ("junior_proportion", *tables[0][1])
    rows = (
        (proportion, *row)
        for proportion, table in tables
        for row in zip(*table.values())
    )
    write_csv(header, rows, stream)


def write_structure_json(tables: list[tuple[float, Table]], stream: IO[str]) -> None:
    """Write per-proportion tables as a JSON list of column payloads."""
    payload = {
        "tables": [
            {"junior_proportion": proportion, **_table_payload(table)}
            for proportion, table in tables
        ]
    }
    write_json(payload, stream)


def _table_payload(table: Table) -> dict:
    columns = {
        name: [None if math.isnan(value) else value for value in column]
        for name, column in table.items()
    }
    return {"independent": next(iter(table)), "columns": columns}
