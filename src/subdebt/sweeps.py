"""Sweep tables over volatility or capital structure.

A table is a plain dict that maps each column name to a tuple of floats,
the independent column first and then the outputs, in output order.  The
tables are written as CSV or JSON with the conventions of
``subdebt.output``, which the ``price``, ``thresholds`` and ``verify``
reports share; the CSV header is the dict's keys, and sweep JSON mirrors
the CSV columns as arrays.  The writers lay the text out column by
column, without the ``csv`` and ``json`` modules, and give the bytes that
``csv.writer`` and ``json.dump(indent=2)`` would: ``output.cells`` turns
each column into text, rows are joined with commas, since floats need no
quoting, and the JSON is indented by hand.  A volatility table's values
are nearly all distinct, so each column is formatted in one pass.  The
structure tables repeat values, so their writers format a column that
repeats one value (a threshold's, say) once, and each distinct value of
the other columns once per write.  Column names are written as given, so
they must be plain identifiers, as the sweeps' are; and, as the sweeps
guarantee, values are finite or NaN, and no column or list of tables is
empty.  Each line goes to the stream as its own piece: on stdout, one
large write to a pipe whose reader has closed can drop the rest of the
text without raising, where line-sized writes raise ``BrokenPipeError``.

Sweeps use only the standard library.  Their grids place each point as
numpy.linspace does, i * step + start with the last point set to stop,
so they are bit-identical to it; a step count that is not an ``int``
(or is a ``bool``), is outside [2, ``MAX_STEPS``], or is too large for
its range to give strictly increasing points raises ``ValidationError``,
as does a structure sweep whose steps times proportions exceed
``MAX_STRUCTURE_POINTS``.  The volatility sweep calls the fused claims
kernel once per point; the structure sweep computes the two thresholds,
which do not depend on the asset value, once per debt mix, and sigma*
only at the asset values at or below the hump threshold: the grid
increases strictly, so those rows, and the rows below the shift threshold
where chosen risk is sigma*, are prefixes of it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from itertools import chain, islice, repeat
from typing import IO

from .claims import CapitalStructure, _claims, _vega_overflow
from .errors import ValidationError, check, check_range
from .output import cell, cells

# A sweep table: column name -> values, the independent column first.
Table = dict[str, tuple[float, ...]]

# The most points a grid may have, so that a sweep's memory is bounded: an
# unbounded count would allocate until the process ran out of memory.  At
# the cap, a volatility sweep and its write peak near 92 MB of resident
# memory, in a process that holds 15 MB before it starts.
MAX_STEPS = 100_000
# The most points a structure sweep may have over all its debt mixes, steps
# times proportions: each mix is a table of its own, so capping the steps
# alone leaves memory growing with the mixes, by about 15 MB per mix at
# ``MAX_STEPS``.  At this cap, three mixes at ``MAX_STEPS`` and their JSON
# write peak near 103 MB; many short tables cost more per point, up to
# 150 MB for 150,000 two-point mixes.
MAX_STRUCTURE_POINTS = 3 * MAX_STEPS


def sweep_sigma(
    cs: CapitalStructure, lower: float, upper: float, steps: int
) -> Table:
    """Value the claims on an evenly spaced volatility grid.

    Columns: sigma; junior_value, senior_value, equity_value, junior_vega.
    The vega is NaN where sigma sqrt(tau) underflows to 0; where it leaves
    the float range, the sweep raises ValidationError.
    """
    sigmas = _grid("sigma", lower, upper, steps)
    points = [_claims(cs, sigma) for sigma in sigmas]
    senior, junior, equity, vega = zip(*points)
    if math.inf in vega or -math.inf in vega:
        sigma = next(s for s, v in zip(sigmas, vega) if v in (math.inf, -math.inf))
        raise _vega_overflow(sigma)
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
    # Here, not at the top: the volatility sweep does not run ``risk``.
    from .risk import _optimal_volatility, _threshold

    check("total_face", total_face, "finite and > 0")
    if not junior_proportions:
        raise ValidationError("at least one junior proportion is required")
    asset_values = _grid("asset-value", v_lower, v_upper, steps)
    if steps * len(junior_proportions) > MAX_STRUCTURE_POINTS:
        raise ValidationError(
            f"steps * proportions must be <= {MAX_STRUCTURE_POINTS}, "
            f"got {steps} * {len(junior_proportions)}"
        )
    check("initial_sigma", initial_sigma, "finite and > 0")
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
        shift, hump = _threshold(cs, initial_sigma), _threshold(cs, 0.0)
        # The grid increases strictly, so sigma* exists (V <= H) on a prefix
        # of it, and shifting pays (V < shift) on a prefix of that one.
        humped = bisect_right(asset_values, hump)
        best = [_optimal_volatility(cs, value) for value in islice(asset_values, humped)]
        shifting = min(bisect_left(asset_values, shift), humped)
        chosen = chain(islice(best, shifting), repeat(initial_sigma, steps - shifting))
        table = {
            "asset_value": asset_values,
            "chosen_risk": tuple(chosen),
            "optimal_volatility": tuple(chain(best, repeat(math.nan, steps - humped))),
            "shift_threshold": (shift,) * steps,
            "hump_threshold": (hump,) * steps,
        }
        # Freed now, not when the next mix's list is built: the columns are
        # built from iterators, without copies, so that the peak stays low.
        del best
        tables.append((proportion, table))
    return tables


def _grid(name: str, start: float, stop: float, steps: int) -> tuple[float, ...]:
    """``steps`` strictly increasing, evenly spaced points from start to
    stop, both included."""
    check(f"{name} lower bound", start, "finite and > 0")
    check_range(f"{name} range", start, stop)
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise ValidationError(f"steps must be an integer, got {steps!r}")
    if steps < 2:
        raise ValidationError(f"steps must be >= 2, got {steps}")
    if steps > MAX_STEPS:
        raise ValidationError(f"steps must be <= {MAX_STEPS}, got {steps}")
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
    rows = _csv_rows(table, _texts(""), "")
    stream.writelines([",".join(table) + "\n", *rows])


def write_sweep_json(table: Table, stream: IO[str]) -> None:
    """Write a table as JSON with columns mirrored as arrays."""
    members = _json_members(table, _texts("null", " " * 6), "  ")
    stream.writelines(["{\n", *members, "}\n"])


def write_structure_csv(tables: list[tuple[float, Table]], stream: IO[str]) -> None:
    """Write per-proportion tables as one CSV with a junior_proportion column."""
    texts = _memoized(tables, _texts(""))
    stream.write(",".join(("junior_proportion", *tables[0][1])) + "\n")
    for proportion, table in tables:
        stream.writelines(_csv_rows(table, texts, cell(proportion) + ","))


def write_structure_json(tables: list[tuple[float, Table]], stream: IO[str]) -> None:
    """Write per-proportion tables as a JSON list of column payloads."""
    texts = _memoized(tables, _texts("null", " " * 10))
    stream.writelines(["{\n", '  "tables": [\n'])
    for index, (proportion, table) in enumerate(tables):
        stream.writelines(
            [
                "    {\n",
                f'      "junior_proportion": {cell(proportion, "null")},\n',
                *_json_members(table, texts, " " * 6),
                "    },\n" if index < len(tables) - 1 else "    }\n",
            ]
        )
    stream.writelines(["  ]\n", "}\n"])


# The texts of a column's values, in order.
Texts = Callable[[Sequence[float]], list[str]]


def _texts(missing: str, indent: str = "") -> Texts:
    """Each value through ``output.cells``; with an ``indent``, as a line
    of a JSON array, ``indent + text + ",\n"``."""
    if not indent:
        return lambda column: cells(column, missing)
    return lambda column: [f"{indent}{text},\n" for text in cells(column, missing)]


def _memoized(tables: list[tuple[float, Table]], texts: Texts) -> Texts:
    """``texts`` for the columns of ``tables``, formatting a column that
    repeats one value once, and each distinct value of the other columns
    once per write.

    Structure tables repeat values: one value down each threshold column,
    down chosen risk and sigma* above the thresholds; the asset grid, one
    tuple in every table; and chosen risk, which is sigma* or the initial
    volatility.  A column repeats one value if all its values equal its
    first, a float that is not integral: only 0.0 and -0.0, or an int and
    its float, are equal with two texts, and either makes a key integral.
    The memo is skipped where one dict key would stand for such a pair;
    only then are the values' types checked.  Each column's texts are made
    when the writer asks for them, so no table's texts outlive its write.
    """
    varying = {
        id(column): column
        for _, table in tables
        for column in table.values()
        if not _repeats_one_value(column)
    }
    values = varying.values()
    distinct = dict.fromkeys(chain.from_iterable(values))
    try:
        ambiguous = any(map(float.is_integer, distinct)) and (
            0.0 in distinct or set(map(type, chain.from_iterable(values))) != {float}
        )
    except TypeError:  # a key that is not a float
        ambiguous = True
    memo = None if ambiguous else dict(zip(distinct, texts(tuple(distinct))))

    def column_texts(column: Sequence[float]) -> list[str]:
        if id(column) not in varying:
            return texts(column[:1]) * len(column)
        if memo is None:
            return texts(column)
        return list(map(memo.__getitem__, column))

    return column_texts


def _repeats_one_value(column: Sequence[float]) -> bool:
    """Whether every value of ``column`` equals its first, a float that is
    not integral, so that they all have its text."""
    first = column[0]
    return (
        isinstance(first, float)
        and not first.is_integer()
        and column.count(first) == len(column)
    )


def _csv_rows(table: Table, texts: Texts, prefix: str) -> list[str]:
    """One line per grid point: ``prefix``, then the row's cells joined by
    commas.  Floats never need CSV quoting."""
    columns = map(texts, table.values())
    return [f"{prefix}{','.join(row)}\n" for row in zip(*columns)]


def _json_members(table: Table, texts: Texts, indent: str) -> list[str]:
    """The "independent" and "columns" members of a table's JSON object at
    ``indent``, a line each, as ``json.dump(indent=2)`` lays them out;
    ``texts`` gives each value as a line two levels deeper."""
    lines = [f'{indent}"independent": "{next(iter(table))}",\n', f'{indent}"columns": {{\n']
    for name, column in table.items():
        values = texts(column)
        values[-1] = values[-1][:-2] + "\n"  # no comma after the last value
        lines += [f'{indent}  "{name}": [\n', *values, f"{indent}  ],\n"]
    lines[-1] = f"{indent}  ]\n"  # nor after the last column
    lines.append(f"{indent}}}\n")
    return lines
