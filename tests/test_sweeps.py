"""Tests for sweep tables and their CSV/JSON round trips."""

import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import subdebt.output as output
import subdebt.risk as risk
import subdebt.sweeps as sweeps
from conftest import finite_floats, read_sweep_csv

from subdebt import (
    CapitalStructure,
    ValidationError,
    chosen_risk,
    hump_threshold,
    sweep_sigma,
    sweep_structure,
    write_structure_csv,
    write_structure_json,
    write_sweep_csv,
    write_sweep_json,
)
from subdebt.output import cell, cells

DISTRESSED = CapitalStructure(62.0, 60.0, 10.0, 0.10, 1.0, 0.01)
SOLVENT = CapitalStructure(100.0, 60.0, 10.0, 0.10, 1.0, 0.01)


class TestSigmaSweep:
    def test_columns_and_grid(self):
        table = sweep_sigma(DISTRESSED, 0.01, 0.8, 200)
        assert tuple(table) == (
            "sigma",
            "junior_value",
            "senior_value",
            "equity_value",
            "junior_vega",
        )
        sigmas = list(table["sigma"])
        assert len(sigmas) == 200
        assert sigmas[0] == 0.01 and sigmas[-1] == 0.8

    @given(
        finite_floats(1e-6, 2.0), finite_floats(1e-9, 3.0), st.integers(2, 400)
    )
    @example(0.01, 0.79, 200)
    @example(0.1, 0.2, 3)
    @example(1e-4, 2.5, 997)
    def test_sigma_column_bit_identical_to_linspace(self, lower, width, steps):
        upper = lower + width
        sigmas = list(sweep_sigma(SOLVENT, lower, upper, steps)["sigma"])
        assert sigmas == np.linspace(lower, upper, steps).tolist()

    def test_distressed_junior_value_peaks_near_reported_maximizer(self):
        table = sweep_sigma(DISTRESSED, 0.01, 0.8, 200)
        junior = list(table["junior_value"])
        sigmas = list(table["sigma"])
        assert sigmas[int(np.argmax(junior))] == pytest.approx(0.262, abs=0.004)

    def test_solvent_junior_value_never_rises(self):
        table = sweep_sigma(SOLVENT, 0.01, 0.8, 200)
        diffs = np.diff(table["junior_value"])
        assert (diffs <= 0.0).all()
        # Strict decrease once option values are out of their saturated
        # deep-in-the-money regime.
        sigmas = np.asarray(table["sigma"][1:])
        assert (diffs[sigmas >= 0.06] < 0.0).all()

    @pytest.mark.parametrize("cs", [DISTRESSED, SOLVENT])
    def test_equity_nondecreasing_in_volatility(self, cs):
        table = sweep_sigma(cs, 0.01, 0.8, 200)
        assert (np.diff(table["equity_value"]) >= 0.0).all()

    def test_vega_column_sign_tracks_junior_value_shape(self):
        table = sweep_sigma(DISTRESSED, 0.05, 0.8, 100)
        junior = np.asarray(table["junior_value"])
        vega = np.asarray(table["junior_vega"])
        peak = int(np.argmax(junior))
        assert (vega[:peak] > 0.0).all()
        assert (vega[peak + 1 :] < 0.0).all()

    def test_vega_is_nan_where_sigma_sqrt_tau_underflows(self):
        # 5e-324 * sqrt(0.25) rounds to 0; every sigma in the grid is valid.
        cs = CapitalStructure(62.0, 60.0, 10.0, 0.10, 0.25, 0.01)
        table = sweep_sigma(cs, 5e-324, 0.1, 3)
        vega = list(table["junior_vega"])
        assert math.isnan(vega[0])
        assert all(math.isfinite(value) for value in vega[1:])
        assert all(math.isfinite(value) for value in table["junior_value"])
        csv_out, json_out = io.StringIO(), io.StringIO()
        write_sweep_csv(table, csv_out)
        write_sweep_json(table, json_out)
        assert csv_out.getvalue().splitlines()[1].endswith(",")
        assert json.loads(json_out.getvalue())["columns"]["junior_vega"][0] is None

    def test_vega_is_finite_where_its_scale_overflows(self):
        # V e^{-q tau} sqrt(tau) = 1e309 overflows, the vega at each sigma does not.
        cs = CapitalStructure(1e308, 1e300, 1e300, 0.2, 100.0, 0.01)
        vega = sweep_sigma(cs, 0.01, 0.8, 5)["junior_vega"]
        assert all(math.isfinite(value) for value in vega)

    def test_vega_beyond_the_float_range_is_refused(self):
        # The vega at sigma = 0.001 is about 4e308.
        cs = CapitalStructure(1e308, 1e308, 5e307, 1e-3, 100.0, 0.0)
        with pytest.raises(ValidationError, match="junior vega overflows"):
            sweep_sigma(cs, 1e-3, 0.1, 3)

    @pytest.mark.parametrize(
        "lower,upper,steps",
        [
            (0.0, 0.8, 10),
            (-0.1, 0.8, 10),
            (0.5, 0.1, 10),
            (0.1, 0.8, 1),
            (0.01, math.inf, 3),
            (math.nan, 0.8, 3),
            (0.01, math.nan, 3),
        ],
    )
    def test_rejects_bad_ranges(self, lower, upper, steps):
        with pytest.raises(ValidationError):
            sweep_sigma(DISTRESSED, lower, upper, steps)

    @pytest.mark.parametrize("steps", [sweeps.MAX_STEPS + 1, 10**12])
    def test_rejects_more_steps_than_the_cap(self, steps):
        message = f"steps must be <= {sweeps.MAX_STEPS}, got {steps}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            sweep_sigma(DISTRESSED, 0.01, 0.8, steps)
        with pytest.raises(ValidationError, match=re.escape(message)):
            sweep_structure(100.0, [0.1], 50.0, 70.0, steps, 0.10, 1.0, 0.01)

    @pytest.mark.parametrize("steps", [2.5, 3.0, math.nan, math.inf, True, "3"])
    def test_rejects_steps_that_are_not_integers(self, steps):
        message = f"steps must be an integer, got {steps!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            sweep_sigma(DISTRESSED, 0.01, 0.8, steps)
        with pytest.raises(ValidationError, match=re.escape(message)):
            sweep_structure(100.0, [0.1], 50.0, 70.0, steps, 0.10, 1.0, 0.01)


class TestStructureSweep:
    def test_tables_per_proportion(self):
        tables = sweep_structure(100.0, [0.1, 0.2, 0.3], 50.0, 70.0, 21, 0.10, 1.0, 0.01)
        assert [p for p, _ in tables] == [0.1, 0.2, 0.3]
        for _, table in tables:
            assert tuple(table) == (
                "asset_value",
                "chosen_risk",
                "optimal_volatility",
                "shift_threshold",
                "hump_threshold",
            )
            assert len(table["asset_value"]) == 21

    def test_chosen_risk_weakly_decreasing_in_junior_share(self):
        tables = sweep_structure(100.0, [0.1, 0.2, 0.3], 50.0, 70.0, 41, 0.10, 1.0, 0.01)
        columns = [list(table["chosen_risk"]) for _, table in tables]
        for smaller_share, bigger_share in zip(columns, columns[1:]):
            assert all(a >= b for a, b in zip(smaller_share, bigger_share))

    def test_absent_maximizer_is_nan_above_boundary(self):
        tables = sweep_structure(100.0, [0.3], 75.0, 90.0, 16, 0.10, 1.0, 0.01)
        table = tables[0][1]
        boundary = table["hump_threshold"][0]
        for value, best, chosen in zip(
            table["asset_value"],
            table["optimal_volatility"],
            table["chosen_risk"],
        ):
            if value > boundary:
                assert math.isnan(best)
                assert chosen == 0.10
            else:
                assert not math.isnan(best)

    # Grids within 1e-10 (relative) of the hump threshold H.  At an initial
    # sigma of 1e-6 the shift threshold, H e^{-sigma^2 tau / 2}, lies inside
    # the grid too, so chosen risk turns from sigma* to sigma0 on it.
    @pytest.mark.parametrize(
        "proportion,maturity,rate,dividend_yield,initial_sigma",
        [
            (1 / 7, 30.0, 0.01, 0.0, 1e-6),
            (0.3, 30.0, -0.02, 0.05, 0.1),
            (0.05, 0.05, 0.1, 0.0, 1e-6),
            (0.6, 12.5, 0.03, 0.01, 1e-6),
        ],
    )
    def test_rows_straddling_the_hump_threshold_follow_it(
        self, proportion, maturity, rate, dividend_yield, initial_sigma
    ):
        total_face = 70.0
        junior_face = proportion * total_face
        faces = (total_face - junior_face, junior_face)
        unit = CapitalStructure(1.0, *faces, initial_sigma, maturity, rate, dividend_yield)
        boundary = hump_threshold(unit)
        [(_, table)] = sweep_structure(
            total_face,
            [proportion],
            boundary * (1.0 - 1e-10),
            boundary * (1.0 + 1e-10),
            201,
            initial_sigma,
            maturity,
            rate,
            dividend_yield,
        )
        rows = zip(*table.values())
        for asset_value, chosen, best, _, hump in rows:
            assert hump == boundary
            assert math.isnan(best) == (asset_value > hump)
            cs = CapitalStructure(
                asset_value, *faces, initial_sigma, maturity, rate, dividend_yield
            )
            assert repr(chosen) == repr(chosen_risk(cs, initial_sigma))

    # Grids within 1e-10 (relative) of a threshold T: across it, or ending
    # or starting at T itself.  Each row must be what ``classify_regime``
    # gives on the row's own structure, bit for bit.  An initial sigma of
    # 1e-9 leaves the shift threshold equal to H.
    @pytest.mark.parametrize(
        "proportion,maturity,rate,dividend_yield,initial_sigma,threshold",
        [
            (0.3, 30.0, -0.02, 0.05, 0.1, "hump"),
            (1 / 7, 30.0, 0.01, 0.0, 0.1, "shift"),
            (0.6, 12.5, 0.03, 0.01, 0.25, "shift"),
            (0.05, 0.05, 0.1, 0.0, 0.3, "shift"),
            (1 / 7, 30.0, 0.01, 0.0, 1e-9, "hump"),
            (0.05, 0.05, 0.1, 0.0, 1e-9, "hump"),
        ],
    )
    @pytest.mark.parametrize("placement", ["across", "ending-at", "starting-at"])
    def test_rows_are_the_regime_of_their_own_structure(
        self, proportion, maturity, rate, dividend_yield, initial_sigma, threshold, placement
    ):
        total_face = 70.0
        junior_face = proportion * total_face
        market = (initial_sigma, maturity, rate, dividend_yield)
        unit = CapitalStructure(1.0, total_face - junior_face, junior_face, *market)
        at = {
            "hump": hump_threshold(unit),
            "shift": risk.risk_shift_threshold(unit, initial_sigma),
        }[threshold]
        lower, upper = {
            "across": (at * (1.0 - 1e-10), at * (1.0 + 1e-10)),
            "ending-at": (at * (1.0 - 1e-10), at),
            "starting-at": (at, at * (1.0 + 1e-10)),
        }[placement]
        [(_, table)] = sweep_structure(total_face, [proportion], lower, upper, 201, *market)
        grid = table["asset_value"]
        assert min(grid) <= at <= max(grid)
        if placement == "across":
            assert grid[0] < at < grid[-1]
        if initial_sigma == 1e-9:
            assert table["shift_threshold"] == table["hump_threshold"]
        for asset_value, chosen, best, shift, hump in zip(*table.values()):
            cs = CapitalStructure(asset_value, total_face - junior_face, junior_face, *market)
            profile = risk.classify_regime(cs, initial_sigma)
            expected = (
                profile.chosen_risk,
                math.nan if profile.optimal_volatility is None else profile.optimal_volatility,
                profile.shift_threshold,
                profile.hump_threshold,
            )
            assert list(map(float.hex, (chosen, best, shift, hump))) == list(
                map(float.hex, expected)
            )

    def test_one_optimal_volatility_per_point(self, monkeypatch):
        # Only at grid points at or below the hump threshold H: none above it.
        evaluated = []
        original = risk._optimal_volatility

        def recorded(cs, asset_value):
            evaluated.append((cs.junior_face, asset_value))
            return original(cs, asset_value)

        monkeypatch.setattr(risk, "_optimal_volatility", recorded)
        tables = sweep_structure(100.0, [0.1, 0.2, 0.3], 50.0, 120.0, 201, 0.10, 1.0, 0.01)
        expected = []
        for proportion, table in tables:
            junior_face = proportion * 100.0
            cs = CapitalStructure(50.0, 100.0 - junior_face, junior_face, 0.1, 1.0, 0.01)
            below = [value for value in table["asset_value"] if value <= hump_threshold(cs)]
            assert 0 < len(below) < 201
            expected += [(cs.junior_face, value) for value in below]
        assert evaluated == expected

    def test_caps_steps_times_proportions(self, monkeypatch):
        steps = sweeps.MAX_STEPS
        message = f"steps * proportions must be <= {sweeps.MAX_STRUCTURE_POINTS}, got {steps} * 4"
        # Refused before any table is built, so the bad proportion is not reached.
        with pytest.raises(ValidationError, match=re.escape(message)):
            sweep_structure(100.0, [0.1, 0.2, 0.3, 1.5], 50.0, 70.0, steps, 0.10, 1.0, 0.01)
        monkeypatch.setattr(sweeps, "MAX_STRUCTURE_POINTS", 15)
        assert len(sweep_structure(100.0, [0.1, 0.2, 0.3], 50.0, 70.0, 5, 0.10, 1.0, 0.01)) == 3
        for proportions, steps in (([0.1, 0.2, 0.3, 0.4], 5), ([0.1, 0.2], 8)):
            message = f"steps * proportions must be <= 15, got {steps} * {len(proportions)}"
            with pytest.raises(ValidationError, match=re.escape(message)):
                sweep_structure(100.0, proportions, 50.0, 70.0, steps, 0.10, 1.0, 0.01)

    @pytest.mark.parametrize("proportion", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_out_of_range_proportions(self, proportion):
        with pytest.raises(ValidationError):
            sweep_structure(100.0, [proportion], 50.0, 70.0, 5, 0.10, 1.0, 0.01)

    def test_rejects_empty_proportions_and_bad_ranges(self):
        with pytest.raises(ValidationError):
            sweep_structure(100.0, [], 50.0, 70.0, 5, 0.10, 1.0, 0.01)
        with pytest.raises(ValidationError):
            sweep_structure(100.0, [0.1], 70.0, 50.0, 5, 0.10, 1.0, 0.01)
        with pytest.raises(ValidationError):
            sweep_structure(-100.0, [0.1], 50.0, 70.0, 5, 0.10, 1.0, 0.01)
        with pytest.raises(ValidationError):
            sweep_structure(100.0, [0.1], 50.0, math.inf, 5, 0.10, 1.0, 0.01)
        with pytest.raises(ValidationError):
            sweep_structure(100.0, [0.1], 50.0, 70.0, 5, 0.10, 1.0, -800.0)
        with pytest.raises(ValidationError, match="initial_sigma"):
            sweep_structure(100.0, [0.1], 50.0, 70.0, 5, 0.0, 1.0, 0.01)

    @pytest.mark.parametrize("initial_sigma", [-0.1, math.nan, math.inf])
    def test_initial_sigma_is_named_before_any_structure_is_built(self, initial_sigma):
        message = "initial_sigma must be finite and > 0"
        with pytest.raises(ValidationError, match=message):
            sweep_structure(100.0, [0.1], 50.0, 70.0, 5, initial_sigma, 1.0, 0.01)
        # Also ahead of a proportion that would be refused in the loop.
        with pytest.raises(ValidationError, match=message):
            sweep_structure(100.0, [1.5], 50.0, 70.0, 5, initial_sigma, 1.0, 0.01)


class TestTableValidation:
    def test_rejects_nonincreasing_independent_values(self):
        # Each range is one ulp wide, so 5 evenly spaced points repeat its start.
        message = re.escape(
            "independent values must be strictly increasing, got 0.1 before 0.1"
        )
        with pytest.raises(ValidationError, match=message):
            sweep_sigma(DISTRESSED, 0.1, 0.10000000000000002, 5)
        message = re.escape(
            "independent values must be strictly increasing, got 50.0 before 50.0"
        )
        with pytest.raises(ValidationError, match=message):
            sweep_structure(100.0, [0.1], 50.0, 50.00000000000001, 5, 0.10, 1.0, 0.01)


class TestEmission:
    def test_csv_round_trip_is_exact(self):
        table = sweep_sigma(DISTRESSED, 0.01, 0.8, 50)
        buffer = io.StringIO()
        write_sweep_csv(table, buffer)
        buffer.seek(0)
        parsed = read_sweep_csv(buffer)
        assert list(parsed.items()) == list(table.items())

    def test_csv_header_and_decimal_format(self):
        table = sweep_sigma(DISTRESSED, 0.1, 0.3, 3)
        buffer = io.StringIO()
        write_sweep_csv(table, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "sigma,junior_value,senior_value,equity_value,junior_vega"
        assert len(lines) == 4
        for line in lines[1:]:
            assert "," in line and " " not in line

    def test_json_mirrors_columns(self):
        table = sweep_sigma(DISTRESSED, 0.1, 0.3, 5)
        buffer = io.StringIO()
        write_sweep_json(table, buffer)
        payload = json.loads(buffer.getvalue())
        assert payload["independent"] == "sigma"
        assert list(payload["columns"]) == [
            "sigma",
            "junior_value",
            "senior_value",
            "equity_value",
            "junior_vega",
        ]
        assert payload["columns"]["sigma"] == list(table["sigma"])
        assert payload["columns"]["junior_value"] == list(table["junior_value"])

    def test_structure_csv_flattens_with_proportion_column(self):
        tables = sweep_structure(100.0, [0.1, 0.3], 75.0, 90.0, 4, 0.10, 1.0, 0.01)
        buffer = io.StringIO()
        write_structure_csv(tables, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == (
            "junior_proportion,asset_value,chosen_risk,optimal_volatility,"
            "shift_threshold,hump_threshold"
        )
        assert len(lines) == 1 + 2 * 4
        # Absent maximizers above the boundary emit as empty cells.
        assert any(",," in line for line in lines[1:])

    def test_structure_json_emits_null_for_absent(self):
        tables = sweep_structure(100.0, [0.3], 75.0, 90.0, 4, 0.10, 1.0, 0.01)
        buffer = io.StringIO()
        write_structure_json(tables, buffer)
        payload = json.loads(buffer.getvalue())
        assert payload["tables"][0]["junior_proportion"] == 0.3
        assert None in payload["tables"][0]["columns"]["optimal_volatility"]

    def test_emission_is_deterministic(self):
        table = sweep_sigma(DISTRESSED, 0.01, 0.8, 30)
        first, second = io.StringIO(), io.StringIO()
        write_sweep_csv(table, first)
        write_sweep_csv(sweep_sigma(DISTRESSED, 0.01, 0.8, 30), second)
        assert first.getvalue() == second.getvalue()


# The stdlib route the sweep writers replace: csv.writer over ``cell`` rows,
# and json.dump of the payload with NaN as None.
def _stdlib_csv(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(cell, row) for row in rows)
    return buffer.getvalue()


def _stdlib_json(payload):
    buffer = io.StringIO()
    json.dump(payload, buffer, indent=2)
    return buffer.getvalue() + "\n"


def _payload(table):
    columns = {
        name: [None if math.isnan(value) else value for value in column]
        for name, column in table.items()
    }
    return {"independent": next(iter(table)), "columns": columns}


def _written(writer, tables):
    buffer = io.StringIO()
    writer(tables, buffer)
    return buffer.getvalue()


def _hand_made(a, b):
    # 0.0 and -0.0 in both orders, NaN both as one object and as distinct
    # objects, and values repeated within and across columns.
    other_nan = float("nan")
    return {
        "x": (a, 0.0, -0.0, 0.0, -0.0, 1.5, 1.5, 2.0, 3.0, b),
        "zeros": (-0.0, 0.0, -0.0, 1.5, 0.0, 0.0, -0.0, 2.0, 0.1, 0.1),
        "missing": (math.nan, math.nan, other_nan, 1.5, math.nan, other_nan, 0.0, -0.0, 2.0, 1.5),
        "same": (0.1,) * 10,
    }


def _with_column(column):
    # Two tables over one grid whose last column is ``column``; the other
    # columns hold 3.0 and -0.0, which a constant column's int or 0.0 equals.
    grid = (0.25, 1.5, 2.75, 4.0)
    return [
        (proportion, {"x": grid, "y": (0.1, proportion, 3.0, -0.0), "constant": column})
        for proportion in (0.2, 0.7)
    ]


class TestCells:
    NANS = [math.nan, float("nan"), -math.nan, float("inf") - float("inf")]
    COLUMNS = {
        "floats": [0.1, 2.5, -1e300, 123456789.125, 1e-7],
        "zeros": [0.0, -0.0, 0.0],
        "subnormals": [5e-324, -5e-324, 2.2250738585072009e-308],
        "infinities": [math.inf, -math.inf, 1.5],
        "nans": [*NANS, 1.5, *NANS],
        "numpy": [np.float64(0.1), np.float64("nan"), np.float64(-0.0), 1.5],
        "int": [1, 1.0, 0.5],
        "bool": [True, 1.0, False, 0.0],
        "none": [None, 0.25, math.nan],
        "empty": [],
    }

    @pytest.mark.parametrize("missing", ["", "null", "n/a"])
    @pytest.mark.parametrize("name", COLUMNS)
    def test_cells_is_cell_on_each_value(self, name, missing):
        values = self.COLUMNS[name]
        for column in (values, tuple(values)):
            assert cells(column, missing) == [cell(value, missing) for value in values]

    def test_sigma_writers_format_no_float_through_cell(self, monkeypatch):
        # One column pass per write: a writer that sends each value back
        # through ``cell`` costs a call per value on top of its repr.
        formatted = []

        def counted(value, missing=""):
            formatted.append(value)
            return cell(value, missing)

        for module in (output, sweeps):
            monkeypatch.setattr(module, "cell", counted)
        table = sweep_sigma(DISTRESSED, 0.01, 0.8, 200)
        for writer in (write_sweep_csv, write_sweep_json):
            writer(table, io.StringIO())
        assert [value for value in formatted if isinstance(value, float)] == []


class TestStdlibIdentity:
    """The sweep writers write exactly what the stdlib writers would."""

    SIGMA_TABLES = {
        "distressed": sweep_sigma(DISTRESSED, 0.01, 0.8, 200),
        "solvent": sweep_sigma(SOLVENT, 0.01, 0.8, 200),
        # sigma sqrt(tau) underflows at the first point: a NaN vega.
        "nan-vega": sweep_sigma(
            CapitalStructure(62.0, 60.0, 10.0, 0.10, 0.25, 0.01), 5e-324, 0.1, 3
        ),
        "hand-made": _hand_made(-1.25, 1e-300),
        "hand-made-subnormal": _hand_made(5e-324, -2.5),
        # The grid is spaced from numpy floats, so the sigma column holds them.
        "numpy-inputs": sweep_sigma(
            CapitalStructure(*map(np.float64, (62.0, 60.0, 10.0, 0.10, 1.0, 0.01))),
            np.float64(0.01),
            np.float64(0.8),
            50,
        ),
    }
    STRUCTURE_TABLES = {
        "figure": sweep_structure(100.0, [0.1, 0.2, 0.3], 50.0, 100.0, 251, 0.10, 1.0, 0.01),
        "absent-maximizers": sweep_structure(100.0, [0.1, 0.3], 75.0, 90.0, 16, 0.10, 1.0, 0.01),
        "payout": sweep_structure(
            110.0, [0.05, 0.25, 0.45, 0.5], 40.0, 95.0, 7, 0.2, 2.0, 0.03, 0.01
        ),
        # No value is integral, as in most drawn inputs.
        "drawn": sweep_structure(97.3, [0.12, 0.31, 0.44], 47.3, 83.9, 31, 0.17, 1.3, 0.02),
        "hand-made": [(0.1, _hand_made(-1.25, 1e-300)), (0.5, _hand_made(1.5, -0.0))],
        # Chosen risk is the int initial volatility above the shift threshold.
        "int-initial-sigma": sweep_structure(100.0, [0.1, 0.3], 50.0, 90.0, 9, 1, 1.0, 0.01),
        # ... and an asset value is its float: 1 and 1.0 are one dict key.
        "int-and-its-float": sweep_structure(100.0, [0.1, 0.2], 1.0, 200.0, 5, 1, 1.0, 0.01),
        # ... and no asset value is integral, so the memo meets the int
        # before any integral float.
        "int-first": sweep_structure(97.3, [0.12, 0.31], 47.3, 83.9, 9, 1, 1.3, 0.02),
        # Every asset value above both thresholds: chosen risk repeats the
        # initial volatility, and sigma* the one NaN object.
        "above-the-thresholds": sweep_structure(
            100.0, [0.2, 0.3], 95.0, 120.0, 6, 0.10, 1.0, 0.01
        ),
        # One column each that repeats a value, or looks as if it did.
        "constant-negative-zero": _with_column((-0.0,) * 4),
        "constant-zero": _with_column((0.0,) * 4),
        "constant-int": _with_column((3,) * 4),
        "constant-nan-object": _with_column((math.nan,) * 4),
        "distinct-nans": _with_column(tuple(float("nan") for _ in range(4))),
        "constant-numpy": _with_column((np.float64(0.1), 0.1, np.float64(0.1), 0.1)),
        # Values equal to the first with another text: not one repeated value.
        "equal-zeros": _with_column((0.0, -0.0, 0.0, -0.0)),
        "equal-int-and-float": _with_column((3.0, 3, 3.0, 3)),
    }

    def test_tables_hold_the_cases_they_are_here_for(self):
        assert math.isnan(self.SIGMA_TABLES["nan-vega"]["junior_vega"][0])
        for tables in self.STRUCTURE_TABLES.values():
            assert len(tables) >= 2
        assert any(
            math.isnan(value)
            for _, table in self.STRUCTURE_TABLES["absent-maximizers"]
            for value in table["optimal_volatility"]
        )
        assert type(self.SIGMA_TABLES["numpy-inputs"]["sigma"][1]) is np.float64
        assert not any(
            value.is_integer()
            for _, table in self.STRUCTURE_TABLES["drawn"]
            for column in table.values()
            for value in column
        )
        for name in ("int-initial-sigma", "int-and-its-float"):
            for _, table in self.STRUCTURE_TABLES[name]:
                assert any(type(value) is int for value in table["chosen_risk"])
        _, table = self.STRUCTURE_TABLES["int-and-its-float"][0]
        assert type(table["asset_value"][0]) is float and table["asset_value"][0] == 1
        for _, table in self.STRUCTURE_TABLES["int-first"]:
            assert not any(value.is_integer() for value in table["asset_value"])
            assert all(type(value) is int and value == 1 for value in table["chosen_risk"])
        # The structure sweeps' own constant columns: each threshold, and
        # chosen risk and sigma* above the thresholds.
        for _, table in self.STRUCTURE_TABLES["absent-maximizers"]:
            for name in ("shift_threshold", "hump_threshold"):
                assert sweeps._repeats_one_value(table[name])
        for _, table in self.STRUCTURE_TABLES["above-the-thresholds"]:
            assert all(value is math.nan for value in table["optimal_volatility"])
            assert set(table["chosen_risk"]) == {0.10}
            for name in ("chosen_risk", "optimal_volatility"):
                assert sweeps._repeats_one_value(table[name])
        constants = {
            name[len("constant-") :]: [table["constant"] for _, table in tables]
            for name, tables in self.STRUCTURE_TABLES.items()
            if name.startswith("constant-")
        }
        for column in constants["negative-zero"]:
            assert all(math.copysign(1.0, value) == -1.0 and value == 0.0 for value in column)
        for column in constants["zero"]:
            assert all(math.copysign(1.0, value) == 1.0 and value == 0.0 for value in column)
        for column in constants["int"]:
            assert all(type(value) is int for value in column)
        for column in constants["nan-object"]:
            assert all(value is column[0] and math.isnan(value) for value in column)
            assert sweeps._repeats_one_value(column)
        for _, table in self.STRUCTURE_TABLES["distinct-nans"]:
            column = table["constant"]
            assert all(math.isnan(value) for value in column)
            assert len(set(map(id, column))) == len(column)
            assert not sweeps._repeats_one_value(column)
        for column in constants["numpy"]:
            assert {type(value) for value in column} == {float, np.float64}
            assert sweeps._repeats_one_value(column)
        for name in ("equal-zeros", "equal-int-and-float"):
            for _, table in self.STRUCTURE_TABLES[name]:
                column = table["constant"]
                assert column.count(column[0]) == len(column)
                assert len(set(map(cell, column))) == 2

    @pytest.mark.parametrize("name", SIGMA_TABLES)
    def test_sweep_csv(self, name):
        table = self.SIGMA_TABLES[name]
        expected = _stdlib_csv(tuple(table), zip(*table.values()))
        assert _written(write_sweep_csv, table) == expected

    @pytest.mark.parametrize("name", SIGMA_TABLES)
    def test_sweep_json(self, name):
        table = self.SIGMA_TABLES[name]
        assert _written(write_sweep_json, table) == _stdlib_json(_payload(table))

    @pytest.mark.parametrize("name", STRUCTURE_TABLES)
    def test_structure_csv(self, name):
        tables = self.STRUCTURE_TABLES[name]
        header = ("junior_proportion", *tables[0][1])
        rows = (
            (proportion, *row)
            for proportion, table in tables
            for row in zip(*table.values())
        )
        assert _written(write_structure_csv, tables) == _stdlib_csv(header, rows)

    @pytest.mark.parametrize("name", STRUCTURE_TABLES)
    def test_structure_json(self, name):
        tables = self.STRUCTURE_TABLES[name]
        payload = {
            "tables": [
                {"junior_proportion": proportion, **_payload(table)}
                for proportion, table in tables
            ]
        }
        assert _written(write_structure_json, tables) == _stdlib_json(payload)

    def test_writes_line_sized_pieces(self):
        class Pieces(io.StringIO):
            def __init__(self):
                super().__init__()
                self.pieces = []

            def write(self, text):
                self.pieces.append(text)
                return super().write(text)

        for writer, tables in [
            (write_sweep_csv, self.SIGMA_TABLES["distressed"]),
            (write_sweep_json, self.SIGMA_TABLES["distressed"]),
            (write_structure_csv, self.STRUCTURE_TABLES["figure"]),
            (write_structure_json, self.STRUCTURE_TABLES["figure"]),
        ]:
            stream = Pieces()
            writer(tables, stream)
            assert "".join(stream.pieces) == stream.getvalue()
            assert all(piece.count("\n") == 1 for piece in stream.pieces), writer
