"""Tests for sweep tables and their CSV/JSON round trips."""

import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import subdebt.risk as risk
import subdebt.sweeps as sweeps
from conftest import count_calls, finite_floats, read_sweep_csv

from subdebt import (
    CapitalStructure,
    ValidationError,
    sweep_sigma,
    sweep_structure,
    write_structure_csv,
    write_structure_json,
    write_sweep_csv,
    write_sweep_json,
)

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

    def test_one_optimal_volatility_per_point(self, monkeypatch):
        counts = {"sigma*": 0}
        count_calls(monkeypatch, counts, "sigma*", (risk, sweeps), "_optimal_volatility")
        sweep_structure(100.0, [0.1, 0.2, 0.3], 50.0, 70.0, 201, 0.10, 1.0, 0.01)
        assert counts == {"sigma*": 3 * 201}

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
