"""Tests for the junior-debt vega, thresholds, and regime classification."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import distressed_structures, finite_floats
from subdebt import (
    CapitalStructure,
    DegenerateVolatilityError,
    GridSpec,
    Regime,
    ValidationError,
    argmax_sigma_numeric,
    chosen_risk,
    classify_regime,
    finite_diff_vega,
    hump_threshold,
    junior_debt_value,
    junior_debt_vega,
    optimal_volatility,
    risk_shift_threshold,
)

SEARCH_GRID = GridSpec(lower=0.01, upper=1.5, tolerance=1e-6)


def _cs(v, fs=60.0, fj=10.0, sigma=0.10, tau=1.0, r=0.01, q=0.0):
    return CapitalStructure(v, fs, fj, sigma, tau, r, q)


class TestJuniorDebtVega:
    def test_positive_in_the_shifting_zone(self):
        assert junior_debt_vega(_cs(62.0, sigma=0.10)) > 0.0

    def test_negative_for_solvent_firm_across_volatilities(self):
        for sigma in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
            assert junior_debt_vega(_cs(100.0, sigma=sigma)) < 0.0

    def test_near_zero_at_reported_peak_volatility(self):
        assert abs(junior_debt_vega(_cs(62.0, sigma=0.262))) < 0.01

    def test_vanishes_at_the_exact_maximizer(self):
        cs = _cs(62.0)
        best = optimal_volatility(cs)
        assert abs(junior_debt_vega(replace(cs, volatility=best))) < 1e-8

    def test_zero_volatility_refused(self):
        with pytest.raises(DegenerateVolatilityError):
            junior_debt_vega(_cs(62.0, sigma=0.0))

    @given(distressed_structures(with_yield=True))
    def test_matches_central_finite_difference(self, cs):
        analytic = junior_debt_vega(cs)
        numeric = finite_diff_vega(cs, 1e-5)
        assert abs(numeric - analytic) <= max(
            1e-6 * abs(analytic), 1e-7 * cs.asset_value
        )

    @given(distressed_structures(with_yield=True))
    def test_stationary_at_interior_maximizer(self, cs):
        best = optimal_volatility(cs)
        if best is None or best == 0.0:
            return
        assert abs(junior_debt_vega(replace(cs, volatility=best))) < 1e-8 * cs.asset_value

    @given(distressed_structures(min_sigma=0.1, with_yield=True))
    def test_sign_flips_across_shift_threshold(self, cs):
        # sigma sqrt(tau) >= 0.05 here, so the vegas at the threshold are
        # resolvable in double precision and the sign flip is visible.
        threshold = risk_shift_threshold(cs, cs.volatility)
        below = replace(cs, asset_value=threshold * 0.99)
        above = replace(cs, asset_value=threshold * 1.01)
        assert junior_debt_vega(below) > 0.0
        assert junior_debt_vega(above) < 0.0


class TestThresholds:
    def test_shift_threshold_matches_reported_value(self):
        assert risk_shift_threshold(_cs(62.0), 0.10) == pytest.approx(63.8, abs=0.05)

    def test_shift_threshold_direct_arithmetic(self):
        expected = math.exp(-(0.02 + 0.5 * 0.3 * 0.3) * 2.0) * math.sqrt(50.0 * 80.0)
        cs = _cs(62.0, fs=50.0, fj=30.0, tau=2.0, r=0.02)
        assert risk_shift_threshold(cs, 0.3) == pytest.approx(expected, rel=1e-15)

    def test_hump_threshold_direct_arithmetic(self):
        expected = math.exp(-0.01) * math.sqrt(60.0 * 70.0)
        value = hump_threshold(_cs(62.0))
        assert value == pytest.approx(expected, rel=1e-15)
        assert value == pytest.approx(64.16, abs=0.01)

    def test_hump_threshold_no_discounting(self):
        assert hump_threshold(_cs(62.0, r=0.0)) == pytest.approx(
            math.sqrt(4200.0), rel=1e-15
        )

    def test_hump_threshold_equal_faces(self):
        face = 40.0
        cs = _cs(62.0, fs=face, fj=face, tau=2.0, r=0.03)
        assert hump_threshold(cs) == pytest.approx(
            math.exp(-0.06) * face * math.sqrt(2.0), rel=1e-12
        )

    def test_shift_threshold_at_zero_sigma_equals_hump_threshold(self):
        assert risk_shift_threshold(_cs(62.0), 0.0) == hump_threshold(_cs(62.0))

    def test_undiscounted_when_rate_equals_yield_at_zero_sigma(self):
        assert risk_shift_threshold(_cs(62.0, r=0.03, q=0.03), 0.0) == pytest.approx(
            math.sqrt(4200.0), rel=1e-15
        )

    # The structure-level cases raise when the structure is built, so every
    # case builds its structure inside the raises block.
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda: hump_threshold(_cs(62.0, fs=0.0)),
            lambda: risk_shift_threshold(_cs(62.0), -0.1),
            lambda: hump_threshold(_cs(62.0, fs=math.inf)),
            lambda: hump_threshold(_cs(62.0, tau=math.inf)),
            lambda: risk_shift_threshold(_cs(62.0), math.inf),
            lambda: hump_threshold(_cs(62.0, r=-800.0)),
            lambda: risk_shift_threshold(_cs(62.0, r=0.0, q=800.0), 0.1),
            lambda: hump_threshold(_cs(62.0, fs=1e200)),
            lambda: hump_threshold(_cs(62.0, fs=1e300, fj=1e300, r=800.0)),
        ],
        ids=[
            "zero-senior-face",
            "negative-sigma",
            "inf-senior-face",
            "inf-maturity",
            "inf-sigma",
            "growth-overflow",
            "yield-growth-overflow",
            "face-product-overflow",
            "face-product-overflow-times-zero-growth",
        ],
    )
    def test_rejects_inputs_outside_the_domain(self, evaluate):
        with pytest.raises(ValidationError):
            evaluate()

    @given(
        finite_floats(0.5, 300.0),
        finite_floats(0.5, 300.0),
        finite_floats(1e-3, 1.5),
        finite_floats(0.05, 5.0),
        finite_floats(-0.02, 0.10),
    )
    def test_shift_threshold_below_hump_threshold(self, fs, fj, sigma, tau, r):
        cs = _cs(62.0, fs=fs, fj=fj, tau=tau, r=r)
        assert risk_shift_threshold(cs, sigma) < hump_threshold(cs)

    def test_maximizer_exists_just_below_boundary_only(self):
        boundary = hump_threshold(_cs(62.0))
        below = _cs(boundary - 0.5)
        above = _cs(boundary + 0.5)
        assert argmax_sigma_numeric(below, SEARCH_GRID) is not None
        assert argmax_sigma_numeric(above, SEARCH_GRID) is None
        assert optimal_volatility(below) is not None
        assert optimal_volatility(above) is None


class TestOptimalVolatility:
    def test_reported_peak_value(self):
        assert optimal_volatility(_cs(62.0)) == pytest.approx(0.262, abs=0.0005)

    def test_direct_arithmetic(self):
        expected = math.sqrt(math.log(60.0 * 70.0 / 62.0**2) - 0.02)
        assert optimal_volatility(_cs(62.0)) == pytest.approx(expected, rel=1e-14)

    def test_boundary_value_is_exactly_zero(self):
        boundary = hump_threshold(_cs(62.0))
        assert optimal_volatility(_cs(boundary)) == 0.0

    def test_dividend_yield_raises_the_peak(self):
        expected = math.sqrt(math.log(4200.0 / 3844.0) - 0.02 + 0.04)
        assert optimal_volatility(_cs(62.0, q=0.02)) == pytest.approx(expected, rel=1e-14)

    def test_dividend_variant_matches_numeric_argmax(self):
        cs = _cs(62.0, q=0.02)
        numeric = argmax_sigma_numeric(cs, SEARCH_GRID)
        assert numeric == pytest.approx(optimal_volatility(cs), abs=1e-4)

    @given(
        finite_floats(0.08, 1.2),
        finite_floats(20.0, 100.0),
        finite_floats(0.05, 0.8),
        finite_floats(0.5, 3.0),
        finite_floats(0.0, 0.08),
    )
    @settings(max_examples=30)
    def test_matches_numeric_argmax_for_constructed_peaks(
        self, target, fs, junior_ratio, tau, r
    ):
        # Place the asset value so the interior maximizer is exactly `target`.
        # The ranges keep target * sqrt(tau) large enough that the hump is
        # resolvable in double precision and the search can see it.
        fj = fs * junior_ratio
        boundary = hump_threshold(_cs(62.0, fs=fs, fj=fj, tau=tau, r=r))
        asset_value = boundary * math.exp(-0.5 * target * target * tau)
        cs = CapitalStructure(asset_value, fs, fj, 0.1, tau, r)
        closed = optimal_volatility(cs)
        assert closed == pytest.approx(target, rel=1e-12)
        numeric = argmax_sigma_numeric(cs, SEARCH_GRID)
        assert numeric is not None
        assert abs(numeric - closed) < 1e-5

    @pytest.mark.parametrize(
        "cs",
        [
            _cs(1e-308),
            _cs(1e-160),
            _cs(62.0, fs=1e200),
            _cs(62.0, fs=1e-200, fj=1e-200),
        ],
        ids=[
            "v-squared-underflows",
            "ratio-overflows",
            "face-product-overflows",
            "ratio-underflows",
        ],
    )
    def test_radicand_out_of_float_range_is_validation_error(self, cs):
        with pytest.raises(ValidationError):
            optimal_volatility(cs)

    def test_structure_volatility_field_is_ignored(self):
        assert optimal_volatility(_cs(62.0, sigma=0.9)) == optimal_volatility(
            _cs(62.0, sigma=0.1)
        )


class TestComparativeStatics:
    def test_increases_as_asset_value_falls(self):
        assert optimal_volatility(_cs(55.0)) > optimal_volatility(_cs(62.0))

    def test_increases_with_senior_share_at_fixed_total(self):
        # Raising the senior face while keeping total debt fixed raises the peak.
        more_senior = optimal_volatility(_cs(62.0, fs=65.0, fj=5.0))
        less_senior = optimal_volatility(_cs(62.0, fs=60.0, fj=10.0))
        assert more_senior > less_senior

    def test_thresholds_fall_as_junior_share_rises_at_fixed_total(self):
        for fj_small, fj_big in ((10.0, 20.0), (20.0, 30.0)):
            total = 100.0
            small = _cs(62.0, fs=total - fj_small, fj=fj_small)
            big = _cs(62.0, fs=total - fj_big, fj=fj_big)
            assert optimal_volatility(big) < optimal_volatility(small)
            assert risk_shift_threshold(big, 0.1) < risk_shift_threshold(small, 0.1)


class TestUnimodality:
    @pytest.mark.parametrize(
        "cs",
        [
            _cs(62.0),
            _cs(58.0, tau=2.0, r=0.02),
            _cs(62.0, q=0.02),
        ],
    )
    def test_value_rises_then_falls_on_fine_grid(self, cs):
        sigmas = np.arange(1e-3, 1.5 + 1e-9, 1e-3)
        values = np.array(
            [junior_debt_value(replace(cs, volatility=float(s))) for s in sigmas]
        )
        peak = int(np.argmax(values))
        diffs = np.diff(values)
        # Ties can only occur where option values saturate in double
        # precision, so monotonicity is asserted non-strictly.
        assert (diffs[:peak] >= 0.0).all()
        assert (diffs[peak:] <= 0.0).all()
        best = optimal_volatility(cs)
        assert abs(sigmas[peak] - best) <= 1.5e-3


class TestRegimeClassification:
    def test_solvent_firm_decreasing(self):
        profile = classify_regime(_cs(100.0), 0.10)
        assert profile.regime is Regime.DECREASING_IN_RISK
        assert profile.optimal_volatility is None
        assert not profile.shifts_above_initial
        assert profile.initial_sigma == 0.10

    def test_distressed_firm_hump_shaped(self):
        profile = classify_regime(_cs(62.0), 0.10)
        assert profile.regime is Regime.HUMP_SHAPED
        assert profile.optimal_volatility == pytest.approx(0.262, abs=0.0005)
        assert profile.shifts_above_initial
        assert profile.shift_threshold == pytest.approx(63.8, abs=0.05)

    def test_between_thresholds_peak_below_initial(self):
        profile = classify_regime(_cs(64.0), 0.10)
        assert profile.regime is Regime.HUMP_SHAPED
        assert profile.optimal_volatility is not None
        assert 0.0 < profile.optimal_volatility < 0.10
        assert not profile.shifts_above_initial
        numeric = argmax_sigma_numeric(_cs(64.0), SEARCH_GRID)
        assert numeric == pytest.approx(profile.optimal_volatility, abs=1e-4)

    @given(distressed_structures(with_yield=True), finite_floats(0.01, 0.5))
    def test_profile_invariants(self, cs, initial_sigma):
        profile = classify_regime(cs, initial_sigma)
        assert (profile.regime is Regime.HUMP_SHAPED) == (
            profile.optimal_volatility is not None
        )
        assert profile.shift_threshold <= profile.hump_threshold
        assert profile.shifts_above_initial == (
            cs.asset_value < profile.shift_threshold
        )

    @given(distressed_structures(with_yield=True), finite_floats(0.01, 0.5))
    def test_shift_flag_matches_peak_comparison(self, cs, initial_sigma):
        profile = classify_regime(cs, initial_sigma)
        if profile.optimal_volatility is not None:
            assert profile.shifts_above_initial == (
                profile.optimal_volatility > initial_sigma
            )

    def test_rejects_nonpositive_initial_sigma(self):
        with pytest.raises(ValidationError):
            classify_regime(_cs(62.0), 0.0)
        with pytest.raises(ValidationError):
            chosen_risk(_cs(62.0), -0.1)
        with pytest.raises(ValidationError):
            classify_regime(_cs(62.0), math.inf)
        with pytest.raises(ValidationError):
            chosen_risk(_cs(62.0), math.nan)


class TestChosenRisk:
    def test_shifts_to_the_peak_when_distressed(self):
        assert chosen_risk(_cs(62.0), 0.10) == pytest.approx(0.262, abs=0.0005)

    def test_keeps_initial_risk_when_solvent(self):
        assert chosen_risk(_cs(100.0), 0.10) == 0.10

    def test_keeps_initial_risk_between_thresholds(self):
        assert chosen_risk(_cs(64.0), 0.10) == 0.10

    def test_high_senior_share_mix(self):
        # 10% junior share of a total face of 100.
        cs = _cs(62.0, fs=90.0, fj=10.0)
        expected = math.sqrt(math.log(90.0 * 100.0 / 62.0**2) - 0.02)
        assert chosen_risk(cs, 0.10) == pytest.approx(expected, rel=1e-12)
        numeric = argmax_sigma_numeric(cs, SEARCH_GRID)
        assert numeric == pytest.approx(expected, abs=1e-4)

    @given(distressed_structures(), finite_floats(0.01, 0.5))
    def test_never_below_initial_risk(self, cs, initial_sigma):
        assert chosen_risk(cs, initial_sigma) >= initial_sigma


class TestDividendReduction:
    @given(
        finite_floats(0.5, 300.0),
        finite_floats(0.5, 300.0),
        finite_floats(0.0, 1.5),
        finite_floats(0.05, 5.0),
        finite_floats(-0.02, 0.10),
    )
    def test_zero_yield_thresholds_bit_identical(self, fs, fj, sigma, tau, r):
        cs = _cs(62.0, fs=fs, fj=fj, tau=tau, r=r, q=0.0)
        with_yield = risk_shift_threshold(cs, sigma)
        base = math.exp(-(r + 0.5 * sigma * sigma) * tau) * math.sqrt(fs * (fs + fj))
        assert with_yield == base
        assert hump_threshold(cs) == math.exp(
            -r * tau
        ) * math.sqrt(fs * (fs + fj))

    @given(distressed_structures())
    def test_zero_yield_maximizer_bit_identical(self, cs):
        radicand = (
            math.log(cs.senior_face * (cs.senior_face + cs.junior_face) / (cs.asset_value * cs.asset_value))
            / cs.maturity
            - 2.0 * cs.rate
        )
        if radicand > 1e-12:
            expected = math.sqrt(radicand)
        elif radicand >= -1e-12:
            expected = 0.0
        else:
            expected = None
        assert optimal_volatility(cs) == expected
