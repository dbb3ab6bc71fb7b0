"""Tests for the junior-debt vega, thresholds, and regime classification."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    capital_structures,
    distressed_structures,
    finite_floats,
    is_normal,
    log_uniform,
    near_hump_structures,
    rebuilt,
    structure,
    whole_domain_structures,
)
from subdebt import (
    CapitalStructure,
    GridSpec,
    Regime,
    ValidationError,
    argmax_sigma_numeric,
    chosen_risk,
    classify_regime,
    finite_diff_vega,
    hump_threshold,
    junior_debt_vega,
    optimal_volatility,
    risk_shift_threshold,
    value_all_claims,
)

SEARCH_GRID = GridSpec(lower=0.01, upper=1.5, tolerance=1e-6)


@st.composite
def _regime_cases(draw):
    """Distressed and solvent structures, some at sigma = 0 and some within
    1e-6 (relative) of the hump threshold."""
    cs = draw(
        st.one_of(
            distressed_structures(with_yield=True),
            capital_structures(min_sigma=0.0, with_yield=True),
        )
    )
    kind = draw(st.sampled_from(["as-drawn", "zero-sigma", "near-hump"]))
    if kind == "zero-sigma":
        return rebuilt(cs, volatility=0.0)
    if kind == "near-hump":
        gap = draw(finite_floats(-1e-6, 1e-6))
        return rebuilt(cs, asset_value=hump_threshold(cs) * (1.0 + gap))
    return cs


class TestJuniorDebtVega:
    def test_positive_in_the_shifting_zone(self):
        assert junior_debt_vega(structure(62.0, sigma=0.10)) > 0.0

    def test_negative_for_solvent_firm_across_volatilities(self):
        for sigma in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
            assert junior_debt_vega(structure(100.0, sigma=sigma)) < 0.0

    def test_near_zero_at_reported_peak_volatility(self):
        assert abs(junior_debt_vega(structure(62.0, sigma=0.262))) < 0.01

    def test_vanishes_at_the_exact_maximizer(self):
        cs = structure(62.0)
        best = optimal_volatility(cs)
        assert abs(junior_debt_vega(rebuilt(cs, volatility=best))) < 1e-8

    def test_zero_volatility_has_no_vega(self):
        assert junior_debt_vega(structure(62.0, sigma=0.0)) is None

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
        assert abs(junior_debt_vega(rebuilt(cs, volatility=best))) < 1e-8 * cs.asset_value

    @given(distressed_structures(min_sigma=0.1, with_yield=True))
    def test_sign_flips_across_shift_threshold(self, cs):
        # sigma sqrt(tau) >= 0.05 here, so the vegas at the threshold are
        # resolvable in double precision and the sign flip is visible.
        threshold = risk_shift_threshold(cs, cs.volatility)
        below = rebuilt(cs, asset_value=threshold * 0.99)
        above = rebuilt(cs, asset_value=threshold * 1.01)
        assert junior_debt_vega(below) > 0.0
        assert junior_debt_vega(above) < 0.0


class TestThresholds:
    def test_shift_threshold_matches_reported_value(self):
        assert risk_shift_threshold(structure(62.0), 0.10) == pytest.approx(63.8, abs=0.05)

    def test_shift_threshold_direct_arithmetic(self):
        expected = math.exp(-(0.02 + 0.5 * 0.3 * 0.3) * 2.0) * math.sqrt(50.0 * 80.0)
        cs = structure(62.0, fs=50.0, fj=30.0, tau=2.0, r=0.02)
        assert risk_shift_threshold(cs, 0.3) == pytest.approx(expected, rel=1e-15)

    def test_hump_threshold_direct_arithmetic(self):
        expected = math.exp(-0.01) * math.sqrt(60.0 * 70.0)
        value = hump_threshold(structure(62.0))
        assert value == pytest.approx(expected, rel=1e-15)
        assert value == pytest.approx(64.16, abs=0.01)

    def test_hump_threshold_no_discounting(self):
        assert hump_threshold(structure(62.0, r=0.0)) == pytest.approx(
            math.sqrt(4200.0), rel=1e-15
        )

    def test_hump_threshold_equal_faces(self):
        face = 40.0
        cs = structure(62.0, fs=face, fj=face, tau=2.0, r=0.03)
        assert hump_threshold(cs) == pytest.approx(
            math.exp(-0.06) * face * math.sqrt(2.0), rel=1e-12
        )

    # F_S (F_S + F_J) is subnormal at faces of 1e-160 and underflows to 0 at
    # 1e-200; the thresholds still scale with the faces.
    @pytest.mark.parametrize("k", [1e-160, 1e-200], ids=["subnormal-product", "zero-product"])
    def test_tiny_faces_scale_the_thresholds(self, k):
        unit = CapitalStructure(1.0, 1.0, 1.0, 0.2, 1.0, 0.01)
        tiny = CapitalStructure(k, k, k, 0.2, 1.0, 0.01)
        for threshold in (hump_threshold, lambda cs: risk_shift_threshold(cs, 0.2)):
            assert threshold(tiny) == pytest.approx(k * threshold(unit), rel=4 * 2**-52, abs=0)
        expected, profile = classify_regime(unit, 0.2), classify_regime(tiny, 0.2)
        assert profile.regime is expected.regime is Regime.HUMP_SHAPED
        assert profile.shifts_above_initial is expected.shifts_above_initial is True
        assert profile.chosen_risk == pytest.approx(expected.chosen_risk, rel=1e-12)
        assert chosen_risk(tiny, 0.2) == profile.chosen_risk

    def test_shift_threshold_at_zero_sigma_equals_hump_threshold(self):
        assert risk_shift_threshold(structure(62.0), 0.0) == hump_threshold(structure(62.0))

    def test_undiscounted_when_rate_equals_yield_at_zero_sigma(self):
        assert risk_shift_threshold(structure(62.0, r=0.03, q=0.03), 0.0) == pytest.approx(
            math.sqrt(4200.0), rel=1e-15
        )

    # The structure-level cases raise when the structure is built, so every
    # case builds its structure inside the raises block.
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda: hump_threshold(structure(62.0, fs=0.0)),
            lambda: risk_shift_threshold(structure(62.0), -0.1),
            lambda: hump_threshold(structure(62.0, fs=math.inf)),
            lambda: hump_threshold(structure(62.0, tau=math.inf)),
            lambda: risk_shift_threshold(structure(62.0), math.inf),
            lambda: hump_threshold(structure(62.0, r=-800.0)),
            lambda: risk_shift_threshold(structure(62.0, r=0.0, q=800.0), 0.1),
        ],
        ids=[
            "zero-senior-face",
            "negative-sigma",
            "inf-senior-face",
            "inf-maturity",
            "inf-sigma",
            "growth-overflow",
            "yield-growth-overflow",
        ],
    )
    def test_rejects_inputs_outside_the_domain(self, evaluate):
        with pytest.raises(ValidationError):
            evaluate()

    # The threshold is a normal float although F_S (F_S + F_J) or the growth
    # factor e^{-(r - q + sigma^2/2) tau} is not.  Rounding the exponent
    # costs up to |exponent| ulps of the threshold.
    @pytest.mark.parametrize(
        "cs",
        [
            structure(62.0, fs=1e200),
            structure(62.0, fs=1e300, fj=1e300, r=800.0),
            CapitalStructure(1e200, 1e200, 1e200, 0.2, 1.0, 0.01),
            structure(62.0, fs=1e-300, fj=1e-300, r=-800.0),
            structure(62.0, fs=1e150, fj=1e150, r=720.0),
        ],
        ids=[
            "face-product-overflow",
            "product-overflow-zero-growth",
            "huge-faces",
            "growth-overflow-tiny-faces",
            "subnormal-growth",
        ],
    )
    def test_finite_at_extreme_faces_and_rates(self, cs):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        senior_face = mp.mpf(cs.senior_face)
        root = mp.sqrt(senior_face * (senior_face + cs.junior_face))
        for sigma in (0.0, 0.2):
            threshold = risk_shift_threshold(cs, sigma) if sigma else hump_threshold(cs)
            exponent = (mp.mpf(cs.rate) - cs.dividend_yield + mp.mpf(sigma) ** 2 / 2) * cs.maturity
            exact = float(mp.exp(-exponent) * root)
            ulps = 4 + abs(float(exponent))
            assert threshold == pytest.approx(exact, rel=ulps * 2**-52, abs=0)

    @pytest.mark.parametrize(
        "cs,sigma,message",
        [
            (structure(62.0, r=-800.0), 0.0, "threshold discount factor e^800.0 overflows"),
            (
                structure(62.0, r=0.0, q=800.0),
                0.1,
                "threshold discount factor e^799.995 overflows",
            ),
            (
                structure(62.0, r=-707.0),
                0.0,
                "threshold 1.1122405015634333e+307 * sqrt(60.0 * 70.0) overflows",
            ),
        ],
        ids=["growth-overflow", "yield-growth-overflow", "threshold-overflow"],
    )
    def test_overflow_messages(self, cs, sigma, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            risk_shift_threshold(cs, sigma)

    @given(
        finite_floats(0.5, 300.0),
        finite_floats(0.5, 300.0),
        finite_floats(1e-3, 1.5),
        finite_floats(0.05, 5.0),
        finite_floats(-0.02, 0.10),
    )
    def test_shift_threshold_below_hump_threshold(self, fs, fj, sigma, tau, r):
        cs = structure(62.0, fs=fs, fj=fj, tau=tau, r=r)
        assert risk_shift_threshold(cs, sigma) < hump_threshold(cs)

    def test_maximizer_exists_just_below_boundary_only(self):
        boundary = hump_threshold(structure(62.0))
        below = structure(boundary - 0.5)
        above = structure(boundary + 0.5)
        assert argmax_sigma_numeric(below, SEARCH_GRID) is not None
        assert argmax_sigma_numeric(above, SEARCH_GRID) is None
        assert optimal_volatility(below) is not None
        assert optimal_volatility(above) is None


class TestOptimalVolatility:
    def test_reported_peak_value(self):
        assert optimal_volatility(structure(62.0)) == pytest.approx(0.262, abs=0.0005)

    def test_direct_arithmetic(self):
        expected = math.sqrt(math.log(60.0 * 70.0 / 62.0**2) - 0.02)
        assert optimal_volatility(structure(62.0)) == pytest.approx(expected, rel=1e-14)

    def test_boundary_value_is_exactly_zero(self):
        boundary = hump_threshold(structure(62.0))
        assert optimal_volatility(structure(boundary)) == 0.0

    def test_dividend_yield_raises_the_peak(self):
        expected = math.sqrt(math.log(4200.0 / 3844.0) - 0.02 + 0.04)
        assert optimal_volatility(structure(62.0, q=0.02)) == pytest.approx(expected, rel=1e-14)

    def test_dividend_variant_matches_numeric_argmax(self):
        cs = structure(62.0, q=0.02)
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
        boundary = hump_threshold(structure(62.0, fs=fs, fj=fj, tau=tau, r=r))
        asset_value = boundary * math.exp(-0.5 * target * target * tau)
        cs = CapitalStructure(asset_value, fs, fj, 0.1, tau, r)
        closed = optimal_volatility(cs)
        assert closed == pytest.approx(target, rel=1e-12)
        numeric = argmax_sigma_numeric(cs, SEARCH_GRID)
        assert numeric is not None
        assert abs(numeric - closed) < 1e-5

    # Where F_S (F_S + F_J), V^2 or their ratio leaves the float range, the
    # log is taken from the binary mantissas and exponents of F_S, F_S + F_J
    # and V.  Expected radicands are summed here, independently, from ln 10
    # and the logs of the decimal mantissas.
    @pytest.mark.parametrize(
        "cs,radicand",
        [
            (structure(1e-308), math.log(4200.0) + 616.0 * math.log(10.0) - 0.02),
            (structure(1e-160), math.log(4200.0) + 320.0 * math.log(10.0) - 0.02),
            (structure(62.0, fs=1e200), 400.0 * math.log(10.0) - 2.0 * math.log(62.0) - 0.02),
            (structure(62.0, fs=1e-200, fj=1e-200), None),
            (structure(1e155), None),
            (structure(1e200), None),
            (structure(1e300), None),
            (structure(1.0, fs=1e-200, fj=1e-200), None),
            (structure(1e200, fs=1e200, fj=1e200), math.log(2.0) - 0.02),
        ],
        ids=[
            "v-squared-underflows",
            "ratio-overflows",
            "face-product-overflows",
            "ratio-underflows",
            "v-squared-overflows-1e155",
            "v-squared-overflows-1e200",
            "v-squared-overflows-1e300",
            "face-product-underflows",
            "inf-over-inf",
        ],
    )
    def test_log_form_out_of_float_range(self, cs, radicand):
        if radicand is None:
            assert optimal_volatility(cs) is None
        else:
            assert optimal_volatility(cs) == pytest.approx(math.sqrt(radicand), rel=1e-12)

    @pytest.mark.parametrize(
        "cs",
        [
            structure(62.0, tau=1e-310),
            structure(1e-308, tau=1e-310),
            structure(1.0, r=-1e308),
            structure(62.0, tau=1e-310, r=1e308),
        ],
        ids=[
            "log-over-maturity-overflows",
            "log-form-over-maturity-overflows",
            "rate-term-overflows",
            "inf-minus-inf",
        ],
    )
    def test_radicand_out_of_float_range_is_validation_error(self, cs):
        with pytest.raises(ValidationError, match="leaves the float range"):
            optimal_volatility(cs)

    # V = k, F_S = 1.1 k and F_J = 0.7 k have the same F_S / V and
    # (F_S + F_J) / V at every power of two k, while F_S (F_S + F_J) and V^2
    # leave the normal range for |j| > 511.
    def test_scaling_the_structure_by_a_power_of_two_keeps_sigma_star(self):
        unit = optimal_volatility(CapitalStructure(1.0, 1.1, 0.7, 0.2, 1.0, 0.01))
        for j in range(-1000, 1001):
            k = 2.0**j
            cs = CapitalStructure(k, 1.1 * k, 0.7 * k, 0.2, 1.0, 0.01)
            assert optimal_volatility(cs) == pytest.approx(unit, rel=1e-14, abs=0), j

    def test_structure_volatility_field_is_ignored(self):
        assert optimal_volatility(structure(62.0, sigma=0.9)) == optimal_volatility(
            structure(62.0, sigma=0.1)
        )


class TestComparativeStatics:
    def test_increases_as_asset_value_falls(self):
        assert optimal_volatility(structure(55.0)) > optimal_volatility(structure(62.0))

    def test_increases_with_senior_share_at_fixed_total(self):
        # Raising the senior face while keeping total debt fixed raises the peak.
        more_senior = optimal_volatility(structure(62.0, fs=65.0, fj=5.0))
        less_senior = optimal_volatility(structure(62.0, fs=60.0, fj=10.0))
        assert more_senior > less_senior

    def test_thresholds_fall_as_junior_share_rises_at_fixed_total(self):
        for fj_small, fj_big in ((10.0, 20.0), (20.0, 30.0)):
            total = 100.0
            small = structure(62.0, fs=total - fj_small, fj=fj_small)
            big = structure(62.0, fs=total - fj_big, fj=fj_big)
            assert optimal_volatility(big) < optimal_volatility(small)
            assert risk_shift_threshold(big, 0.1) < risk_shift_threshold(small, 0.1)


class TestUnimodality:
    @pytest.mark.parametrize(
        "cs",
        [
            structure(62.0),
            structure(58.0, tau=2.0, r=0.02),
            structure(62.0, q=0.02),
        ],
    )
    def test_value_rises_then_falls_on_fine_grid(self, cs):
        sigmas = np.arange(1e-3, 1.5 + 1e-9, 1e-3)
        values = np.array(
            [value_all_claims(rebuilt(cs, volatility=float(s))).junior_value for s in sigmas]
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
        profile = classify_regime(structure(100.0), 0.10)
        assert profile.regime is Regime.DECREASING_IN_RISK
        assert profile.optimal_volatility is None
        assert not profile.shifts_above_initial
        assert profile.initial_sigma == 0.10

    def test_distressed_firm_hump_shaped(self):
        profile = classify_regime(structure(62.0), 0.10)
        assert profile.regime is Regime.HUMP_SHAPED
        assert profile.optimal_volatility == pytest.approx(0.262, abs=0.0005)
        assert profile.shifts_above_initial
        assert profile.shift_threshold == pytest.approx(63.8, abs=0.05)

    def test_between_thresholds_peak_below_initial(self):
        profile = classify_regime(structure(64.0), 0.10)
        assert profile.regime is Regime.HUMP_SHAPED
        assert profile.optimal_volatility is not None
        assert 0.0 < profile.optimal_volatility < 0.10
        assert not profile.shifts_above_initial
        numeric = argmax_sigma_numeric(structure(64.0), SEARCH_GRID)
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
            classify_regime(structure(62.0), 0.0)
        with pytest.raises(ValidationError):
            chosen_risk(structure(62.0), -0.1)
        with pytest.raises(ValidationError):
            classify_regime(structure(62.0), math.inf)
        with pytest.raises(ValidationError):
            chosen_risk(structure(62.0), math.nan)


class TestChosenRisk:
    def test_shifts_to_the_peak_when_distressed(self):
        assert chosen_risk(structure(62.0), 0.10) == pytest.approx(0.262, abs=0.0005)

    def test_keeps_initial_risk_when_solvent(self):
        assert chosen_risk(structure(100.0), 0.10) == 0.10

    def test_keeps_initial_risk_between_thresholds(self):
        assert chosen_risk(structure(64.0), 0.10) == 0.10

    def test_high_senior_share_mix(self):
        # 10% junior share of a total face of 100.
        cs = structure(62.0, fs=90.0, fj=10.0)
        expected = math.sqrt(math.log(90.0 * 100.0 / 62.0**2) - 0.02)
        assert chosen_risk(cs, 0.10) == pytest.approx(expected, rel=1e-12)
        numeric = argmax_sigma_numeric(cs, SEARCH_GRID)
        assert numeric == pytest.approx(expected, abs=1e-4)

    @given(distressed_structures(), finite_floats(0.01, 0.5))
    def test_never_below_initial_risk(self, cs, initial_sigma):
        assert chosen_risk(cs, initial_sigma) >= initial_sigma

    @given(_regime_cases(), finite_floats(0.01, 1.0))
    def test_equals_the_classified_profile_bit_for_bit(self, cs, initial_sigma):
        assert repr(chosen_risk(cs, initial_sigma)) == repr(
            classify_regime(cs, initial_sigma).chosen_risk
        )

    @pytest.mark.parametrize("initial_sigma", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_initial_sigma_as_classify_regime_does(self, initial_sigma):
        with pytest.raises(ValidationError) as chosen:
            chosen_risk(structure(62.0), initial_sigma)
        with pytest.raises(ValidationError) as classified:
            classify_regime(structure(62.0), initial_sigma)
        assert str(chosen.value) == str(classified.value)
        assert str(chosen.value).startswith("initial_sigma must be finite and > 0")

    def test_returns_where_only_the_hump_threshold_overflows(self):
        # e^{707} sqrt(4200) overflows; e^{707 - 4.5} sqrt(4200) does not.
        cs = structure(62.0, r=-707.0)
        with pytest.raises(ValidationError, match="threshold .* overflows"):
            classify_regime(cs, 3.0)
        assert chosen_risk(cs, 3.0) == optimal_volatility(cs)


class TestDividendReduction:
    @given(
        finite_floats(0.5, 300.0),
        finite_floats(0.5, 300.0),
        finite_floats(0.0, 1.5),
        finite_floats(0.05, 5.0),
        finite_floats(-0.02, 0.10),
    )
    def test_zero_yield_thresholds_bit_identical(self, fs, fj, sigma, tau, r):
        cs = structure(62.0, fs=fs, fj=fj, tau=tau, r=r, q=0.0)
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
        if cs.asset_value > hump_threshold(cs):
            expected = None
        elif radicand > 0.0:
            expected = math.sqrt(radicand)
        else:
            expected = 0.0
        assert optimal_volatility(cs) == expected


class TestOneBoundary:
    """The regime, sigma* and chosen risk follow the printed hump threshold H:
    hump-shaped, with sigma*, exactly where V <= H."""

    @settings(derandomize=True, max_examples=400)
    @given(
        st.one_of(near_hump_structures(), distressed_structures(with_yield=True)),
        finite_floats(0.01, 1.0),
    )
    def test_regime_and_sigma_star_follow_the_hump_threshold(self, cs, initial_sigma):
        profile = classify_regime(cs, initial_sigma)
        assert profile.hump_threshold == hump_threshold(cs)
        below = cs.asset_value <= profile.hump_threshold
        assert (profile.regime is Regime.HUMP_SHAPED) == below
        assert (profile.optimal_volatility is not None) == below
        assert repr(optimal_volatility(cs)) == repr(profile.optimal_volatility)
        assert repr(chosen_risk(cs, initial_sigma)) == repr(profile.chosen_risk)

    # The radicand's rounding error E is at most about 3.3e-16 / tau + 1e-16,
    # and sigma*'s at most min(sqrt(E), E / sigma*): under 2e-8 for the
    # strategy's delta >= 1e-15 and tau >= 0.05, so the bound is 3e-8.
    @settings(derandomize=True, max_examples=400)
    @given(near_hump_structures())
    def test_sigma_star_matches_mpmath_below_the_threshold(self, cs):
        mp = pytest.importorskip("mpmath")
        if not cs.asset_value < hump_threshold(cs):
            return
        with mp.workdps(50):
            senior_face, asset_value = mp.mpf(cs.senior_face), mp.mpf(cs.asset_value)
            log_ratio = mp.log(senior_face * (senior_face + cs.junior_face) / asset_value**2)
            rate_term = 2 * (mp.mpf(cs.rate) - cs.dividend_yield)
            radicand = log_ratio / cs.maturity - rate_term
            exact = float(mp.sqrt(max(radicand, 0)))
        assert abs(optimal_volatility(cs) - exact) <= 3e-8


_REFUSED = object()


def _or_refused(function, *args):
    """``function(*args)``, or ``_REFUSED`` where it raises ValidationError."""
    try:
        return function(*args)
    except ValidationError:
        return _REFUSED


def _finite_nonnegative(value):
    return math.isfinite(value) and value >= 0.0


class TestWholeDomainContract:
    """Aim 3's contract for the risk layer: finite values >= 0, or ValidationError."""

    @settings(derandomize=True, max_examples=300)
    @given(whole_domain_structures(), st.just(0.0) | log_uniform(-320.0), log_uniform(-320.0))
    def test_risk_layer_finite_nonnegative_or_refused(self, cs, sigma, initial_sigma):
        shift = _or_refused(risk_shift_threshold, cs, sigma)
        hump = _or_refused(hump_threshold, cs)
        best = _or_refused(optimal_volatility, cs)
        risk = _or_refused(chosen_risk, cs, initial_sigma)
        assert all(value is _REFUSED or _finite_nonnegative(value) for value in (shift, hump, risk))
        if best is not _REFUSED:
            # sigma* is None exactly where V > H as printed; an H that overflows is +inf.
            assert (best is None) == (hump is not _REFUSED and cs.asset_value > hump)
            assert best is None or _finite_nonnegative(best)
        profile = _or_refused(classify_regime, cs, initial_sigma)
        if profile is _REFUSED:
            return
        fields = (profile.shift_threshold, profile.hump_threshold, profile.chosen_risk)
        assert all(_finite_nonnegative(value) for value in fields)
        assert repr(best) == repr(profile.optimal_volatility)
        assert repr(risk) == repr(profile.chosen_risk)


class TestSigmaStarLog:
    """sigma*'s log ln(F_S (F_S + F_J) / V^2): the direct form where its terms
    are normal floats, and the fallback from binary mantissas and exponents
    elsewhere, over the whole range of V, F_S and F_J."""

    # With tau = 1 and r = q = 0, sigma*^2 is the log l itself.  At the pinned
    # structure a log of ratios, ln(F_S / V) + ln((F_S + F_J) / V), cancels
    # to 55 eps of l; the mantissa form stays under 2 eps.
    @settings(derandomize=True, max_examples=300)
    @given(log_uniform(-323.0), log_uniform(-323.0), log_uniform(-323.0))
    @example(1e-200, 3e-301, 7e-100)
    def test_sigma_star_squared_within_4_eps_of_the_log(
        self, asset_value, senior_face, junior_face
    ):
        mp = pytest.importorskip("mpmath")
        assume(math.isfinite(senior_face + junior_face))
        cs = CapitalStructure(asset_value, senior_face, junior_face, 0.2, 1.0, 0.0)
        best = optimal_volatility(cs)
        if best is None:
            return
        with mp.workdps(60):
            senior = mp.mpf(senior_face)
            log_ratio = mp.log(senior * (senior + junior_face) / mp.mpf(asset_value) ** 2)
            error = abs(mp.mpf(best) ** 2 - log_ratio)
            assert error <= 4 * sys.float_info.epsilon * max(1, abs(log_ratio)), float(error)

    # Bit for bit at any r, q and tau wherever the direct form applies.
    @settings(derandomize=True, max_examples=300)
    @given(whole_domain_structures())
    def test_direct_form_wherever_its_terms_are_normal(self, cs):
        face_product = cs.senior_face * (cs.senior_face + cs.junior_face)
        v_squared = cs.asset_value * cs.asset_value
        if not (is_normal(face_product) and is_normal(v_squared)):
            return
        if not is_normal(face_product / v_squared):
            return
        best = _or_refused(optimal_volatility, cs)
        if best is None:
            return
        log_ratio = math.log(face_product / v_squared)
        radicand = log_ratio / cs.maturity - 2.0 * cs.rate + 2.0 * cs.dividend_yield
        if radicand <= 0.0:
            expected = 0.0
        elif radicand < math.inf:
            expected = math.sqrt(radicand)
        else:
            expected = _REFUSED
        assert repr(best) == repr(expected)
