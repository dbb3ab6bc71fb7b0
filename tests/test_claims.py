"""Tests for the three-claim valuation layer."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subdebt.claims as claims
from conftest import (
    capital_structures,
    claim_payoffs,
    count_calls,
    distressed_structures,
    finite_floats,
    is_normal,
    rebuilt,
    single_option,
    structure,
    whole_domain_structures,
)
from subdebt import (
    CapitalStructure,
    ClaimValues,
    MCConfig,
    ValidationError,
    junior_debt_vega,
    mc_claim_values,
    value_all_claims,
)


class TestMaturityPayoffs:
    def test_solvent_firm(self):
        assert claim_payoffs(100.0, 60.0, 10.0) == (60.0, 10.0, 30.0)

    def test_junior_residual_claimant(self):
        assert claim_payoffs(65.0, 60.0, 10.0) == (60.0, 5.0, 0.0)

    def test_senior_absorbs_everything(self):
        assert claim_payoffs(40.0, 60.0, 10.0) == (40.0, 0.0, 0.0)

    @given(
        finite_floats(0.0, 1000.0), finite_floats(0.01, 500.0), finite_floats(0.01, 500.0)
    )
    def test_junior_payoff_forms_agree(self, terminal, senior_face, junior_face):
        clamp = claim_payoffs(terminal, senior_face, junior_face)[1]
        max_of_min = max(min(terminal - senior_face, junior_face), 0.0)
        difference = max(terminal - senior_face, 0.0) - max(
            terminal - (senior_face + junior_face), 0.0
        )
        assert clamp == max_of_min
        tolerance = 4.0 * math.ulp(max(terminal, senior_face + junior_face))
        assert abs(clamp - difference) <= tolerance

    @given(
        finite_floats(0.0, 1000.0), finite_floats(0.01, 500.0), finite_floats(0.01, 500.0)
    )
    def test_payoffs_sum_to_terminal_value(self, terminal, senior_face, junior_face):
        senior, junior, equity = claim_payoffs(terminal, senior_face, junior_face)
        total = senior + junior + equity
        assert abs(total - terminal) <= math.ulp(max(terminal, senior_face + junior_face))


def _senior_value(cs):
    return value_all_claims(cs).senior_value


def _junior_value(cs):
    return value_all_claims(cs).junior_value


def _equity_value(cs):
    return value_all_claims(cs).equity_value


def _reference_claims(cs):
    """(senior, junior, equity, total, vega or None) composed from single
    options: a riskless bond less a put at F_S, a call spread between F_S
    and F_S + F_J, and a call at F_S + F_J."""
    call_s, put_s, vega_s = single_option(cs, cs.senior_face)
    call_t, _, vega_t = single_option(cs, cs.total_face)
    senior = cs.senior_face * math.exp(-cs.rate * cs.maturity) - put_s
    junior = max(call_s - call_t, 0.0)
    equity = call_t
    junior_vega = None if vega_s is None else vega_s - vega_t
    return senior, junior, equity, senior + junior + equity, junior_vega


class TestZeroVolatilityLimits:
    def test_senior_default_free(self):
        assert _senior_value(structure(100.0, sigma=0.0)) == pytest.approx(
            60.0 * math.exp(-0.01), rel=1e-15
        )

    def test_senior_certain_default_gets_assets(self):
        assert _senior_value(structure(40.0, sigma=0.0)) == pytest.approx(40.0, rel=1e-15)

    def test_junior_default_free(self):
        assert _junior_value(structure(100.0, sigma=0.0)) == pytest.approx(
            10.0 * math.exp(-0.01), rel=1e-14
        )

    def test_junior_deterministic_residual(self):
        # At sigma = 0 assets grow at the risk-free rate, so the residual
        # above the senior tranche is V e^{r tau} - F_S, worth
        # V - F_S e^{-r tau} today.
        assert _junior_value(structure(65.0, sigma=0.0)) == pytest.approx(
            65.0 - 60.0 * math.exp(-0.01), rel=1e-14
        )

    def test_equity_deterministic(self):
        assert _equity_value(structure(100.0, sigma=0.0)) == pytest.approx(
            100.0 - 70.0 * math.exp(-0.01), rel=1e-15
        )
        assert _equity_value(structure(62.0, sigma=0.0)) == 0.0

    def test_overflowing_discounted_total_face_keeps_finite_limits(self):
        # (F_S + F_J) e^{-r tau} overflows, but every deterministic limit is finite.
        values = value_all_claims(structure(62.0, fs=1.0, fj=1.5e308, sigma=0.0, r=-0.5))
        assert values.senior_value == math.exp(0.5)
        assert values.junior_value == 62.0 - math.exp(0.5)
        assert values.equity_value == 0.0


class TestOutOfFloatRange:
    @pytest.mark.parametrize(
        "cs",
        [
            structure(1e-200, fs=1e200),  # V / F_S underflows to 0
            structure(62.0, fs=1e300, r=-100.0),  # F_S e^{-r tau} overflows
            structure(62.0, fs=1.0, fj=1e300, r=-100.0),  # only F_T e^{-r tau} does
            structure(62.0, sigma=1e200),  # sigma^2 tau / 2 overflows
            structure(62.0, sigma=1e155),  # so does sigma^2 alone
        ],
        ids=[
            "tiny-ratio",
            "huge-senior-face",
            "huge-total-face",
            "huge-half-variance",
            "huge-sigma-squared",
        ],
    )
    def test_undefined_claims_raise_validation_error(self, cs, monkeypatch):
        # A kernel call that raises stores nothing, so each call runs it
        # again and raises again.
        counts = {"kernel": 0}
        count_calls(monkeypatch, counts, "kernel", (claims,), "_claims")
        for function in (value_all_claims, junior_debt_vega) * 3:
            with pytest.raises(ValidationError):
                function(cs)
        assert counts["kernel"] == 6

    @pytest.mark.parametrize(
        "cs,message",
        [
            (
                structure(62.0, fs=1.0, fj=1e300, r=-100.0),
                "discounted total face 1e+300 * 2.6881171418161356e+43 overflows",
            ),
            (
                structure(1e300, fs=1e-300, fj=1e-300, sigma=0.2, tau=10.0, r=0.0, q=1e308),
                "d1 is undefined: ln(asset_value / face) = +inf meets a drift "
                "(r - q + sigma^2 / 2) tau = -inf at asset_value 1e+300, rate 0.0, "
                "dividend_yield 1e+308 and maturity 10.0",
            ),
        ],
        ids=["total-face-overflows", "d1-is-nan"],
    )
    def test_a_nan_claim_is_refused_with_its_cause(self, cs, message):
        # First e^{-r tau} (F_S + F_J) = 2.7e343 overflows.  Then it is a
        # finite 2e-300, but V / F_S = 1e600 and q tau overflow: d1 is
        # (+inf - inf) / (sigma sqrt(tau)).
        with pytest.raises(ValidationError) as excinfo:
            value_all_claims(cs)
        assert str(excinfo.value) == message

    def test_claims_stand_where_only_the_vega_overflows(self, monkeypatch):
        # The vega, about 4e308, leaves the float range; the claims do not.
        # The references are 50-digit mpmath at these exact floats.  The
        # equity, 3.0e-55, is a call whose N(d1) ~ 1e-357 underflows, so the
        # kernel gives 0.0: it is compared at the scale of the total.
        cs = structure(1e308, fs=1e308, fj=5e307, sigma=1e-3, tau=100.0, r=0.0)
        senior, junior, equity = (
            9.9601059381851836625e307,
            3.9894061814816447257e305,
            3.0056993030088406227e-55,
        )
        total = senior + junior + equity
        counts = {"kernel": 0}
        count_calls(monkeypatch, counts, "kernel", (claims,), "_claims")
        for _ in range(3):
            values = value_all_claims(cs)
            assert abs(values.senior_value - senior) <= 1e-12 * senior
            assert abs(values.junior_value - junior) <= 1e-12 * junior
            assert abs(values.equity_value - equity) <= 1e-12 * total
            assert abs(values.total - total) <= 1e-12 * total
            with pytest.raises(ValidationError, match="junior vega overflows at volatility 0.001"):
                junior_debt_vega(cs)
        assert counts["kernel"] == 1

    def test_vega_is_finite_where_its_scale_overflows(self):
        # V e^{-q tau} sqrt(tau) = 1e309 overflows, the vega does not.  The
        # reference is 50-digit mpmath of V sqrt(tau) (phi(d1) at F_S minus
        # phi(d1) at F_S + F_J) at these exact floats.
        vega = junior_debt_vega(structure(1e308, fs=1e300, fj=1e300, sigma=0.2, tau=100.0))
        reference = -1.8459380645236593e285
        assert abs(vega - reference) <= 1e-12 * abs(reference)


class TestWholeDomainContract:
    @settings(derandomize=True, max_examples=300)
    @given(whole_domain_structures())
    @example(structure(1e308, fs=1e300, fj=1e300, sigma=0.2, tau=100.0))
    @example(structure(1e308, fs=1e308, fj=5e307, sigma=1e-3, tau=100.0, r=0.0))
    @example(structure(62.0, sigma=0.0))
    def test_claims_finite_and_vega_finite_none_or_refused(self, cs):
        # Aim 3's contract: finite values, or ValidationError.  The vega is
        # None exactly where sigma sqrt(tau) is 0.
        try:
            values = value_all_claims(cs)
        except ValidationError:
            pass
        else:
            fields = (values.senior_value, values.junior_value, values.equity_value, values.total)
            assert all(math.isfinite(value) for value in fields)
        try:
            vega = junior_debt_vega(cs)
        except ValidationError:
            return
        if cs.volatility * math.sqrt(cs.maturity) == 0.0:
            assert vega is None
        else:
            assert vega is not None and math.isfinite(vega)


class TestPowerOfTwoScale:
    """Scaling V, F_S and F_J by 2^k scales every claim and the junior vega
    by 2^k, bit for bit.

    The thresholds and sigma* are left out: each takes its direct form where
    F_S (F_S + F_J), V^2 and their ratio are normal floats and another form
    elsewhere, and the two forms round differently, so a structure and its
    scaled copy can land on different forms and differ in the last bits."""

    @settings(derandomize=True, max_examples=200)
    @given(
        capital_structures(min_sigma=0.0, with_yield=True), st.sampled_from([-600, -40, 7, 500])
    )
    def test_claims_and_vega_scale_exactly(self, cs, k):
        scaled = rebuilt(
            cs,
            asset_value=math.ldexp(cs.asset_value, k),
            senior_face=math.ldexp(cs.senior_face, k),
            junior_face=math.ldexp(cs.junior_face, k),
        )
        values, scaled_values = value_all_claims(cs), value_all_claims(scaled)
        pairs = [
            (getattr(values, name), getattr(scaled_values, name))
            for name in ("senior_value", "junior_value", "equity_value", "total")
        ]
        vega, scaled_vega = junior_debt_vega(cs), junior_debt_vega(scaled)
        if cs.volatility * math.sqrt(cs.maturity) == 0.0:
            assert vega is None and scaled_vega is None
        else:
            pairs.append((vega, scaled_vega))
        for value, scaled_value in pairs:
            # A subnormal value on either side has lost digits the other keeps.
            if (is_normal(value) and is_normal(scaled_value)) or value == scaled_value == 0.0:
                assert scaled_value.hex() == math.ldexp(value, k).hex(), (value, scaled_value)


class TestClaimBoundsAndIdentities:
    @given(capital_structures(min_sigma=0.0))
    def test_values_sum_to_asset_value(self, cs):
        values = value_all_claims(cs)
        assert abs(values.total - cs.asset_value) <= 1e-10 * cs.asset_value

    @given(capital_structures(min_sigma=0.0, with_yield=True))
    def test_values_sum_to_discounted_asset_value(self, cs):
        values = value_all_claims(cs)
        expected = cs.asset_value * math.exp(-cs.dividend_yield * cs.maturity)
        assert abs(values.total - expected) <= 1e-10 * cs.asset_value

    @given(capital_structures(min_sigma=0.0, with_yield=True))
    def test_components_within_asset_value(self, cs):
        values = value_all_claims(cs)
        for component in (values.senior_value, values.junior_value, values.equity_value):
            assert -1e-12 * cs.asset_value <= component <= cs.asset_value * (1 + 1e-12)

    @given(capital_structures(min_sigma=0.0, with_yield=True))
    # Both calls subnormal: their unclamped difference is -3e-323.
    @example(structure(1.0, fs=72.5, fj=1.0, sigma=0.5, tau=0.05, r=0.0))
    def test_debt_values_bounded_by_discounted_faces(self, cs):
        discount = math.exp(-cs.rate * cs.maturity)
        slack = 1.0 + 1e-12
        assert 0.0 <= _senior_value(cs) <= cs.senior_face * discount * slack
        assert 0.0 <= _junior_value(cs) <= cs.junior_face * discount * slack

    def test_value_all_claims_matches_components(self):
        cs = structure(62.0, sigma=0.262)
        values = value_all_claims(cs)
        senior, junior, equity, _, _ = _reference_claims(cs)
        assert values.senior_value == senior
        assert values.junior_value == _junior_value(cs) == junior
        assert values.equity_value == equity
        assert values.total == pytest.approx(
            values.senior_value + values.junior_value + values.equity_value, rel=1e-15
        )


# sigma = 0 (forward limits), the saturated low-sigma range of the solvent
# sweep in test_03, and the general range.
_KERNEL_SIGMAS = st.one_of(
    st.just(0.0), finite_floats(0.005, 0.06), finite_floats(0.0, 1.5)
)


class TestKernelMatchesSingleOptionFunctions:
    @given(capital_structures(min_sigma=0.0, with_yield=True), _KERNEL_SIGMAS)
    @example(structure(100.0), 0.01)
    @example(structure(100.0), 0.0)
    @example(structure(62.0, q=0.02), 0.262)
    @example(structure(1.0, fs=72.5, fj=1.0, tau=0.05, r=0.0), 0.5)
    def test_claims_and_vega_bit_identical(self, cs, sigma):
        # repr is exact for floats and tells -0.0 from 0.0.
        cs = rebuilt(cs, volatility=sigma)
        senior, junior, equity, total, junior_vega = _reference_claims(cs)
        values = value_all_claims(cs)
        assert repr(values) == repr(ClaimValues(senior, junior, equity, total))
        assert repr(_junior_value(cs)) == repr(junior)
        if junior_vega is None:
            assert junior_debt_vega(cs) is None
        else:
            assert repr(junior_debt_vega(cs)) == repr(junior_vega)


_PRICED = {
    "value_all_claims": value_all_claims,
    "junior_debt_vega": junior_debt_vega,
}


def _exact_outcome(name, cs):
    """``name(cs)`` as float.hex text, or None where it returns None."""
    result = _PRICED[name](cs)
    if result is None:
        return None
    if isinstance(result, ClaimValues):
        return tuple(
            value.hex()
            for value in (
                result.senior_value,
                result.junior_value,
                result.equity_value,
                result.total,
            )
        )
    return result.hex()


class TestPricedOnce:
    @given(
        capital_structures(min_sigma=0.0, with_yield=True),
        _KERNEL_SIGMAS,
        st.lists(st.sampled_from(list(_PRICED)), min_size=1, max_size=8),
    )
    # At sigma = 0, and where sigma sqrt(tau) underflows, the vega is
    # None before and after the claims are priced.
    @example(structure(62.0), 0.0, ["junior_debt_vega", "value_all_claims", "junior_debt_vega"])
    @example(structure(62.0, tau=0.25), 5e-324, ["value_all_claims", "junior_debt_vega"] * 2)
    @example(structure(62.0, q=0.02), 0.262, ["junior_debt_vega", "value_all_claims"])
    def test_any_calls_run_the_kernel_once_with_fresh_bits(self, cs, sigma, calls):
        cs = rebuilt(cs, volatility=sigma)
        # Each function on its own fresh, equal structure.
        fresh = {name: _exact_outcome(name, rebuilt(cs)) for name in calls}
        counts = {"kernel": 0}
        with pytest.MonkeyPatch.context() as monkeypatch:
            count_calls(monkeypatch, counts, "kernel", (claims,), "_claims")
            outcomes = [_exact_outcome(name, cs) for name in calls]
        assert counts["kernel"] == 1
        assert outcomes == [fresh[name] for name in calls]


def _weakly_above(a, b):
    # Plateaus (capped or saturated claims) leave only rounding noise
    # between algebraically equal values, so compare with ulp-scale slack.
    assert a >= b - 1e-12 * (1.0 + abs(b))


class TestMonotonicity:
    @given(capital_structures(min_sigma=0.0), finite_floats(1.0, 500.0))
    def test_junior_nondecreasing_in_asset_value(self, cs, other_value):
        lo, hi = sorted((cs.asset_value, other_value))
        _weakly_above(
            _junior_value(rebuilt(cs, asset_value=hi)),
            _junior_value(rebuilt(cs, asset_value=lo)),
        )

    @given(capital_structures(min_sigma=0.0), finite_floats(0.5, 300.0))
    def test_junior_nondecreasing_in_junior_face(self, cs, other_face):
        lo, hi = sorted((cs.junior_face, other_face))
        _weakly_above(
            _junior_value(rebuilt(cs, junior_face=hi)),
            _junior_value(rebuilt(cs, junior_face=lo)),
        )

    @given(capital_structures(min_sigma=0.0), finite_floats(1.0, 500.0))
    def test_senior_nondecreasing_in_asset_value(self, cs, other_value):
        lo, hi = sorted((cs.asset_value, other_value))
        _weakly_above(
            _senior_value(rebuilt(cs, asset_value=hi)),
            _senior_value(rebuilt(cs, asset_value=lo)),
        )

    @given(capital_structures(min_sigma=0.0), finite_floats(0.0, 1.5))
    def test_senior_nonincreasing_in_volatility(self, cs, other_sigma):
        lo, hi = sorted((cs.volatility, other_sigma))
        _weakly_above(
            _senior_value(rebuilt(cs, volatility=lo)),
            _senior_value(rebuilt(cs, volatility=hi)),
        )

    @given(capital_structures(min_sigma=0.0), finite_floats(0.0, 1.5))
    def test_equity_nondecreasing_in_volatility(self, cs, other_sigma):
        lo, hi = sorted((cs.volatility, other_sigma))
        _weakly_above(
            _equity_value(rebuilt(cs, volatility=hi)),
            _equity_value(rebuilt(cs, volatility=lo)),
        )


class TestLimits:
    @given(distressed_structures())
    def test_junior_approaches_senior_strike_call_for_huge_junior_face(self, cs):
        huge = rebuilt(cs, junior_face=1e9)
        call = single_option(huge, huge.senior_face)[0]
        assert _junior_value(huge) == pytest.approx(call, abs=1e-9)

    @given(distressed_structures())
    def test_junior_vanishes_at_extreme_volatility(self, cs):
        assert _junior_value(rebuilt(cs, volatility=30.0)) <= 1e-9


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("sigma", [0.10, 0.262, 0.50])
    def test_each_claim_within_three_standard_errors(self, sigma):
        cs = structure(62.0, sigma=sigma)
        closed = value_all_claims(cs)
        estimates = mc_claim_values(cs, MCConfig(200_000, seed=11))
        for closed_value, estimate in zip(
            (closed.senior_value, closed.junior_value, closed.equity_value), estimates
        ):
            assert abs(closed_value - estimate.mean) <= 3.0 * estimate.std_error

    def test_agreement_with_dividend_yield(self):
        cs = structure(62.0, sigma=0.3, q=0.02)
        closed = value_all_claims(cs)
        estimates = mc_claim_values(cs, MCConfig(200_000, seed=11))
        for closed_value, estimate in zip(
            (closed.senior_value, closed.junior_value, closed.equity_value), estimates
        ):
            assert abs(closed_value - estimate.mean) <= 3.0 * estimate.std_error


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"asset_value": 0.0},
            {"senior_face": 0.0},
            {"senior_face": -1.0},
            {"junior_face": 0.0},
            {"volatility": -0.2},
            {"maturity": 0.0},
            {"rate": math.inf},
            {"dividend_yield": -0.01},
            {"asset_value": math.inf},
            {"asset_value": -math.inf},
            {"senior_face": math.inf},
            {"junior_face": math.inf},
            {"volatility": math.inf},
            {"maturity": math.inf},
            {"dividend_yield": math.inf},
            {"senior_face": 1e308, "junior_face": 1e308},
            {"junior_face": -10.0},
            {"rate": math.nan},
            {"dividend_yield": math.nan},
        ],
    )
    def test_rejects_bad_structures(self, kwargs):
        base = dict(
            asset_value=62.0,
            senior_face=60.0,
            junior_face=10.0,
            volatility=0.1,
            maturity=1.0,
            rate=0.01,
        )
        base.update(kwargs)
        with pytest.raises(ValidationError):
            CapitalStructure(**base)
