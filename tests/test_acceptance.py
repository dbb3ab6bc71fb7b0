"""Acceptance checks: the end-to-end behaviors the package must deliver.

Each test prints one `ACCEPTANCE n [PASS|FAIL]` line (visible with -s)
and enforces both its numerical tolerance and a runtime budget.
"""

import math
import time

import numpy as np
import pytest

from conftest import rebuilt, structure
from subdebt import (
    CapitalStructure,
    GridSpec,
    MCConfig,
    argmax_sigma_numeric,
    classify_regime,
    finite_diff_vega,
    hump_threshold,
    junior_debt_vega,
    mc_claim_values,
    optimal_volatility,
    risk_shift_threshold,
    sweep_sigma,
    sweep_structure,
    value_all_claims,
)

SEARCH_GRID = GridSpec(lower=0.01, upper=1.5, tolerance=1e-6)


class _Budget:
    """Times a check and prints its pass/fail line on exit."""

    def __init__(self, number, label, limit_seconds):
        self.number = number
        self.label = label
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        self.ok = False
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        passed = exc_type is None and self.ok
        print(
            f"ACCEPTANCE {self.number:2d} [{'PASS' if passed else 'FAIL'}] "
            f"{self.label} ({elapsed:.2f}s)"
        )
        if passed:
            assert elapsed < self.limit, f"runtime {elapsed:.2f}s over {self.limit}s budget"
        return False


def test_01_interior_maximizer_and_search_agree():
    with _Budget(1, "peak volatility 26.2% and search agreement", 1.0) as budget:
        cs = structure(62.0)
        closed = optimal_volatility(cs)
        assert closed == pytest.approx(0.262, abs=0.0005)
        numeric = argmax_sigma_numeric(cs, SEARCH_GRID)
        assert numeric is not None
        assert abs(numeric - closed) < 1e-4
        budget.ok = True


def test_02_shift_threshold_matches_reported_value():
    with _Budget(2, "risk-shift threshold 63.8 at 10% volatility", 1.0) as budget:
        value = risk_shift_threshold(structure(62.0), 0.10)
        assert value == pytest.approx(63.8, abs=0.05)
        budget.ok = True


def _junior_value_reference(mpmath, cs, sigmas):
    """The call spread C(F_S) - C(F_S + F_J) to 50 digits at each sigma (q = 0).

    Returns the values rounded to float64 and the decrements between
    neighbours, each rounded once from the 50-digit result.
    """
    with mpmath.workdps(50):
        v, tau, r = map(mpmath.mpf, (cs.asset_value, cs.maturity, cs.rate))
        discount = mpmath.exp(-r * tau)

        def call(strike, sigma):
            sigma_sqrt_t = sigma * mpmath.sqrt(tau)
            x1 = (mpmath.log(v / strike) + (r + sigma * sigma / 2) * tau) / sigma_sqrt_t
            x2 = x1 - sigma_sqrt_t
            return v * mpmath.ncdf(x1) - strike * discount * mpmath.ncdf(x2)

        senior, total = mpmath.mpf(cs.senior_face), mpmath.mpf(cs.total_face)
        values = [call(senior, s) - call(total, s) for s in map(mpmath.mpf, sigmas)]
        decrements = [float(a - b) for a, b in zip(values, values[1:])]
        return np.array([float(x) for x in values]), np.array(decrements)


def test_03_junior_value_strictly_decreasing_when_solvent():
    mpmath = pytest.importorskip("mpmath")
    with _Budget(3, "strict decrease of junior value at V=100", 1.0) as budget:
        cs = structure(100.0)
        table = sweep_sigma(cs, 0.01, 0.8, 200)
        sigmas = list(table["sigma"])
        junior = list(table["junior_value"])
        diffs = np.diff(junior)
        # At the small-sigma end the true decrements (below 2.5e-16, and
        # below 1e-45 at the first steps) are under one ulp of the junior
        # value (1.8e-15 at 9.9), so even correctly rounded values tie.
        # Every step must fall strictly unless its correctly rounded
        # 50-digit values tie too.
        rounded, decrements = _junior_value_reference(mpmath, cs, sigmas)
        forced_tie = np.diff(rounded) == 0.0
        unresolved = ~((diffs < 0.0) | ((diffs == 0.0) & forced_tie))
        failures = [
            f"step {i} (sigma {sigmas[i]!r} -> {sigmas[i + 1]!r}): "
            f"{'tie not forced by float64' if diffs[i] == 0.0 else 'no decrease'}, "
            f"junior value {junior[i]!r} -> {junior[i + 1]!r}, "
            f"50-digit decrement {decrements[i]:.3e}"
            for i in np.flatnonzero(unresolved)
        ]
        assert not failures, "; ".join(failures[:5])
        # The derivative keeps its sign where the value cannot show it.
        vegas = list(table["junior_vega"])
        nonnegative = [
            f"point {i} (sigma {sigmas[i]!r}): junior vega {vega!r}"
            for i, vega in enumerate(vegas)
            if not vega < 0.0
        ]
        assert not nonnegative, "; ".join(nonnegative[:5])
        budget.ok = True


def test_04_junior_value_unimodal_when_distressed():
    with _Budget(4, "unimodal junior value at V=62 peaking nearest 26.2%", 1.0) as budget:
        table = sweep_sigma(structure(62.0), 0.01, 0.8, 200)
        junior = np.asarray(table["junior_value"])
        sigmas = np.asarray(table["sigma"])
        peak = int(np.argmax(junior))
        nearest = int(np.argmin(np.abs(sigmas - 0.262)))
        assert peak == nearest
        diffs = np.diff(junior)
        assert (diffs[:peak] > 0.0).all()
        assert (diffs[peak:] < 0.0).all()
        budget.ok = True


def test_05_chosen_risk_ordered_by_junior_share():
    with _Budget(5, "chosen risk falls as the junior share rises", 5.0) as budget:
        tables = sweep_structure(
            total_face=100.0,
            junior_proportions=[0.10, 0.20, 0.30],
            v_lower=50.0,
            v_upper=70.0,
            steps=201,
            initial_sigma=0.10,
            maturity=1.0,
            rate=0.01,
        )
        chosen = [list(table["chosen_risk"]) for _, table in tables]
        for smaller_share, bigger_share in zip(chosen, chosen[1:]):
            assert all(a >= b for a, b in zip(smaller_share, bigger_share))
        maximizers = [list(table["optimal_volatility"]) for _, table in tables]
        for smaller_share, bigger_share in zip(maximizers, maximizers[1:]):
            for a, b in zip(smaller_share, bigger_share):
                if not math.isnan(a) and not math.isnan(b) and a > 0.0 and b > 0.0:
                    assert a > b
        budget.ok = True


def test_06_claim_values_sum_to_asset_value():
    with _Budget(6, "claim values sum to the asset value", 5.0) as budget:
        rng = np.random.default_rng(20260810)
        for _ in range(10_000):
            cs = CapitalStructure(
                asset_value=rng.uniform(1.0, 500.0),
                senior_face=rng.uniform(1.0, 300.0),
                junior_face=rng.uniform(1.0, 300.0),
                volatility=rng.uniform(0.0, 1.2),
                maturity=rng.uniform(0.05, 5.0),
                rate=rng.uniform(-0.01, 0.08),
            )
            values = value_all_claims(cs)
            assert abs(values.total - cs.asset_value) < 1e-10 * cs.asset_value
        budget.ok = True


def test_07_monte_carlo_confirms_closed_forms():
    with _Budget(7, "closed forms within 3 SE of million-path estimates", 30.0) as budget:
        for sigma in (0.10, 0.262, 0.50):
            cs = structure(62.0, sigma=sigma)
            closed = value_all_claims(cs)
            estimates = mc_claim_values(cs, MCConfig(1_000_000, seed=1))
            for closed_value, estimate in zip(
                (closed.senior_value, closed.junior_value, closed.equity_value),
                estimates,
            ):
                assert abs(closed_value - estimate.mean) <= 3.0 * estimate.std_error
        budget.ok = True


def test_08_analytic_vega_agrees_with_finite_differences():
    with _Budget(8, "junior vega matches central finite differences", 5.0) as budget:
        rng = np.random.default_rng(2026)
        structures = []
        for _ in range(1000):
            cs = CapitalStructure(
                asset_value=rng.uniform(40.0, 110.0),
                senior_face=rng.uniform(20.0, 100.0),
                junior_face=rng.uniform(5.0, 60.0),
                volatility=rng.uniform(0.02, 1.0),
                maturity=rng.uniform(0.25, 3.0),
                rate=rng.uniform(0.0, 0.05),
            )
            structures.append(cs)
            analytic = junior_debt_vega(cs)
            numeric = finite_diff_vega(cs, 1e-5)
            # 1e-6 relative wherever the vega is resolvable; at or below
            # 0.1 ppm of the asset value both sides must agree that the
            # derivative is numerically zero at that scale.
            assert abs(numeric - analytic) <= max(
                1e-6 * abs(analytic), 1e-7 * cs.asset_value
            )
        stationary = 0
        for cs in structures:
            best = optimal_volatility(cs)
            if best is not None and best > 0.0:
                stationary += 1
                at_peak = junior_debt_vega(rebuilt(cs, volatility=best))
                assert abs(at_peak) < 1e-8 * cs.asset_value
        assert stationary >= 100
        budget.ok = True


def test_09_shift_flag_is_the_threshold_comparison():
    with _Budget(9, "shift flag iff V below threshold iff peak above sigma0", 5.0) as budget:
        initial_sigma = 0.10
        threshold = risk_shift_threshold(structure(62.0), initial_sigma)
        boundary = hump_threshold(structure(62.0))
        assert threshold < boundary
        for v in np.arange(63.0, 65.0001, 0.05):
            cs = structure(float(v))
            profile = classify_regime(cs, initial_sigma)
            assert profile.shifts_above_initial == (v < threshold)
            if profile.optimal_volatility is not None:
                assert profile.shifts_above_initial == (
                    profile.optimal_volatility > initial_sigma
                )
                # The vega sign at sigma0 tells the same story.
                vega_at_initial = junior_debt_vega(rebuilt(cs, volatility=initial_sigma))
                if abs(v - threshold) > 1e-6:
                    assert profile.shifts_above_initial == (vega_at_initial > 0.0)
        budget.ok = True


def test_10_dividend_formulas_reduce_to_base_at_zero_yield():
    with _Budget(10, "zero-yield threshold formulas are bit-identical", 1.0) as budget:
        rng = np.random.default_rng(77)
        for _ in range(10_000):
            fs = rng.uniform(0.5, 300.0)
            fj = rng.uniform(0.5, 300.0)
            sigma = rng.uniform(0.0, 1.5)
            tau = rng.uniform(0.05, 5.0)
            r = rng.uniform(-0.02, 0.10)
            v = rng.uniform(1.0, 500.0)
            cs = CapitalStructure(v, fs, fj, 0.1, tau, r, 0.0)
            assert risk_shift_threshold(cs, sigma) == math.exp(
                -(r + 0.5 * sigma * sigma) * tau
            ) * math.sqrt(fs * (fs + fj))
            assert hump_threshold(cs) == math.exp(
                -r * tau
            ) * math.sqrt(fs * (fs + fj))
            radicand = math.log(fs * (fs + fj) / (v * v)) / tau - 2.0 * r
            if radicand > 1e-12:
                expected = math.sqrt(radicand)
            elif radicand >= -1e-12:
                expected = 0.0
            else:
                expected = None
            assert optimal_volatility(cs) == expected
        budget.ok = True
