"""Tests for the Monte-Carlo, argmax, and finite-difference oracles."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import distressed_structures
import subdebt.oracle as oracle
from subdebt import (
    CapitalStructure,
    GridSpec,
    MCConfig,
    ValidationError,
    argmax_sigma_numeric,
    finite_diff_vega,
    golden_section_max,
    junior_debt_value,
    junior_debt_vega,
    mc_claim_values,
    optimal_volatility,
    simulate_terminal_values,
    value_all_claims,
)

SEARCH_GRID = GridSpec(lower=0.01, upper=1.5, tolerance=1e-6)
SRC = Path(__file__).resolve().parents[1] / "src"

# Prints the std-error reprs of 200k-path estimates for three structures.
_STD_ERROR_PROBE = """\
from subdebt import CapitalStructure, MCConfig, mc_claim_values
for v, q in ((62.0, 0.0), (100.0, 0.02), (64.0, 0.0)):
    cs = CapitalStructure(v, 60.0, 10.0, 0.2, 1.0, 0.01, q)
    for estimate in mc_claim_values(cs, MCConfig(200_000, 5)):
        print(repr(estimate.std_error))
"""

# Runs the frozen-sequence structure at 200k paths by the default ndtri
# route, or with the compiled-ufuncs route broken as a changed scipy layout
# would break it, and prints the results and the scipy.special left loaded.
_NDTRI_ROUTE_PROBE = """\
import hashlib, importlib, json, sys
if sys.argv[1] == "fallback":
    import_module = importlib.import_module

    def broken(name, package=None):
        if name == "scipy.special._ufuncs":
            raise ImportError("scipy.special._ufuncs moved")
        return import_module(name, package)

    importlib.import_module = broken
from subdebt import CapitalStructure, MCConfig, mc_claim_values, simulate_terminal_values
cs = CapitalStructure(62.0, 60.0, 10.0, 0.262, 1.0, 0.01, 0.0)
mc = MCConfig(200_000, seed=42)
terminal = simulate_terminal_values(cs, mc)
special = sys.modules.get("scipy.special")
print(json.dumps({
    "head": terminal[:8].tolist(),
    "terminal": hashlib.sha256(terminal.tobytes()).hexdigest(),
    "estimates": [[e.mean.hex(), e.std_error.hex()] for e in mc_claim_values(cs, mc)],
    "special": None if special is None else getattr(special, "__file__", "stub"),
}))
"""


def _bounded(f, limit=1000):
    """f, raising once it has been called more than ``limit`` times."""
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise RuntimeError(f"more than {limit} evaluations: the search does not end")
        return f(x)

    return counted


def _cs(v, fs=60.0, fj=10.0, sigma=0.262, tau=1.0, r=0.01, q=0.0):
    return CapitalStructure(v, fs, fj, sigma, tau, r, q)


def _run_probe(probe, *args, **env_vars):
    """stdout of ``probe`` run with ``args`` in a fresh interpreter."""
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


class TestSimulation:
    # Philox(key=42) terminals for the distressed structure at sigma=0.262,
    # frozen to pin the documented generator contract.
    FROZEN = [
        76.92538701628185,
        47.5979083387598,
        48.04193731271746,
        76.21440193577192,
        81.04848862440122,
        45.17650584569007,
        56.416077367280025,
        64.90149069187468,
    ]

    def test_fixed_seed_reproduces_frozen_sequence(self):
        terminal = simulate_terminal_values(_cs(62.0), MCConfig(8, seed=42))
        assert terminal.tolist() == self.FROZEN

    def test_seed_changes_the_draws(self):
        a = simulate_terminal_values(_cs(62.0), MCConfig(8, seed=42))
        b = simulate_terminal_values(_cs(62.0), MCConfig(8, seed=43))
        assert not np.array_equal(a, b)

    def test_draw_depends_only_on_path_index(self):
        short = simulate_terminal_values(_cs(62.0), MCConfig(8, seed=42))
        long = simulate_terminal_values(_cs(62.0), MCConfig(16, seed=42))
        assert np.array_equal(long[:8], short)

    def test_antithetic_pairs_mirror_the_shock(self):
        cs = _cs(62.0)
        terminal = simulate_terminal_values(cs, MCConfig(1000, seed=7))
        drift = (cs.rate - 0.5 * cs.volatility**2) * cs.maturity
        z = (np.log(terminal / cs.asset_value) - drift) / (
            cs.volatility * math.sqrt(cs.maturity)
        )
        assert np.allclose(z[1::2], -z[0::2], atol=1e-12)

    def test_zero_volatility_is_deterministic_drift(self):
        cs = _cs(62.0, sigma=0.0, q=0.002)
        terminal = simulate_terminal_values(cs, MCConfig(64, seed=5))
        expected = 62.0 * math.exp(0.01 - 0.002)
        assert (terminal == expected).all()

    def test_discounted_terminal_mean_is_martingale(self):
        cs = _cs(62.0, q=0.015)
        terminal = simulate_terminal_values(cs, MCConfig(400_000, seed=9))
        discounted = math.exp(-cs.rate * cs.maturity) * terminal
        units = 0.5 * (discounted[0::2] + discounted[1::2])
        std_error = units.std(ddof=1) / math.sqrt(units.size)
        expected = cs.asset_value * math.exp(-cs.dividend_yield * cs.maturity)
        assert abs(units.mean() - expected) <= 3.0 * std_error

    def test_top_raw_value_maps_to_one(self, monkeypatch):
        # raw >> 11 = 2**53 - 1: k + 0.5 rounds half to even up to 2**53, so
        # u = 1.0 and ndtri(u) = inf, the one value outside the open interval.
        class TopRaw:
            def __init__(self, key):
                pass

            def random_raw(self, size):
                return np.full(size, 2**64 - 1, dtype=np.uint64)

        ndtri = oracle._ndtri()
        uniforms = []

        def recording_ndtri(u):
            uniforms.extend(u.tolist())
            return ndtri(u)

        monkeypatch.setattr(np.random, "Philox", TopRaw)
        monkeypatch.setattr(oracle, "_ndtri", lambda: recording_ndtri)
        cs = _cs(62.0)
        assert simulate_terminal_values(cs, MCConfig(2, seed=1)).tolist() == [math.inf, 0.0]
        assert uniforms == [1.0]
        with pytest.raises(ValidationError, match="leave the float range"):
            mc_claim_values(cs, MCConfig(2, seed=1))

    def test_ndtri_fallback_route_gives_the_same_bits(self):
        default, fallback = (
            json.loads(_run_probe(_NDTRI_ROUTE_PROBE, route)) for route in ("default", "fallback")
        )
        # The compiled-ufuncs route leaves no scipy.special, stub or real,
        # behind; the fallback leaves the real package.
        assert default.pop("special") is None
        assert fallback.pop("special").endswith("__init__.py")
        assert default["head"] == self.FROZEN
        assert fallback == default


class TestMCClaimValues:
    def test_zero_volatility_reproduces_deterministic_limits(self):
        cs = _cs(62.0, sigma=0.0)
        closed = value_all_claims(cs)
        estimates = mc_claim_values(cs, MCConfig(100, seed=1))
        for closed_value, estimate in zip(
            (closed.senior_value, closed.junior_value, closed.equity_value), estimates
        ):
            assert estimate.mean == pytest.approx(closed_value, rel=1e-13, abs=1e-13)
            # A constant sample leaves only pairwise-summation noise.
            assert estimate.std_error <= 1e-12

    def test_means_sum_to_discounted_terminal_mean(self):
        cs = _cs(62.0)
        mc = MCConfig(50_000, seed=3)
        estimates = mc_claim_values(cs, mc)
        discounted_mean = float(
            math.exp(-cs.rate * cs.maturity)
            * simulate_terminal_values(cs, mc).mean()
        )
        total = sum(estimate.mean for estimate in estimates)
        assert total == pytest.approx(discounted_mean, rel=1e-12)

    def test_estimates_within_three_standard_errors(self):
        cs = _cs(62.0)
        closed = value_all_claims(cs)
        for estimate, closed_value in zip(
            mc_claim_values(cs, MCConfig(1_000_000, seed=1)),
            (closed.senior_value, closed.junior_value, closed.equity_value),
        ):
            assert abs(estimate.mean - closed_value) <= 3.0 * estimate.std_error
            assert estimate.path_count == 1_000_000

    @pytest.mark.parametrize("rate", [800.0, -800.0], ids=["values-overflow", "discount-overflows"])
    def test_out_of_float_range_is_validation_error(self, rate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                mc_claim_values(_cs(62.0, r=rate), MCConfig(1000, seed=1))

    def test_standard_error_shrinks_with_path_count(self):
        cs = _cs(62.0)
        coarse = mc_claim_values(cs, MCConfig(10_000, seed=21))[1]
        fine = mc_claim_values(cs, MCConfig(1_000_000, seed=21))[1]
        ratio = coarse.std_error / fine.std_error
        assert 10.0 / 1.5 <= ratio <= 10.0 * 1.5

    def test_oracle_agreement_over_standard_grid(self):
        # 3-SE agreement cell by cell at one million paths; when a payoff
        # sample is degenerate (no default/exercise events sampled), the
        # rule-of-three bound on an unobserved event applies instead.
        paths = 1_000_000
        failures = []
        cells = 0
        for v in (40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0):
            for sigma in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
                cells += 1
                cs = _cs(v, sigma=sigma)
                closed = value_all_claims(cs)
                estimates = mc_claim_values(cs, MCConfig(paths, seed=1))
                discount = math.exp(-cs.rate * cs.maturity)
                bounds = (
                    cs.senior_face * discount,
                    cs.junior_face * discount,
                    cs.asset_value,
                )
                for closed_value, estimate, bound in zip(
                    (closed.senior_value, closed.junior_value, closed.equity_value),
                    estimates,
                    bounds,
                ):
                    diff = abs(closed_value - estimate.mean)
                    ok = diff <= 3.0 * estimate.std_error + 1e-9
                    if not ok and estimate.std_error < 1e-12 * bound:
                        ok = diff <= 7.0 * bound / paths
                    if not ok:
                        failures.append((v, sigma))
                        break
        assert len(failures) <= 0.01 * cells, failures


def _chunk_cases(*path_counts):
    """(chunk, paths) cases for chunk sizes 1, 3 and 7.

    Each id ends in ``-True``, the antithetic flag that named these cases when
    the sampling scheme was a parameter, so the case names stay stable.
    """
    return [
        pytest.param(chunk, paths, id=f"{chunk}-{paths}-True")
        for paths in path_counts
        for chunk in (1, 3, 7)
    ]


class TestStreaming:
    """Chunk boundaries change neither the draws nor, beyond rounding, the estimates."""

    @pytest.mark.parametrize("chunk, paths", _chunk_cases(2, 34, 1002))
    def test_terminal_values_do_not_depend_on_chunk_size(self, monkeypatch, chunk, paths):
        cs = _cs(62.0, sigma=0.3)
        mc = MCConfig(paths, seed=5)
        expected = simulate_terminal_values(cs, mc)
        monkeypatch.setattr(oracle, "_CHUNK_DRAWS", chunk)
        assert simulate_terminal_values(cs, mc).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk, paths", _chunk_cases(34, 1002))
    def test_estimates_match_numpy_over_the_joined_units(self, monkeypatch, chunk, paths):
        cs = _cs(62.0, sigma=0.3)
        mc = MCConfig(paths, seed=11)
        discount = math.exp(-cs.rate * cs.maturity)
        terminal = simulate_terminal_values(cs, mc)
        monkeypatch.setattr(oracle, "_CHUNK_DRAWS", chunk)
        estimates = mc_claim_values(cs, mc)
        for payoff, estimate in zip(
            oracle.claim_payoffs(terminal, cs.senior_face, cs.junior_face), estimates
        ):
            discounted = discount * payoff
            units = 0.5 * (discounted[0::2] + discounted[1::2])
            std_error = units.std(ddof=1) / math.sqrt(units.size)
            assert std_error > 0.0
            assert estimate.mean == pytest.approx(units.mean(), rel=1e-14, abs=0.0)
            assert estimate.std_error == pytest.approx(std_error, rel=1e-14, abs=0.0)
            assert estimate.path_count == paths

    def test_standard_errors_do_not_depend_on_blas_threads(self):
        # A threaded BLAS dot product splits its sum, so its last bits would
        # follow OPENBLAS_NUM_THREADS.  Each run needs a fresh process.
        outputs = [
            _run_probe(_STD_ERROR_PROBE, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")
        ]
        assert len(outputs[0].split()) == 9
        assert outputs[0] == outputs[1]

    def test_single_pair_has_zero_standard_error(self):
        for estimate in mc_claim_values(_cs(62.0, sigma=0.3), MCConfig(2, seed=1)):
            assert estimate.std_error == 0.0

    def test_traced_peak_does_not_grow_with_path_count(self):
        cs = _cs(62.0, sigma=0.3)
        mc_claim_values(cs, MCConfig(2, seed=1))  # imports outside the trace

        def traced_peak(paths):
            tracemalloc.start()
            try:
                mc_claim_values(cs, MCConfig(paths, seed=1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = traced_peak(200_000)
        large = traced_peak(2_000_000)
        assert large <= 1.5 * small
        assert large <= 16 * 2**20


class TestArgmaxSearch:
    def test_synthetic_parabola(self):
        best = golden_section_max(lambda s: -((s - 0.3) ** 2), 0.01, 1.0, 1e-6)
        assert best == pytest.approx(0.3, abs=1e-6)

    def test_distressed_peak_matches_closed_form(self):
        numeric = argmax_sigma_numeric(_cs(62.0), SEARCH_GRID)
        assert numeric == pytest.approx(0.262, abs=5e-4)
        assert abs(numeric - optimal_volatility(_cs(62.0))) < 1e-4

    def test_absent_for_solvent_firm(self):
        assert argmax_sigma_numeric(_cs(100.0), SEARCH_GRID) is None

    def test_agrees_with_closed_form_across_asset_values(self):
        # At V = 76 and 77 the junior value is flat at float resolution at
        # low sigma, and a rounding bump on the coarse grid is no peak.
        for v in range(60, 100):
            cs = _cs(float(v), sigma=0.2)
            closed = optimal_volatility(cs)
            numeric = argmax_sigma_numeric(cs, SEARCH_GRID)
            if closed is None:
                assert numeric is None, v
            else:
                assert abs(numeric - closed) < 1e-4, v

    def test_respects_grid_tolerance(self):
        loose = argmax_sigma_numeric(_cs(62.0), GridSpec(0.01, 1.5, 1e-2))
        tight = argmax_sigma_numeric(_cs(62.0), GridSpec(0.01, 1.5, 1e-7))
        assert abs(tight - optimal_volatility(_cs(62.0))) < abs(
            loose - optimal_volatility(_cs(62.0))
        ) + 1e-7

    def test_rejects_nonpositive_lower_bound(self):
        with pytest.raises(ValidationError):
            argmax_sigma_numeric(_cs(62.0), GridSpec(0.0, 1.5, 1e-6))

    def test_tolerance_below_float_spacing_ends(self, monkeypatch):
        # A search that stops narrowing must stop; the bound turns a hang into a failure.
        monkeypatch.setattr(oracle, "junior_debt_value", _bounded(junior_debt_value))
        numeric = argmax_sigma_numeric(_cs(62.0), GridSpec(0.01, 1.5, 1e-300))
        assert abs(numeric - optimal_volatility(_cs(62.0))) < 1e-4

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, math.nan, math.inf])
    def test_golden_section_rejects_bad_tolerance(self, tolerance):
        with pytest.raises(ValidationError):
            golden_section_max(_bounded(lambda s: -((s - 1.7) ** 2)), 0.0, 2.0, tolerance)


class TestFiniteDifference:
    def test_matches_analytic_vega(self):
        cs = _cs(62.0, sigma=0.10)
        assert finite_diff_vega(cs, 1e-5) == pytest.approx(
            junior_debt_vega(cs), rel=1e-6
        )

    def test_vanishes_at_the_maximizer(self):
        cs = _cs(62.0)
        best = optimal_volatility(cs)
        assert abs(finite_diff_vega(replace(cs, volatility=best), 1e-5)) < 1e-6 * 62.0

    @given(distressed_structures(min_sigma=0.1))
    @settings(max_examples=50)
    def test_sign_matches_analytic_vega(self, cs):
        analytic = junior_debt_vega(cs)
        numeric = finite_diff_vega(cs, 1e-5)
        if abs(analytic) > 1e-7 * cs.asset_value:
            assert math.copysign(1.0, numeric) == math.copysign(1.0, analytic)

    def test_rejects_bump_at_least_sigma(self):
        with pytest.raises(ValidationError):
            finite_diff_vega(_cs(62.0, sigma=0.10), 0.10)
        with pytest.raises(ValidationError):
            finite_diff_vega(_cs(62.0), -1e-5)
        with pytest.raises(ValidationError):
            finite_diff_vega(_cs(62.0), math.nan)
        with pytest.raises(ValidationError):
            finite_diff_vega(_cs(62.0), math.inf)


class TestConfigValidation:
    def test_rejects_tiny_path_count(self):
        with pytest.raises(ValidationError):
            MCConfig(1, seed=0)

    def test_rejects_odd_path_count_with_antithetic(self):
        with pytest.raises(ValidationError):
            MCConfig(101, seed=0)
        MCConfig(102, seed=0)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValidationError):
            MCConfig(100, seed=-1)
        with pytest.raises(ValidationError):
            MCConfig(100, seed=2**64)
        MCConfig(100, seed=2**64 - 1)

    @pytest.mark.parametrize(
        "path_count, seed",
        [(4, 1.5), (4.0, 1), (True, 1), (4, True), (4, False), (4, "1"), (4, None)],
    )
    def test_rejects_non_int_path_count_or_seed(self, path_count, seed):
        with pytest.raises(ValidationError):
            MCConfig(path_count, seed)

    def test_grid_spec_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(0.5, 0.5, 1e-6)
        with pytest.raises(ValidationError):
            GridSpec(0.01, 1.5, 0.0)
        with pytest.raises(ValidationError):
            GridSpec(0.01, math.inf, 1e-6)
        with pytest.raises(ValidationError):
            GridSpec(math.nan, 1.5, 1e-6)
        with pytest.raises(ValidationError):
            GridSpec(0.01, 1.5, math.inf)
        with pytest.raises(ValidationError):
            GridSpec(0.0, 1.5, 1e-6)
        with pytest.raises(ValidationError):
            GridSpec(-1.0, 1.5, 1e-6)
