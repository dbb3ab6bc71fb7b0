"""Shared hypothesis strategies for model inputs, the textbook
single-option prices, a structure builder with defaults, a record
rebuilder, a normal-float test, a sweep CSV reader, a strict JSON
reader, the whole Monte-Carlo stream of terminal values, the claim
payoffs at maturity, the environment of a child process, and the CPU
target of numpy's ``exp`` loop."""

import csv
import inspect
import json
import math
import os
import sys

import hypothesis
from hypothesis import strategies as st

import subdebt
from subdebt import CapitalStructure, OptionInputs, norm_cdf

hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")


def finite_floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def option_inputs(draw, min_sigma=0.01, max_sigma=1.5, with_yield=False):
    return OptionInputs(
        asset_value=draw(finite_floats(1.0, 500.0)),
        strike=draw(finite_floats(1.0, 500.0)),
        volatility=draw(finite_floats(min_sigma, max_sigma)),
        maturity=draw(finite_floats(0.05, 5.0)),
        rate=draw(finite_floats(-0.02, 0.10)),
        dividend_yield=draw(finite_floats(0.0, 0.05)) if with_yield else 0.0,
    )


@st.composite
def capital_structures(draw, min_sigma=0.01, max_sigma=1.5, with_yield=False):
    return CapitalStructure(
        asset_value=draw(finite_floats(1.0, 500.0)),
        senior_face=draw(finite_floats(0.5, 300.0)),
        junior_face=draw(finite_floats(0.5, 300.0)),
        volatility=draw(finite_floats(min_sigma, max_sigma)),
        maturity=draw(finite_floats(0.05, 5.0)),
        rate=draw(finite_floats(-0.02, 0.10)),
        dividend_yield=draw(finite_floats(0.0, 0.05)) if with_yield else 0.0,
    )


@st.composite
def distressed_structures(draw, min_sigma=0.05, max_sigma=1.2, with_yield=False):
    """Structures in the zone where the junior tranche carries real optionality."""
    asset_value = draw(finite_floats(40.0, 110.0))
    return CapitalStructure(
        asset_value=asset_value,
        senior_face=asset_value * draw(finite_floats(0.6, 1.1)),
        junior_face=asset_value * draw(finite_floats(0.05, 0.5)),
        volatility=draw(finite_floats(min_sigma, max_sigma)),
        maturity=draw(finite_floats(0.25, 3.0)),
        rate=draw(finite_floats(0.0, 0.05)),
        dividend_yield=draw(finite_floats(0.0, 0.05)) if with_yield else 0.0,
    )


@st.composite
def near_hump_structures(draw):
    """Structures at the hump threshold H or within 1e-15 to 1e-9 of it.

    F_S is log-uniform on [1, 1e3] and F_J on [0.1, 10^2.5]; V is H
    itself or H (1 +- delta) with delta log-uniform on [1e-15, 1e-9]."""
    senior_face = 10.0 ** draw(finite_floats(0.0, 3.0))
    junior_face = 10.0 ** draw(finite_floats(-1.0, 2.5))
    maturity = draw(finite_floats(0.05, 30.0))
    rate = draw(finite_floats(-0.02, 0.10))
    dividend_yield = draw(st.one_of(st.just(0.0), finite_floats(0.0, 0.05)))
    sigma = draw(finite_floats(0.01, 1.0))
    cs = CapitalStructure(1.0, senior_face, junior_face, sigma, maturity, rate, dividend_yield)
    boundary = subdebt.hump_threshold(cs)
    side = draw(st.sampled_from([-1.0, 0.0, 1.0]))
    delta = 10.0 ** draw(finite_floats(-15.0, -9.0))
    return rebuilt(cs, asset_value=boundary * (1.0 + side * delta))


def log_uniform(lowest):
    """Floats 10^x, x uniform on [lowest, 308]."""
    return finite_floats(lowest, 308.0).map(lambda exponent: 10.0**exponent)


def _whole_domain_market(draw):
    """(sigma, tau, r, q) as ``whole_domain_structures`` draws them."""
    sigma = draw(st.just(0.0) | log_uniform(-320.0))
    magnitudes = log_uniform(-323.0)
    maturity = draw(magnitudes)
    rate = draw(st.just(0.0) | magnitudes | magnitudes.map(lambda magnitude: -magnitude))
    dividend_yield = draw(st.just(0.0) | magnitudes)
    return sigma, maturity, rate, dividend_yield


@st.composite
def whole_domain_structures(draw):
    """Structures from the whole domain the constructor accepts.

    V, F_S, F_J and tau are log-uniform over [1e-323, 1e308]; sigma is 0
    or log-uniform over [1e-320, 1e308]; the rate is 0 or of either sign
    with a log-uniform magnitude, and q is 0 or log-uniform, both over
    [1e-323, 1e308].  F_S + F_J must be finite, as the constructor requires.
    """
    magnitudes = log_uniform(-323.0)
    asset_value, senior_face, junior_face = draw(magnitudes), draw(magnitudes), draw(magnitudes)
    hypothesis.assume(math.isfinite(senior_face + junior_face))
    return CapitalStructure(asset_value, senior_face, junior_face, *_whole_domain_market(draw))


@st.composite
def whole_domain_option_inputs(draw):
    """``OptionInputs`` drawn as ``whole_domain_structures`` draws a
    structure, with one log-uniform strike in place of the two faces."""
    magnitudes = log_uniform(-323.0)
    asset_value, strike = draw(magnitudes), draw(magnitudes)
    return OptionInputs(asset_value, strike, *_whole_domain_market(draw))


_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def single_option(cs, strike):
    """(call, put, vega or None) of one European option on the firm's
    assets at ``strike``: the textbook single-option formulas, written
    without sharing work between strikes.  The vega is None where
    sigma sqrt(tau) is 0, and the prices take their forward limits.
    ``cs`` is a ``CapitalStructure`` or ``OptionInputs``; only the
    fields the two share are read."""
    forward = cs.asset_value * math.exp(-cs.dividend_yield * cs.maturity)
    discounted_strike = strike * math.exp(-cs.rate * cs.maturity)
    sigma_sqrt_t = cs.volatility * math.sqrt(cs.maturity)
    if sigma_sqrt_t == 0.0:
        return max(forward - discounted_strike, 0.0), max(discounted_strike - forward, 0.0), None
    drift = (cs.rate - cs.dividend_yield + 0.5 * cs.volatility * cs.volatility) * cs.maturity
    d1 = (math.log(cs.asset_value / strike) + drift) / sigma_sqrt_t
    d2 = d1 - sigma_sqrt_t
    call = max(forward * norm_cdf(d1) - discounted_strike * norm_cdf(d2), 0.0)
    put = max(discounted_strike * norm_cdf(-d2) - forward * norm_cdf(-d1), 0.0)
    vega = forward * math.sqrt(cs.maturity) * (_INV_SQRT_2PI * math.exp(-0.5 * d1 * d1))
    return call, put, vega


def structure(v, fs=60.0, fj=10.0, sigma=0.10, tau=1.0, r=0.01, q=0.0):
    """A ``CapitalStructure`` at asset value ``v``, the rest defaulted."""
    return CapitalStructure(v, fs, fj, sigma, tau, r, q)


def rebuilt(record, **changes):
    """``record`` built again through its constructor, with ``changes`` applied."""
    parameters = inspect.signature(type(record)).parameters
    fields = {name: getattr(record, name) for name in parameters}
    return type(record)(**{**fields, **changes})


def count_calls(monkeypatch, counts, key, modules, name):
    """Patch ``name`` in each of ``modules`` to add 1 to ``counts[key]`` per call."""
    original = getattr(modules[0], name)

    def counted(*args):
        counts[key] += 1
        return original(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)


def is_normal(value):
    """Whether ``value`` is a normal float: neither 0, subnormal, inf nor NaN."""
    return sys.float_info.min <= abs(value) < math.inf


def read_sweep_csv(stream):
    """A sweep table back from its CSV: ``float`` on each cell, empty as NaN."""
    header, *records = csv.reader(stream)
    columns = zip(*([float(cell) if cell else math.nan for cell in r] for r in records))
    return dict(zip(header, columns))


def strict_json(text):
    """``json.loads``, refusing ``NaN``, ``Infinity`` and ``-Infinity``,
    which Python's encoder writes but JSON does not have."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def terminal_values(cs, mc):
    """The whole stream of ``mc``'s terminal asset values, drawn in one call.

    V_T = V exp((r - q - sigma^2/2) tau + sigma sqrt(tau) Z).  Element 2i
    uses Z_i and element 2i+1 uses -Z_i.  The stream goes through
    ``oracle._draw``, the draw function that ``mc_claim_values`` runs on
    each chunk, with the generator and ``ndtri`` the oracle resolves, so
    these are the values its chunks hold.  Memory grows with the path count.
    """
    import numpy as np

    import subdebt.oracle as oracle

    values = np.empty((mc.path_count // 2, 2))
    raw = oracle._philox()(key=mc.seed).random_raw(len(values))
    oracle._draw(cs, raw, values[:, 0], values[:, 1], oracle._ndtri())
    return values.ravel()


def claim_payoffs(terminal, senior_face, junior_face):
    """Split terminal asset values across the three claims at maturity.

    senior = min(V_T, F_S); junior = clamp(V_T - F_S, 0, F_J);
    equity = max(V_T - F_S - F_J, 0).  The single-branch clamp form of
    the junior payoff equals both rearrangements
    max(min(V_T - F_S, F_J), 0) and
    max(V_T - F_S, 0) - max(V_T - F_S - F_J, 0).  These are the operations,
    in their order, that ``oracle._claim_moments`` runs in place, so it
    is the reference for the Monte-Carlo estimates.
    """
    import numpy as np

    senior = np.minimum(terminal, senior_face)
    excess = terminal - senior_face
    junior = np.clip(excess, 0.0, junior_face)
    equity = np.maximum(excess - junior_face, 0.0)
    return senior, junior, equity


# The directory that holds the imported package: ``src`` in a checkout,
# ``site-packages`` where the package is installed.
_PACKAGE_PARENT = os.path.dirname(os.path.dirname(subdebt.__file__))


def child_env(**variables):
    """This environment with ``variables`` set and the directory that holds
    the imported ``subdebt`` first on the module path, so that a child
    process runs the package this process runs."""
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_PACKAGE_PARENT, env.get("PYTHONPATH")]))
    return env


def exp_loop():
    """The CPU target of numpy's float64 ``exp`` loop, or None before numpy 2.

    The Monte-Carlo estimates differ in their last bits between loops."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    return opt_func_info(func_name="^exp$", signature="float64")["exp"]["dd"]["current"]
