"""Shared hypothesis strategies for model inputs, a record rebuilder, a
sweep CSV reader, the whole Monte-Carlo stream of terminal values, the
claim payoffs at maturity, the environment of a child process, and the
CPU target of numpy's ``exp`` loop."""

import csv
import inspect
import math
import os

import hypothesis
from hypothesis import strategies as st

import subdebt
from subdebt import CapitalStructure, OptionInputs

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


def read_sweep_csv(stream):
    """A sweep table back from its CSV: ``float`` on each cell, empty as NaN."""
    header, *records = csv.reader(stream)
    columns = zip(*([float(cell) if cell else math.nan for cell in r] for r in records))
    return dict(zip(header, columns))


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
