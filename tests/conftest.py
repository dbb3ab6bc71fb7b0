"""Shared hypothesis strategies for model inputs, and a sweep CSV reader."""

import csv
import math

import hypothesis
from hypothesis import strategies as st

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
