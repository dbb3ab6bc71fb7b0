"""The package's seven record classes: signature, checks, equality, hash,
immutability, repr, and pickling and copying.

Every case here also holds for the frozen dataclasses that the records
replaced, so these pin what the change kept.
"""

import copy
import inspect
import math
import pickle
import re

import pytest

from conftest import rebuilt
from subdebt import (
    CapitalStructure,
    ClaimValues,
    GridSpec,
    MCConfig,
    MCEstimate,
    Regime,
    RiskProfile,
    Scenario,
    ValidationError,
    value_all_claims,
)

_CS_FIELDS = {
    "asset_value": 62.0,
    "senior_face": 60.0,
    "junior_face": 10.0,
    "volatility": 0.2,
    "maturity": 1.0,
    "rate": 0.01,
    "dividend_yield": 0.0,
}
_CS_REPR = (
    "CapitalStructure(asset_value=62.0, senior_face=60.0, junior_face=10.0, "
    "volatility=0.2, maturity=1.0, rate=0.01, dividend_yield=0.0)"
)

# Per class: the keyword arguments of a valid instance, one field with
# another valid value, and the instance's repr.
_CASES = {
    "CapitalStructure": (CapitalStructure, _CS_FIELDS, ("asset_value", 63.0), _CS_REPR),
    "ClaimValues": (
        ClaimValues,
        {"senior_value": 59.5, "junior_value": 2.25, "equity_value": 0.25, "total": 62.0},
        ("total", 62.5),
        "ClaimValues(senior_value=59.5, junior_value=2.25, equity_value=0.25, total=62.0)",
    ),
    "RiskProfile": (
        RiskProfile,
        {
            "optimal_volatility": None,
            "shift_threshold": 60.5,
            "hump_threshold": 64.25,
            "regime": Regime.DECREASING_IN_RISK,
            "shifts_above_initial": False,
            "initial_sigma": 0.1,
            "chosen_risk": 0.1,
        },
        ("regime", Regime.HUMP_SHAPED),
        "RiskProfile(optimal_volatility=None, shift_threshold=60.5, hump_threshold=64.25, "
        "regime=<Regime.DECREASING_IN_RISK: 'decreasing-in-risk'>, "
        "shifts_above_initial=False, initial_sigma=0.1, chosen_risk=0.1)",
    ),
    "MCConfig": (
        MCConfig,
        {"path_count": 2000, "seed": 7},
        ("seed", 8),
        "MCConfig(path_count=2000, seed=7)",
    ),
    "Scenario": (
        Scenario,
        {
            "name": "distressed",
            "structure": CapitalStructure(**_CS_FIELDS),
            "initial_sigma": 0.1,
            "mc": MCConfig(2000, 7),
        },
        ("name", "solvent"),
        f"Scenario(name='distressed', structure={_CS_REPR}, initial_sigma=0.1, "
        "mc=MCConfig(path_count=2000, seed=7))",
    ),
    "MCEstimate": (
        MCEstimate,
        {"mean": 2.5, "std_error": 0.01, "path_count": 2000},
        ("mean", 2.75),
        "MCEstimate(mean=2.5, std_error=0.01, path_count=2000)",
    ),
    "GridSpec": (
        GridSpec,
        {"lower": 0.01, "upper": 1.5, "tolerance": 1e-6},
        ("tolerance", 1e-5),
        "GridSpec(lower=0.01, upper=1.5, tolerance=1e-06)",
    ),
}
_NAMES = list(_CASES)


def _record(name):
    cls, fields, _, _ = _CASES[name]
    return cls(**fields)


@pytest.mark.parametrize("name", _NAMES)
def test_signature_lists_the_fields_in_order(name):
    cls, fields, _, _ = _CASES[name]
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == list(fields)
    defaults = {key: p.default for key, p in parameters.items() if p.default is not p.empty}
    assert defaults == ({"dividend_yield": 0.0} if cls is CapitalStructure else {})


@pytest.mark.parametrize("name", _NAMES)
def test_keyword_and_positional_construction_agree(name):
    cls, fields, _, _ = _CASES[name]
    by_keyword = cls(**fields)
    assert cls(*fields.values()) == by_keyword
    assert {key: getattr(by_keyword, key) for key in fields} == fields


def test_capital_structure_defaults_and_total_face():
    cs = CapitalStructure(62.0, 60.0, 10.0, 0.2, 1.0, 0.01)
    assert cs.dividend_yield == 0.0
    assert cs.total_face == 70.0
    assert cs == CapitalStructure(**_CS_FIELDS)


@pytest.mark.parametrize("name", _NAMES)
def test_repr_is_the_dataclass_repr(name):
    assert repr(_record(name)) == _CASES[name][3]


@pytest.mark.parametrize("name", _NAMES)
def test_equality_and_hash_are_by_field(name):
    cls, fields, (key, other), _ = _CASES[name]
    record = _record(name)
    same = cls(**fields)
    assert record is not same
    assert record == same and not record != same
    assert hash(record) == hash(same)
    changed = rebuilt(record, **{key: other})
    assert record != changed and not record == changed
    assert record != tuple(fields.values())
    assert record != object()


@pytest.mark.parametrize("name", _NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    record = _record(name)
    fields = _CASES[name][1]
    for key, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, key, value)
        with pytest.raises(AttributeError):
            delattr(record, key)
        assert getattr(record, key) is value
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0


@pytest.mark.parametrize("name", _NAMES)
def test_pickle_and_copy_give_an_equal_record(name):
    record = _record(name)
    for twin in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == repr(record)


def test_a_priced_structure_is_indistinguishable_from_an_unpriced_twin():
    priced, twin = CapitalStructure(**_CS_FIELDS), CapitalStructure(**_CS_FIELDS)
    value_all_claims(priced)  # stores the kernel's result on priced only
    assert priced == twin and hash(priced) == hash(twin)
    assert repr(priced) == repr(twin) == _CS_REPR
    assert pickle.dumps(priced) == pickle.dumps(twin)
    assert list(inspect.signature(type(priced)).parameters) == list(_CS_FIELDS)
    for clone in (copy.copy, copy.deepcopy, rebuilt):
        assert clone(priced) == clone(twin) == twin
        assert repr(clone(priced)) == _CS_REPR
        assert pickle.dumps(clone(priced)) == pickle.dumps(twin)


def test_the_stored_result_cannot_be_set_or_deleted():
    cs = CapitalStructure(**_CS_FIELDS)
    for _ in ("unpriced", "priced"):
        with pytest.raises(AttributeError):
            cs._priced = (0.0, 0.0, 0.0, None)
        with pytest.raises(AttributeError):
            del cs._priced
        values = value_all_claims(cs)
    assert values == value_all_claims(CapitalStructure(**_CS_FIELDS))


# Per checked class: changes to its valid instance and the message they raise.
_INVALID = [
    ("CapitalStructure", {"asset_value": 0.0}, "asset_value must be finite and > 0"),
    ("CapitalStructure", {"senior_face": -1.0}, "senior_face must be finite and > 0"),
    ("CapitalStructure", {"junior_face": math.nan}, "junior_face must be finite and > 0"),
    ("CapitalStructure", {"volatility": -0.1}, "volatility must be finite and >= 0"),
    ("CapitalStructure", {"maturity": 0.0}, "maturity must be finite and > 0"),
    ("CapitalStructure", {"rate": math.inf}, "rate must be finite"),
    ("CapitalStructure", {"dividend_yield": -0.01}, "dividend_yield must be finite and >= 0"),
    (
        "CapitalStructure",
        {"senior_face": 1e308, "junior_face": 1e308},
        "total_face must be finite",
    ),
    ("MCConfig", {"path_count": 2000.0}, "path_count must be an int"),
    ("MCConfig", {"seed": True}, "seed must be an int"),
    ("MCConfig", {"path_count": 0}, "path_count must be even and >= 2"),
    ("MCConfig", {"path_count": 2001}, "path_count must be even and >= 2"),
    ("MCConfig", {"seed": -1}, "seed must be a 64-bit unsigned integer"),
    ("MCConfig", {"seed": 2**64}, "seed must be a 64-bit unsigned integer"),
    ("Scenario", {"initial_sigma": 0.0}, "initial_sigma must be finite and > 0"),
    ("GridSpec", {"lower": 0.0}, "grid.lower must be finite and > 0"),
    ("GridSpec", {"upper": 0.01}, "search interval must be finite with lower < upper"),
    ("GridSpec", {"tolerance": math.nan}, "tolerance must be finite and > 0"),
    ("MCConfig", {"path_count": 2**32 + 2}, "path_count must be <= 2**32"),
]
# NaN, +inf and -inf in every CapitalStructure field, appended so that the
# ids of the cases above keep their indices.
_CS_DOMAINS = {
    "asset_value": "finite and > 0",
    "senior_face": "finite and > 0",
    "junior_face": "finite and > 0",
    "volatility": "finite and >= 0",
    "maturity": "finite and > 0",
    "rate": "finite",
    "dividend_yield": "finite and >= 0",
}
_INVALID += [
    ("CapitalStructure", {key: value}, f"{key} must be {domain}, got {value}")
    for key, domain in _CS_DOMAINS.items()
    for value in (math.nan, math.inf, -math.inf)
]
_ROUTES = {
    "keyword": lambda cls, fields, changes: cls(**{**fields, **changes}),
    "positional": lambda cls, fields, changes: cls(*{**fields, **changes}.values()),
    "rebuilt": lambda cls, fields, changes: rebuilt(cls(**fields), **changes),
}


@pytest.mark.parametrize("route", _ROUTES)
@pytest.mark.parametrize(
    "name,changes,message",
    _INVALID,
    ids=[f"{name}-{'-'.join(changes)}-{i}" for i, (name, changes, _) in enumerate(_INVALID)],
)
def test_every_route_runs_the_checks(route, name, changes, message):
    cls, fields, _, _ = _CASES[name]
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        _ROUTES[route](cls, fields, changes)


@pytest.mark.parametrize("first", list(_CS_FIELDS))
def test_capital_structure_checks_run_in_field_order(first):
    fields = list(_CS_FIELDS)
    later = fields[fields.index(first) + 1 :]
    for bad in (-math.inf, math.nan, math.inf):
        kwargs = {**_CS_FIELDS, first: bad, **dict.fromkeys(later, -math.inf)}
        with pytest.raises(ValidationError, match=f"^{first} must"):
            CapitalStructure(**kwargs)
    # A str fails its own field's comparison with TypeError, before any
    # later field is checked.
    with pytest.raises(TypeError):
        CapitalStructure(**{**_CS_FIELDS, first: "1.0", **dict.fromkeys(later, -math.inf)})


@pytest.mark.parametrize(
    "cls,args,message",
    [
        (MCConfig, (2001, 1.5), "seed must be an int"),
        (MCConfig, (2001, 2**64), "path_count must be even"),
        (GridSpec, (0.0, -1.0, math.nan), "grid.lower must"),
        (GridSpec, (1.0, 0.5, math.nan), "search interval must"),
    ],
)
def test_checks_run_in_order(cls, args, message):
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        cls(*args)
