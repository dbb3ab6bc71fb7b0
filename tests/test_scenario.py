"""Tests for scenario-file parsing."""

from pathlib import Path

import pytest

from subdebt import ScenarioParseError, ValidationError, load_scenario

BUNDLED = Path(__file__).resolve().parent.parent / "scenarios"

FULL = """\
# comment line
[scenario]
name = example
asset_value = 62        ; inline comment
senior_face = 60
junior_face = 10
sigma = 0.10
initial_sigma = 0.15
maturity = 1.0
rate = 0.01
dividend_yield = 0.005

[monte_carlo]
paths = 50000
seed = 9
antithetic = true
"""

MINIMAL = """\
[scenario]
asset_value = 62
senior_face = 60
junior_face = 10
sigma = 0.10
maturity = 1.0
rate = 0.01
"""


def _write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parses_all_keys(tmp_path):
    scenario = load_scenario(_write(tmp_path, FULL))
    cs = scenario.structure
    assert scenario.name == "example"
    assert (cs.asset_value, cs.senior_face, cs.junior_face) == (62.0, 60.0, 10.0)
    assert cs.volatility == 0.10
    assert cs.dividend_yield == 0.005
    assert scenario.initial_sigma == 0.15
    assert scenario.mc.path_count == 50000
    assert scenario.mc.seed == 9


def test_defaults(tmp_path):
    path = _write(tmp_path, MINIMAL, name="base_case.ini")
    scenario = load_scenario(path)
    assert scenario.name == "base_case"
    assert scenario.structure.dividend_yield == 0.0
    assert scenario.initial_sigma == scenario.structure.volatility
    assert scenario.mc.path_count == 1_000_000
    assert scenario.mc.seed == 1


def test_missing_file():
    with pytest.raises(ScenarioParseError):
        load_scenario("/nonexistent/scenario.ini")


def test_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_bytes(b"\xff\xfe[scenario]\n")
    with pytest.raises(ScenarioParseError, match="cannot read scenario file"):
        load_scenario(path)


def test_missing_section(tmp_path):
    with pytest.raises(ScenarioParseError, match="scenario"):
        load_scenario(_write(tmp_path, "[other]\nx = 1\n"))


def test_missing_required_key(tmp_path):
    text = MINIMAL.replace("rate = 0.01\n", "")
    with pytest.raises(ScenarioParseError, match="rate"):
        load_scenario(_write(tmp_path, text))


def test_malformed_number(tmp_path):
    text = MINIMAL.replace("sigma = 0.10", "sigma = ten percent")
    with pytest.raises(ScenarioParseError, match="sigma"):
        load_scenario(_write(tmp_path, text))


def test_malformed_syntax(tmp_path):
    with pytest.raises(ScenarioParseError):
        load_scenario(_write(tmp_path, "not an ini file at all\n"))


def test_malformed_mc_values(tmp_path):
    text = FULL.replace("paths = 50000", "paths = many")
    with pytest.raises(ScenarioParseError, match="paths"):
        load_scenario(_write(tmp_path, text))
    text = FULL.replace("antithetic = true", "antithetic = maybe")
    with pytest.raises(ScenarioParseError, match="antithetic"):
        load_scenario(_write(tmp_path, text))


def test_invalid_parameters_are_validation_errors(tmp_path):
    for text in (
        MINIMAL.replace("senior_face = 60", "senior_face = -60"),
        MINIMAL.replace("asset_value = 62", "asset_value = inf"),
        MINIMAL + "initial_sigma = inf\n",
    ):
        with pytest.raises(ValidationError):
            load_scenario(_write(tmp_path, text))


def test_odd_path_count_with_antithetic_rejected(tmp_path):
    text = FULL.replace("paths = 50000", "paths = 50001")
    with pytest.raises(ValidationError):
        load_scenario(_write(tmp_path, text))


def test_antithetic_false_is_rejected(tmp_path):
    # Antithetic pairing is the only sampling scheme; false must not be ignored.
    text = FULL.replace("antithetic = true", "antithetic = false")
    with pytest.raises(ScenarioParseError, match="antithetic"):
        load_scenario(_write(tmp_path, text))


def test_antithetic_key_may_be_absent(tmp_path):
    scenario = load_scenario(_write(tmp_path, FULL.replace("antithetic = true\n", "")))
    assert (scenario.mc.path_count, scenario.mc.seed) == (50000, 9)


def test_zero_sigma_requires_explicit_initial_sigma(tmp_path):
    text = MINIMAL.replace("sigma = 0.10", "sigma = 0.0")
    with pytest.raises(ValidationError):
        load_scenario(_write(tmp_path, text))
    scenario = load_scenario(_write(tmp_path, text + "initial_sigma = 0.10\n"))
    assert scenario.structure.volatility == 0.0
    assert scenario.initial_sigma == 0.10


def test_numbers_parsed_at_full_precision(tmp_path):
    text = MINIMAL.replace("sigma = 0.10", "sigma = 0.2618607152309726")
    scenario = load_scenario(_write(tmp_path, text))
    assert scenario.structure.volatility == 0.2618607152309726


@pytest.mark.parametrize(
    "name,asset_value,senior_face",
    [("distressed", 62.0, 60.0), ("solvent", 100.0, 60.0), ("debt_mix", 62.0, 90.0)],
)
def test_bundled_scenarios_load(name, asset_value, senior_face):
    scenario = load_scenario(BUNDLED / f"{name}.ini")
    assert scenario.structure.asset_value == asset_value
    assert scenario.structure.senior_face == senior_face
    assert scenario.structure.maturity == 1.0
    assert scenario.structure.rate == 0.01
    assert scenario.initial_sigma == 0.10
    assert scenario.mc.path_count == 1_000_000
    assert scenario.mc.seed == 1
