"""Tests for scenario-file parsing."""

import configparser
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdebt import ScenarioParseError, ValidationError, load_scenario
from subdebt import scenario as scenario_module

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


def test_missing_section_comes_before_unknown_sections(tmp_path):
    path = _write(tmp_path, "[montecarlo]\npaths = 2\n")
    with pytest.raises(ScenarioParseError) as excinfo:
        load_scenario(path)
    assert str(excinfo.value) == f"{path}: missing [scenario] section"


@pytest.mark.parametrize(
    "old,new,section,keys",
    [
        ("dividend_yield = 0.005", "dividend_yeild = 0.005", "scenario", "dividend_yeild"),
        ("paths = 50000", "path = 50000", "monte_carlo", "path"),
        ("seed = 9", "seed = 9\nsede = 9\nx = 1", "monte_carlo", "sede, x"),
    ],
    ids=["scenario", "monte_carlo", "two-keys"],
)
def test_unknown_key_is_refused(tmp_path, old, new, section, keys):
    path = _write(tmp_path, FULL.replace(old, new))
    with pytest.raises(ScenarioParseError) as excinfo:
        load_scenario(path)
    assert str(excinfo.value) == f"{path}: unknown keys in [{section}]: {keys}"


def test_unknown_section_is_refused(tmp_path):
    path = _write(tmp_path, FULL.replace("[monte_carlo]", "[montecarlo]"))
    with pytest.raises(ScenarioParseError) as excinfo:
        load_scenario(path)
    assert str(excinfo.value) == f"{path}: unknown section [montecarlo]"


def test_default_section_keys_are_checked_once(tmp_path):
    # A known key in [DEFAULT] applies to every section and is not "unknown"
    # in either; an unknown one is named under [DEFAULT].
    mc = "[monte_carlo]\npaths = 50000\n"
    text = "[DEFAULT]\nseed = 5\ndividend_yield = 0.02\n" + MINIMAL + mc
    scenario = load_scenario(_write(tmp_path, text))
    assert (scenario.mc.path_count, scenario.mc.seed) == (50000, 5)
    assert scenario.structure.dividend_yield == 0.02
    path = _write(tmp_path, "[DEFAULT]\nseed = 5\ndividend_yeild = 0.02\n" + MINIMAL + mc)
    with pytest.raises(ScenarioParseError) as excinfo:
        load_scenario(path)
    assert str(excinfo.value) == f"{path}: unknown keys in [DEFAULT]: dividend_yeild"


def test_a_section_that_overrides_a_default_with_a_foreign_key_is_refused(tmp_path):
    # [scenario] does not read seed: its own value would be ignored.
    path = _write(tmp_path, "[DEFAULT]\nseed = 5\n" + MINIMAL + "seed = 6\n")
    with pytest.raises(ScenarioParseError) as excinfo:
        load_scenario(path)
    assert str(excinfo.value) == f"{path}: unknown keys in [scenario]: seed"


def test_monte_carlo_defaults_apply_without_the_section(tmp_path):
    scenario = load_scenario(_write(tmp_path, "[DEFAULT]\npaths = 2000\nseed = 5\n" + MINIMAL))
    assert (scenario.mc.path_count, scenario.mc.seed) == (2000, 5)
    text = "[DEFAULT]\nantithetic = false\n" + MINIMAL
    with pytest.raises(ScenarioParseError, match="antithetic"):
        load_scenario(_write(tmp_path, text))


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


def test_bundled_scenarios_are_in_the_documented_form():
    for path in sorted(BUNDLED.glob("*.ini")):
        assert scenario_module._read_plain(path.read_text(encoding="utf-8")) is not None, path


def test_boolean_words_are_configparsers():
    assert scenario_module._BOOLEANS == configparser.ConfigParser.BOOLEAN_STATES


# A line grammar around the bundled scenarios, for texts the plain reader
# must read as configparser does or decline.
_BUNDLED_LINES = [
    path.read_text(encoding="utf-8").split("\n") for path in sorted(BUNDLED.glob("*.ini"))
]
_HEADERS = [
    "[scenario]", "[monte_carlo]", "[ scenario ]", "[Scenario]", "[scenario]x", "[DEFAULT]",
    "[montecarlo]", "[seed = 2]",
]
_KEYS = [
    "name", "sigma", "initial_sigma", "dividend_yield", "rate", "paths", "seed", "antithetic",
    "Sigma", "SEED", "Initial_Sigma", "initial sigma", "sig ma", "sigma:", "a:b", "colour",
]
_VALUES = [
    "0.1", "0.25", "62", "2000", "7", "true", "Off", "", "5%", "%(x)s", "a ;b", "a;b",
    "0.1 # note", "0.1#note", "a =b", "x:y", "-800",
]
_INDENTS = [" ", "\t", "\x0c"]
_INSIDE = ["\x1c", "\u2028"]
_SEPARATORS = ["=", " = ", " =", "= ", ":", " : "]


@st.composite
def _grammar_line(draw):
    kind = draw(st.sampled_from(["header", "key", "key", "comment", "blank"]))
    if kind == "header":
        return draw(st.sampled_from(_HEADERS))
    if kind == "comment":
        return draw(st.sampled_from(["# note", "; note", "#", "  # indented note"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    key, sep, value = (draw(st.sampled_from(pool)) for pool in (_KEYS, _SEPARATORS, _VALUES))
    return key + sep + value


@st.composite
def _scenario_texts(draw):
    """A bundled scenario with a few of its lines mutated, dropped, added,
    duplicated, indented or joined to the next, and perhaps a BOM."""
    lines = list(draw(st.sampled_from(_BUNDLED_LINES)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(
            st.sampled_from(
                ["replace", "insert", "header", "drop", "duplicate", "indent", "case", "inside",
                 "join", "comment"]
            )
        )
        if edit == "replace":
            lines[i] = draw(_grammar_line())
        elif edit == "insert":
            lines.insert(i, draw(_grammar_line()))
        elif edit == "header":
            lines.insert(i, draw(st.sampled_from(_HEADERS)))
        elif edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "indent":
            lines[i] = draw(st.sampled_from(_INDENTS)) + lines[i]
        elif edit == "case":
            lines[i] = lines[i].upper() if draw(st.booleans()) else lines[i].title()
        elif edit == "inside":
            j = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:j] + draw(st.sampled_from(_INSIDE)) + lines[i][j:]
        elif edit == "join" and i + 1 < len(lines):
            lines[i : i + 2] = [lines[i] + draw(st.sampled_from(_INSIDE)) + lines[i + 1]]
        elif edit == "comment":
            lines[i] += draw(st.sampled_from([" # note", "# note", " ; note", ";note"]))
        if not lines:
            lines = [""]
    bom = "\ufeff" if draw(st.integers(0, 9)) == 0 else ""
    return bom + "\n".join(lines)


def _outcome(path):
    """``load_scenario(path)``'s scenario, or the type and message it raises."""
    try:
        return load_scenario(path)
    except Exception as exc:  # the comparison wants any exception, not only ours
        return type(exc), str(exc)


def test_plain_reader_reads_as_configparser_does(tmp_path):
    # Either route must give every text the same scenario or the same error;
    # both routes must be reached, with valid scenarios among the plain ones.
    path = tmp_path / "scenario.ini"
    routes = {"plain": 0, "configparser": 0, "loaded": 0}

    @settings(derandomize=True, max_examples=400)
    @given(_scenario_texts())
    def check(text):
        path.write_text(text, encoding="utf-8")
        plain = scenario_module._read_plain(text) is not None
        routes["plain" if plain else "configparser"] += 1
        outcome = _outcome(path)
        with mock.patch.object(scenario_module, "_read_plain", return_value=None):
            assert _outcome(path) == outcome
        routes["loaded"] += plain and not isinstance(outcome, tuple)

    check()
    assert min(routes.values()) >= 40, routes


@pytest.mark.parametrize(
    "old,new",
    [
        ("name = distressed", "name = a ;b"),
        ("name = distressed", "name = a;b"),
        ("name = distressed", "name = a\x1cb"),
        ("name = distressed", "name = a\u2028b"),
        ("sigma = 0.10\n", "sigma = 0.10\x1c"),
        ("initial_sigma = 0.10\nmaturity", "initial_sigma = 0.10\x0cmaturity"),
        ("[scenario]", "[scenario]x"),
        ("rate = 0.01", "Rate = 0.01"),
    ],
    ids=["inline-comment", "semicolon", "file-separator", "line-separator",
         "file-separator-at-end", "form-feed-join", "header-suffix", "key-case"],
)
def test_plain_reader_examples(tmp_path, old, new):
    # configparser's lines end at "\n" alone, so "\x1c", "\u2028" and "\x0c"
    # stay inside a line, where str.splitlines would end it.
    text = (BUNDLED / "distressed.ini").read_text(encoding="utf-8")
    assert old in text
    path = _write(tmp_path, text.replace(old, new, 1))
    outcome = _outcome(path)
    with mock.patch.object(scenario_module, "_read_plain", return_value=None):
        assert _outcome(path) == outcome
