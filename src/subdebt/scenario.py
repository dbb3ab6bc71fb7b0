"""Scenario files: INI-style ``key = value`` sections.

One scenario per file.  The ``[scenario]`` section holds the capital
structure (required keys: asset_value, senior_face, junior_face, sigma,
maturity, rate; optional: dividend_yield, initial_sigma, name) and the
optional ``[monte_carlo]`` section overrides the simulation defaults
(paths, seed).  Its ``antithetic`` key is still read so that existing
files load, but antithetic pairing is the only sampling scheme, so only
``true`` is accepted.  Any other key or section is refused.  Numbers are
parsed as decimal text at full double precision.  ``initial_sigma``
defaults to ``sigma``; scenarios priced at sigma = 0 must therefore
state it explicitly.  Files are read as UTF-8.

A file in the documented form (blank lines, full-line ``#`` or ``;``
comments, ``[scenario]`` and ``[monte_carlo]`` at most once each, and
unindented ``key = value`` lines with distinct keys, no ``:`` in a key
and no ``#`` or ``;`` in a line) is read without importing
``configparser``; any other text goes to it.  One path checks and
converts the sections either route gives, so both give a file the same
``Scenario`` or the same error.

``MCConfig``, the Monte-Carlo engine's configuration, is defined here
rather than in ``oracle``, so that every command checks the file's
``[monte_carlo]`` values without loading the engine.
"""

from __future__ import annotations

from pathlib import Path

from .claims import CapitalStructure
from .errors import ScenarioParseError, ValidationError, check
from .record import Record, slot_setters

DEFAULT_PATHS = 1_000_000
DEFAULT_SEED = 1

_REQUIRED_KEYS = ("asset_value", "senior_face", "junior_face", "sigma", "maturity", "rate")
_KNOWN = {
    "scenario": {*_REQUIRED_KEYS, "dividend_yield", "initial_sigma", "name"},
    "monte_carlo": {"paths", "seed", "antithetic"},
}
_KNOWN["DEFAULT"] = _KNOWN["scenario"] | _KNOWN["monte_carlo"]


class MCConfig(Record):
    """Monte-Carlo run configuration.

    path_count counts both halves of each antithetic pair, so it must be
    an even int of at least 2 and at most 2**32; the seed is an int in
    [0, 2**64).  Neither may be a float or a bool: Philox would silently
    truncate a float key.  The upper bound keeps Monte-Carlo memory
    bounded: ``mc_claim_values`` keeps each chunk's moments until the
    merge, and 2**32 paths (about a minute of draws) are 32,768 chunks.
    """

    __slots__ = ("path_count", "seed")

    def __init__(self, path_count: int, seed: int) -> None:
        for name, value in (("path_count", path_count), ("seed", seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"{name} must be an int, got {value!r}")
        if path_count < 2 or path_count % 2:
            raise ValidationError(f"path_count must be even and >= 2, got {path_count}")
        if path_count > 2**32:
            raise ValidationError(f"path_count must be <= 2**32, got {path_count}")
        if not 0 <= seed < 2**64:
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed}")
        _set_path_count(self, path_count)
        _set_seed(self, seed)


_set_path_count, _set_seed = slot_setters(MCConfig)


class Scenario(Record):
    """A named capital structure plus the pre-shift volatility and MC config."""

    __slots__ = ("name", "structure", "initial_sigma", "mc")

    def __init__(
        self, name: str, structure: CapitalStructure, initial_sigma: float, mc: MCConfig
    ) -> None:
        check("initial_sigma", initial_sigma, "finite and > 0")
        _set_name(self, name)
        _set_structure(self, structure)
        _set_initial_sigma(self, initial_sigma)
        _set_mc(self, mc)


_set_name, _set_structure, _set_initial_sigma, _set_mc = slot_setters(Scenario)


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario file.

    Raises:
        ScenarioParseError: If the file is unreadable or malformed, lacks
            a required key, or holds an unknown key or section.
        ValidationError: If the parsed parameters violate their domains.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read scenario file {path}: {exc}") from exc
    sections = _read_plain(text)
    if sections is None:
        sections = _read_ini(text, path)

    if "scenario" not in sections:
        raise ScenarioParseError(f"{path}: missing [scenario] section")
    section = sections["scenario"]
    missing = [key for key in _REQUIRED_KEYS if key not in section]
    if missing:
        raise ScenarioParseError(f"{path}: missing required keys {', '.join(missing)}")
    # A [DEFAULT] key shows in every section, so it is checked once, there; a
    # section's own keys are those [DEFAULT] lacks or that it sets otherwise.
    defaults = sections.get("DEFAULT", {})
    for name, keys in sections.items():
        if name not in _KNOWN:
            raise ScenarioParseError(f"{path}: unknown section [{name}]")
        inherited = {} if name == "DEFAULT" else defaults
        own = [key for key, value in keys.items() if inherited.get(key) != value]
        unknown = [key for key in own if key not in _KNOWN[name]]
        if unknown:
            raise ScenarioParseError(f"{path}: unknown keys in [{name}]: {', '.join(unknown)}")

    structure = CapitalStructure(
        asset_value=_get(section, "float", "asset_value", path),
        senior_face=_get(section, "float", "senior_face", path),
        junior_face=_get(section, "float", "junior_face", path),
        volatility=_get(section, "float", "sigma", path),
        maturity=_get(section, "float", "maturity", path),
        rate=_get(section, "float", "rate", path),
        dividend_yield=_get(section, "float", "dividend_yield", path, 0.0),
    )
    initial_sigma = _get(section, "float", "initial_sigma", path, structure.volatility)
    name = section.get("name", path.stem)

    # Without the section, its keys may still be in [DEFAULT].
    mc_section = sections.get("monte_carlo", defaults)
    paths = _get(mc_section, "int", "paths", path, DEFAULT_PATHS)
    seed = _get(mc_section, "int", "seed", path, DEFAULT_SEED)
    if not _get(mc_section, "boolean", "antithetic", path, True):
        raise ScenarioParseError(
            f"{path}: key antithetic must be true: antithetic pairing is the "
            "only sampling scheme"
        )
    mc = MCConfig(path_count=paths, seed=seed)

    return Scenario(name=name, structure=structure, initial_sigma=initial_sigma, mc=mc)


def _read_plain(text: str) -> dict | None:
    """The sections of ``text`` as configparser reads them, where the text
    is in the documented form; None for any other text.  Lines end at
    "\\n" alone, as in the ``io.StringIO`` that configparser reads."""
    sections: dict[str, dict[str, str]] = {}
    keys = None
    for line in text.split("\n"):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        if line[0].isspace() or "#" in line or ";" in line:
            return None
        if stripped in ("[scenario]", "[monte_carlo]"):
            if stripped[1:-1] in sections:
                return None
            keys = sections[stripped[1:-1]] = {}
            continue
        key, equals, value = stripped.partition("=")
        key = key.strip().lower()
        if keys is None or stripped[0] == "[" or not equals or not key:
            return None
        if ":" in key or key in keys:
            return None
        keys[key] = value.strip()
    return sections


def _read_ini(text: str, path: Path) -> dict:
    """The sections of any INI ``text``, read by configparser: ``[DEFAULT]``
    first, then each section as a view with the defaults merged in."""
    import configparser

    # No interpolation: a "%" in a value is plain text.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioParseError(f"malformed scenario file {path}: {exc}") from exc
    return dict(parser)


# configparser's ``BOOLEAN_STATES``: the words it reads as a boolean, in any case.
_BOOLEANS = {"1": True, "yes": True, "true": True, "on": True}
_BOOLEANS.update({"0": False, "no": False, "false": False, "off": False})
_CONVERT = {"float": float, "int": int, "boolean": lambda text: _BOOLEANS[text.lower()]}
_NOUNS = {"float": "a number", "int": "an integer", "boolean": "a boolean"}


def _get(section, kind: str, key: str, path: Path, default=None):
    """``key`` of ``section`` converted as configparser's ``get<kind>``
    would; ``default`` where it is absent."""
    if key not in section:
        return default
    try:
        return _CONVERT[kind](section[key])
    except (KeyError, ValueError) as exc:  # KeyError: not a boolean word
        raise ScenarioParseError(
            f"{path}: key {key} is not {_NOUNS[kind]}: {section[key]!r}"
        ) from exc
