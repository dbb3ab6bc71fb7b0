"""Scenario files: INI-style ``key = value`` sections.

One scenario per file.  The ``[scenario]`` section holds the capital
structure (required keys: asset_value, senior_face, junior_face, sigma,
maturity, rate; optional: dividend_yield, initial_sigma, name) and the
optional ``[monte_carlo]`` section overrides the simulation defaults
(paths, seed).  Its ``antithetic`` key is still read so that existing
files load, but antithetic pairing is the only sampling scheme, so only
``true`` is accepted.  Numbers are parsed as decimal text at full
double precision.  ``initial_sigma`` defaults to ``sigma``; scenarios
priced at sigma = 0 must therefore state it explicitly.  Files are read
as UTF-8.

``MCConfig``, the Monte-Carlo engine's configuration, is defined here
rather than in ``oracle``, so that every command checks the file's
``[monte_carlo]`` values without loading the engine.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from .claims import CapitalStructure
from .errors import ScenarioParseError, ValidationError, check
from .record import Record, set_field

DEFAULT_PATHS = 1_000_000
DEFAULT_SEED = 1

_REQUIRED_KEYS = ("asset_value", "senior_face", "junior_face", "sigma", "maturity", "rate")


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
        set_field(self, "path_count", path_count)
        set_field(self, "seed", seed)


class Scenario(Record):
    """A named capital structure plus the pre-shift volatility and MC config."""

    __slots__ = ("name", "structure", "initial_sigma", "mc")

    def __init__(
        self, name: str, structure: CapitalStructure, initial_sigma: float, mc: MCConfig
    ) -> None:
        check("initial_sigma", initial_sigma, "finite and > 0")
        set_field(self, "name", name)
        set_field(self, "structure", structure)
        set_field(self, "initial_sigma", initial_sigma)
        set_field(self, "mc", mc)


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario file.

    Raises:
        ScenarioParseError: If the file is unreadable, malformed, or
            missing required keys.
        ValidationError: If the parsed parameters violate their domains.
    """
    path = Path(path)
    # No interpolation: a "%" in a value is plain text.
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioParseError(f"malformed scenario file {path}: {exc}") from exc

    if not parser.has_section("scenario"):
        raise ScenarioParseError(f"{path}: missing [scenario] section")
    section = parser["scenario"]
    missing = [key for key in _REQUIRED_KEYS if key not in section]
    if missing:
        raise ScenarioParseError(f"{path}: missing required keys {', '.join(missing)}")

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

    paths = DEFAULT_PATHS
    seed = DEFAULT_SEED
    if parser.has_section("monte_carlo"):
        mc_section = parser["monte_carlo"]
        paths = _get(mc_section, "int", "paths", path, paths)
        seed = _get(mc_section, "int", "seed", path, seed)
        if not _get(mc_section, "boolean", "antithetic", path, True):
            raise ScenarioParseError(
                f"{path}: key antithetic must be true: antithetic pairing is the "
                "only sampling scheme"
            )
    mc = MCConfig(path_count=paths, seed=seed)

    return Scenario(name=name, structure=structure, initial_sigma=initial_sigma, mc=mc)


_NOUNS = {"float": "a number", "int": "an integer", "boolean": "a boolean"}


def _get(section, kind: str, key: str, path: Path, default=None):
    """``key`` read by ``section.get<kind>``; ``default`` where it is absent."""
    try:
        return getattr(section, "get" + kind)(key, fallback=default)
    except ValueError as exc:
        raise ScenarioParseError(
            f"{path}: key {key} is not {_NOUNS[kind]}: {section[key]!r}"
        ) from exc
