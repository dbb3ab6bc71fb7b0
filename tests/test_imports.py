"""Cold-start guard: each command loads only the modules it runs.

``import subdebt`` loads no submodule, and no command loads
``black_scholes``.  Every command that succeeds, in every format, and
every scenario error reads its flags without ``argparse``, so it loads
neither ``argparse`` nor the ``gettext`` and ``locale`` modules that
argparse's messages pull in; help and an unknown command still load
argparse.  ``verify`` does not load ``subprocess`` either.  The
closed-form commands and the sweeps load neither numpy, scipy,
``dataclasses`` nor ``inspect``.  ``price`` and ``thresholds`` load
neither the sweeps nor the oracles, and as text neither ``json`` nor
``csv``; ``price`` does not load ``subdebt.risk`` either, and nor does
``sweep-sigma``.  The sweeps load neither ``json`` nor ``csv`` in any
format.  ``verify`` loads numpy and, of the packages it draws from,
only the compiled modules it uses: scipy's ``_ufuncs``, neither the
``scipy.special`` package nor the ``scipy`` package, whose ``__init__``
loads scipy's test utilities and build configuration, and numpy's
``_philox``, not the ``numpy.random`` package.  It does not load
``dataclasses`` (numpy loads ``inspect`` itself).

Each case runs in a fresh interpreter, because this test process has
already imported all of these.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import subdebt
from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "scenarios" / "distressed.ini"

# Imports the package and runs the command, if any, taking help's or a
# usage error's exit code from its SystemExit; reports what that
# loaded, then, if it loaded scipy's ufuncs and numpy's Philox module,
# whether a real ``import scipy.special`` yields the same ndtri and a real
# ``import numpy.random`` the same Philox.  It reads its arguments
# from sys.argv and imports json only afterwards, so that json counts as
# loaded only where the command loaded it.
_PROBE = """\
import sys
import subdebt
code = 0
if sys.argv[1:]:
    from subdebt.cli import main
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
modules = sorted(sys.modules)
same_ndtri = same_philox = None
if "scipy.special._ufuncs" in modules:
    import scipy.special
    from subdebt.oracle import _ndtri
    same_ndtri = _ndtri() is scipy.special.ndtri
if "numpy.random._philox" in modules:
    import numpy.random
    from subdebt.oracle import _philox
    same_philox = _philox() is numpy.random.Philox
import json
print(json.dumps({"code": code, "numpy": "numpy" in modules,
                  "scipy": "scipy" in modules, "modules": modules,
                  "same_ndtri": same_ndtri, "same_philox": same_philox}))
"""

# The argument parser and the modules its messages load, which no command
# that reads its flags without it loads; modules that no closed-form
# command loads; those that ``price`` and ``thresholds`` do not load
# either; those that ``price`` does not load either; those that text
# output does not; those that the sweeps do not, in any format; and those
# that ``sweep-sigma`` does not load either.
_PARSER = {"argparse", "gettext", "locale"}
_NOT_IN_COMMANDS = _PARSER | {
    "subdebt.oracle",
    "subdebt.verify",
    "subdebt.black_scholes",
    "dataclasses",
    "inspect",
}
_NOT_IN_CLOSED_FORM = _NOT_IN_COMMANDS | {"subdebt.sweeps"}
_NOT_IN_PRICE = _NOT_IN_CLOSED_FORM | {"subdebt.risk"}
_NOT_IN_TEXT = {"json", "csv"}
_NOT_IN_SWEEPS = _NOT_IN_COMMANDS | _NOT_IN_TEXT
_NOT_IN_SWEEP_SIGMA = _NOT_IN_SWEEPS | {"subdebt.risk"}
_STRUCTURE = [
    "sweep-structure",
    "--scenario",
    str(SCENARIO),
    "--total-face",
    "100",
    "--proportions",
    "0.1,0.2",
    "--v-min",
    "50",
    "--v-max",
    "70",
    "--steps",
    "5",
]


# Imports each module named in its arguments, then reports what is loaded.
_IMPORT_PROBE = """\
import importlib, json, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps({"modules": sorted(sys.modules)}))
"""


def _loaded_after(argv, probe=_PROBE):
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv,code,absent",
    [
        ([], 0, set()),
        (["price", "--scenario", str(SCENARIO)], 0, _NOT_IN_PRICE | _NOT_IN_TEXT),
        (["price", "--scenario", str(SCENARIO), "--format", "csv"], 0, _NOT_IN_PRICE),
        (["price", "--scenario", str(SCENARIO), "--format", "json"], 0, _NOT_IN_PRICE),
        (["thresholds", "--scenario", str(SCENARIO)], 0, _NOT_IN_CLOSED_FORM | _NOT_IN_TEXT),
        (["thresholds", "--scenario", str(SCENARIO), "--format", "csv"], 0, _NOT_IN_CLOSED_FORM),
        (["thresholds", "--scenario", str(SCENARIO), "--format", "json"], 0, _NOT_IN_CLOSED_FORM),
        (["price", "--scenario", str(ROOT / "no-such-scenario.ini")], 2, _NOT_IN_PRICE),
        (["sweep-sigma", "--scenario", str(SCENARIO), "--steps", "1"], 3, _NOT_IN_SWEEP_SIGMA),
        (["sweep-sigma", "--scenario", str(SCENARIO), "--steps", "5"], 0, _NOT_IN_SWEEP_SIGMA),
        (
            ["sweep-sigma", "--scenario", str(SCENARIO), "--steps", "5", "--format", "csv"],
            0,
            _NOT_IN_SWEEP_SIGMA,
        ),
        (
            ["sweep-sigma", "--scenario", str(SCENARIO), "--steps", "5", "--format", "json"],
            0,
            _NOT_IN_SWEEP_SIGMA,
        ),
        (_STRUCTURE, 0, _NOT_IN_SWEEPS),
        ([*_STRUCTURE, "--format", "csv"], 0, _NOT_IN_SWEEPS),
        ([*_STRUCTURE, "--format", "json"], 0, _NOT_IN_SWEEPS),
    ],
    ids=[
        "import",
        "price",
        "price-csv",
        "price-json",
        "thresholds",
        "thresholds-csv",
        "thresholds-json",
        "parse-error",
        "sweep-error",
        "sweep-sigma",
        "sweep-sigma-csv",
        "sweep-sigma-json",
        "sweep-structure",
        "sweep-structure-csv",
        "sweep-structure-json",
    ],
)
def test_commands_load_only_what_they_use(argv, code, absent):
    loaded = _loaded_after(argv)
    assert loaded["code"] == code
    assert loaded["numpy"] is False
    assert loaded["scipy"] is False
    modules = set(loaded["modules"])
    assert not absent & modules
    if not argv:
        assert not {name for name in modules if name.startswith("subdebt.")}


@pytest.mark.parametrize(
    "old,new,code",
    [("rate = 0.01\n", "", 2), ("\nsigma = 0.10", "\nsigma = -0.10", 3)],
    ids=["missing-key", "negative-sigma"],
)
@pytest.mark.parametrize("command", ["price", "thresholds"])
def test_scenario_errors_load_no_parser(tmp_path, command, old, new, code):
    path = tmp_path / "bad.ini"
    text = SCENARIO.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    loaded = _loaded_after([command, "--scenario", str(path)])
    assert loaded["code"] == code
    assert not _PARSER & set(loaded["modules"])


@pytest.mark.parametrize(
    "argv,code",
    [(["--help"], 0), (["price", "--help"], 0), (["frobnicate"], 2)],
    ids=["help", "price-help", "unknown-command"],
)
def test_help_and_usage_errors_load_argparse(argv, code):
    loaded = _loaded_after(argv)
    assert loaded["code"] == code
    assert "argparse" in loaded["modules"]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_verify_loads_no_parser(fmt):
    argv = ["verify", "--scenario", str(SCENARIO), "--paths", "2000"]
    loaded = _loaded_after(argv if fmt == "text" else [*argv, "--format", fmt])
    assert loaded["code"] == 0
    assert not (_PARSER | {"subprocess"}) & set(loaded["modules"])


# The numpy.random package and the generators, distributions and pickling
# support that its __init__ loads besides Philox.
_NOT_IN_VERIFY_RANDOM = {
    "numpy.random",
    "numpy.random._generator",
    "numpy.random.mtrand",
    "numpy.random._pickle",
    "numpy.random._mt19937",
    "numpy.random._pcg64",
    "numpy.random._sfc64",
    "numpy.random._bounded_integers",
}

# The scipy package and what its __init__ loads through scipy._lib: the test
# utilities (with subprocess), the version parser and the build configuration.
_NOT_IN_VERIFY_SCIPY = {
    "scipy",
    "scipy._lib._testutils",
    "scipy._lib._pep440",
    "scipy.__config__",
}


def test_verify_loads_only_the_compiled_ufuncs():
    loaded = _loaded_after(
        ["verify", "--scenario", str(SCENARIO), "--paths", "2000", "--format", "json"]
    )
    assert loaded["code"] == 0
    modules = set(loaded["modules"])
    assert {"numpy", "scipy.special._ufuncs", "numpy.random._philox"} <= modules
    assert "scipy.special._support_alternative_backends" not in modules
    assert "numpy.f2py" not in modules
    assert "scipy.special" not in modules
    assert not _NOT_IN_VERIFY_RANDOM & modules
    assert not _NOT_IN_VERIFY_SCIPY & modules
    assert "dataclasses" not in modules
    assert loaded["same_ndtri"] is True
    assert loaded["same_philox"] is True


def test_only_black_scholes_loads_dataclasses():
    names = [
        f"subdebt.{path.stem}"
        for path in sorted(Path(subdebt.__file__).parent.glob("*.py"))
        if path.stem not in {"__init__", "__main__", "black_scholes"}
    ]
    modules = set(_loaded_after(names, _IMPORT_PROBE)["modules"])
    assert set(names) <= modules
    assert not {"dataclasses", "inspect", "subdebt.black_scholes"} & modules
