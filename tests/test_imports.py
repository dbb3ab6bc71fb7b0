"""Cold-start guard: each command loads only the modules it runs.

``import subdebt`` loads no submodule.  The closed-form commands and the
sweeps load neither numpy nor scipy; ``price`` and ``thresholds`` load
neither the sweeps, the oracles nor the option functions of
``black_scholes``, and as text neither ``json`` nor ``csv``.  ``verify``
loads numpy and only scipy's compiled ``_ufuncs``, not the
``scipy.special`` package.

Each case runs in a fresh interpreter, because this test process has
already imported all of these.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "scenarios" / "distressed.ini"

# Imports the package and runs the command, if any; reports what that
# loaded, then, if it loaded scipy's ufuncs, whether a real
# ``import scipy.special`` yields the same ndtri.  It reads its arguments
# from sys.argv and imports json only afterwards, so that json counts as
# loaded only where the command loaded it.
_PROBE = """\
import sys
import subdebt
code = 0
if sys.argv[1:]:
    from subdebt.cli import main
    code = main(sys.argv[1:])
modules = sorted(sys.modules)
same_ndtri = None
if "scipy.special._ufuncs" in modules:
    import scipy.special
    from subdebt.oracle import _ndtri
    same_ndtri = _ndtri() is scipy.special.ndtri
import json
print(json.dumps({"code": code, "numpy": "numpy" in modules,
                  "scipy": "scipy" in modules, "modules": modules,
                  "same_ndtri": same_ndtri}))
"""

# Modules that the sweeps do not load; those that ``price`` and
# ``thresholds`` do not load either; and those that text output does not.
_NOT_IN_SWEEPS = {"subdebt.oracle", "subdebt.verify", "subdebt.black_scholes"}
_NOT_IN_CLOSED_FORM = _NOT_IN_SWEEPS | {"subdebt.sweeps"}
_NOT_IN_TEXT = {"json", "csv"}


def _loaded_after(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv,code,absent",
    [
        ([], 0, set()),
        (["price", "--scenario", str(SCENARIO)], 0, _NOT_IN_CLOSED_FORM | _NOT_IN_TEXT),
        (["price", "--scenario", str(SCENARIO), "--format", "json"], 0, _NOT_IN_CLOSED_FORM),
        (["thresholds", "--scenario", str(SCENARIO)], 0, _NOT_IN_CLOSED_FORM | _NOT_IN_TEXT),
        (["thresholds", "--scenario", str(SCENARIO), "--format", "json"], 0, _NOT_IN_CLOSED_FORM),
        (["price", "--scenario", str(ROOT / "no-such-scenario.ini")], 2, _NOT_IN_CLOSED_FORM),
        (["sweep-sigma", "--scenario", str(SCENARIO), "--steps", "1"], 3, _NOT_IN_SWEEPS),
        (["sweep-sigma", "--scenario", str(SCENARIO), "--steps", "5"], 0, _NOT_IN_SWEEPS),
        (
            [
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
            ],
            0,
            _NOT_IN_SWEEPS,
        ),
    ],
    ids=[
        "import",
        "price",
        "price-json",
        "thresholds",
        "thresholds-json",
        "parse-error",
        "sweep-error",
        "sweep-sigma",
        "sweep-structure",
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


def test_verify_loads_only_the_compiled_ufuncs():
    loaded = _loaded_after(
        ["verify", "--scenario", str(SCENARIO), "--paths", "2000", "--format", "json"]
    )
    assert loaded["code"] == 0
    modules = set(loaded["modules"])
    assert {"numpy", "scipy.special._ufuncs"} <= modules
    assert "scipy.special._support_alternative_backends" not in modules
    assert "numpy.f2py" not in modules
    assert "scipy.special" not in modules
    assert loaded["same_ndtri"] is True
