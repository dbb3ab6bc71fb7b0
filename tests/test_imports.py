"""Cold-start guard: the closed-form commands and the sweeps load neither
numpy nor scipy, and ``verify`` loads numpy and only scipy's compiled
``_ufuncs``, not the ``scipy.special`` package.

Each case runs in a fresh interpreter, because this test process has
already imported both libraries.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "scenarios" / "distressed.ini"

# After the command, reports what it loaded; then, if it loaded scipy's
# ufuncs, whether a real ``import scipy.special`` yields the same ndtri.
_PROBE = """\
import json, sys
from subdebt.cli import main
argv = json.loads(sys.argv[1])
code = main(argv) if argv else 0
modules = sorted(sys.modules)
same_ndtri = None
if "scipy.special._ufuncs" in modules:
    import scipy.special
    from subdebt.oracle import _ndtri
    same_ndtri = _ndtri() is scipy.special.ndtri
print(json.dumps({"code": code, "numpy": "numpy" in modules,
                  "scipy": "scipy" in modules, "modules": modules,
                  "same_ndtri": same_ndtri}))
"""


def _loaded_after(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv,code",
    [
        ([], 0),
        (["price", "--scenario", str(SCENARIO)], 0),
        (["thresholds", "--scenario", str(SCENARIO), "--format", "json"], 0),
        (["price", "--scenario", str(ROOT / "no-such-scenario.ini")], 2),
        (["sweep-sigma", "--scenario", str(SCENARIO), "--steps", "1"], 3),
        (["sweep-sigma", "--scenario", str(SCENARIO), "--steps", "5"], 0),
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
        ),
    ],
    ids=[
        "import",
        "price",
        "thresholds",
        "parse-error",
        "sweep-error",
        "sweep-sigma",
        "sweep-structure",
    ],
)
def test_commands_load_only_what_they_use(argv, code):
    loaded = _loaded_after(argv)
    assert loaded["code"] == code
    assert loaded["numpy"] is False
    assert loaded["scipy"] is False


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
