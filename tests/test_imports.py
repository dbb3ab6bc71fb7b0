"""Cold-start guard: the closed-form commands and the sweeps load neither
numpy nor scipy.

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

_PROBE = """\
import json, sys
from subdebt.cli import main
argv = json.loads(sys.argv[1])
code = main(argv) if argv else 0
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "scipy": "scipy" in sys.modules}))
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
