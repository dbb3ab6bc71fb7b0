"""Write the golden outputs: the stdout of each of the five commands on each
bundled scenario, in each format the command has (39 outputs).

    PYTHONPATH=src python tests/golden/regenerate.py

``tests/test_golden.py`` renders the same outputs and compares them with
these files byte for byte.  A golden file changes only where a change
fixes a named defect or adds a declared report key; regenerating to make
a failing comparison pass loosens the check.

The reports are kept as text, one file each.  The sweeps, 595 of the
610 KB, are kept as their line count and sha256 in ``sweeps.sha256``.
``verify`` runs at 200,000 paths and ``sweep-structure`` with README's
figure-data flags.

Every output is pinned for x86-64 glibc, whose ``libm`` the closed forms
use.  ``verify`` also draws its paths through numpy's ``exp``, whose
CPU-specific loops differ in the last bits, so its files sit in one
directory per loop.  Run on an AVX-512 host, this script writes the
``verify-X86_V4`` set itself and the ``verify-X86_V3`` set from a child
process with the AVX-512 loop disabled (``NPY_DISABLE_CPU_FEATURES``).
"""

import contextlib
import hashlib
import io
import platform
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
SCENARIOS = GOLDEN.parents[1] / "scenarios"
sys.path.insert(0, str(GOLDEN.parent))

from conftest import child_env, exp_loop  # noqa: E402
from subdebt.cli import main  # noqa: E402

REPORT_FORMATS = {"txt": [], "csv": ["--format", "csv"], "json": ["--format", "json"]}
SWEEP_FORMATS = {"csv": ["--format", "csv"], "json": ["--format", "json"]}
FIGURE_FLAGS = "--total-face 100 --proportions 0.10,0.20,0.30 --v-min 50 --v-max 100 --steps 251"
# Command: its flags and its formats, by file extension.
COMMANDS = {
    "price": ([], REPORT_FORMATS),
    "thresholds": ([], REPORT_FORMATS),
    "verify": (["--paths", "200000"], REPORT_FORMATS),
    "sweep-sigma": ([], SWEEP_FORMATS),
    "sweep-structure": (FIGURE_FLAGS.split(), SWEEP_FORMATS),
}
SWEEPS = ("sweep-sigma", "sweep-structure")
LOOPS = ("X86_V4", "X86_V3")
MANIFEST = GOLDEN / "sweeps.sha256"


def pinned_platform():
    """Whether this is the platform the golden files were written on."""
    return platform.machine() == "x86_64" and platform.libc_ver()[0] == "glibc"


def cases(loop):
    """(file name, command, argv) of each output, with ``loop``'s ``verify`` files."""
    for command, (flags, formats) in COMMANDS.items():
        folder = f"verify-{loop}" if command == "verify" else command
        for scenario in sorted(path.stem for path in SCENARIOS.glob("*.ini")):
            for extension, format_flags in formats.items():
                argv = [command, "--scenario", str(SCENARIOS / f"{scenario}.ini"), *flags]
                yield f"{folder}/{scenario}.{extension}", command, [*argv, *format_flags]


def render(argv):
    """The stdout of ``subdebt`` with ``argv``, which must exit 0."""
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"subdebt {' '.join(argv)} exited {code}")
    return stream.getvalue()


def digest(text):
    """A sweep's golden record: its line count and the sha256 of its bytes."""
    return f"{text.count(chr(10))} {hashlib.sha256(text.encode()).hexdigest()}"


def read_manifest():
    """File name -> ``digest`` of each sweep."""
    lines = MANIFEST.read_text().splitlines()
    return {name: record for name, record in (line.split(" ", 1) for line in lines)}


def write(loop, commands):
    """Write the golden files of ``commands``, with ``loop``'s ``verify`` files."""
    sweeps = {}
    for name, command, argv in cases(loop):
        if command not in commands:
            continue
        text = render(argv)
        if command in SWEEPS:
            sweeps[name] = digest(text)
        else:
            (GOLDEN / name).parent.mkdir(exist_ok=True)
            (GOLDEN / name).write_bytes(text.encode())
    if sweeps:
        MANIFEST.write_text("".join(f"{name} {record}\n" for name, record in sweeps.items()))


if __name__ == "__main__":
    if not pinned_platform():
        sys.exit("golden outputs are pinned for x86-64 glibc")
    loop = exp_loop()
    if loop not in LOOPS:
        sys.exit(f"verify golden outputs are kept for the exp loops {LOOPS}, not {loop}")
    if sys.argv[1:] == ["verify"]:  # the child that writes the X86_V3 set
        if loop != "X86_V3":
            sys.exit(f"the child runs the {loop} exp loop, not X86_V3")
        write(loop, ["verify"])
    else:
        write(loop, COMMANDS)
        if loop == "X86_V4":
            subprocess.run(
                [sys.executable, __file__, "verify"],
                env=child_env(NPY_DISABLE_CPU_FEATURES="X86_V4"),
                check=True,
            )
