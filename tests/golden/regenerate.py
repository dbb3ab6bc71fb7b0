"""Write the golden outputs: the stdout of each of the five commands on each
bundled scenario, in each format the command has (39 outputs), and the
pinned library bits.

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

The pinned library bits, ``library.txt``, hold ``float.hex`` of each
closed form, the regime fields and the two oracles that need no
Monte-Carlo, on ``LIBRARY_SIZE`` seeded structures, one line each.
``argmax_sigma_numeric`` lays out its grid with numpy's ``power`` and
takes its vega with numpy's complex arithmetic, whose loops may also
differ in the last bits, so the X86_V3 child checks that it renders the
same table, rather than the table being kept per loop;
``tests/test_golden.py`` renders it in such a child too.
"""

import contextlib
import hashlib
import io
import math
import platform
import random
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
SCENARIOS = GOLDEN.parents[1] / "scenarios"
sys.path.insert(0, str(GOLDEN.parent))

from conftest import child_env, exp_loop  # noqa: E402
from subdebt import (  # noqa: E402
    CapitalStructure,
    DegenerateVolatilityError,
    ValidationError,
    argmax_sigma_numeric,
    classify_regime,
    finite_diff_vega,
    junior_debt_vega,
    value_all_claims,
)
from subdebt.cli import main  # noqa: E402
from subdebt.verify import ARGMAX_GRID, VEGA_BUMP  # noqa: E402

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
LIBRARY = GOLDEN / "library.txt"
LIBRARY_SIZE = 200
LIBRARY_SEED = 13


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


def library_structures():
    """(structure, initial sigma) of each line of the library table.

    The kinds take turns: any structure; a hump whose sigma* is drawn
    first, small enough that the vega can underflow near it, inside the
    argmax's grid or past its right edge; sigma = 0, where the vega is
    undefined; faces and asset value scaled by 1e+-150, where the
    thresholds and sigma* take their logs.  Every other structure has a
    payout yield.
    """
    rng = random.Random(LIBRARY_SEED)

    def draw(lower, upper):
        return float(f"{rng.uniform(lower, upper):.6g}")

    for index in range(LIBRARY_SIZE):
        senior, junior = draw(0.5, 300.0), draw(0.5, 300.0)
        sigma, tau, rate = draw(0.01, 1.5), draw(0.05, 5.0), draw(-0.02, 0.1)
        q = draw(0.0, 0.05) if index % 2 else 0.0
        asset, kind = draw(1.0, 500.0), index // 2 % 4
        if kind == 1:
            best = draw(*((0.005, 0.03), (0.03, 1.4), (1.5, 3.0))[index // 8 % 3])
            growth = math.exp(-(rate - q + 0.5 * best * best) * tau)
            asset = float(f"{growth * math.sqrt(senior * (senior + junior)):.6g}")
        elif kind == 2:
            sigma = 0.0
        elif kind == 3:
            scale = 10.0 ** rng.choice((-150, 150))
            asset, senior, junior = asset * scale, senior * scale, junior * scale
        yield CapitalStructure(asset, senior, junior, sigma, tau, rate, q), draw(0.01, 1.5)


def _bits(value):
    """``float.hex`` of a result, or ``none``."""
    return "none" if value is None else float.hex(value)


def _outcome(function, *args):
    """``_bits`` of the result of the call, or the name of the error it raised."""
    try:
        return _bits(function(*args))
    except (ValidationError, DegenerateVolatilityError) as exc:
        return type(exc).__name__


def library_table():
    """One line per structure: its inputs, then the bits of each result."""
    lines = []
    for index, (cs, initial_sigma) in enumerate(library_structures()):
        claims = value_all_claims(cs)
        profile = classify_regime(cs, initial_sigma)
        fields = {
            "senior": claims.senior_value,
            "junior": claims.junior_value,
            "equity": claims.equity_value,
            "total": claims.total,
            "shift": profile.shift_threshold,
            "hump": profile.hump_threshold,
            "sigma*": profile.optimal_volatility,
            "chosen": profile.chosen_risk,
        }
        results = [f"{key}={_bits(value)}" for key, value in fields.items()]
        results += [
            f"regime={profile.regime.value}",
            f"up={profile.shifts_above_initial}",
            f"vega={_outcome(junior_debt_vega, cs)}",
            f"argmax={_outcome(argmax_sigma_numeric, cs, ARGMAX_GRID)}",
            f"fd_vega={_outcome(finite_diff_vega, cs, VEGA_BUMP)}",
        ]
        inputs = (
            f"V={cs.asset_value!r} F_S={cs.senior_face!r} F_J={cs.junior_face!r} "
            f"sigma={cs.volatility!r} tau={cs.maturity!r} r={cs.rate!r} "
            f"q={cs.dividend_yield!r} sigma0={initial_sigma!r}"
        )
        lines.append(f"{index:03d} {inputs}: {' '.join(results)}\n")
    return "".join(lines)


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
        if library_table() != LIBRARY.read_text():
            sys.exit("the library bits differ between the X86_V4 and X86_V3 loops")
    else:
        write(loop, COMMANDS)
        LIBRARY.write_text(library_table())
        if loop == "X86_V4":
            subprocess.run(
                [sys.executable, __file__, "verify"],
                env=child_env(NPY_DISABLE_CPU_FEATURES="X86_V4"),
                check=True,
            )
