"""Every command's stdout on the bundled scenarios, and the library's
results on the seeded structures, are byte for byte the golden outputs
that ``tests/golden/regenerate.py`` wrote (see its docstring for what is
kept, and when a golden file may change)."""

import itertools
import platform
import subprocess
import sys

import pytest

from conftest import child_env, exp_loop
from golden.regenerate import (
    GOLDEN,
    LIBRARY,
    LOOPS,
    SWEEPS,
    cases,
    digest,
    library_table,
    pinned_platform,
    read_manifest,
    render,
)

LOOP = exp_loop()
CASES = list(cases(LOOP))

# Prints the child's exp loop, then its library table; argv[1] is the tests directory.
_LIBRARY_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
from conftest import exp_loop
from golden.regenerate import library_table
print(exp_loop())
sys.stdout.write(library_table())
"""


def _first_difference(expected, actual):
    """The first line at which ``actual`` differs from ``expected``."""
    pairs = itertools.zip_longest(
        expected.splitlines(keepends=True), actual.splitlines(keepends=True), fillvalue="<end>"
    )
    for number, (want, got) in enumerate(pairs, 1):
        if want != got:
            return f"line {number}: expected {want!r}, got {got!r}"
    return None


@pytest.mark.parametrize("name, command, argv", CASES, ids=[case[0] for case in CASES])
def test_output_is_the_golden_output(name, command, argv):
    if not pinned_platform():
        pytest.skip(f"golden outputs are pinned for x86-64 glibc, not {platform.platform()}")
    if command == "verify" and LOOP not in LOOPS:
        pytest.skip(f"verify golden outputs are kept for the exp loops {LOOPS}, not {LOOP}")
    actual = render(argv)
    if command in SWEEPS:
        assert digest(actual) == read_manifest()[name], f"{name}: line count or sha256 differs"
    else:
        expected = (GOLDEN / name).read_bytes().decode()
        assert actual == expected, f"{name} differs at {_first_difference(expected, actual)}"


def test_library_bits_are_the_golden_bits():
    if not pinned_platform():
        pytest.skip(f"library bits are pinned for x86-64 glibc, not {platform.platform()}")
    if LOOP not in LOOPS:
        pytest.skip(f"the argmax bits are shown to agree on the loops {LOOPS}, not {LOOP}")
    expected = LIBRARY.read_text()
    actual = library_table()
    assert actual == expected, f"library.txt differs at {_first_difference(expected, actual)}"


def test_library_bits_do_not_depend_on_the_numpy_loop():
    # The argmax's grid and complex arithmetic run through numpy loops that
    # are chosen per CPU; the X86_V3 loops must give the pinned table too.
    if not pinned_platform():
        pytest.skip(f"library bits are pinned for x86-64 glibc, not {platform.platform()}")
    if LOOP != "X86_V4":
        pytest.skip(f"the X86_V3 child needs a host whose exp loop is X86_V4, not {LOOP}")
    child = subprocess.run(
        [sys.executable, "-c", _LIBRARY_PROBE, str(GOLDEN.parent)],
        env=child_env(NPY_DISABLE_CPU_FEATURES="X86_V4"),
        capture_output=True,
        text=True,
        check=True,
    )
    loop, _, actual = child.stdout.partition("\n")
    assert loop == "X86_V3"
    expected = LIBRARY.read_text()
    assert actual == expected, f"library.txt differs at {_first_difference(expected, actual)}"


def test_every_golden_file_has_a_case():
    names = {name for loop in LOOPS for name, command, _ in cases(loop) if command not in SWEEPS}
    files = {
        str(path.relative_to(GOLDEN))
        for path in GOLDEN.glob("*/*")
        if path.parent.name != "__pycache__"
    }
    assert files == names
    assert set(read_manifest()) == {name for name, command, _ in CASES if command in SWEEPS}
