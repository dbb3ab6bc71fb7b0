"""Every command's stdout on the bundled scenarios, and the library's
results on the seeded structures, are byte for byte the golden outputs
that ``tests/golden/regenerate.py`` wrote (see its docstring for what is
kept, and when a golden file may change)."""

import itertools
import platform

import pytest

from conftest import exp_loop
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


def test_every_golden_file_has_a_case():
    names = {name for loop in LOOPS for name, command, _ in cases(loop) if command not in SWEEPS}
    files = {
        str(path.relative_to(GOLDEN))
        for path in GOLDEN.glob("*/*")
        if path.parent.name != "__pycache__"
    }
    assert files == names
    assert set(read_manifest()) == {name for name, command, _ in CASES if command in SWEEPS}
