"""The package namespace: every public name loads its module on first use
and is then a plain attribute of the package."""

import ast
import importlib
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import subdebt
from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


@pytest.mark.parametrize("name", subdebt.__all__)
def test_public_name_is_its_defining_module_attribute(name):
    value = getattr(subdebt, name)
    assert value.__module__.startswith("subdebt.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from subdebt import *", namespace)
    assert set(subdebt.__all__) <= set(namespace)
    assert set(subdebt.__all__) <= set(dir(subdebt))
    assert len(set(subdebt.__all__)) == len(subdebt.__all__)


def test_first_lookup_is_stored_in_the_package(monkeypatch):
    calls = []
    lazy = subdebt.__getattr__

    def counted(name):
        calls.append(name)
        return lazy(name)

    monkeypatch.setattr(subdebt, "__getattr__", counted)
    monkeypatch.delitem(vars(subdebt), "value_all_claims", raising=False)
    first = subdebt.value_all_claims
    assert "value_all_claims" in vars(subdebt)
    assert subdebt.value_all_claims is first
    assert calls == ["value_all_claims"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        subdebt.no_such_name
    assert not hasattr(subdebt, "no_such_name")


def test_child_process_imports_the_package_this_process_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", "import subdebt; print(subdebt.__file__)"],
        env=child_env(),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == f"{subdebt.__file__}\n"


def test_every_package_name_the_benchmark_reads_is_public():
    # The benchmark's scripts are read, not run: each ``subdebt.<name>`` in
    # their source, in code, an import or a string, must stay a public name
    # or a submodule of the package.
    submodules = {info.name for info in pkgutil.iter_modules(subdebt.__path__)}
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        names.update(re.findall(r"\bsubdebt\.([A-Za-z_]\w*)", path.read_text()))
    assert names, f"no subdebt.<name> found in {BENCH}"
    assert sorted(names - submodules - set(subdebt.__all__)) == []


def test_only_claims_evaluates_the_normal_cdf():
    # N(x) has one evaluation route, next to the kernel in ``claims``: no
    # other module calls ``math.erfc`` or ``norm_cdf``.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(subdebt.__file__).parent.glob("*.py"))
        if path.stem != "claims"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1] in {"erfc", "norm_cdf"}
    ]
    assert found == []


def _reads_the_optimize_flag(node):
    """An assert statement, or a read of ``__debug__`` or ``sys.flags.optimize``."""
    if isinstance(node, ast.Assert):
        return True
    if isinstance(node, ast.Name):
        return node.id == "__debug__"
    return isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.flags.optimize"


def test_package_does_not_depend_on_assert_statements():
    # ``python -O`` strips assert statements and sets __debug__ and
    # sys.flags.optimize, so package code that uses none of them runs the
    # same with and without it: every domain check raises either way.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(subdebt.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _reads_the_optimize_flag(node)
    ]
    assert found == []


def test_every_benchmark_record_names_the_commit_it_measured():
    # BENCH_*.json keep benchmark runs as they were measured, so whether a
    # run read "correct" is not checked here.
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        provenance = json.loads(path.read_text(encoding="utf-8"))["provenance"]
        assert re.fullmatch("[0-9a-f]{40}", provenance["git_commit"]), path.name
