"""The package namespace: every public name loads its module on first use
and is then a plain attribute of the package."""

import importlib

import pytest

import subdebt


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
