"""The lazy ``folia`` namespace: every public name resolves on first
access to the object its home module defines."""

import sys

import pytest

import folia


def test_every_public_name_is_its_home_modules_object():
    for name in folia.__all__:
        obj = getattr(folia, name)
        if name == "__version__":
            continue
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("folia."), name
        assert getattr(home, name) is obj, name


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from folia import *", ns)
    for name in folia.__all__:
        assert ns[name] is getattr(folia, name), name


def test_dir_lists_every_public_name():
    assert set(folia.__all__) <= set(dir(folia))


def test_public_names_are_listed_once_and_are_the_lazy_names():
    assert len(folia.__all__) == len(set(folia.__all__))
    resolved = set()
    for name in dir(folia):
        try:
            folia.__getattr__(name)
        except AttributeError:
            continue
        resolved.add(name)
    assert set(folia.__all__) == resolved | {"__version__"}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        folia.no_such_name
    assert getattr(folia, "no_such_name", None) is None
