"""The package namespace: every exported name resolves on first access."""

from __future__ import annotations

import importlib

import pytest

import higgs_atlas


def test_every_exported_name_resolves():
    assert higgs_atlas.__all__
    for name in higgs_atlas.__all__:
        module = importlib.import_module(f"higgs_atlas.{higgs_atlas._MODULE_OF[name]}")
        assert getattr(higgs_atlas, name) is getattr(module, name)


def test_unknown_and_removed_names_raise_attribute_error():
    for name in ("no_such_name", "HiggsParameters", "zero_section", "group_tag", "degree"):
        assert name not in higgs_atlas.__all__
        with pytest.raises(AttributeError):
            getattr(higgs_atlas, name)


def test_dir_lists_the_exports():
    assert set(higgs_atlas.__all__) <= set(dir(higgs_atlas))
