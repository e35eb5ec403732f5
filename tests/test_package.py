"""The package namespace: every module's ``__all__``, resolved on first access."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import higgs_atlas

SRC = Path(__file__).resolve().parent.parent / "src"
LIBRARY_MODULES = (
    "errors",
    "f2classes",
    "groups",
    "curve",
    "linebundle",
    "f2cohomology",
    "higgsmodel",
    "canonical",
    "builders",
    "stability",
    "deformation",
    "catalog",
    "verification",
)


def _module_lists() -> dict[str, list[str]]:
    return {
        name: importlib.import_module(f"higgs_atlas.{name}").__all__ for name in LIBRARY_MODULES
    }


def test_every_exported_name_resolves():
    for module_name, names in _module_lists().items():
        module = importlib.import_module(f"higgs_atlas.{module_name}")
        for name in names:
            assert getattr(higgs_atlas, name) is getattr(module, name), (module_name, name)


def test_all_is_the_union_of_the_module_lists():
    modules = {p.stem for p in (SRC / "higgs_atlas").glob("*.py")} - {"__init__", "cli"}
    assert modules == set(LIBRARY_MODULES)
    lists = _module_lists()
    union = [name for names in lists.values() for name in names]
    assert len(union) == len(set(union)), "a name is listed by two modules"
    assert higgs_atlas.__all__ == sorted(union)
    assert len(higgs_atlas.__all__) == 143


def test_unknown_and_removed_names_raise_attribute_error():
    for name in ("no_such_name", "HiggsParameters", "zero_section", "group_tag", "degree"):
        assert name not in higgs_atlas.__all__
        with pytest.raises(AttributeError):
            getattr(higgs_atlas, name)


def test_dir_lists_the_exports():
    assert set(higgs_atlas.__all__) <= set(dir(higgs_atlas))


_FRESH = r"""
import json, sys
import higgs_atlas
bare = sorted(m for m in sys.modules if m.startswith("higgs_atlas."))
namespace = {}
exec("from higgs_atlas import *", namespace)
bound = sorted(set(namespace) - {"__builtins__"})
print(json.dumps([bare, bound, sorted(higgs_atlas.__all__)]))
"""


def test_fresh_import_loads_nothing_and_star_binds_every_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    bare, bound, exported = json.loads(proc.stdout)
    assert bare == []
    assert bound == exported == higgs_atlas.__all__


def test_the_object_model_still_reads_out_its_group_tags():
    # perfbench/questions.py imports these three through higgsmodel
    from higgs_atlas.higgsmodel import GroupTag, HiggsEntry, SectionSymbol

    assert (GroupTag, HiggsEntry, SectionSymbol) == (
        higgs_atlas.GroupTag, higgs_atlas.HiggsEntry, higgs_atlas.SectionSymbol
    )
