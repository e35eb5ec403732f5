"""The package namespace: every module's ``__all__``, resolved on first access."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import higgs_atlas

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
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
    assert len(higgs_atlas.__all__) == 133


REMOVED = (
    "HiggsParameters", "zero_section", "group_tag", "degree",
    "PrymDescriptor", "InvolutionAction", "prym_membership", "UnresolvedActionError",
    "DegreeContext", "KIND_ZERO", "VANISH_ZERO", "enumerate_invariant_subobjects",
    "compose_weights", "ExponentTable",
)


def test_unknown_and_removed_names_raise_attribute_error():
    for name in ("no_such_name", *REMOVED):
        assert name not in higgs_atlas.__all__
        with pytest.raises(AttributeError):
            getattr(higgs_atlas, name)


# Exported names that no library module loads and neither the benchmark nor
# the README names.  Frozen test corpora or acceptance criteria are built
# with each, so removing one would change what those tests freeze.
KEPT_FOR_TESTS = {
    "associated_sl": "builds two objects of the frozen builder corpus (BUILDER_DIGESTS)",
    "embed_so23_to_so2n": "builds a builder-corpus object and acceptance criterion 8's labels",
    "embed_so23_to_so33": "builds an object of the frozen builder corpus (BUILDER_DIGESTS)",
    "append_trivial_w": "builds a builder-corpus object and acceptance criterion 4's objects",
    "so2n_sw_label": "reads the sw labels that acceptance criterion 8 compares",
    "divisor_twist": "builds the divisor atoms of the property and mutation corpora",
}


def _loaded_by_the_library() -> set[str]:
    loaded = set()
    for path in (SRC / "higgs_atlas").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    return loaded


def test_every_export_is_reached_or_kept_for_a_reason():
    outside = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md"]
    mentioned = set(re.findall(r"\w+", "\n".join(p.read_text() for p in outside)))
    loaded = _loaded_by_the_library()
    unreached = {n for n in higgs_atlas.__all__ if n not in loaded and n not in mentioned}
    assert unreached == set(KEPT_FOR_TESTS)


def test_every_name_the_benchmark_imports_resolves():
    imported = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "higgs_atlas":
                imported += [(node.module, alias.name) for alias in node.names]
    assert imported
    for module, name in imported:
        exec(f"from {module} import {name}", {})


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


def test_only_the_object_model_imports_dataclasses():
    # a derived object is made by GradedHiggsBundle._with, the one replace call
    importers, replace_calls = set(), 0
    for name in LIBRARY_MODULES:
        tree = ast.parse((SRC / "higgs_atlas" / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses" or (
                isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
            ):
                importers.add(name)
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "replace", "dataclasses.replace"
            ):
                replace_calls += 1
    assert importers == {"higgsmodel"}
    assert replace_calls == 1


# -- a tag's kind is decided in groups alone -------------------------------------

def _reads(node: ast.AST, names: set[str]) -> bool:
    """Whether ``node`` reads a ``.params`` attribute or one of ``names``."""
    return any(
        isinstance(n, ast.Attribute) and n.attr == "params"
        or isinstance(n, ast.Name) and n.id in names
        for n in ast.walk(node)
    )


def _is_constant(node: ast.AST) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def _parameter_tests(path: Path) -> list[str]:
    """Each comparison in ``path`` that tests a tag's parameters, or a local
    bound from them, against a constant or against another parameter."""
    found = []
    for scope in ast.walk(ast.parse(path.read_text())):
        if not isinstance(scope, ast.FunctionDef):
            continue
        bound: set[str] = set()
        for node in ast.walk(scope):
            for target in node.targets if isinstance(node, ast.Assign) else ():
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = list(zip(target.elts, node.value.elts))
                bound |= {n.id for t, v in pairs if _reads(v, set())
                          for n in ast.walk(t) if isinstance(n, ast.Name)}
        for node in ast.walk(scope):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            reading = [op for op in operands if _reads(op, bound)]
            others = [op for op in operands if not _reads(op, bound)]
            if reading and (len(reading) > 1 or any(map(_is_constant, others))):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_family_rule_is_written_outside_groups():
    package = SRC / "higgs_atlas"
    tests = [line for name in ("catalog.py", "cli.py")
             for line in _parameter_tests(package / name)]
    assert tests == []
    unpacked = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py")) if path.name != "groups.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
        and {"family", "params"} <= {e.attr for e in node.value.elts
                                      if isinstance(e, ast.Attribute)}
    ]
    assert unpacked == []


def test_the_family_rules_read_the_tag_kind():
    from higgs_atlas import catalog, cli, groups

    for fn in (groups.milnor_wood_bound, catalog._twist_rank, catalog.census, cli._cmd_build):
        tree = ast.parse(inspect.getsource(fn))
        assert any(isinstance(n, ast.Attribute) and n.attr == "kind" for n in ast.walk(tree))
