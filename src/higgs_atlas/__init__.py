"""Exact combinatorial models for decorated Higgs-type objects on curves.

The package stores an object as a list of formal line-bundle summands with
a pairing involution, a sparse matrix of named sections, and optional
extension terms.  Every exported computation (section counts, stability
verdicts, graded limits, component censuses, dimension counts) is integer
or symbolic, with assumptions surfaced in the result types rather than
buried in defaults.

Every name in a library module's ``__all__`` is importable from here.
Importing the package loads none of its modules: the first access to a
name (PEP 562) imports them in dependency order until one lists it, so a
command-line process pays only for the modules its verb uses.
"""

import importlib

__version__ = "0.1.0"

# The library modules, each after the modules it imports.
_MODULES = ("errors", "f2classes", "groups", "curve", "linebundle", "f2cohomology",
            "higgsmodel", "canonical", "builders", "stability", "deformation", "catalog",
            "verification")


def _modules():
    for name in _MODULES:
        yield importlib.import_module(f".{name}", __name__)


def __getattr__(name: str):
    if name == "__all__":
        value = sorted(n for module in _modules() for n in module.__all__)
    else:
        # A submodule name fails at once, so `from higgs_atlas import cli`
        # imports that submodule and nothing else.
        owner = None
        if not name.startswith("_") and name not in (*_MODULES, "cli"):
            owner = next((m for m in _modules() if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__getattr__("__all__")))
