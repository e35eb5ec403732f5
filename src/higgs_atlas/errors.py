"""Exception hierarchy shared by every module, the one integer reader, and
the base of the package's value types.

Each error carries a short machine-readable ``code`` so the command-line
layer can report failures as structured JSON without string matching.
Some errors also carry a ``payload`` dict with extra structured detail
(for example a pointer to a retraction descriptor when a parameterization
does not exist).
"""

from __future__ import annotations


class HiggsAtlasError(Exception):
    """Base class for all domain errors."""

    code = "error"

    def __init__(self, message: str, **payload):
        super().__init__(message)
        self.payload = payload


class UnresolvedDegreeError(HiggsAtlasError):
    code = "unresolved-degree"


class DimensionMismatchError(HiggsAtlasError):
    code = "dimension-mismatch"


class MissingSpinError(HiggsAtlasError):
    code = "missing-spin"


class BoundError(HiggsAtlasError):
    code = "bound"


class PreconditionError(HiggsAtlasError):
    code = "precondition"


class WrongGroupError(HiggsAtlasError):
    code = "wrong-group"


class UnsupportedGroupError(HiggsAtlasError):
    code = "unsupported-group"


class UnrecognizedShapeError(HiggsAtlasError):
    code = "unrecognized-shape"


class BudgetError(HiggsAtlasError):
    code = "budget"


class ContradictionError(HiggsAtlasError):
    code = "contradiction"


class ParityViolationError(HiggsAtlasError):
    code = "parity-violation"


class ModelInvariantError(HiggsAtlasError):
    code = "model-invariant"


class ParseError(HiggsAtlasError):
    code = "parse"


def _read_int(text: str, signed: bool = False) -> int | None:
    """``text`` as an integer when it is ASCII digits, after one leading
    ``-`` if ``signed``; otherwise None.  This is the package's one rule for
    integers written as text: ``int`` would also take spaces, ``+``, ``_``
    and non-ASCII digits, and none of those is accepted."""
    digits = text[1:] if signed and text.startswith("-") else text
    return int(text) if digits.isascii() and digits.isdigit() else None


class _Value:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``__slots__``, in the order of its
    ``__init__`` parameters, and sets each once with ``object.__setattr__``
    after its checks.  A type stores only what its other fields do not
    decide: a value read off them (a verdict's status and note, whether a
    limit exists, a group tag's kind) is a property, computed when it is
    read.  Equality, hashing and ``repr`` are those of a frozen
    dataclass with the same fields: equal only to an instance of the same
    class, ``hash`` of the field tuple, ``Name(field=value, ...)``.  A type
    on a hot path writes its own ``__eq__`` and ``__hash__``, because the
    generic ones read the fields through ``getattr``.  Nothing is generated
    or compiled when a subclass is defined.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which runs the checks
        return self.__class__, self._fields()


__all__ = [
    "HiggsAtlasError", "UnresolvedDegreeError", "DimensionMismatchError",
    "MissingSpinError", "BoundError", "PreconditionError", "WrongGroupError",
    "UnsupportedGroupError", "UnrecognizedShapeError", "BudgetError",
    "ContradictionError", "ParityViolationError", "ModelInvariantError", "ParseError",
]
