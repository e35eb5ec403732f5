"""Exception hierarchy shared by every module, and the one integer reader.

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


__all__ = [
    "HiggsAtlasError", "UnresolvedDegreeError", "DimensionMismatchError",
    "MissingSpinError", "BoundError", "PreconditionError", "WrongGroupError",
    "UnsupportedGroupError", "UnrecognizedShapeError", "BudgetError",
    "ContradictionError", "ParityViolationError", "ModelInvariantError", "ParseError",
]
