"""Group tags and the one rule that decides each family's label range.

A group is named by a family and its integer parameters, written
``family:p1,p2`` on the command line and in documents (``so0:2,3``,
``sp:4``).  The catalog, the builders and the object model all read these
facts, so they live apart from any of them.
"""

from __future__ import annotations

from .errors import BoundError, ParseError, UnsupportedGroupError, _Value, _read_int

_FAMILIES = ("sl", "psl", "sp", "so", "so0", "slc")


class GroupTag(_Value):
    """A group family and its parameters: a rank, or a signature pair."""

    __slots__ = ("family", "params")

    def __init__(self, family: str, params: tuple[int, ...]):
        if family not in _FAMILIES:
            raise ValueError(f"unknown group family {family!r}")
        if not params or any(p < 1 for p in params):
            raise ValueError("group parameters must be positive integers")
        if family in ("sl", "psl", "slc", "sp"):
            if len(params) != 1 or params[0] < 2:
                raise ValueError(f"{family} takes one parameter >= 2")
            if family == "sp" and params[0] % 2:
                raise ValueError("symplectic rank parameter must be even")
        elif len(params) != 2:
            raise ValueError(f"{family} takes a signature pair")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.family, self.params) == (other.family, other.params)
        return NotImplemented

    def __hash__(self):
        return hash((self.family, self.params))

    def __str__(self) -> str:
        return f"{self.family}:{','.join(str(p) for p in self.params)}"

    @staticmethod
    def parse(text: str) -> "GroupTag":
        family, colon, rest = text.partition(":")
        params = tuple(_read_int(p) for p in rest.split(","))
        try:
            if not colon or None in params:
                raise ValueError("group parameters must be integers")
            return GroupTag(family, params)
        except ValueError as exc:
            raise ParseError(f"bad group tag {text!r}") from exc


def milnor_wood_bound(group: GroupTag, genus: int) -> int:
    """Largest allowed value of the integer component label: the one place
    a family's label range is decided."""
    g = genus
    fam, params = group.family, group.params
    if fam == "sl" and params == (2,):
        return g - 1
    if fam == "sp":
        return (params[0] // 2) * (g - 1)
    if fam == "so0" and params[1] == params[0] + 1:
        return params[0] * (2 * g - 2)
    if (fam, params) in (("psl", (2,)), ("so", (1, 2))):
        return 2 * g - 2
    if fam == "so0" and params[0] == 2 and params[1] >= 4:
        return 2 * g - 2
    raise UnsupportedGroupError(f"no bound recorded for {group}")


def _check_label(group: GroupTag, genus: int, d: int, positive: bool = False) -> int:
    """Refuse an integer label outside -bound..bound, or 1..bound when
    ``positive``; return the bound.  Every label range is read here."""
    bound = milnor_wood_bound(group, genus)
    low = 1 if positive else -bound
    if not low <= d <= bound:
        raise BoundError(f"label {d} of {group} is outside {low}..{bound} at genus {genus}")
    return bound


__all__ = ["GroupTag", "milnor_wood_bound"]
