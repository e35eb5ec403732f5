"""Group tags, the kind each tag is, and the one rule for each kind's label range.

A group is named by a family and its integer parameters, written
``family:p1,p2`` on the command line and in documents (``so0:2,3``,
``sp:4``).  The catalog, the builders and the object model all read these
facts, so they live apart from any of them.
"""

from __future__ import annotations

from .errors import BoundError, ParseError, UnsupportedGroupError, _Value, _read_int

_FAMILIES = ("sl", "psl", "sp", "so", "so0", "slc")

# The low-rank tags whose facts differ from their family's general rule,
# each a kind of its own, named by the tag.
_OWN_KIND = {
    ("sl", (2,)): "sl:2", ("sp", (2,)): "sp:2", ("sp", (4,)): "sp:4", ("psl", (2,)): "psl:2",
    ("so", (1, 2)): "so:1,2", ("so0", (1, 2)): "so0:1,2", ("so0", (2, 3)): "so0:2,3",
    ("so0", (3, 5)): "so0:3,5",
}


class GroupTag(_Value):
    """A group family and its parameters: a rank, or a signature pair.

    ``kind`` names the rules the tag follows, so that the catalog and the CLI
    branch on it, never on the parameters: ``split`` (SO0(n,n+1), n >= 3),
    ``hermitian`` (SO0(2,n), n >= 4), ``so0:n,n``, a low-rank tag of
    ``_OWN_KIND``, else the family.  It is read off the two fields each time,
    not stored, so a tag holds only its family and parameters.
    """

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

    @property
    def kind(self) -> str:
        kind = _OWN_KIND.get((self.family, self.params), self.family)
        if kind == "so0":
            p, q = self.params
            if q == p + 1:
                return "split"
            if p == 2 and q >= 4:
                return "hermitian"
            if p == q:
                return "so0:n,n"
        return kind

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


# The largest label of each kind that records one, in units of g - 1, from
# the tag's first parameter n.
_BOUND_UNITS = {
    "sl:2": lambda n: 1, "sp:2": lambda n: 1, "sp:4": lambda n: 2, "sp": lambda n: n // 2,
    "psl:2": lambda n: 2, "so:1,2": lambda n: 2, "so0:1,2": lambda n: 2,
    "so0:2,3": lambda n: 4, "split": lambda n: 2 * n, "hermitian": lambda n: 2,
}


def milnor_wood_bound(group: GroupTag, genus: int) -> int:
    """Largest allowed value of the integer component label: the one place
    a kind's label range is decided."""
    try:
        units = _BOUND_UNITS[group.kind]
    except KeyError:
        raise UnsupportedGroupError(f"no bound recorded for {group}") from None
    return units(group.params[0]) * (genus - 1)


def _check_label(group: GroupTag, genus: int, d: int, positive: bool = False) -> int:
    """Refuse an integer label outside -bound..bound, or 1..bound when
    ``positive``; return the bound.  Every label range is read here."""
    bound = milnor_wood_bound(group, genus)
    low = 1 if positive else -bound
    if not low <= d <= bound:
        raise BoundError(f"label {d} of {group} is outside {low}..{bound} at genus {genus}")
    return bound


__all__ = ["GroupTag", "milnor_wood_bound"]
