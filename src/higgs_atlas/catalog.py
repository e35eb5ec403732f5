"""Connected-component catalog and exact dimension bookkeeping.

The censuses recorded here list components of character varieties (or of
their maximal-invariant sectors) for the group families the package
models, with one descriptor per component carrying its label, the common
dimension count, and, for the integer-labelled families, the exact finite
parameterization:

    vector space of sections  x  symmetric power of the curve  x  extra
    differentials,

whose complex dimensions add up to dim(G)(g - 1) independently of the
label.  That telescoping identity is checked, not assumed; it is also
what pins down the reading of the extra factor for the odd split
orthogonal families (a product of section spaces of even powers of K,
one per exponent, rather than copies of the quadratic one: the copies
reading fails the dimension count for n > 2).
"""

from __future__ import annotations

from .curve import Curve, h0
from .errors import BoundError, UnsupportedGroupError, _Value
from .f2classes import SWPair, all_classes
from .groups import GroupTag, _check_label, milnor_wood_bound
from .linebundle import K_power, variable

SECTOR_ALL = "all"
SECTOR_MAXIMAL = "maximal"

PIC_ZERO_RETRACTION = "Pic^0(X)/Z_2"


def group_dim(group: GroupTag) -> int:
    if group.family in ("sl", "psl", "slc"):
        (n,) = group.params
        return n * n - 1
    if group.family == "sp":
        (two_n,) = group.params
        return (two_n // 2) * (two_n + 1)
    # so and so0; ``GroupTag`` admits no other family
    m = sum(group.params)
    return m * (m - 1) // 2


def character_variety_dimension(group: GroupTag, genus: int) -> int:
    """Real dimension of any component: dim(G) (2g - 2)."""
    Curve(genus)
    return group_dim(group) * (2 * genus - 2)


def half_dimension(group: GroupTag, genus: int) -> int:
    return group_dim(group) * (genus - 1)


# -- parameterizations ---------------------------------------------------------

class Parameterization(_Value):
    """Product description of an integer-labelled component.

    fiber_rank:       complex dimension of the section space fiber
    base_exponent:    k in Sym^k(X), the divisor locus of the defining section
    extra_factor_dim: summed dimension of the extra differential spaces
    """

    __slots__ = ("fiber_rank", "base_exponent", "extra_factor_dim")

    def __init__(self, fiber_rank: int, base_exponent: int, extra_factor_dim: int):
        object.__setattr__(self, "fiber_rank", fiber_rank)
        object.__setattr__(self, "base_exponent", base_exponent)
        object.__setattr__(self, "extra_factor_dim", extra_factor_dim)

    @property
    def total(self) -> int:
        return self.fiber_rank + self.base_exponent + self.extra_factor_dim

    @property
    def base_label(self) -> str:
        return f"Sym^{self.base_exponent}"

    def to_dict(self) -> dict:
        return {
            "fiber_rank": self.fiber_rank,
            "base": self.base_label,
            "base_dimension": self.base_exponent,
            "extra_factor_dim": self.extra_factor_dim,
            "total": self.total,
        }


def _twist_rank(group: GroupTag) -> int:
    # PSL(2,R) is SO0(1,2): its label e has so0:1,2's bound and twist rank,
    # Hitchin's rank g - 1 + e bundle over Sym^(2g-2-e)(X).
    if group.kind == "psl:2":
        return 1
    if group.kind in ("so:1,2", "so0:1,2", "so0:2,3", "split"):
        return group.params[0]
    raise UnsupportedGroupError(
        f"no integer-labelled parameterization recorded for {group}"
    )


def extra_factor_dimension(curve: Curve, n: int) -> int:
    """Sum of the section-space dimensions of the even canonical powers
    K^2, K^4, ..., K^(2(n-1)); zero for n = 1."""
    return sum(h0(curve, K_power(2 * j)).value for j in range(1, n))


def parameterization(group: GroupTag, d: int, genus: int) -> Parameterization:
    """Exact parameterization of the component with label d > 0.

    The fiber is the full section space of the upward connecting bundle,
    the base is the symmetric power recording the divisor of the defining
    section, and the extra factor collects the even differentials.
    """
    curve = Curve(genus)
    n = _twist_rank(group)
    if d == 0:
        raise BoundError(
            "the degree-zero slot is a quotient, not a product",
            retraction=PIC_ZERO_RETRACTION,
        )
    bound = _check_label(group, genus, d, positive=True)
    fiber = h0(
        curve, variable("M").tensor(K_power(n)), declared={"M": d}
    )
    return Parameterization(
        fiber_rank=fiber.value,
        base_exponent=bound - d,
        extra_factor_dim=extra_factor_dimension(curve, n),
    )


def resolve_extra_factor_reading(n: int, genus: int) -> dict:
    """Compare the two candidate extra factors against the dimension count.

    needed = dim(G)(g-1) - fiber - base must not depend on d; the summed
    even powers match it for every n, the (n-1) copies of the quadratic
    space only at n = 2.  Returns the adopted reading with the numbers.
    """
    group = GroupTag("so", (1, 2)) if n == 1 else GroupTag("so0", (n, n + 1))
    p = parameterization(group, 1, genus)
    needed = half_dimension(group, genus) - p.fiber_rank - p.base_exponent
    summed = p.extra_factor_dim
    copies = (n - 1) * h0(Curve(genus), K_power(2)).value
    adopted = "sum of h0(K^(2j)), j = 1..n-1"
    if summed != needed:
        raise BoundError(
            f"dimension count broken at n={n}, genus={genus}: "
            f"needed {needed}, summed reading gives {summed}"
        )
    return {
        "n": n,
        "genus": genus,
        "needed": needed,
        "summed_even_powers": summed,
        "quadratic_copies": copies,
        "adopted": adopted,
        "readings_agree": summed == copies,
    }


# -- component descriptors and censuses ----------------------------------------

class ComponentDescriptor(_Value):
    """One component of a census: its label, dimension and what is known of its shape."""

    __slots__ = (
        "group", "label", "dimension", "parameterization", "retraction", "cover_multiplicity",
        "hitchin", "remark_level",
    )

    def __init__(
        self,
        group: GroupTag,
        label: str,
        dimension: int,
        parameterization: Parameterization | None = None,
        retraction: str | None = None,
        cover_multiplicity: int | None = None,
        hitchin: bool = False,
        remark_level: bool = False,
    ):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "parameterization", parameterization)
        object.__setattr__(self, "retraction", retraction)
        object.__setattr__(self, "cover_multiplicity", cover_multiplicity)
        object.__setattr__(self, "hitchin", hitchin)
        object.__setattr__(self, "remark_level", remark_level)

    def to_dict(self) -> dict:
        out: dict = {"label": self.label, "dimension": self.dimension}
        if self.parameterization is not None:
            out["parameterization"] = self.parameterization.to_dict()
        if self.retraction is not None:
            out["retraction"] = self.retraction
        if self.cover_multiplicity is not None:
            out["cover_multiplicity"] = self.cover_multiplicity
        if self.hitchin:
            out["hitchin"] = True
        if self.remark_level:
            out["remark_level"] = True
        return out


class Census(_Value):
    """The components of a group's character variety, or of its maximal sector."""

    __slots__ = ("group", "genus", "sector", "components", "complete", "note")

    def __init__(
        self,
        group: GroupTag,
        genus: int,
        sector: str,
        components: tuple[ComponentDescriptor, ...],
        complete: bool,
        note: str = "",
    ):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "sector", sector)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "complete", complete)
        object.__setattr__(self, "note", note)

    @property
    def total_count(self) -> int | None:
        return len(self.components) if self.complete else None

    def to_dict(self) -> dict:
        return {
            "group": str(self.group),
            "genus": self.genus,
            "sector": self.sector,
            "complete": self.complete,
            "total": self.total_count,
            "listed": len(self.components),
            "components": [c.to_dict() for c in self.components],
            "note": self.note,
        }


def _sw_labels(genus: int, nonzero_only: bool) -> list[SWPair]:
    out = []
    for cls in all_classes(genus):
        if nonzero_only and cls.is_zero():
            continue
        for sw2 in (0, 1):
            out.append(SWPair(cls, sw2))
    return out


def _labelled_rows(
    group: GroupTag, genus: int, dim: int, cover: bool = False, remark_level: bool = False
) -> list[ComponentDescriptor]:
    """One row per label d = 0..bound: d = 0 retracts onto Pic^0(X)/Z_2
    (``remark_level`` marks it), each d > 0 is a Sym^(bound - d)(X)-bundle
    with its parameterization, and d = bound is the Hitchin component.
    ``cover`` records the cover multiplicity, 1 at d = 0 and 2 above."""
    bound = milnor_wood_bound(group, genus)
    return [
        ComponentDescriptor(
            group,
            f"d={d}",
            dim,
            parameterization=parameterization(group, d, genus) if d else None,
            retraction=f"Sym^{bound - d}(X)-bundle" if d else PIC_ZERO_RETRACTION,
            cover_multiplicity=(2 if d else 1) if cover else None,
            hitchin=(d == bound),
            remark_level=remark_level and not d,
        )
        for d in range(bound + 1)
    ]


def census(group: GroupTag, genus: int, sector: str = SECTOR_ALL) -> Census:
    Curve(genus)
    dim = half_dimension(group, genus)
    if sector not in (SECTOR_ALL, SECTOR_MAXIMAL):
        raise UnsupportedGroupError(f"unknown sector {sector!r}")
    key = (group.kind, sector)

    if key == ("sl", SECTOR_ALL):
        (n,) = group.params
        comps = []
        if n % 2:
            for sw2 in (0, 1):
                comps.append(ComponentDescriptor(group, f"sw2={sw2}", dim))
            comps.append(ComponentDescriptor(group, "hitchin", dim, hitchin=True))
        else:
            for sw2 in (0, 1):
                for tag in ("a", "b"):
                    comps.append(ComponentDescriptor(group, f"sw2={sw2}:{tag}", dim))
            for tag in ("a", "b"):
                comps.append(
                    ComponentDescriptor(group, f"hitchin:{tag}", dim, hitchin=True)
                )
        return Census(group, genus, sector, tuple(comps), complete=True)

    if key in (("psl:2", SECTOR_ALL), ("so0:1,2", SECTOR_ALL)):
        bound = milnor_wood_bound(group, genus)
        comps = tuple(
            ComponentDescriptor(group, f"e={e}", dim, hitchin=(e == bound))
            for e in range(-bound, bound + 1)
        )
        return Census(group, genus, sector, comps, complete=True)

    if key in (("sl:2", SECTOR_ALL), ("sp:2", SECTOR_ALL)):
        bound = milnor_wood_bound(group, genus)
        comps = tuple(
            ComponentDescriptor(group, f"d={e}", dim, hitchin=(abs(e) == bound))
            for e in range(-bound, bound + 1)
        )
        return Census(group, genus, sector, comps, complete=True)

    if key == ("sp", SECTOR_MAXIMAL):
        comps = tuple(
            ComponentDescriptor(group, f"spin={cls.bits()}:{tag}", dim)
            for cls in all_classes(genus) for tag in ("a", "b", "c")
        )
        return Census(group, genus, sector, comps, complete=True,
                      note="maximal sector only; three components per spin choice")

    if key in (("so:1,2", SECTOR_ALL), ("so0:2,3", SECTOR_MAXIMAL)):
        comps = _labelled_rows(group, genus, dim, cover=group.family == "so")
        for pair in _sw_labels(genus, nonzero_only=True):
            comps.append(
                ComponentDescriptor(group, pair.label(), dim, retraction="Prym locus")
            )
        return Census(group, genus, sector, tuple(comps), complete=True,
                      note="maximal sector only" if sector == SECTOR_MAXIMAL else "")

    if key == ("hermitian", SECTOR_MAXIMAL):
        comps = tuple(
            ComponentDescriptor(group, pair.label(), dim)
            for pair in _sw_labels(genus, nonzero_only=False)
        )
        return Census(group, genus, sector, comps, complete=True,
                      note="maximal sector only; labels are the invariants of the "
                      "rank-(n-1) orthogonal complement")

    if key in (("split", SECTOR_ALL), ("so0:2,3", SECTOR_ALL)):
        comps = _labelled_rows(group, genus, dim, remark_level=True)
        return Census(group, genus, sector, tuple(comps), complete=False,
                      note=f"{len(comps) - 1} labelled components plus the degree-zero "
                      "slot; the remaining components are not enumerated here")

    raise UnsupportedGroupError(f"no census recorded for {group} in sector {sector!r}")


def dimension_consistency(group: GroupTag, genus: int, sector: str = SECTOR_ALL) -> dict:
    """Recompute every parameterization total in a census and compare with
    the half-dimension; returns the full report."""
    c = census(group, genus, sector)
    expected = half_dimension(group, genus)
    mismatches = []
    for comp in c.components:
        if comp.dimension != expected:
            mismatches.append({"label": comp.label, "dimension": comp.dimension})
        if comp.parameterization and comp.parameterization.total != expected:
            mismatches.append(
                {"label": comp.label, "total": comp.parameterization.total}
            )
    return {
        "group": str(group),
        "genus": genus,
        "sector": c.sector,
        "expected": expected,
        "checked": len(c.components),
        "mismatches": mismatches,
        "consistent": not mismatches,
    }


__all__ = [
    "SECTOR_ALL",
    "SECTOR_MAXIMAL",
    "PIC_ZERO_RETRACTION",
    "group_dim",
    "character_variety_dimension",
    "half_dimension",
    "Parameterization",
    "parameterization",
    "extra_factor_dimension",
    "resolve_extra_factor_reading",
    "ComponentDescriptor",
    "Census",
    "census",
    "dimension_consistency",
]
