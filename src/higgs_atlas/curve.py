"""Base curve and exact section counting.

A compact Riemann surface of genus g >= 2 is the only geometric input the
whole package needs; everything downstream is formal algebra over it.  The
key operation is ``h0``: an integer count of independent holomorphic
sections of a formal line bundle, split into the cases where the count is
an exact theorem of Riemann-Roch / Serre duality and the cases where it is
only the generic expectation.
"""

from __future__ import annotations

from .errors import _Value

EXACT = "exact"
GENERIC = "generic-assumption"


class Curve(_Value):
    """Genus marker for the base surface.  genus >= 2 throughout."""

    __slots__ = ("genus",)

    def __init__(self, genus: int):
        if not isinstance(genus, int) or genus < 2:
            raise ValueError(f"genus must be an integer >= 2, got {genus!r}")
        object.__setattr__(self, "genus", genus)

    @property
    def canonical_degree(self) -> int:
        return 2 * self.genus - 2


class SectionCount(_Value):
    """h^0 value together with its epistemic status.

    ``exactness`` is EXACT when the value is forced for every bundle of the
    given shape, GENERIC when it is the count for a generic bundle of that
    degree (special bundles may have more sections).
    """

    __slots__ = ("value", "exactness")

    def __init__(self, value: int, exactness: str):
        if exactness not in (EXACT, GENERIC):
            raise ValueError(f"bad exactness tag {exactness!r}")
        if value < 0:
            raise ValueError("section count cannot be negative")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "exactness", exactness)


def riemann_roch_chi(curve: Curve, degree: int) -> int:
    """Euler characteristic chi(L) = deg L - g + 1 of a line bundle."""
    return degree - curve.genus + 1


def h0(curve: Curve, bundle, declared=None) -> SectionCount:
    """Count sections of a formal line bundle expression.

    Decision table, first match wins:
      negative degree          -> 0, exact
      the trivial bundle       -> 1, exact
      the canonical bundle     -> g, exact
      degree above 2g-2        -> deg - g + 1, exact (Riemann-Roch, h^1 = 0)
      anything else            -> max(0, deg - g + 1), generic assumption

    Triviality / canonicity is recognized syntactically: only a bare power
    of K qualifies.  A degree-0 expression that is not literally the
    trivial bundle falls through to the generic row.

    ``declared`` is a mapping from named symbols to their integer degrees.
    A symbol without a declared degree raises UnresolvedDegreeError.
    """
    deg = bundle.resolved_degree(curve.genus, declared or {})
    g = curve.genus
    if deg < 0:
        return SectionCount(0, EXACT)
    power = bundle.canonical_power()
    if power == 0:
        return SectionCount(1, EXACT)
    if power == 1:
        return SectionCount(g, EXACT)
    if deg > 2 * g - 2:
        return SectionCount(deg - g + 1, EXACT)
    return SectionCount(max(0, deg - g + 1), GENERIC)


__all__ = [
    "Curve",
    "SectionCount",
    "EXACT",
    "GENERIC",
    "riemann_roch_chi",
    "h0",
]
