"""Exact slope stability for summand-generated subobjects.

Every summand has a well-defined integer degree, so for the objects built
here (total degree zero) the slope comparisons reduce to signs of degree
sums over arrow-closed subsets of summand indices.  The scan is exhaustive
over the subset lattice, which is the definition rather than a heuristic;
its cost is the reason for the budget guard.

A subset is arrow-closed when every matrix entry and every extension term
with source inside the subset also has its target inside.  Closed subsets
correspond to the subobjects generated by summands; for the families
produced by the builders these detect all destabilizing subobjects, which
is why ``check_polystability`` refuses unrecognized shapes unless the
caller explicitly asserts that summand-generated subobjects suffice.

No arrow joins two connected components of the summand graph, so the
closed subsets of an object are the unions of one closed subset per
component.  ``check_polystability`` therefore scans each component on its
own, at a cost of the sum of 2^|C| over components C instead of 2^n, and
puts the verdict back together exactly (see its docstring).
"""

from __future__ import annotations

import os

from .errors import (
    BudgetError,
    ModelInvariantError,
    ParseError,
    UnrecognizedShapeError,
    _Value,
    _read_int,
)
from .higgsmodel import GradedHiggsBundle

STATUS_STABLE = "stable"
STATUS_POLYSTABLE = "polystable"
STATUS_UNSTABLE = "unstable"

DEFAULT_BUDGET = 2 ** 24


def subset_budget() -> int:
    """The work budget from HIGGS_ATLAS_BUDGET; unset or empty means
    DEFAULT_BUDGET, anything but a positive integer is rejected."""
    raw = os.environ.get("HIGGS_ATLAS_BUDGET", "")
    budget = _read_int(raw) if raw else DEFAULT_BUDGET
    if not budget:
        raise ParseError(f"HIGGS_ATLAS_BUDGET must be a positive integer, not {raw!r}")
    return budget


class InvariantSubobject(_Value):
    """An arrow-closed set of summand indices and its total degree."""

    __slots__ = ("indices", "degree")

    def __init__(self, indices: tuple[int, ...], degree: int):
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "degree", degree)

    @property
    def size(self) -> int:
        return len(self.indices)


class StabilityVerdict(_Value):
    """A polystability status, with a destabilizing witness or a stable decomposition."""

    __slots__ = ("status", "witness", "decomposition", "note")

    def __init__(
        self,
        status: str,
        witness: InvariantSubobject | None = None,
        decomposition: tuple[tuple[int, ...], ...] | None = None,
        note: str = "",
    ):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "decomposition", decomposition)
        object.__setattr__(self, "note", note)

    @property
    def is_polystable(self) -> bool:
        return self.status in (STATUS_STABLE, STATUS_POLYSTABLE)

    @property
    def is_stable(self) -> bool:
        return self.status == STATUS_STABLE

    def to_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.witness is not None:
            out["witness"] = {
                "indices": list(self.witness.indices),
                "degree": self.witness.degree,
            }
        if self.decomposition is not None:
            out["decomposition"] = [list(part) for part in self.decomposition]
        if self.note:
            out["note"] = self.note
        return out


def _arrows(h: GradedHiggsBundle) -> list[tuple[int, int]]:
    pairs = {(e.source, e.target) for e in h.higgs}
    pairs |= {(t.source, t.target) for t in h.dolbeault}
    return sorted(pairs)


def _is_closed(mask: int, arrows: list[tuple[int, int]]) -> bool:
    for src, tgt in arrows:
        if mask >> src & 1 and not mask >> tgt & 1:
            return False
    return True


def _check_budget(n: int, size: int) -> None:
    budget = subset_budget()
    if size > budget:
        raise BudgetError(
            f"subset scan over {n} summands exceeds the budget {budget}",
            n=n,
            budget=budget,
            size=size,
        )


def _closed_subsets(
    members: tuple[int, ...], arrows: list[tuple[int, int]], degrees: tuple[int, ...]
) -> list[InvariantSubobject]:
    """Every arrow-closed subset of ``members``, a set of indices that no
    arrow leaves, in mask order; the masks run over local positions."""
    local = {g: i for i, g in enumerate(members)}
    arcs = [(local[src], local[tgt]) for src, tgt in arrows if src in local]
    out = []
    for mask in range(1 << len(members)):
        if not _is_closed(mask, arcs):
            continue
        indices = tuple(g for i, g in enumerate(members) if mask >> i & 1)
        out.append(InvariantSubobject(indices, sum(degrees[i] for i in indices)))
    return out


def components(h: GradedHiggsBundle) -> tuple[tuple[int, ...], ...]:
    """Connected components of the summand graph, arrows taken undirected."""
    n = len(h.summands)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for src, tgt in _arrows(h):
        ra, rb = find(src), find(tgt)
        if ra != rb:
            parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def _best_witness(cands: list[InvariantSubobject]) -> InvariantSubobject:
    return min(cands, key=lambda s: (-s.degree, s.size, s.indices))


def check_polystability(
    h: GradedHiggsBundle, assume_summand_generated: bool = False
) -> StabilityVerdict:
    """Trichotomy verdict for an object of total degree zero.

    stable:      every proper nonzero closed subset has negative degree.
    polystable:  the closed subsets of degree zero are exactly unions of
                 graph components, each component stable on its own.
    unstable:    a closed subset of positive degree exists, or a closed
                 degree-zero subset cuts through a component (the object
                 is then an extension that does not split off its
                 destabilizing subobject, so it is not polystable).

    Each component is scanned on its own; the work is the sum of 2^|C|
    over components C, and it is what the budget bounds.  The closed
    subsets of largest degree are closed under union and intersection, so
    the smallest one is unique: it is the positive-degree witness, the
    union of each component's smallest closed subset of largest degree.
    When no closed subset has positive degree, the part of a degree-zero
    closed subset inside each component is closed of degree zero too (no
    part is positive and the parts sum to zero), so the least subset that
    cuts through a component lies inside a single one.  Both arguments
    need the total degree to vanish, which ``validate`` enforces.

    Higher-rank block summands are treated as atomic indices; they enter
    with their recorded degree and are taken internally stable, which is
    part of what the builders guarantee.
    """
    if not (assume_summand_generated or "family" in h.meta_map):
        raise UnrecognizedShapeError(
            "object was not produced by a recognized builder; pass "
            "assume_summand_generated=True to scan summand-generated "
            "subobjects anyway"
        )
    n = len(h.summands)
    comps = components(h)
    _check_budget(n, sum(1 << len(part) for part in comps))
    arrows, degrees = _arrows(h), h.degrees()
    if sum(degrees) != 0:
        raise ModelInvariantError("total degree must vanish")
    tops: list[InvariantSubobject] = []
    zero: list[InvariantSubobject] = []
    for part in comps:
        subs = _closed_subsets(part, arrows, degrees)
        tops.append(_best_witness(subs))
        zero.extend(s for s in subs if s.degree == 0 and 0 < s.size < len(part))
    if any(top.degree > 0 for top in tops):
        return StabilityVerdict(
            STATUS_UNSTABLE,
            witness=InvariantSubobject(
                tuple(sorted(i for top in tops for i in top.indices)),
                sum(top.degree for top in tops),
            ),
            note="destabilizing subobject of positive degree",
        )
    if zero:
        return StabilityVerdict(
            STATUS_UNSTABLE,
            witness=_best_witness(zero),
            note="degree-zero subobject that does not split off; "
            "semistable but not polystable",
        )
    if len(comps) <= 1:
        return StabilityVerdict(STATUS_STABLE, decomposition=(tuple(range(n)),))
    return StabilityVerdict(
        STATUS_POLYSTABLE,
        decomposition=comps,
        note=f"direct sum of {len(comps)} stable factors of degree zero",
    )


__all__ = [
    "STATUS_STABLE",
    "STATUS_POLYSTABLE",
    "STATUS_UNSTABLE",
    "DEFAULT_BUDGET",
    "subset_budget",
    "InvariantSubobject",
    "StabilityVerdict",
    "components",
    "check_polystability",
]
