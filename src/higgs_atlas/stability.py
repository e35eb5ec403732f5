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

The entries are walked once, into a successor and a predecessor bitmask
per summand; the components are read off those masks, and each component
reads its arcs off its own members' successor masks.  The scan of a
component keeps two running keys (-degree, size, indices), the least
closed subset and the least proper nonempty closed subset of degree zero,
and no object for any other closed subset: a verdict builds one
``InvariantSubobject``, its witness.  The loop itself still tests every
one of the 2^|C| masks against the arcs, as the definition reads.  An
output-sensitive enumeration (ROADMAP item 3) waits for the benchmark to
let each question go once it is checked: while every question of a run is
kept, a much faster scan asks more of them and raises the run's peak
memory past its bound.
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
from .higgsmodel import GradedHiggsBundle, validate

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


class StabilityVerdict(_Value):
    """A destabilizing witness or a stable decomposition, exactly one of
    them; the status and the note are read off it: unstable with a witness,
    stable with a decomposition of one part, polystable with more."""

    __slots__ = ("witness", "decomposition")

    def __init__(
        self,
        witness: InvariantSubobject | None,
        decomposition: tuple[tuple[int, ...], ...] | None,
    ):
        if (witness is None) == (decomposition is None):
            raise ValueError("a verdict has exactly one of a witness and a decomposition")
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "decomposition", decomposition)

    @property
    def status(self) -> str:
        if self.witness is not None:
            return STATUS_UNSTABLE
        return STATUS_STABLE if len(self.decomposition) == 1 else STATUS_POLYSTABLE

    @property
    def note(self) -> str:
        if self.witness is not None:
            if self.witness.degree:
                return "destabilizing subobject of positive degree"
            return "degree-zero subobject that does not split off; semistable but not polystable"
        if len(self.decomposition) == 1:
            return ""
        return f"direct sum of {len(self.decomposition)} stable factors of degree zero"

    @property
    def is_polystable(self) -> bool:
        return self.witness is None

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
        else:
            out["decomposition"] = [list(part) for part in self.decomposition]
        if note := self.note:
            out["note"] = note
        return out


def _masks(h: GradedHiggsBundle) -> tuple[list[int], list[int]]:
    """One walk of the entries into successor and predecessor masks: bit j
    of ``succ[i]``, and bit i of ``pred[j]``, is set when an entry or an
    extension term maps summand i to summand j."""
    succ, pred = [0] * len(h.summands), [0] * len(h.summands)
    for arrow in h.higgs + h.dolbeault:
        succ[arrow.source] |= 1 << arrow.target
        pred[arrow.target] |= 1 << arrow.source
    return succ, pred


def _indices(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _closed_subsets(
    members: tuple[int, ...], succ: list[int], degrees: tuple[int, ...]
) -> tuple[tuple, tuple | None]:
    """The least arrow-closed subset of ``members`` (one that no arrow
    leaves) and the least proper nonempty one of degree zero (None when
    there is none), each as its key (-degree, size, indices).  The masks
    run over local positions, and only the two running least keys are kept."""
    arcs = [(i, members.index(t)) for i, s in enumerate(members) for t in _indices(succ[s])]
    top, zero = (0, 0, ()), None  # the empty set is closed
    for mask in range(1, 1 << len(members)):
        for src, tgt in arcs:
            if mask >> src & 1 and not mask >> tgt & 1:
                break
        else:
            indices = tuple([g for i, g in enumerate(members) if mask >> i & 1])
            key = (-sum([degrees[g] for g in indices]), len(indices), indices)
            top = min(top, key)
            if key[0] == 0 and key[1] < len(members):
                zero = min(zero or key, key)
    return top, zero


def _components(succ: list[int], pred: list[int]) -> tuple[tuple[int, ...], ...]:
    parts, seen = [], 0
    for i in range(len(succ)):
        if not seen >> i & 1:
            part, todo = 1 << i, [i]
            while todo:
                j = todo.pop()
                grown = (succ[j] | pred[j]) & ~part
                part |= grown
                todo += _indices(grown)
            seen |= part
            parts.append(tuple(_indices(part)))
    return tuple(parts)


def components(h: GradedHiggsBundle) -> tuple[tuple[int, ...], ...]:
    """Connected components of the summand graph, arrows taken undirected,
    each sorted, in order of their least index."""
    return _components(*_masks(h))


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
    over components C, and it is what the budget bounds.  One walk of the
    entries gives the successor and predecessor masks that the components
    and every component's arcs are read from.  Each scan keeps only two
    running keys (-degree, size, indices), its least closed subset and its
    least proper nonempty closed subset of degree zero; the one
    ``InvariantSubobject`` built is the witness.  Every mask of a component
    is still tested, so the cost per mask is that of the definition.  The
    subsets of largest degree are closed under union and intersection, so
    the smallest one is unique: it is the positive-degree witness, the
    union of each component's smallest closed subset of largest degree.
    When no closed subset has positive degree, the part of a degree-zero
    closed subset inside each component is closed of degree zero too (no
    part is positive and the parts sum to zero), so the least subset that
    cuts through a component lies inside a single one.  Both arguments
    need the total degree to vanish, which ``validate`` enforces.

    The guards come in order: the shape, the budget on the sum of 2^|C|,
    the total degree, then ``validate`` (at once for a marked object), so
    an object that fails the structural checks, a genus below 2 included,
    is refused rather than answered.

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
    succ, pred = _masks(h)
    comps = _components(succ, pred)
    size, budget = sum(1 << len(part) for part in comps), subset_budget()
    if size > budget:
        raise BudgetError(
            f"subset scan over {n} summands exceeds the budget {budget}",
            n=n, budget=budget, size=size,
        )
    degrees = h.degrees()
    if sum(degrees) != 0:
        raise ModelInvariantError("total degree must vanish")
    validate(h)
    scans = [_closed_subsets(part, succ, degrees) for part in comps]
    tops = [top for top, _ in scans]
    zeros = [zero for _, zero in scans if zero is not None]
    if any(top[0] < 0 for top in tops):
        indices = tuple(sorted(i for top in tops for i in top[2]))
        return StabilityVerdict(InvariantSubobject(indices, -sum(top[0] for top in tops)), None)
    if zeros:
        return StabilityVerdict(InvariantSubobject(min(zeros)[2], 0), None)
    return StabilityVerdict(None, comps if len(comps) > 1 else (tuple(range(n)),))


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
