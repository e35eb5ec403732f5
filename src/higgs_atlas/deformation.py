"""Graded one-parameter degenerations of decorated objects.

A gauge weight vector assigns an integer to every summand, compatible with
the pairing (paired summands carry opposite weights, so self-paired ones
carry zero).  Rescaling the summands by t^w and the field by t multiplies
the matrix entry from summand s to summand t by t^(scale + w_t - w_s) and
an extension term by t^(w_t - w_s); the limits at 0 and infinity therefore
exist exactly when every exponent, with the sign flipped for the limit at
infinity, is nonnegative, and the limit object keeps the exponent-zero
entries and drops the positive ones.

Everything here is integer bookkeeping over those exponents; no analysis
enters.  The destabilizing-branch construction reproduces, as a fixture,
the degeneration used to connect the extension-deformed object to the
split locus when the deformed object fails to be stable.
"""

from __future__ import annotations

import itertools

from .curve import Curve
from .errors import (
    BoundError,
    BudgetError,
    ContradictionError,
    DimensionMismatchError,
    ParityViolationError,
    PreconditionError,
    WrongGroupError,
    _Value,
)
from .groups import GroupTag, _check_label
from .higgsmodel import GradedHiggsBundle, bundle_to_dict, named_section
from .stability import StabilityVerdict, check_polystability, subset_budget

DIRECTION_TO_ZERO = "to-zero"
DIRECTION_TO_INFINITY = "to-infinity"


class WeightAssignment(_Value):
    """An integer gauge weight per summand and the weight of the field."""

    __slots__ = ("weights", "higgs_scale")

    def __init__(self, weights: tuple[int, ...], higgs_scale: int = 1):
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "higgs_scale", higgs_scale)

    def validate_against(self, h: GradedHiggsBundle) -> None:
        if len(self.weights) != len(h.summands):
            raise DimensionMismatchError(
                f"{len(self.weights)} weights for {len(h.summands)} summands"
            )
        for i, j in enumerate(h.sigma):
            if self.weights[i] != -self.weights[j]:
                raise PreconditionError(
                    f"weights are not pairing-compatible at ({i},{j}): "
                    f"{self.weights[i]} vs {self.weights[j]}"
                )


class ExponentRow(_Value):
    """The power of t scaling one field entry or extension term."""

    __slots__ = ("kind", "target", "source", "name", "exponent")

    def __init__(self, kind: str, target: int, source: int, name: str, exponent: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "exponent", exponent)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.target, self.source, self.name, self.exponent) == (
                other.kind, other.target, other.source, other.name, other.exponent
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.target, self.source, self.name, self.exponent))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "to": self.target,
            "from": self.source,
            "name": self.name,
            "exponent": self.exponent,
        }


class LimitResult(_Value):
    """A graded limit: its exponents and the limit object, None when an
    exponent is negative; ``exists`` is read off the limit."""

    __slots__ = ("direction", "weights", "exponents", "limit", "source", "limit_stability")

    def __init__(
        self,
        direction: str,
        weights: WeightAssignment,
        exponents: tuple[ExponentRow, ...],
        limit: GradedHiggsBundle | None,
        source: GradedHiggsBundle,
        limit_stability: StabilityVerdict | None = None,
    ):
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "limit_stability", limit_stability)

    @property
    def exists(self) -> bool:
        return self.limit is not None

    def to_dict(self) -> dict:
        out: dict = {
            "exists": self.exists,
            "direction": self.direction,
            "weights": list(self.weights.weights),
            "scale": self.weights.higgs_scale,
            "exponents": [r.to_dict() for r in self.exponents],
        }
        if self.limit is not None:
            out["limit"] = bundle_to_dict(self.limit)
        if self.limit_stability is not None:
            out["limit_stability"] = self.limit_stability.to_dict()
        return out


def exponent_table(
    h: GradedHiggsBundle, w: WeightAssignment, direction: str = DIRECTION_TO_ZERO
) -> tuple[ExponentRow, ...]:
    """The exponent of every field entry, then of every extension term, under ``w``."""
    w.validate_against(h)
    if direction not in (DIRECTION_TO_ZERO, DIRECTION_TO_INFINITY):
        raise PreconditionError(f"unknown direction {direction!r}")
    flip = -1 if direction == DIRECTION_TO_INFINITY else 1
    rows = []
    for e in h.higgs:
        exp = w.higgs_scale + w.weights[e.target] - w.weights[e.source]
        rows.append(ExponentRow("higgs", e.target, e.source, e.symbol.name, flip * exp))
    for t in h.dolbeault:
        exp = w.weights[t.target] - w.weights[t.source]
        rows.append(ExponentRow("dolbeault", t.target, t.source, t.name, flip * exp))
    return tuple(rows)


def graded_limit(
    h: GradedHiggsBundle,
    w: WeightAssignment,
    direction: str = DIRECTION_TO_ZERO,
    with_stability: bool = False,
) -> LimitResult:
    """Limit of the rescaled family, when every exponent is nonnegative.

    The limit keeps exactly the exponent-zero entries; pairing symmetry of
    the weights makes the kept set transpose-closed, so the limit is again
    a valid object of the same group, with the same summand degrees, exactly
    when ``h`` is: a marked ``h`` passes its mark on.
    """
    exponents = exponent_table(h, w, direction)
    if any(r.exponent < 0 for r in exponents):
        return LimitResult(direction, w, exponents, None, h)
    rows = iter(exponents)  # the Higgs entries' rows, then the extension terms'
    limit = h._with(
        h._degrees,
        higgs=tuple(e for e, r in zip(h.higgs, rows) if r.exponent == 0),
        dolbeault=tuple(t for t, r in zip(h.dolbeault, rows) if r.exponent == 0),
    )
    verdict = check_polystability(limit) if with_stability else None
    return LimitResult(direction, w, exponents, limit, h, verdict)


def zero_weights(h: GradedHiggsBundle, higgs_scale: int = 1) -> WeightAssignment:
    return WeightAssignment((0,) * len(h.summands), higgs_scale)


# -- the worked degeneration fixtures -----------------------------------------

DEFORMED_SO35_RETRACTION = WeightAssignment((2, 0, -2, 3, 1, -1, -3, 0))
DEFORMED_SO35_STABLE_BRANCH = WeightAssignment((2, 0, -2, 0, 1, -1, 0, 0))


class NDescriptor(_Value):
    """Destabilizing line datum for the deformed signature-(3,5) object:
    a line subbundle of the rank-2 part, of positive degree matching the
    parity of the component label, with its upper connecting section
    alpha necessarily nonzero."""

    __slots__ = ("degree", "alpha_nonzero")

    def __init__(self, degree: int, alpha_nonzero: bool = True):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "alpha_nonzero", alpha_nonzero)


def limit_destabilized_branch(
    h: GradedHiggsBundle, line: NDescriptor
) -> LimitResult:
    """Degeneration used when the extension-deformed object is unstable.

    Swaps the split rank-2 part for the destabilizing line and its dual,
    rewires the connecting sections (beta up, alpha down, gamma through
    the extension summand, plus the delta extension term), and takes the
    limit at zero under the fixed pairing-compatible weights.  The label
    d of the meta must be the declared degree of M.
    """
    # here rather than at the top, so the other limit verbs load no builders
    from .builders import _integer_label, _so35_frame

    if h.meta_map.get("family") != "deformed-exotic-so35":
        raise WrongGroupError(
            "the destabilized branch is defined for the extension-deformed "
            "signature-(3,5) family only"
        )
    d = _integer_label(h)
    bound = _check_label(GroupTag("so0", (3, 4)), h.genus, d, positive=True)
    if d != (deg_m := h.declared_map.get("M")):
        raise PreconditionError(f"the component label d = {d} is not deg M = {deg_m}")
    if not line.alpha_nonzero:
        raise ContradictionError(
            "a destabilizing line with alpha = 0 would leave the rank-2 part "
            "split, contradicting instability of the deformed object"
        )
    if line.degree <= 0:
        raise BoundError(f"the destabilizing line needs positive degree, got {line.degree}")
    if line.degree > bound:
        raise BoundError(f"alpha lives in a bundle of degree {bound - line.degree} < 0")
    if (line.degree - d) % 2:
        raise ParityViolationError(
            f"deg N = {line.degree} must match the parity of d = {d}"
        )
    alpha = named_section("alpha")
    beta = named_section("beta")
    gamma = named_section("gamma")
    branch = _so35_frame(
        Curve(h.genus),
        "N",
        line.degree,
        [(3, 2, beta), (0, 6, beta), (6, 2, alpha), (0, 3, alpha), (7, 2, gamma), (0, 7, gamma)],
        [(3, 7, "delta"), (7, 6, "delta")],
        {"family": "destabilized-branch-so35", "d": d, "line_degree": line.degree},
    )
    return graded_limit(branch, DEFORMED_SO35_RETRACTION, DIRECTION_TO_ZERO)


# -- weight search -------------------------------------------------------------

_SEARCH_SUMMAND_CAP = 10


def search_admissible_weights(
    h: GradedHiggsBundle,
    bound: int,
    direction: str = DIRECTION_TO_ZERO,
    higgs_scale: int = 1,
) -> tuple[tuple[WeightAssignment, LimitResult], ...]:
    """All pairing-compatible weight vectors with entries in [-bound, bound]
    whose limit exists, one representative per distinct limit object (the
    lexicographically smallest weight vector), sorted by weight vector.
    An object of more than ten summands, or a search of more vectors than
    the budget, is refused with BudgetError; both refusals report the
    vector count (2 bound + 1)^(free pairing coordinates) as ``size``."""
    if bound < 0 or bound > 6:
        raise BoundError("the search bound must lie in [0, 6]")
    n = len(h.summands)
    free = [i for i, j in enumerate(h.sigma) if i < j]
    count = (2 * bound + 1) ** len(free)
    if n > _SEARCH_SUMMAND_CAP:
        raise BudgetError(
            f"weight search over {n} summands is not supported",
            n=n,
            cap=_SEARCH_SUMMAND_CAP,
            size=count,
        )
    budget = subset_budget()
    if count > budget:
        raise BudgetError(
            f"weight search of size {count} exceeds the budget {budget}",
            size=count,
            budget=budget,
        )
    found: dict[tuple, tuple[WeightAssignment, LimitResult]] = {}
    for combo in itertools.product(range(-bound, bound + 1), repeat=len(free)):
        weights = [0] * n
        for val, i in zip(combo, free):
            weights[i] = val
            weights[h.sigma[i]] = -val
        w = WeightAssignment(tuple(weights), higgs_scale)
        res = graded_limit(h, w, direction)
        if not res.exists:
            continue
        key = (res.limit.higgs, res.limit.dolbeault)
        if key not in found:
            found[key] = (w, res)
    return tuple(sorted(found.values(), key=lambda pair: pair[0].weights))


__all__ = [
    "DIRECTION_TO_ZERO",
    "DIRECTION_TO_INFINITY",
    "WeightAssignment",
    "ExponentRow",
    "LimitResult",
    "exponent_table",
    "graded_limit",
    "zero_weights",
    "NDescriptor",
    "limit_destabilized_branch",
    "DEFORMED_SO35_RETRACTION",
    "DEFORMED_SO35_STABLE_BRANCH",
    "search_admissible_weights",
]
