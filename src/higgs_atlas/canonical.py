"""Gauge moves and canonical forms.

Reordering the summands, and for a family with a decomposed rank-2 part
the switching move, change an object's presentation but not the object.
``canonical_key`` and ``gauge_orbit_key`` name the object independently of
those choices, so two presentations can be compared.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Sequence

from .errors import BudgetError, WrongGroupError, _read_int
from .higgsmodel import (
    DolbeaultTerm,
    GradedHiggsBundle,
    HiggsEntry,
    SectionSymbol,
    Summand,
    canonical_json,
    validate,
)
from .linebundle import LineBundleExpr


def permute_summands(h: GradedHiggsBundle, order: Sequence[int]) -> GradedHiggsBundle:
    """Reindex summands; ``order[k]`` is the old index placed at slot k."""
    if sorted(order) != list(range(len(h.summands))):
        raise ValueError("not a permutation of the summand indices")
    out = _relabel(h, order)
    validate(out)
    return out


def _relabel(h: GradedHiggsBundle, order: Sequence[int]) -> GradedHiggsBundle:
    """``permute_summands`` without its checks: ``order`` must be a
    permutation, and the result is valid exactly when ``h`` is."""
    inv = {old: new for new, old in enumerate(order)}
    return replace(
        h,
        summands=tuple(h.summands[old] for old in order),
        sigma=tuple(inv[h.sigma[old]] for old in order),
        higgs=tuple(
            sorted(
                (HiggsEntry(inv[e.target], inv[e.source], e.symbol) for e in h.higgs),
                key=lambda e: (e.target, e.source),
            )
        ),
        dolbeault=tuple(
            sorted(
                (DolbeaultTerm(inv[t.target], inv[t.source], t.name) for t in h.dolbeault),
                key=lambda t: (t.target, t.source, t.name),
            )
        ),
    )


def switchable(h: GradedHiggsBundle) -> bool:
    return "switch_variable" in h.meta_map


def switched(h: GradedHiggsBundle) -> GradedHiggsBundle:
    """The other presentation of a family with a decomposed rank-2 part:
    replace M by its dual and exchange the two connecting sections."""
    meta = h.meta_map
    if not switchable(h):
        raise WrongGroupError("object has no declared switching move")
    var = str(meta["switch_variable"])
    first, second = str(meta["switch_sections"]).split(",")
    rename = {first: second, second: first}

    def flip(expr: LineBundleExpr) -> LineBundleExpr:
        vars_ = {n: (-e if n == var else e) for n, e in expr.variables}
        out = LineBundleExpr(
            k_power=expr.k_power,
            spins=expr.spins,
            torsions=expr.torsions,
            variables=tuple(sorted((n, e) for n, e in vars_.items() if e)),
            divisors=expr.divisors,
        )
        return out

    declared = dict(h.declared_map)
    if var in declared:
        declared[var] = -declared[var]
    new_meta = dict(meta)
    if "d" in new_meta and (d := _read_int(str(new_meta["d"]), signed=True)) is not None:
        new_meta["d"] = -d
    out = replace(
        h,
        summands=tuple(
            Summand(s.side, flip(s.bundle), s.rank, s.sw) for s in h.summands
        ),
        higgs=tuple(
            HiggsEntry(
                e.target,
                e.source,
                SectionSymbol(rename.get(e.symbol.name, e.symbol.name), e.symbol.kind, e.symbol.vanishing),
            )
            for e in h.higgs
        ),
        declared=tuple(sorted(declared.items())),
        meta=tuple(sorted(new_meta.items())),
    )
    validate(out)
    return out


def _summand_key(h: GradedHiggsBundle, i: int) -> tuple:
    s = h.summands[i]
    sw = s.sw.label() if s.sw else ""
    return (s.side, s.rank, s.bundle.serialize(), sw)


# 8!; exceeded by so0:2,n with trivial W0 once n >= 9 (n trivial W summands).
# `structurally_equal` and `gauge_equivalent` read it only for a pair whose
# permutation invariants agree, so above it they still answer "not equal".
_PERM_CAP = 40320


def _permutation_orbit(h: GradedHiggsBundle):
    """Every ordering of ``h`` that permutes only within groups of identical
    summands, as relabellings, which check nothing.  The cap is checked
    when this is called, before any ordering is made."""
    n = len(h.summands)
    base = sorted(range(n), key=lambda i: _summand_key(h, i))
    groups: list[list[int]] = []
    for i in base:
        if groups and _summand_key(h, groups[-1][0]) == _summand_key(h, i):
            groups[-1].append(i)
        else:
            groups.append([i])
    total = 1
    for grp in groups:
        for k in range(2, len(grp) + 1):
            total *= k
    if total > _PERM_CAP:
        raise BudgetError(
            "too many identical summands to canonicalize: "
            f"{total} orderings exceed the cap {_PERM_CAP}",
            size=total,
            cap=_PERM_CAP,
        )
    return (
        _relabel(h, [i for grp in combo for i in grp])
        for combo in itertools.product(*(itertools.permutations(g) for g in groups))
    )


def canonical_key(h: GradedHiggsBundle) -> str:
    """Deterministic serialization invariant under summand reordering: the
    least canonical JSON over the orderings of identical summands.  ``h`` is
    validated once, after the cap check, and no ordering is re-checked:
    every check ``validate`` makes depends on the object's structure, not on
    how its summands are numbered (the pairing, entries and extension terms
    are renumbered with them), so a relabelling of a valid object is valid,
    and an invalid ``h`` is refused in its own indices."""
    orderings = _permutation_orbit(h)
    validate(h)
    return min(canonical_json(p) for p in orderings)


def _least_json(h: GradedHiggsBundle) -> str:
    """``canonical_key`` of an ``h`` already validated: only the cap is checked."""
    return min(canonical_json(p) for p in _permutation_orbit(h))


def gauge_orbit_key(h: GradedHiggsBundle) -> str:
    """Canonical key under reordering plus the switching move when present.
    ``switched`` validates the other presentation, so its orderings are
    read without a second check; they have the cap ``h`` already passed,
    since switching renames bundles one to one."""
    key = canonical_key(h)
    if not switchable(h):
        return key
    return min(key, _least_json(switched(h)))


def _invariant(h: GradedHiggsBundle) -> tuple:
    """What ``canonical_json`` writes of a valid ``h`` that no ordering of
    its summands changes: form, meta, the sorted summand rows, and the
    pairing, Higgs entries and extension terms with each end replaced by
    its row.  Orderings with equal JSON have equal invariants, so objects
    whose invariants differ have different canonical keys.  The symbol
    table is left out: a declared name no summand uses never reaches it."""
    rows = [
        (s.side, s.bundle.serialize(), degree, s.rank,
         () if s.sw is None else (s.sw.sw1.bits(), s.sw.sw2))
        for s, degree in zip(h.summands, h.degrees())
    ]
    return (
        h.form,
        dict(h.meta),
        sorted(rows),
        sorted((rows[i], rows[j]) for i, j in enumerate(h.sigma)),
        sorted((rows[e.target], rows[e.source], e.symbol.name, e.symbol.vanishing)
               for e in h.higgs),
        sorted((rows[t.target], rows[t.source], t.name) for t in h.dolbeault),
    )


def _presentations(h: GradedHiggsBundle) -> list[GradedHiggsBundle]:
    """``h`` and, when it has a switching move, its switched presentation,
    each validated once."""
    validate(h)
    return [h, switched(h)] if switchable(h) else [h]


def structurally_equal(a: GradedHiggsBundle, b: GradedHiggsBundle) -> bool:
    """Equality up to summand reordering (groups and genus included).

    Group and genus are compared first; then each object is validated once
    and their permutation invariants are compared, which makes no ordering.
    Only a pair whose invariants agree goes on to the canonical keys, so
    ``BudgetError`` arises only for such a pair above the 8! cap, and an
    invalid object is refused as invalid whatever its orbit size."""
    if a.group != b.group or a.genus != b.genus:
        return False
    validate(a)
    validate(b)
    return _invariant(a) == _invariant(b) and _least_json(a) == _least_json(b)


def gauge_equivalent(a: GradedHiggsBundle, b: GradedHiggsBundle) -> bool:
    """Equality up to summand reordering and the switching move.

    Group and genus are compared first; then each presentation (``a``,
    ``b`` and their switched forms) is validated once, and the pair is
    unequal when ``b``'s permutation invariant is neither ``a``'s nor that
    of switched ``a``, with no ordering made.  Only the other pairs go on
    to the gauge orbit keys, so ``BudgetError`` arises only for such a
    pair above the 8! cap, and an invalid object is refused as invalid
    whatever its orbit size."""
    if a.group != b.group or a.genus != b.genus:
        return False
    ours, theirs = _presentations(a), _presentations(b)
    if _invariant(b) not in [_invariant(p) for p in ours]:
        return False
    return min(map(_least_json, ours)) == min(map(_least_json, theirs))


__all__ = [
    "permute_summands",
    "switchable",
    "switched",
    "canonical_key",
    "gauge_orbit_key",
    "structurally_equal",
    "gauge_equivalent",
]
