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

from .errors import BudgetError, PreconditionError, WrongGroupError, _read_int
from .higgsmodel import (
    DolbeaultTerm,
    GradedHiggsBundle,
    HiggsEntry,
    SectionSymbol,
    Summand,
    _mark,
    _replace_keeping_mark,
    _switch_sections,
    canonical_json,
    validate,
)
from .linebundle import LineBundleExpr


def permute_summands(h: GradedHiggsBundle, order: Sequence[int]) -> GradedHiggsBundle:
    """Reindex summands; ``order[k]`` is the old index placed at slot k.
    The result of a marked ``h`` is marked, so its check returns at once;
    that of an unmarked ``h`` is checked in full, in the new indices."""
    if sorted(order) != list(range(len(h.summands))):
        raise ValueError("not a permutation of the summand indices")
    out = _relabel(h, order)
    validate(out)
    return out


def _relabel(h: GradedHiggsBundle, order: Sequence[int]) -> GradedHiggsBundle:
    """``permute_summands`` without its checks: ``order`` must be a
    permutation, and the result is valid exactly when ``h`` is, so a
    marked ``h`` passes its mark on, with the degrees reordered."""
    inv = {old: new for new, old in enumerate(order)}
    out = replace(
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
    if h._degrees is not None:
        _mark(out, tuple(h._degrees[old] for old in order))
    return out


def switchable(h: GradedHiggsBundle) -> bool:
    return "switch_variable" in h.meta_map


def switched(h: GradedHiggsBundle) -> GradedHiggsBundle:
    """The other presentation of a family with a decomposed rank-2 part:
    replace M by its dual and exchange the two connecting sections,
    rebuilding only the summands that carry M and the entries whose section
    is renamed.  Negating M in every bundle and in the declared degrees keeps
    duals, sides, ambient K powers and resolved degrees (e * d = (-e)(-d)),
    and renaming two sections everywhere keeps transpose names, so the result
    is valid exactly when ``h`` is: it keeps a marked ``h``'s mark, and an
    unmarked ``h`` is checked through it, to refuse it if invalid.  The move
    is an involution and commutes with every relabelling."""
    meta = h.meta_map
    if not switchable(h):
        raise WrongGroupError("object has no declared switching move")
    first, second = _switch_sections(meta, PreconditionError)
    var = str(meta["switch_variable"])
    rename = {first: second, second: first}

    def flip(s: Summand) -> Summand:
        e = s.bundle
        if all(n != var for n, _ in e.variables):
            return s
        bundle = LineBundleExpr(
            e.k_power, e.spins, e.torsions,
            tuple((n, -x if n == var else x) for n, x in e.variables), e.divisors,
        )
        return Summand(s.side, bundle, s.rank, s.sw)

    def swap(e: HiggsEntry) -> HiggsEntry:
        sym = e.symbol
        if sym.name not in rename:
            return e
        return HiggsEntry(e.target, e.source,
                          SectionSymbol(rename[sym.name], sym.kind, sym.vanishing))

    declared = dict(h.declared)
    if var in declared:
        declared[var] = -declared[var]
    if "d" in meta and (d := _read_int(str(meta["d"]), signed=True)) is not None:
        meta["d"] = -d
    out = _replace_keeping_mark(
        h,
        summands=tuple(map(flip, h.summands)),
        higgs=tuple(map(swap, h.higgs)),
        declared=tuple(sorted(declared.items())),
        meta=tuple(sorted(meta.items())),
    )
    validate(out)
    return out


def _summand_key(h: GradedHiggsBundle, i: int) -> tuple:
    s = h.summands[i]
    sw = s.sw.label() if s.sw else ""
    return (s.side, s.rank, s.bundle.serialize(), sw)


# 8!; exceeded at genus 2 by so0:2,n with trivial W0 once n >= 9 (n trivial W
# summands) and with split W0 once n >= 11 (n - 2 of them), 9! orderings each.
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
    validated once, before the cap check, so an invalid ``h`` is refused as
    invalid whatever its orbit size, and no ordering is re-checked: every
    check ``validate`` makes depends on the object's structure, not on how
    its summands are numbered (the pairing, entries and extension terms are
    renumbered with them), so a relabelling of a valid object is valid."""
    validate(h)
    return min(canonical_json(p) for p in _permutation_orbit(h))


def gauge_orbit_key(h: GradedHiggsBundle) -> str:
    """Canonical key under reordering plus the switching move when present.
    ``canonical_key`` validates ``h``, so the switched presentation is marked
    and its key checks nothing again; it has the cap ``h`` passed, since
    switching renames bundles one to one.  The switch is an involution
    commuting with every reordering, so the key is the least of the two
    presentations' keys."""
    key = canonical_key(h)
    if not switchable(h):
        return key
    return min(key, canonical_key(switched(h)))


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


def structurally_equal(a: GradedHiggsBundle, b: GradedHiggsBundle) -> bool:
    """Equality up to summand reordering (groups and genus included).

    Group and genus are compared first; then each object is validated (at
    once, when marked) and their permutation invariants are compared, which
    makes no ordering.  Only a pair whose invariants agree goes on to the
    canonical keys, whose checks return at once, so ``BudgetError`` arises
    only for such a pair above the 8! cap, and an invalid object is refused
    as invalid whatever its orbit size."""
    if a.group != b.group or a.genus != b.genus:
        return False
    validate(a)
    validate(b)
    return _invariant(a) == _invariant(b) and canonical_key(a) == canonical_key(b)


def gauge_equivalent(a: GradedHiggsBundle, b: GradedHiggsBundle) -> bool:
    """Equality up to summand reordering and the switching move.

    Group and genus are compared first; then ``a`` and ``b`` are validated
    (at once, when marked), and only ``a``'s switched presentation is built,
    marked as ``a`` is.  The pair is unequal when ``b``'s permutation
    invariant is neither ``a``'s nor that of switched ``a``, with no ordering
    made; otherwise it is equal when ``b``'s key is the key of a presentation
    of ``a`` whose invariant matches.  That is the orbit-key comparison: the
    switch is an involution commuting with reordering, so each orbit key is
    the least of a class of at most two keys, and two such classes are equal
    or disjoint.  Matching invariants mean the same groups of identical
    summands, so ``BudgetError`` arises only for such a pair above the 8!
    cap, and an invalid object is refused as invalid whatever its orbit size."""
    if a.group != b.group or a.genus != b.genus:
        return False
    validate(a)
    ours = [a, switched(a)] if switchable(a) else [a]
    validate(b)
    theirs = _invariant(b)
    matching = [p for p in ours if _invariant(p) == theirs]
    return bool(matching) and canonical_key(b) in map(canonical_key, matching)


__all__ = [
    "permute_summands",
    "switchable",
    "switched",
    "canonical_key",
    "gauge_orbit_key",
    "structurally_equal",
    "gauge_equivalent",
]
