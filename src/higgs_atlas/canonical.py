"""Gauge moves and canonical forms.

Reordering the summands, and for a family with a decomposed rank-2 part
the switching move, change an object's presentation but not the object.
``canonical_key`` and ``gauge_orbit_key`` name the object independently of
those choices, so two presentations can be compared.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .errors import BudgetError, PreconditionError, WrongGroupError, _read_int
from .higgsmodel import (
    DolbeaultTerm,
    GradedHiggsBundle,
    HiggsEntry,
    SectionSymbol,
    Summand,
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
    return h._with(
        None if h._degrees is None else tuple(h._degrees[old] for old in order),
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
    replace M by its dual and exchange the two connecting sections,
    rebuilding only the summands that carry M and the entries whose section
    is renamed.  Negating M in every bundle and in the declared degrees keeps
    duals, sides, ambient K powers and resolved degrees (e * d = (-e)(-d)),
    and renaming two sections everywhere keeps transpose names, so the result
    is valid exactly when ``h`` is: it keeps a marked ``h``'s mark, and an
    unmarked ``h`` is checked through it, to refuse it if invalid.  The move
    is an involution and commutes with every relabelling."""
    var, rename, meta = _switch_move(h)

    def flip(s: Summand) -> Summand:
        if all(n != var for n, _ in s.bundle.variables):
            return s
        return Summand(s.side, _flip(s.bundle, var), s.rank, s.sw)

    def swap(e: HiggsEntry) -> HiggsEntry:
        sym = e.symbol
        if sym.name not in rename:
            return e
        return HiggsEntry(e.target, e.source,
                          SectionSymbol(rename[sym.name], sym.kind, sym.vanishing))

    declared = dict(h.declared)
    if var in declared:
        declared[var] = -declared[var]
    out = h._with(
        h._degrees,
        summands=tuple(map(flip, h.summands)),
        higgs=tuple(map(swap, h.higgs)),
        declared=tuple(sorted(declared.items())),
        meta=tuple(sorted(meta.items())),
    )
    validate(out)
    return out


def _switch_move(h: GradedHiggsBundle) -> tuple[str, dict[str, str], dict]:
    """What the switch changes: the variable it negates, the renaming of
    the two sections it exchanges, and the meta it leaves, with an integer
    label ``d`` negated.  Refuses a non-switchable ``h``, or one whose meta
    does not name two sections."""
    meta = h.meta_map
    if "switch_variable" not in meta:
        raise WrongGroupError("object has no declared switching move")
    first, second = _switch_sections(meta, PreconditionError)
    if "d" in meta and (d := _read_int(str(meta["d"]), signed=True)) is not None:
        meta["d"] = -d
    return str(meta["switch_variable"]), {first: second, second: first}, meta


def _flip(e: LineBundleExpr, var: str) -> LineBundleExpr:
    """``e`` with the exponent of ``var`` negated."""
    return LineBundleExpr(
        e.k_power, e.spins, e.torsions,
        tuple((n, -x if n == var else x) for n, x in e.variables), e.divisors,
    )


def _rows(h: GradedHiggsBundle) -> list[tuple]:
    """One row per summand of a valid ``h``: side, rank, bundle text, SW
    label (or ``""``) and degree.  Within one object the bundle fixes the
    degree, so two rows agree exactly when the summands are identical."""
    return [
        (s.side, s.rank, s.bundle.serialize(), s.sw.label() if s.sw else "", degree)
        for s, degree in zip(h.summands, h.degrees())
    ]


# 8!; exceeded at genus 2 by so0:2,n with trivial W0 once n >= 9 (n trivial W
# summands) and with split W0 once n >= 11 (n - 2 of them), 9! orderings each.
# `structurally_equal` and `gauge_equivalent` read it only for a pair whose
# permutation invariants agree, so above it they still answer "not equal".
_PERM_CAP = 40320


def _permutation_orbit(h: GradedHiggsBundle):
    """Every ordering of ``h`` that permutes only within groups of identical
    summands, as relabellings, which check nothing.  The cap is checked
    when this is called, before any ordering is made."""
    rows = _rows(h)
    groups: list[list[int]] = []
    for i in sorted(range(len(rows)), key=rows.__getitem__):
        if groups and rows[groups[-1][0]] == rows[i]:
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


def _invariant(h: GradedHiggsBundle, rows: list | None = None, move: tuple | None = None) -> tuple:
    """What ``canonical_json`` writes of a valid ``h`` that no ordering of
    its summands changes: form, meta, the sorted ``rows`` (``_rows(h)``
    unless given), and the pairing, Higgs entries and extension terms with
    each end replaced by its row.  Objects whose invariants differ have
    different canonical keys.  The symbol table is left out: a declared
    name no summand uses never reaches it.  With ``move``, the
    ``_switch_move(h)``, it is that of ``switched(h)``: the rows carrying the
    switch variable are serialized again with its exponent negated, each
    degree kept (e * d = (-e)(-d)), and the two switch sections exchanged."""
    if rows is None:
        rows = _rows(h)
    if move is None:
        meta, rename = dict(h.meta), {}
    else:
        var, rename, meta = move
        rows = [
            row if all(n != var for n, _ in s.bundle.variables)
            else (*row[:2], _flip(s.bundle, var).serialize(), *row[3:])
            for s, row in zip(h.summands, rows)
        ]
    return (
        h.form,
        meta,
        sorted(rows),
        sorted((rows[i], rows[j]) for i, j in enumerate(h.sigma)),
        sorted((rows[e.target], rows[e.source], rename.get(e.symbol.name, e.symbol.name),
                e.symbol.vanishing) for e in h.higgs),
        sorted((rows[t.target], rows[t.source], t.name) for t in h.dolbeault),
    )


def _equal(a: GradedHiggsBundle, b: GradedHiggsBundle, switch: bool) -> bool:
    """Is ``b`` a reordering of ``a`` or, with ``switch``, of switched ``a``?
    Group and genus first; then ``a`` is validated, its switch move read
    (so a malformed switch meta is refused before ``b`` is checked) and
    ``b`` validated, each at once when marked.  A presentation of ``a``
    (its own, or switched ``a``) is compared further only when its meta is
    ``b``'s, since the invariant holds the meta: rows and invariants are
    read only then, invariants come before any ordering, and only a
    presentation whose invariant matches is keyed; switched ``a`` is built
    only when ``a``'s own key did not match.  The switch is an involution
    commuting with reordering, so this is the orbit-key comparison."""
    if a.group != b.group or a.genus != b.genus:
        return False
    validate(a)
    move = _switch_move(a) if switch and switchable(a) else None
    validate(b)
    meta = b.meta_map
    own = a.meta_map == meta
    other = move is not None and move[2] == meta
    if own or other:
        rows, theirs = _rows(a), _invariant(b)
        own = own and _invariant(a, rows) == theirs
        other = other and _invariant(a, rows, move) == theirs
    if not (own or other):
        return False
    key = canonical_key(b)
    return (own and canonical_key(a) == key) or (other and canonical_key(switched(a)) == key)


def structurally_equal(a: GradedHiggsBundle, b: GradedHiggsBundle) -> bool:
    """Equality up to summand reordering (group and genus included).  Each
    object is validated once and permutation invariants are compared before
    any ordering is made, so ``BudgetError`` (more than 8! orderings) arises
    only for a pair whose invariants agree, and an invalid object is refused
    as invalid whatever its orbit size."""
    return _equal(a, b, switch=False)


def gauge_equivalent(a: GradedHiggsBundle, b: GradedHiggsBundle) -> bool:
    """Equality up to summand reordering and the switching move, decided as
    ``structurally_equal`` decides reordering.  The switched presentation of
    ``a`` is built, marked, only when its invariant, read off ``a``, matches
    ``b``'s and ``a``'s own key does not."""
    return _equal(a, b, switch=True)


__all__ = [
    "permute_summands",
    "switchable",
    "switched",
    "canonical_key",
    "gauge_orbit_key",
    "structurally_equal",
    "gauge_equivalent",
]
