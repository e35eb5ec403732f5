"""Graded Higgs bundles as decorated quivers: the object model, its
structural check and its document codec.

An object is a finite list of formal line-bundle summands (a few builders
also emit an opaque orthogonal block of higher rank), split into a V side
and a W side, together with:

  * a pairing involution sigma matching each summand with its dual,
  * a sparse matrix of section symbols: the entry at (target, source)
    lives in Hom(L_source, L_target (x) K); absent entries are zero,
  * optional Dolbeault extension terms (target, source, name) deforming
    the direct-sum holomorphic structure off-diagonally.

Only the section's name and vanishing behaviour are tracked, never its
value, so every question answered here is exact combinatorics.  The
family builders (``builders``) fill in both blocks of the matrix: the
user-facing data is the V -> W block and its transpose block is generated
from the pairing, which is also the structural symmetry ``validate``
checks.  Gauge moves and canonical keys are in ``canonical``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .curve import Curve
from .errors import ModelInvariantError, ParseError, _Value
from .f2classes import F2Class, SWPair, _check_genus
from .groups import GroupTag
from .linebundle import (
    KIND_DIVISOR,
    KIND_SPIN,
    KIND_TORSION,
    KIND_VARIABLE,
    LineBundleExpr,
    K_power,
    parse_expr,
)

SCHEMA = "higgs-atlas/1"

VANISH_GENERIC = "generically-nonzero"
VANISH_NOWHERE = "nowhere-vanishing"

KIND_UNIT = "unit"
KIND_NAMED = "named"

SIDE_V = "V"
SIDE_W = "W"

FORM_ORTHOGONAL = "orthogonal"
FORM_SYMPLECTIC = "symplectic"


class SectionSymbol(_Value):
    """A section known only by name and vanishing behaviour."""

    __slots__ = ("name", "kind", "vanishing")

    def __init__(self, name: str, kind: str, vanishing: str):
        if kind not in (KIND_UNIT, KIND_NAMED):
            raise ValueError(f"bad section kind {kind!r}")
        if vanishing not in (VANISH_GENERIC, VANISH_NOWHERE):
            raise ValueError(f"bad vanishing tag {vanishing!r}")
        if kind == KIND_UNIT and vanishing != VANISH_NOWHERE:
            raise ValueError("a unit section vanishes nowhere")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "vanishing", vanishing)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.kind, self.vanishing) == (
                other.name, other.kind, other.vanishing
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.kind, self.vanishing))


_UNIT_SECTION = SectionSymbol("1", KIND_UNIT, VANISH_NOWHERE)


def unit_section() -> SectionSymbol:
    """The unit section; one frozen symbol shared by every entry that uses it."""
    return _UNIT_SECTION


def named_section(name: str, vanishing: str = VANISH_GENERIC) -> SectionSymbol:
    return SectionSymbol(name, KIND_NAMED, vanishing)


class Summand(_Value):
    """One summand on the V or W side: a line bundle, or an opaque block with its SW pair."""

    __slots__ = ("side", "bundle", "rank", "sw")

    def __init__(self, side: str, bundle: LineBundleExpr, rank: int = 1, sw: SWPair | None = None):
        if side not in (SIDE_V, SIDE_W):
            raise ValueError(f"bad side {side!r}")
        if rank < 1:
            raise ValueError("rank must be positive")
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "sw", sw)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.side, self.bundle, self.rank, self.sw) == (
                other.side, other.bundle, other.rank, other.sw
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.side, self.bundle, self.rank, self.sw))


class HiggsEntry(_Value):
    """A nonzero field entry: ``symbol`` is a section of Hom(L_source, L_target (x) K)."""

    __slots__ = ("target", "source", "symbol")

    def __init__(self, target: int, source: int, symbol: SectionSymbol):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "symbol", symbol)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.target, self.source, self.symbol) == (
                other.target, other.source, other.symbol
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.target, self.source, self.symbol))


class DolbeaultTerm(_Value):
    """An extension term gluing summand ``source`` to summand ``target``."""

    __slots__ = ("target", "source", "name")

    def __init__(self, target: int, source: int, name: str):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "name", name)


# The package's one dataclass, and so the reason a verb that loads this
# module imports `dataclasses`: `_with`, the package's one
# `dataclasses.replace` call, makes every derived object.
#
# A successful `validate` marks the object by storing the summand degrees it
# resolved in `_degrees`, which is not a field, so `==`, `hash`, `repr` and
# `bundle_to_dict` never see it; `degrees` and `degree_of` read it, and
# `validate` returns at once for a marked object.  `_with` alone marks a
# derived object, with the degrees its caller passes; without them, and for
# a constructor call, the object is unmarked and gets the full check.
@dataclass(frozen=True)
class GradedHiggsBundle:
    """An object: summands, pairing, field entries, extension terms and symbol data."""

    group: GroupTag
    genus: int
    summands: tuple[Summand, ...]
    sigma: tuple[int, ...]
    form: str
    higgs: tuple[HiggsEntry, ...]
    dolbeault: tuple[DolbeaultTerm, ...] = ()
    declared: tuple[tuple[str, int], ...] = ()
    torsion_classes: tuple[tuple[str, F2Class], ...] = ()
    meta: tuple[tuple[str, object], ...] = ()

    _degrees = None  # the mark: every summand degree, once `validate` has passed

    @property
    def declared_map(self) -> dict[str, int]:
        return dict(self.declared)

    @property
    def meta_map(self) -> dict[str, object]:
        return dict(self.meta)

    @property
    def total_rank(self) -> int:
        return sum(s.rank for s in self.summands)

    def degree_of(self, i: int) -> int:
        if self._degrees is not None:
            return self._degrees[i]
        return self.summands[i].bundle.resolved_degree(self.genus, self.declared_map)

    def degrees(self) -> tuple[int, ...]:
        if self._degrees is not None:
            return self._degrees
        declared = self.declared_map
        return tuple(s.bundle.resolved_degree(self.genus, declared) for s in self.summands)

    def ambient(self, target: int, source: int) -> LineBundleExpr | None:
        """Hom(L_source, L_target (x) K); None when a block is involved."""
        s, t = self.summands[source], self.summands[target]
        if s.rank != 1 or t.rank != 1:
            return None
        return s.bundle.dual().tensor(t.bundle).tensor(K_power(1))

    def side_indices(self, side: str) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.summands) if s.side == side)

    def _with(self, degrees: tuple[int, ...] | None = None, **fields) -> GradedHiggsBundle:
        """A copy with ``fields`` changed, marked with ``degrees`` (which
        a caller passes only for a copy valid whenever ``self`` is, with those
        summand degrees by index) or, without them, unmarked."""
        out = replace(self, **fields)
        if degrees is not None:
            object.__setattr__(out, "_degrees", degrees)
        return out


def make_bundle(
    group: GroupTag,
    curve: Curve,
    summands: Sequence[Summand],
    sigma: Sequence[int],
    form: str,
    entries: Iterable[tuple[int, int, SectionSymbol]],
    dolbeault: Iterable[tuple[int, int, str]] = (),
    declared: Mapping[str, int] | None = None,
    torsion_classes: Mapping[str, F2Class] | None = None,
    meta: Mapping[str, object] | None = None,
) -> GradedHiggsBundle:
    higgs = tuple(
        HiggsEntry(t, s, sym) for t, s, sym in sorted(entries, key=lambda e: (e[0], e[1]))
    )
    dol = tuple(
        DolbeaultTerm(t, s, n) for t, s, n in sorted(dolbeault, key=lambda d: (d[0], d[1], d[2]))
    )
    h = GradedHiggsBundle(
        group=group,
        genus=curve.genus,
        summands=tuple(summands),
        sigma=tuple(sigma),
        form=form,
        higgs=higgs,
        dolbeault=dol,
        declared=tuple(sorted((declared or {}).items())),
        torsion_classes=tuple(sorted((torsion_classes or {}).items())),
        meta=tuple(sorted((meta or {}).items())),
    )
    validate(h)
    return h


# -- structural validation -------------------------------------------------

def validate(h: GradedHiggsBundle) -> None:
    """Check the structural invariants; raise ModelInvariantError on failure,
    or DimensionMismatchError for a mod-2 class of another genus.

    A check that passes marks ``h`` with the degrees it resolved, and a
    marked object is not checked again: ``make_bundle`` (so every builder and
    ``bundle_from_dict``) leaves its output marked, and ``permute_summands``,
    ``switched`` and ``graded_limit`` pass the mark on through
    ``GradedHiggsBundle._with``.  A ``_with()`` copy without degrees, like a
    constructor call or a ``dataclasses.replace`` copy, is unmarked, so it is
    checked in full.

    In order: every mod-2 class (a torsion symbol's, a block's sw_1) is of
    the object's genus; sigma is an involution of the summands pairing each
    line with its dual (blocks are self-paired of degree 0), orthogonal
    pairings keep sides and symplectic ones exchange them; the group's
    ranks, determinant conditions and total degree hold (every summand
    degree resolves, V side first, or UnresolvedDegreeError names the
    missing symbols); no two Higgs entries share a (target, source); each entry is off the diagonal, has
    its transpose partner, and fits its ambient Hom(L_s, L_t (x) K): a unit
    needs it trivial, a nowhere-vanishing section needs degree 0, a generic
    section needs degree >= 0 unless the ambient is a power of K; each
    extension term has its transpose partner.

    No dual and no ambient is built; both checks read normal forms, which
    are unique.  The pairing check compares L_j with L_i's closed-form dual
    field by field (``is_dual_of``).  The non-K parts of L_s^-1 L_t K cancel
    exactly when those of L_s and L_t are equal, and then the ambient is
    K^(k_t - k_s + 1); its degree is deg L_t - deg L_s + 2g - 2 from the
    degrees resolved once.
    """
    if h._degrees is not None:
        return
    for name, cls in h.torsion_classes:
        _check_genus(cls, h.genus, f"symbol {name}")
    for i, s in enumerate(h.summands):
        if s.sw is not None:
            _check_genus(s.sw.sw1, h.genus, f"sw1 of summand {i}")
    n = len(h.summands)
    if len(h.sigma) != n:
        raise ModelInvariantError("pairing involution has the wrong length")
    if sorted(h.sigma) != list(range(n)):
        raise ModelInvariantError("pairing is not a permutation")
    if h.form not in (FORM_ORTHOGONAL, FORM_SYMPLECTIC):
        raise ModelInvariantError(f"bad pairing form {h.form!r}")
    for i, j in enumerate(h.sigma):
        if h.sigma[j] != i:
            raise ModelInvariantError("pairing is not an involution")
        si, sj = h.summands[i], h.summands[j]
        if si.rank > 1:
            if j != i:
                raise ModelInvariantError("block summands must be self-paired")
            if h.degree_of(i) != 0:
                raise ModelInvariantError("a self-dual block must have degree 0")
            continue
        if not sj.bundle.is_dual_of(si.bundle):
            raise ModelInvariantError(
                f"summand {j} is not dual to summand {i}: "
                f"{sj.bundle.serialize()} vs {si.bundle.dual().serialize()}"
            )
        if h.form == FORM_ORTHOGONAL and si.side != sj.side:
            raise ModelInvariantError("an orthogonal pairing must preserve sides")
        if h.form == FORM_SYMPLECTIC and i != j and si.side == sj.side:
            raise ModelInvariantError("a symplectic pairing must exchange sides")

    degrees = _check_group_shape(h)
    canonical_degree = 2 * h.genus - 2

    entry_map = {(e.target, e.source): e.symbol for e in h.higgs}
    if len(entry_map) != len(h.higgs):
        _refuse_repeats(((e.target, e.source) for e in h.higgs), "higgs entry", ModelInvariantError)
    for (t, s), sym in entry_map.items():
        if t == s:
            raise ModelInvariantError("diagonal entries are not allowed")
        mirror = entry_map.get((h.sigma[s], h.sigma[t]))
        if mirror is None or mirror.name != sym.name or mirror.vanishing != sym.vanishing:
            raise ModelInvariantError(
                f"entry ({t},{s}) has no matching transpose at ({h.sigma[s]},{h.sigma[t]})"
            )
        ss, st = h.summands[s], h.summands[t]
        if ss.rank != 1 or st.rank != 1:
            continue
        k = _ambient_k_power(ss.bundle, st.bundle)
        if sym.kind == KIND_UNIT and k != 0:
            raise ModelInvariantError(
                f"unit entry ({t},{s}) needs a trivial ambient, got {h.ambient(t, s).serialize()}"
            )
        amb_deg = degrees[t] - degrees[s] + canonical_degree
        if sym.vanishing == VANISH_NOWHERE and amb_deg != 0:
            raise ModelInvariantError(
                f"nowhere-vanishing entry ({t},{s}) in a bundle of degree {amb_deg}"
            )
        if sym.vanishing == VANISH_GENERIC and amb_deg < 0 and k is None:
            raise ModelInvariantError(
                f"entry ({t},{s}) claims a nonzero section of degree {amb_deg} < 0"
            )
    dol_set = {(d.target, d.source, d.name) for d in h.dolbeault}
    for t, s, name in dol_set:
        if (h.sigma[s], h.sigma[t], name) not in dol_set:
            raise ModelInvariantError(
                f"extension term ({t},{s}) has no matching transpose"
            )
    object.__setattr__(h, "_degrees", tuple(degrees))


def _ambient_k_power(source: LineBundleExpr, target: LineBundleExpr) -> int | None:
    """j when Hom(source, target (x) K) is exactly K^j, else None, read off
    the two normal forms without building the ambient."""
    if (
        source.spins != target.spins
        or source.torsions != target.torsions
        or source.variables != target.variables
        or source.divisors != target.divisors
    ):
        return None
    return target.k_power - source.k_power + 1


def _check_group_shape(h: GradedHiggsBundle) -> list[int]:
    """Check ranks and degrees against the group; return every summand's
    degree, by summand index, resolving the V side before the W side."""
    fam = h.group.family
    v_idx, w_idx = h.side_indices(SIDE_V), h.side_indices(SIDE_W)
    declared = h.declared_map
    degrees = [0] * len(h.summands)
    for i in v_idx + w_idx:
        degrees[i] = h.summands[i].bundle.resolved_degree(h.genus, declared)
    v = [degrees[i] for i in v_idx]
    w = [degrees[i] for i in w_idx]
    rank_v = sum(h.summands[i].rank for i in v_idx)
    rank_w = sum(h.summands[i].rank for i in w_idx)
    if fam in ("so", "so0"):
        if (rank_v, rank_w) != h.group.params:
            raise ModelInvariantError(
                f"rank mismatch for {h.group}: got ({rank_v},{rank_w})"
            )
        # determinant condition: both factors have trivial determinant
        if fam == "so0" and (sum(v) != 0 or sum(w) != 0):
            raise ModelInvariantError(
                f"determinant condition fails for {h.group}: degrees {sum(v)},{sum(w)}"
            )
    elif h.total_rank != h.group.params[0] or (fam == "sp" and rank_v != h.group.params[0] // 2):
        raise ModelInvariantError(f"rank mismatch for {h.group}")
    if sum(degrees) != 0:
        raise ModelInvariantError("total degree must vanish")
    if fam == "sp" and h.form != FORM_SYMPLECTIC:
        raise ModelInvariantError("symplectic groups need a symplectic pairing")
    return degrees


# -- serialization ------------------------------------------------------------

def _symbol_table(h: GradedHiggsBundle) -> dict[str, dict]:
    table: dict[str, dict] = {}
    declared = h.declared_map
    tclasses = dict(h.torsion_classes)
    for s in h.summands:
        e = s.bundle
        for name in e.spins:
            table.setdefault(name, {"kind": KIND_SPIN})
        for name in e.torsions:
            entry = table.setdefault(name, {"kind": KIND_TORSION})
            if name in tclasses:
                entry["class"] = tclasses[name].bits()
        for name, _ in e.variables:
            table.setdefault(name, {"kind": KIND_VARIABLE, "degree": declared.get(name)})
        for name, _ in e.divisors:
            table.setdefault(name, {"kind": KIND_DIVISOR, "degree": declared.get(name)})
    return table


def bundle_to_dict(h: GradedHiggsBundle) -> dict:
    out: dict = {
        "schema": SCHEMA,
        "group": str(h.group),
        "genus": h.genus,
        "form": h.form,
        "summands": [],
        "pairing": list(h.sigma),
        "higgs": [],
        "dolbeault": [],
        "symbols": _symbol_table(h),
        "meta": {k: v for k, v in h.meta},
    }
    for s, degree in zip(h.summands, h.degrees()):
        row = {
            "side": s.side,
            "bundle": s.bundle.serialize(),
            "degree": degree,
        }
        if s.rank != 1:
            row["rank"] = s.rank
        if s.sw is not None:
            row["sw1"] = s.sw.sw1.bits()
            row["sw2"] = s.sw.sw2
        out["summands"].append(row)
    for e in h.higgs:
        out["higgs"].append(
            {"to": e.target, "from": e.source, "name": e.symbol.name,
             "vanishing": e.symbol.vanishing}
        )
    for t in h.dolbeault:
        out["dolbeault"].append({"to": t.target, "from": t.source, "name": t.name})
    return out


def _json_int(value, what: str, n: int | None = None) -> int:
    """A JSON integer, taken as is (a float, string or boolean is refused);
    with ``n`` given, an index in 0..n-1."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    if n is not None and not 0 <= value < n:
        raise ParseError(f"{what} {value} is outside 0..{n - 1}")
    return value


def _json_str(value, what: str) -> str:
    """A JSON string, taken as is (a number, list or object is refused)."""
    if type(value) is not str:
        raise ParseError(f"{what} must be a string, got {value!r}")
    return value


def _switch_sections(meta: Mapping, error: type = ParseError) -> tuple[str, str]:
    """The two sections a switching move exchanges: the meta's
    ``switch_sections`` must be two non-empty comma-separated names."""
    names = str(meta.get("switch_sections", "")).split(",")
    if len(names) != 2 or not all(names):
        raise error(
            "a switch_variable needs switch_sections of two comma-separated names, "
            f"got {meta.get('switch_sections')!r}"
        )
    return tuple(names)


def _json_meta(meta: Mapping) -> Mapping:
    """The meta object; each value must be a string or an integer, which is
    all any builder writes, and a ``switch_variable`` needs the two
    ``switch_sections`` its move exchanges."""
    for key, value in meta.items():
        if type(value) not in (str, int):
            raise ParseError(f"meta value {key!r} must be a string or an integer, got {value!r}")
    if "switch_variable" in meta:
        _switch_sections(meta)
    return meta


def _refuse_repeats(keys: Iterable[tuple], what: str, error: type = ParseError) -> None:
    seen = set()
    for key in keys:
        if key in seen:
            raise error(f"{what} {key} is listed twice")
        seen.add(key)


def bundle_from_dict(data: Mapping) -> GradedHiggsBundle:
    """Load an object document.  Refused with ParseError, besides missing
    keys (the four required ones, group, genus, summands and pairing, are
    read before anything is parsed, so a document missing one is refused
    at once), non-integer numbers, and a group or section name that is not a
    string: an unknown symbol kind, a meta value that is neither a string
    nor an integer, a Higgs entry or an extension term listed twice, and a
    recorded summand degree that differs from the degree its bundle
    resolves to.  A mod-2 class of another genus than the object's is
    refused by ``validate``, as a DimensionMismatchError."""
    if not isinstance(data, Mapping):
        raise ParseError(f"an object document must be a JSON object, got {type(data).__name__}")
    try:
        if data.get("schema", SCHEMA) != SCHEMA:
            raise ParseError(f"unknown schema {data.get('schema')!r}")
        group, genus, rows, pairing = (data[k] for k in ("group", "genus", "summands", "pairing"))
        group = GroupTag.parse(_json_str(group, "group"))
        curve = Curve(_json_int(genus, "genus"))
        symbols = data.get("symbols", {})
        kinds = {name: info.get("kind", KIND_VARIABLE) for name, info in symbols.items()}
        for name, kind in kinds.items():
            if kind not in (KIND_VARIABLE, KIND_TORSION, KIND_SPIN, KIND_DIVISOR):
                raise ParseError(f"symbol {name!r} has unknown kind {kind!r}")
        declared = {
            name: _json_int(info["degree"], f"degree of symbol {name!r}")
            for name, info in symbols.items()
            if info.get("degree") is not None
        }
        tclasses = {name: F2Class.from_bits(info["class"])
                    for name, info in symbols.items() if "class" in info}
        summands = []
        recorded = []
        for i, row in enumerate(rows):
            sw = None
            if "sw1" in row:
                sw = SWPair(F2Class.from_bits(row["sw1"]), _json_int(row["sw2"], "sw2"))
            summands.append(
                Summand(row["side"], parse_expr(row["bundle"], kinds),
                        _json_int(row.get("rank", 1), "summand rank"), sw)
            )
            if "degree" in row:
                recorded.append((i, _json_int(row["degree"], f"degree of summand {i}")))
        n = len(summands)
        entries = []
        for row in data.get("higgs", []):
            name, vanishing = _json_str(row["name"], "higgs entry name"), row["vanishing"]
            sym = unit_section() if name == "1" else SectionSymbol(name, KIND_NAMED, vanishing)
            entries.append((_json_int(row["to"], "higgs entry index", n),
                            _json_int(row["from"], "higgs entry index", n), sym))
        _refuse_repeats(((t, s) for t, s, _ in entries), "higgs entry")
        dol = [(_json_int(r["to"], "extension term index", n),
                _json_int(r["from"], "extension term index", n),
                _json_str(r["name"], "extension term name"))
               for r in data.get("dolbeault", [])]
        _refuse_repeats(dol, "extension term")
        h = make_bundle(
            group,
            curve,
            summands,
            [_json_int(i, "pairing index", n) for i in pairing],
            data.get("form", FORM_ORTHOGONAL),
            entries,
            dolbeault=dol,
            declared=declared,
            torsion_classes=tclasses,
            meta=_json_meta(data.get("meta", {})),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed bundle document: {exc}") from exc
    degrees = h.degrees()
    for i, degree in recorded:
        if degree != degrees[i]:
            raise ParseError(
                f"summand {i} records degree {degree}, but its bundle has degree {degrees[i]}"
            )
    return h


def canonical_json(h: GradedHiggsBundle) -> str:
    return json.dumps(bundle_to_dict(h), sort_keys=True, separators=(",", ":"))


# -- comparison helpers --------------------------------------------------------

def summand_degree_multiset(h: GradedHiggsBundle) -> tuple[tuple[str, int], ...]:
    return tuple(sorted((s.side, d) for s, d in zip(h.summands, h.degrees())))


def arrow_pattern(h: GradedHiggsBundle) -> tuple[tuple[int, int, str], ...]:
    """Multiset of (target degree, source degree, vanishing) over the field."""
    degs = h.degrees()
    return tuple(
        sorted((degs[e.target], degs[e.source], e.symbol.vanishing) for e in h.higgs)
    )


__all__ = [
    "SCHEMA",
    "SectionSymbol",
    "unit_section",
    "named_section",
    "Summand",
    "HiggsEntry",
    "DolbeaultTerm",
    "GradedHiggsBundle",
    "make_bundle",
    "validate",
    "bundle_to_dict",
    "bundle_from_dict",
    "canonical_json",
    "summand_degree_multiset",
    "arrow_pattern",
    "VANISH_GENERIC",
    "VANISH_NOWHERE",
    "KIND_UNIT",
    "KIND_NAMED",
    "SIDE_V",
    "SIDE_W",
    "FORM_ORTHOGONAL",
    "FORM_SYMPLECTIC",
]
