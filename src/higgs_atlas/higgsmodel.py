"""Graded Higgs bundles as decorated quivers, and the family builders.

An object is a finite list of formal line-bundle summands (a few builders
also emit an opaque orthogonal block of higher rank), split into a V side
and a W side, together with:

  * a pairing involution sigma matching each summand with its dual,
  * a sparse matrix of section symbols: the entry at (target, source)
    lives in Hom(L_source, L_target (x) K); absent entries are zero,
  * optional Dolbeault extension terms (target, source, name) deforming
    the direct-sum holomorphic structure off-diagonally.

Only the section's name and vanishing behaviour are tracked, never its
value, so every question answered here is exact combinatorics.  Builders
fill in both blocks of the matrix: the user-facing data is the V -> W
block and its transpose block is generated from the pairing, which is
also the structural symmetry ``validate`` checks.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from .curve import Curve
from .errors import (
    BoundError,
    BudgetError,
    MissingSpinError,
    ModelInvariantError,
    ParseError,
    PreconditionError,
    UnsupportedGroupError,
    WrongGroupError,
    _read_int,
)
from .f2cohomology import F2Class, SWPair
from .linebundle import (
    KIND_DIVISOR,
    KIND_SPIN,
    KIND_TORSION,
    KIND_VARIABLE,
    LineBundleExpr,
    K_power,
    parse_expr,
    spin,
    torsion,
    trivial,
    variable,
)

SCHEMA = "higgs-atlas/1"

VANISH_ZERO = "identically-zero"
VANISH_GENERIC = "generically-nonzero"
VANISH_NOWHERE = "nowhere-vanishing"

KIND_ZERO = "zero"
KIND_UNIT = "unit"
KIND_NAMED = "named"

SIDE_V = "V"
SIDE_W = "W"

FORM_ORTHOGONAL = "orthogonal"
FORM_SYMPLECTIC = "symplectic"

_FAMILIES = ("sl", "psl", "sp", "so", "so0", "slc")


@dataclass(frozen=True)
class GroupTag:
    family: str
    params: tuple[int, ...]

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown group family {self.family!r}")
        if not self.params or any(p < 1 for p in self.params):
            raise ValueError("group parameters must be positive integers")
        if self.family in ("sl", "psl", "slc", "sp"):
            if len(self.params) != 1 or self.params[0] < 2:
                raise ValueError(f"{self.family} takes one parameter >= 2")
            if self.family == "sp" and self.params[0] % 2:
                raise ValueError("symplectic rank parameter must be even")
        elif len(self.params) != 2:
            raise ValueError(f"{self.family} takes a signature pair")

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


def milnor_wood_bound(group: GroupTag, genus: int) -> int:
    """Largest allowed value of the integer component label: the one place
    a family's label range is decided."""
    g = genus
    fam, params = group.family, group.params
    if fam == "sl" and params == (2,):
        return g - 1
    if fam == "sp":
        return (params[0] // 2) * (g - 1)
    if fam == "so0" and params[1] == params[0] + 1:
        return params[0] * (2 * g - 2)
    if (fam, params) in (("psl", (2,)), ("so", (1, 2))):
        return 2 * g - 2
    if fam == "so0" and params[0] == 2 and params[1] >= 4:
        return 2 * g - 2
    raise UnsupportedGroupError(f"no bound recorded for {group}")


@dataclass(frozen=True)
class SectionSymbol:
    """A section known only by name and vanishing behaviour."""

    name: str
    kind: str
    vanishing: str

    def __post_init__(self):
        if self.kind not in (KIND_ZERO, KIND_UNIT, KIND_NAMED):
            raise ValueError(f"bad section kind {self.kind!r}")
        if self.vanishing not in (VANISH_ZERO, VANISH_GENERIC, VANISH_NOWHERE):
            raise ValueError(f"bad vanishing tag {self.vanishing!r}")
        if (self.kind == KIND_ZERO) != (self.vanishing == VANISH_ZERO):
            raise ValueError("zero sections and identically-zero flags coincide")
        if self.kind == KIND_UNIT and self.vanishing != VANISH_NOWHERE:
            raise ValueError("a unit section vanishes nowhere")


_UNIT_SECTION = SectionSymbol("1", KIND_UNIT, VANISH_NOWHERE)


def unit_section() -> SectionSymbol:
    """The unit section; one frozen symbol shared by every entry that uses it."""
    return _UNIT_SECTION


def named_section(name: str, vanishing: str = VANISH_GENERIC) -> SectionSymbol:
    return SectionSymbol(name, KIND_NAMED, vanishing)


@dataclass(frozen=True)
class Summand:
    side: str
    bundle: LineBundleExpr
    rank: int = 1
    sw: SWPair | None = None

    def __post_init__(self):
        if self.side not in (SIDE_V, SIDE_W):
            raise ValueError(f"bad side {self.side!r}")
        if self.rank < 1:
            raise ValueError("rank must be positive")


@dataclass(frozen=True)
class HiggsEntry:
    target: int
    source: int
    symbol: SectionSymbol


@dataclass(frozen=True)
class DolbeaultTerm:
    target: int
    source: int
    name: str


@dataclass(frozen=True)
class GradedHiggsBundle:
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
        return self.summands[i].bundle.resolved_degree(self.genus, self.declared_map)

    def degrees(self) -> tuple[int, ...]:
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
        HiggsEntry(t, s, sym)
        for t, s, sym in sorted(entries, key=lambda e: (e[0], e[1]))
        if sym.kind != KIND_ZERO
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
    """Check the structural invariants; raise ModelInvariantError on failure.

    In order: sigma is an involution of the summands pairing each line with
    its dual (blocks are self-paired of degree 0), orthogonal pairings keep
    sides and symplectic ones exchange them; the group's ranks and
    determinant conditions hold (every summand degree resolves, V side
    first, or UnresolvedDegreeError names the missing symbols); no two Higgs
    entries share a (target, source); each entry is off the diagonal, has
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
    fam, params = h.group.family, h.group.params
    v_idx, w_idx = h.side_indices(SIDE_V), h.side_indices(SIDE_W)
    declared = h.declared_map
    degrees = [0] * len(h.summands)
    for i in v_idx + w_idx:
        degrees[i] = h.summands[i].bundle.resolved_degree(h.genus, declared)
    v = [degrees[i] for i in v_idx]
    w = [degrees[i] for i in w_idx]
    rank_v = sum(h.summands[i].rank for i in v_idx)
    rank_w = sum(h.summands[i].rank for i in w_idx)
    if fam == "so0":
        p, q = params
        if (rank_v, rank_w) != (p, q):
            raise ModelInvariantError(
                f"rank mismatch for {h.group}: got ({rank_v},{rank_w})"
            )
        # determinant condition: both factors have trivial determinant
        if sum(v) != 0 or sum(w) != 0:
            raise ModelInvariantError(
                f"determinant condition fails for {h.group}: degrees {sum(v)},{sum(w)}"
            )
    elif fam == "so":
        p, q = params
        if (rank_v, rank_w) != (p, q):
            raise ModelInvariantError(
                f"rank mismatch for {h.group}: got ({rank_v},{rank_w})"
            )
        if sum(v) + sum(w) != 0:
            raise ModelInvariantError("total degree must vanish")
    elif fam == "sp":
        (two_n,) = params
        if h.total_rank != two_n or rank_v != two_n // 2:
            raise ModelInvariantError(f"rank mismatch for {h.group}")
        if sum(v) + sum(w) != 0:
            raise ModelInvariantError("total degree must vanish")
        if h.form != FORM_SYMPLECTIC:
            raise ModelInvariantError("symplectic groups need a symplectic pairing")
    elif fam in ("sl", "psl", "slc"):
        (nn,) = params
        if h.total_rank != nn:
            raise ModelInvariantError(f"rank mismatch for {h.group}")
        if sum(v) + sum(w) != 0:
            raise ModelInvariantError("total degree must vanish")
    return degrees


# -- W0 descriptors for the rank-2 orthogonal story --------------------------

@dataclass(frozen=True)
class SplitW0:
    """W0 = M + M^-1 (+ trivial padding); first Stiefel-Whitney class 0."""

    degree: int
    mu: bool = True
    nu: bool = True


@dataclass(frozen=True)
class PrymW0:
    """An indecomposable flat orthogonal rank-2 block from a double cover.

    Kept opaque: only its Stiefel-Whitney data enters the combinatorics.
    """

    sw1: F2Class
    sw2: int

    def __post_init__(self):
        if self.sw1.is_zero():
            raise ValueError("an indecomposable flat O(2) bundle has sw1 != 0")
        if self.sw2 not in (0, 1):
            raise ValueError("sw2 must be a bit")


@dataclass(frozen=True)
class TrivialW0:
    """W0 = a sum of trivial line bundles."""


# -- chain helpers -----------------------------------------------------------

def _differentials(q_on: Iterable[int], top: int, even: bool = True) -> tuple[int, ...]:
    """The chosen q_j, sorted and deduplicated: each j lies in [2, top], and
    only even j exist on the orthogonal and symplectic chains."""
    q_on = tuple(sorted(set(q_on)))
    if any(j < 2 or j > top or (even and j % 2) for j in q_on):
        raise BoundError(f"differentials must {'be even and ' if even else ''}lie in [2, {top}]")
    return q_on


def _with_trivial_w(
    summands: Sequence[Summand], sigma: Sequence[int], count: int
) -> tuple[tuple[Summand, ...], tuple[int, ...]]:
    """``summands`` and ``sigma`` followed by ``count`` self-paired trivial
    W summands."""
    n = len(summands)
    return (
        tuple(summands) + (Summand(SIDE_W, trivial()),) * count,
        tuple(sigma) + tuple(range(n, n + count)),
    )


def _split_chain(
    chain: Sequence[Summand], q_on: Iterable[int]
) -> tuple[list[Summand], list[int], list[tuple[int, int, SectionSymbol]]]:
    """The principal chain on `chain` (highest K power first): units down
    the chain, each q_j in q_on (checked by the caller) on the (j-1)-th
    diagonal above it, sigma reversing it.  Returned V side first, then W
    side, each in chain order."""
    length = len(chain)
    order = [p for p in range(length) if chain[p].side == SIDE_V]
    order += [p for p in range(length) if chain[p].side == SIDE_W]
    slot = {p: k for k, p in enumerate(order)}
    sigma = [slot[length - 1 - p] for p in order]
    entries = [(slot[p + 1], slot[p], unit_section()) for p in range(length - 1)]
    for j in q_on:
        sym = named_section(f"q{j}")
        entries += [(slot[p], slot[p + j - 1], sym) for p in range(length - (j - 1))]
    return [chain[p] for p in order], sigma, entries


def _odd_chain(
    m: int, top_side: str, q_on: Iterable[int]
) -> tuple[list[Summand], list[int], list[tuple[int, int, SectionSymbol]]]:
    """``_split_chain`` on the odd orthogonal chain K^m, K^(m-1), ..., K^-m,
    its sides alternating from ``top_side``, with the even q_j in [2, 2m]."""
    other = SIDE_W if top_side == SIDE_V else SIDE_V
    chain = [Summand(top_side if p % 2 == 0 else other, K_power(m - p)) for p in range(2 * m + 1)]
    return _split_chain(chain, _differentials(q_on, 2 * m))


def _add_m_pair(
    summands: list[Summand],
    sigma: list[int],
    entries: list[tuple[int, int, SectionSymbol]],
    d: int,
    top: int,
    low_v: int,
    mu: bool,
    nu: bool,
) -> None:
    """Append W = M + M^-1 (deg M = d): mu from the V slot `low_v` to M^-1
    and from M to the top V slot 0, nu the other way round.  Their ambients
    have degree top - d and top + d; a section in a degree-0 ambient
    trivializes it."""
    m = len(summands)
    summands += [Summand(SIDE_W, variable("M")), Summand(SIDE_W, variable("M", -1))]
    sigma += [m + 1, m]
    if mu:
        sym = named_section("mu", VANISH_NOWHERE if d == top else VANISH_GENERIC)
        entries += [(m + 1, low_v, sym), (0, m, sym)]
    if nu:
        sym = named_section("nu", VANISH_NOWHERE if -d == top else VANISH_GENERIC)
        entries += [(m, low_v, sym), (0, m + 1, sym)]


# -- builders ----------------------------------------------------------------

def build_hitchin_sl(
    curve: Curve, n: int, q_on: Iterable[int] = (), spin_name: str | None = None
) -> GradedHiggsBundle:
    """Principal chain for the split real form of SL(n): consecutive
    half-integer twists of K with unit subdiagonal and chosen differentials.

    Even n needs a spin symbol (a choice of square root of K); refusing to
    pick one implicitly keeps the 2^(2g) lift choices distinguishable.
    """
    if n < 2:
        raise BoundError("need rank at least 2")
    q_on = _differentials(q_on, n, even=False)
    if n % 2 == 0 and not spin_name:
        raise MissingSpinError("even rank needs an explicit spin symbol")
    chain = []
    for i in range(1, n + 1):
        if n % 2:
            expr = K_power((n + 1 - 2 * i) // 2)
        else:
            expr = spin(spin_name).tensor(K_power((n - 2 * i) // 2))
        chain.append(Summand(SIDE_V, expr))
    summands, sigma, entries = _split_chain(chain, q_on)
    return make_bundle(
        GroupTag("sl", (n,)),
        curve,
        summands,
        sigma,
        FORM_ORTHOGONAL,
        entries,
        meta={"family": "hitchin-sl", "n": n},
    )


def build_hitchin_so(curve: Curve, n: int, q_on: Iterable[int] = ()) -> GradedHiggsBundle:
    """Hitchin object for the split orthogonal group of signature (n, n+1).

    The odd-length principal chain with the odd differentials suppressed;
    positions of even chain index form the V side, the rest the W side.
    """
    if n < 1:
        raise BoundError("need n >= 1")
    summands, sigma, entries = _odd_chain(n, SIDE_W, q_on)
    return make_bundle(
        GroupTag("so0", (n, n + 1)),
        curve,
        summands,
        sigma,
        FORM_ORTHOGONAL,
        entries,
        meta={"family": "hitchin-so", "n": n},
    )


def build_hitchin_sp(
    curve: Curve, n: int, q_on: Iterable[int] = (), spin_name: str = "s"
) -> GradedHiggsBundle:
    """Hitchin object for the split symplectic group of rank n (Sp(2n))."""
    if n < 1:
        raise BoundError("need n >= 1")
    if not spin_name:
        raise MissingSpinError("the symplectic chain needs a spin symbol")
    q_on = _differentials(q_on, 2 * n)
    chain = [
        Summand(SIDE_V if p % 2 == 0 else SIDE_W, spin(spin_name).tensor(K_power(n - 1 - p)))
        for p in range(2 * n)
    ]
    summands, sigma, entries = _split_chain(chain, q_on)
    return make_bundle(
        GroupTag("sp", (2 * n,)),
        curve,
        summands,
        sigma,
        FORM_SYMPLECTIC,
        entries,
        meta={"family": "hitchin-sp", "n": n},
    )


def build_fuchsian(curve: Curve, spin_name: str = "s", q2: bool = True) -> GradedHiggsBundle:
    """The uniformizing rank-2 object: a spin bundle and its dual."""
    h = build_hitchin_sp(curve, 1, (2,) if q2 else (), spin_name)
    return replace(h, meta=tuple(sorted({"family": "fuchsian", "n": 1}.items())))


def build_hitchin_so_nn(
    curve: Curve, n: int, q_on: Iterable[int] = (), pfaffian: bool = False
) -> GradedHiggsBundle:
    """Hitchin object for split signature (n, n): the (n, n-1) chain plus a
    trivial W summand receiving the Pfaffian differential."""
    if n < 2:
        raise BoundError("need n >= 2")
    summands, sigma, entries = _odd_chain(n - 1, SIDE_V, q_on)
    summands, sigma = _with_trivial_w(summands, sigma, 1)
    if pfaffian:
        pf = named_section("pf")
        last_v = n - 1          # lowest chain position is V-side (even p), slot n-1
        first_v = 0
        o_idx = len(summands) - 1
        entries.append((o_idx, last_v, pf))
        entries.append((first_v, o_idx, pf))
    return make_bundle(
        GroupTag("so0", (n, n)),
        curve,
        summands,
        sigma,
        FORM_ORTHOGONAL,
        entries,
        meta={"family": "hitchin-so-nn", "n": n},
    )


def _twist_chain(
    curve: Curve,
    n: int,
    d: int,
    mu: bool,
    nu: bool,
    q_on: Iterable[int],
    meta: Mapping[str, object],
) -> GradedHiggsBundle:
    """Signature (n, n+1): the (n, n-1) principal chain plus M + M^-1 with
    deg M = d, fed by its lowest V summand K^(1-n) through mu and nu; shared
    by ``build_exotic_so`` and ``build_degree_zero_chain``."""
    if n < 2:
        raise BoundError("need n >= 2")
    group = GroupTag("so0", (n, n + 1))
    bound = milnor_wood_bound(group, curve.genus)
    if abs(d) > bound:
        raise BoundError(f"|d| = {abs(d)} exceeds the bound {bound}")
    summands, sigma, entries = _odd_chain(n - 1, SIDE_V, q_on)
    _add_m_pair(summands, sigma, entries, d, bound, low_v=n - 1, mu=mu, nu=nu)
    return make_bundle(
        group,
        curve,
        summands,
        sigma,
        FORM_ORTHOGONAL,
        entries,
        declared={"M": d},
        meta=meta,
    )


def build_exotic_so(
    curve: Curve,
    n: int,
    d: int,
    mu: bool = True,
    nu: bool = False,
    q_on: Iterable[int] = (),
) -> GradedHiggsBundle:
    """Twisted-chain family in signature (n, n+1), labelled by d = deg M.

    The defining section mu must be switched on and the label must satisfy
    0 < d <= n(2g-2); the degree-0 shape is available separately through
    ``build_degree_zero_chain``.
    """
    if n < 1:
        raise BoundError(f"signature ({n}, {n + 1}) has no label range")
    bound = milnor_wood_bound(GroupTag("so0", (n, n + 1)), curve.genus)
    if not 0 < d <= bound:
        raise BoundError(f"label must satisfy 0 < d <= {bound}, got {d}")
    if not mu:
        raise PreconditionError("the family needs a nonzero section mu")
    meta = {"family": "exotic-so", "n": n, "d": d}
    if n == 2:
        meta["switch_variable"] = "M"
        meta["switch_sections"] = "mu,nu"
    return _twist_chain(curve, n, d, mu, nu, q_on, meta)


def build_degree_zero_chain(curve: Curve, n: int) -> GradedHiggsBundle:
    """Unit chain with an isolated degree-0 pair M, M^-1 and zero field on it.

    Remark-level shape: recorded for the catalog's degree-0 slot; a full
    construction of that component is deliberately out of scope.
    """
    meta = {"family": "degree-zero-chain", "n": n, "d": 0,
            "status": "remark-level, construction deferred"}
    return _twist_chain(curve, n, 0, False, False, (), meta)


def build_so12(curve: Curve, d: int, mu: bool = True, nu: bool = True) -> GradedHiggsBundle:
    """Rank-3 family with decomposed rank-2 part: O on the V side, M + M^-1
    on the W side, sections mu and nu running down and up the chain."""
    group = GroupTag("so", (1, 2))
    bound = milnor_wood_bound(group, curve.genus)
    if abs(d) > bound:
        raise BoundError(f"|d| exceeds {bound}")
    summands = [Summand(SIDE_V, trivial())]
    sigma = [0]
    entries: list[tuple[int, int, SectionSymbol]] = []
    _add_m_pair(summands, sigma, entries, d, bound, low_v=0, mu=mu, nu=nu)
    return make_bundle(
        group,
        curve,
        summands,
        sigma,
        FORM_ORTHOGONAL,
        entries,
        declared={"M": d},
        meta={"family": "so12", "d": d,
              "switch_variable": "M", "switch_sections": "mu,nu"},
    )


def build_maximal_so23(
    curve: Curve, d: int, mu: bool = True, nu: bool = True, q2: bool = True
) -> GradedHiggsBundle:
    """Maximal family in signature (2, 3) with decomposed rank-2 part, under
    its own label: ``build_maximal_so2n``'s n = 3 case with W0 = M + M^-1,
    so V = K + K^-1 and W = O + M + M^-1.  The n = 2 twisted chain
    (``build_exotic_so``) builds the same object from the principal chain.
    """
    h = build_maximal_so2n(curve, 3, SplitW0(d, mu, nu), q2)
    meta = {"family": "maximal-so23", "d": d,
            "switch_variable": "M", "switch_sections": "mu,nu"}
    return replace(h, meta=tuple(sorted(meta.items())))


def build_maximal_so2n(
    curve: Curve,
    n: int,
    w0: SplitW0 | PrymW0 | TrivialW0,
    q2: bool = True,
    beta0: bool = True,
) -> GradedHiggsBundle:
    """Maximal-Toledo family in signature (2, n), n >= 3.

    V = K I + K^-1 I with I the determinant of the chosen rank-(n-1)
    orthogonal bundle W0; W = I + W0.  The three supported W0 shapes are a
    decomposed pair M + M^-1 (padded with trivial summands above n = 3),
    a sum of trivial bundles, and an opaque indecomposable flat block
    labelled only by its Stiefel-Whitney data.
    """
    if n < 3:
        raise BoundError("signature (2, n) needs n >= 3")
    g = curve.genus
    torsion_classes: dict[str, F2Class] = {}
    declared: dict[str, int] = {}
    if isinstance(w0, PrymW0):
        i_expr = torsion("I")
        torsion_classes["I"] = w0.sw1
    elif isinstance(w0, (SplitW0, TrivialW0)):
        i_expr = trivial()
    else:
        raise TypeError(f"unknown W0 descriptor {w0!r}")
    # the signature-(2, 1) principal chain twisted by I
    chain = [Summand(SIDE_V, i_expr.tensor(K_power(1))), Summand(SIDE_W, i_expr),
             Summand(SIDE_V, i_expr.tensor(K_power(-1)))]
    summands, sigma, entries = _split_chain(chain, (2,) if q2 else ())
    meta: dict[str, object] = {"family": "maximal-so2n", "n": n}
    if isinstance(w0, SplitW0):
        # M + M^-1 carries the signature-(2,3) label range at every n
        top = milnor_wood_bound(GroupTag("so0", (2, 3)), g)
        if abs(w0.degree) > top:
            raise BoundError(f"|deg M| exceeds {top}")
        declared["M"] = w0.degree
        _add_m_pair(summands, sigma, entries, w0.degree, top, low_v=1, mu=w0.mu, nu=w0.nu)
        summands, sigma = _with_trivial_w(summands, sigma, n - 3)
        meta.update({"w0": "split", "d": w0.degree,
                     "sw1": F2Class.zero(g).bits(), "sw2": w0.degree % 2,
                     "switch_variable": "M", "switch_sections": "mu,nu"})
    elif isinstance(w0, TrivialW0):
        summands, sigma = _with_trivial_w(summands, sigma, n - 1)
        meta.update({"w0": "trivial", "sw1": F2Class.zero(g).bits(), "sw2": 0})
    else:
        if n != 3:
            raise BoundError("an indecomposable rank-2 block fills W0 only for n = 3")
        summands.append(
            Summand(SIDE_W, variable("W0"), rank=2, sw=SWPair(w0.sw1, w0.sw2))
        )
        declared["W0"] = 0
        sigma.append(len(chain))
        meta.update({"w0": "prym", "sw1": w0.sw1.bits(), "sw2": w0.sw2})
    if beta0 and not isinstance(w0, SplitW0):
        # beta0 joins each summand of a trivial or flat W0 to the chain
        sym = named_section("beta0")
        entries += [e for i in range(len(chain), len(summands)) for e in ((i, 1, sym), (0, i, sym))]
    return make_bundle(
        GroupTag("so0", (2, n)),
        curve,
        summands,
        sigma,
        FORM_ORTHOGONAL,
        entries,
        declared=declared,
        torsion_classes=torsion_classes,
        meta=meta,
    )


def build_twisted_fuchsian_sp(
    curve: Curve,
    classes: Sequence[F2Class],
    spin_name: str = "s",
    q2: bool = True,
) -> GradedHiggsBundle:
    """Diagonal twist of the uniformizing object by 2-torsion bundles.

    V is a sum of n copies of the spin bundle, each twisted by a 2-torsion
    line; the field is blockwise the rank-2 one (unit down, q2 up on every
    pair).  A zero class means an untwisted copy.
    """
    n = len(classes)
    if n < 1:
        raise BoundError("need at least one summand")
    if not spin_name:
        raise MissingSpinError("the twisted chain needs a spin symbol")
    g = curve.genus
    torsion_classes: dict[str, F2Class] = {}
    v_exprs = []
    for j, cls in enumerate(classes, start=1):
        if cls.genus != g:
            raise ModelInvariantError("torsion class genus does not match the curve")
        if cls.is_zero():
            v_exprs.append(spin(spin_name))
        else:
            name = f"I{j}"
            torsion_classes[name] = cls
            v_exprs.append(spin(spin_name).tensor(torsion(name)))
    summands = [Summand(SIDE_V, e) for e in v_exprs]
    summands += [Summand(SIDE_W, e.dual()) for e in v_exprs]
    sigma = [n + j for j in range(n)] + list(range(n))
    entries = []
    q_sym = named_section("q2")
    for j in range(n):
        entries.append((n + j, j, unit_section()))
        if q2:
            entries.append((j, n + j, q_sym))
    return make_bundle(
        GroupTag("sp", (2 * n,)),
        curve,
        summands,
        sigma,
        FORM_SYMPLECTIC,
        entries,
        torsion_classes=torsion_classes,
        meta={"family": "twisted-fuchsian-sp", "n": n},
    )


def _so35_frame(
    curve: Curve,
    line: str,
    line_degree: int,
    entries: Iterable[tuple[int, int, SectionSymbol]],
    dolbeault: Iterable[tuple[int, int, str]],
    meta: Mapping[str, object],
) -> GradedHiggsBundle:
    """Signature (3,5) on V = K^2 + O + K^-2 and W = L + K + K^-1 + L^-1 + O,
    deg L = ``line_degree``, with the four units of the (3,4) chain plus
    ``entries`` and the extension terms ``dolbeault``.  Indices: 0-2 the V
    side in that order, then 3 L, 4 K, 5 K^-1, 6 L^-1, 7 O."""
    summands = [
        Summand(SIDE_V, K_power(2)),
        Summand(SIDE_V, trivial()),
        Summand(SIDE_V, K_power(-2)),
        Summand(SIDE_W, variable(line)),
        Summand(SIDE_W, K_power(1)),
        Summand(SIDE_W, K_power(-1)),
        Summand(SIDE_W, variable(line, -1)),
        Summand(SIDE_W, trivial()),
    ]
    units = [(t, s, unit_section()) for t, s in ((4, 0), (5, 1), (1, 4), (2, 5))]
    return make_bundle(
        GroupTag("so0", (3, 5)),
        curve,
        summands,
        [2, 1, 0, 6, 5, 4, 3, 7],
        FORM_ORTHOGONAL,
        units + list(entries),
        dolbeault=dolbeault,
        declared={line: line_degree},
        meta=meta,
    )


def build_extension_deformed_so35(curve: Curve, d: int, mu: bool = True) -> GradedHiggsBundle:
    """The (3,4) twisted-chain object sitting inside signature (3,5), with
    the direct-sum holomorphic structure deformed by an extension class.

    V = K^2 + O + K^-2; W = M + K + K^-1 + M^-1 + O.  The field has the
    two chain units and mu; the extension term eps glues the new trivial
    summand to M and M^-1 (one matched transpose pair).
    """
    if not mu:
        raise PreconditionError("the deformation needs a nonzero section mu")
    bound = milnor_wood_bound(GroupTag("so0", (3, 4)), curve.genus)
    if not 0 < d <= bound:
        raise BoundError(f"label must satisfy 0 < d <= {bound}, got {d}")
    m_sym = named_section("mu", VANISH_NOWHERE if d == bound else VANISH_GENERIC)
    return _so35_frame(
        curve,
        "M",
        d,
        [(6, 2, m_sym), (0, 3, m_sym)],
        [(6, 7, "eps"), (7, 3, "eps")],
        {"family": "deformed-exotic-so35", "d": d},
    )


# -- derived objects ---------------------------------------------------------

def associated_sl(h: GradedHiggsBundle) -> GradedHiggsBundle:
    """Forget the real structure: the same summands and field seen as an
    object for the special linear group of the total rank."""
    if h.group.family == "slc":
        raise WrongGroupError("already a special-linear object")
    if sum(h.degrees()) != 0:
        raise ModelInvariantError("total degree must vanish")
    out = replace(
        h,
        group=GroupTag("slc", (h.total_rank,)),
        meta=tuple(sorted({**h.meta_map, "associated_from": str(h.group)}.items())),
    )
    validate(out)
    return out


def _integer_label(h: GradedHiggsBundle) -> int:
    """The component label ``d`` recorded in the meta, read by the integer
    rule; anything else is refused."""
    d = h.meta_map.get("d")
    label = _read_int(str(d), signed=True)
    if label is None:
        raise PreconditionError(f"the component label d = {d!r} is not an integer")
    return label


def embed_so23_to_so2n(h: GradedHiggsBundle, n: int) -> GradedHiggsBundle:
    """Stabilize a maximal (2,3) object to signature (2,n) by appending
    trivial W summands with zero field rows."""
    if h.group != GroupTag("so0", (2, 3)):
        raise WrongGroupError(f"expected a so0:2,3 object, got {h.group}")
    if n < 4:
        raise BoundError("the target signature needs n >= 4")
    summands, sigma = _with_trivial_w(h.summands, h.sigma, n - 3)
    meta = {**h.meta_map, "family": "maximal-so2n", "n": n, "w0": "embedded"}
    if "sw1" not in meta:
        meta["sw1"] = F2Class.zero(h.genus).bits()
        meta["sw2"] = 0 if meta.get("d") is None else _integer_label(h) % 2
    out = replace(
        h,
        group=GroupTag("so0", (2, n)),
        summands=summands,
        sigma=sigma,
        meta=tuple(sorted(meta.items())),
    )
    validate(out)
    return out


def embed_so23_to_so33(h: GradedHiggsBundle) -> GradedHiggsBundle:
    """Stabilize a maximal (2,3) object to split signature (3,3) by
    prepending one trivial V summand with zero field row."""
    if h.group != GroupTag("so0", (2, 3)):
        raise WrongGroupError(f"expected a so0:2,3 object, got {h.group}")
    summands = [Summand(SIDE_V, trivial())] + list(h.summands)
    sigma = [0] + [j + 1 for j in h.sigma]
    entries = [(e.target + 1, e.source + 1, e.symbol) for e in h.higgs]
    dol = [(t.target + 1, t.source + 1, t.name) for t in h.dolbeault]
    return make_bundle(
        GroupTag("so0", (3, 3)),
        Curve(h.genus),
        summands,
        sigma,
        h.form,
        entries,
        dolbeault=dol,
        declared=h.declared_map,
        torsion_classes=dict(h.torsion_classes),
        meta={**h.meta_map, "family": "embedded-so33"},
    )


def append_trivial_w(h: GradedHiggsBundle) -> GradedHiggsBundle:
    """Stabilize signature (p, q) to (p, q+1) with a trivial W summand."""
    if h.group.family != "so0":
        raise WrongGroupError("only split orthogonal objects can be stabilized")
    p, q = h.group.params
    summands, sigma = _with_trivial_w(h.summands, h.sigma, 1)
    out = replace(h, group=GroupTag("so0", (p, q + 1)), summands=summands, sigma=sigma)
    validate(out)
    return out


def so2n_sw_label(h: GradedHiggsBundle) -> SWPair:
    """Stiefel-Whitney label of the rank-(n-1) orthogonal complement of a
    maximal signature-(2,n) object, computed from the summand data.

    The complement is the W side minus the distinguished line receiving
    the unit (the twist of the top V summand by the dual twisting line).
    Its label is the total class of the orthogonal sum: dual line pairs
    contribute their degree mod 2 to the second class, self-paired lines
    contribute their 2-torsion class to the first, opaque blocks carry
    their recorded pair, and the labels add under ``SWPair.__add__``.
    """
    if h.group.family != "so0" or h.group.params[0] != 2:
        raise WrongGroupError(f"expected a signature-(2,n) object, got {h.group}")
    v_idx = h.side_indices(SIDE_V)
    w_idx = h.side_indices(SIDE_W)
    if len(v_idx) != 2:
        raise WrongGroupError("expected a rank-2 positive side")
    top_v = max(v_idx, key=h.degree_of)
    unit_line = h.summands[top_v].bundle.tensor(K_power(-1))
    distinguished = None
    for i in w_idx:
        if h.summands[i].rank == 1 and h.summands[i].bundle == unit_line:
            distinguished = i
            break
    if distinguished is None:
        raise WrongGroupError("no distinguished unit line on the W side")
    tclasses = dict(h.torsion_classes)
    zero = F2Class.zero(h.genus)
    factors: list[SWPair] = []
    seen: set[int] = set()
    for i in w_idx:
        if i == distinguished or i in seen:
            continue
        seen.add(i)
        s = h.summands[i]
        if s.rank > 1:
            if s.sw is None:
                raise WrongGroupError(f"block summand {i} carries no invariants")
            factors.append(s.sw)
        elif h.sigma[i] == i:
            factors.append(SWPair(sum((tclasses.get(n, zero) for n in s.bundle.torsions), zero), 0))
        else:
            seen.add(h.sigma[i])
            factors.append(SWPair(zero, h.degree_of(i) % 2))
    return sum(factors, SWPair(zero, 0))


# -- gauge moves and canonical forms ------------------------------------------

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


_PERM_CAP = 40320  # 8!; exceeded by so0:2,n with trivial W0 once n >= 9 (n trivial W summands)


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


def gauge_orbit_key(h: GradedHiggsBundle) -> str:
    """Canonical key under reordering plus the switching move when present.
    ``switched`` validates the other presentation, so its orderings are
    read without a second check; they have the cap ``h`` already passed,
    since switching renames bundles one to one."""
    key = canonical_key(h)
    if not switchable(h):
        return key
    return min(key, min(canonical_json(p) for p in _permutation_orbit(switched(h))))


def structurally_equal(a: GradedHiggsBundle, b: GradedHiggsBundle) -> bool:
    """Equality up to summand reordering (groups and genus included)."""
    if a.group != b.group or a.genus != b.genus:
        return False
    return canonical_key(a) == canonical_key(b)


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


def _refuse_repeats(keys: Iterable[tuple], what: str, error: type = ParseError) -> None:
    seen = set()
    for key in keys:
        if key in seen:
            raise error(f"{what} {key} is listed twice")
        seen.add(key)


def bundle_from_dict(data: Mapping) -> GradedHiggsBundle:
    """Load an object document.  Refused with ParseError, besides missing
    keys and non-integer numbers: an unknown symbol kind, a Higgs entry or
    an extension term listed twice, and a recorded summand degree that
    differs from the degree its bundle resolves to."""
    if not isinstance(data, Mapping):
        raise ParseError(f"an object document must be a JSON object, got {type(data).__name__}")
    try:
        if data.get("schema", SCHEMA) != SCHEMA:
            raise ParseError(f"unknown schema {data.get('schema')!r}")
        group = GroupTag.parse(data["group"])
        curve = Curve(_json_int(data["genus"], "genus"))
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
        tclasses = {
            name: F2Class.from_bits(info["class"])
            for name, info in symbols.items()
            if "class" in info
        }
        summands = []
        recorded = []
        for i, row in enumerate(data["summands"]):
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
            name, vanishing = row["name"], row["vanishing"]
            sym = unit_section() if name == "1" else SectionSymbol(name, KIND_NAMED, vanishing)
            entries.append((_json_int(row["to"], "higgs entry index", n),
                            _json_int(row["from"], "higgs entry index", n), sym))
        _refuse_repeats(((t, s) for t, s, _ in entries), "higgs entry")
        dol = [(_json_int(r["to"], "extension term index", n),
                _json_int(r["from"], "extension term index", n), r["name"])
               for r in data.get("dolbeault", [])]
        _refuse_repeats(dol, "extension term")
        h = make_bundle(
            group,
            curve,
            summands,
            [_json_int(i, "pairing index", n) for i in data["pairing"]],
            data.get("form", FORM_ORTHOGONAL),
            entries,
            dolbeault=dol,
            declared=declared,
            torsion_classes=tclasses,
            meta=data.get("meta", {}),
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
    "GroupTag",
    "milnor_wood_bound",
    "SectionSymbol",
    "unit_section",
    "named_section",
    "Summand",
    "HiggsEntry",
    "DolbeaultTerm",
    "GradedHiggsBundle",
    "SplitW0",
    "PrymW0",
    "TrivialW0",
    "make_bundle",
    "validate",
    "build_fuchsian",
    "build_hitchin_sl",
    "build_hitchin_so",
    "build_hitchin_sp",
    "build_hitchin_so_nn",
    "build_exotic_so",
    "build_degree_zero_chain",
    "build_so12",
    "build_maximal_so23",
    "build_maximal_so2n",
    "build_twisted_fuchsian_sp",
    "build_extension_deformed_so35",
    "associated_sl",
    "embed_so23_to_so2n",
    "embed_so23_to_so33",
    "append_trivial_w",
    "so2n_sw_label",
    "permute_summands",
    "switchable",
    "switched",
    "canonical_key",
    "gauge_orbit_key",
    "structurally_equal",
    "bundle_to_dict",
    "bundle_from_dict",
    "canonical_json",
    "summand_degree_multiset",
    "arrow_pattern",
    "VANISH_ZERO",
    "VANISH_GENERIC",
    "VANISH_NOWHERE",
    "KIND_ZERO",
    "KIND_UNIT",
    "KIND_NAMED",
    "SIDE_V",
    "SIDE_W",
    "FORM_ORTHOGONAL",
    "FORM_SYMPLECTIC",
]
