"""Independent oracles and sample generators for the test suite.

Everything here recomputes answers from first principles with code paths
that share nothing with the package internals, so agreement is evidence
rather than tautology.  The stability oracle enumerates raw index subsets
with itertools and uses the complement formulation of splitting; the
verdict oracle is the single scan over all 2^n masks that the package ran
before it scanned one connected component at a time, and the
component-scan oracle is that per-component scan as it listed every closed
subset before it kept two running keys, asked also of a hand-made corpus
of valid objects of several components; the
characteristic-class oracle folds a truncated product pair by pair, and
the Stiefel-Whitney search oracle scans every tuple of classes with the
coordinate formula for the cup product, and the reachability oracle grows
the set of values m classes reach one class at a time.  The validation
oracle builds each Higgs entry's ambient as a line-bundle expression and
reads its degree and shape from that expression; its duals are rebuilt
by negating every exponent and reducing again, not by the closed form,
and its tensor products merge the two sides' exponents name by name and
reduce them, not by summing over all operands by kind.  The parse oracle
is the factor-by-factor parser the package ran before it summed each
kind's exponents in one pass: every factor becomes an atom and is
tensored on with that merge and reduction.
The builder oracle writes the maximal signature-(2, 3) object out summand
by summand, with no chain or M-pair helper, so a fault in those helpers
cannot show on both sides of a comparison.  The value-type oracle is each
value type as the frozen dataclass it was, checks included, and ``as_old``
rebuilds any answer with those twins.  The comparison oracle is the
key-only ``structurally_equal`` and ``gauge_equivalent`` the package ran
before it compared permutation invariants first.  The witness oracle is
the greedy scan that chose every class of a smallest SW witness, the last
one included, and the summand-key oracle is the grouping key orderings were
sorted by before one summand row served both the orderings and the
permutation invariant.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence

from higgs_atlas import (
    ComponentDescriptor,
    Curve,
    ExponentRow,
    ExponentTable,
    F2Class,
    GradedHiggsBundle,
    HiggsEntry,
    InvariantSubobject,
    KIND_DIVISOR,
    KIND_SPIN,
    KIND_TORSION,
    K_power,
    ModelInvariantError,
    Parameterization,
    ParseError,
    PrymW0,
    SectionSymbol,
    SplitW0,
    StabilityVerdict,
    Summand,
    SurjectivityReport,
    SWPair,
    TrivialW0,
    WeightAssignment,
    append_trivial_w,
    associated_sl,
    build_degree_zero_chain,
    build_exotic_so,
    build_extension_deformed_so35,
    build_fuchsian,
    build_hitchin_sl,
    build_hitchin_so,
    build_hitchin_so_nn,
    build_hitchin_sp,
    build_maximal_so23,
    build_maximal_so2n,
    build_so12,
    build_twisted_fuchsian_sp,
    canonical_key,
    cup,
    divisor_twist,
    embed_so23_to_so2n,
    embed_so23_to_so33,
    exponent_table,
    gauge_orbit_key,
    named_section,
    spin,
    switched,
    torsion,
    trivial,
    unit_section,
    variable,
)
from higgs_atlas.curve import EXACT, GENERIC
from higgs_atlas.errors import _Value
from higgs_atlas.f2classes import _check_genus, _even_bits, _whitney
from higgs_atlas.f2cohomology import _reachable
from higgs_atlas.groups import _FAMILIES
from higgs_atlas.higgsmodel import (
    FORM_ORTHOGONAL,
    KIND_NAMED,
    KIND_UNIT,
    SIDE_V,
    SIDE_W,
    VANISH_GENERIC,
    VANISH_NOWHERE,
    GroupTag,
    make_bundle,
    validate,
)
from higgs_atlas.linebundle import _FACTOR_RE, LineBundleExpr, _make


def _arrows(h: GradedHiggsBundle) -> list[tuple[int, int]]:
    pairs = [(e.target, e.source) for e in h.higgs]
    pairs.extend((t.target, t.source) for t in h.dolbeault)
    return pairs


def _is_closed(subset: frozenset[int], arrows: Sequence[tuple[int, int]]) -> bool:
    return all(t in subset for (t, s) in arrows if s in subset)


def brute_force_polystability(h: GradedHiggsBundle) -> str:
    """Exhaustive verdict over every index subset, no pruning.

    A proper nonempty closed subset of positive degree destabilizes.  A
    closed degree-zero subset is harmless only when its complement is
    closed as well; one with a non-closed complement pins the object at
    semistable without a splitting.
    """
    n = len(h.summands)
    arrows = _arrows(h)
    everything = frozenset(range(n))
    zero_split_all = True
    saw_zero = False
    for r in range(1, n):
        for combo in itertools.combinations(range(n), r):
            sub = frozenset(combo)
            if not _is_closed(sub, arrows):
                continue
            deg = sum(h.degree_of(i) for i in sub)
            if deg > 0:
                return "unstable"
            if deg == 0:
                saw_zero = True
                if not _is_closed(everything - sub, arrows):
                    zero_split_all = False
    if not zero_split_all:
        return "unstable"
    return "polystable" if saw_zero else "stable"


def subset_scan_verdict(h: GradedHiggsBundle) -> dict:
    """The verdict document of the single subset scan ``check_polystability``
    ran before it split objects into components: every one of the 2^n index
    masks is tested, the closed ones are sorted by size then indices, and
    the trichotomy is read off that one list.  Witness, decomposition and
    note are spelled as ``StabilityVerdict.to_dict`` spells them."""
    n = len(h.summands)
    arrows = _arrows(h)
    subs = []
    for mask in range(1 << n):
        sub = frozenset(i for i in range(n) if mask >> i & 1)
        if _is_closed(sub, arrows):
            subs.append((tuple(sorted(sub)), sum(h.degree_of(i) for i in sub)))
    subs.sort(key=lambda r: (len(r[0]), r[0]))
    proper = [r for r in subs if 0 < len(r[0]) < n]

    def best(cands):
        idx, deg = min(cands, key=lambda r: (-r[1], len(r[0]), r[0]))
        return {"indices": list(idx), "degree": deg}

    positive = [r for r in proper if r[1] > 0]
    if positive:
        return {"status": "unstable", "witness": best(positive),
                "note": "destabilizing subobject of positive degree"}
    zero = [r for r in proper if r[1] == 0]
    if not zero:
        return {"status": "stable", "decomposition": [list(range(n))]}
    comps = _undirected_components(n, arrows)
    cutting = [r for r in zero
               if any(set(r[0]) & c and not c <= set(r[0]) for c in map(set, comps))]
    if cutting:
        return {"status": "unstable", "witness": best(cutting),
                "note": "degree-zero subobject that does not split off; "
                        "semistable but not polystable"}
    return {"status": "polystable", "decomposition": [list(c) for c in comps],
            "note": f"direct sum of {len(comps)} stable factors of degree zero"}


def _undirected_components(n: int, arrows: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
    comp = {i: {i} for i in range(n)}
    for t, s in arrows:
        if comp[t] is not comp[s]:
            merged = comp[t] | comp[s]
            for i in merged:
                comp[i] = merged
    return sorted({tuple(sorted(c)) for c in comp.values()})


def component_closed_subsets(
    h: GradedHiggsBundle, members: Sequence[int]
) -> list[tuple[tuple[int, ...], int]]:
    """Every arrow-closed subset of one component, as (indices, degree), in
    the order of its masks over local positions."""
    local = {g: i for i, g in enumerate(members)}
    arcs = [(local[s], local[t]) for t, s in _arrows(h) if s in local]
    out = []
    for mask in range(1 << len(members)):
        if all(not mask >> s & 1 or mask >> t & 1 for s, t in arcs):
            indices = tuple(g for i, g in enumerate(members) if mask >> i & 1)
            out.append((indices, sum(h.degree_of(g) for g in indices)))
    return out


def witness_order(sub: tuple[tuple[int, ...], int]) -> tuple:
    """The order a witness is chosen in: largest degree, then fewest
    summands, then least indices."""
    indices, degree = sub
    return -degree, len(indices), indices


def component_scan_verdict(h: GradedHiggsBundle) -> dict:
    """The verdict document of the component scan ``check_polystability``
    ran before it kept two running keys per component: components by
    merging the index sets each arrow joins, every closed subset of each
    component listed, the positive witness the union of each component's
    least closed subset, the degree-zero witness the least proper nonempty
    degree-zero closed subset of any component.  Spelled as
    ``StabilityVerdict.to_dict`` spells it."""
    n = len(h.summands)
    comps = _undirected_components(n, _arrows(h))
    tops, zero = [], []
    for part in comps:
        subs = component_closed_subsets(h, part)
        tops.append(min(subs, key=witness_order))
        zero += [sub for sub in subs if sub[1] == 0 and 0 < len(sub[0]) < len(part)]
    if any(degree > 0 for _, degree in tops):
        indices = sorted(i for top, _ in tops for i in top)
        return {"status": "unstable",
                "witness": {"indices": indices, "degree": sum(d for _, d in tops)},
                "note": "destabilizing subobject of positive degree"}
    if zero:
        indices, degree = min(zero, key=witness_order)
        return {"status": "unstable", "witness": {"indices": list(indices), "degree": degree},
                "note": "degree-zero subobject that does not split off; "
                        "semistable but not polystable"}
    if len(comps) <= 1:
        return {"status": "stable", "decomposition": [list(range(n))]}
    return {"status": "polystable", "decomposition": [list(c) for c in comps],
            "note": f"direct sum of {len(comps)} stable factors of degree zero"}


def hand_made_corpus(seed: int, count: int) -> list[GradedHiggsBundle]:
    """Valid sl objects of several components, built by hand with no
    ``family`` meta: pairs of dual line bundles M_k, M_k^-1 of declared
    degree -2..2, some trivial summands paired with themselves, and arrows
    laid as 2-cycles, stars into one summand and single arrows, each with
    its transpose partner (which mirrors a star into a star out of the dual
    summand).  Summands without arrows are singletons of positive, zero or
    negative degree.  Genus 4 leaves room for every arrow's section."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pairs, trivials = rng.randint(1, 4), rng.randint(0, 2)
        declared = {f"M{k}": rng.randint(-2, 2) for k in range(pairs)}
        summands = [Summand(SIDE_V, variable(f"M{k}", e)) for k in range(pairs) for e in (1, -1)]
        summands += [Summand(SIDE_V, trivial())] * trivials
        n = len(summands)
        sigma = [i ^ 1 for i in range(2 * pairs)] + list(range(2 * pairs, n))
        arrows: dict[tuple[int, int], str] = {}

        def arrow(t: int, s: int) -> None:
            if t != s and (t, s) not in arrows:
                name = f"a{len(arrows)}"
                arrows[(t, s)] = arrows[(sigma[s], sigma[t])] = name

        for _ in range(rng.randint(0, 3)):
            shape = rng.randrange(3)
            ends = rng.sample(range(n), min(n, rng.randint(2, 4)))
            if shape == 0:
                arrow(ends[0], ends[1])
                arrow(ends[1], ends[0])
            elif shape == 1:
                for leaf in ends[1:]:
                    arrow(ends[0], leaf)
            else:
                arrow(ends[0], ends[1])
        entries = [(t, s, named_section(name)) for (t, s), name in arrows.items()]
        out.append(make_bundle(GroupTag("sl", (n,)), Curve(4), summands, sigma,
                               FORM_ORTHOGONAL, entries, declared=declared))
    return out


def sw_fold(classes: Iterable[F2Class]) -> tuple[F2Class, int]:
    """Fold the truncated two-term product (1 + a + b) pair by pair."""
    items = list(classes)
    genus = items[0].genus if items else 2
    s1, s2 = F2Class.zero(genus), 0
    for c in items:
        s2 = (s2 + cup(s1, c)) % 2
        s1 = s1 + c
    return s1, s2


def sw_fold_explicit(classes: Sequence[F2Class]) -> tuple[F2Class, int]:
    """Same product, expanded without reusing the running first term."""
    genus = classes[0].genus if classes else 2
    s1 = F2Class.zero(genus)
    for c in classes:
        s1 = s1 + c
    s2 = 0
    for j in range(len(classes)):
        for k in range(j):
            s2 ^= cup(classes[k], classes[j])
    return s1, s2


def cup_coords(a: F2Class, b: F2Class) -> int:
    """Cup product by the coordinate formula sum_i a[2i] b[2i+1] + a[2i+1] b[2i]."""
    x, y = [int(c) for c in a.bits()], [int(c) for c in b.bits()]
    total = 0
    for i in range(a.genus):
        total += x[2 * i] * y[2 * i + 1]
        total += x[2 * i + 1] * y[2 * i]
    return total % 2


def brute_force_sw_witnesses(genus: int, n: int) -> SurjectivityReport:
    """Scan (F_2^(2g))^n in product order, so the first tuple found with
    each (sw_1, sw_2) is its lexicographically smallest witness."""
    size = 1 << (2 * genus)
    found: dict[tuple[int, int], tuple[F2Class, ...]] = {}
    for combo in itertools.product(range(size), repeat=n):
        classes = tuple(F2Class.from_int(genus, v) for v in combo)
        sw1 = 0
        for v in combo:
            sw1 ^= v
        sw2 = sum(cup_coords(x, y) for x, y in itertools.combinations(classes, 2)) % 2
        if (sw1, sw2) not in found:
            found[(sw1, sw2)] = classes
            if len(found) == 2 * size:
                break
    witnesses = []
    missing = []
    for value in range(size):
        for sw2 in (0, 1):
            pair = SWPair(F2Class.from_int(genus, value), sw2)
            if (value, sw2) in found:
                witnesses.append((pair, found[(value, sw2)]))
            else:
                missing.append(pair)
    return SurjectivityReport(genus, n, tuple(witnesses), tuple(missing))


def scan_smallest_witness(target: tuple[int, int], n: int, genus: int) -> list[int]:
    """The greedy smallest witness as it was before its last class was read
    off the remainder: every one of the n classes, the last included, is the
    first class c whose remainder the classes left after it reach."""
    even = _even_bits(genus)
    t1, t2 = target
    out = []
    for left in range(n, 0, -1):
        for c in range(1 << (2 * genus)):
            rest = _whitney(t1, t2, c, 0, even)
            if _reachable(rest, left - 1):
                break
        out.append(c)
        t1, t2 = rest
    return out


def reach_sets(genus: int, n: int) -> list[set[tuple[int, int]]]:
    """reach[m]: the integer (sw_1, sw_2) of every m-term sum, m = 0..n,
    grown as reach[m + 1] = {(s1 + c, s2 + cup(s1, c))} over every class c."""
    size = 1 << (2 * genus)
    classes = [F2Class.from_int(genus, v) for v in range(size)]
    cup = [[cup_coords(x, y) for y in classes] for x in classes]
    reach = [{(0, 0)}]
    for _ in range(n):
        reach.append({(s1 ^ c, s2 ^ cup[s1][c]) for s1, s2 in reach[-1] for c in range(size)})
    return reach


def brute_force_minimal_n(genus: int, n_max: int) -> dict[SWPair, int | None]:
    """Smallest n reaching each pair, one brute-force scan per n."""
    out: dict[SWPair, int | None] = {}
    remaining = None
    for n in range(1, n_max + 1):
        report = brute_force_sw_witnesses(genus, n)
        for pair, _ in report.witnesses:
            if pair not in out:
                out[pair] = n
        remaining = report.missing
    for pair in remaining or ():
        if pair not in out:
            out[pair] = None
    return out


def builder_corpus(seed: int, count: int) -> list[GradedHiggsBundle]:
    """Randomized valid objects drawn from every builder family."""
    rng = random.Random(seed)
    out: list[GradedHiggsBundle] = []
    while len(out) < count:
        g = rng.choice((2, 3))
        c = Curve(g)
        kind = rng.randrange(10)
        if kind == 0:
            n = rng.choice((2, 3, 4))
            out.append(build_hitchin_sl(c, n, spin_name="s" if n % 2 == 0 else None))
        elif kind == 1:
            out.append(build_hitchin_so(c, rng.choice((2, 3))))
        elif kind == 2:
            out.append(build_hitchin_sp(c, rng.choice((1, 2, 3))))
        elif kind == 3:
            d = rng.randint(-(2 * g - 2), 2 * g - 2)
            mu = rng.random() < 0.8 if d <= 0 else True
            nu = rng.random() < 0.8 if d >= 0 else True
            out.append(build_so12(c, d, mu=mu, nu=nu))
        elif kind == 4:
            d = rng.randint(-(4 * g - 4), 4 * g - 4)
            mu = rng.random() < 0.8 if d <= 0 else True
            nu = rng.random() < 0.8 if d >= 0 else True
            out.append(build_maximal_so23(c, d, mu=mu, nu=nu, q2=rng.random() < 0.5))
        elif kind == 5:
            n = rng.choice((2, 3))
            d = rng.randint(1, n * (2 * g - 2))
            qs = tuple(j for j in range(2, 2 * n, 2) if rng.random() < 0.5)
            out.append(build_exotic_so(c, n, d, nu=rng.random() < 0.5, q_on=qs))
        elif kind == 6:
            out.append(build_hitchin_so_nn(c, rng.choice((2, 3)), pfaffian=rng.random() < 0.5))
        elif kind == 7:
            n = rng.choice((2, 3))
            classes = tuple(
                F2Class.from_int(g, rng.randrange(1 << (2 * g))) for _ in range(n)
            )
            out.append(build_twisted_fuchsian_sp(c, classes))
        elif kind == 8:
            n = rng.choice((3, 4))
            roll = rng.random()
            if roll < 0.4:
                w0: SplitW0 | PrymW0 | TrivialW0 = SplitW0(degree=rng.randint(0, 2 * g - 2))
            elif roll < 0.7 and n == 3:
                bits = rng.randrange(1, 1 << (2 * g))
                w0 = PrymW0(sw1=F2Class.from_int(g, bits), sw2=rng.randrange(2))
            else:
                w0 = TrivialW0()
            out.append(build_maximal_so2n(c, n, w0))
        else:
            out.append(build_fuchsian(c))
    return out


# -- builder oracle ----------------------------------------------------------

def oracle_maximal_so23(
    curve: Curve, d: int, mu: bool = True, nu: bool = True, q2: bool = True
) -> GradedHiggsBundle:
    """The maximal signature-(2, 3) object with decomposed rank-2 part as a
    hand-written five-summand diagram, with no chain helper: V = K + K^-1,
    W = O + M + M^-1, units K -> O -> K^-1, q2 back up, mu and nu joining
    the lowest V summand to M^-1 and M.  Meta is left empty."""
    top = 4 * curve.genus - 4
    summands = [
        Summand(SIDE_V, K_power(1)),
        Summand(SIDE_V, K_power(-1)),
        Summand(SIDE_W, trivial()),
        Summand(SIDE_W, variable("M")),
        Summand(SIDE_W, variable("M", -1)),
    ]
    sigma = [1, 0, 2, 4, 3]
    entries = [(2, 0, unit_section()), (1, 2, unit_section())]
    if q2:
        sym = named_section("q2")
        entries += [(0, 2, sym), (2, 1, sym)]
    if mu:
        sym = named_section("mu", VANISH_NOWHERE if d == top else VANISH_GENERIC)
        entries += [(4, 1, sym), (0, 3, sym)]
    if nu:
        sym = named_section("nu", VANISH_NOWHERE if -d == top else VANISH_GENERIC)
        entries += [(3, 1, sym), (0, 4, sym)]
    return make_bundle(GroupTag("so0", (2, 3)), curve, summands, sigma,
                       FORM_ORTHOGONAL, entries, declared={"M": d})


# -- line-bundle oracles -----------------------------------------------------

def oracle_tensor(a: LineBundleExpr, b: LineBundleExpr) -> LineBundleExpr:
    """a (x) b: both sides' exponents merged name by name, then reduced."""
    def merged(x, y):
        out: dict[str, int] = {}
        for n, e in list(x) + list(y):
            out[n] = out.get(n, 0) + e
        return out

    return _make(
        a.k_power + b.k_power,
        merged(((n, 1) for n in a.spins), ((n, 1) for n in b.spins)),
        merged(((n, 1) for n in a.torsions), ((n, 1) for n in b.torsions)),
        merged(a.variables, b.variables),
        merged(a.divisors, b.divisors),
    )


def oracle_parse(text: str, kinds=None) -> LineBundleExpr:
    """The serialization parsed factor by factor: each factor is built as an
    atom with the public constructors and tensored on with ``oracle_tensor``.
    A reserved name (``O^2``, ``O(K)``) raises the constructors' bare
    ``ValueError`` here, where ``parse_expr`` raises ``ParseError``."""
    kinds = kinds or {}
    text = text.strip()
    if not text:
        raise ParseError("empty line-bundle expression")
    out = trivial()
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor.strip())
        if not m:
            raise ParseError(f"bad factor {factor!r}")
        o_mark, k_mark, k_exp, d_sign, d_name, d_exp, name, name_exp = m.groups()
        if o_mark:
            continue
        if k_mark:
            out = oracle_tensor(out, K_power(int(k_exp) if k_exp else 1))
            continue
        if d_name:
            e = int(d_exp) if d_exp else 1
            if d_sign == "-":
                e = -e
            out = oracle_tensor(out, divisor_twist(d_name, e))
            continue
        e = int(name_exp) if name_exp else 1
        kind = kinds.get(name)
        if kind == KIND_TORSION:
            atom = torsion(name).power(e)
        elif kind == KIND_SPIN:
            atom = spin(name, e)
        elif kind == KIND_DIVISOR:
            atom = divisor_twist(name, e)
        else:
            atom = variable(name, e)
        out = oracle_tensor(out, atom)
    return out


# -- validation oracle -------------------------------------------------------

def oracle_dual(e: LineBundleExpr) -> LineBundleExpr:
    """The dual rebuilt through the reduction rules: every exponent negated,
    then s^-1 reduced to K^-1 * s and I^-1 to I."""
    return _make(
        -e.k_power,
        {n: -1 for n in e.spins},
        {n: -1 for n in e.torsions},
        {n: -x for n, x in e.variables},
        {n: -x for n, x in e.divisors},
    )


def expression_validate(h: GradedHiggsBundle) -> None:
    """The structural checks of ``higgsmodel.validate`` in the same order
    and with the same messages, reading every Higgs entry's ambient from the
    expression Hom(L_s, L_t (x) K) built with the line-bundle algebra.  Every
    degree is resolved here, never read from the degrees a validated object
    keeps, so the oracle is at full strength on a marked object too."""
    n = len(h.summands)
    if len(h.sigma) != n:
        raise ModelInvariantError("pairing involution has the wrong length")
    if sorted(h.sigma) != list(range(n)):
        raise ModelInvariantError("pairing is not a permutation")
    if h.form not in ("orthogonal", "symplectic"):
        raise ModelInvariantError(f"bad pairing form {h.form!r}")
    for i, j in enumerate(h.sigma):
        if h.sigma[j] != i:
            raise ModelInvariantError("pairing is not an involution")
        si, sj = h.summands[i], h.summands[j]
        if si.rank > 1:
            if j != i:
                raise ModelInvariantError("block summands must be self-paired")
            if _resolved_degree(h, i) != 0:
                raise ModelInvariantError("a self-dual block must have degree 0")
            continue
        if sj.bundle != oracle_dual(si.bundle):
            raise ModelInvariantError(
                f"summand {j} is not dual to summand {i}: "
                f"{sj.bundle.serialize()} vs {oracle_dual(si.bundle).serialize()}"
            )
        if h.form == "orthogonal" and si.side != sj.side:
            raise ModelInvariantError("an orthogonal pairing must preserve sides")
        if h.form == "symplectic" and i != j and si.side == sj.side:
            raise ModelInvariantError("a symplectic pairing must exchange sides")

    _expression_group_shape(h)

    keys = [(e.target, e.source) for e in h.higgs]
    for k, key in enumerate(keys):
        if key in keys[:k]:
            raise ModelInvariantError(f"higgs entry {key} is listed twice")
    entry_map = {(e.target, e.source): e.symbol for e in h.higgs}
    for (t, s), sym in entry_map.items():
        if t == s:
            raise ModelInvariantError("diagonal entries are not allowed")
        mirror = entry_map.get((h.sigma[s], h.sigma[t]))
        if mirror is None or mirror.name != sym.name or mirror.vanishing != sym.vanishing:
            raise ModelInvariantError(
                f"entry ({t},{s}) has no matching transpose at ({h.sigma[s]},{h.sigma[t]})"
            )
        source, target = h.summands[s], h.summands[t]
        if source.rank != 1 or target.rank != 1:
            continue
        amb = oracle_tensor(oracle_tensor(oracle_dual(source.bundle), target.bundle), K_power(1))
        if sym.kind == "unit" and not amb.is_trivial():
            raise ModelInvariantError(
                f"unit entry ({t},{s}) needs a trivial ambient, got {amb.serialize()}"
            )
        amb_deg = amb.resolved_degree(h.genus, h.declared_map)
        if sym.vanishing == "nowhere-vanishing" and amb_deg != 0:
            raise ModelInvariantError(
                f"nowhere-vanishing entry ({t},{s}) in a bundle of degree {amb_deg}"
            )
        if sym.vanishing == "generically-nonzero" and amb_deg < 0 and amb.canonical_power() is None:
            raise ModelInvariantError(
                f"entry ({t},{s}) claims a nonzero section of degree {amb_deg} < 0"
            )
    dol_set = {(d.target, d.source, d.name) for d in h.dolbeault}
    for t, s, name in dol_set:
        if (h.sigma[s], h.sigma[t], name) not in dol_set:
            raise ModelInvariantError(
                f"extension term ({t},{s}) has no matching transpose"
            )


def _resolved_degree(h: GradedHiggsBundle, i: int) -> int:
    return h.summands[i].bundle.resolved_degree(h.genus, h.declared_map)


def _expression_group_shape(h: GradedHiggsBundle) -> None:
    fam, params = h.group.family, h.group.params
    v_idx = [i for i, s in enumerate(h.summands) if s.side == "V"]
    w_idx = [i for i, s in enumerate(h.summands) if s.side == "W"]
    v = [_resolved_degree(h, i) for i in v_idx]
    w = [_resolved_degree(h, i) for i in w_idx]
    rank_v = sum(h.summands[i].rank for i in v_idx)
    rank_w = sum(h.summands[i].rank for i in w_idx)
    if fam in ("so0", "so") and (rank_v, rank_w) != params:
        raise ModelInvariantError(f"rank mismatch for {h.group}: got ({rank_v},{rank_w})")
    if fam == "so0":
        if sum(v) != 0 or sum(w) != 0:
            raise ModelInvariantError(
                f"determinant condition fails for {h.group}: degrees {sum(v)},{sum(w)}"
            )
        return
    if fam == "sp":
        if h.total_rank != params[0] or rank_v != params[0] // 2:
            raise ModelInvariantError(f"rank mismatch for {h.group}")
    elif fam in ("sl", "psl", "slc") and h.total_rank != params[0]:
        raise ModelInvariantError(f"rank mismatch for {h.group}")
    if sum(v) + sum(w) != 0:
        raise ModelInvariantError("total degree must vanish")
    if fam == "sp" and h.form != "symplectic":
        raise ModelInvariantError("symplectic groups need a symplectic pairing")


def set_selected_limit(
    h: GradedHiggsBundle, w: WeightAssignment, direction: str
) -> tuple[tuple, tuple]:
    """The Higgs entries and extension terms a graded limit keeps, selected
    by the earlier rule: every exponent-zero row's (kind, target, source) in
    a set, and each entry kept when its triple is in the set."""
    kept = {(r.kind, r.target, r.source)
            for r in exponent_table(h, w, direction).rows if r.exponent == 0}
    return (
        tuple(e for e in h.higgs if ("higgs", e.target, e.source) in kept),
        tuple(t for t in h.dolbeault if ("dolbeault", t.target, t.source) in kept),
    )


def outcome(check, *args) -> tuple[str, str]:
    """("ok", the repr of the answer, or "" for None), or the exception
    type name and message ``check`` raised."""
    try:
        answer = check(*args)
    except Exception as exc:  # the outcome itself is what gets compared
        return type(exc).__name__, str(exc)
    return "ok", "" if answer is None else repr(answer)


def every_builder_output(curve: Curve) -> list[GradedHiggsBundle]:
    """One or more outputs of every builder and derived-object function."""
    g = curve.genus
    so23 = [build_maximal_so23(curve, d, q2=q2)
            for d in (-(4 * g - 4), 0, 3, 4 * g - 4) for q2 in (True, False)]
    so12 = [build_so12(curve, d) for d in (-(2 * g - 2), 0, 1, 2 * g - 2)]
    return [
        *(build_hitchin_sl(curve, n, q_on, spin_name="s" if n % 2 == 0 else None)
          for n in (2, 3, 4, 5) for q_on in ((), (2,), tuple(range(2, n + 1)))),
        *(build_hitchin_so(curve, n, q_on)
          for n in (1, 2, 3) for q_on in ((), tuple(range(2, 2 * n + 1, 2)))),
        *(build_hitchin_sp(curve, n, q_on)
          for n in (1, 2, 3) for q_on in ((), tuple(range(2, 2 * n + 1, 2)))),
        build_fuchsian(curve),
        build_fuchsian(curve, q2=False),
        *(build_hitchin_so_nn(curve, n, pfaffian=pf) for n in (2, 3) for pf in (False, True)),
        *(build_exotic_so(curve, n, d, nu=nu, q_on=(2,))
          for n in (2, 3) for d in (1, n * (2 * g - 2)) for nu in (False, True)),
        build_degree_zero_chain(curve, 2),
        build_degree_zero_chain(curve, 3),
        *so12,
        *so23,
        *(build_maximal_so2n(curve, n, SplitW0(degree=d))
          for n in (3, 4, 5) for d in (-(4 * g - 4), 1, 4 * g - 4)),
        *(build_maximal_so2n(curve, n, TrivialW0(), beta0=b) for n in (3, 4, 5) for b in (True, False)),
        build_maximal_so2n(curve, 3, PrymW0(sw1=F2Class.from_int(g, 1), sw2=1)),
        build_maximal_so2n(curve, 3, PrymW0(sw1=F2Class.from_int(g, 5), sw2=0), beta0=False),
        build_twisted_fuchsian_sp(curve, [F2Class.from_int(g, v) for v in (0, 3, 3, 6)]),
        build_twisted_fuchsian_sp(curve, [F2Class.zero(g)] * 3, q2=False),
        build_extension_deformed_so35(curve, 1),
        build_extension_deformed_so35(curve, 3 * (2 * g - 2)),
        embed_so23_to_so2n(so23[2], 5),
        embed_so23_to_so33(so23[2]),
        append_trivial_w(build_hitchin_so(curve, 2, (2,))),
        associated_sl(so23[2]),
        associated_sl(build_hitchin_sp(curve, 2, (2, 4))),
        *(switched(h) for h in so12 + so23),
    ]


_NEW_BUNDLES = (
    trivial(), K_power(1), K_power(-1), K_power(2), spin("s"), spin("s", -1),
    variable("M"), variable("M", -1), variable("M", 2), variable("N"),
    torsion("I"), torsion("J"), divisor_twist("D"), variable("M").tensor(K_power(1)),
    spin("s").tensor(torsion("I")),
)


def mutated_copies(h: GradedHiggsBundle, rng: random.Random, count: int) -> list[GradedHiggsBundle]:
    """Unvalidated copies of ``h``, each with one to two random edits: a
    flipped entry kind or vanishing, a replaced summand bundle, an added
    transpose pair, a shifted or dropped declared degree, a repeated entry."""
    edits = (_flip_entry, _replace_bundle, _add_transpose_pair, _shift_declared, _repeat_entry)
    out = []
    for _ in range(count):
        m = h
        for _ in range(rng.choice((1, 1, 2))):
            m = rng.choice(edits)(m, rng)
        out.append(m)
    return out


def sub_diagrams(h: GradedHiggsBundle, rng: random.Random, count: int) -> list[GradedHiggsBundle]:
    """Validated copies of ``h``, each with a random transpose-closed set of
    Higgs entries removed: an entry goes together with its partner."""
    pairs = sorted({frozenset({(e.target, e.source), (h.sigma[e.source], h.sigma[e.target])})
                    for e in h.higgs}, key=sorted)
    out = []
    for _ in range(count):
        keep = rng.random()
        gone = set().union(*(p for p in pairs if rng.random() >= keep))
        m = replace(h, higgs=tuple(e for e in h.higgs if (e.target, e.source) not in gone))
        validate(m)
        out.append(m)
    return out


def _random_symbol(rng: random.Random, name: str) -> SectionSymbol:
    roll = rng.randrange(3)
    if roll == 0:
        return unit_section()
    return named_section(name, "generically-nonzero" if roll == 1 else "nowhere-vanishing")


def _with_entries(h: GradedHiggsBundle, entries: dict) -> GradedHiggsBundle:
    higgs = tuple(HiggsEntry(t, s, sym) for (t, s), sym in sorted(entries.items()))
    return replace(h, higgs=higgs)


def _flip_entry(h: GradedHiggsBundle, rng: random.Random) -> GradedHiggsBundle:
    if not h.higgs:
        return _add_transpose_pair(h, rng)
    entries = {(e.target, e.source): e.symbol for e in h.higgs}
    e = rng.choice(h.higgs)
    sym = _random_symbol(rng, e.symbol.name if e.symbol.name != "1" else "phi")
    entries[(e.target, e.source)] = sym
    if rng.random() < 0.8:
        entries[(h.sigma[e.source], h.sigma[e.target])] = sym
    return _with_entries(h, entries)


def _replace_bundle(h: GradedHiggsBundle, rng: random.Random) -> GradedHiggsBundle:
    i = rng.randrange(len(h.summands))
    bundle = rng.choice(_NEW_BUNDLES)
    summands = list(h.summands)
    summands[i] = Summand(summands[i].side, bundle, summands[i].rank, summands[i].sw)
    j = h.sigma[i]
    if j != i and rng.random() < 0.7:
        summands[j] = Summand(summands[j].side, oracle_dual(bundle), summands[j].rank, summands[j].sw)
    return replace(h, summands=tuple(summands))


def _add_transpose_pair(h: GradedHiggsBundle, rng: random.Random) -> GradedHiggsBundle:
    n = len(h.summands)
    t, s = rng.randrange(n), rng.randrange(n)
    sym = _random_symbol(rng, "xi")
    entries = {(e.target, e.source): e.symbol for e in h.higgs}
    entries[(t, s)] = sym
    entries[(h.sigma[s], h.sigma[t])] = sym
    return _with_entries(h, entries)


def _shift_declared(h: GradedHiggsBundle, rng: random.Random) -> GradedHiggsBundle:
    declared = dict(h.declared)
    if not declared or rng.random() < 0.2:
        declared[rng.choice(("M", "N", "D"))] = rng.randint(-4, 4)
    else:
        name = rng.choice(sorted(declared))
        if rng.random() < 0.3:
            del declared[name]
        else:
            declared[name] += rng.choice((-3, -2, -1, 1, 2, 3))
    return replace(h, declared=tuple(sorted(declared.items())))


def _repeat_entry(h: GradedHiggsBundle, rng: random.Random) -> GradedHiggsBundle:
    """A second entry at the (target, source) of an existing one, carrying
    either the same symbol or a random one."""
    if not h.higgs:
        return _add_transpose_pair(h, rng)
    e = rng.choice(h.higgs)
    sym = e.symbol if rng.random() < 0.5 else _random_symbol(rng, "xi")
    higgs = sorted(h.higgs + (HiggsEntry(e.target, e.source, sym),),
                   key=lambda f: (f.target, f.source))
    return replace(h, higgs=tuple(higgs))


# -- comparison oracle -------------------------------------------------------

def key_only_structurally_equal(a: GradedHiggsBundle, b: GradedHiggsBundle) -> bool:
    """Equality up to summand reordering, decided by the canonical keys alone."""
    return a.group == b.group and a.genus == b.genus and canonical_key(a) == canonical_key(b)


def key_only_gauge_equivalent(a: GradedHiggsBundle, b: GradedHiggsBundle) -> bool:
    """Equality up to reordering and switching, decided by the orbit keys alone."""
    return a.group == b.group and a.genus == b.genus and gauge_orbit_key(a) == gauge_orbit_key(b)


def summand_key(h: GradedHiggsBundle, i: int) -> tuple:
    """The grouping key of summand ``i``: side, rank, bundle text, SW label."""
    s = h.summands[i]
    sw = s.sw.label() if s.sw else ""
    return (s.side, s.rank, s.bundle.serialize(), sw)


def summand_key_orderings(h: GradedHiggsBundle) -> list[tuple[int, ...]]:
    """Every ordering of ``h`` within groups of summands with equal
    ``summand_key``, the groups taken in sorted key order."""
    base = sorted(range(len(h.summands)), key=lambda i: summand_key(h, i))
    groups = [list(g) for _, g in itertools.groupby(base, key=lambda i: summand_key(h, i))]
    return [
        tuple(i for grp in combo for i in grp)
        for combo in itertools.product(*(itertools.permutations(g) for g in groups))
    ]


def near_misses(h: GradedHiggsBundle) -> list[GradedHiggsBundle]:
    """Validated copies of ``h``, one per transpose pair of named entries,
    with that pair's section renamed, as the benchmark's gauge-orbit
    workload makes its negative partners."""
    out = []
    for pick in h.higgs:
        mirror = (h.sigma[pick.source], h.sigma[pick.target])
        if pick.symbol.kind != KIND_NAMED or mirror < (pick.target, pick.source):
            continue
        new = SectionSymbol(pick.symbol.name + "x", pick.symbol.kind, pick.symbol.vanishing)
        higgs = tuple(
            HiggsEntry(e.target, e.source, new)
            if (e.target, e.source) in ((pick.target, pick.source), mirror) else e
            for e in h.higgs
        )
        m = replace(h, higgs=higgs)
        validate(m)
        out.append(m)
    return out


# -- value-type oracle -------------------------------------------------------
#
# Each value type as the frozen dataclass it was before it became a slots
# class, checks and defaults included.  ``_old`` gives the dataclass the
# package type's name, so the two reprs can be compared byte for byte.

OLD_VALUE_TYPES: dict[str, type] = {}


def _old(cls):
    cls.__qualname__ = cls.__name__ = cls.__name__.removeprefix("Old")
    OLD_VALUE_TYPES[cls.__name__] = dataclass(frozen=True)(cls)
    return cls


@_old
class OldF2Class:
    genus: int
    value: int

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("genus must be at least 2")
        if not 0 <= self.value < 1 << (2 * self.genus):
            raise ValueError(f"class value {self.value} is outside [0, 4^{self.genus})")

    # read by the checks of PrymW0, DoubleCover and f2classes._check_genus
    def is_zero(self) -> bool:
        return not self.value

    def bits(self) -> str:
        return format(self.value, f"0{2 * self.genus}b")[::-1]


@_old
class OldSWPair:
    sw1: F2Class
    sw2: int

    def __post_init__(self):
        if self.sw2 not in (0, 1):
            raise ValueError("sw2 must be a bit")


@_old
class OldGroupTag:
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


@_old
class OldCurve:
    genus: int

    def __post_init__(self):
        if not isinstance(self.genus, int) or self.genus < 2:
            raise ValueError(f"genus must be an integer >= 2, got {self.genus!r}")


@_old
class OldSectionCount:
    value: int
    exactness: str

    def __post_init__(self):
        if self.exactness not in (EXACT, GENERIC):
            raise ValueError(f"bad exactness tag {self.exactness!r}")
        if self.value < 0:
            raise ValueError("section count cannot be negative")


@_old
class OldLineBundleExpr:
    k_power: int = 0
    spins: tuple[str, ...] = ()
    torsions: tuple[str, ...] = ()
    variables: tuple[tuple[str, int], ...] = ()
    divisors: tuple[tuple[str, int], ...] = ()


@_old
class OldSurjectivityReport:
    genus: int
    n: int
    witnesses: tuple[tuple[SWPair, tuple[F2Class, ...]], ...]
    missing: tuple[SWPair, ...]


@_old
class OldDoubleCover:
    base: Curve
    sw1: F2Class

    def __post_init__(self):
        _check_genus(self.sw1, self.base.genus)
        if self.sw1.is_zero():
            raise ValueError("a connected double cover needs a nonzero class")


@_old
class OldSectionSymbol:
    name: str
    kind: str
    vanishing: str

    def __post_init__(self):
        if self.kind not in (KIND_UNIT, KIND_NAMED):
            raise ValueError(f"bad section kind {self.kind!r}")
        if self.vanishing not in (VANISH_GENERIC, VANISH_NOWHERE):
            raise ValueError(f"bad vanishing tag {self.vanishing!r}")
        if self.kind == KIND_UNIT and self.vanishing != VANISH_NOWHERE:
            raise ValueError("a unit section vanishes nowhere")


@_old
class OldSummand:
    side: str
    bundle: LineBundleExpr
    rank: int = 1
    sw: SWPair | None = None

    def __post_init__(self):
        if self.side not in (SIDE_V, SIDE_W):
            raise ValueError(f"bad side {self.side!r}")
        if self.rank < 1:
            raise ValueError("rank must be positive")


@_old
class OldHiggsEntry:
    target: int
    source: int
    symbol: SectionSymbol


@_old
class OldDolbeaultTerm:
    target: int
    source: int
    name: str


@_old
class OldSplitW0:
    degree: int
    mu: bool = True
    nu: bool = True


@_old
class OldPrymW0:
    sw1: F2Class
    sw2: int

    def __post_init__(self):
        if self.sw1.is_zero():
            raise ValueError("an indecomposable flat O(2) bundle has sw1 != 0")


@_old
class OldTrivialW0:
    pass


@_old
class OldInvariantSubobject:
    indices: tuple[int, ...]
    degree: int


@_old
class OldStabilityVerdict:
    status: str
    witness: InvariantSubobject | None = None
    decomposition: tuple[tuple[int, ...], ...] | None = None
    note: str = ""


@_old
class OldWeightAssignment:
    weights: tuple[int, ...]
    higgs_scale: int = 1


@_old
class OldExponentRow:
    kind: str
    target: int
    source: int
    name: str
    exponent: int


@_old
class OldExponentTable:
    rows: tuple[ExponentRow, ...]


@_old
class OldLimitResult:
    exists: bool
    direction: str
    weights: WeightAssignment
    table: ExponentTable
    limit: GradedHiggsBundle | None
    source: GradedHiggsBundle
    limit_stability: StabilityVerdict | None = None


@_old
class OldNDescriptor:
    degree: int
    alpha_nonzero: bool = True


@_old
class OldParameterization:
    fiber_rank: int
    base_exponent: int
    extra_factor_dim: int


@_old
class OldComponentDescriptor:
    group: GroupTag
    label: str
    dimension: int
    parameterization: Parameterization | None = None
    retraction: str | None = None
    cover_multiplicity: int | None = None
    hitchin: bool = False
    remark_level: bool = False


@_old
class OldCensus:
    group: GroupTag
    genus: int
    sector: str
    components: tuple[ComponentDescriptor, ...]
    complete: bool
    note: str = ""


@_old
class OldCheckResult:
    name: str
    passed: bool
    detail: str


def as_old(value):
    """``value`` with every package value object in it, at any depth, rebuilt
    as its dataclass twin (through the twin's checks); a graded object keeps
    its type and gets twins for its fields."""
    if isinstance(value, _Value):
        twin = OLD_VALUE_TYPES[type(value).__name__]
        return twin(*(as_old(getattr(value, f.name)) for f in fields(twin)))
    if isinstance(value, tuple):
        return tuple(as_old(v) for v in value)
    if isinstance(value, GradedHiggsBundle):
        return replace(value, **{f.name: as_old(getattr(value, f.name)) for f in fields(value)})
    return value
