"""Seeded questions for the three in-process workloads.

A workload is a list of *cells*, each fixing the cost-relevant shape of one
question (summand count, closed-set density, identical-summand group size,
search size, genus cap ...).  One *cycle* asks every cell once, in an order
that does not depend on the seed; the seed picks everything inside a cell
that leaves its cost alone: the builder among those of the same shape, the
labels, the summand order, positive or near-miss partners.  So two seeds see
different objects with the same cost profile, and a run that stops part-way
through a cycle sees the same mix whatever its seed.

Every question object is built before it is asked, and objects are never
asked twice except where the gauge-orbit workload reuses one on purpose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from higgs_atlas import (
    BudgetError,
    HiggsAtlasError,
    Curve,
    DimensionMismatchError,
    F2Class,
    NDescriptor,
    ParityViolationError,
    SplitW0,
    TrivialW0,
    WeightAssignment,
    build_exotic_so,
    build_extension_deformed_so35,
    build_hitchin_sl,
    build_hitchin_so,
    build_hitchin_sp,
    build_maximal_so23,
    build_maximal_so2n,
    build_so12,
    build_twisted_fuchsian_sp,
    bundle_from_dict,
    bundle_to_dict,
    census,
    check_polystability,
    dimension_consistency,
    gauge_equivalent,
    graded_limit,
    h0,
    limit_destabilized_branch,
    minimal_realizing_n,
    parameterization,
    parse_expr,
    permute_summands,
    search_admissible_weights,
    structurally_equal,
    switchable,
    switched,
    sw_surjectivity_witnesses,
    validate,
)
from higgs_atlas.higgsmodel import GroupTag, HiggsEntry, SectionSymbol

import oracles

REFUSED_BUDGET = (BudgetError,)
REFUSED_GENUS_CAP = (BudgetError, DimensionMismatchError)


@dataclass
class Question:
    spec: str                   # seeded inputs, for the inputs digest
    layer: str                  # the public function the question asks
    ask: object                 # ask(tracer) -> answer
    check: object               # check(answer) -> (ok, {count: value})
    band: str | None = None
    refusals: tuple = REFUSED_BUDGET
    computed: dict = field(default_factory=dict)
    classify: object = None     # classify(answer) -> outcome, for answers that are not exceptions


class Builders:
    """Object construction, timed as the higgsmodel layer during set-up."""

    def __init__(self, tracer):
        self.tr = tracer

    def build(self, fn, *args, **kwargs):
        return self.tr.call("higgsmodel.build", fn, *args, **kwargs)

    def permuted(self, rng, h):
        order = list(range(len(h.summands)))
        rng.shuffle(order)
        return self.tr.call("higgsmodel.permute_summands", permute_summands, h, order), order

    def switched(self, h):
        return self.tr.call("higgsmodel.switched", switched, h)


def _fixed_order(cells, name):
    order = list(range(len(cells)))
    random.Random(name).shuffle(order)
    return [cells[i] for i in order]


# -- the document boundary ------------------------------------------------------

def malformed_document(kind: int, rng, doc: dict) -> dict:
    """An object document with one defect that ``bundle_from_dict`` turns
    into a ``ParseError``: a missing key, an unknown group, a genus that is
    not a number.  Documents the package mishandles (tracebacks, or silent
    acceptance) are not asked: every question of a run must succeed."""
    if kind == 0:
        del doc[rng.choice(("summands", "pairing", "group"))]
    elif kind == 1:
        doc["group"] = rng.choice(("xx:3", "sl:", "so0:2"))
    else:
        doc["genus"] = rng.choice(("two", "", "2g"))
    return doc


def document_questions(b: Builders, rng, cycle: int, curve) -> list[Question]:
    """Two malformed object documents of different kinds, which
    ``bundle_from_dict`` must turn into a domain error."""
    out = []
    for kind in (cycle % 3, (cycle + 1) % 3):
        h = b.build(build_maximal_so23, curve, rng.randint(-(4 * curve.genus - 4), 4 * curve.genus - 4))
        doc = malformed_document(kind, rng, bundle_to_dict(h))
        out.append(Question(
            spec=f"document kind={kind} {doc!r:.400}",
            layer="higgsmodel.bundle_from_dict",
            ask=lambda tr, doc=doc: tr.call("higgsmodel.bundle_from_dict", bundle_from_dict, doc),
            check=lambda answer: (isinstance(answer, HiggsAtlasError), {}),
            classify=lambda accepted: "failed",
            band="malformed",
        ))
    return out


# -- verdicts ----------------------------------------------------------------

def _chain_of(b: Builders, rng, n: int, curve, kind: str | None = None):
    """A sparse object with exactly n summands: few closed sets.

    The family is fixed by the cell (the scan's cost per mask differs by
    family) unless the cell leaves it to the seed."""
    paired = "sp" if n % 2 == 0 else "so"
    if kind is None:
        kind = rng.choice(["sl", paired] + (["trivial"] if n >= 5 else []))
    elif kind == "paired":
        kind = paired
    if kind == "sl":
        return kind, b.build(build_hitchin_sl, curve, n, spin_name="s")
    if kind == "sp":
        return kind, b.build(build_hitchin_sp, curve, n // 2)
    if kind == "so":
        return kind, b.build(build_hitchin_so, curve, (n - 1) // 2)
    return kind, b.build(build_maximal_so2n, curve, n - 2, TrivialW0())


def _medium_of(b: Builders, rng, n: int, curve):
    """Isolated padding or independent blocks: 2^(n/2)-ish closed sets.
    Dropping one of mu, nu makes many of the split objects unstable, so
    witnesses get checked too."""
    g = curve.genus
    if n % 2 == 0 and rng.random() < 0.5:
        classes = [F2Class.from_int(g, rng.randrange(1 << (2 * g))) for _ in range(n // 2)]
        return "fuchsian", b.build(build_twisted_fuchsian_sp, curve, classes)
    d = rng.randint(-(4 * g - 4), 4 * g - 4)
    mu, nu = rng.choice(((True, True), (True, False), (False, True)))
    return f"split:{d}:{mu}:{nu}", b.build(
        build_maximal_so2n, curve, n - 2, SplitW0(d, mu=mu, nu=nu)
    )


def _dense_of(b: Builders, rng, n: int, curve):
    """beta0 off: every trivial W summand is its own component, 2^(n-2) closed sets."""
    return "trivial-nobeta0", b.build(
        build_maximal_so2n, curve, n - 2, TrivialW0(), beta0=False
    )


def _band(n: int) -> str:
    if n <= 8:
        return "n3-8"
    if n <= 12:
        return "n9-12"
    if n <= 16:
        return "n13-16"
    return "n17-19" if n <= 19 else "n25-40"


# The dense cells stop at 16 summands (2^14 closed sets): one 18-summand
# dense question takes over a second, half a cycle, which leaves too few
# cycles in a run for steady figures.  Two cells of the costliest shape keep
# the tail latency inside a group of like samples rather than at the edge
# between two shapes; four more 12-summand chains do the same for the median.
VERDICT_CELLS = _fixed_order(
    [("sparse", n) for n in range(3, 20)]
    + [("sparse", 12)] * 4
    + [("medium", n) for n in (8, 12, 15)]
    + [("dense", n) for n in (6, 10, 14, 16, 16)]
    + [("refused", n) for n in (0, 0, 0)],
    "verdicts",
)
SPARSE_FAMILY = ("sl", "paired", "trivial")  # by summand count mod 3


def _verdict_check(h):
    def check(answer):
        expected, closed = oracles.verdict(h)
        got = answer.to_dict()
        got.pop("note", None)
        return got == expected, {"stability.closed_sets": closed}
    return check


def verdicts_cycle(seed: int, cycle: int, b: Builders, history) -> list[Question]:
    rng = random.Random(f"verdicts:{seed}:{cycle}")
    out = []
    for pos, (density, n) in enumerate(VERDICT_CELLS):
        curve = Curve(2 + (pos + cycle) % 3)
        if density == "refused":
            n = rng.randint(25, 40)
            kind, h = _chain_of(b, rng, n, curve)
        elif density == "sparse":
            kind, h = _chain_of(b, rng, n, curve, SPARSE_FAMILY[n % 3])
        else:
            kind, h = (_medium_of if density == "medium" else _dense_of)(b, rng, n, curve)
        p, order = b.permuted(rng, h)
        out.append(Question(
            spec=f"{density} {kind} n={n} g={curve.genus} order={order}",
            layer="stability.check_polystability",
            ask=lambda tr, p=p: tr.call("stability.check_polystability", check_polystability, p),
            check=_verdict_check(p),
            band=_band(len(p.summands)),
            computed={"stability.masks_computed": 2 ** len(p.summands)},
        ))
    return out + document_questions(b, rng, cycle, Curve(2 + cycle % 3))


# -- gauge orbits ------------------------------------------------------------

def _fuchsian(untwisted: int):
    """Twisted Fuchsian object: ``untwisted`` identical copies plus one
    twisted copy whose class the seed picks."""
    def make(b, rng, curve):
        g = curve.genus
        classes = [F2Class.zero(g)] * untwisted + [F2Class.from_int(g, rng.randrange(1, 1 << (2 * g)))]
        rng.shuffle(classes)
        return b.build(build_twisted_fuchsian_sp, curve, classes)
    return make


def _trivial(n_lo: int, n_hi: int):
    return lambda b, rng, curve: b.build(
        build_maximal_so2n, curve, rng.randint(n_lo, n_hi), TrivialW0()
    )


def _split(n_lo: int, n_hi: int):
    def make(b, rng, curve):
        g = curve.genus
        return b.build(
            build_maximal_so2n, curve, rng.randint(n_lo, n_hi),
            SplitW0(rng.randint(-(4 * g - 4), 4 * g - 4)),
        )
    return make


def _small(kind: int):
    """Objects without repeated summands; the seed picks the label."""
    def make(b, rng, curve):
        g = curve.genus
        if kind == 0:
            return b.build(build_so12, curve, rng.randint(-(2 * g - 2), 2 * g - 2))
        if kind == 1:
            return b.build(build_maximal_so23, curve, rng.randint(-(4 * g - 4), 4 * g - 4))
        if kind == 2:
            return b.build(build_hitchin_sl, curve, 6, (2,), spin_name="s")
        return b.build(build_exotic_so, curve, 2, rng.randint(1, 2 * (2 * g - 2)), nu=True)
    return make


# (operation, builder, largest identical group band).  The median latency
# falls among the three so0:2,5 cells and the tail among the three so0:2,6
# cells, so that each sits inside one shape: a run completes 4-7 cycles, so
# 12-21 so0:2,6 samples, and the tail has ten samples beyond it.
GAUGE_CELLS = _fixed_order(
    [
        ("gauge", _small(0), "k1-3"),
        ("equal", _small(1), "k1-3"),
        ("gauge", _small(2), "k1-3"),
        ("gauge", _small(3), "k1-3"),
        ("equal", _split(4, 4), "k1-3"),
        ("gauge", _fuchsian(2), "k1-3"),
        ("gauge", _trivial(3, 3), "k1-3"),
        ("equal", _fuchsian(3), "k1-3"),
        ("gauge", _split(5, 5), "k1-3"),
        ("gauge", _split(5, 5), "k1-3"),
        ("gauge", _split(5, 5), "k1-3"),
        ("gauge", _trivial(4, 4), "k4-5"),
        ("equal", _split(6, 6), "k4-5"),
        ("gauge", _fuchsian(4), "k4-5"),
        ("equal", _trivial(5, 5), "k4-5"),
        ("gauge", _split(7, 7), "k4-5"),
        ("gauge", _trivial(6, 6), "k6"),
        ("gauge", _trivial(6, 6), "k6"),
        ("gauge", _trivial(6, 6), "k6"),
        ("equal", _split(8, 8), "k6"),
        ("gauge", _trivial(9, 14), "k9+"),
        ("equal", _split(11, 16), "k9+"),
    ],
    "gauge-orbit",
)

REPEAT_EVERY = 4  # one question in four reuses an object asked in the previous cycle


def near_miss(b: Builders, rng, h):
    """The same object with one named section relabelled on one transpose
    pair; never gauge-equivalent to the original."""
    named = [e for e in h.higgs if e.symbol.kind == "named"]
    pick = rng.choice(named)
    mirror = (h.sigma[pick.source], h.sigma[pick.target])
    new = SectionSymbol(pick.symbol.name + "x", pick.symbol.kind, pick.symbol.vanishing)
    higgs = tuple(
        HiggsEntry(e.target, e.source, new)
        if (e.target, e.source) in ((pick.target, pick.source), mirror) else e
        for e in h.higgs
    )
    out = replace(h, higgs=higgs)
    validate(out)
    return out, f"{pick.target},{pick.source}"


def gauge_cycle(seed: int, cycle: int, b: Builders, history) -> list[Question]:
    rng = random.Random(f"gauge-orbit:{seed}:{cycle}")
    out = []
    for pos, (op, make, band) in enumerate(GAUGE_CELLS):
        curve = Curve(2 + (pos + cycle) % 3)
        repeat = cycle > 0 and (pos + cycle) % REPEAT_EVERY == 0
        a = history[cycle - 1][pos] if repeat else make(b, rng, curve)
        history.setdefault(cycle, {})[pos] = a
        positive = rng.random() < 0.5
        if positive:
            partner, how = a, "same"
        else:
            partner, how = near_miss(b, rng, a)
        partner, order = b.permuted(rng, partner)
        if op == "gauge" and switchable(partner) and rng.random() < 0.5:
            partner = b.switched(partner)
            how += "+switch"
        fn, layer = (
            (gauge_equivalent, "higgsmodel.gauge_equivalent") if op == "gauge"
            else (structurally_equal, "higgsmodel.structurally_equal")
        )
        out.append(Question(
            spec=f"{op} {a.group} g={a.genus} repeat={repeat} partner={how} order={order}",
            layer=layer,
            ask=lambda tr, fn=fn, layer=layer, a=a, p=partner: tr.call(layer, fn, a, p),
            check=lambda answer, want=positive: (answer is want, {}),
            band=band,
            computed={"higgsmodel.orbit_size_computed": oracles.orbit_size(a)},
        ))
    return out + document_questions(b, rng, cycle, Curve(2 + cycle % 3))


# -- limits and classes --------------------------------------------------------

def _pairing_weights(rng, h, bound):
    w = [0] * len(h.summands)
    for i, j in enumerate(h.sigma):
        if i < j:
            w[i] = rng.randint(-bound, bound)
            w[j] = -w[i]
    return tuple(w)


def _limit_object(b, rng, curve, kind: int):
    g = curve.genus
    if kind == 0:
        return b.build(build_maximal_so23, curve, rng.randint(-(4 * g - 4), 4 * g - 4))
    if kind == 1:
        return b.build(build_hitchin_sl, curve, 5)
    if kind == 2:
        return b.build(build_so12, curve, rng.randint(-(2 * g - 2), 2 * g - 2))
    return b.build(build_hitchin_so, curve, 2, (2,))


def _search_input(b, rng, curve, shape: str, cycle: int):
    """Weight searches from 3 to 10 summands; ``big`` is the 7^5 one.  The
    cycle, not the seed, picks sizes and bounds."""
    g = curve.genus
    if shape == "so23":
        return b.build(build_maximal_so23, curve, rng.randint(-(4 * g - 4), 4 * g - 4)), 1 + cycle % 3
    if shape == "sl-small":
        return b.build(build_hitchin_sl, curve, 3 + cycle % 4, spin_name="s"), 2 + cycle % 2
    if shape == "sl8":
        return b.build(build_hitchin_sl, curve, 8, spin_name="s"), 2
    if shape == "split":
        d = rng.randint(-(4 * g - 4), 4 * g - 4)
        return b.build(build_maximal_so2n, curve, 4 + cycle % 5, SplitW0(d)), 1 + cycle % 2
    if cycle % 2:
        return b.build(build_hitchin_sl, curve, 10, spin_name="s"), 3
    return b.build(build_hitchin_sp, curve, 5), 3


def _search_question(h, bound, direction):
    def check(answer):
        expected = oracles.weight_search(h, bound, direction)
        got = [(w.weights, oracles.entries_of(res.limit)) for w, res in answer]
        return got == expected, {
            "deformation.search_admissible_weights.limits_found": len(answer),
        }
    free = sum(1 for i, j in enumerate(h.sigma) if i < j)
    return Question(
        spec=f"search {h.group} g={h.genus} n={len(h.summands)} bound={bound} {direction}",
        layer="deformation.search_admissible_weights",
        ask=lambda tr: tr.call(
            "deformation.search_admissible_weights", search_admissible_weights, h, bound,
            direction=direction,
        ),
        check=check,
        computed={"deformation.search_admissible_weights.vectors_computed": (2 * bound + 1) ** free},
    )


def _limit_question(h, weights, direction):
    def check(answer):
        kept = oracles.kept_entries(h, weights, direction)
        if kept is None:
            return answer.exists is False, {}
        return answer.exists and oracles.entries_of(answer.limit) == kept, {}
    return Question(
        spec=f"limit {h.group} g={h.genus} w={weights} {direction}",
        layer="deformation.graded_limit",
        ask=lambda tr: tr.call(
            "deformation.graded_limit", graded_limit, h, WeightAssignment(weights), direction
        ),
        check=check,
    )


def _branch_question(h, line_degree):
    d = dict(h.meta)["d"]
    parity_ok = (line_degree - d) % 2 == 0

    def check(answer):
        if not parity_ok:
            return isinstance(answer, ParityViolationError), {}
        if not hasattr(answer, "exists"):
            return False, {}
        kept = oracles.kept_entries(answer.source, oracles.DEFORMED_RETRACTION, "to-zero")
        return (
            answer.exists
            and dict(answer.source.meta)["line_degree"] == line_degree
            and oracles.entries_of(answer.limit) == kept
        ), {}
    return Question(
        spec=f"branch g={h.genus} d={d} N={line_degree}",
        layer="deformation.limit_destabilized_branch",
        ask=lambda tr: tr.call(
            "deformation.limit_destabilized_branch", limit_destabilized_branch, h,
            NDescriptor(line_degree),
        ),
        check=check,
    )


def _sw_question(genus, n):
    def check(answer):
        reach = oracles.reachable(genus, n)
        ok = {oracles.label(genus, s1, s2) for s1, s2 in reach} == {
            p.label() for p, _ in answer.witnesses
        }
        for pair, classes in answer.witnesses:
            ints = [oracles.bits_to_int(c.bits()) for c in classes]
            ok = ok and len(ints) == n and oracles.label(genus, *oracles.fold(genus, ints)) == pair.label()
        missing = {p.label() for p in answer.missing}
        ok = ok and len(missing) + len(answer.witnesses) == 2 ** (2 * genus + 1)
        return ok and answer.complete == (not missing), {}
    return Question(
        spec=f"sw g={genus} n={n}",
        layer="f2cohomology.sw_surjectivity_witnesses",
        ask=lambda tr: tr.call(
            "f2cohomology.sw_surjectivity_witnesses", sw_surjectivity_witnesses, genus, n
        ),
        check=check,
        band=f"g{genus}",
        refusals=REFUSED_GENUS_CAP,
        computed={"f2cohomology.sw_surjectivity_witnesses.tuples_computed": (1 << (2 * genus)) ** n},
    )


def _minimal_question(genus, n_max):
    def check(answer):
        got = {pair.label(): n for pair, n in answer.items()}
        return got == oracles.minimal_n(genus, n_max), {}
    return Question(
        spec=f"minimal g={genus} n_max={n_max}",
        layer="f2cohomology.minimal_realizing_n",
        ask=lambda tr: tr.call(
            "f2cohomology.minimal_realizing_n", minimal_realizing_n, genus, n_max
        ),
        check=check,
        refusals=REFUSED_GENUS_CAP,
    )


def _census_question(key):
    tag, genus, sector = key

    def check(answer):
        complete, total, listed = oracles.CENSUS[key]
        half = oracles.half_dimension(tag, genus)
        return (
            (answer.complete, answer.total_count, len(answer.components)) == (complete, total, listed)
            and all(c.dimension == half for c in answer.components)
        ), {}
    return Question(
        spec=f"census {tag} g={genus} {sector}",
        layer="catalog.census",
        ask=lambda tr: tr.call("catalog.census", census, GroupTag.parse(tag), genus, sector),
        check=check,
    )


def _param_question(tag, genus):
    """Parameterizations of every label 0 < d <= the bound."""
    rank = 1 if tag == "so:1,2" else int(tag.split(":")[1].split(",")[0])
    labels = range(1, rank * (2 * genus - 2) + 1)
    group = GroupTag.parse(tag)

    def ask(tr):
        return [tr.call("catalog.parameterization", parameterization, group, d, genus) for d in labels]

    def check(answer):
        half = oracles.half_dimension(tag, genus)
        parts = [(p.fiber_rank, p.base_exponent, p.extra_factor_dim) for p in answer]
        return len(parts) == len(labels) and all(min(p) >= 0 and sum(p) == half for p in parts), {}
    return Question(spec=f"param {tag} g={genus}", layer="catalog.parameterization", ask=ask, check=check)


def _consistency_question(key):
    tag, genus, sector = key

    def check(answer):
        return (
            answer["consistent"] is True
            and answer["expected"] == oracles.half_dimension(tag, genus)
            and answer["checked"] == oracles.CENSUS[key][2]
        ), {}
    return Question(
        spec=f"dim {tag} g={genus} {sector}",
        layer="catalog.dimension_consistency",
        ask=lambda tr: tr.call(
            "catalog.dimension_consistency", dimension_consistency, GroupTag.parse(tag), genus, sector
        ),
        check=check,
    )


def _sections_question(h):
    """Section counts of the ambient bundle of every field entry."""
    texts = [h.ambient(e.target, e.source).serialize() for e in h.higgs]
    kinds = {}
    for s in h.summands:
        kinds.update({name: "spin" for name in s.bundle.spins})
        kinds.update({name: "torsion" for name in s.bundle.torsions})
    declared = dict(h.declared)
    curve = Curve(h.genus)

    def ask(tr):
        return [
            tr.call("curve.h0", h0, curve, tr.call("linebundle.parse_expr", parse_expr, text, kinds), declared)
            for text in texts
        ]

    def check(answer):
        got = [(c.value, c.exactness) for c in answer]
        return got == [oracles.h0_from_text(t, h.genus, kinds, declared) for t in texts], {}
    return Question(spec=f"h0 {texts} g={h.genus} {declared}", layer="curve.h0", ask=ask, check=check)


# Section counts on one shape are the most frequent question, so the median
# latency falls among them rather than between two shapes.
LIMIT_CELLS = _fixed_order(
    ["search:so23", "search:sl-small", "search:sl8", "search:split", "search:big",
     "limit", "limit", "limit", "branch:match", "branch:mismatch",
     "sw:g2", "sw:g3", "sw:refused", "minimal", "minimal:refused",
     "census", "param", "consistency"] + ["sections"] * 6,
    "limits-and-classes",
)
PARAM_GROUPS = ("so:1,2", "so0:2,3", "so0:3,4", "so0:4,5")


def limits_cycle(seed: int, cycle: int, b: Builders, history) -> list[Question]:
    rng = random.Random(f"limits-and-classes:{seed}:{cycle}")
    out = []
    census_keys = sorted(oracles.CENSUS)
    complete_keys = [k for k in census_keys if oracles.CENSUS[k][0]]
    for pos, cell in enumerate(LIMIT_CELLS):
        curve = Curve(2 + (pos + cycle) % 2)
        g = curve.genus
        kind, _, shape = cell.partition(":")
        direction = ("to-zero", "to-infinity")[(pos + cycle) % 2]
        if kind == "search":
            h, bound = _search_input(b, rng, curve, shape, cycle)
            out.append(_search_question(h, bound, direction))
        elif kind == "limit":
            h = _limit_object(b, rng, curve, (pos + cycle) % 4)
            out.append(_limit_question(h, _pairing_weights(rng, h, 3), direction))
        elif kind == "branch":
            d = rng.randint(1, 3 * (2 * g - 2))
            line = rng.randint(1, 3 * (2 * g - 2))
            if ((line - d) % 2 == 0) != (shape == "match"):
                line = line - 1 if line > 1 else line + 1
            h = b.build(build_extension_deformed_so35, curve, d)
            out.append(_branch_question(h, line))
        elif kind == "sw":
            genus = rng.randint(4, 6) if shape == "refused" else int(shape[1])
            n = (1, 2, 3, 4)[cycle % 4] if genus == 2 else (1, 2, 3)[cycle % 3]
            out.append(_sw_question(genus, n))
        elif kind == "minimal":
            genus = rng.randint(4, 6) if shape == "refused" else 2 + cycle % 2
            out.append(_minimal_question(genus, 2 + cycle // 2 % 2))
        elif kind == "census":
            out.append(_census_question(census_keys[cycle % len(census_keys)]))
        elif kind == "param":
            out.append(_param_question(PARAM_GROUPS[cycle % len(PARAM_GROUPS)], g))
        elif kind == "consistency":
            out.append(_consistency_question(complete_keys[cycle % len(complete_keys)]))
        else:
            out.append(_sections_question(_limit_object(b, rng, curve, 0)))
    return out + document_questions(b, rng, cycle, Curve(2 + cycle % 3))


CYCLES = {
    "verdicts": verdicts_cycle,
    "gauge-orbit": gauge_cycle,
    "limits-and-classes": limits_cycle,
}
