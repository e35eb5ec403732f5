"""Slope polystability by exhaustive invariant-subobject scan."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from higgs_atlas import (
    BudgetError,
    Curve,
    GroupTag,
    InvariantSubobject,
    K_power,
    ModelInvariantError,
    Summand,
    UnrecognizedShapeError,
    UnsupportedGroupError,
    build_hitchin_sl,
    build_hitchin_sp,
    build_maximal_so23,
    build_maximal_so2n,
    build_so12,
    build_twisted_fuchsian_sp,
    check_polystability,
    components,
    gauge_equivalent,
    make_bundle,
    milnor_wood_bound,
    permute_summands,
    spin,
    switched,
    unit_section,
    F2Class,
    TrivialW0,
)
from helpers import (
    brute_force_polystability,
    builder_corpus,
    component_closed_subsets,
    component_scan_verdict,
    every_builder_output,
    hand_made_corpus,
    sub_diagrams,
    subset_scan_verdict,
    witness_order,
)

C2 = Curve(2)
C3 = Curve(3)


def test_principal_chains_are_stable():
    for h in (build_hitchin_sl(C2, 3), build_hitchin_sp(C3, 2)):
        v = check_polystability(h)
        assert v.status == "stable"
        assert v.is_stable and v.is_polystable
        assert v.decomposition == (tuple(range(len(h.summands))),)


def test_circle_family_verdict_table():
    # (d, mu, nu) -> expected status
    table = [
        (2, True, False, "stable"),
        (2, False, True, "unstable"),
        (1, True, False, "stable"),
        (-1, False, True, "stable"),
        (0, True, True, "stable"),
        (0, False, False, "polystable"),
        (0, True, False, "unstable"),
        (0, False, True, "unstable"),
    ]
    for d, mu, nu, expected in table:
        v = check_polystability(build_so12(C2, d, mu=mu, nu=nu))
        assert v.status == expected, (d, mu, nu, v.status)


def test_unstable_witness_is_maximal_degree():
    v = check_polystability(build_so12(C2, 2, mu=False, nu=True))
    assert v.status == "unstable"
    assert v.witness is not None
    assert v.witness.degree == 2
    assert v.witness.indices == (1,)


def test_semistable_not_polystable_is_reported():
    v = check_polystability(build_so12(C2, 0, mu=True, nu=False))
    assert v.status == "unstable"
    assert "does not split" in v.note
    assert v.witness is not None and v.witness.degree == 0


def test_zero_field_flat_object_is_polystable():
    v = check_polystability(build_so12(C2, 0, mu=False, nu=False))
    assert v.status == "polystable"
    assert v.decomposition is not None
    assert len(v.decomposition) == 3


def test_two_torsion_product_splits_into_factors():
    cls = (F2Class.from_bits("1000"), F2Class.from_bits("0010"))
    h = build_twisted_fuchsian_sp(C2, cls)
    v = check_polystability(h)
    assert v.status == "polystable"
    assert v.decomposition is not None and len(v.decomposition) == 2


def test_components_of_zero_field_object():
    h = build_so12(C2, 0, mu=False, nu=False)
    assert components(h) == ((0,), (1,), (2,))


def test_oracle_agreement_on_randomized_corpus():
    for h in builder_corpus(23, 120):
        got = check_polystability(h).status
        want = brute_force_polystability(h)
        assert got == want, (str(h.group), dict(h.meta), got, want)


def _verdict_bytes(h, **kwargs):
    return json.dumps(check_polystability(h, **kwargs).to_dict())


def test_component_scan_matches_the_subset_scan():
    rng = random.Random(3117)
    objects = every_builder_output(C2) + every_builder_output(C3) + builder_corpus(23, 300)
    statuses = set()
    for h in objects:
        order = list(range(len(h.summands)))
        rng.shuffle(order)
        for p in (h, permute_summands(h, order)):
            want = json.dumps(subset_scan_verdict(p))
            assert _verdict_bytes(p) == want == json.dumps(component_scan_verdict(p)), (
                str(p.group), dict(p.meta))
            statuses.add(json.loads(want)["status"])
    assert statuses == {"stable", "polystable", "unstable"}


def test_component_scan_matches_the_subset_scan_on_sub_diagrams():
    # Dropping entries splits objects into several components, which the
    # builders' own outputs seldom do.
    rng = random.Random(3118)
    seen = set()
    for h in every_builder_output(C2) + every_builder_output(C3):
        for m in sub_diagrams(h, rng, 4):
            want = subset_scan_verdict(m)
            got = _verdict_bytes(m, assume_summand_generated=True)
            assert got == json.dumps(want) == json.dumps(component_scan_verdict(m)), (
                str(m.group), dict(m.meta), [(e.target, e.source) for e in m.higgs])
            seen.add((len(components(m)) > 1, want["status"], want.get("note", "")[:11]))
    # every verdict and both kinds of witness, on one component and on several
    assert seen == {
        (False, "stable", ""),
        (False, "unstable", "destabilizi"),
        (False, "unstable", "degree-zero"),
        (True, "polystable", "direct sum "),
        (True, "unstable", "destabilizi"),
        (True, "unstable", "degree-zero"),
    }, seen


def _tie_breaks(h):
    """Which parts of the order (-degree, size, indices) the component scan
    needs to pick its witness: degree and size within a component's closed
    subsets; indices among equally small degree-zero candidates, within one
    component or across two."""
    seen, zero = set(), []
    for part in components(h):
        subs = component_closed_subsets(h, part)
        best = max(degree for _, degree in subs)
        if len({degree for _, degree in subs}) > 1:
            seen.add("degree")
        if len({len(idx) for idx, degree in subs if degree == best}) > 1:
            seen.add("size" if best == 0 else "size, positive")
        zero += [(sub, part) for sub in subs if sub[1] == 0 and 0 < len(sub[0]) < len(part)]
    if zero:
        least = min(len(sub[0]) for sub, _ in zero)
        tied = [part for sub, part in zero if len(sub[0]) == least]
        if len(tied) > 1:
            seen.add("indices, one component" if len(set(tied)) < len(tied) else "indices, across")
    return seen


def test_verdicts_match_the_component_scan_on_hand_made_objects():
    # valid objects of several components that no builder makes: singletons
    # of every sign, 2-cycles and stars, so every step of the witness order
    # decides somewhere
    seen, shapes = set(), set()
    for h in hand_made_corpus(3121, 400):
        want = component_scan_verdict(h)
        assert _verdict_bytes(h, assume_summand_generated=True) == json.dumps(want), (
            [(e.target, e.source) for e in h.higgs], h.declared)
        seen |= _tie_breaks(h)
        singles = [h.degree_of(p[0]) for p in components(h) if len(p) == 1]
        shapes |= {(d > 0) - (d < 0) for d in singles}
        shapes.add((len(components(h)) > 1, want["status"], want.get("note", "")[:11]))
    assert seen == {"degree", "size", "size, positive", "indices, one component",
                    "indices, across"}, seen
    assert shapes == {1, 0, -1, (False, "stable", ""), (False, "unstable", "destabilizi"),
                      (False, "unstable", "degree-zero"), (True, "polystable", "direct sum "),
                      (True, "unstable", "destabilizi"), (True, "unstable", "degree-zero")}, shapes


def test_a_verdict_builds_one_invariant_subobject_at_most(monkeypatch):
    # the witness alone: no object for any other closed subset
    from higgs_atlas import stability

    built = []

    class Counted(InvariantSubobject):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(stability, "InvariantSubobject", Counted)
    objects = [build_maximal_so2n(C2, 14, TrivialW0(), beta0=False),
               build_hitchin_sl(C2, 12, spin_name="s")] + every_builder_output(C2)
    for h in objects:
        built.clear()
        v = check_polystability(h)
        assert len(built) == (v.witness is not None), (str(h.group), dict(h.meta), len(built))


def test_unrecognized_shape_guard():
    h = make_bundle(
        GroupTag("sl", (2,)),
        C2,
        [Summand("V", spin("s")), Summand("V", spin("s", -1))],
        (1, 0),
        "orthogonal",
        [(1, 0, unit_section())],
    )
    with pytest.raises(UnrecognizedShapeError):
        check_polystability(h)
    v = check_polystability(h, assume_summand_generated=True)
    assert v.status == "stable"


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("HIGGS_ATLAS_BUDGET", "8")
    with pytest.raises(BudgetError):
        check_polystability(build_maximal_so23(C2, 1))
    monkeypatch.setenv("HIGGS_ATLAS_BUDGET", "64")
    assert check_polystability(build_maximal_so23(C2, 1)).status == "stable"


def test_factors_are_scanned_one_at_a_time(monkeypatch):
    # 32 summands: 2^32 masks at once, 8 + 29 * 2 one component at a time
    monkeypatch.delenv("HIGGS_ATLAS_BUDGET", raising=False)
    h = build_maximal_so2n(C2, 30, TrivialW0(), beta0=False)
    v = check_polystability(h)
    assert v.status == "polystable"
    assert v.decomposition == components(h) and len(v.decomposition) == 30


def test_connected_object_keeps_the_full_scan_budget(monkeypatch):
    monkeypatch.delenv("HIGGS_ATLAS_BUDGET", raising=False)
    with pytest.raises(BudgetError) as exc:
        check_polystability(build_hitchin_sl(C2, 25, spin_name="s"))
    assert str(exc.value) == "subset scan over 25 summands exceeds the budget 16777216"
    assert exc.value.payload == {"n": 25, "budget": 2 ** 24, "size": 2 ** 25}


def test_nonzero_total_degree_is_refused():
    # the per-component verdict rests on a total degree of zero, which
    # validate guarantees; an object built around validate is refused
    h = build_hitchin_sl(C2, 3)
    first = h.summands[0]
    first = Summand(first.side, K_power(3), first.rank, first.sw)
    h = replace(h, summands=(first,) + h.summands[1:])
    with pytest.raises(ModelInvariantError, match="total degree must vanish"):
        check_polystability(h)


def test_milnor_wood_bounds_frozen():
    assert milnor_wood_bound(GroupTag.parse("sl:2"), 2) == 1
    assert milnor_wood_bound(GroupTag.parse("sp:2"), 3) == 2
    assert milnor_wood_bound(GroupTag.parse("psl:2"), 2) == 2
    assert milnor_wood_bound(GroupTag.parse("so:1,2"), 2) == 2
    assert milnor_wood_bound(GroupTag.parse("so0:1,2"), 3) == 4
    assert milnor_wood_bound(GroupTag.parse("sp:4"), 2) == 2
    assert milnor_wood_bound(GroupTag.parse("sp:6"), 3) == 6
    assert milnor_wood_bound(GroupTag.parse("so0:2,3"), 2) == 4
    assert milnor_wood_bound(GroupTag.parse("so0:3,4"), 2) == 6
    assert milnor_wood_bound(GroupTag.parse("so0:2,4"), 2) == 2
    assert milnor_wood_bound(GroupTag.parse("so0:2,5"), 3) == 4


def test_milnor_wood_unsupported_group():
    with pytest.raises(UnsupportedGroupError):
        milnor_wood_bound(GroupTag.parse("sl:3"), 2)


def test_gauge_equivalence_includes_switch():
    h = build_maximal_so23(C2, 2)
    assert gauge_equivalent(h, switched(h))
    assert not gauge_equivalent(h, build_maximal_so23(C2, 1))
    assert not gauge_equivalent(h, build_maximal_so23(C3, 2))


def test_verdict_serialization():
    doc = check_polystability(build_so12(C2, 2)).to_dict()
    assert doc == {"status": "stable", "decomposition": [[0, 1, 2]]}
    doc = check_polystability(build_so12(C2, 2, mu=False)).to_dict()
    assert doc["status"] == "unstable"
    assert doc["witness"] == {"indices": [1], "degree": 2}
    assert "note" in doc
