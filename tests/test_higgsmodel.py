"""Decorated-quiver objects: builders, validation, gauge moves, and the
JSON round trip."""

from __future__ import annotations

import copy
import hashlib
import itertools
import math
import pickle
import random
from collections import Counter
from dataclasses import fields, replace

import pytest

from higgs_atlas import (
    BoundError,
    BudgetError,
    Curve,
    DimensionMismatchError,
    F2Class,
    GroupTag,
    HiggsEntry,
    MissingSpinError,
    ModelInvariantError,
    ParseError,
    PreconditionError,
    PrymW0,
    SectionSymbol,
    SplitW0,
    Summand,
    TrivialW0,
    WrongGroupError,
    append_trivial_w,
    arrow_pattern,
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
    bundle_from_dict,
    bundle_to_dict,
    canonical_json,
    canonical_key,
    check_polystability,
    embed_so23_to_so2n,
    embed_so23_to_so33,
    gauge_equivalent,
    gauge_orbit_key,
    make_bundle,
    minimal_realizing_n,
    named_section,
    permute_summands,
    search_admissible_weights,
    so2n_sw_label,
    structurally_equal,
    summand_degree_multiset,
    switchable,
    sw_surjectivity_witnesses,
    switched,
    trivial,
    unit_section,
    validate,
    variable,
)
from higgs_atlas import canonical
from helpers import (
    builder_corpus,
    every_builder_output,
    expression_validate,
    key_only_gauge_equivalent,
    key_only_structurally_equal,
    mutated_copies,
    near_misses,
    oracle_maximal_so23,
    outcome,
    summand_key_orderings,
)

C2 = Curve(2)
C3 = Curve(3)


def exprs(h):
    return [f"{s.side}:{s.bundle.serialize()}" for s in h.summands]


def arrows(h):
    return [(e.target, e.source, e.symbol.name, e.symbol.vanishing) for e in h.higgs]


# -- group tags -------------------------------------------------------------

def test_group_tag_round_trip():
    for text in ("sl:3", "sp:4", "so:1,2", "so0:2,3", "psl:2", "slc:5"):
        assert str(GroupTag.parse(text)) == text


def test_group_tag_rejects_garbage():
    for bad in ("su:2", "sl:", "so0:2", "sl:2,3", "sl:x"):
        with pytest.raises(ParseError):
            GroupTag.parse(bad)


# -- builder structure freezes ----------------------------------------------

def test_principal_sl2_chain():
    h = build_hitchin_sl(C2, 2, spin_name="s")
    assert exprs(h) == ["V:s", "V:K^-1*s"]
    assert h.degrees() == (1, -1)
    assert h.sigma == (1, 0)
    assert arrows(h) == [(1, 0, "1", "nowhere-vanishing")]


def test_principal_sl3_chain():
    h = build_hitchin_sl(C2, 3)
    assert exprs(h) == ["V:K", "V:O", "V:K^-1"]
    assert h.sigma == (2, 1, 0)
    assert arrows(h) == [
        (1, 0, "1", "nowhere-vanishing"),
        (2, 1, "1", "nowhere-vanishing"),
    ]


def test_even_sl_needs_a_spin_choice():
    with pytest.raises(MissingSpinError):
        build_hitchin_sl(C2, 2)
    with pytest.raises(MissingSpinError):
        build_hitchin_sl(C3, 4)


def test_split_odd_orthogonal_chain():
    h = build_hitchin_so(C2, 2)
    assert exprs(h) == ["V:K", "V:K^-1", "W:K^2", "W:O", "W:K^-2"]
    assert h.degrees() == (2, -2, 4, 0, -4)
    assert h.sigma == (1, 0, 4, 3, 2)
    assert all(e.symbol.vanishing == "nowhere-vanishing" for e in h.higgs)
    assert len(h.higgs) == 4


def test_split_symplectic_chain():
    h = build_hitchin_sp(C2, 2)
    assert exprs(h) == ["V:K*s", "V:K^-1*s", "W:s", "W:K^-2*s"]
    assert h.form == "symplectic"
    assert h.sigma == (3, 2, 1, 0)
    assert len(h.higgs) == 3


def test_circle_rank_one_family():
    h = build_so12(C2, 1)
    assert exprs(h) == ["V:O", "W:M", "W:M^-1"]
    assert h.degrees() == (0, 1, -1)
    assert h.sigma == (0, 2, 1)
    assert sorted({e.symbol.name for e in h.higgs}) == ["mu", "nu"]
    assert len(h.higgs) == 4


def test_maximal_two_three_family():
    h = build_maximal_so23(C2, 2)
    assert exprs(h) == ["V:K", "V:K^-1", "W:O", "W:M", "W:M^-1"]
    assert h.degrees() == (2, -2, 0, 2, -2)
    assert arrows(h) == [
        (0, 2, "q2", "generically-nonzero"),
        (0, 3, "mu", "generically-nonzero"),
        (0, 4, "nu", "generically-nonzero"),
        (1, 2, "1", "nowhere-vanishing"),
        (2, 0, "1", "nowhere-vanishing"),
        (2, 1, "q2", "generically-nonzero"),
        (3, 1, "nu", "generically-nonzero"),
        (4, 1, "mu", "generically-nonzero"),
    ]


def test_maximal_two_three_top_degree_pins_mu():
    top = build_maximal_so23(C2, 4)
    mu = [e for e in top.higgs if e.symbol.name == "mu"]
    assert all(e.symbol.vanishing == "nowhere-vanishing" for e in mu)


def test_twisted_chain_family():
    h = build_exotic_so(C2, 3, 2)
    assert exprs(h) == ["V:K^2", "V:O", "V:K^-2", "W:K", "W:K^-1", "W:M", "W:M^-1"]
    assert h.degrees() == (4, 0, -4, 2, -2, 2, -2)
    assert {(e.target, e.source) for e in h.higgs if e.symbol.name == "mu"} == {
        (0, 5),
        (6, 2),
    }
    assert h.declared_map == {"M": 2}


def test_twisted_chain_rejects_out_of_range_degrees():
    from higgs_atlas import BoundError

    with pytest.raises(BoundError):
        build_exotic_so(C2, 3, 0)
    with pytest.raises(BoundError):
        build_exotic_so(C2, 3, 7)


def test_split_even_orthogonal_chain():
    h = build_hitchin_so_nn(C2, 2, pfaffian=True)
    assert exprs(h) == ["V:K", "V:K^-1", "W:O", "W:O"]
    assert {(e.target, e.source) for e in h.higgs if e.symbol.name == "pf"} == {
        (0, 3),
        (3, 1),
    }


def test_fuchsian_point():
    h = build_fuchsian(C2)
    assert exprs(h) == ["V:s", "W:K^-1*s"]
    assert h.group == GroupTag("sp", (2,))
    assert [e.symbol.name for e in h.higgs] == ["q2", "1"]


def test_twisted_fuchsian_tensors_torsion_lines():
    cls = F2Class.from_bits("1000")
    h = build_twisted_fuchsian_sp(C2, (cls,))
    assert exprs(h) == ["V:s*I1", "W:K^-1*s*I1"]
    assert dict(h.torsion_classes)["I1"] == cls


def test_twisted_fuchsian_zero_class_is_untwisted():
    h = build_twisted_fuchsian_sp(C2, (F2Class.zero(2),))
    assert exprs(h) == ["V:s", "W:K^-1*s"]


def test_extension_deformed_family():
    h = build_extension_deformed_so35(C2, 2)
    assert exprs(h) == [
        "V:K^2", "V:O", "V:K^-2",
        "W:M", "W:K", "W:K^-1", "W:M^-1", "W:O",
    ]
    assert h.sigma == (2, 1, 0, 6, 5, 4, 3, 7)
    assert [(t.target, t.source, t.name) for t in h.dolbeault] == [
        (6, 7, "eps"),
        (7, 3, "eps"),
    ]


def test_degree_zero_chain_is_remark_level():
    h = build_degree_zero_chain(C2, 2)
    assert dict(h.meta)["status"].startswith("remark-level")
    assert sum(h.degrees()) == 0


def test_maximal_so2n_variants():
    split = build_maximal_so2n(C2, 4, SplitW0(degree=1))
    assert split.group == GroupTag("so0", (2, 4))
    prym = build_maximal_so2n(C2, 3, PrymW0(sw1=F2Class.from_bits("1010"), sw2=1))
    assert any(s.rank == 2 for s in prym.summands)
    plain = build_maximal_so2n(C2, 5, TrivialW0())
    assert plain.group == GroupTag("so0", (2, 5))


def test_maximal_so2n_refuses_a_prym_class_of_another_genus():
    with pytest.raises(DimensionMismatchError, match="genus 2, the curve genus 3"):
        build_maximal_so2n(C3, 3, PrymW0(sw1=F2Class.from_bits("1010"), sw2=1))
    h = build_maximal_so2n(C3, 3, PrymW0(sw1=F2Class.from_bits("101000"), sw2=1))
    assert dict(h.torsion_classes)["I"].genus == 3
    assert so2n_sw_label(h).sw1 == F2Class.from_bits("101000")


@pytest.mark.parametrize("build", [
    lambda c, cls: build_maximal_so2n(c, 3, PrymW0(sw1=cls, sw2=1)),
    lambda c, cls: build_twisted_fuchsian_sp(c, [cls, F2Class.zero(c.genus)]),
], ids=["maximal-so2n", "twisted-fuchsian-sp"])
def test_a_class_of_another_genus_is_a_dimension_mismatch(build):
    with pytest.raises(DimensionMismatchError,
                       match=r"class 1010 has genus 2, the curve genus 3$"):
        build(C3, F2Class.from_bits("1010"))
    assert dict(build(C3, F2Class.from_bits("101000")).torsion_classes)


# -- validation rejections ----------------------------------------------------

def _simple(sigma=(0, 2, 1), entries=(), declared=None):
    return make_bundle(
        GroupTag("so", (1, 2)),
        C2,
        [Summand("V", trivial()), Summand("W", variable("M")), Summand("W", variable("M", -1))],
        sigma,
        "orthogonal",
        entries,
        declared=declared or {"M": 1},
    )


def test_validate_accepts_simple_object():
    validate(replace(_simple()))


def test_validate_rejects_non_involution():
    with pytest.raises(ModelInvariantError):
        _simple(sigma=(1, 2, 0))


def test_validate_rejects_non_dual_pairing():
    with pytest.raises(ModelInvariantError):
        _simple(sigma=(0, 1, 2))


def test_validate_rejects_missing_transpose_partner():
    with pytest.raises(ModelInvariantError):
        _simple(entries=[(0, 1, named_section("mu"))])


def test_validate_accepts_transpose_pair():
    h = _simple(entries=[(0, 1, named_section("mu")), (2, 0, named_section("mu"))])
    assert len(h.higgs) == 2


def test_validate_rejects_unit_in_nontrivial_ambient():
    with pytest.raises(ModelInvariantError):
        _simple(entries=[(0, 1, unit_section()), (2, 0, unit_section())])


def test_validate_rejects_nowhere_vanishing_off_degree_zero():
    sym = named_section("mu", vanishing="nowhere-vanishing")
    with pytest.raises(ModelInvariantError):
        _simple(entries=[(0, 1, sym), (2, 0, sym)])


def test_validate_rejects_generic_section_of_negative_bundle():
    # ambient Hom(M, M^-2 K) has degree -7 at genus 2 when deg M = 3
    with pytest.raises(ModelInvariantError):
        make_bundle(
            GroupTag("sl", (2,)),
            C2,
            [Summand("V", variable("M")), Summand("V", variable("M", -1))],
            (1, 0),
            "orthogonal",
            [(1, 0, named_section("mu")), (0, 1, named_section("mu"))],
            declared={"M": 3},
        )


def test_validate_rejects_wrong_factor_ranks():
    with pytest.raises(ModelInvariantError):
        make_bundle(
            GroupTag("so0", (2, 1)),
            C2,
            [Summand("V", trivial()), Summand("W", variable("M")), Summand("W", variable("M", -1))],
            (0, 2, 1),
            "orthogonal",
            (),
            declared={"M": 1},
        )


def test_validate_rejects_orthogonal_pairing_across_sides():
    with pytest.raises(ModelInvariantError):
        make_bundle(
            GroupTag("so", (1, 1)),
            C2,
            [Summand("V", variable("M")), Summand("W", variable("M", -1))],
            (1, 0),
            "orthogonal",
            (),
            declared={"M": 1},
        )


def test_validate_rejects_charged_block():
    with pytest.raises(ModelInvariantError):
        make_bundle(
            GroupTag("so0", (1, 2)),
            C2,
            [Summand("V", trivial()), Summand("W", variable("W0"), rank=2)],
            (0, 1),
            "orthogonal",
            (),
            declared={"W0": 1},
        )


# -- gauge moves ---------------------------------------------------------------

def test_permutation_is_relabelling():
    h = build_maximal_so23(C2, 2)
    p = permute_summands(h, [2, 0, 1, 4, 3])
    assert p is not h
    assert structurally_equal(h, p)
    assert canonical_key(h) == canonical_key(p)
    assert summand_degree_multiset(h) == summand_degree_multiset(p)
    assert arrow_pattern(h) == arrow_pattern(p)
    validate(replace(p))


def test_permutation_rejects_non_permutation():
    h = build_so12(C2, 0)
    with pytest.raises(ValueError):
        permute_summands(h, [0, 0, 1])


def test_switch_is_an_involution():
    h = build_maximal_so23(C2, 3)
    assert switchable(h)
    s = switched(h)
    assert dict(s.meta)["d"] == -3
    assert switched(s) == h
    assert gauge_orbit_key(h) == gauge_orbit_key(s)
    validate(replace(s))


@pytest.mark.parametrize("label, switched_label", [
    ("3", -3), ("-3", 3), ("²", "²"), ("--3", "--3"), ("+3", "+3"), ("1_0", "1_0"),
])
def test_switch_negates_only_an_integer_label(label, switched_label):
    doc = bundle_to_dict(build_maximal_so23(C2, 3))
    doc["meta"]["d"] = label
    assert dict(switched(bundle_from_dict(doc)).meta)["d"] == switched_label


@pytest.mark.parametrize("label", ["1_0", "1_1", "³"])
def test_embedding_refuses_a_non_integer_label(label):
    doc = bundle_to_dict(build_maximal_so23(C2, 1))
    doc["meta"]["d"] = label
    with pytest.raises(PreconditionError):
        embed_so23_to_so2n(bundle_from_dict(doc), 5)


def test_embedding_reads_a_signed_label():
    doc = bundle_to_dict(build_maximal_so23(C2, -3))
    assert dict(embed_so23_to_so2n(bundle_from_dict(doc), 5).meta)["sw2"] == 1
    doc["meta"]["d"] = "-3"
    assert dict(embed_so23_to_so2n(bundle_from_dict(doc), 5).meta)["sw2"] == 1


def test_switch_requires_a_declared_move():
    with pytest.raises(WrongGroupError):
        switched(build_hitchin_sl(C2, 3))


def test_structural_equality_distinguishes_degrees():
    assert not structurally_equal(build_so12(C2, 1), build_so12(C2, 2))
    assert not structurally_equal(build_so12(C2, 1), build_so12(C3, 1))


def test_canonical_key_validates_once(monkeypatch):
    # Six trivial summands of W: 720 orderings, each a relabelling of an
    # object validated once.  A comparison validates each object, then asks
    # each key, which validates it again at once; the work pin below counts
    # the full checks.
    calls = []

    def counting_validate(h):
        calls.append(h)
        validate(h)

    h = build_maximal_so2n(C2, 6, TrivialW0())
    monkeypatch.setattr(canonical, "validate", counting_validate)
    key = canonical_key(h)
    assert len(calls) == 1 and calls[0] is h
    calls.clear()
    p = permute_summands(h, list(reversed(range(len(h.summands)))))
    assert gauge_equivalent(h, p)
    assert len(calls) == 5
    assert canonical_key(p) == key


def test_keys_and_comparisons_check_each_unmarked_object_once(monkeypatch):
    # The work pin: a spy on the full check, which a marked object skips.
    # An unmarked copy is checked once, whatever the question reads of it
    # (120 orderings, a switched presentation, a second key), and a marked
    # object not at all.
    from higgs_atlas import higgsmodel

    checked = []
    full_check = higgsmodel._check_group_shape

    def spy(h):
        checked.append(h)
        return full_check(h)

    objects = [build_maximal_so2n(C2, 5, TrivialW0()), build_maximal_so2n(C2, 5, SplitW0(2))]
    monkeypatch.setattr(higgsmodel, "_check_group_shape", spy)
    for h in objects:
        validate(h)
        p = permute_summands(h, list(reversed(range(len(h.summands)))))
        assert checked == []
        for key in (canonical_key, gauge_orbit_key):
            u = replace(h)
            assert key(u) == key(p)
            assert len(checked) == 1 and checked[0] is u
            checked.clear()
        for compare in (structurally_equal, gauge_equivalent):
            a, b = replace(h), replace(p)
            assert compare(a, b) and compare(b, a) and compare(a, a)
            assert sorted(map(id, checked)) == sorted([id(a), id(b)])
            checked.clear()
            assert compare(h, p) and compare(p, h) and compare(h, h)
            c = replace(p)
            assert compare(h, c) and compare(c, p)
            assert len(checked) == 1 and checked[0] is c
            checked.clear()


def test_gauge_equivalent_validates_each_object_once(monkeypatch):
    # a and b once each and each of the two keys, all at once on marked
    # objects; a's own invariant and key match b's, so its switched
    # presentation is not built; the work pin above counts the full checks
    calls = []

    def counting_validate(h):
        calls.append(h)
        validate(h)

    h = build_maximal_so23(C2, 2)
    monkeypatch.setattr(canonical, "validate", counting_validate)
    assert gauge_equivalent(h, h)
    assert len(calls) == 4


def test_gauge_equivalent_keys_only_the_matching_presentations(monkeypatch):
    # switched a has meta d = -2, so only a's key is made, next to b's
    calls = []

    def counting_json(h):
        calls.append(h)
        return canonical_json(h)

    h = build_maximal_so23(C2, 2)
    p = permute_summands(h, [4, 3, 2, 1, 0])
    monkeypatch.setattr(canonical, "canonical_json", counting_json)
    assert gauge_equivalent(h, p)
    assert len(calls) == 2


def test_a_pair_with_matching_invariants_keys_only_the_matching_presentation(monkeypatch):
    # Two of the four trivial W summands joined by one more transpose pair of
    # sections: two isolated ones, or one of them the one q2 reaches.  The
    # rows are alike, so the invariants agree and the keys differ; switched a
    # has meta d = -1, so it is neither built nor keyed: 4! orderings per key
    h = build_maximal_so2n(C2, 6, SplitW0(1))

    def joined(i, j):
        z = named_section("z")
        higgs = sorted(h.higgs + (HiggsEntry(i, j, z), HiggsEntry(j, i, z)),
                       key=lambda e: (e.target, e.source))
        out = replace(h, higgs=tuple(higgs))
        validate(out)
        return out

    a, b = joined(5, 6), joined(2, 5)
    assert canonical._invariant(a) == canonical._invariant(b)
    calls = []

    def counting_json(h):
        calls.append(h)
        return canonical_json(h)

    monkeypatch.setattr(canonical, "canonical_json", counting_json)
    monkeypatch.setattr(canonical, "switched", _refuse_switch)
    assert gauge_equivalent(a, b) is False
    assert len(calls) == 2 * 24


def _switchable_outputs():
    return [h for genus in (2, 3) for h in every_builder_output(Curve(genus)) if switchable(h)]


def test_the_switch_is_a_checked_automorphism():
    rng = random.Random(2300)
    outs = _switchable_outputs()
    assert len(outs) == 80
    copies = [m for h in outs for m in mutated_copies(h, rng, 4)]
    assert len(copies) == 320
    seen = Counter()
    valid = list(outs)
    for m in copies:
        # an unmarked copy is refused exactly when validate refuses it
        got = outcome(validate, replace(m))[0]
        assert outcome(switched, replace(m))[0] == got, m
        seen[got] += 1
        if got == "ok":
            valid.append(m)
    # valid copies and both kinds of refusal are reached
    assert set(seen) == {"ok", "ModelInvariantError", "UnresolvedDegreeError"}, seen
    for h in valid:
        s = switched(h)
        assert switched(s) == h
        order = list(range(len(h.summands)))
        rng.shuffle(order)
        assert switched(canonical._relabel(h, order)) == canonical._relabel(s, order)
        # only summands carrying M and entries naming a switched section are rebuilt
        for old, new in zip(h.summands, s.summands):
            assert (old is new) == all(n != "M" for n, _ in old.bundle.variables)
        for old, new in zip(h.higgs, s.higgs):
            assert (old is new) == (old.symbol.name not in ("mu", "nu"))


def test_the_switched_invariant_is_read_off_the_object():
    # the invariant gauge_equivalent reads off an object for its switched
    # presentation is that presentation's own, on valid and unmarked copies too
    rng = random.Random(2700)
    outs = _switchable_outputs()
    assert len(outs) == 80
    copies = [m for h in outs for m in mutated_copies(h, rng, 4)]
    valid = [m for m in copies if outcome(validate, replace(m))[0] == "ok"]
    assert len(valid) >= 60
    for h in outs + valid:
        other = canonical._invariant(h, move=canonical._switch_move(h))
        assert other == canonical._invariant(switched(h)), h


def test_the_summand_rows_order_and_group_as_the_summand_key(monkeypatch):
    # with each relabelling replaced by its order, the orbit is the sequence
    # of orderings the old grouping key made: the same base order and groups
    objects = [h for genus in (2, 3) for h in every_builder_output(Curve(genus))]
    objects += builder_corpus(2800, 60)
    monkeypatch.setattr(canonical, "_relabel", lambda h, order: tuple(order))
    for h in objects:
        assert list(canonical._permutation_orbit(h)) == summand_key_orderings(h), h


def test_a_partner_without_the_switched_meta_reads_no_switched_row(monkeypatch):
    # switched a's rows are read only when its meta is b's, so a rejected
    # pair whose partner has another meta is answered with the flip refused
    def refuse(*args):
        raise AssertionError("a switched row was read")

    pairs = [(build_maximal_so23(C2, 2), build_maximal_so23(C2, 3)),
             (build_maximal_so23(C2, 3), build_maximal_so23(C2, 2))]
    for h in _switchable_outputs():
        for m in near_misses(h):
            pairs += [(h, m), (m, h)]
    pairs = [(a, b) for a, b in pairs if canonical._switch_move(a)[2] != b.meta_map]
    assert len(pairs) >= 100
    monkeypatch.setattr(canonical, "_flip", refuse)
    for a, b in pairs:
        assert gauge_equivalent(a, b) is False
    # nor does a reordering, whose meta is a's own
    a = build_maximal_so23(C2, 2)
    assert gauge_equivalent(a, permute_summands(a, [4, 3, 2, 1, 0])) is True


def test_a_pair_whose_metas_differ_reads_no_row(monkeypatch):
    # the invariant holds the meta, so a presentation of a whose meta is not
    # b's (nor, under the switch, switched a's) is rejected unread
    outs = [h for genus in (2, 3) for h in every_builder_output(Curve(genus))]
    same = [(a, b) for a in outs for b in outs if (a.group, a.genus) == (b.group, b.genus)]
    plain = [(a, b) for a, b in same if a.meta_map != b.meta_map]
    gauge = [(a, b) for a, b in plain
             if not switchable(a) or canonical._switch_move(a)[2] != b.meta_map]
    gauge += [(build_maximal_so23(C2, 2), build_maximal_so23(C2, 3)),
              (build_maximal_so23(C2, 3), build_maximal_so23(C2, 2))]
    assert len(gauge) >= 500 and len(plain) > len(gauge)
    reads = []
    rows = canonical._rows
    monkeypatch.setattr(canonical, "_rows", lambda h: reads.append(h) or rows(h))
    for a, b in plain:
        assert structurally_equal(a, b) is False
    for a, b in gauge:
        assert gauge_equivalent(a, b) is False
    assert reads == []
    # a pair whose metas agree is still read
    a = build_maximal_so23(C2, 2)
    assert gauge_equivalent(a, switched(a)) and reads


def _refuse_switch(*args):
    raise AssertionError("a switched presentation was built")


def test_a_reordered_positive_pair_builds_no_switch(monkeypatch):
    # a's own invariant and key match those of its reordering, so the
    # switched presentation is never needed; a switched partner needs it once
    rng = random.Random(2701)
    pairs = []
    for h in _switchable_outputs():
        order = list(range(len(h.summands)))
        rng.shuffle(order)
        p = permute_summands(h, order)
        pairs += [(h, p), (p, h), (h, h)]
    built = []

    def counting_switch(h):
        built.append(h)
        return switched(h)

    h = build_maximal_so23(C2, 2)
    pairs.append((h, permute_summands(h, [4, 3, 2, 1, 0])))
    s = switched(permute_summands(h, [4, 3, 2, 1, 0]))
    monkeypatch.setattr(canonical, "switched", _refuse_switch)
    for a, b in pairs:
        assert gauge_equivalent(a, b) is True
    monkeypatch.setattr(canonical, "switched", counting_switch)
    assert gauge_equivalent(h, s) is True
    assert built == [h]


MALFORMED_SWITCH_META = {"one name": "mu", "empty": "", "three names": "mu,nu,xi", "deleted": None}


def _with_switch_sections(h, value):
    meta = dict(h.meta)
    if value is None:
        del meta["switch_sections"]
    else:
        meta["switch_sections"] = value
    return replace(h, meta=tuple(sorted(meta.items())))


@pytest.mark.parametrize("value", MALFORMED_SWITCH_META.values(), ids=MALFORMED_SWITCH_META)
def test_malformed_switch_meta_is_refused(value):
    h = build_so12(C2, 1)
    doc = bundle_to_dict(h)
    bad = _with_switch_sections(h, value)
    if value is None:
        del doc["meta"]["switch_sections"]
    else:
        doc["meta"]["switch_sections"] = value
    with pytest.raises(ParseError, match="switch_sections"):
        bundle_from_dict(doc)
    for call in (switched, gauge_orbit_key, lambda x: gauge_equivalent(x, x)):
        with pytest.raises(PreconditionError, match="switch_sections"):
            call(bad)
    # the other side's switched presentation is not built: it is compared
    assert gauge_equivalent(h, bad) is False


def test_canonicalization_refusal_carries_orbit_size_and_cap():
    # Nine trivial summands of W: 9! orderings, above the 8! cap.
    with pytest.raises(BudgetError) as exc:
        canonical_key(build_maximal_so2n(C2, 9, TrivialW0()))
    assert exc.value.payload == {"size": 362880, "cap": 40320}


def test_the_canonical_key_refusal_frontier_at_genus_2():
    # The canonical_key column of the refusal frontier: the first refused
    # size of each builder row, with answered cells asked of the cap check
    # alone, which raises before it makes any ordering.
    answered = [
        *(build_hitchin_sl(C2, n, spin_name="s" if n % 2 == 0 else None) for n in range(2, 41)),
        *(build_hitchin_sp(C2, n) for n in range(1, 21)),
        *(build_hitchin_so(C2, n) for n in range(2, 21)),
        *(build_exotic_so(C2, n, 1) for n in range(2, 21)),
        *(build_hitchin_so_nn(C2, n) for n in range(2, 21)),
    ]
    # so0:2,n has n trivial W summands with trivial W0 and n - 2 with split
    # W0 d = 1, so each row is first refused at 9! = 362880 orderings
    for w0, fewer, first in ((TrivialW0(), 0, 9), (SplitW0(1), 2, 11)):
        for n in range(3, 31):
            h = build_maximal_so2n(C2, n, w0)
            if n < first:
                answered.append(h)
                continue
            with pytest.raises(BudgetError) as exc:
                canonical_key(h)
            assert exc.value.payload == {"size": math.factorial(n - fewer), "cap": 40320}
    for h in answered:
        canonical._permutation_orbit(h)


class _PastTheGuard(Exception):
    """Raised by the first step after a size guard lets a question through."""


def _past_the_guard(*args):
    raise _PastTheGuard


# The check_polystability and weight-search columns of the refusal frontier
# at genus 2 and the default budget: per builder row, its sizes, the first
# size each guard refuses, and the payloads that refusal carries.  The scan
# reports the sum of 2^|C| over components C; the search, refused by its
# summand cap, the (2 bound + 1)^(free pairing coordinates) vectors at bound 1.
_FRONTIER = [
    # builder, sizes, scan: first refused and size; search: first refused,
    # summand count and free coordinates
    (lambda n: build_hitchin_sl(C2, n, spin_name="s" if n % 2 == 0 else None), range(2, 41),
     25, lambda n: 2 ** n, 11, lambda n: n, lambda n: n // 2),
    (lambda n: build_hitchin_sp(C2, n), range(1, 21),
     13, lambda n: 2 ** (2 * n), 6, lambda n: 2 * n, lambda n: n),
    (lambda n: build_hitchin_so(C2, n), range(2, 21),
     12, lambda n: 2 ** (2 * n + 1), 5, lambda n: 2 * n + 1, lambda n: n),
    (lambda n: build_exotic_so(C2, n, 1), range(2, 21),
     12, lambda n: 2 ** (2 * n + 1), 5, lambda n: 2 * n + 1, lambda n: n),
    (lambda n: build_hitchin_so_nn(C2, n), range(2, 21),
     13, lambda n: 2 ** (2 * n - 1) + 2, 6, lambda n: 2 * n, lambda n: n - 1),
    (lambda n: build_maximal_so2n(C2, n, TrivialW0()), range(3, 31),
     23, lambda n: 2 ** (n + 2), 9, lambda n: n + 2, lambda n: 1),
    (lambda n: build_maximal_so2n(C2, n, SplitW0(1)), range(3, 31),
     None, None, 9, lambda n: n + 2, lambda n: 2),
]


def test_the_scan_and_weight_search_refusal_frontier_at_genus_2(monkeypatch):
    # A refused cell asks the public function; an answered cell asks it too,
    # but the first step after the guards raises, so no answer is paid for.
    from higgs_atlas import deformation, stability

    monkeypatch.delenv("HIGGS_ATLAS_BUDGET", raising=False)
    budget = 2 ** 24
    refused = Counter()
    for make, sizes, scan_first, scan_size, search_first, count, free in _FRONTIER:
        for n in sizes:
            h = make(n)
            if scan_first is not None and n >= scan_first:
                with pytest.raises(BudgetError) as exc:
                    check_polystability(h)
                assert exc.value.payload == {"n": count(n), "budget": budget, "size": scan_size(n)}
                refused["scan"] += 1
            if n >= search_first:
                with pytest.raises(BudgetError) as exc:
                    search_admissible_weights(h, 1)
                assert exc.value.payload == {"n": count(n), "cap": 10, "size": 3 ** free(n)}
                refused["search"] += 1
            with monkeypatch.context() as m:
                m.setattr(stability, "_closed_subsets", _past_the_guard)
                m.setattr(deformation, "graded_limit", _past_the_guard)
                if scan_first is None or n < scan_first:
                    with pytest.raises(_PastTheGuard):
                        check_polystability(h)
                if n < search_first:
                    with pytest.raises(_PastTheGuard):
                        search_admissible_weights(h, 1)
    assert refused == {"scan": 16 + 8 + 9 + 9 + 8 + 8,
                       "search": 30 + 15 + 16 + 16 + 15 + 22 + 22}


def test_the_comparison_and_sw_refusal_frontier_at_genus_2(monkeypatch):
    # so0:2,n against its reversal: refused by the cap from 9! orderings on,
    # and past the guard below, where the first ordering raises.  A partner
    # without beta0 (trivial W0) or nu (split W0) has another invariant, so
    # it is answered at every size.
    rows = (
        (TrivialW0(), lambda n: build_maximal_so2n(C2, n, TrivialW0(), beta0=False), 0, 9),
        (SplitW0(1), lambda n: build_maximal_so2n(C2, n, SplitW0(1, nu=False)), 2, 11),
    )
    refused = Counter()
    for w0, partner, fewer, first in rows:
        for n in range(3, 31):
            h, q = build_maximal_so2n(C2, n, w0), partner(n)
            p = permute_summands(h, list(reversed(range(len(h.summands)))))
            for compare in (structurally_equal, gauge_equivalent):
                assert compare(h, q) is False and compare(q, h) is False
                if n >= first:
                    with pytest.raises(BudgetError) as exc:
                        compare(h, p)
                    assert exc.value.payload == {"size": math.factorial(n - fewer), "cap": 40320}
                    refused[compare.__name__] += 1
                    continue
                with monkeypatch.context() as m:
                    m.setattr(canonical, "_relabel", _past_the_guard)
                    with pytest.raises(_PastTheGuard):
                        compare(h, p)
    assert refused == {"structurally_equal": 22 + 20, "gauge_equivalent": 22 + 20}
    # the sw row: answered at genus 2 and 3, refused from genus 4 on
    for genus in range(2, 11):
        if genus <= 3:
            assert sw_surjectivity_witnesses(genus, 3).complete
            assert len(minimal_realizing_n(genus, 3)) == 2 ** (2 * genus + 1)
            continue
        for ask in (sw_surjectivity_witnesses, minimal_realizing_n):
            with pytest.raises(DimensionMismatchError):
                ask(genus, 3)


def _comparison_pairs(genus):
    """Pairs of builder outputs, their seeded permutations and switched
    presentations, one-section near misses and mutated copies, and random
    pairs of all these."""
    rng = random.Random(5100 + genus)
    outs = every_builder_output(Curve(genus))
    pairs, pool = [], list(outs)
    for h in outs:
        order = list(range(len(h.summands)))
        rng.shuffle(order)
        p = permute_summands(h, order)
        pairs += [(h, h), (h, p), (p, h)]
        if switchable(h):
            pairs += [(h, switched(p)), (switched(p), h)]
        misses = near_misses(h)
        for m in rng.sample(misses, min(2, len(misses))):
            pairs += [(h, m), (m, p)]
            pool.append(m)
        for m in mutated_copies(h, rng, 2):
            pairs += [(h, m), (m, h)]
    pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(300)]
    return pairs


@pytest.mark.parametrize("genus", [2, 3])
def test_comparisons_agree_with_the_key_only_oracle(genus):
    seen = Counter()
    for a, b in _comparison_pairs(genus):
        for new, old in ((structurally_equal, key_only_structurally_equal),
                         (gauge_equivalent, key_only_gauge_equivalent)):
            got = outcome(new, a, b)
            assert got == outcome(old, a, b), (new.__name__, a, b)
            seen[got if got[0] == "ok" else got[0]] += 1
    # both answers and both kinds of refusal are reached
    assert set(seen) == {("ok", "True"), ("ok", "False"), "ModelInvariantError",
                         "UnresolvedDegreeError"}, seen
    assert min(seen.values()) >= 50, seen


def _above_cap_pair():
    # Twelve trivial summands of W: 12! orderings; the partner drops beta0.
    return (build_maximal_so2n(C2, 12, TrivialW0()),
            build_maximal_so2n(C2, 12, TrivialW0(), beta0=False))


def test_a_pair_above_the_cap_is_decided_by_its_invariant():
    a, b = _above_cap_pair()
    for compare in (structurally_equal, gauge_equivalent):
        assert compare(a, b) is False
        assert compare(b, a) is False
        with pytest.raises(BudgetError) as exc:
            compare(a, a)
        assert exc.value.payload == {"size": 479001600, "cap": 40320}


def test_an_invalid_object_above_the_cap_is_refused_as_invalid():
    a, b = _above_cap_pair()
    broken = replace(a, sigma=a.sigma[1:])
    for key in (canonical_key, gauge_orbit_key):
        with pytest.raises(ModelInvariantError, match="pairing involution has the wrong length"):
            key(broken)
    for compare in (structurally_equal, gauge_equivalent):
        for pair in ((broken, b), (b, broken)):
            with pytest.raises(ModelInvariantError, match="pairing involution has the wrong length"):
                compare(*pair)


def test_a_rejected_pair_makes_no_ordering(monkeypatch):
    # nor a switched presentation: the invariant of switched a is read off a
    def refuse(*args):
        raise AssertionError("an ordering was made for a rejected pair")

    h = build_maximal_so23(C2, 2)
    pairs = (_above_cap_pair(), (h, near_misses(h)[0]), (h, switched(near_misses(h)[0])),
             (h, build_maximal_so23(C2, 3)))
    monkeypatch.setattr(canonical, "_permutation_orbit", refuse)
    monkeypatch.setattr(canonical, "canonical_json", refuse)
    monkeypatch.setattr(canonical, "switched", _refuse_switch)
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            assert not structurally_equal(x, y)
            assert not gauge_equivalent(x, y)


# -- the validity mark ---------------------------------------------------------
#
# A passing `validate` keeps the object's summand degrees in `_degrees`;
# `GradedHiggsBundle._with` passes them on when its caller gives them
# (`canonical._relabel`, `switched`, the base-case builders), so every
# builder returns a marked object.  These tests
# read the private attribute, since its presence is the mark.

def _marked(h):
    return h._degrees is not None


def _fresh_degrees(h):
    return tuple(s.bundle.resolved_degree(h.genus, h.declared_map) for s in h.summands)


def _mark_corpus():
    """Every builder's output at genus 2 and 3, the randomized corpus, and
    three mutated copies of each (unvalidated, so unmarked)."""
    rng = random.Random(2500)
    outs = every_builder_output(C2) + every_builder_output(C3) + builder_corpus(2501, 40)
    mutants = [m for h in outs for m in mutated_copies(h, rng, 3)]
    return outs, mutants, rng


@pytest.mark.parametrize("genus", [2, 3])
def test_every_builder_output_is_marked(genus):
    outs = every_builder_output(Curve(genus))
    assert len(outs) == 90 and all(map(_marked, outs))


def test_a_mark_appears_only_after_a_passing_check():
    outs, mutants, rng = _mark_corpus()
    assert len(mutants) >= 200
    seen = Counter()
    for m in [replace(h) for h in outs] + mutants:
        assert not _marked(m)
        # reading degrees, serializing, relabelling or switching an unmarked
        # object marks nothing of it; a switch checks and marks only its output
        outcome(m.degrees)
        outcome(canonical_json, m)
        order = list(range(len(m.summands)))
        rng.shuffle(order)
        assert not _marked(canonical._relabel(m, order))
        if switchable(m):
            outcome(switched, m)
        assert not _marked(m)
        got = outcome(validate, m)[0]
        assert _marked(m) == (got == "ok"), m
        assert got == outcome(expression_validate, replace(m))[0], m
        seen[got] += 1
    assert set(seen) == {"ok", "ModelInvariantError", "UnresolvedDegreeError"}, seen
    assert min(seen.values()) >= 20, seen


def _marks_of(h, rng):
    """``h`` validated, and the objects its moves give: relabellings (by the
    gauge move and by the unchecked one) and, when it has one, their switches."""
    validate(h)
    n = len(h.summands)
    order = list(range(n))
    rng.shuffle(order)
    out = [h, permute_summands(h, order), canonical._relabel(h, list(reversed(range(n))))]
    if switchable(h):
        out += [switched(h), switched(out[1])]
    return out


def test_kept_degrees_equal_a_fresh_resolution():
    outs, mutants, rng = _mark_corpus()
    valid = [m for m in mutants if outcome(expression_validate, m)[0] == "ok"]
    assert len(valid) >= 50
    for h in outs + valid:
        for p in _marks_of(h, rng):
            assert _marked(p), p
            fresh = _fresh_degrees(p)
            assert p._degrees == fresh == p.degrees(), p
            assert [p.degree_of(i) for i in range(len(p.summands))] == list(fresh)
            # an unmarked copy of each move's output passes the full check
            validate(replace(p))
            assert expression_validate(replace(p)) is None
    for h in outs:
        back = bundle_from_dict(bundle_to_dict(h))
        assert _marked(back) and back._degrees == _fresh_degrees(back)


def test_the_mark_changes_no_comparison_and_survives_copies():
    outs, _, rng = _mark_corpus()
    for h in outs:
        plain = replace(h)
        text = canonical_json(plain)
        for p in _marks_of(h, rng):
            u = replace(p)
            assert not _marked(u)
            assert p == u and hash(p) == hash(u) and repr(p) == repr(u)
            assert canonical_json(p) == canonical_json(u)
            assert bundle_to_dict(p) == bundle_to_dict(u)
        assert canonical_json(h) == text and h == plain and hash(h) == hash(plain)
        assert len(fields(h)) == 10
        # copies and pickles keep the mark along with the fields it describes
        for twin in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
            assert twin == h and hash(twin) == hash(h) and repr(twin) == repr(h)
            assert canonical_json(twin) == text
            assert _marked(twin) and twin._degrees == _fresh_degrees(twin)


def test_a_marked_object_and_its_moves_are_not_checked_again(monkeypatch):
    from higgs_atlas import higgsmodel

    def refuse(h):
        raise AssertionError("a marked object was checked again")

    # built before the check is refused; a builder's output is marked, so
    # nothing below checks it again
    objects = [build_maximal_so2n(C2, 5, SplitW0(2)), build_maximal_so23(C2, 2), build_fuchsian(C2)]
    monkeypatch.setattr(higgsmodel, "_check_group_shape", refuse)
    for h in objects:
        p = permute_summands(h, list(reversed(range(len(h.summands)))))
        validate(h)
        assert structurally_equal(h, p) and gauge_equivalent(h, p) and gauge_equivalent(p, h)
        assert canonical_key(p) == canonical_key(h)
        if switchable(h):
            s = switched(permute_summands(p, list(range(len(p.summands)))))
            assert gauge_equivalent(h, s) and gauge_equivalent(s, h)
            assert gauge_orbit_key(s) == gauge_orbit_key(h) and switched(switched(h)) == h
    with pytest.raises(AssertionError, match="checked again"):
        validate(replace(objects[0]))


def test_an_invalid_copy_of_a_marked_object_is_refused():
    outs, mutants, rng = _mark_corpus()
    marked = [h for h in outs if outcome(validate, h)[0] == "ok"]
    assert all(map(_marked, marked))
    bad = [replace(h, sigma=h.sigma[1:]) for h in marked]
    bad += [m for m in mutants if outcome(expression_validate, replace(m))[0] != "ok"]
    assert len(bad) >= 200
    partner = {(h.group, h.genus): h for h in marked}
    for m in bad:
        want = outcome(expression_validate, replace(m))
        assert want[0] != "ok"
        assert outcome(validate, m) == want, m
        h = partner[(m.group, m.genus)]
        for compare in (gauge_equivalent, structurally_equal):
            assert outcome(compare, m, h) == want, m
            assert outcome(compare, h, m) == want, m
        order = list(range(len(m.summands)))
        rng.shuffle(order)
        assert outcome(permute_summands, m, order)[0] != "ok"
        if switchable(m):
            assert outcome(switched, m)[0] == want[0], m
        assert not _marked(m)


def test_with_marks_a_copy_exactly_when_given_degrees():
    outs, mutants, rng = _mark_corpus()
    for h in outs:
        assert _marked(h)
        plain = h._with()
        assert not _marked(plain)
        assert plain == h and hash(plain) == hash(h) and repr(plain) == repr(h)
        assert canonical_json(plain) == canonical_json(h)
        # the copy carries exactly the degrees its caller vouches for
        given = tuple(rng.randrange(-9, 10) for _ in h.summands)
        moved = h._with(given, meta=())
        assert moved._degrees is given and moved.meta == () and moved.summands == h.summands
        assert not _marked(h._with(None, meta=()))
        validate(plain)
        assert plain._degrees == h._degrees
    # an unmarked copy is checked in full, so an invalid one is refused
    bad = [h._with(sigma=h.sigma[1:]) for h in outs]
    bad += [m._with() for m in mutants if outcome(expression_validate, m)[0] != "ok"]
    assert len(bad) >= 200
    for m in bad:
        want = outcome(expression_validate, m)
        assert want[0] != "ok"
        assert outcome(validate, m) == want, m
        assert not _marked(m)


# -- derived objects -----------------------------------------------------------

def test_associated_special_linear_object():
    h = build_so12(C2, 1)
    a = associated_sl(h)
    assert a.group == GroupTag("slc", (3,))
    assert a.summands == h.summands
    assert a.higgs == h.higgs
    with pytest.raises(WrongGroupError):
        associated_sl(a)


def test_embedding_into_larger_even_signature():
    h = build_maximal_so23(C2, 3)
    e = embed_so23_to_so2n(h, 5)
    assert e.group == GroupTag("so0", (2, 5))
    assert len(e.summands) == len(h.summands) + 2
    assert e.higgs == h.higgs
    validate(replace(e))


def test_embedding_into_split_three_three():
    h = build_maximal_so23(C2, 2)
    e = embed_so23_to_so33(h)
    assert e.group == GroupTag("so0", (3, 3))
    assert exprs(e)[0] == "V:O"
    assert len(e.higgs) == len(h.higgs)
    validate(replace(e))


def test_append_trivial_summand():
    h = build_hitchin_so(C2, 2)
    e = append_trivial_w(h)
    assert e.group == GroupTag("so0", (2, 4))
    validate(replace(e))


def _stabilizations(h):
    """Each stabilization that takes ``h``, with a name for it."""
    out = []
    if h.group.family != "slc":
        out.append(("associated_sl", associated_sl))
    if h.group.family == "so0":
        out.append(("append_trivial_w", append_trivial_w))
    if h.group == GroupTag("so0", (2, 3)):
        out += [("embed_so23_to_so33", embed_so23_to_so33),
                ("embed_so23_to_so2n:4", lambda x: embed_so23_to_so2n(x, 4)),
                ("embed_so23_to_so2n:6", lambda x: embed_so23_to_so2n(x, 6))]
    return out


@pytest.mark.parametrize("genus", [2, 3])
def test_a_stabilization_of_a_marked_object_keeps_fresh_degrees(genus):
    seen = Counter()
    for h in every_builder_output(Curve(genus)):
        for name, stabilize in _stabilizations(h):
            s = stabilize(h)
            assert _marked(s), name
            assert s._degrees == _fresh_degrees(s) == s.degrees(), (name, s)
            # its unmarked copy passes both full checks
            validate(replace(s))
            assert expression_validate(replace(s)) is None
            seen[name.partition(":")[0]] += 1
    assert set(seen) == {"associated_sl", "append_trivial_w", "embed_so23_to_so33",
                         "embed_so23_to_so2n"}, seen


def test_a_stabilization_checks_a_marked_input_never_and_an_unmarked_one_once(monkeypatch):
    from higgs_atlas import higgsmodel

    full = []
    shape = higgsmodel._check_group_shape

    def counted(h):
        full.append(h)
        return shape(h)

    monkeypatch.setattr(higgsmodel, "_check_group_shape", counted)
    objects = [build_maximal_so23(C2, 2), build_maximal_so23(C3, -3, q2=False),
               build_hitchin_so(C2, 2), build_so12(C2, 1), build_hitchin_sp(C2, 4)]
    counts = set()
    for h in objects:
        for name, stabilize in _stabilizations(h):
            for given, want in ((h, 0), (h._with(), 1)):
                full.clear()
                s = stabilize(given)
                assert (len(full), _marked(s)) == (want, True), (name, str(h.group))
                counts.add((name, want))
    assert len(counts) == 2 * 5


def test_the_unit_is_exactly_the_section_named_1():
    # A named section called "1" is written as the unit's name, and a unit of
    # another name as a named section's, so either would make a valid object
    # whose document loads back as another object or not at all.
    for make in (lambda: named_section("1"),
                 lambda: SectionSymbol("1", "named", "nowhere-vanishing"),
                 lambda: SectionSymbol("one", "unit", "nowhere-vanishing")):
        with pytest.raises(ValueError, match="the unit is exactly the section named '1'"):
            make()
    h = build_so12(C2, 1)
    with pytest.raises(ValueError, match="exactly the section named '1'"):
        h._with(higgs=tuple(HiggsEntry(e.target, e.source, named_section("1"))
                            if e.symbol.name == "mu" else e for e in h.higgs))
    for g in (2, 3):
        for h in every_builder_output(Curve(g)):
            assert all((e.symbol.kind == "unit") == (e.symbol.name == "1") for e in h.higgs)
            assert bundle_from_dict(bundle_to_dict(h)) == h


def test_sw_label_requires_even_signature_pair():
    with pytest.raises(WrongGroupError):
        so2n_sw_label(build_hitchin_sl(C2, 3))


# -- serialization ---------------------------------------------------------------

def test_json_round_trip_across_builders():
    for h in builder_corpus(17, 40):
        doc = bundle_to_dict(h)
        assert doc["schema"] == "higgs-atlas/1"
        back = bundle_from_dict(doc)
        assert back == h


# sha256 of every_builder_output's canonical JSON, one object per line
# (90 objects per genus); any change to a builder's output bytes shows here
BUILDER_DIGESTS = {
    2: "4d56420829e49bf364dae4740d75dbe2e4c9e6051376b34e84f0f78644368fa2",
    3: "5236ce1d109efbaa0ae160feb2f3fe197cb52ffb326bf297fa969677570352b2",
}


@pytest.mark.parametrize("genus", [2, 3])
def test_maximal_two_three_matches_the_hand_written_diagram(genus):
    c = Curve(genus)
    top = 4 * genus - 4
    for d in range(-top, top + 1):
        for mu, nu, q2 in itertools.product((True, False), repeat=3):
            h = build_maximal_so23(c, d, mu, nu, q2)
            assert replace(h, meta=()) == oracle_maximal_so23(c, d, mu, nu, q2), (d, mu, nu, q2)


@pytest.mark.parametrize("genus", sorted(BUILDER_DIGESTS))
def test_builder_output_bytes_are_frozen(genus):
    outputs = every_builder_output(Curve(genus))
    assert len(outputs) == 90
    text = "\n".join(canonical_json(h) for h in outputs)
    assert hashlib.sha256(text.encode()).hexdigest() == BUILDER_DIGESTS[genus]


# sha256 of every_builder_output's canonical keys, one object per line;
# any change to the key bytes (the least JSON over the orderings) shows here
KEY_DIGESTS = {
    2: "472193f65b906933cc06673f521b3215f9fca6f093e513fbabeb29fc24cee2a7",
    3: "31f614e1a3f678389c7a893541508d3f41ceff0871daa39793b847b72167db14",
}


@pytest.mark.parametrize("genus", sorted(KEY_DIGESTS))
def test_canonical_key_bytes_are_frozen(genus):
    text = "\n".join(canonical_key(h) for h in every_builder_output(Curve(genus)))
    assert hashlib.sha256(text.encode()).hexdigest() == KEY_DIGESTS[genus]


def test_canonical_json_is_deterministic():
    h = build_maximal_so2n(C2, 3, PrymW0(sw1=F2Class.from_bits("0110"), sw2=0))
    assert canonical_json(h) == canonical_json(bundle_from_dict(bundle_to_dict(h)))


def test_from_dict_rejects_unknown_schema():
    doc = bundle_to_dict(build_so12(C2, 0))
    doc["schema"] = "higgs-atlas/999"
    with pytest.raises(ParseError):
        bundle_from_dict(doc)


def test_from_dict_rejects_malformed_document():
    with pytest.raises(ParseError):
        bundle_from_dict({"schema": "higgs-atlas/1", "group": "sl:2"})


def _mutated(h, edit):
    doc = bundle_to_dict(h)
    edit(doc)
    return doc


@pytest.mark.parametrize("edit", [
    lambda d: d["higgs"][0].update({"from": 99}),
    lambda d: d["higgs"][0].update({"to": -1}),
    lambda d: d["higgs"][0].update({"from": 1.0}),
    lambda d: d["higgs"][0].update({"from": True}),
    lambda d: d["dolbeault"][0].update({"from": 8}),
    lambda d: d["pairing"].__setitem__(0, 8),
    lambda d: d["pairing"].__setitem__(0, "1"),
])
def test_from_dict_rejects_indices_outside_the_summands(edit):
    doc = _mutated(build_extension_deformed_so35(C2, 2), edit)
    with pytest.raises(ParseError, match="index"):
        bundle_from_dict(doc)


@pytest.mark.parametrize("genus", [2.7, 2.0, True, "2", "two", "", "2g", None])
def test_from_dict_requires_an_integer_genus(genus):
    doc = _mutated(build_so12(C2, 0), lambda d: d.update({"genus": genus}))
    with pytest.raises(ParseError, match="genus"):
        bundle_from_dict(doc)


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("summands"),
    lambda d: d.pop("pairing"),
    lambda d: d.pop("group"),
    lambda d: d.update({"group": "xx:3"}),
    lambda d: d.update({"group": "sl:"}),
    lambda d: d.update({"group": "so0:2"}),
    lambda d: d.update({"symbols": [1]}),
    lambda d: d.update({"meta": [1]}),
])
def test_from_dict_rejects_missing_keys_and_bad_shapes(edit):
    with pytest.raises(ParseError):
        bundle_from_dict(_mutated(build_so12(C2, 0), edit))


@pytest.mark.parametrize("key", ["group", "genus", "summands", "pairing"])
def test_a_missing_required_key_is_refused_before_any_row_is_parsed(monkeypatch, key):
    from higgs_atlas import higgsmodel

    def refuse(*args):
        raise AssertionError("a row was parsed")

    doc = bundle_to_dict(build_maximal_so23(C3, 2))
    del doc[key]
    monkeypatch.setattr(higgsmodel, "parse_expr", refuse)
    with pytest.raises(ParseError) as exc:
        bundle_from_dict(doc)
    assert str(exc.value) == f"malformed bundle document: {key!r}"


@pytest.mark.parametrize("sw2", [1.9, 1.0, True, "1", None])
def test_from_dict_requires_an_integer_sw2(sw2):
    h = build_maximal_so2n(C2, 3, PrymW0(sw1=F2Class.from_bits("1010"), sw2=1))
    doc = _mutated(h, lambda d: next(r for r in d["summands"] if "sw2" in r).update({"sw2": sw2}))
    with pytest.raises(ParseError, match="sw2"):
        bundle_from_dict(doc)


@pytest.mark.parametrize("rank", [2.0, 2.5, True, "2", None])
def test_from_dict_requires_an_integer_rank(rank):
    h = build_maximal_so2n(C2, 3, PrymW0(sw1=F2Class.from_bits("1010"), sw2=1))
    doc = _mutated(h, lambda d: next(r for r in d["summands"] if "rank" in r).update({"rank": rank}))
    with pytest.raises(ParseError, match="rank"):
        bundle_from_dict(doc)
    unranked = bundle_to_dict(build_so12(C2, 0))
    assert all("rank" not in r for r in unranked["summands"])
    assert [s.rank for s in bundle_from_dict(unranked).summands] == [1, 1, 1]


@pytest.mark.parametrize("degree", ["2", 2.0, 2.5, False])
def test_from_dict_requires_an_integer_symbol_degree(degree):
    doc = _mutated(build_so12(C2, 2), lambda d: d["symbols"]["M"].update({"degree": degree}))
    with pytest.raises(ParseError, match="degree of symbol 'M'"):
        bundle_from_dict(doc)


def test_from_dict_rejects_a_document_that_is_not_an_object():
    with pytest.raises(ParseError, match="JSON object"):
        bundle_from_dict([1, 2])


def test_degree_multiset_and_arrow_pattern_frozen():
    h = build_so12(C2, 1)
    assert summand_degree_multiset(h) == (("V", 0), ("W", -1), ("W", 1))
    assert arrow_pattern(h) == (
        (-1, 0, "generically-nonzero"),
        (0, -1, "generically-nonzero"),
        (0, 1, "generically-nonzero"),
        (1, 0, "generically-nonzero"),
    )


# -- the q_j rule ---------------------------------------------------------------

# builder of a chain with differentials q_on, its top index, and whether
# only even differentials exist on it
Q_BUILDERS = {
    "hitchin_sl": (lambda q: build_hitchin_sl(C2, 4, q, spin_name="s"), 4, False),
    "hitchin_so": (lambda q: build_hitchin_so(C2, 3, q), 6, True),
    "hitchin_sp": (lambda q: build_hitchin_sp(C2, 3, q), 6, True),
    "hitchin_so_nn": (lambda q: build_hitchin_so_nn(C2, 3, q), 4, True),
    "exotic_so": (lambda q: build_exotic_so(C2, 3, 2, q_on=q), 4, True),
}


@pytest.mark.parametrize("name", sorted(Q_BUILDERS))
def test_differentials_outside_their_range_are_refused(name):
    build, top, even = Q_BUILDERS[name]
    for q_on in ((1,), (top + 1,), (2, 1), (2, top + 1)) + (((3,),) if even else ()):
        with pytest.raises(BoundError):
            build(q_on)


@pytest.mark.parametrize("name", sorted(Q_BUILDERS))
def test_differentials_at_both_ends_are_built(name):
    build, top, even = Q_BUILDERS[name]
    for q_on in ((2,), (top,), (top, 2, top)) + (() if even else ((3,),)):
        names = {e.symbol.name for e in build(q_on).higgs}
        assert {f"q{j}" for j in q_on} <= names
    assert build((2, top, 2)) == build((top, 2))
