"""Structural validation: agreement with the expression-building oracle,
the normal-form identities it rests on, and a guard that keeps ambient
expressions and duals out of the success path."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from higgs_atlas import (
    Curve,
    GradedHiggsBundle,
    GroupTag,
    K_power,
    LineBundleExpr,
    ModelInvariantError,
    ParseError,
    Summand,
    UnresolvedDegreeError,
    build_maximal_so23,
    build_so12,
    bundle_from_dict,
    bundle_to_dict,
    canonical_key,
    check_polystability,
    embed_so23_to_so2n,
    embed_so23_to_so33,
    gauge_equivalent,
    make_bundle,
    permute_summands,
    switchable,
    switched,
    validate,
    variable,
)
from higgs_atlas.canonical import _permutation_orbit
from higgs_atlas.higgsmodel import _ambient_k_power
from higgs_atlas.linebundle import _make
from helpers import (
    builder_corpus,
    every_builder_output,
    expression_validate,
    mutated_copies,
    oracle_dual,
    outcome,
)


@pytest.mark.parametrize("genus", [2, 3])
def test_validate_agrees_with_the_expression_oracle(genus):
    rng = random.Random(4000 + genus)
    seen = Counter()
    messages = []
    for h in every_builder_output(Curve(genus)):
        # each check reads its own unmarked copy, so none returns at once
        assert outcome(validate, replace(h)) == outcome(expression_validate, replace(h)) == (
            "ok", "")
        for m in mutated_copies(h, rng, 15):
            got = outcome(validate, replace(m))
            assert got == outcome(expression_validate, replace(m)), m
            seen[got[0]] += 1
            messages.append(got[1])
    # the corpus reaches every outcome and each ambient check, not only
    # the success path
    assert set(seen) == {"ok", "ModelInvariantError", "UnresolvedDegreeError"}, seen
    assert min(seen.values()) >= 20, seen
    for check in ("needs a trivial ambient", "nowhere-vanishing entry", "claims a nonzero section",
                  "is listed twice"):
        assert sum(check in text for text in messages) >= 5, check


def test_every_ordering_a_key_reads_passes_the_oracle():
    # _permutation_orbit relabels without a check; the oracle re-checks
    # each relabelling it yields
    orderings = 0
    for h in every_builder_output(Curve(2)):
        for p in _permutation_orbit(h):
            expression_validate(p)
            orderings += 1
    assert orderings == 445, orderings


def test_canonical_key_raises_exactly_when_the_oracle_does():
    rng = random.Random(4200)
    seen = Counter()
    for h in builder_corpus(4201, 40):
        for m in mutated_copies(h, rng, 10):
            want = outcome(expression_validate, m)
            got = outcome(canonical_key, m)
            assert (got[0] == "ok") == (want[0] == "ok"), m
            if got[0] != "ok":
                # refused in the caller's summand indices, as validate does
                assert got == outcome(validate, m), m
            seen[got[0]] += 1
    assert set(seen) == {"ok", "ModelInvariantError", "UnresolvedDegreeError"}, seen


@pytest.mark.parametrize("sigma, message", [
    ((1, 0), "pairing involution has the wrong length"),
    ((0, 2, 5), "pairing is not a permutation"),
])
def test_canonical_key_refuses_a_malformed_pairing(sigma, message):
    h = replace(build_so12(Curve(2), 1), sigma=sigma)
    with pytest.raises(ModelInvariantError, match=message):
        canonical_key(h)


def test_a_repeated_higgs_entry_is_refused():
    h = build_maximal_so23(Curve(2), 2)
    first = h.higgs[0]
    entries = [(e.target, e.source, e.symbol) for e in h.higgs]
    with pytest.raises(ModelInvariantError, match=r"^higgs entry \(0, 2\) is listed twice$"):
        make_bundle(h.group, Curve(2), h.summands, h.sigma, h.form,
                    entries + [(first.target, first.source, first.symbol)],
                    declared=h.declared_map, meta=h.meta_map)
    repeated = replace(h, higgs=h.higgs + (first,))
    expected = ("ModelInvariantError", "higgs entry (0, 2) is listed twice")
    assert outcome(validate, repeated) == outcome(expression_validate, repeated) == expected
    # the document boundary still answers first, with its parse error
    doc = bundle_to_dict(h)
    doc["higgs"].append(dict(doc["higgs"][0]))
    with pytest.raises(ParseError, match=r"^higgs entry \(0, 2\) is listed twice$"):
        bundle_from_dict(doc)


@pytest.mark.parametrize("genus", [1, 0, -3, 2.0, True])
def test_a_genus_curve_refuses_is_refused_on_every_path(genus):
    # the first check on an unmarked object, with the rule Curve applies;
    # each path gets its own unmarked copy
    h = build_maximal_so23(Curve(2), 0)
    with pytest.raises(ValueError) as curve:
        Curve(genus)
    paths = (validate, check_polystability, lambda b: gauge_equivalent(b, b),
             lambda b: embed_so23_to_so2n(b, 5), embed_so23_to_so33)
    for ask in paths:
        bad = replace(h, genus=genus)
        with pytest.raises(ModelInvariantError) as exc:
            ask(bad)
        assert str(exc.value) == str(curve.value)
        assert bad._degrees is None
    # a partner of another genus is still answered before either is checked
    if genus != 2:
        assert gauge_equivalent(replace(h, genus=genus), h) is False


def test_unresolved_degrees_are_named_v_side_first():
    doc = {
        "group": "so0:2,2",
        "genus": 2,
        "summands": [
            {"side": "W", "bundle": "N"},
            {"side": "W", "bundle": "N^-1"},
            {"side": "V", "bundle": "M"},
            {"side": "V", "bundle": "M^-1"},
        ],
        "pairing": [1, 0, 3, 2],
    }
    with pytest.raises(UnresolvedDegreeError, match=r"symbol\(s\): M$"):
        bundle_from_dict(doc)
    h = GradedHiggsBundle(
        group=GroupTag("so0", (2, 2)),
        genus=2,
        summands=(
            Summand("W", variable("N")),
            Summand("W", variable("N", -1)),
            Summand("V", variable("M")),
            Summand("V", variable("M", -1)),
        ),
        sigma=(1, 0, 3, 2),
        form="orthogonal",
        higgs=(),
    )
    expected = ("UnresolvedDegreeError", "no declared degree for symbol(s): M")
    assert outcome(validate, h) == outcome(expression_validate, h) == expected


def twists():
    exps = st.integers(-3, 3)
    return st.tuples(*(st.dictionaries(st.sampled_from(names), exps, max_size=2)
                       for names in ("st", "IJ", "MN", "DE")))


@st.composite
def normal_form_pairs(draw):
    """(source, target) normal forms; in about half the pairs the target
    carries the source's spins, torsions, variables and divisors."""
    source_twist = draw(twists())
    target_twist = source_twist if draw(st.booleans()) else draw(twists())
    k_source, k_target = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    return _make(k_source, *source_twist), _make(k_target, *target_twist)


@given(
    normal_form_pairs(),
    st.integers(2, 6),
    st.fixed_dictionaries({name: st.integers(-9, 9) for name in "MNDE"}),
)
def test_ambient_identities_hold_on_normal_forms(pair, genus, declared):
    source, target = pair
    amb = source.dual().tensor(target).tensor(K_power(1))
    same_twist = (
        (source.spins, source.torsions, source.variables, source.divisors)
        == (target.spins, target.torsions, target.variables, target.divisors)
    )
    assert (amb.canonical_power() is not None) == same_twist
    assert amb.is_trivial() == (same_twist and target.k_power - source.k_power + 1 == 0)
    assert amb.resolved_degree(genus, declared) == (
        target.resolved_degree(genus, declared)
        - source.resolved_degree(genus, declared)
        + 2 * genus - 2
    )
    assert _ambient_k_power(source, target) == amb.canonical_power()


@st.composite
def dual_candidates(draw):
    """(a, b): a normal form and, for b, its dual or a near miss of it (K
    power off by one, one exponent negated, one spin, torsion, variable or
    divisor added or dropped), or an unrelated normal form."""
    a = _make(draw(st.integers(-4, 4)), *draw(twists()))
    edit = draw(st.sampled_from(
        ("dual", "k+1", "k-1", "negate", "spin", "torsion", "variable", "divisor", "other")))
    if edit == "other":
        return a, _make(draw(st.integers(-4, 4)), *draw(twists()))
    d = oracle_dual(a)
    k = d.k_power + {"k+1": 1, "k-1": -1}.get(edit, 0)
    spins, torsions = dict.fromkeys(d.spins, 1), dict.fromkeys(d.torsions, 1)
    variables, divisors = dict(d.variables), dict(d.divisors)
    exps = [(table, name) for table in (variables, divisors) for name in table]
    if edit == "negate" and exps:
        table, name = draw(st.sampled_from(exps))
        table[name] = -table[name]
    elif edit in ("spin", "torsion", "variable", "divisor"):
        table, names, added = {
            "spin": (spins, "st", (1,)), "torsion": (torsions, "IJ", (1,)),
            "variable": (variables, "MN", (-2, 1)), "divisor": (divisors, "DE", (-1, 2)),
        }[edit]
        name = draw(st.sampled_from(names))
        if name in table:
            del table[name]
        else:
            table[name] = draw(st.sampled_from(added))
    return a, _make(k, spins, torsions, variables, divisors)


@settings(max_examples=200)
@given(dual_candidates())
def test_closed_form_dual_equals_the_reduction_oracle(pair):
    a, b = pair
    assert a.dual() == oracle_dual(a)
    assert a.dual().dual() == a
    assert a.tensor(a.dual()).is_trivial()
    assert b.is_dual_of(a) == (b == oracle_dual(a))
    assert a.is_dual_of(b) == b.is_dual_of(a)


def test_success_path_builds_no_ambient(monkeypatch):
    def refuse(self, target, source):
        raise AssertionError(f"ambient({target},{source}) built on the success path")

    def refuse_dual(self):
        raise AssertionError(f"dual of {self.serialize()} built on the success path")

    monkeypatch.setattr(GradedHiggsBundle, "ambient", refuse)
    outputs = [h for genus in (2, 3) for h in every_builder_output(Curve(genus))]
    monkeypatch.setattr(LineBundleExpr, "dual", refuse_dual)
    rng = random.Random(4100)
    for h in outputs:
        # unmarked copies, so each call below checks in full
        validate(replace(h))
        n = len(h.summands)
        permute_summands(replace(h), list(reversed(range(n))))
        permute_summands(replace(h), rng.sample(range(n), n))
        bundle_from_dict(bundle_to_dict(h))
        if switchable(h):
            switched(replace(h))
