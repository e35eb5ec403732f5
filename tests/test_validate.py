"""Structural validation: agreement with the expression-building oracle,
the normal-form identities it rests on, and a guard that keeps ambient
expressions out of the success path."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from higgs_atlas import (
    Curve,
    GradedHiggsBundle,
    GroupTag,
    K_power,
    Summand,
    UnresolvedDegreeError,
    bundle_from_dict,
    permute_summands,
    validate,
    variable,
)
from higgs_atlas.higgsmodel import _ambient_k_power
from higgs_atlas.linebundle import _make
from helpers import every_builder_output, expression_validate, mutated_copies, outcome


@pytest.mark.parametrize("genus", [2, 3])
def test_validate_agrees_with_the_expression_oracle(genus):
    rng = random.Random(4000 + genus)
    seen = Counter()
    messages = []
    for h in every_builder_output(Curve(genus)):
        assert outcome(validate, h) == outcome(expression_validate, h) == ("ok", "")
        for m in mutated_copies(h, rng, 15):
            got = outcome(validate, m)
            assert got == outcome(expression_validate, m), m
            seen[got[0]] += 1
            messages.append(got[1])
    # the corpus reaches every outcome and each ambient check, not only
    # the success path
    assert set(seen) == {"ok", "ModelInvariantError", "UnresolvedDegreeError"}, seen
    assert min(seen.values()) >= 20, seen
    for check in ("needs a trivial ambient", "nowhere-vanishing entry", "claims a nonzero section"):
        assert sum(check in text for text in messages) >= 5, check


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


def test_success_path_builds_no_ambient(monkeypatch):
    def refuse(self, target, source):
        raise AssertionError(f"ambient({target},{source}) built on the success path")

    monkeypatch.setattr(GradedHiggsBundle, "ambient", refuse)
    rng = random.Random(4100)
    for genus in (2, 3):
        for h in every_builder_output(Curve(genus)):
            validate(h)
            n = len(h.summands)
            permute_summands(h, list(reversed(range(n))))
            permute_summands(h, rng.sample(range(n), n))
