"""Formal line-bundle algebra and its canonical serialization."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from higgs_atlas import (
    Curve,
    KIND_DIVISOR,
    KIND_SPIN,
    KIND_TORSION,
    K_power,
    ParseError,
    UnresolvedDegreeError,
    divisor_twist,
    parse_expr,
    spin,
    tensor_all,
    torsion,
    trivial,
    variable,
)
from helpers import every_builder_output, oracle_dual, oracle_parse, oracle_tensor

KINDS = {"I": KIND_TORSION, "s": KIND_SPIN}


def atoms():
    return st.one_of(
        st.builds(K_power, st.integers(-3, 3)),
        st.builds(variable, st.sampled_from(("M", "N")), st.integers(-3, 3).filter(bool)),
        st.builds(torsion, st.just("I")),
        st.builds(spin, st.just("s"), st.integers(-2, 2).filter(bool)),
        st.builds(divisor_twist, st.just("D"), st.integers(-2, 2).filter(bool)),
    )


def expressions():
    return st.lists(atoms(), min_size=0, max_size=5).map(tensor_all)


def test_trivial_serializes_as_unit():
    assert trivial().serialize() == "O"


def test_serialize_frozen_examples():
    assert K_power(2).tensor(variable("M", -1)).serialize() == "K^2*M^-1"
    assert K_power(2).tensor(variable("M", -1)).tensor(torsion("I")).serialize() == "K^2*M^-1*I"
    assert K_power(1).serialize() == "K"
    assert divisor_twist("D", -1).serialize() == "O(-D)"
    assert spin("s").tensor(K_power(1)).serialize() == "K*s"


def test_spin_square_is_canonical():
    assert spin("s").tensor(spin("s")) == K_power(1)
    assert spin("s", 3) == spin("s").tensor(K_power(1))
    assert spin("s", -1).tensor(spin("s")) == trivial()


def test_torsion_square_is_trivial():
    assert torsion("I").tensor(torsion("I")) == trivial()
    assert torsion("I").power(3) == torsion("I")
    assert torsion("I").dual() == torsion("I")


def test_reserved_and_bad_names_rejected():
    for bad in ("K", "O", "2M", "a b", ""):
        with pytest.raises(ValueError):
            variable(bad)
    with pytest.raises(ValueError):
        torsion("K")


def test_resolved_degree_frozen():
    g = 2
    assert K_power(2).resolved_degree(g, {}) == 4
    assert spin("s").resolved_degree(g, {}) == 1
    assert variable("M", -1).tensor(K_power(1)).resolved_degree(g, {"M": 3}) == -1
    assert divisor_twist("D").resolved_degree(g, {"D": 5}) == 5


def test_unresolved_degree_reports_all_missing_names():
    expr = variable("M").tensor(divisor_twist("D"))
    with pytest.raises(UnresolvedDegreeError) as err:
        expr.resolved_degree(2, {})
    assert "D" in str(err.value) and "M" in str(err.value)


def test_parse_round_trip_with_kinds():
    kinds = {"I": KIND_TORSION, "s": KIND_SPIN}
    for text in ("O", "K", "K^-2", "K*s", "M^3*I", "K^2*M^-1*I", "M*O(D)^-2", "O(-D)"):
        expr = parse_expr(text, kinds)
        assert expr.serialize() == text


def test_parse_rejects_garbage():
    for bad in ("", "K^", "M**N", "O(D"):
        with pytest.raises(ParseError):
            parse_expr(bad)


@pytest.mark.parametrize("text", ["O^2", "O^-1", "O(K)", "O(O)", "O(-K)^2", "M*O^2", "K*O(K)"])
def test_parse_refuses_reserved_names(text):
    with pytest.raises(ParseError, match="reserved name"):
        parse_expr(text)


def test_parse_defaults_names_to_variables():
    expr = parse_expr("M^2")
    assert expr.variables == (("M", 2),)


@given(expressions())
def test_parse_inverts_serialize(expr):
    kinds = {"I": KIND_TORSION, "s": KIND_SPIN}
    assert parse_expr(expr.serialize(), kinds) == expr


@given(expressions())
def test_dual_is_involutive(expr):
    assert expr.dual().dual() == expr


@given(expressions())
def test_tensor_with_dual_cancels(expr):
    assert expr.tensor(expr.dual()) == trivial()


@given(expressions(), expressions())
def test_tensor_commutes(a, b):
    assert a.tensor(b) == b.tensor(a)


@given(expressions(), expressions(), expressions())
def test_tensor_associates(a, b, c):
    assert a.tensor(b).tensor(c) == a.tensor(b.tensor(c))


@given(expressions(), st.integers(-3, 3))
def test_power_is_iterated_tensor(expr, e):
    direct = expr.power(e)
    base = expr if e >= 0 else expr.dual()
    folded = trivial()
    for _ in range(abs(e)):
        folded = folded.tensor(base)
    assert direct == folded


@given(expressions(), expressions(), st.integers(2, 6))
def test_degree_is_additive(a, b, g):
    declared = {"M": 3, "N": -2, "D": 1}
    total = a.tensor(b).resolved_degree(g, declared)
    assert total == a.resolved_degree(g, declared) + b.resolved_degree(g, declared)


# -- agreement with the factor-by-factor oracles ---------------------------

def fields(e):
    return type(e), e.k_power, e.spins, e.torsions, e.variables, e.divisors


def factor_texts():
    """Unreduced factor sequences: repeated and cancelling names, spins and
    torsions to any power, zero exponents, units, stray spaces."""
    exps = st.integers(-3, 3)
    factor = st.one_of(
        st.just("O"),
        st.just("K"),
        exps.map(lambda e: f"K^{e}"),
        st.tuples(st.sampled_from(("M", "N", "s", "t", "I", "J", "E")), exps).map(
            lambda p: f"{p[0]}^{p[1]}"),
        st.sampled_from(("M", "s", "I", "E")),
        st.tuples(st.sampled_from(("D", "s", "M")), st.sampled_from(("", "-")), exps).map(
            lambda p: f"O({p[1]}{p[0]})^{p[2]}"),
    )
    padded = st.tuples(st.sampled_from(("", " ")), factor, st.sampled_from(("", " "))).map("".join)
    return st.lists(padded, min_size=1, max_size=6).map("*".join)


ORACLE_KINDS = st.sampled_from(
    (None, KINDS, {"s": KIND_SPIN, "t": KIND_SPIN, "I": KIND_TORSION, "J": KIND_TORSION,
                   "E": KIND_DIVISOR}))


@given(expressions(), expressions())
def test_tensor_agrees_with_the_reduction_oracle(a, b):
    assert fields(a.tensor(b)) == fields(oracle_tensor(a, b))


@given(st.lists(expressions(), max_size=5))
def test_tensor_all_agrees_with_the_oracle_fold(exprs):
    folded = trivial()
    for e in exprs:
        folded = oracle_tensor(folded, e)
    assert fields(tensor_all(exprs)) == fields(folded)


@given(expressions(), ORACLE_KINDS)
def test_parse_agrees_with_the_factor_oracle_on_normal_forms(expr, kinds):
    text = expr.serialize()
    assert fields(parse_expr(text, kinds)) == fields(oracle_parse(text, kinds))


@given(factor_texts(), ORACLE_KINDS)
def test_parse_agrees_with_the_factor_oracle_on_unreduced_text(text, kinds):
    assert fields(parse_expr(text, kinds)) == fields(oracle_parse(text, kinds))


@pytest.mark.parametrize("genus", [2, 3])
def test_builder_summands_and_ambients_agree_with_the_oracles(genus):
    for h in every_builder_output(Curve(genus)):
        kinds = {}
        for s in h.summands:
            kinds.update(dict.fromkeys(s.bundle.spins, KIND_SPIN))
            kinds.update(dict.fromkeys(s.bundle.torsions, KIND_TORSION))
        lines = [s.bundle for s in h.summands if s.rank == 1]
        ambients = []
        for source in lines:
            for target in lines:
                amb = source.dual().tensor(target).tensor(K_power(1))
                slow = oracle_tensor(oracle_tensor(oracle_dual(source), target), K_power(1))
                assert fields(amb) == fields(slow)
                ambients.append(amb)
        for e in [s.bundle for s in h.summands] + ambients:
            text = e.serialize()
            assert fields(parse_expr(text, kinds)) == fields(oracle_parse(text, kinds)) == fields(e)
