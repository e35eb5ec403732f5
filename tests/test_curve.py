"""Exact section counting on the base curve."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from higgs_atlas import (
    EXACT,
    GENERIC,
    Curve,
    K_power,
    SectionCount,
    UnresolvedDegreeError,
    divisor_twist,
    h0,
    riemann_roch_chi,
    torsion,
    variable,
)


def test_genus_must_be_at_least_two():
    with pytest.raises(ValueError):
        Curve(1)
    with pytest.raises(ValueError):
        Curve(0)


def test_canonical_degree():
    assert Curve(2).canonical_degree == 2
    assert Curve(5).canonical_degree == 8


def test_chi_frozen_values():
    assert riemann_roch_chi(Curve(2), 0) == -1
    assert riemann_roch_chi(Curve(3), 4) == 2
    assert riemann_roch_chi(Curve(2), 2) == 1


@given(st.integers(2, 20), st.integers(-50, 50))
def test_chi_is_degree_shifted(g, d):
    c = Curve(g)
    assert riemann_roch_chi(c, d) - riemann_roch_chi(c, 0) == d


def test_h0_negative_degree_is_zero_exact():
    got = h0(Curve(2), K_power(-1))
    assert got == SectionCount(0, EXACT)


def test_h0_trivial_bundle():
    assert h0(Curve(3), K_power(0)) == SectionCount(1, EXACT)


def test_h0_canonical_bundle_is_genus():
    for g in (2, 3, 5):
        assert h0(Curve(g), K_power(1)) == SectionCount(g, EXACT)


def test_h0_canonical_powers_exact():
    # deg K^j = j(2g-2) exceeds 2g-2 once j >= 2, so h^1 vanishes
    for g in (2, 3, 4):
        for j in (2, 3, 4):
            got = h0(Curve(g), K_power(j))
            assert got == SectionCount((2 * j - 1) * (g - 1), EXACT)


def test_h0_large_degree_variable_exact():
    got = h0(Curve(2), variable("M"), {"M": 3})
    assert got == SectionCount(2, EXACT)


def test_h0_degree_zero_nontrivial_is_generic():
    got = h0(Curve(2), torsion("I"))
    assert got == SectionCount(0, GENERIC)


def test_h0_middle_range_is_generic():
    got = h0(Curve(3), variable("M"), {"M": 2})
    assert got == SectionCount(0, GENERIC)
    got = h0(Curve(2), variable("M").tensor(K_power(1)), {"M": 0})
    assert got == SectionCount(1, GENERIC)


def test_h0_divisor_twist_frozen():
    bundle = divisor_twist("D", -1).tensor(K_power(2))
    got = h0(Curve(3), bundle, {"D": 2})
    assert got == SectionCount(4, EXACT)


def test_h0_unresolved_symbol():
    with pytest.raises(UnresolvedDegreeError):
        h0(Curve(2), variable("M"))


def test_section_count_validation():
    with pytest.raises(ValueError):
        SectionCount(-1, EXACT)
    with pytest.raises(ValueError):
        SectionCount(0, "maybe")


@given(st.integers(2, 8), st.integers(-10, 30))
def test_h0_at_least_chi_and_nonnegative(g, d):
    c = Curve(g)
    got = h0(c, variable("M"), {"M": d})
    assert got.value >= 0
    assert got.value >= riemann_roch_chi(c, d)
    if d > 2 * g - 2 or d < 0:
        assert got.exactness == EXACT
    else:
        assert got.exactness == GENERIC
