"""Mod-2 cohomology arithmetic: cup products, characteristic classes
and double covers."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from higgs_atlas import f2cohomology
from higgs_atlas import (
    Curve,
    DimensionMismatchError,
    DoubleCover,
    F2Class,
    SWPair,
    all_classes,
    cup,
    minimal_realizing_n,
    sw_surjectivity_witnesses,
    total_sw_of_sum,
)
from helpers import (
    brute_force_minimal_n,
    brute_force_sw_witnesses,
    cup_coords,
    reach_sets,
    scan_smallest_witness,
    sw_fold,
    sw_fold_explicit,
)

A1 = F2Class.basis_a(2, 0)
B1 = F2Class.basis_b(2, 0)
A2 = F2Class.basis_a(2, 1)
B2 = F2Class.basis_b(2, 1)


def classes(genus=2):
    return st.integers(0, (1 << (2 * genus)) - 1).map(lambda v: F2Class.from_int(genus, v))


def test_class_validation():
    with pytest.raises(ValueError):
        F2Class(1, 0)
    with pytest.raises(ValueError):
        F2Class(2, 16)
    with pytest.raises(ValueError):
        F2Class.from_bits("10x0")


@pytest.mark.parametrize("value", [16, -1, 21])
def test_from_int_refuses_values_outside_the_group(value):
    with pytest.raises(ValueError, match=r"outside \[0, 4\^2\)"):
        F2Class.from_int(2, value)


def test_sw2_must_be_a_bit():
    with pytest.raises(ValueError, match="sw2 must be a bit"):
        SWPair(A1, 2)


def test_bits_round_trip():
    for v in range(16):
        c = F2Class.from_int(2, v)
        assert F2Class.from_bits(c.bits()) == c
        assert c.value == v


def test_all_classes_enumeration():
    cs = all_classes(2)
    assert len(cs) == 16
    assert cs[0].is_zero()
    assert len(set(cs)) == 16


def test_cup_on_symplectic_basis():
    assert cup(A1, B1) == 1
    assert cup(A1, A2) == 0
    assert cup(A1, B2) == 0
    assert cup(A2, B2) == 1


def test_cup_frozen_example():
    assert cup(A1 + B2, B1 + A2) == 0


def test_cup_mixed_genus_rejected():
    with pytest.raises(DimensionMismatchError):
        cup(A1, F2Class.zero(3))


@given(st.integers(2, 6).flatmap(lambda g: st.tuples(classes(g), classes(g))))
def test_integer_cup_matches_the_coordinate_formula(pair):
    assert cup(*pair) == cup_coords(*pair)


@given(classes())
def test_cup_is_alternating(x):
    assert cup(x, x) == 0


@given(classes(), classes())
def test_cup_is_symmetric_mod_two(x, y):
    assert cup(x, y) == cup(y, x)


@given(classes(), classes(), classes())
def test_cup_is_bilinear(x, y, z):
    assert cup(x + y, z) == (cup(x, z) + cup(y, z)) % 2


def test_total_sw_frozen_examples():
    assert total_sw_of_sum([A1, A1]) == SWPair(F2Class.zero(2), 0)
    got = total_sw_of_sum([A1, B1])
    assert got.sw1.bits() == "1100" and got.sw2 == 1
    assert got.label() == "sw1=1100,sw2=1"


def test_total_sw_empty_sum_needs_genus():
    with pytest.raises(DimensionMismatchError):
        total_sw_of_sum([])
    assert total_sw_of_sum([], genus=2) == SWPair(F2Class.zero(2), 0)


@given(st.lists(classes(), min_size=1, max_size=5))
def test_total_sw_matches_fold_oracles(cls):
    got = total_sw_of_sum(cls)
    assert (got.sw1, got.sw2) == sw_fold(cls) == sw_fold_explicit(cls)


@given(st.lists(classes(), min_size=1, max_size=4), st.data())
def test_total_sw_is_permutation_invariant(cls, data):
    perm = data.draw(st.permutations(cls))
    assert total_sw_of_sum(cls) == total_sw_of_sum(list(perm))


def test_surjectivity_two_summands_misses_exactly_sw2_on_zero():
    report = sw_surjectivity_witnesses(2, 2)
    assert not report.complete
    assert report.missing == (SWPair(F2Class.zero(2), 1),)


def test_surjectivity_three_summands_complete():
    report = sw_surjectivity_witnesses(2, 3)
    assert report.complete
    assert len(report.witnesses) == 32


def test_surjectivity_single_summand_never_hits_sw2():
    report = sw_surjectivity_witnesses(2, 1)
    assert all(pair.sw2 == 0 for pair, _ in report.witnesses)
    assert len(report.witnesses) == 16
    assert len(report.missing) == 16


def test_surjectivity_witnesses_reproduce_their_pair():
    report = sw_surjectivity_witnesses(2, 2)
    for pair, witness in report.witnesses:
        assert total_sw_of_sum(witness) == pair
        assert len(witness) == 2


def test_surjectivity_genus_guard():
    with pytest.raises(DimensionMismatchError):
        sw_surjectivity_witnesses(4, 2)
    with pytest.raises(DimensionMismatchError):
        sw_surjectivity_witnesses(4, 0)
    with pytest.raises(ValueError):
        sw_surjectivity_witnesses(2, 0)
    with pytest.raises(DimensionMismatchError):
        minimal_realizing_n(4, 1)


@pytest.mark.parametrize("genus", [2, 3])
def test_closed_form_reachability_matches_the_reach_sets(genus):
    reach = reach_sets(genus, 5)
    for m, values in enumerate(reach):
        for value in range(1 << (2 * genus)):
            for sw2 in (0, 1):
                key = (value, sw2)
                assert f2cohomology._reachable(key, m) == (key in values), (key, m)


@pytest.mark.parametrize("genus", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_surjectivity_matches_the_brute_force(genus, n):
    assert sw_surjectivity_witnesses(genus, n) == brute_force_sw_witnesses(genus, n)


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_smallest_witness_matches_the_full_scan(genus):
    # the last class is read off the remainder, not scanned for; past the
    # searched genera the witness is still defined, so the two are compared
    # on every reachable value through genus 4 and on a seeded sample at 5
    keys = f2cohomology._keys(genus)
    if genus == 5:
        keys = random.Random(2800).sample(keys, 256)
    for n in range(1, 6):
        for key in keys:
            if f2cohomology._reachable(key, n):
                got = f2cohomology._smallest_witness(key, n, genus)
                assert got == scan_smallest_witness(key, n, genus), (key, n)


@pytest.mark.parametrize("genus", [2, 3])
@pytest.mark.parametrize("n_max", [-1, 0, 1, 2, 3, 4])
def test_minimal_table_matches_the_brute_force(genus, n_max):
    got = minimal_realizing_n(genus, n_max)
    assert list(got.items()) == list(brute_force_minimal_n(genus, n_max).items())


def test_minimal_table_without_summands_is_empty_for_any_genus():
    assert minimal_realizing_n(7, 0) == {}


@pytest.mark.parametrize("genus", [0, 1])
@pytest.mark.parametrize("n_max", [0, 1, 3])
def test_minimal_table_refuses_a_genus_below_2(genus, n_max):
    # refused before the empty-table shortcut, as every class list is
    with pytest.raises(ValueError, match="genus must be at least 2"):
        minimal_realizing_n(genus, n_max)


def test_minimal_realizing_n_table():
    table = minimal_realizing_n(2, 3)
    assert len(table) == 32
    zero = F2Class.zero(2)
    for pair, n in table.items():
        if pair == SWPair(zero, 0):
            assert n == 1
        elif pair == SWPair(zero, 1):
            assert n == 3
        elif pair.sw2 == 0:
            assert n == 1
        else:
            assert n == 2


def test_double_cover_genus():
    cover = DoubleCover(Curve(2), A1)
    assert cover.cover_genus == 3
    assert DoubleCover(Curve(3), F2Class.basis_a(3, 0)).cover_genus == 5


def test_double_cover_rejects_zero_class():
    with pytest.raises(ValueError):
        DoubleCover(Curve(2), F2Class.zero(2))
    with pytest.raises(DimensionMismatchError):
        DoubleCover(Curve(3), A1)


