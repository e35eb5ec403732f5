"""Connected-component censuses, dimension formulas, and the exact
product parameterizations of the integer-labelled components."""

from __future__ import annotations

import hashlib
import json

import pytest

from higgs_atlas import (
    BoundError,
    Curve,
    GroupTag,
    HiggsAtlasError,
    UnsupportedGroupError,
    census,
    character_variety_dimension,
    dimension_consistency,
    extra_factor_dimension,
    group_dim,
    half_dimension,
    milnor_wood_bound,
    parameterization,
    resolve_extra_factor_reading,
)


def tag(text):
    return GroupTag.parse(text)


def labels(c):
    return [comp.label for comp in c.components]


def test_group_dimensions_frozen():
    assert group_dim(tag("sl:2")) == 3
    assert group_dim(tag("sl:3")) == 8
    assert group_dim(tag("sp:4")) == 10
    assert group_dim(tag("sp:6")) == 21
    assert group_dim(tag("so:1,2")) == 3
    assert group_dim(tag("so0:2,3")) == 10
    assert group_dim(tag("so0:3,4")) == 21
    assert group_dim(tag("so0:5,6")) == 55


def test_character_variety_dimension():
    assert character_variety_dimension(tag("sl:2"), 2) == 6
    assert character_variety_dimension(tag("so0:2,3"), 2) == 20
    assert character_variety_dimension(tag("so0:3,4"), 2) == 42
    assert half_dimension(tag("so0:3,4"), 2) == 21


# -- parameterizations ---------------------------------------------------------

def test_parameterization_frozen_values():
    p = parameterization(tag("so:1,2"), 2, 2)
    assert (p.fiber_rank, p.base_label, p.extra_factor_dim) == (3, "Sym^0", 0)
    assert p.total == 3

    p = parameterization(tag("so:1,2"), 1, 2)
    assert (p.fiber_rank, p.base_label, p.extra_factor_dim) == (2, "Sym^1", 0)
    assert p.total == 3

    p = parameterization(tag("so0:2,3"), 4, 2)
    assert (p.fiber_rank, p.base_label, p.extra_factor_dim) == (7, "Sym^0", 3)
    assert p.total == 10

    p = parameterization(tag("so0:3,4"), 3, 2)
    assert (p.fiber_rank, p.base_label, p.extra_factor_dim) == (8, "Sym^3", 10)
    assert p.total == 21

    p = parameterization(tag("so0:5,6"), 7, 3)
    assert (p.fiber_rank, p.base_label, p.extra_factor_dim) == (25, "Sym^13", 72)
    assert p.total == 110


def test_parameterization_total_is_constant_in_d():
    for text, g in (("so:1,2", 2), ("so0:2,3", 3), ("so0:4,5", 2)):
        group = tag(text)
        bound = milnor_wood_bound(group, g)
        totals = {parameterization(group, d, g).total for d in range(1, bound + 1)}
        assert totals == {half_dimension(group, g)}


def test_parameterization_degree_zero_points_at_retraction():
    with pytest.raises(BoundError) as err:
        parameterization(tag("so:1,2"), 0, 2)
    assert err.value.payload["retraction"] == "Pic^0(X)/Z_2"


def test_parameterization_rejects_labels_out_of_range():
    with pytest.raises(BoundError):
        parameterization(tag("so:1,2"), 5, 2)
    with pytest.raises(BoundError):
        parameterization(tag("so0:2,3"), -1, 2)


def test_parameterization_unsupported_group():
    with pytest.raises(UnsupportedGroupError):
        parameterization(tag("sl:3"), 1, 2)


def test_extra_factor_dimension_frozen():
    assert extra_factor_dimension(Curve(2), 1) == 0
    assert extra_factor_dimension(Curve(2), 2) == 3
    assert extra_factor_dimension(Curve(2), 3) == 10
    assert extra_factor_dimension(Curve(3), 5) == 72


def test_extra_factor_reading_resolution():
    report = resolve_extra_factor_reading(3, 2)
    assert report["needed"] == 10
    assert report["summed_even_powers"] == 10
    assert report["quadratic_copies"] == 6
    assert not report["readings_agree"]
    assert "K^(2j)" in report["adopted"]

    # only at n = 2 do the two readings coincide
    assert resolve_extra_factor_reading(2, 2)["readings_agree"]
    for n in (3, 4, 5):
        assert not resolve_extra_factor_reading(n, 2)["readings_agree"]


# -- censuses -------------------------------------------------------------------

def test_census_special_linear_counts():
    c3 = census(tag("sl:3"), 2)
    assert c3.total_count == 3
    assert labels(c3) == ["sw2=0", "sw2=1", "hitchin"]
    c4 = census(tag("sl:4"), 2)
    assert c4.total_count == 6
    assert labels(c4) == [
        "sw2=0:a", "sw2=0:b", "sw2=1:a", "sw2=1:b", "hitchin:a", "hitchin:b",
    ]
    assert census(tag("sl:5"), 3).total_count == 3
    assert census(tag("sl:6"), 3).total_count == 6


def test_census_rank_one_counts():
    assert labels(census(tag("sl:2"), 2)) == ["d=-1", "d=0", "d=1"]
    assert labels(census(tag("sp:2"), 3)) == ["d=-2", "d=-1", "d=0", "d=1", "d=2"]
    assert labels(census(tag("psl:2"), 2)) == ["e=-2", "e=-1", "e=0", "e=1", "e=2"]
    assert census(tag("so0:1,2"), 3).total_count == 9


def test_census_maximal_symplectic_count():
    c = census(tag("sp:6"), 2, "maximal")
    assert c.total_count == 48
    assert len([l for l in labels(c) if l.endswith(":a")]) == 16
    with pytest.raises(UnsupportedGroupError):
        census(tag("sp:6"), 2)


def test_census_maximal_even_orthogonal_count():
    c = census(tag("so0:2,4"), 2, "maximal")
    assert c.total_count == 32
    assert census(tag("so0:2,5"), 2, "maximal").total_count == 32
    assert census(tag("so0:2,4"), 3, "maximal").total_count == 128


def test_census_maximal_two_three_count():
    c = census(tag("so0:2,3"), 2, "maximal")
    assert c.total_count == 35
    d_labels = [l for l in labels(c) if l.startswith("d=")]
    assert d_labels == ["d=0", "d=1", "d=2", "d=3", "d=4"]
    assert len(labels(c)) - len(d_labels) == 30


def test_census_circle_group():
    c = census(tag("so:1,2"), 2)
    assert c.total_count == 33
    by_label = {comp.label: comp for comp in c.components}
    assert by_label["d=0"].cover_multiplicity == 1
    assert by_label["d=1"].cover_multiplicity == 2
    assert by_label["d=2"].cover_multiplicity == 2
    assert by_label["d=2"].hitchin
    # doubled nonzero labels plus the fixed one cover the torus quotient
    assert sum(c.cover_multiplicity or 0 for c in c.components if c.label.startswith("d=")) == 5


def test_census_split_odd_orthogonal_is_incomplete():
    c = census(tag("so0:3,4"), 2)
    assert not c.complete
    assert c.total_count is None
    assert [comp.label for comp in c.components] == [
        "d=0", "d=1", "d=2", "d=3", "d=4", "d=5", "d=6",
    ]
    by_label = {comp.label: comp for comp in c.components}
    assert by_label["d=0"].remark_level
    assert by_label["d=6"].hitchin


def test_census_component_dimensions_match():
    for text, g, sector in (
        ("so:1,2", 2, "all"),
        ("so0:2,3", 2, "maximal"),
        ("sl:3", 2, "all"),
        ("sp:6", 2, "maximal"),
    ):
        report = dimension_consistency(tag(text), g, sector)
        assert report["mismatches"] == []


def test_census_unknown_sector():
    with pytest.raises(UnsupportedGroupError):
        census(tag("sl:3"), 2, "sideways")


# -- frozen documents ------------------------------------------------------------

# Every census branch, plus groups with no census or no bound; each is asked
# for a census and a dimension report at genus 2-4 in both sectors.
FROZEN_GROUPS = (
    "sl:2", "sl:3", "sl:4", "psl:2", "psl:3", "sp:2", "sp:4", "sp:6", "sp:8",
    "so:1,2", "so:2,3", "so0:1,2", "so0:2,3", "so0:2,4", "so0:2,5", "so0:3,3",
    "so0:3,4", "so0:4,5",
)


def census_documents(text):
    """One line per (genus, sector, question): the document's canonical
    JSON, or the refusal's class and code."""
    lines = []
    for genus in (2, 3, 4):
        for sector in ("all", "maximal"):
            for ask in (lambda: census(tag(text), genus, sector).to_dict(),
                        lambda: dimension_consistency(tag(text), genus, sector)):
                try:
                    lines.append(json.dumps(ask(), sort_keys=True))
                except HiggsAtlasError as exc:
                    lines.append(f"{type(exc).__name__}:{exc.code}")
    return lines


# sha256 of census_documents(group), one document per line
CENSUS_DIGESTS = {
    "sl:2": "ae40da6a9a88cad94accc515f18fe66c555259ee52b4cdd11f4a2d157be2a9cc",
    "sl:3": "8fc905dbe649a6aba53e997bc935d3f8cac2def392725ba0b6af90d77b6f530c",
    "sl:4": "74aa56a40acec1887e0afddc1efa3ddea82a47ccb1f86b7cef776f6cc9c78a8a",
    "psl:2": "249536b100992c3e3d6aa1f3e74f98e934e3beca6908e738a9f88d8497b6107f",
    "psl:3": "639cb2f4569c16f5caa056654871cd37745b7b54282dceba71fd8e80e6d6c121",
    "sp:2": "2b68b153c72a8e8d26d87b49cb2f3a5215a435c3fd25ede1807bc7e79f257863",
    "sp:4": "639cb2f4569c16f5caa056654871cd37745b7b54282dceba71fd8e80e6d6c121",
    "sp:6": "ac9337aa1cb7a5a297bdffc8159082eb44047cee95279ece4ee14824e80761de",
    "sp:8": "0bd61b6e54ea570247541b587242e27150c6ac17d511153af24b3af788f80ea4",
    "so:1,2": "3785c91a2008070386364c7bd977eae53537bfc003204056b8bb486630ccafa3",
    "so:2,3": "639cb2f4569c16f5caa056654871cd37745b7b54282dceba71fd8e80e6d6c121",
    "so0:1,2": "e24302e34b68c4e537b0090110385521427edac6974fb81ce40547c9b30dee70",
    "so0:2,3": "31a4f2460e87645629184c2f3ab41e995744ec9db22aff3c5a0bb006bc9716a1",
    "so0:2,4": "ca32152c046e9ae43f0a495d16b4c30460cc58acb54de16c0757c771544ac0e8",
    "so0:2,5": "08b6c651ffcde0452cca8585131078ad0926ff17d8317ca1c182e142a4e8adab",
    "so0:3,3": "639cb2f4569c16f5caa056654871cd37745b7b54282dceba71fd8e80e6d6c121",
    "so0:3,4": "07a0e70d5176912feec5a086740db3de17d6adae3b7a2c96c80f4f568d655266",
    "so0:4,5": "9fe6fabc52fc3f9479530e5ab95d4d0b06582dfc5560579a5bbc5c0ba67cc8d1",
}


@pytest.mark.parametrize("text", FROZEN_GROUPS)
def test_census_and_dimension_documents_are_frozen(text):
    lines = census_documents(text)
    assert len(lines) == 12
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CENSUS_DIGESTS[text]
