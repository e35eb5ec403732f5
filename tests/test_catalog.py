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
from higgs_atlas.catalog import _twist_rank


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


# The tags on either side of each family rule, beyond FROZEN_GROUPS.
KIND_BOUNDARY_GROUPS = (
    "sl:5", "slc:3", "sp:10", "so0:1,1", "so0:1,3", "so0:2,1", "so0:2,2", "so0:2,9",
    "so0:3,5", "so0:3,6", "so0:5,6",
)


# GroupTag.kind of every tag above, read off its family and parameters
FROZEN_KINDS = {
    "sl:2": "sl:2", "sl:3": "sl", "sl:4": "sl", "psl:2": "psl:2", "psl:3": "psl",
    "sp:2": "sp:2", "sp:4": "sp:4", "sp:6": "sp", "sp:8": "sp", "so:1,2": "so:1,2",
    "so:2,3": "so", "so0:1,2": "so0:1,2", "so0:2,3": "so0:2,3", "so0:2,4": "hermitian",
    "so0:2,5": "hermitian", "so0:3,3": "so0:n,n", "so0:3,4": "split", "so0:4,5": "split",
    "sl:5": "sl", "slc:3": "slc", "sp:10": "sp", "so0:1,1": "so0:n,n", "so0:1,3": "so0",
    "so0:2,1": "so0", "so0:2,2": "so0:n,n", "so0:2,9": "hermitian", "so0:3,5": "so0:3,5",
    "so0:3,6": "so0", "so0:5,6": "split",
}


def test_each_tag_kind_is_frozen_and_not_stored():
    assert list(FROZEN_KINDS) == [*FROZEN_GROUPS, *KIND_BOUNDARY_GROUPS]
    assert {text: tag(text).kind for text in FROZEN_KINDS} == FROZEN_KINDS
    assert GroupTag.__slots__ == ("family", "params")
    assert all(not hasattr(cls, "kind") for cls in GroupTag.__mro__ if cls is not GroupTag)


def _answer(ask) -> str:
    """The canonical JSON of ``ask()``, or the refusal's class and message."""
    try:
        return json.dumps(ask(), sort_keys=True)
    except HiggsAtlasError as exc:
        return f"{type(exc).__name__}: {exc}"


def label_documents(text):
    """One line per question: the bound at genus 2-4, the twist rank, and the
    parameterization at genus 2-3 for every d from -1 to bound + 1 (to 2
    where no bound is recorded)."""
    group = tag(text)
    lines = [_answer(lambda: milnor_wood_bound(group, g)) for g in (2, 3, 4)]
    lines.append(_answer(lambda: _twist_rank(group)))
    for genus in (2, 3):
        try:
            top = milnor_wood_bound(group, genus) + 1
        except UnsupportedGroupError:
            top = 2
        lines += [_answer(lambda: parameterization(group, d, genus).to_dict())
                  for d in range(-1, top + 1)]
    return lines


# sha256 of label_documents(group), one answer per line
LABEL_DIGESTS = {
    "sl:2": "e7958a7be1899f78af6e1eb3514d03284fa4e625d5c9e03cf8baa01c77e0063a",
    "sl:3": "a2e108c4bcb0889ef75824edeb477743e3f31bd7c37ce31e5595d3cfd55e627b",
    "sl:4": "f992ce5dded7b419bbad2864a0b0a84a4b1904847dacc1b4c6dd0f76393b8582",
    # psl:2 answers as so0:1,2 with the tag renamed (was 120622680e07..., refused)
    "psl:2": "b95873f804a7936a619fddaeffbe51b5e2cddcb042d93a34468347411043e6d7",
    "psl:3": "9426446f96d342df2be6f2bb1abdd78277588d6b66c246975c2c106bcf6e7b5e",
    "sp:2": "73f601f04fffc209e53e22469a6c19c45c37729a84991ca90a723915d5c44425",
    "sp:4": "6d2762a3cc9a884612342cc80be4df37fee49702afdf7d937c3b436cdcf190b9",
    "sp:6": "8a8a7542c6288b2933f959344f8cd34562e5fb220b5fc4277094346f0acf57f8",
    "sp:8": "c06f35c0b887d265ce22d41ad2c6ff812219242249fb105029d34aa694dcfdd1",
    "so:1,2": "095c4ee68e7478a03823ceabd1f46a15fdd4e365f203913d79cee2c2cf82da8c",
    "so:2,3": "0f2b537a163c349b10295307ad904e074e0b4babf4aed538498508faa18cbf38",
    "so0:1,2": "b7f9733fdbc2c93646453b00be810643ca215c6cab71f72e6161f0df85fea920",
    "so0:2,3": "95361aa54995ef6929b15a9dcb3d5e43bcf4a5dcfd5733f02281134ec09bb073",
    "so0:2,4": "a11369eebf8a7cf4b95235301b29874aeae920f1fb587fd0557bdc7941c59189",
    "so0:2,5": "69751b9ef6cbc44424853cdb326dd24fe813651ac6c9a3286a2731f2378c77ef",
    "so0:3,3": "f98dbfc6495dc24331791f1d7950c16ea9ae3851c6a3d5281eaa327383694b12",
    "so0:3,4": "7501e79c6f61be6c80d58cf9ec8023ea6eaa95b273c78dd76f9c135c09f7c2a0",
    "so0:4,5": "26828f077cd35bdd266ed60506dbc2d8bcdf41778b57f4febaff479664d6dc0f",
    "sl:5": "427a9ea2133f36be91cd61d2020cdc590338027fa111f03f821a7b270fa6e13a",
    "slc:3": "26954eaadb874ab6945b576950a0cd718affa83036cff15a2f7a3bdf9bc96430",
    "sp:10": "75e7413333bb852cae457a05377977ab63814427483ff73bd48636ab9a66d415",
    "so0:1,1": "978c27dd81972e86e2150ad6529bcdf9e2ce87e67ed0094e64e7b377b8f046d8",
    "so0:1,3": "38191f724045e330c10d52abb5d02d428a45ee6b0306ef63efb97a22d4cc5eb4",
    "so0:2,1": "c05b69295ce2f537b84722fa499fecbee0537063801302f3835b789ba664e23a",
    "so0:2,2": "cf02ef6d065ddd29f50ae6c77cdad65d2b46355dc6188d6387c9b84acc4ce7e6",
    "so0:2,9": "a1edbee8dccd656b0de121032c7501eb9b01eee5e7a59c14fbd6397f89b8e4a3",
    "so0:3,5": "a8f7cc49decaa1641be9703e5a96ec21be1998019f21cd617e5f673fc43fc0b8",
    "so0:3,6": "2ee19902bf38c2d0550bbd61026029e8e7a9f7ee81fbf5116797c9240149266e",
    "so0:5,6": "3a58e99b409d1fc6b48c10c1648400798054065e0b28120f9b9e33c06da147f8",
}


@pytest.mark.parametrize("text", FROZEN_GROUPS + KIND_BOUNDARY_GROUPS)
def test_label_ranges_and_parameterizations_are_frozen(text):
    lines = label_documents(text)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LABEL_DIGESTS[text]
