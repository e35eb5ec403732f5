"""Graded scaling limits: exponent tables, limit objects, and the fixed
degenerations of the extension-deformed family."""

from __future__ import annotations

import hashlib
import json

import pytest
from dataclasses import replace

from higgs_atlas import (
    BoundError,
    ContradictionError,
    Curve,
    DEFORMED_SO35_RETRACTION,
    DEFORMED_SO35_STABLE_BRANCH,
    DIRECTION_TO_INFINITY,
    DIRECTION_TO_ZERO,
    DimensionMismatchError,
    HiggsAtlasError,
    NDescriptor,
    ParityViolationError,
    PreconditionError,
    WeightAssignment,
    WrongGroupError,
    build_extension_deformed_so35,
    build_hitchin_sl,
    build_maximal_so23,
    build_so12,
    bundle_from_dict,
    bundle_to_dict,
    exponent_table,
    graded_limit,
    limit_destabilized_branch,
    search_admissible_weights,
    validate,
    zero_weights,
)
from helpers import every_builder_output, expression_validate, set_selected_limit

C2 = Curve(2)


def entry_pairs(h):
    return {(e.target, e.source) for e in h.higgs}


def test_weights_must_match_length_and_pairing():
    h = build_so12(C2, 0)
    with pytest.raises(DimensionMismatchError):
        WeightAssignment((0, 1)).validate_against(h)
    with pytest.raises(PreconditionError):
        WeightAssignment((1, 0, 0)).validate_against(h)
    with pytest.raises(PreconditionError):
        WeightAssignment((0, 1, 1)).validate_against(h)
    WeightAssignment((0, 1, -1)).validate_against(h)


def test_exponent_table_frozen_for_circle_family():
    h = build_so12(C2, 0)
    table = exponent_table(h, WeightAssignment((0, 1, -1)))
    by_key = {(r.target, r.source, r.name): r.exponent for r in table.rows}
    assert by_key == {
        (0, 1, "mu"): 0,
        (2, 0, "mu"): 0,
        (0, 2, "nu"): 2,
        (1, 0, "nu"): 2,
    }
    assert table.all_nonnegative
    assert min(r.exponent for r in table.rows) == 0


def test_direction_flips_exponent_signs():
    h = build_so12(C2, 0)
    w = WeightAssignment((0, 1, -1))
    fwd = exponent_table(h, w, "to-zero")
    bwd = exponent_table(h, w, "to-infinity")
    assert [r.exponent for r in bwd.rows] == [-r.exponent for r in fwd.rows]
    with pytest.raises(PreconditionError):
        exponent_table(h, w, "sideways")


def test_zero_weight_limit_retracts_to_zero_field():
    h = build_so12(C2, 0)
    res = graded_limit(h, zero_weights(h))
    assert res.exists
    assert res.limit == replace(h, higgs=(), dolbeault=())
    assert res.limit is not None and len(res.limit.higgs) == 0


def test_zero_weight_limit_away_from_zero_does_not_exist():
    h = build_so12(C2, 0)
    res = graded_limit(h, zero_weights(h), "to-infinity")
    assert not res.exists
    assert res.limit is None


def test_limit_keeps_exactly_exponent_zero_entries():
    h = build_so12(C2, 0)
    res = graded_limit(h, WeightAssignment((0, 1, -1)))
    assert res.exists
    assert entry_pairs(res.limit) == {(0, 1), (2, 0)}
    validate(replace(res.limit))


def test_limit_with_stability_verdict():
    h = build_so12(C2, 0)
    res = graded_limit(h, WeightAssignment((0, 1, -1)), with_stability=True)
    assert res.limit_stability is not None
    assert res.limit_stability.status == "unstable"


def test_deformed_family_pure_field_limit_at_infinity():
    h = build_extension_deformed_so35(C2, 2)
    res = graded_limit(h, DEFORMED_SO35_RETRACTION, "to-infinity")
    assert res.exists
    assert res.limit == replace(h, dolbeault=())
    assert len(res.limit.higgs) == len(h.higgs) == 6


def test_deformed_family_retraction_weights_fail_toward_zero():
    h = build_extension_deformed_so35(C2, 2)
    res = graded_limit(h, DEFORMED_SO35_RETRACTION, "to-zero")
    assert not res.exists


def test_deformed_family_stable_branch_limit():
    h = build_extension_deformed_so35(C2, 2)
    res = graded_limit(h, DEFORMED_SO35_STABLE_BRANCH, with_stability=True)
    assert res.exists
    assert entry_pairs(res.limit) == {(1, 4), (2, 5), (4, 0), (5, 1)}
    assert len(res.limit.dolbeault) == 2
    assert res.limit_stability.status == "polystable"
    assert res.limit_stability.decomposition == ((0, 1, 2, 4, 5), (3, 6, 7))


def test_destabilized_branch_limit():
    h = build_extension_deformed_so35(C2, 2)
    res = limit_destabilized_branch(h, NDescriptor(degree=2))
    assert res.exists
    limit = res.limit
    assert limit is not None
    assert entry_pairs(limit) == {(1, 4), (2, 5), (4, 0), (5, 1), (6, 2), (0, 3)}
    assert not limit.dolbeault
    assert limit.declared_map["N"] == 2
    names = {e.symbol.name for e in limit.higgs}
    assert names == {"1", "alpha"}
    validate(replace(limit))


def test_destabilized_branch_enforces_parity():
    h = build_extension_deformed_so35(C2, 2)
    with pytest.raises(ParityViolationError):
        limit_destabilized_branch(h, NDescriptor(degree=1))


def test_destabilized_branch_enforces_bounds():
    h = build_extension_deformed_so35(C2, 2)
    with pytest.raises(BoundError):
        limit_destabilized_branch(h, NDescriptor(degree=0))
    with pytest.raises(BoundError):
        limit_destabilized_branch(h, NDescriptor(degree=8))


def test_destabilized_branch_needs_nonzero_alpha():
    h = build_extension_deformed_so35(C2, 2)
    with pytest.raises(ContradictionError):
        limit_destabilized_branch(h, NDescriptor(degree=2, alpha_nonzero=False))


def test_destabilized_branch_rejects_other_families():
    with pytest.raises(WrongGroupError):
        limit_destabilized_branch(build_maximal_so23(C2, 2), NDescriptor(degree=2))


@pytest.mark.parametrize("label", ["1_0", "1_1", "³"])
def test_destabilized_branch_refuses_a_non_integer_label(label):
    doc = bundle_to_dict(build_extension_deformed_so35(C2, 1))
    doc["meta"]["d"] = label
    with pytest.raises(PreconditionError):
        limit_destabilized_branch(bundle_from_dict(doc), NDescriptor(degree=1))


def test_search_finds_the_three_circle_limits():
    h = build_so12(C2, 0)
    found = search_admissible_weights(h, 1)
    assert len(found) == 3
    vectors = [w.weights for w, _ in found]
    assert vectors == [(0, -1, 1), (0, 0, 0), (0, 1, -1)]
    kinds = [entry_pairs(res.limit) for _, res in found]
    assert kinds == [{(0, 2), (1, 0)}, set(), {(0, 1), (2, 0)}]


def test_search_respects_budget(monkeypatch):
    from higgs_atlas import BudgetError

    h = build_extension_deformed_so35(C2, 2)
    monkeypatch.setenv("HIGGS_ATLAS_BUDGET", "2")
    with pytest.raises(BudgetError):
        search_admissible_weights(h, 3)


def test_limits_of_chain_objects_stay_valid():
    h = build_hitchin_sl(C2, 3)
    for w, res in search_admissible_weights(h, 2):
        assert res.exists
        validate(replace(res.limit))


def _limit_weights(h):
    """The weight vectors to take limits of ``h`` under: zero weights at
    scale 1 and 0, and the two fixed vectors where they fit the pairing."""
    vectors = [zero_weights(h), zero_weights(h, 0)]
    for w in (DEFORMED_SO35_RETRACTION, DEFORMED_SO35_STABLE_BRANCH):
        if len(w.weights) == len(h.summands) and all(
            w.weights[i] == -w.weights[j] for i, j in enumerate(h.sigma)
        ):
            vectors.append(w)
    return vectors


def test_a_limit_of_a_marked_object_is_marked_with_its_degrees():
    objects = every_builder_output(Curve(2)) + every_builder_output(Curve(3))
    seen = {"limits": 0, "with_terms": 0}
    for h in objects:
        assert h._degrees is not None
        cases = []
        for direction in (DIRECTION_TO_ZERO, DIRECTION_TO_INFINITY):
            cases += [(w, direction) for w in _limit_weights(h)]
            if len(h.summands) <= 10:
                cases += [(w, direction) for w, _ in search_admissible_weights(h, 1, direction)]
        for w, direction in cases:
            res = graded_limit(h, w, direction)
            if not res.exists:
                continue
            limit = res.limit
            declared = limit.declared_map
            fresh = tuple(s.bundle.resolved_degree(h.genus, declared) for s in limit.summands)
            assert limit._degrees == fresh == h._degrees, (h, w)
            assert (limit.higgs, limit.dolbeault) == set_selected_limit(h, w, direction), (h, w)
            assert limit._with(higgs=h.higgs, dolbeault=h.dolbeault) == h
            # the mark vouches for a limit the full check passes
            assert expression_validate(limit._with()) is None, (h, w)
            # an unmarked source gives an unmarked limit, with the same entries
            plain = graded_limit(h._with(), w, direction).limit
            assert plain == limit and plain._degrees is None
            seen["limits"] += 1
            seen["with_terms"] += bool(limit.dolbeault)
    assert seen["limits"] >= 1000 and seen["with_terms"] >= 20, seen


def branch_documents(genus):
    """One line per label d = 1..3(2g-2) of the deformed family and line
    degree 0..3(2g-2)+1: the branch limit's canonical JSON, or the
    refusal's class and code."""
    bound = 3 * (2 * genus - 2)
    lines = []
    for d in range(1, bound + 1):
        h = build_extension_deformed_so35(Curve(genus), d)
        for degree in range(bound + 2):
            try:
                doc = limit_destabilized_branch(h, NDescriptor(degree)).to_dict()
                lines.append(json.dumps(doc, sort_keys=True))
            except HiggsAtlasError as exc:
                lines.append(f"{type(exc).__name__}:{exc.code}")
    return lines


# sha256 of branch_documents(genus), one document per line
BRANCH_DIGESTS = {
    2: "cd74d19442ef0a51b6c39a53c466a501c0dfd2589ac67ff6da7b5227c466f8a4",
    3: "313bb6f3a166e4ac3e3ab3601a3ecf464699e6997ddecdc5d8d8d590e3893397",
}


@pytest.mark.parametrize("genus", sorted(BRANCH_DIGESTS))
def test_destabilized_branch_documents_are_frozen(genus):
    lines = branch_documents(genus)
    assert len(lines) == 3 * (2 * genus - 2) * (3 * (2 * genus - 2) + 2)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BRANCH_DIGESTS[genus]
