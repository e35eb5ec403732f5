"""Value types: each behaves as the frozen dataclass it was.

The dataclass twins in ``helpers`` (``OLD_VALUE_TYPES``) are the oracle.
Every value type takes the same arguments with the same defaults, refuses
the same arguments with the same error, compares, hashes and prints as its
twin does, and refuses assignment and deletion.
"""

from __future__ import annotations

import copy
import inspect
import itertools
import pickle
from dataclasses import fields

import pytest

from higgs_atlas import (
    EXACT,
    GENERIC,
    Census,
    CheckResult,
    ComponentDescriptor,
    Curve,
    DolbeaultTerm,
    DoubleCover,
    ExponentRow,
    F2Class,
    GradedHiggsBundle,
    GroupTag,
    HiggsAtlasError,
    HiggsEntry,
    InvariantSubobject,
    LimitResult,
    LineBundleExpr,
    NDescriptor,
    Parameterization,
    PrymW0,
    SectionCount,
    SectionSymbol,
    SplitW0,
    StabilityVerdict,
    Summand,
    SurjectivityReport,
    SWPair,
    TrivialW0,
    WeightAssignment,
    build_extension_deformed_so35,
    census,
    check_polystability,
    graded_limit,
    h0,
    limit_destabilized_branch,
    parameterization,
    run_checks,
    search_admissible_weights,
    sw_surjectivity_witnesses,
    zero_weights,
)
from higgs_atlas.errors import _Value
from helpers import OLD_VALUE_TYPES, as_old, builder_corpus, every_builder_output

_A1 = F2Class(2, 5)
_EXPR = LineBundleExpr(1, ("s",), ("I",), (("M", -1),), (("D", 2),))
_SYMBOL = SectionSymbol("q2", "named", "generically-nonzero")
_ROWS = (ExponentRow("higgs", 1, 0, "q2", 0),)
_H = every_builder_output(Curve(2))[0]
_PARAM = Parameterization(1, 2, 3)
_COMPONENT = ComponentDescriptor(GroupTag("sl", (3,)), "d=1", 16, _PARAM, "r", 2, True, True)

# a valid instance of every value type, as positional arguments for all its fields
SAMPLES = {
    F2Class: (2, 9),
    SWPair: (_A1, 1),
    GroupTag: ("so0", (2, 3)),
    Curve: (3,),
    SectionCount: (4, EXACT),
    LineBundleExpr: (_EXPR.k_power, _EXPR.spins, _EXPR.torsions, _EXPR.variables,
                     _EXPR.divisors),
    SurjectivityReport: (2, 1, ((SWPair(_A1, 0), (_A1,)),), (SWPair(_A1, 1),)),
    DoubleCover: (Curve(2), _A1),
    SectionSymbol: ("q2", "named", "generically-nonzero"),
    Summand: ("W", _EXPR, 2, SWPair(_A1, 1)),
    HiggsEntry: (1, 0, _SYMBOL),
    DolbeaultTerm: (2, 1, "beta"),
    SplitW0: (2, False, False),
    PrymW0: (_A1, 1),
    TrivialW0: (),
    InvariantSubobject: ((0, 2), 3),
    StabilityVerdict: (InvariantSubobject((0,), 2), None),
    WeightAssignment: ((1, 0, -1), 2),
    ExponentRow: ("dolbeault", 3, 1, "beta", -2),
    LimitResult: ("to-zero", WeightAssignment((0,) * len(_H.summands)), _ROWS, _H, _H,
                  StabilityVerdict(None, ((0, 1),))),
    NDescriptor: (2, False),
    Parameterization: (1, 2, 3),
    ComponentDescriptor: (GroupTag("sl", (3,)), "d=1", 16, _PARAM, "r", 2, True, True),
    Census: (GroupTag("sl", (3,)), 2, "all", (_COMPONENT,), True, "a note"),
    CheckResult: ("riemann-roch-chi", True, "ok"),
}
_TYPES = {cls.__name__: cls for cls in SAMPLES}

# every check a value type made in __post_init__ as a dataclass, and a
# wrong-typed argument that fails inside one
REFUSALS = [
    (F2Class, (1, 0)),
    (F2Class, (2, -1)),
    (F2Class, (2, 16)),
    (F2Class, (None, 0)),
    (SWPair, (_A1, 2)),
    (GroupTag, ("gl", (3,))),
    (GroupTag, ("sl", ())),
    (GroupTag, ("so0", (0, 3))),
    (GroupTag, ("sl", (3, 3))),
    (GroupTag, ("psl", (1,))),
    (GroupTag, ("sp", (3,))),
    (GroupTag, ("so0", (3,))),
    (Curve, (1,)),
    (Curve, (2.0,)),
    (Curve, ("2",)),
    (SectionCount, (1, "maybe")),
    (SectionCount, (-1, GENERIC)),
    (DoubleCover, (Curve(3), _A1)),
    (DoubleCover, (Curve(2), F2Class(2, 0))),
    (SectionSymbol, ("q", "zero", "generically-nonzero")),
    (SectionSymbol, ("q", "named", "sometimes")),
    (SectionSymbol, ("1", "unit", "generically-nonzero")),
    (Summand, ("U", _EXPR)),
    (Summand, ("V", _EXPR, 0)),
    (PrymW0, (F2Class(2, 0), 1)),
    (SectionSymbol, ("1", "named", "generically-nonzero")),
    (SectionSymbol, ("one", "unit", "nowhere-vanishing")),
    (StabilityVerdict, (InvariantSubobject((0,), 2), ((0,), (1, 2)))),
    (StabilityVerdict, (None, None)),
]


def _signature(cls) -> list:
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


def _walk(value):
    """Every value object in ``value``, at any depth, parents first."""
    if isinstance(value, _Value):
        yield value
        for name in value.__slots__:
            yield from _walk(getattr(value, name))
    elif isinstance(value, tuple):
        for v in value:
            yield from _walk(v)
    elif isinstance(value, GradedHiggsBundle):
        for f in fields(value):
            yield from _walk(getattr(value, f.name))


def _answers(objects) -> list:
    """The builder outputs with the value objects the package derives from them."""
    out = list(objects)
    for h in objects:
        try:
            out.append(check_polystability(h))
        except HiggsAtlasError:
            pass
        out.append(graded_limit(h, zero_weights(h), with_stability=True))
        if len(h.summands) <= 5:
            out.extend(res for _, res in search_admissible_weights(h, 1))
    return out


def _library_answers() -> list:
    deformed = build_extension_deformed_so35(Curve(2), 3)
    return [
        census(GroupTag("so0", (3, 4)), 2),
        census(GroupTag("so0", (2, 4)), 2, "maximal"),
        parameterization(GroupTag("so0", (2, 3)), 2, 2),
        sw_surjectivity_witnesses(2, 2),
        h0(Curve(2), _EXPR.power(0)),
        h0(Curve(3), LineBundleExpr(0, (), (), (("M", 1),)), {"M": 3}),
        DoubleCover(Curve(2), _A1),
        limit_destabilized_branch(deformed, NDescriptor(1)),
        *run_checks(["riemann-roch-chi", "cup-alternating"]),
        # builder and limit arguments, which no answer holds
        SplitW0(2), SplitW0(2, mu=False), SplitW0(-1, True, False), PrymW0(_A1, 1),
        PrymW0(F2Class(2, 6), 0), TrivialW0(), NDescriptor(1), NDescriptor(1, False),
    ]


def test_every_value_type_has_a_twin_and_a_sample():
    assert {cls.__name__ for cls in _Value.__subclasses__()} == set(OLD_VALUE_TYPES)
    assert set(_TYPES) == set(OLD_VALUE_TYPES)


@pytest.mark.parametrize("name", sorted(OLD_VALUE_TYPES))
def test_signature_order_and_defaults_are_the_dataclass_ones(name):
    assert _signature(_TYPES[name]) == _signature(OLD_VALUE_TYPES[name])


@pytest.mark.parametrize("name", sorted(OLD_VALUE_TYPES))
def test_positional_keyword_and_default_construction(name):
    cls, twin = _TYPES[name], OLD_VALUE_TYPES[name]
    args = SAMPLES[cls]
    names = [f.name for f in fields(twin)]
    value = cls(*args)
    assert [getattr(value, n) for n in names] == list(args)
    assert cls(**dict(zip(names, args))) == value
    assert repr(value) == repr(twin(*args))
    assert hash(value) == hash(twin(*args))
    required = [p for p in inspect.signature(cls).parameters.values()
                if p.default is inspect.Parameter.empty]
    bare = args[:len(required)]
    assert repr(cls(*bare)) == repr(twin(*bare))


@pytest.mark.parametrize("cls, args", [
    pytest.param(cls, args, id=f"{cls.__name__}-{i}") for i, (cls, args) in enumerate(REFUSALS)
])
def test_every_former_post_init_refusal_is_kept(cls, args):
    with pytest.raises(Exception) as new:
        cls(*args)
    with pytest.raises(Exception) as old:
        OLD_VALUE_TYPES[cls.__name__](*args)
    assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))


@pytest.mark.parametrize("name", sorted(OLD_VALUE_TYPES))
def test_fields_cannot_be_assigned_or_deleted(name):
    cls = _TYPES[name]
    value = cls(*SAMPLES[cls])
    before = repr(value)
    for field in [*value.__slots__, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == before
    assert copy.copy(value) == value and copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_eq_hash_and_repr_agree_with_the_twins():
    first = every_builder_output(Curve(2)) + every_builder_output(Curve(3))
    first += builder_corpus(5, 40)
    # built again: equal objects that are not the same objects
    second = every_builder_output(Curve(2)) + every_builder_output(Curve(3))
    second += builder_corpus(5, 40)
    a = _answers(first) + _library_answers()
    b = _answers(second) + _library_answers()
    old_a, old_b = [as_old(x) for x in a], [as_old(x) for x in b]
    for x, old in zip(a, old_a):
        assert repr(x) == repr(old)
        assert hash(x) == hash(old)
        # a value object is never equal to its twin, nor an object to its copy with twins
        assert x != old
    assert a == b and old_a == old_b
    for i, j in itertools.product(range(len(a)), (0, 1, 7, 31)):
        j = (i + j) % len(b)
        assert (a[i] == b[j]) == (old_a[i] == old_b[j])

    # every distinct value object inside them, against its equal from the
    # second build and the next few of its type in repr order, where the
    # values differing in one late field sit
    by_type: dict[type, tuple[dict, dict]] = {}
    for side, answers in enumerate((a, b)):
        seen = {id(x): x for x in itertools.chain.from_iterable(_walk(v) for v in answers)}
        for x in seen.values():
            distinct = by_type.setdefault(type(x), ({}, {}))[side]
            if (key := repr(x)) not in distinct:
                distinct[key] = x, as_old(x)
    assert set(t.__name__ for t in by_type) == set(OLD_VALUE_TYPES)
    for left, right in by_type.values():
        assert set(left) == set(right)
        keys = sorted(left)
        for i, key in enumerate(keys):
            x, ox = left[key]
            assert (repr(ox), hash(x)) == (key, hash(ox))
            assert x.__eq__(ox) is NotImplemented
            for y, oy in (right[other] for other in keys[i:i + 6]):
                assert (x == y, x != y) == (ox == oy, ox != oy)
