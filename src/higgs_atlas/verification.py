"""Named internal consistency checks, runnable from the command line.

Each check is a small executable statement of an invariant the package
relies on.  They overlap the test suite on purpose: the suite freezes
expected values, while this registry lets an installed copy revalidate
itself without the test harness present.

Each check imports the modules it runs, so ``verify --only`` loads only
those of the named checks and ``verify --list`` none of them.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

from .errors import HiggsAtlasError, _Value


class CheckResult(_Value):
    """The outcome of one named consistency check."""

    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


_CHECKS: list[tuple[str, Callable[[], str]]] = []


def _register(name: str):
    def wrap(fn: Callable[[], str]):
        _CHECKS.append((name, fn))
        return fn

    return wrap


def _sample_builders(genus: int = 2):
    from .builders import (
        SplitW0, build_exotic_so, build_extension_deformed_so35, build_fuchsian, build_hitchin_sl,
        build_hitchin_so, build_hitchin_so_nn, build_hitchin_sp, build_maximal_so23,
        build_maximal_so2n, build_so12, build_twisted_fuchsian_sp,
    )
    from .curve import Curve
    from .f2classes import F2Class

    curve = Curve(genus)
    g = genus
    yield build_fuchsian(curve)
    yield build_hitchin_sl(curve, 3, (2, 3))
    yield build_hitchin_sl(curve, 4, (2,), spin_name="s")
    yield build_hitchin_so(curve, 2, (2, 4))
    yield build_hitchin_so(curve, 3)
    yield build_hitchin_sp(curve, 2, (2,))
    yield build_hitchin_so_nn(curve, 2, (2,), pfaffian=True)
    yield build_so12(curve, 1)
    yield build_so12(curve, 2 * g - 2, nu=False)
    yield build_maximal_so23(curve, 3)
    yield build_exotic_so(curve, 2, 2, nu=True, q_on=(2,))
    yield build_exotic_so(curve, 3, 5)
    yield build_maximal_so2n(curve, 4, SplitW0(2))
    yield build_twisted_fuchsian_sp(
        curve, [F2Class.zero(g), F2Class.basis_a(g, 0)]
    )
    yield build_extension_deformed_so35(curve, 3)


@_register("riemann-roch-chi")
def _check_chi() -> str:
    from .curve import Curve, riemann_roch_chi

    for g in range(2, 7):
        c = Curve(g)
        for deg in range(-6, 7):
            if riemann_roch_chi(c, deg) != deg - g + 1:
                raise AssertionError(f"chi broken at g={g}, deg={deg}")
    return "chi = deg - g + 1 over g in [2,6], deg in [-6,6]"


@_register("h0-decision-table")
def _check_h0() -> str:
    from .curve import EXACT, Curve, h0
    from .linebundle import K_power

    c = Curve(2)
    cases = [
        (K_power(1), 2, EXACT),
        (K_power(2), 3, EXACT),
        (K_power(3), 5, EXACT),
        (K_power(0), 1, EXACT),
        (K_power(-1), 0, EXACT),
    ]
    for expr, want, wanted_exactness in cases:
        got = h0(c, expr)
        if got.value != want or got.exactness != wanted_exactness:
            raise AssertionError(f"h0({expr.serialize()}) = {got}")
    return "canonical powers and negatives at genus 2"


@_register("h0-canonical-powers")
def _check_h0_powers() -> str:
    from .curve import Curve, h0
    from .linebundle import K_power

    for g in range(2, 6):
        c = Curve(g)
        for j in range(2, 6):
            if h0(c, K_power(j)).value != (2 * j - 1) * (g - 1):
                raise AssertionError(f"h0(K^{j}) wrong at genus {g}")
    return "h0(K^j) = (2j-1)(g-1) for j in [2,5], g in [2,5]"


@_register("linebundle-round-trip")
def _check_serialize() -> str:
    from .linebundle import K_power, parse_expr, spin, torsion, variable

    exprs = [
        K_power(2).tensor(variable("M", -1)).tensor(torsion("I")),
        spin("s").tensor(K_power(-1)),
        variable("M", 3).tensor(variable("L", -2)),
    ]
    kinds = {"M": "variable", "L": "variable", "I": "torsion", "s": "spin"}
    for e in exprs:
        if parse_expr(e.serialize(), kinds) != e:
            raise AssertionError(f"round trip failed for {e.serialize()}")
    return f"{len(exprs)} expressions round-trip through parse"


@_register("spin-square-is-canonical")
def _check_spin_square() -> str:
    from .linebundle import K_power, spin, torsion

    if spin("s").power(2) != K_power(1):
        raise AssertionError("s^2 != K")
    if not torsion("I").power(2).is_trivial():
        raise AssertionError("I^2 != O")
    return "s^2 = K and I^2 = O under normalization"


@_register("cup-alternating")
def _check_cup_alternating() -> str:
    from .f2classes import F2Class, cup

    rng = random.Random(7)
    for _ in range(50):
        g = rng.choice([2, 3])
        x = F2Class.from_int(g, rng.randrange(1 << (2 * g)))
        if cup(x, x) != 0:
            raise AssertionError(f"cup(x,x) != 0 for {x.bits()}")
    return "cup(x, x) = 0 on 50 random classes"


@_register("cup-symplectic-basis")
def _check_cup_basis() -> str:
    from .f2classes import F2Class, cup

    g = 3
    for i in range(g):
        for j in range(g):
            a_i, b_j = F2Class.basis_a(g, i), F2Class.basis_b(g, j)
            if cup(a_i, b_j) != (1 if i == j else 0):
                raise AssertionError("basis pairing broken")
            if cup(a_i, F2Class.basis_a(g, j)) != 0:
                raise AssertionError("a-a pairing should vanish")
    return "basis pairing is symplectic at genus 3"


@_register("sw-unreachable-at-two-terms")
def _check_sw_gap() -> str:
    from . import f2cohomology

    rep2 = f2cohomology.sw_surjectivity_witnesses(2, 2)
    rep3 = f2cohomology.sw_surjectivity_witnesses(2, 3)
    gap = {p for p in rep2.missing if p.sw1.is_zero() and p.sw2 == 1}
    if not gap:
        raise AssertionError("(0, 1) unexpectedly reached by 2-term sums")
    if rep3.missing:
        raise AssertionError("3-term sums should reach every value")
    return "(sw1, sw2) = (0, 1) needs three torsion summands at genus 2"


@_register("double-cover-genus")
def _check_cover() -> str:
    from . import f2cohomology
    from .curve import Curve
    from .f2classes import F2Class

    for g in (2, 3, 4):
        cov = f2cohomology.DoubleCover(Curve(g), F2Class.basis_a(g, 0))
        if cov.cover_genus != 2 * g - 1:
            raise AssertionError(f"cover genus wrong at base genus {g}")
    return "unramified double covers have genus 2g - 1"


@_register("builders-validate")
def _check_builders() -> str:
    from .higgsmodel import validate

    count = 0
    for h in _sample_builders():
        # an unmarked copy: a builder's output is marked, and would pass at once
        validate(h._with())
        count += 1
    return f"{count} builder outputs pass structural validation"


@_register("builders-degree-zero")
def _check_degree_sums() -> str:
    for h in _sample_builders():
        if sum(h.degrees()) != 0:
            raise AssertionError(f"total degree nonzero for {h.meta_map}")
    return "every builder output has total degree zero"


@_register("hitchin-objects-stable")
def _check_hitchin_stable() -> str:
    from . import stability
    from .builders import (
        build_fuchsian, build_hitchin_sl, build_hitchin_so, build_hitchin_so_nn, build_hitchin_sp,
    )
    from .curve import Curve

    curve = Curve(2)
    objs = [
        build_hitchin_sl(curve, 3, (2, 3)),
        build_hitchin_sl(curve, 4, (2, 3, 4), spin_name="s"),
        build_hitchin_so(curve, 2, (2, 4)),
        build_hitchin_sp(curve, 2, (2, 4)),
        build_hitchin_so_nn(curve, 2, (2,), pfaffian=True),
        build_fuchsian(curve),
    ]
    for h in objs:
        v = stability.check_polystability(h)
        if not v.is_stable:
            raise AssertionError(f"{h.meta_map.get('family')} not stable: {v.status}")
    return f"{len(objs)} principal objects are stable"


@_register("exotic-at-top-is-hitchin")
def _check_exotic_top() -> str:
    from .builders import build_exotic_so, build_hitchin_so
    from .curve import Curve
    from .higgsmodel import arrow_pattern, summand_degree_multiset

    for g in (2, 3):
        curve = Curve(g)
        for n in (2, 3):
            top = n * (2 * g - 2)
            a = build_exotic_so(curve, n, top)
            b = build_hitchin_so(curve, n)
            if summand_degree_multiset(a) != summand_degree_multiset(b):
                raise AssertionError(f"degree multisets differ at n={n}, g={g}")
            if arrow_pattern(a) != arrow_pattern(b):
                raise AssertionError(f"arrow patterns differ at n={n}, g={g}")
    return "top-label twisted chains match the principal chain shape"


@_register("milnor-wood-rejection")
def _check_mw_reject() -> str:
    from .builders import build_exotic_so, build_maximal_so23, build_so12
    from .curve import Curve
    from .errors import BoundError

    curve = Curve(2)
    probes = [
        lambda: build_so12(curve, 3),
        lambda: build_maximal_so23(curve, 5),
        lambda: build_exotic_so(curve, 2, 5),
        lambda: build_exotic_so(curve, 3, 7),
    ]
    for probe in probes:
        try:
            probe()
        except BoundError:
            continue
        raise AssertionError("an out-of-range label was accepted")
    return "labels beyond the bound are rejected by every builder"


@_register("milnor-wood-census-agreement")
def _check_mw_census() -> str:
    from . import catalog
    from .groups import GroupTag, milnor_wood_bound

    for g in (2, 3):
        bound = 2 * g - 2
        if milnor_wood_bound(GroupTag("so", (1, 2)), g) != bound:
            raise AssertionError(f"the rank-3 bound is not 2g - 2 at genus {g}")
        c = catalog.census(GroupTag("so", (1, 2)), g)
        d_labels = [x for x in c.components if x.label.startswith("d=")]
        if len(d_labels) != bound + 1:
            raise AssertionError(f"label count mismatch at genus {g}")
    return "census label ranges agree with the bounds"


@_register("so12-criterion-samples")
def _check_so12_samples() -> str:
    from . import stability
    from .builders import build_so12
    from .curve import Curve

    curve = Curve(2)
    expectations = [
        (2, True, False, "stable"),
        (2, False, True, "unstable"),
        (0, False, False, "polystable"),
        (0, True, True, "stable"),
        (-1, False, True, "stable"),
    ]
    for d, mu, nu, want in expectations:
        got = stability.check_polystability(build_so12(curve, d, mu, nu)).status
        if got != want:
            raise AssertionError(f"(d={d}, mu={mu}, nu={nu}) -> {got}, wanted {want}")
    return f"{len(expectations)} rank-3 verdicts match the criterion"


@_register("census-frozen-totals")
def _check_census_totals() -> str:
    from . import catalog
    from .groups import GroupTag

    cases = [
        (GroupTag("sl", (3,)), 2, catalog.SECTOR_ALL, 3),
        (GroupTag("sl", (4,)), 2, catalog.SECTOR_ALL, 6),
        (GroupTag("sp", (6,)), 2, catalog.SECTOR_MAXIMAL, 48),
        (GroupTag("so0", (2, 4)), 2, catalog.SECTOR_MAXIMAL, 32),
        (GroupTag("so0", (2, 3)), 2, catalog.SECTOR_MAXIMAL, 35),
        (GroupTag("so", (1, 2)), 2, catalog.SECTOR_ALL, 33),
        (GroupTag("so0", (1, 2)), 2, catalog.SECTOR_ALL, 5),
    ]
    for group, g, sector, want in cases:
        got = catalog.census(group, g, sector).total_count
        if got != want:
            raise AssertionError(f"census({group}, {g}, {sector}) = {got}, wanted {want}")
    return f"{len(cases)} frozen census totals reproduced"


@_register("cover-multiplicity-sum")
def _check_cover_sum() -> str:
    from . import catalog
    from .groups import GroupTag

    for g in (2, 3):
        src = catalog.census(GroupTag("so", (1, 2)), g)
        lifted = sum(
            c.cover_multiplicity or 0
            for c in src.components
            if c.cover_multiplicity is not None
        )
        target = catalog.census(GroupTag("so0", (1, 2)), g).total_count
        if lifted != target:
            raise AssertionError(f"{lifted} lifts vs {target} components at genus {g}")
    return "label components double-cover the connected-group census"


@_register("parameterization-telescoping")
def _check_telescoping() -> str:
    from . import catalog
    from .groups import GroupTag

    for g in (2, 3, 4):
        for n in (1, 2, 3):
            group = GroupTag("so", (1, 2)) if n == 1 else GroupTag("so0", (n, n + 1))
            expected = catalog.half_dimension(group, g)
            for d in range(1, n * (2 * g - 2) + 1):
                total = catalog.parameterization(group, d, g).total
                if total != expected:
                    raise AssertionError(f"total {total} != {expected} at n={n}, d={d}")
    return "fiber + base + extra is constant in the label"


@_register("extra-factor-reading")
def _check_reading() -> str:
    from . import catalog

    for n in (2, 3, 4, 5):
        rep = catalog.resolve_extra_factor_reading(n, 2)
        if rep["readings_agree"] != (n == 2):
            raise AssertionError(f"reading comparison wrong at n={n}")
    return "the summed even-power reading is forced for n > 2"


@_register("dimension-consistency")
def _check_dims() -> str:
    from . import catalog
    from .groups import GroupTag

    cases = [
        (GroupTag("so", (1, 2)), 2, catalog.SECTOR_ALL),
        (GroupTag("so0", (2, 3)), 2, catalog.SECTOR_MAXIMAL),
        (GroupTag("so0", (3, 4)), 2, catalog.SECTOR_ALL),
    ]
    for group, g, sector in cases:
        rep = catalog.dimension_consistency(group, g, sector)
        if not rep["consistent"]:
            raise AssertionError(f"dimension mismatch in {rep}")
    return f"{len(cases)} censuses are dimensionally consistent"


@_register("zero-weight-retraction")
def _check_zero_weights() -> str:
    from . import deformation
    from .builders import build_hitchin_sl, build_so12
    from .curve import Curve

    curve = Curve(2)
    for h in (build_so12(curve, 1), build_hitchin_sl(curve, 3, (2, 3))):
        res = deformation.graded_limit(h, deformation.zero_weights(h))
        if not res.exists or res.limit.higgs:
            raise AssertionError("zero weights should kill the whole field")
    return "zero weights retract onto the underlying bundle"


@_register("limit-preserves-validity")
def _check_limit_validity() -> str:
    from . import deformation
    from .builders import build_extension_deformed_so35
    from .curve import Curve
    from .higgsmodel import validate

    curve = Curve(2)
    h = build_extension_deformed_so35(curve, 3)
    for direction in (deformation.DIRECTION_TO_ZERO, deformation.DIRECTION_TO_INFINITY):
        res = deformation.graded_limit(
            h, deformation.DEFORMED_SO35_STABLE_BRANCH, direction
        )
        if res.exists:
            validate(res.limit._with())
    return "surviving limits revalidate as objects of the same group"


@_register("switch-is-involutive")
def _check_switch() -> str:
    from .builders import build_maximal_so23, build_so12
    from .canonical import canonical_key, gauge_orbit_key, switchable, switched
    from .curve import Curve

    curve = Curve(2)
    for h in (build_so12(curve, 1), build_maximal_so23(curve, 2)):
        if not switchable(h):
            raise AssertionError("expected a switchable object")
        if canonical_key(switched(switched(h))) != canonical_key(h):
            raise AssertionError("switching twice is not the identity")
        if gauge_orbit_key(switched(h)) != gauge_orbit_key(h):
            raise AssertionError("the two presentations name different gauge orbits")
    return "the switching move is an involution"


@_register("stability-gauge-invariance")
def _check_gauge_invariance() -> str:
    from . import stability
    from .builders import build_exotic_so, build_maximal_so23, build_so12
    from .canonical import permute_summands, switchable, switched
    from .curve import Curve

    rng = random.Random(11)
    curve = Curve(2)
    objs = [build_so12(curve, 1), build_maximal_so23(curve, 3),
            build_exotic_so(curve, 2, 2, nu=True, q_on=(2,))]
    for h in objs:
        base = stability.check_polystability(h).status
        n = len(h.summands)
        for _ in range(5):
            order = list(range(n))
            rng.shuffle(order)
            if stability.check_polystability(permute_summands(h, order)).status != base:
                raise AssertionError("verdict changed under permutation")
        if switchable(h):
            if stability.check_polystability(switched(h)).status != base:
                raise AssertionError("verdict changed under switching")
    return "verdicts are invariant under reordering and switching"


@_register("sw-additivity-small")
def _check_sw_small() -> str:
    from .f2classes import F2Class, total_sw_of_sum

    g = 2
    classes = [F2Class.basis_a(g, 0), F2Class.basis_b(g, 0), F2Class.basis_a(g, 1)]
    for k in (1, 2, 3):
        for combo in itertools.combinations(classes, k):
            pair = total_sw_of_sum(list(combo))
            direct = combo[0]
            for c in combo[1:]:
                direct = direct + c
            if pair.sw1 != direct:
                raise AssertionError("first class is not additive")
    return "sw1 of a sum is the sum of the classes"


def all_check_names() -> list[str]:
    return [name for name, _ in _CHECKS]


def run_checks(names: list[str] | None = None) -> list[CheckResult]:
    wanted = set(names) if names else None
    if wanted:
        unknown = wanted - set(all_check_names())
        if unknown:
            raise HiggsAtlasError(f"unknown checks: {sorted(unknown)}")
    results = []
    for name, fn in _CHECKS:
        if wanted and name not in wanted:
            continue
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail))
        except HiggsAtlasError as exc:
            results.append(CheckResult(name, False, f"{exc.code}: {exc}"))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))
    return results


__all__ = ["CheckResult", "all_check_names", "run_checks"]
