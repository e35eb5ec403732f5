"""Independent oracles and sample generators for the test suite.

Everything here recomputes answers from first principles with code paths
that share nothing with the package internals, so agreement is evidence
rather than tautology.  The stability oracle enumerates raw index subsets
with itertools and uses the complement formulation of splitting; the
characteristic-class oracle folds a truncated product pair by pair, and
the Stiefel-Whitney search oracle scans every tuple of classes with the
coordinate formula for the cup product.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Sequence

from higgs_atlas import (
    Curve,
    F2Class,
    GradedHiggsBundle,
    PrymW0,
    SplitW0,
    SurjectivityReport,
    SWPair,
    TrivialW0,
    build_exotic_so,
    build_fuchsian,
    build_hitchin_sl,
    build_hitchin_so,
    build_hitchin_so_nn,
    build_hitchin_sp,
    build_maximal_so23,
    build_maximal_so2n,
    build_so12,
    build_twisted_fuchsian_sp,
    cup,
)


def _arrows(h: GradedHiggsBundle) -> list[tuple[int, int]]:
    pairs = [(e.target, e.source) for e in h.higgs]
    pairs.extend((t.target, t.source) for t in h.dolbeault)
    return pairs


def _is_closed(subset: frozenset[int], arrows: Sequence[tuple[int, int]]) -> bool:
    return all(t in subset for (t, s) in arrows if s in subset)


def brute_force_polystability(h: GradedHiggsBundle) -> str:
    """Exhaustive verdict over every index subset, no pruning.

    A proper nonempty closed subset of positive degree destabilizes.  A
    closed degree-zero subset is harmless only when its complement is
    closed as well; one with a non-closed complement pins the object at
    semistable without a splitting.
    """
    n = len(h.summands)
    arrows = _arrows(h)
    everything = frozenset(range(n))
    zero_split_all = True
    saw_zero = False
    for r in range(1, n):
        for combo in itertools.combinations(range(n), r):
            sub = frozenset(combo)
            if not _is_closed(sub, arrows):
                continue
            deg = sum(h.degree_of(i) for i in sub)
            if deg > 0:
                return "unstable"
            if deg == 0:
                saw_zero = True
                if not _is_closed(everything - sub, arrows):
                    zero_split_all = False
    if not zero_split_all:
        return "unstable"
    return "polystable" if saw_zero else "stable"


def sw_fold(classes: Iterable[F2Class]) -> tuple[F2Class, int]:
    """Fold the truncated two-term product (1 + a + b) pair by pair."""
    items = list(classes)
    genus = items[0].genus if items else 2
    s1, s2 = F2Class.zero(genus), 0
    for c in items:
        s2 = (s2 + cup(s1, c)) % 2
        s1 = s1 + c
    return s1, s2


def sw_fold_explicit(classes: Sequence[F2Class]) -> tuple[F2Class, int]:
    """Same product, expanded without reusing the running first term."""
    genus = classes[0].genus if classes else 2
    s1 = F2Class.zero(genus)
    for c in classes:
        s1 = s1 + c
    s2 = 0
    for j in range(len(classes)):
        for k in range(j):
            s2 ^= cup(classes[k], classes[j])
    return s1, s2


def cup_coords(a: F2Class, b: F2Class) -> int:
    """Cup product by the coordinate formula sum_i a[2i] b[2i+1] + a[2i+1] b[2i]."""
    total = 0
    for i in range(a.genus):
        total += a.coords[2 * i] * b.coords[2 * i + 1]
        total += a.coords[2 * i + 1] * b.coords[2 * i]
    return total % 2


def brute_force_sw_witnesses(genus: int, n: int) -> SurjectivityReport:
    """Scan (F_2^(2g))^n in product order, so the first tuple found with
    each (sw_1, sw_2) is its lexicographically smallest witness."""
    size = 1 << (2 * genus)
    found: dict[tuple[int, int], tuple[F2Class, ...]] = {}
    for combo in itertools.product(range(size), repeat=n):
        classes = tuple(F2Class.from_int(genus, v) for v in combo)
        sw1 = 0
        for v in combo:
            sw1 ^= v
        sw2 = sum(cup_coords(x, y) for x, y in itertools.combinations(classes, 2)) % 2
        if (sw1, sw2) not in found:
            found[(sw1, sw2)] = classes
            if len(found) == 2 * size:
                break
    witnesses = []
    missing = []
    for value in range(size):
        for sw2 in (0, 1):
            pair = SWPair(F2Class.from_int(genus, value), sw2)
            if (value, sw2) in found:
                witnesses.append((pair, found[(value, sw2)]))
            else:
                missing.append(pair)
    return SurjectivityReport(genus, n, tuple(witnesses), tuple(missing))


def brute_force_minimal_n(genus: int, n_max: int) -> dict[SWPair, int | None]:
    """Smallest n reaching each pair, one brute-force scan per n."""
    out: dict[SWPair, int | None] = {}
    remaining = None
    for n in range(1, n_max + 1):
        report = brute_force_sw_witnesses(genus, n)
        for pair, _ in report.witnesses:
            if pair not in out:
                out[pair] = n
        remaining = report.missing
    for pair in remaining or ():
        if pair not in out:
            out[pair] = None
    return out


def builder_corpus(seed: int, count: int) -> list[GradedHiggsBundle]:
    """Randomized valid objects drawn from every builder family."""
    rng = random.Random(seed)
    out: list[GradedHiggsBundle] = []
    while len(out) < count:
        g = rng.choice((2, 3))
        c = Curve(g)
        kind = rng.randrange(10)
        if kind == 0:
            n = rng.choice((2, 3, 4))
            out.append(build_hitchin_sl(c, n, spin_name="s" if n % 2 == 0 else None))
        elif kind == 1:
            out.append(build_hitchin_so(c, rng.choice((2, 3))))
        elif kind == 2:
            out.append(build_hitchin_sp(c, rng.choice((1, 2, 3))))
        elif kind == 3:
            d = rng.randint(-(2 * g - 2), 2 * g - 2)
            mu = rng.random() < 0.8 if d <= 0 else True
            nu = rng.random() < 0.8 if d >= 0 else True
            out.append(build_so12(c, d, mu=mu, nu=nu))
        elif kind == 4:
            d = rng.randint(-(4 * g - 4), 4 * g - 4)
            mu = rng.random() < 0.8 if d <= 0 else True
            nu = rng.random() < 0.8 if d >= 0 else True
            out.append(build_maximal_so23(c, d, mu=mu, nu=nu, q2=rng.random() < 0.5))
        elif kind == 5:
            n = rng.choice((2, 3))
            d = rng.randint(1, n * (2 * g - 2))
            qs = tuple(j for j in range(2, 2 * n, 2) if rng.random() < 0.5)
            out.append(build_exotic_so(c, n, d, nu=rng.random() < 0.5, q_on=qs))
        elif kind == 6:
            out.append(build_hitchin_so_nn(c, rng.choice((2, 3)), pfaffian=rng.random() < 0.5))
        elif kind == 7:
            n = rng.choice((2, 3))
            classes = tuple(
                F2Class.from_int(g, rng.randrange(1 << (2 * g))) for _ in range(n)
            )
            out.append(build_twisted_fuchsian_sp(c, classes))
        elif kind == 8:
            n = rng.choice((3, 4))
            roll = rng.random()
            if roll < 0.4:
                w0: SplitW0 | PrymW0 | TrivialW0 = SplitW0(degree=rng.randint(0, 2 * g - 2))
            elif roll < 0.7 and n == 3:
                bits = rng.randrange(1, 1 << (2 * g))
                w0 = PrymW0(sw1=F2Class.from_int(g, bits), sw2=rng.randrange(2))
            else:
                w0 = TrivialW0()
            out.append(build_maximal_so2n(c, n, w0))
        else:
            out.append(build_fuchsian(c))
    return out
