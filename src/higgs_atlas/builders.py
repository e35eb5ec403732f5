"""The family builders, and the objects derived from their output.

Each builder assembles one family of objects from a group tag and its
discrete labels: the principal chains of the split real forms, the
twisted chains labelled by d = deg M, the maximal signature-(2, n)
families over a rank-(n-1) complement W0, the twisted Fuchsian objects,
and the extension-deformed signature-(3, 5) object.  Every output is
checked by ``higgsmodel.validate`` before it is returned.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .curve import Curve
from .errors import (
    BoundError,
    MissingSpinError,
    PreconditionError,
    WrongGroupError,
    _Value,
    _read_int,
)
from .f2classes import F2Class, SWPair, _check_genus
from .groups import GroupTag, _check_label, milnor_wood_bound
from .higgsmodel import (
    FORM_ORTHOGONAL,
    FORM_SYMPLECTIC,
    SIDE_V,
    SIDE_W,
    VANISH_GENERIC,
    VANISH_NOWHERE,
    DolbeaultTerm,
    GradedHiggsBundle,
    HiggsEntry,
    SectionSymbol,
    Summand,
    make_bundle,
    named_section,
    unit_section,
    validate,
)
from .linebundle import K_power, spin, torsion, trivial, variable


# -- W0 descriptors for the rank-2 orthogonal story --------------------------

class SplitW0(_Value):
    """W0 = M + M^-1 (+ trivial padding); first Stiefel-Whitney class 0."""

    __slots__ = ("degree", "mu", "nu")

    def __init__(self, degree: int, mu: bool = True, nu: bool = True):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)


class PrymW0(_Value):
    """An indecomposable flat orthogonal rank-2 block from a double cover.

    Kept opaque: only its Stiefel-Whitney data enters the combinatorics.
    """

    __slots__ = ("sw1", "sw2")

    def __init__(self, sw1: F2Class, sw2: int):
        if sw1.is_zero():
            raise ValueError("an indecomposable flat O(2) bundle has sw1 != 0")
        object.__setattr__(self, "sw1", sw1)
        object.__setattr__(self, "sw2", sw2)


class TrivialW0(_Value):
    """W0 = a sum of trivial line bundles."""

    __slots__ = ()


# -- chain helpers -----------------------------------------------------------

def _differentials(q_on: Iterable[int], top: int, even: bool = True) -> tuple[int, ...]:
    """The chosen q_j, sorted and deduplicated: each j lies in [2, top], and
    only even j exist on the orthogonal and symplectic chains."""
    q_on = tuple(sorted(set(q_on)))
    if any(j < 2 or j > top or (even and j % 2) for j in q_on):
        raise BoundError(f"differentials must {'be even and ' if even else ''}lie in [2, {top}]")
    return q_on


def _with_trivial_w(
    summands: Sequence[Summand], sigma: Sequence[int], count: int
) -> tuple[tuple[Summand, ...], tuple[int, ...]]:
    """``summands`` and ``sigma`` followed by ``count`` self-paired trivial
    W summands."""
    n = len(summands)
    return (
        tuple(summands) + (Summand(SIDE_W, trivial()),) * count,
        tuple(sigma) + tuple(range(n, n + count)),
    )


def _split_chain(
    chain: Sequence[Summand], q_on: Iterable[int]
) -> tuple[list[Summand], list[int], list[tuple[int, int, SectionSymbol]]]:
    """The principal chain on `chain` (highest K power first): units down
    the chain, each q_j in q_on (checked by the caller) on the (j-1)-th
    diagonal above it, sigma reversing it.  Returned V side first, then W
    side, each in chain order."""
    length = len(chain)
    order = [p for p in range(length) if chain[p].side == SIDE_V]
    order += [p for p in range(length) if chain[p].side == SIDE_W]
    slot = {p: k for k, p in enumerate(order)}
    sigma = [slot[length - 1 - p] for p in order]
    entries = [(slot[p + 1], slot[p], unit_section()) for p in range(length - 1)]
    for j in q_on:
        sym = named_section(f"q{j}")
        entries += [(slot[p], slot[p + j - 1], sym) for p in range(length - (j - 1))]
    return [chain[p] for p in order], sigma, entries


def _odd_chain(
    m: int, top_side: str, q_on: Iterable[int]
) -> tuple[list[Summand], list[int], list[tuple[int, int, SectionSymbol]]]:
    """``_split_chain`` on the odd orthogonal chain K^m, K^(m-1), ..., K^-m,
    its sides alternating from ``top_side``, with the even q_j in [2, 2m]."""
    other = SIDE_W if top_side == SIDE_V else SIDE_V
    chain = [Summand(top_side if p % 2 == 0 else other, K_power(m - p)) for p in range(2 * m + 1)]
    return _split_chain(chain, _differentials(q_on, 2 * m))


def _add_m_pair(
    summands: list[Summand],
    sigma: list[int],
    entries: list[tuple[int, int, SectionSymbol]],
    d: int,
    top: int,
    low_v: int,
    mu: bool,
    nu: bool,
) -> None:
    """Append W = M + M^-1 (deg M = d): mu from the V slot `low_v` to M^-1
    and from M to the top V slot 0, nu the other way round.  Their ambients
    have degree top - d and top + d; a section in a degree-0 ambient
    trivializes it."""
    m = len(summands)
    summands += [Summand(SIDE_W, variable("M")), Summand(SIDE_W, variable("M", -1))]
    sigma += [m + 1, m]
    if mu:
        sym = named_section("mu", VANISH_NOWHERE if d == top else VANISH_GENERIC)
        entries += [(m + 1, low_v, sym), (0, m, sym)]
    if nu:
        sym = named_section("nu", VANISH_NOWHERE if -d == top else VANISH_GENERIC)
        entries += [(m, low_v, sym), (0, m + 1, sym)]


# -- builders ----------------------------------------------------------------

def build_hitchin_sl(
    curve: Curve, n: int, q_on: Iterable[int] = (), spin_name: str | None = None
) -> GradedHiggsBundle:
    """Principal chain for the split real form of SL(n): consecutive
    half-integer twists of K with unit subdiagonal and chosen differentials.

    Even n needs a spin symbol (a choice of square root of K); refusing to
    pick one implicitly keeps the 2^(2g) lift choices distinguishable.
    """
    if n < 2:
        raise BoundError("need rank at least 2")
    q_on = _differentials(q_on, n, even=False)
    if n % 2 == 0 and not spin_name:
        raise MissingSpinError("even rank needs an explicit spin symbol")
    chain = []
    for i in range(1, n + 1):
        if n % 2:
            expr = K_power((n + 1 - 2 * i) // 2)
        else:
            expr = spin(spin_name).tensor(K_power((n - 2 * i) // 2))
        chain.append(Summand(SIDE_V, expr))
    summands, sigma, entries = _split_chain(chain, q_on)
    return make_bundle(
        GroupTag("sl", (n,)),
        curve,
        summands,
        sigma,
        FORM_ORTHOGONAL,
        entries,
        meta={"family": "hitchin-sl", "n": n},
    )


def build_hitchin_so(curve: Curve, n: int, q_on: Iterable[int] = ()) -> GradedHiggsBundle:
    """Hitchin object for the split orthogonal group of signature (n, n+1).

    The odd-length principal chain with the odd differentials suppressed;
    positions of even chain index form the V side, the rest the W side.
    """
    if n < 1:
        raise BoundError("need n >= 1")
    summands, sigma, entries = _odd_chain(n, SIDE_W, q_on)
    return make_bundle(
        GroupTag("so0", (n, n + 1)),
        curve,
        summands,
        sigma,
        FORM_ORTHOGONAL,
        entries,
        meta={"family": "hitchin-so", "n": n},
    )


def build_hitchin_sp(
    curve: Curve, n: int, q_on: Iterable[int] = (), spin_name: str = "s"
) -> GradedHiggsBundle:
    """Hitchin object for the split symplectic group of rank n (Sp(2n))."""
    if n < 1:
        raise BoundError("need n >= 1")
    if not spin_name:
        raise MissingSpinError("the symplectic chain needs a spin symbol")
    q_on = _differentials(q_on, 2 * n)
    chain = [
        Summand(SIDE_V if p % 2 == 0 else SIDE_W, spin(spin_name).tensor(K_power(n - 1 - p)))
        for p in range(2 * n)
    ]
    summands, sigma, entries = _split_chain(chain, q_on)
    return make_bundle(
        GroupTag("sp", (2 * n,)),
        curve,
        summands,
        sigma,
        FORM_SYMPLECTIC,
        entries,
        meta={"family": "hitchin-sp", "n": n},
    )


def build_fuchsian(curve: Curve, spin_name: str = "s", q2: bool = True) -> GradedHiggsBundle:
    """The uniformizing rank-2 object: a spin bundle and its dual."""
    h = build_hitchin_sp(curve, 1, (2,) if q2 else (), spin_name)
    return h._with(h._degrees, meta=(("family", "fuchsian"), ("n", 1)))


def build_hitchin_so_nn(
    curve: Curve, n: int, q_on: Iterable[int] = (), pfaffian: bool = False
) -> GradedHiggsBundle:
    """Hitchin object for split signature (n, n): the (n, n-1) chain plus a
    trivial W summand receiving the Pfaffian differential."""
    if n < 2:
        raise BoundError("need n >= 2")
    summands, sigma, entries = _odd_chain(n - 1, SIDE_V, q_on)
    summands, sigma = _with_trivial_w(summands, sigma, 1)
    if pfaffian:
        pf = named_section("pf")
        last_v = n - 1          # lowest chain position is V-side (even p), slot n-1
        first_v = 0
        o_idx = len(summands) - 1
        entries.append((o_idx, last_v, pf))
        entries.append((first_v, o_idx, pf))
    return make_bundle(
        GroupTag("so0", (n, n)),
        curve,
        summands,
        sigma,
        FORM_ORTHOGONAL,
        entries,
        meta={"family": "hitchin-so-nn", "n": n},
    )


def _twist_chain(
    curve: Curve,
    n: int,
    d: int,
    mu: bool,
    nu: bool,
    q_on: Iterable[int],
    meta: Mapping[str, object],
) -> GradedHiggsBundle:
    """Signature (n, n+1): the (n, n-1) principal chain plus M + M^-1 with
    deg M = d, fed by its lowest V summand K^(1-n) through mu and nu; shared
    by ``build_exotic_so``, which checks d, and ``build_degree_zero_chain``."""
    if n < 2:
        raise BoundError("need n >= 2")
    group = GroupTag("so0", (n, n + 1))
    bound = milnor_wood_bound(group, curve.genus)
    summands, sigma, entries = _odd_chain(n - 1, SIDE_V, q_on)
    _add_m_pair(summands, sigma, entries, d, bound, low_v=n - 1, mu=mu, nu=nu)
    return make_bundle(
        group,
        curve,
        summands,
        sigma,
        FORM_ORTHOGONAL,
        entries,
        declared={"M": d},
        meta=meta,
    )


def build_exotic_so(
    curve: Curve,
    n: int,
    d: int,
    mu: bool = True,
    nu: bool = False,
    q_on: Iterable[int] = (),
) -> GradedHiggsBundle:
    """Twisted-chain family in signature (n, n+1), labelled by d = deg M.

    The defining section mu must be switched on and the label must satisfy
    0 < d <= n(2g-2); the degree-0 shape is available separately through
    ``build_degree_zero_chain``.
    """
    if n < 2:
        raise BoundError("need n >= 2")
    _check_label(GroupTag("so0", (n, n + 1)), curve.genus, d, positive=True)
    if not mu:
        raise PreconditionError("the family needs a nonzero section mu")
    meta = {"family": "exotic-so", "n": n, "d": d}
    if n == 2:
        meta["switch_variable"] = "M"
        meta["switch_sections"] = "mu,nu"
    return _twist_chain(curve, n, d, mu, nu, q_on, meta)


def build_degree_zero_chain(curve: Curve, n: int) -> GradedHiggsBundle:
    """Unit chain with an isolated degree-0 pair M, M^-1 and zero field on it.

    Remark-level shape: recorded for the catalog's degree-0 slot; a full
    construction of that component is deliberately out of scope.
    """
    meta = {"family": "degree-zero-chain", "n": n, "d": 0,
            "status": "remark-level, construction deferred"}
    return _twist_chain(curve, n, 0, False, False, (), meta)


def build_so12(curve: Curve, d: int, mu: bool = True, nu: bool = True) -> GradedHiggsBundle:
    """Rank-3 family with decomposed rank-2 part: O on the V side, M + M^-1
    on the W side, sections mu and nu running down and up the chain."""
    group = GroupTag("so", (1, 2))
    bound = _check_label(group, curve.genus, d)
    summands = [Summand(SIDE_V, trivial())]
    sigma = [0]
    entries: list[tuple[int, int, SectionSymbol]] = []
    _add_m_pair(summands, sigma, entries, d, bound, low_v=0, mu=mu, nu=nu)
    return make_bundle(
        group,
        curve,
        summands,
        sigma,
        FORM_ORTHOGONAL,
        entries,
        declared={"M": d},
        meta={"family": "so12", "d": d,
              "switch_variable": "M", "switch_sections": "mu,nu"},
    )


def build_maximal_so23(
    curve: Curve, d: int, mu: bool = True, nu: bool = True, q2: bool = True
) -> GradedHiggsBundle:
    """Maximal family in signature (2, 3) with decomposed rank-2 part, under
    its own label: ``build_maximal_so2n``'s n = 3 case with W0 = M + M^-1,
    so V = K + K^-1 and W = O + M + M^-1.  The n = 2 twisted chain
    (``build_exotic_so``) builds the same object from the principal chain.
    """
    h = build_maximal_so2n(curve, 3, SplitW0(d, mu, nu), q2)
    meta = {"family": "maximal-so23", "d": d,
            "switch_variable": "M", "switch_sections": "mu,nu"}
    return h._with(h._degrees, meta=tuple(sorted(meta.items())))


def build_maximal_so2n(
    curve: Curve,
    n: int,
    w0: SplitW0 | PrymW0 | TrivialW0,
    q2: bool = True,
    beta0: bool = True,
) -> GradedHiggsBundle:
    """Maximal-Toledo family in signature (2, n), n >= 3.

    V = K I + K^-1 I with I the determinant of the chosen rank-(n-1)
    orthogonal bundle W0; W = I + W0.  The three supported W0 shapes are a
    decomposed pair M + M^-1 (padded with trivial summands above n = 3),
    a sum of trivial bundles, and an opaque indecomposable flat block
    labelled only by its Stiefel-Whitney data.
    """
    if n < 3:
        raise BoundError("signature (2, n) needs n >= 3")
    g = curve.genus
    torsion_classes: dict[str, F2Class] = {}
    declared: dict[str, int] = {}
    if isinstance(w0, PrymW0):
        i_expr = torsion("I")
        torsion_classes["I"] = w0.sw1
    elif isinstance(w0, (SplitW0, TrivialW0)):
        i_expr = trivial()
    else:
        raise TypeError(f"unknown W0 descriptor {w0!r}")
    # the signature-(2, 1) principal chain twisted by I
    chain = [Summand(SIDE_V, i_expr.tensor(K_power(1))), Summand(SIDE_W, i_expr),
             Summand(SIDE_V, i_expr.tensor(K_power(-1)))]
    summands, sigma, entries = _split_chain(chain, (2,) if q2 else ())
    meta: dict[str, object] = {"family": "maximal-so2n", "n": n}
    if isinstance(w0, SplitW0):
        # M + M^-1 keeps the so0:2,3 range at every n, wider than the 2g - 2
        # of so0:2,n for n >= 4: which range the paper means is open
        # (ROADMAP item 9), and the verdicts benchmark builds |d| <= 4g - 4
        top = _check_label(GroupTag("so0", (2, 3)), g, w0.degree)
        declared["M"] = w0.degree
        _add_m_pair(summands, sigma, entries, w0.degree, top, low_v=1, mu=w0.mu, nu=w0.nu)
        summands, sigma = _with_trivial_w(summands, sigma, n - 3)
        meta.update({"w0": "split", "d": w0.degree,
                     "sw1": F2Class.zero(g).bits(), "sw2": w0.degree % 2,
                     "switch_variable": "M", "switch_sections": "mu,nu"})
    elif isinstance(w0, TrivialW0):
        summands, sigma = _with_trivial_w(summands, sigma, n - 1)
        meta.update({"w0": "trivial", "sw1": F2Class.zero(g).bits(), "sw2": 0})
    else:
        if n != 3:
            raise BoundError("an indecomposable rank-2 block fills W0 only for n = 3")
        summands.append(
            Summand(SIDE_W, variable("W0"), rank=2, sw=SWPair(w0.sw1, w0.sw2))
        )
        declared["W0"] = 0
        sigma.append(len(chain))
        meta.update({"w0": "prym", "sw1": w0.sw1.bits(), "sw2": w0.sw2})
    if beta0 and not isinstance(w0, SplitW0):
        # beta0 joins each summand of a trivial or flat W0 to the chain
        sym = named_section("beta0")
        entries += [e for i in range(len(chain), len(summands)) for e in ((i, 1, sym), (0, i, sym))]
    return make_bundle(
        GroupTag("so0", (2, n)),
        curve,
        summands,
        sigma,
        FORM_ORTHOGONAL,
        entries,
        declared=declared,
        torsion_classes=torsion_classes,
        meta=meta,
    )


def build_twisted_fuchsian_sp(
    curve: Curve,
    classes: Sequence[F2Class],
    spin_name: str = "s",
    q2: bool = True,
) -> GradedHiggsBundle:
    """Diagonal twist of the uniformizing object by 2-torsion bundles.

    V is a sum of n copies of the spin bundle, each twisted by a 2-torsion
    line; the field is blockwise the rank-2 one (unit down, q2 up on every
    pair).  A zero class means an untwisted copy.
    """
    n = len(classes)
    if n < 1:
        raise BoundError("need at least one summand")
    if not spin_name:
        raise MissingSpinError("the twisted chain needs a spin symbol")
    g = curve.genus
    torsion_classes: dict[str, F2Class] = {}
    v_exprs = []
    for j, cls in enumerate(classes, start=1):
        # a zero class leaves no symbol behind for ``validate`` to check
        _check_genus(cls, g, f"summand {j - 1}")
        if cls.is_zero():
            v_exprs.append(spin(spin_name))
        else:
            name = f"I{j}"
            torsion_classes[name] = cls
            v_exprs.append(spin(spin_name).tensor(torsion(name)))
    summands = [Summand(SIDE_V, e) for e in v_exprs]
    summands += [Summand(SIDE_W, e.dual()) for e in v_exprs]
    sigma = [n + j for j in range(n)] + list(range(n))
    entries = []
    q_sym = named_section("q2")
    for j in range(n):
        entries.append((n + j, j, unit_section()))
        if q2:
            entries.append((j, n + j, q_sym))
    return make_bundle(
        GroupTag("sp", (2 * n,)),
        curve,
        summands,
        sigma,
        FORM_SYMPLECTIC,
        entries,
        torsion_classes=torsion_classes,
        meta={"family": "twisted-fuchsian-sp", "n": n},
    )


def _so35_frame(
    curve: Curve,
    line: str,
    line_degree: int,
    entries: Iterable[tuple[int, int, SectionSymbol]],
    dolbeault: Iterable[tuple[int, int, str]],
    meta: Mapping[str, object],
) -> GradedHiggsBundle:
    """Signature (3,5) on V = K^2 + O + K^-2 and W = L + K + K^-1 + L^-1 + O,
    deg L = ``line_degree``, with the four units of the (3,4) chain plus
    ``entries`` and the extension terms ``dolbeault``.  Indices: 0-2 the V
    side in that order, then 3 L, 4 K, 5 K^-1, 6 L^-1, 7 O."""
    summands = [
        Summand(SIDE_V, K_power(2)),
        Summand(SIDE_V, trivial()),
        Summand(SIDE_V, K_power(-2)),
        Summand(SIDE_W, variable(line)),
        Summand(SIDE_W, K_power(1)),
        Summand(SIDE_W, K_power(-1)),
        Summand(SIDE_W, variable(line, -1)),
        Summand(SIDE_W, trivial()),
    ]
    units = [(t, s, unit_section()) for t, s in ((4, 0), (5, 1), (1, 4), (2, 5))]
    return make_bundle(
        GroupTag("so0", (3, 5)),
        curve,
        summands,
        [2, 1, 0, 6, 5, 4, 3, 7],
        FORM_ORTHOGONAL,
        units + list(entries),
        dolbeault=dolbeault,
        declared={line: line_degree},
        meta=meta,
    )


def build_extension_deformed_so35(curve: Curve, d: int, mu: bool = True) -> GradedHiggsBundle:
    """The (3,4) twisted-chain object sitting inside signature (3,5), with
    the direct-sum holomorphic structure deformed by an extension class.

    V = K^2 + O + K^-2; W = M + K + K^-1 + M^-1 + O.  The field has the
    two chain units and mu; the extension term eps glues the new trivial
    summand to M and M^-1 (one matched transpose pair).
    """
    if not mu:
        raise PreconditionError("the deformation needs a nonzero section mu")
    bound = _check_label(GroupTag("so0", (3, 4)), curve.genus, d, positive=True)
    m_sym = named_section("mu", VANISH_NOWHERE if d == bound else VANISH_GENERIC)
    return _so35_frame(
        curve,
        "M",
        d,
        [(6, 2, m_sym), (0, 3, m_sym)],
        [(6, 7, "eps"), (7, 3, "eps")],
        {"family": "deformed-exotic-so35", "d": d},
    )


# -- derived objects ---------------------------------------------------------

def _stabilized(
    h: GradedHiggsBundle,
    group: GroupTag,
    meta: Mapping[str, object] | None = None,
    front_v: int = 0,
    back_w: int = 0,
) -> GradedHiggsBundle:
    """``h`` as a checked object of ``group``, with ``front_v`` trivial V
    summands before its own (so its indices move up by ``front_v``) and
    ``back_w`` trivial W summands after them, each self-paired with a zero
    field row, and with ``meta`` when given."""
    k = front_v
    summands, sigma = _with_trivial_w(
        (Summand(SIDE_V, trivial()),) * k + h.summands,
        (*range(k), *(j + k for j in h.sigma)),
        back_w,
    )
    out = h._with(
        group=group,
        summands=summands,
        sigma=sigma,
        higgs=tuple(HiggsEntry(e.target + k, e.source + k, e.symbol) for e in h.higgs),
        dolbeault=tuple(DolbeaultTerm(t.target + k, t.source + k, t.name) for t in h.dolbeault),
        meta=h.meta if meta is None else tuple(sorted(meta.items())),
    )
    validate(out)
    return out


def associated_sl(h: GradedHiggsBundle) -> GradedHiggsBundle:
    """Forget the real structure: the same summands and field seen as an
    object for the special linear group of the total rank."""
    if h.group.family == "slc":
        raise WrongGroupError("already a special-linear object")
    return _stabilized(
        h, GroupTag("slc", (h.total_rank,)), {**h.meta_map, "associated_from": str(h.group)}
    )


def _integer_label(h: GradedHiggsBundle) -> int:
    """The component label ``d`` recorded in the meta, read by the integer
    rule; anything else is refused."""
    d = h.meta_map.get("d")
    label = _read_int(str(d), signed=True)
    if label is None:
        raise PreconditionError(f"the component label d = {d!r} is not an integer")
    return label


def embed_so23_to_so2n(h: GradedHiggsBundle, n: int) -> GradedHiggsBundle:
    """Stabilize a maximal (2,3) object to signature (2,n) by appending
    trivial W summands with zero field rows."""
    if h.group != GroupTag("so0", (2, 3)):
        raise WrongGroupError(f"expected a so0:2,3 object, got {h.group}")
    if n < 4:
        raise BoundError("the target signature needs n >= 4")
    meta = {**h.meta_map, "family": "maximal-so2n", "n": n, "w0": "embedded"}
    if "sw1" not in meta:
        meta["sw1"] = F2Class.zero(h.genus).bits()
        meta["sw2"] = 0 if meta.get("d") is None else _integer_label(h) % 2
    return _stabilized(h, GroupTag("so0", (2, n)), meta, back_w=n - 3)


def embed_so23_to_so33(h: GradedHiggsBundle) -> GradedHiggsBundle:
    """Stabilize a maximal (2,3) object to split signature (3,3) by
    prepending one trivial V summand with zero field row."""
    if h.group != GroupTag("so0", (2, 3)):
        raise WrongGroupError(f"expected a so0:2,3 object, got {h.group}")
    return _stabilized(
        h, GroupTag("so0", (3, 3)), {**h.meta_map, "family": "embedded-so33"}, front_v=1
    )


def append_trivial_w(h: GradedHiggsBundle) -> GradedHiggsBundle:
    """Stabilize signature (p, q) to (p, q+1) with a trivial W summand."""
    if h.group.family != "so0":
        raise WrongGroupError("only split orthogonal objects can be stabilized")
    p, q = h.group.params
    return _stabilized(h, GroupTag("so0", (p, q + 1)), back_w=1)


def so2n_sw_label(h: GradedHiggsBundle) -> SWPair:
    """Stiefel-Whitney label of the rank-(n-1) orthogonal complement of a
    maximal signature-(2,n) object, computed from the summand data.

    The complement is the W side minus the distinguished line receiving
    the unit (the twist of the top V summand by the dual twisting line).
    Its label is the total class of the orthogonal sum: dual line pairs
    contribute their degree mod 2 to the second class, self-paired lines
    contribute their 2-torsion class to the first, opaque blocks carry
    their recorded pair, and the labels add under ``SWPair.__add__``.
    """
    if h.group.family != "so0" or h.group.params[0] != 2:
        raise WrongGroupError(f"expected a signature-(2,n) object, got {h.group}")
    v_idx = h.side_indices(SIDE_V)
    w_idx = h.side_indices(SIDE_W)
    if len(v_idx) != 2:
        raise WrongGroupError("expected a rank-2 positive side")
    top_v = max(v_idx, key=h.degree_of)
    unit_line = h.summands[top_v].bundle.tensor(K_power(-1))
    distinguished = None
    for i in w_idx:
        if h.summands[i].rank == 1 and h.summands[i].bundle == unit_line:
            distinguished = i
            break
    if distinguished is None:
        raise WrongGroupError("no distinguished unit line on the W side")
    tclasses = dict(h.torsion_classes)
    zero = F2Class.zero(h.genus)
    factors: list[SWPair] = []
    seen: set[int] = set()
    for i in w_idx:
        if i == distinguished or i in seen:
            continue
        seen.add(i)
        s = h.summands[i]
        if s.rank > 1:
            if s.sw is None:
                raise WrongGroupError(f"block summand {i} carries no invariants")
            factors.append(s.sw)
        elif h.sigma[i] == i:
            factors.append(SWPair(sum((tclasses.get(n, zero) for n in s.bundle.torsions), zero), 0))
        else:
            seen.add(h.sigma[i])
            factors.append(SWPair(zero, h.degree_of(i) % 2))
    return sum(factors, SWPair(zero, 0))


__all__ = [
    "SplitW0",
    "PrymW0",
    "TrivialW0",
    "build_fuchsian",
    "build_hitchin_sl",
    "build_hitchin_so",
    "build_hitchin_sp",
    "build_hitchin_so_nn",
    "build_exotic_so",
    "build_degree_zero_chain",
    "build_so12",
    "build_maximal_so23",
    "build_maximal_so2n",
    "build_twisted_fuchsian_sp",
    "build_extension_deformed_so35",
    "associated_sl",
    "embed_so23_to_so2n",
    "embed_so23_to_so33",
    "append_trivial_w",
    "so2n_sw_label",
]
