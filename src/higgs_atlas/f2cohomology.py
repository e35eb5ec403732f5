"""Mod-2 cohomology of the base surface and Stiefel-Whitney arithmetic.

H^1(S; F_2) is modelled as F_2^(2g) in a fixed symplectic basis
a_1, b_1, ..., a_g, b_g.  A class is one integer below 4^g: bit 2i holds
the a_(i+1) coefficient and bit 2i + 1 the b_(i+1) coefficient, so the
sum of classes is xor.  The cup product pairs a_i with b_i,

    cup(x, y) = sum_i x_(2i) y_(2i+1) + x_(2i+1) y_(2i)   (mod 2),

which is alternating (cup(x, x) = 0) and nondegenerate; H^2 is F_2.  On
the integers it is the parity of the even bits of (x & (y >> 1)) ^
((x >> 1) & y).

An orthogonal bundle is labelled by its pair (sw_1, sw_2); the label of
an orthogonal direct sum is the sum of the labels under ``SWPair.__add__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .curve import Curve
from .errors import DimensionMismatchError, UnresolvedActionError
from .linebundle import DegreeContext, LineBundleExpr, K_power, tensor_all


@dataclass(frozen=True)
class F2Class:
    """An element of H^1(S; F_2) = F_2^(2g): bit i of ``value`` is
    coordinate i of the interleaved basis a_1, b_1, ..., a_g, b_g."""

    genus: int
    value: int

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("genus must be at least 2")
        if not 0 <= self.value < 1 << (2 * self.genus):
            raise ValueError(f"class value {self.value} is outside [0, 4^{self.genus})")

    def __add__(self, other: "F2Class") -> "F2Class":
        _check_same_genus(self, other)
        return F2Class(self.genus, self.value ^ other.value)

    def is_zero(self) -> bool:
        return not self.value

    def bits(self) -> str:
        """The coordinates as a bit string, coordinate 0 first."""
        return format(self.value, f"0{2 * self.genus}b")[::-1]

    def to_int(self) -> int:
        return self.value

    @staticmethod
    def zero(genus: int) -> "F2Class":
        return F2Class(genus, 0)

    @staticmethod
    def from_bits(bits: str) -> "F2Class":
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError(f"bad bit string {bits!r}")
        if len(bits) % 2 or len(bits) < 4:
            raise ValueError("coordinate length must be 2g with g >= 2")
        return F2Class(len(bits) // 2, int(bits[::-1], 2))

    @staticmethod
    def from_int(genus: int, value: int) -> "F2Class":
        return F2Class(genus, value)

    @staticmethod
    def basis_a(genus: int, i: int) -> "F2Class":
        return F2Class(genus, 1 << (2 * i))

    @staticmethod
    def basis_b(genus: int, i: int) -> "F2Class":
        return F2Class(genus, 2 << (2 * i))


def all_classes(genus: int) -> tuple[F2Class, ...]:
    """Every class, ordered by integer encoding (the zero class first)."""
    if genus < 2:
        raise ValueError("genus must be at least 2")
    return tuple(F2Class(genus, v) for v in range(1 << (2 * genus)))


def _check_same_genus(a: F2Class, b: F2Class):
    if a.genus != b.genus:
        raise DimensionMismatchError(
            f"classes live on different surfaces (genus {a.genus} vs {b.genus})"
        )


def _even_bits(genus: int) -> int:
    """Mask of the a-coordinates (bits 0, 2, ..., 2g - 2) of an integer encoding."""
    return ((1 << (2 * genus)) - 1) // 3


def _cup_int(x: int, y: int, even: int) -> int:
    """Cup product of two integer encodings; ``even`` is ``_even_bits(genus)``."""
    return (((x & (y >> 1)) ^ ((x >> 1) & y)) & even).bit_count() & 1


def cup(a: F2Class, b: F2Class) -> int:
    """Cup product H^1 x H^1 -> H^2 = F_2 in the symplectic basis."""
    _check_same_genus(a, b)
    return _cup_int(a.value, b.value, _even_bits(a.genus))


@dataclass(frozen=True)
class SWPair:
    """(sw_1, sw_2) of an orthogonal bundle; sw_2 is a single bit."""

    sw1: F2Class
    sw2: int

    def __post_init__(self):
        if self.sw2 not in (0, 1):
            raise ValueError("sw2 must be a bit")

    def __add__(self, other: "SWPair") -> "SWPair":
        """The label of the orthogonal direct sum (Whitney sum formula;
        Milnor & Stasheff, Characteristic Classes, 1974, section 4):

            sw_1(A + B) = sw_1(A) + sw_1(B),
            sw_2(A + B) = sw_2(A) + sw_2(B) + cup(sw_1(A), sw_1(B)).
        """
        return SWPair(self.sw1 + other.sw1, self.sw2 ^ other.sw2 ^ cup(self.sw1, other.sw1))

    def label(self) -> str:
        return f"sw1={self.sw1.bits()},sw2={self.sw2}"


def total_sw_of_sum(classes: Sequence[F2Class], genus: int | None = None) -> SWPair:
    """Total Stiefel-Whitney data of a direct sum of 2-torsion line
    bundles, each labelled (c, 0)."""
    if not classes:
        if genus is None:
            raise DimensionMismatchError("empty sum needs an explicit genus")
        return SWPair(F2Class.zero(genus), 0)
    return sum((SWPair(c, 0) for c in classes[1:]), SWPair(classes[0], 0))


@dataclass(frozen=True)
class SurjectivityReport:
    """Reachability of every (sw_1, sw_2) value by n-term sums.

    ``witnesses`` lists, for each reachable pair, the lexicographically
    smallest witness tuple (classes ordered by their integer encoding).
    ``missing`` lists the unreachable pairs; ``complete`` is True when
    every one of the 2^(2g+1) values is hit.
    """

    genus: int
    n: int
    witnesses: tuple[tuple[SWPair, tuple[F2Class, ...]], ...]
    missing: tuple[SWPair, ...]

    @property
    def complete(self) -> bool:
        return not self.missing

    @property
    def witness_map(self) -> dict[SWPair, tuple[F2Class, ...]]:
        return dict(self.witnesses)


def _check_search_genus(genus: int) -> None:
    if genus not in (2, 3):
        raise DimensionMismatchError("exhaustive search supported for genus 2 and 3 only")


def _keys(genus: int) -> list[tuple[int, int]]:
    return [(value, sw2) for value in range(1 << (2 * genus)) for sw2 in (0, 1)]


def _fewest_classes(key: tuple[int, int]) -> int:
    """The fewest classes (at least one) whose sum has the integer
    (sw_1, sw_2) data ``key``.

    sw_2 = 0 needs one class (v itself).  sw_2 = 1 with v != 0 needs two,
    a and v + a with cup(a, v) = 1; such an a exists because the cup form
    is nondegenerate.  (0, 1) needs three, a, b and a + b with
    cup(a, b) = 1, since two classes summing to 0 are equal and the cup
    form is alternating.  Any larger number works too (pad with zeros).
    """
    value, sw2 = key
    return 1 if not sw2 else 2 if value else 3


def _reachable(key: tuple[int, int], m: int) -> bool:
    """Is ``key`` the data of some m-term sum?  Zero classes reach only (0, 0)."""
    return m >= _fewest_classes(key) or key == (0, 0)


def _smallest_witness(target: tuple[int, int], n: int, genus: int) -> list[int]:
    """The lexicographically smallest n classes whose sum has the integer
    data ``target``, which must be reachable by n classes."""
    even = _even_bits(genus)
    t1, t2 = target
    out = []
    for left in range(n, 0, -1):
        for c in range(1 << (2 * genus)):
            rest = (t1 ^ c, t2 ^ _cup_int(c, t1, even))
            if _reachable(rest, left - 1):
                break
        out.append(c)
        t1, t2 = rest
    return out


def sw_surjectivity_witnesses(genus: int, n: int) -> SurjectivityReport:
    """Witnesses of every SW value reachable by a sum of n classes.

    Which values m classes reach has a closed form (``_reachable``), so the
    cost grows with n rather than as (2^(2g))^n.  Each witness is built
    greedily, which gives the lexicographically smallest tuple: with k
    classes left to choose and target (t1, t2), take the smallest class c
    whose remainder (t1 + c, t2 + cup(c, t1)) k - 1 classes reach.

    Only genus 2 or 3 is supported.  n = 1 is allowed but the resulting
    map cannot be complete (sw_2 of a single summand is always 0); the
    report flags this through ``missing``.
    """
    _check_search_genus(genus)
    if n < 1:
        raise ValueError("need at least one summand")
    classes = all_classes(genus)
    witnesses = []
    missing = []
    for value, sw2 in _keys(genus):
        pair = SWPair(classes[value], sw2)
        if _reachable((value, sw2), n):
            witness = _smallest_witness((value, sw2), n, genus)
            witnesses.append((pair, tuple(classes[c] for c in witness)))
        else:
            missing.append(pair)
    return SurjectivityReport(genus, n, tuple(witnesses), tuple(missing))


def minimal_realizing_n(genus: int, n_max: int = 3) -> dict[SWPair, int | None]:
    """Smallest number of summands realizing each (sw_1, sw_2), up to n_max.

    Pairs come in order of that number, then of (sw_1 encoding, sw_2);
    pairs that no sum of at most n_max classes reaches follow with None.
    An n_max below 1 gives an empty table.
    """
    if n_max < 1:
        return {}
    _check_search_genus(genus)
    keys = sorted(_keys(genus), key=lambda key: (min(_fewest_classes(key), n_max + 1), key))
    classes = all_classes(genus)
    return {
        SWPair(classes[value], sw2): m if (m := _fewest_classes((value, sw2))) <= n_max else None
        for value, sw2 in keys
    }


# -- double covers and Prym data -------------------------------------------

@dataclass(frozen=True)
class DoubleCover:
    """Unramified double cover of the base classified by a nonzero sw_1."""

    base: Curve
    sw1: F2Class

    def __post_init__(self):
        if self.sw1.genus != self.base.genus:
            raise DimensionMismatchError("classifying class has the wrong genus")
        if self.sw1.is_zero():
            raise ValueError("a connected double cover needs a nonzero class")

    @property
    def cover_genus(self) -> int:
        # Riemann-Hurwitz for an unramified degree-2 map
        return 2 * self.base.genus - 1


@dataclass(frozen=True)
class PrymDescriptor:
    """One of the two components of the kernel of the norm map of a cover."""

    cover: DoubleCover
    component: int

    def __post_init__(self):
        if self.component not in (0, 1):
            raise ValueError("a Prym variety has exactly two components")


@dataclass(frozen=True)
class InvolutionAction:
    """Declared action of the cover involution on named symbols.

    Maps each symbol name to the expression it pulls back to; the
    canonical bundle of the cover is always fixed.
    """

    action: tuple[tuple[str, LineBundleExpr], ...]

    @staticmethod
    def of(**mapping: LineBundleExpr) -> "InvolutionAction":
        return InvolutionAction(tuple(sorted(mapping.items())))

    @property
    def action_map(self) -> dict[str, LineBundleExpr]:
        return dict(self.action)

    def apply(self, expr: LineBundleExpr) -> LineBundleExpr:
        table = self.action_map
        pieces: list[tuple[str, int]] = [(n, 1) for n in expr.spins]
        pieces += [(n, 1) for n in expr.torsions]
        pieces += list(expr.variables) + list(expr.divisors)
        missing = sorted({n for n, _ in pieces if n not in table})
        if missing:
            raise UnresolvedActionError(
                f"involution action undeclared for: {', '.join(missing)}"
            )
        return tensor_all([K_power(expr.k_power), *(table[name].power(e) for name, e in pieces)])


def prym_membership(
    cover: DoubleCover,
    action: InvolutionAction,
    bundle: LineBundleExpr,
    ctx: DegreeContext | None = None,
) -> bool:
    """Does the declared involution send the bundle to its dual?

    Membership in the kernel of the norm map is the symbol-level condition
    pullback(bundle) = dual(bundle).  When a degree context is supplied the
    degree-0 precondition on the cover is enforced.
    """
    if ctx is not None:
        if ctx.degree(bundle) != 0:
            raise ValueError("norm-kernel membership needs a degree-0 bundle")
    if bundle.is_trivial():
        return True
    return action.apply(bundle) == bundle.dual()


__all__ = [
    "F2Class",
    "SWPair",
    "all_classes",
    "cup",
    "total_sw_of_sum",
    "SurjectivityReport",
    "sw_surjectivity_witnesses",
    "minimal_realizing_n",
    "DoubleCover",
    "PrymDescriptor",
    "InvolutionAction",
    "prym_membership",
]
