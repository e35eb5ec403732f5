"""Stiefel-Whitney searches over sums of classes, and double covers.

Which (sw_1, sw_2) labels a sum of n classes of H^1(S; F_2) reaches, with
the smallest witness of each, and the double cover that a nonzero sw_1
classifies.  The classes and their arithmetic are in ``f2classes``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import DimensionMismatchError, _Value
from .f2classes import F2Class, SWPair, _check_genus, _even_bits, _whitney, all_classes

if TYPE_CHECKING:  # annotations only, so the sw searches load no curve code
    from .curve import Curve


class SurjectivityReport(_Value):
    """Reachability of every (sw_1, sw_2) value by n-term sums.

    ``witnesses`` lists, for each reachable pair, the lexicographically
    smallest witness tuple (classes ordered by their integer encoding).
    ``missing`` lists the unreachable pairs; ``complete`` is True when
    every one of the 2^(2g+1) values is hit.
    """

    __slots__ = ("genus", "n", "witnesses", "missing")

    def __init__(
        self,
        genus: int,
        n: int,
        witnesses: tuple[tuple[SWPair, tuple[F2Class, ...]], ...],
        missing: tuple[SWPair, ...],
    ):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "missing", missing)

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
    data ``target``, which must be reachable by n classes.  The last class
    leaves (0, 0), the only data zero classes reach, so it is the remaining
    sw_1 itself."""
    even = _even_bits(genus)
    t1, t2 = target
    out = []
    for left in range(n, 1, -1):
        for c in range(1 << (2 * genus)):
            rest = _whitney(t1, t2, c, 0, even)
            if _reachable(rest, left - 1):
                break
        out.append(c)
        t1, t2 = rest
    out.append(t1)
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
    An n_max below 1 gives an empty table; a genus below 2 is refused first.
    """
    if genus < 2:
        raise ValueError("genus must be at least 2")
    if n_max < 1:
        return {}
    _check_search_genus(genus)
    keys = sorted(_keys(genus), key=lambda key: (min(_fewest_classes(key), n_max + 1), key))
    classes = all_classes(genus)
    return {
        SWPair(classes[value], sw2): m if (m := _fewest_classes((value, sw2))) <= n_max else None
        for value, sw2 in keys
    }


# -- double covers ---------------------------------------------------------

class DoubleCover(_Value):
    """Unramified double cover of the base classified by a nonzero sw_1."""

    __slots__ = ("base", "sw1")

    def __init__(self, base: Curve, sw1: F2Class):
        _check_genus(sw1, base.genus)
        if sw1.is_zero():
            raise ValueError("a connected double cover needs a nonzero class")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "sw1", sw1)

    @property
    def cover_genus(self) -> int:
        # Riemann-Hurwitz for an unramified degree-2 map
        return 2 * self.base.genus - 1


__all__ = [
    "SurjectivityReport",
    "sw_surjectivity_witnesses",
    "minimal_realizing_n",
    "DoubleCover",
]
