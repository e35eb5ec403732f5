"""Mod-2 classes on the base surface and the Whitney sum of their labels.

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
The searches over sums of classes are in ``f2cohomology``.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionMismatchError, _Value


class F2Class(_Value):
    """An element of H^1(S; F_2) = F_2^(2g): bit i of ``value`` is
    coordinate i of the interleaved basis a_1, b_1, ..., a_g, b_g."""

    __slots__ = ("genus", "value")

    def __init__(self, genus: int, value: int):
        if genus < 2:
            raise ValueError("genus must be at least 2")
        if not 0 <= value < 1 << (2 * genus):
            raise ValueError(f"class value {value} is outside [0, 4^{genus})")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.genus, self.value) == (other.genus, other.value)
        return NotImplemented

    def __hash__(self):
        return hash((self.genus, self.value))

    def __add__(self, other: "F2Class") -> "F2Class":
        _check_same_genus(self, other)
        return F2Class(self.genus, self.value ^ other.value)

    def is_zero(self) -> bool:
        return not self.value

    def bits(self) -> str:
        """The coordinates as a bit string, coordinate 0 first."""
        return format(self.value, f"0{2 * self.genus}b")[::-1]

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


def _check_genus(cls: F2Class, genus: int, what: str = "") -> None:
    """Refuse a class of another genus than the curve's: the one rule every
    builder, document and verb that takes a class with a curve applies."""
    if cls.genus != genus:
        raise DimensionMismatchError(
            f"{what + ': ' if what else ''}the class {cls.bits()} has genus {cls.genus}, "
            f"the curve genus {genus}"
        )


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


def _whitney(a1: int, a2: int, b1: int, b2: int, even: int) -> tuple[int, int]:
    """The Whitney sum of the integer data (a1, a2) and (b1, b2); ``even``
    is ``_even_bits(genus)``.  Over F_2 it is also the difference."""
    return a1 ^ b1, a2 ^ b2 ^ _cup_int(a1, b1, even)


class SWPair(_Value):
    """(sw_1, sw_2) of an orthogonal bundle; sw_2 is a single bit."""

    __slots__ = ("sw1", "sw2")

    def __init__(self, sw1: F2Class, sw2: int):
        if sw2 not in (0, 1):
            raise ValueError("sw2 must be a bit")
        object.__setattr__(self, "sw1", sw1)
        object.__setattr__(self, "sw2", sw2)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.sw1, self.sw2) == (other.sw1, other.sw2)
        return NotImplemented

    def __hash__(self):
        return hash((self.sw1, self.sw2))

    def __add__(self, other: "SWPair") -> "SWPair":
        """The label of the orthogonal direct sum (Whitney sum formula;
        Milnor & Stasheff, Characteristic Classes, 1974, section 4):

            sw_1(A + B) = sw_1(A) + sw_1(B),
            sw_2(A + B) = sw_2(A) + sw_2(B) + cup(sw_1(A), sw_1(B)).
        """
        a, b = self.sw1, other.sw1
        _check_same_genus(a, b)
        sw1, sw2 = _whitney(a.value, self.sw2, b.value, other.sw2, _even_bits(a.genus))
        return SWPair(F2Class(a.genus, sw1), sw2)

    def label(self) -> str:
        return f"sw1={self.sw1.bits()},sw2={self.sw2}"


def total_sw_of_sum(classes: Sequence[F2Class], genus: int | None = None) -> SWPair:
    """Total Stiefel-Whitney data of a direct sum of 2-torsion line
    bundles, each labelled (c, 0); with ``genus`` given, every class must
    be of that genus."""
    if genus is not None:
        for i, c in enumerate(classes):
            _check_genus(c, genus, f"summand {i}")
    if not classes:
        if genus is None:
            raise DimensionMismatchError("empty sum needs an explicit genus")
        return SWPair(F2Class.zero(genus), 0)
    return sum((SWPair(c, 0) for c in classes[1:]), SWPair(classes[0], 0))


__all__ = [
    "F2Class",
    "SWPair",
    "all_classes",
    "cup",
    "total_sw_of_sum",
]
