"""Formal line-bundle algebra over the base curve.

An expression is a product of four kinds of atoms:

  * integer powers of the canonical bundle K,
  * spin symbols s with the reduction rule s*s = K (a square root of K,
    one symbol per choice of theta characteristic; degree g-1),
  * named 2-torsion symbols I with I*I = O (degree 0),
  * named variables M and divisor twists O(D) with free integer exponents
    and externally declared degrees.

Equality is syntactic on the normal form; no isomorphisms beyond the two
reduction rules are applied.  The canonical serialization lists the K
power first, then spin symbols, variables, divisor twists and torsions,
each group sorted by name, exponent 1 left implicit:  ``K^2*M^-1*I``.

The dual has a closed form on the normal form: s^-1 = K^-1 * s, so the K
power becomes -k minus the number of spins, the spins and torsions stay,
and every variable and divisor exponent is negated in the same name order.
Every constructor here returns a normal form; a ``LineBundleExpr`` built
field by field must be one too (sorted distinct names, nonzero exponents).

A normal form is reduced from collected exponents once: once per
``parse_expr`` (every factor's exponent is summed by kind first) and once
per ``tensor`` or ``tensor_all`` (every operand's exponents are summed by
kind first).
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from .errors import ParseError, UnresolvedDegreeError, _Value

KIND_VARIABLE = "variable"
KIND_TORSION = "torsion"
KIND_SPIN = "spin"
KIND_DIVISOR = "divisor"

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_RESERVED = ("K", "O")


class LineBundleExpr(_Value):
    """A formal line bundle in normal form: K^k times named spin, torsion and degree factors."""

    __slots__ = ("k_power", "spins", "torsions", "variables", "divisors")

    def __init__(
        self,
        k_power: int = 0,
        spins: tuple[str, ...] = (),
        torsions: tuple[str, ...] = (),
        variables: tuple[tuple[str, int], ...] = (),
        divisors: tuple[tuple[str, int], ...] = (),
    ):
        object.__setattr__(self, "k_power", k_power)
        object.__setattr__(self, "spins", spins)
        object.__setattr__(self, "torsions", torsions)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "divisors", divisors)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (
                self.k_power, self.spins, self.torsions, self.variables, self.divisors
            ) == (other.k_power, other.spins, other.torsions, other.variables, other.divisors)
        return NotImplemented

    def __hash__(self):
        return hash((self.k_power, self.spins, self.torsions, self.variables, self.divisors))

    # -- algebra ---------------------------------------------------------

    def tensor(self, other: "LineBundleExpr") -> "LineBundleExpr":
        return tensor_all((self, other))

    def dual(self) -> "LineBundleExpr":
        return LineBundleExpr(
            -self.k_power - len(self.spins),
            self.spins,
            self.torsions,
            tuple((n, -e) for n, e in self.variables),
            tuple((n, -e) for n, e in self.divisors),
        )

    def is_dual_of(self, other: "LineBundleExpr") -> bool:
        """``self == other.dual()``, compared field by field without building it."""
        return (
            self.k_power == -other.k_power - len(other.spins)
            and self.spins == other.spins
            and self.torsions == other.torsions
            and _negated(self.variables, other.variables)
            and _negated(self.divisors, other.divisors)
        )

    def power(self, e: int) -> "LineBundleExpr":
        return _make(
            self.k_power * e,
            {n: e for n in self.spins},
            {n: e for n in self.torsions},
            {n: ex * e for n, ex in self.variables},
            {n: ex * e for n, ex in self.divisors},
        )

    # -- inspection ------------------------------------------------------

    def canonical_power(self) -> int | None:
        """j when the expression is exactly K^j (j may be 0), else None."""
        if self.spins or self.torsions or self.variables or self.divisors:
            return None
        return self.k_power

    def is_trivial(self) -> bool:
        return self.canonical_power() == 0

    def resolved_degree(self, genus: int, declared: Mapping[str, int]) -> int:
        deg = self.k_power * (2 * genus - 2) + len(self.spins) * (genus - 1)
        missing = []
        for name, e in list(self.variables) + list(self.divisors):
            if name not in declared:
                missing.append(name)
            else:
                deg += e * declared[name]
        if missing:
            raise UnresolvedDegreeError(
                f"no declared degree for symbol(s): {', '.join(sorted(missing))}"
            )
        return deg

    # -- serialization ---------------------------------------------------

    def serialize(self) -> str:
        parts: list[str] = []
        if self.k_power != 0:
            parts.append("K" if self.k_power == 1 else f"K^{self.k_power}")
        parts.extend(self.spins)
        for name, e in self.variables:
            parts.append(name if e == 1 else f"{name}^{e}")
        for name, e in self.divisors:
            if e == 1:
                parts.append(f"O({name})")
            elif e == -1:
                parts.append(f"O(-{name})")
            else:
                parts.append(f"O({name})^{e}")
        parts.extend(self.torsions)
        return "*".join(parts) if parts else "O"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.serialize()


def _negated(a: tuple[tuple[str, int], ...], b: tuple[tuple[str, int], ...]) -> bool:
    if not a:  # the common case, checked without starting a generator
        return not b
    return len(a) == len(b) and all(n == m and e == -f for (n, e), (m, f) in zip(a, b))


def _make(k, spin_exp, torsion_exp, var_exp, div_exp) -> LineBundleExpr:
    # spin reduction s^e = K^(e//2) * s^(e mod 2); torsion reduction mod 2
    spins = []
    for name, e in spin_exp.items():
        k += e // 2
        if e % 2:
            spins.append(name)
    torsions = [n for n, e in torsion_exp.items() if e % 2]
    variables = tuple(sorted((n, e) for n, e in var_exp.items() if e != 0))
    divisors = tuple(sorted((n, e) for n, e in div_exp.items() if e != 0))
    return LineBundleExpr(
        k_power=k,
        spins=tuple(sorted(spins)),
        torsions=tuple(sorted(torsions)),
        variables=variables,
        divisors=divisors,
    )


# -- atom constructors ----------------------------------------------------

def trivial() -> LineBundleExpr:
    return LineBundleExpr()


def K_power(e: int = 1) -> LineBundleExpr:
    return LineBundleExpr(k_power=e)


def variable(name: str, e: int = 1) -> LineBundleExpr:
    _check_name(name)
    return _make(0, {}, {}, {name: e}, {})


def torsion(name: str) -> LineBundleExpr:
    _check_name(name)
    return _make(0, {}, {name: 1}, {}, {})


def spin(name: str, e: int = 1) -> LineBundleExpr:
    _check_name(name)
    return _make(0, {name: e}, {}, {}, {})


def divisor_twist(name: str, e: int = 1) -> LineBundleExpr:
    _check_name(name)
    return _make(0, {}, {}, {}, {name: e})


def tensor_all(exprs: Iterable[LineBundleExpr]) -> LineBundleExpr:
    """The product of ``exprs``: their exponents summed by kind, one reduction."""
    k = 0
    spins: dict[str, int] = {}
    torsions: dict[str, int] = {}
    variables: dict[str, int] = {}
    divisors: dict[str, int] = {}
    for e in exprs:
        k += e.k_power
        for n in e.spins:
            spins[n] = spins.get(n, 0) + 1
        for n in e.torsions:
            torsions[n] = torsions.get(n, 0) + 1
        for n, x in e.variables:
            variables[n] = variables.get(n, 0) + x
        for n, x in e.divisors:
            divisors[n] = divisors.get(n, 0) + x
    return _make(k, spins, torsions, variables, divisors)


def _check_name(name: str):
    if name in _RESERVED or not _NAME_RE.match(name):
        raise ValueError(f"bad symbol name {name!r}")


# -- parsing ---------------------------------------------------------------

_FACTOR_RE = re.compile(
    r"^(?:(O)|(K)(?:\^(-?\d+))?|O\((-?)([A-Za-z_][A-Za-z_0-9]*)\)(?:\^(-?\d+))?"
    r"|([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?)$"
)


def parse_expr(text: str, kinds: Mapping[str, str] | None = None) -> LineBundleExpr:
    """Parse the canonical serialization back into an expression.

    ``kinds`` maps bare symbol names to their kind (variable / torsion /
    spin); names absent from the map default to ``variable``.  Divisor
    twists are self-describing via the ``O(D)`` syntax.  The reserved names
    K and O are refused as symbols (``O^2``, ``O(K)``) like any other bad
    factor.
    """
    kinds = kinds or {}
    text = text.strip()
    if not text:
        raise ParseError("empty line-bundle expression")
    k = 0
    exps: dict[str, dict[str, int]] = {
        KIND_SPIN: {}, KIND_TORSION: {}, KIND_VARIABLE: {}, KIND_DIVISOR: {}
    }
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor.strip())
        if not m:
            raise ParseError(f"bad factor {factor!r}")
        o_mark, k_mark, k_exp, d_sign, d_name, d_exp, name, name_exp = m.groups()
        if o_mark:
            continue
        if k_mark:
            k += int(k_exp) if k_exp else 1
            continue
        if d_name:
            name, kind = d_name, KIND_DIVISOR
            e = int(d_exp) if d_exp else 1
            if d_sign == "-":
                e = -e
        else:
            kind = kinds.get(name, KIND_VARIABLE)
            e = int(name_exp) if name_exp else 1
        if name in _RESERVED:
            raise ParseError(f"bad factor {factor!r}: {name} is a reserved name")
        bucket = exps.get(kind, exps[KIND_VARIABLE])
        bucket[name] = bucket.get(name, 0) + e
    return _make(k, exps[KIND_SPIN], exps[KIND_TORSION], exps[KIND_VARIABLE], exps[KIND_DIVISOR])


__all__ = [
    "LineBundleExpr",
    "trivial",
    "K_power",
    "variable",
    "torsion",
    "spin",
    "divisor_twist",
    "tensor_all",
    "parse_expr",
    "KIND_VARIABLE",
    "KIND_TORSION",
    "KIND_SPIN",
    "KIND_DIVISOR",
]
