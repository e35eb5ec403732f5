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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from .curve import Curve
from .errors import ParseError, UnresolvedDegreeError

KIND_VARIABLE = "variable"
KIND_TORSION = "torsion"
KIND_SPIN = "spin"
KIND_DIVISOR = "divisor"

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


@dataclass(frozen=True)
class LineBundleExpr:
    k_power: int = 0
    spins: tuple[str, ...] = ()
    torsions: tuple[str, ...] = ()
    variables: tuple[tuple[str, int], ...] = ()
    divisors: tuple[tuple[str, int], ...] = ()

    # -- algebra ---------------------------------------------------------

    def tensor(self, other: "LineBundleExpr") -> "LineBundleExpr":
        return _make(
            self.k_power + other.k_power,
            _merge_unit(self.spins, other.spins),
            _merge_unit(self.torsions, other.torsions),
            _merge_exp(self.variables, other.variables),
            _merge_exp(self.divisors, other.divisors),
        )

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

    def named_symbols(self) -> tuple[str, ...]:
        names = list(self.spins) + list(self.torsions)
        names += [n for n, _ in self.variables] + [n for n, _ in self.divisors]
        return tuple(sorted(names))

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


def _merge_unit(a: Iterable[str], b: Iterable[str]) -> dict:
    out: dict[str, int] = {}
    for n in list(a) + list(b):
        out[n] = out.get(n, 0) + 1
    return out


def _merge_exp(a, b) -> dict:
    out: dict[str, int] = {}
    for n, e in list(a) + list(b):
        out[n] = out.get(n, 0) + e
    return out


def _make(k, spin_exp, torsion_exp, var_exp, div_exp) -> LineBundleExpr:
    # spin reduction s^e = K^(e//2) * s^(e mod 2); torsion reduction mod 2
    spins = []
    for name, e in (spin_exp.items() if isinstance(spin_exp, dict) else spin_exp):
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
    out = trivial()
    for e in exprs:
        out = out.tensor(e)
    return out


def _check_name(name: str):
    if name in ("K", "O") or not _NAME_RE.match(name):
        raise ValueError(f"bad symbol name {name!r}")


# -- degree context --------------------------------------------------------

@dataclass(frozen=True)
class DegreeContext:
    """A curve plus declared integer degrees for variables and divisors."""

    curve: Curve
    declared: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def of(curve: Curve, **degrees: int) -> "DegreeContext":
        return DegreeContext(curve, tuple(sorted(degrees.items())))

    @property
    def declared_map(self) -> dict[str, int]:
        return dict(self.declared)

    def degree(self, expr: LineBundleExpr) -> int:
        return expr.resolved_degree(self.curve.genus, self.declared_map)


# -- parsing ---------------------------------------------------------------

_FACTOR_RE = re.compile(
    r"^(?:(O)|(K)(?:\^(-?\d+))?|O\((-?)([A-Za-z_][A-Za-z_0-9]*)\)(?:\^(-?\d+))?"
    r"|([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?)$"
)


def parse_expr(text: str, kinds: Mapping[str, str] | None = None) -> LineBundleExpr:
    """Parse the canonical serialization back into an expression.

    ``kinds`` maps bare symbol names to their kind (variable / torsion /
    spin); names absent from the map default to ``variable``.  Divisor
    twists are self-describing via the ``O(D)`` syntax.
    """
    kinds = kinds or {}
    text = text.strip()
    if not text:
        raise ParseError("empty line-bundle expression")
    out = trivial()
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor.strip())
        if not m:
            raise ParseError(f"bad factor {factor!r}")
        o_mark, k_mark, k_exp, d_sign, d_name, d_exp, name, name_exp = m.groups()
        if o_mark:
            continue
        if k_mark:
            out = out.tensor(K_power(int(k_exp) if k_exp else 1))
            continue
        if d_name:
            e = int(d_exp) if d_exp else 1
            if d_sign == "-":
                e = -e
            out = out.tensor(divisor_twist(d_name, e))
            continue
        e = int(name_exp) if name_exp else 1
        kind = kinds.get(name, KIND_VARIABLE)
        if kind == KIND_TORSION:
            atom = torsion(name).power(e)
        elif kind == KIND_SPIN:
            atom = spin(name, e)
        elif kind == KIND_DIVISOR:
            atom = divisor_twist(name, e)
        else:
            atom = variable(name, e)
        out = out.tensor(atom)
    return out


__all__ = [
    "LineBundleExpr",
    "DegreeContext",
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
