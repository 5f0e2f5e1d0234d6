"""Element arithmetic of R, C and H on Fraction coefficients, kept as an oracle.

This is the arithmetic wittcurves.algebra had before its elements were
stored as integer numerators over one denominator: every coefficient a
Fraction, every operation a Fraction operation. tests/test_algebra_core.py
compares the integer core against it on seeded random elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class OracleElement:
    dim: int
    coeffs: tuple[Fraction, ...]

    def __add__(self, other):
        return OracleElement(self.dim, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return OracleElement(self.dim, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return OracleElement(self.dim, tuple(a * other for a in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if self.dim == 1:
            return OracleElement(1, (a[0] * b[0],))
        if self.dim == 2:
            return OracleElement(2, (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]))
        # Hamilton product over 1, i, j, k with k = ij.
        return OracleElement(
            4,
            (
                a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
                a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
                a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
                a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0],
            ),
        )

    def conjugate(self):
        return OracleElement(self.dim, (self.coeffs[0],) + tuple(-c for c in self.coeffs[1:]))

    def norm(self) -> Fraction:
        return sum((c * c for c in self.coeffs), Fraction(0))

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero has no inverse")
        return OracleElement(self.dim, tuple(c / n for c in self.conjugate().coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def oracle(dim: int, *coeffs) -> OracleElement:
    return OracleElement(dim, tuple(Fraction(c) for c in coeffs))


def one(dim: int) -> OracleElement:
    return oracle(dim, 1, *(0,) * (dim - 1))


@dataclass(frozen=True)
class OracleAutomorphism:
    action: str  # "identity" | "conj" | "inner"
    dim: int
    unit: OracleElement | None = None


def normalize_unit(unit: OracleElement) -> OracleElement:
    """The unit scaled to a primitive integer vector, first nonzero entry positive."""
    if unit.is_zero():
        raise ZeroDivisionError("inner automorphism needs an invertible unit")
    denom_lcm = math.lcm(*(c.denominator for c in unit.coeffs))
    ints = [int(c * denom_lcm) for c in unit.coeffs]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    if next(v for v in ints if v != 0) < 0:
        ints = [-v for v in ints]
    return oracle(4, *ints)


def inner(unit: OracleElement) -> OracleAutomorphism:
    return OracleAutomorphism("inner", 4, normalize_unit(unit))


def rotation(unit: OracleElement) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of the matrix of a -> u^-1 a u on the i, j, k coordinates."""
    w, x, y, z = (int(c) for c in unit.coeffs)
    norm = w * w + x * x + y * y + z * z
    rows = (
        (w * w + x * x - y * y - z * z, 2 * (x * y + w * z), 2 * (x * z - w * y)),
        (2 * (x * y - w * z), w * w - x * x + y * y - z * z, 2 * (y * z + w * x)),
        (2 * (x * z + w * y), 2 * (y * z - w * x), w * w - x * x - y * y + z * z),
    )
    return tuple(tuple(Fraction(v, norm) for v in row) for row in rows)


def apply(phi: OracleAutomorphism, a: OracleElement) -> OracleElement:
    if phi.action == "identity":
        return a
    if phi.action == "conj":
        return a.conjugate()
    c = a.coeffs
    return OracleElement(
        4, (c[0],) + tuple(r[0] * c[1] + r[1] * c[2] + r[2] * c[3] for r in rotation(phi.unit))
    )


def power(phi: OracleAutomorphism, n: int) -> OracleAutomorphism:
    if phi.action == "identity":
        return phi
    if phi.action == "conj":
        return phi if n % 2 else OracleAutomorphism("identity", phi.dim)
    step = phi.unit if n >= 0 else phi.unit.conjugate()
    un = one(4)
    for bit in bin(abs(n))[2:]:
        un = un * un
        if bit == "1":
            un = un * step
    return inner(un)
