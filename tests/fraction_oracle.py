"""Fraction arithmetic that wittcurves replaced by integers, kept as an oracle.

The first part is the element arithmetic of R, C and H that
wittcurves.algebra had before its elements were stored as integer
numerators over one denominator: every coefficient a Fraction, every
operation a Fraction operation. tests/test_algebra_core.py compares the
integer core against it on seeded random elements.

The second part is the orbifold Euler characteristic and the tubular
search as they were before they ran on integer numerators: the chi'_orb
routes of CurveProfile, the chi' of an abstract base and
genus_zero_orbifold_euler summed term by term on Fractions, and the
zoo's _fill/_tubular_weights on Fraction shares and budgets.
tests/test_euler_integer.py compares the integer code against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product


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


# ---------------------------------------------------------------------------
# The orbifold Euler characteristic and the tubular search on Fractions

def chi_routes(profile) -> dict[str, Fraction]:
    """The chi'_orb routes of a CurveProfile, each term its own Fraction."""
    pts = profile.points
    routes = {
        "general": profile.chi_centre - Fraction(1, 2) * sum(
            Fraction((pt.weight * pt.e_tau - 1) * pt.residue_degree, pt.weight * pt.e_tau)
            for pt in pts
        ),
        "split": profile.chi_prime - Fraction(1, 2) * sum(
            Fraction((pt.weight - 1) * pt.residue_degree, pt.e_tau * pt.weight) for pt in pts
        ),
    }
    if profile.centre == "R":
        thurston = profile.chi_prime
        for pt in pts:
            if pt.kind == "segmentation":
                thurston -= Fraction(pt.weight - 1, 4 * pt.weight)
            elif pt.kind == "inner":
                thurston -= Fraction(pt.weight - 1, pt.weight)
            else:
                thurston -= Fraction(pt.weight - 1, 2 * pt.weight)
        routes["boundary count"] = thurston
    if profile.genus == 0:
        routes["genus-zero form"] = genus_zero_orbifold_euler(
            profile.kappa, profile.skewness, profile.epsilon, profile.any_field_triples()
        )
    return routes


def abstract_chi_prime(base) -> Fraction:
    """chi' of the non-weighted curve of an AbstractBase."""
    return Fraction(base.chi_x) - Fraction(1, 2) * sum(
        (1 - Fraction(1, p.e_tau)) * p.residue_degree for p in base.points
    )


def genus_zero_orbifold_euler(kappa, s, epsilon, points) -> Fraction:
    total = sum((Fraction(e) * Fraction(f) * Fraction(p - 1, p) for e, f, p in points), start=Fraction(0))
    return Fraction(kappa, s * s) - Fraction(kappa * epsilon, 2 * s * s) * total


def fill(shares, counts, target, bound):
    """Weights p >= 2, counts[i] of them at share shares[i][1], with
    sum c/p = target, in decreasing order of (c/p, -i) up to bound."""
    m = sum(counts)
    for i, (name, c) in enumerate(shares):
        if not counts[i]:
            continue
        for p in range(max(2, -(-c // min(bound[0], target))), c * m // target + 1):
            key = (c / p, -i)
            rest = target - key[0]
            if key > bound or (rest == 0) != (m == 1):
                continue
            if m == 1:
                yield ((name, p),)
                continue
            left = counts[:i] + (counts[i] - 1,) + counts[i + 1:]
            for tail in fill(shares, left, rest, key):
                yield ((name, p),) + tail


def tubular_weights(budget: Fraction, places) -> list:
    """Every weight multiset on the places whose drops add up to the
    budget, each in the order fill yields it."""
    shares = [(name, Fraction(f, 2 * e_tau)) for name, (e_tau, f, _) in places.items()]
    most = [min(n := 2 * budget // c, slots or n) for (_, c), (_, _, slots) in zip(shares, places.values())]
    found = []
    for counts in product(*(range(n + 1) for n in most)):
        total = sum(n * c for n, (_, c) in zip(counts, shares))
        if total / 2 <= budget < total:
            found.extend(fill(shares, counts, total - budget, (total, 0)))
    return found
