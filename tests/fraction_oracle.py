"""Fraction arithmetic that wittcurves replaced by integers, kept as an oracle.

The first part is the element arithmetic of R, C and H that
wittcurves.algebra had before its elements were stored as integer
numerators over one denominator: every coefficient a Fraction, every
operation a Fraction operation. tests/test_algebra_core.py compares the
integer core against it on seeded random elements.

The second part is the orbifold Euler characteristic and the tubular
search as they were before they ran on integer numerators: the chi'_orb
routes of a curve, the chi' of an abstract base and
genus_zero_orbifold_euler summed term by term on Fractions over the
curve's labelled points as tests/point_oracle.py builds them (the
(e, f, p) triples of the genus-zero route are built from those points
here, by any_field_triples), and the zoo's _fill/_search on Fraction shares
and budgets (the exact patterns only, which are the tubular weights).
patterns, last, enumerates every pattern of the zoo's rule on Fractions
another way: the symbols first, then int weights that use up exactly the
counts left.
The class of a profile and the order of tau are read here as they were
before the library took them off the sign of the numerator of chi'_orb:
by Fraction comparisons, with the consistency checks summed on Fractions.
tests/test_euler_integer.py compares the integer code against them.

The third part is the centre system of D[[T, sigma]] as skew_series
built it before its rows came from integer products: the dense matrices
of left and right multiplication and of the twist, read off the images
of the basis, here on the Fraction elements of the first part and
sigma^s taken afresh by its power, and int_rows, which scales its
rational rows to the integer rows the library's kernel takes.
tests/test_skew_series.py and tests/test_skew_fuzz.py solve it at every
exponent against the library. _in_span, last, is the span membership test
the library's centre check made before it compared canonical bases as
lists; those tests use it to judge a kernel by its span alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from point_oracle import eager_points

from wittcurves.errors import DomainError, InconsistentDataError, InvariantViolation


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

def chi_routes(curve) -> dict[str, Fraction]:
    """The chi'_orb routes of a curve, each term its own Fraction, summed
    over its labelled points as tests/point_oracle.py builds them, every
    bare segmentation point on its own, with the numerics of its profile."""
    pts, n = eager_points(curve), curve.profile.numerics
    routes = {
        "general": n.chi_centre - Fraction(1, 2) * sum(
            Fraction((pt.weight * pt.e_tau - 1) * pt.residue_degree, pt.weight * pt.e_tau)
            for pt in pts
        ),
        "split": n.chi_prime - Fraction(1, 2) * sum(
            Fraction((pt.weight - 1) * pt.residue_degree, pt.e_tau * pt.weight) for pt in pts
        ),
    }
    if n.centre == "R":
        thurston = n.chi_prime
        for pt in pts:
            if pt.kind == "segmentation":
                thurston -= Fraction(pt.weight - 1, 4 * pt.weight)
            elif pt.kind == "inner":
                thurston -= Fraction(pt.weight - 1, pt.weight)
            else:
                thurston -= Fraction(pt.weight - 1, 2 * pt.weight)
        routes["boundary count"] = thurston
    if n.genus == 0:
        routes["genus-zero form"] = genus_zero_orbifold_euler(
            n.kappa, n.skewness, n.epsilon, any_field_triples(curve)
        )
    return routes


def any_field_triples(curve) -> tuple[tuple[int, Fraction, int], ...]:
    """The (e, f, p) triples of the genus-zero formula for the labelled
    points of a curve, with e f recovered from the real local data as
    e f = (s^2 / (kappa epsilon)) f_res / e_tau."""
    n = curve.profile.numerics
    return tuple(
        (1, Fraction(n.skewness**2 * pt.residue_degree, n.kappa * n.epsilon * pt.e_tau), pt.weight)
        for pt in eager_points(curve)
    )


def abstract_chi_prime(base) -> Fraction:
    """chi' of the non-weighted curve of an AbstractBase."""
    return Fraction(base.chi_x) - Fraction(1, 2) * sum(
        (1 - Fraction(1, p.e_tau)) * p.residue_degree for p in base.points
    )


def _excess(vector) -> Fraction:
    """sum(1 - 1/v) - 2 over a weight-ramification vector."""
    return sum((1 - Fraction(1, v) for v in vector), Fraction(0)) - 2


def _inconsistent(profile):
    """The error of a reading no curve has: bad input on an abstract base,
    whose numerics name no centre, and a bug on a surface base."""
    return InconsistentDataError if profile.numerics.centre is None else InvariantViolation


def curve_class(profile) -> str:
    """The class of a CurveProfile by Fraction comparisons of chi'_orb:
    a tubular curve must have a tubular vector and no centre of positive
    genus, and a domestic one over a centre of genus 0 a Geigle-Lenzing
    vector."""
    chi, vector, cg = profile.chi_orb, profile.weight_ram_vector, profile.numerics.centre_genus
    if chi > 0:
        if cg == 0 and _excess(vector) >= 0:
            raise _inconsistent(profile)("domestic genus-zero curve")
        return "domestic"
    if chi < 0:
        return "wild"
    if profile.pbar == 1:
        return "elliptic"
    if _excess(vector) != 0 or (cg is not None and cg != 0):
        raise _inconsistent(profile)("tubular curve")
    return "tubular"


def tau_order(profile) -> int:
    """The order of tau, by a Fraction comparison of chi'_orb with 0."""
    if profile.chi_orb != 0:
        raise DomainError("tau has finite order only when the orbifold characteristic vanishes")
    order = max(profile.weight_ram_vector, default=1)
    if order not in (1, 2, 3, 4, 6):
        raise _inconsistent(profile)("unexpected tau order")
    return order


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


def _reach(shares, counts, target, bound):
    """Weights p >= 2, exactly counts[i] of them at share shares[i][1], in
    decreasing order of (c/p, -i) up to bound, whose sum c/p reaches the
    target with the last, smallest, one: the sum without it falls short."""
    m = sum(counts)
    for i, (name, c) in enumerate(shares):
        if not counts[i]:
            continue
        # the largest of the m terms is at least target / m
        for p in range(2, c * m // target + 1):
            key = (c / p, -i)
            if key > bound:
                continue
            if m == 1:
                if key[0] >= target:
                    yield ((name, p),)
            elif key[0] < target:
                left = counts[:i] + (counts[i] - 1,) + counts[i + 1:]
                for tail in _reach(shares, left, target - key[0], key):
                    yield ((name, p),) + tail


def patterns(budget: Fraction, places) -> list:
    """Every pattern on the places in the zoo, as its int weights and the
    number of symbols at each place: the drops, c (1 - 1/p) for a weight
    and c for a symbol with c = f / (2 e_tau), add up to at most the
    budget, and no weight made a symbol would still fit."""
    shares = [(name, Fraction(f, 2 * e_tau)) for name, (e_tau, f, _) in places.items()]
    # every entry drops at least c/2
    most = [min(n := 2 * budget // c, slots or n) for (_, c), (_, _, slots) in zip(shares, places.values())]
    found = []
    for counts in product(*(range(n + 1) for n in most)):
        for symbols in product(*(range(n + 1) for n in counts)):
            left = budget - sum(k * c for k, (_, c) in zip(symbols, shares))
            ints = tuple(n - k for n, k in zip(counts, symbols))
            if left < 0:
                continue
            if not any(ints):
                found.append(((), symbols))
                continue
            # the weights fit when their sum c/p is at least sum c - left, and
            # a weight made a symbol adds its c/p to the drops
            target = sum(n * c for n, (_, c) in zip(ints, shares)) - left
            if target > 0:
                found.extend((ws, symbols) for ws in _reach(shares, ints, target, (math.inf, 0)))
    return found


# ---------------------------------------------------------------------------
# The centre system of D[[T, sigma]] on dense Fraction matrices

def from_twist(phi) -> OracleAutomorphism:
    """The oracle copy of a wittcurves Automorphism, read from its fields."""
    if phi.action == "inner":
        return inner(OracleElement(4, phi.unit.coeffs))
    return OracleAutomorphism(phi.action, phi.kind.dim_over_k)


def basis(dim: int) -> list[OracleElement]:
    return [oracle(dim, *(int(i == pos) for i in range(dim))) for pos in range(dim)]


def mat_from_action(images: list[OracleElement]) -> list[list[Fraction]]:
    """Matrix (rows) of a linear map given by its images on the basis."""
    n = len(images)
    return [[images[j].coeffs[i] for j in range(n)] for i in range(n)]


def left_mul_matrix(d: OracleElement) -> list[list[Fraction]]:
    return mat_from_action([d * e for e in basis(d.dim)])


def right_mul_matrix(d: OracleElement) -> list[list[Fraction]]:
    return mat_from_action([e * d for e in basis(d.dim)])


def twist_matrix(phi: OracleAutomorphism) -> list[list[Fraction]]:
    return mat_from_action([apply(phi, e) for e in basis(phi.dim)])


def centre_system(phi: OracleAutomorphism, s: int) -> list[list[Fraction]]:
    """The rows of "c T^s is central": sigma(c) = c, and d c = c sigma^s(d)
    for every basis element d."""
    n = phi.dim
    twist_m = twist_matrix(phi)
    rows = [[twist_m[i][j] - (i == j) for j in range(n)] for i in range(n)]
    sigma_s = power(phi, s)
    for d in basis(n):
        right, left = right_mul_matrix(apply(sigma_s, d)), left_mul_matrix(d)
        rows.extend([a - b for a, b in zip(right[i], left[i])] for i in range(n))
    return rows


def int_rows(rows: list[list[Fraction]]) -> list[list[int]]:
    """Each rational row scaled by the positive lcm of its denominators,
    which leaves the solutions of a homogeneous system alone: the integer
    rows skew_series._kernel takes."""
    scaled = []
    for row in rows:
        row = [Fraction(v) for v in row]
        scale = math.lcm(*(v.denominator for v in row))
        scaled.append([v.numerator * (scale // v.denominator) for v in row])
    return scaled


def _in_span(vec, span_basis) -> bool:
    """Membership test by eliminating against the (echelonized) span basis.

    Fraction-free: target becomes b[lead] * target - target[lead] * b,
    a nonzero multiple of target - (target[lead] / b[lead]) * b, which
    leaves the final test for zero unchanged.
    """
    target = list(vec)
    # reduce target against each basis vector's leading coordinate; no
    # basis vector is zero, as _constant_subfield_basis builds them
    for b in span_basis:
        lead = next(i for i, v in enumerate(b) if v != 0)
        t = target[lead]
        if t != 0:
            p = b[lead]
            target = [x * p - t * v for x, v in zip(target, b)]
    return not any(target)
