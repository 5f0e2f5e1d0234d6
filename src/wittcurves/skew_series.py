"""Truncated twisted power and Laurent series over R, C or H.

A series lives in D[[T, sigma]] (or D((T, sigma)) when some exponents are
negative) where sigma is an automorphism of D and the variable obeys
T a = sigma(a) T, so monomials multiply by (a T^i)(b T^j) =
a sigma^i(b) T^(i+j). Everything is truncated: coefficients at exponents
>= truncation are unrepresented and all identities hold modulo T^N.

The centre computation solves the commutation conditions by brute force
(exact, fraction-free elimination on integer rows) and cross-checks the
result against the closed form K[[T^r]], K = Z(D) intersect Fix(sigma),
r = the order of sigma modulo inner automorphisms. The system at T^s
depends on s only through sigma^s, so the powers are walked only until
sigma^p == sigma^0 is witnessed and the p systems of that period are
solved (one or two for the built-in twists), their rows built from
integer products of basis numerators. The check at T^s depends only on
s mod p and on whether r divides s, so it is made at the exponents below
lcm(p, r) alone. The powers sigma^i are built each from the one before,
for the centre search, the twisted products and the Jordan check alike,
and all of it runs on the integer numerators of ``algebra``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    COMPLEX,
    REAL,
    AlgebraElement,
    Automorphism,
    DivisionAlgebraKind,
    _powers,
    _product,
    apply,
    basis,
    comultiplicity,
    element,
    galois_order,
    one,
    zero,
)
from .errors import DomainError, FrozenRecord, InvariantViolation, KindMismatchError, ValidationError, require_ints


# The largest truncation of a series or a centre search, and the least
# exponent of a series: a product builds sigma^i once for each exponent i
# of its left factor. The centre search costs the same at every
# truncation on the built-in twists, whose period is 1 or 2.
MAX_TRUNCATION = 256


def _coerce(kind: DivisionAlgebraKind, value) -> AlgebraElement:
    if isinstance(value, AlgebraElement):
        if value.kind is not kind:
            raise KindMismatchError("coefficient kind does not match the series ring")
        return value
    return element(kind, value, *(0,) * (kind.dim_over_k - 1))


class TwistedSeries(FrozenRecord):
    """A twisted series with finitely many terms, valid modulo T^truncation:
    the (exponent, coefficient) pairs of its nonzero terms, by exponent."""

    __slots__ = _fields = ("kind", "twist", "truncation", "coeffs")

    def __init__(self, kind: DivisionAlgebraKind, twist: Automorphism, truncation: int, coeffs: tuple):
        self._set(kind, twist, truncation, coeffs)

    def coeff(self, exponent: int) -> AlgebraElement:
        for e, c in self.coeffs:
            if e == exponent:
                return c
        return zero(self.kind)

    def low(self) -> int | None:
        """Least exponent with a nonzero coefficient, or None for the zero series."""
        return self.coeffs[0][0] if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "TwistedSeries") -> "TwistedSeries":
        _require_same_ring(self, other)
        acc = dict(self.coeffs)
        for e, c in other.coeffs:
            acc[e] = acc.get(e, zero(self.kind)) + c
        return series(self.kind, self.twist, self.truncation, acc)

    def __neg__(self) -> "TwistedSeries":
        return TwistedSeries(
            self.kind, self.twist, self.truncation,
            tuple((e, -c) for e, c in self.coeffs),
        )

    def __sub__(self, other: "TwistedSeries") -> "TwistedSeries":
        return self + (-other)

    def __mul__(self, other: "TwistedSeries") -> "TwistedSeries":
        """Twisted Cauchy product, c_k = sum over i+j=k of a_i sigma^i(b_j),
        with sigma^i built for each exponent i of the left factor from the
        one before."""
        _require_same_ring(self, other)
        acc: dict[int, AlgebraElement] = {}
        for (i, a), sigma_i in zip(self.coeffs, _powers(self.twist, [i for i, _ in self.coeffs])):
            for j, b in other.coeffs:
                if i + j < self.truncation:
                    acc[i + j] = acc.get(i + j, zero(self.kind)) + a * apply(sigma_i, b)
        return series(self.kind, self.twist, self.truncation, acc)

    def __repr__(self):
        if not self.coeffs:
            return "0"

        def term(e, c):
            if e == 0:
                return f"({c!r})"
            t = "T" if e == 1 else f"T^{e}"
            return t if c == one(self.kind) else f"({c!r}){t}"

        return " + ".join(term(e, c) for e, c in self.coeffs)


def _require_same_ring(f: TwistedSeries, g: TwistedSeries) -> None:
    if f.kind is not g.kind or f.twist != g.twist or f.truncation != g.truncation:
        raise KindMismatchError("series live in different twisted rings")


def series(kind, twist, truncation, coeffs) -> TwistedSeries:
    """Build a series from an {exponent: coefficient} mapping.

    Coefficients may be AlgebraElements, ints or Fractions; anything else
    (a float, a string) raises KindMismatchError. Exponents at or above the
    truncation are rejected rather than silently dropped; negative exponents
    produce Laurent series. A truncation above MAX_TRUNCATION or an exponent
    below its negative, also of a sum or product, raises code "truncation".
    """
    if twist.kind is not kind:
        raise KindMismatchError("twist acts on a different algebra")
    require_ints(truncation=truncation)
    if truncation < 1:
        raise DomainError("truncation must be a positive integer")
    if truncation > MAX_TRUNCATION:
        raise ValidationError(f"truncation must be at most {MAX_TRUNCATION}", code="truncation")
    try:
        items = coeffs.items()
    except AttributeError:
        message = f"coefficients must be an {{exponent: coefficient}} mapping, got {type(coeffs).__name__}"
        raise KindMismatchError(message) from None
    cleaned = {}
    for e, v in items:
        require_ints(exponent=e)
        if e >= truncation:
            raise KindMismatchError(f"exponent {e} is not below the truncation {truncation}")
        if e < -MAX_TRUNCATION:
            raise ValidationError(f"exponent {e} is below {-MAX_TRUNCATION}", code="truncation")
        c = _coerce(kind, v)
        if not c.is_zero():
            cleaned[e] = c
    return TwistedSeries(kind, twist, truncation, tuple(sorted(cleaned.items())))


def monomial(kind, twist, truncation, exponent: int, coefficient=1) -> TwistedSeries:
    return series(kind, twist, truncation, {exponent: coefficient})


def valuation(f: TwistedSeries) -> Fraction:
    """Exponential valuation v(f) = (1/2)^l, l the least exponent present."""
    low = f.low()
    if low is None:
        raise DomainError("the zero series has no valuation")
    return Fraction(1, 2) ** low


# ---------------------------------------------------------------------------
# Centre computation

class CentreDescription(NamedTuple):
    """The centre of D[[T, sigma]]: K[[T^period]] with K the constant subfield."""

    constant_subfield: DivisionAlgebraKind
    period: int


def _int_row(row) -> list[int]:
    """A rational row scaled by the positive lcm of its denominators."""
    scale = math.lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


def _kernel(rows: list[list[int | Fraction]], n: int) -> list[list[int]]:
    """Basis of the null space of a rational matrix, by fraction-free elimination.

    Every equation is homogeneous, so scaling a row by a nonzero integer
    leaves the kernel alone: rows are scaled to integers, zero rows are
    dropped, and each row an elimination step changes is divided by the
    gcd of its entries. The vector of a free column c is the primitive
    integer vector that is positive at c and zero at the other free
    columns, so equal kernels give equal bases.
    """
    # a row of ints sums to an int, and one Fraction entry makes its sum a Fraction
    m = [r if sum(r).__class__ is int else _int_row(r) for r in rows if any(r)]
    pivots: list[int] = []
    for col in range(n):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        prow = m[rank]
        pv = prow[col]
        for r, row in enumerate(m):
            factor = row[col]
            if r != rank and factor:
                row = [a * pv - factor * b for a, b in zip(row, prow)]
                g = math.gcd(*row)
                m[r] = [v // g for v in row] if g > 1 else row
        pivots.append(col)
    scale = math.lcm(*(abs(m[r][pc]) for r, pc in enumerate(pivots)))
    out = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[fc] = scale
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc] * scale // m[r][pc]
        g = math.gcd(*vec)
        out.append([v // g for v in vec])
    return out


def _constant_subfield_basis(kind, twist) -> list[list[int]]:
    """Closed-form basis of K = Z(D) intersect Fix(twist), as coordinate vectors."""
    n = kind.dim_over_k
    e0 = [1] + [0] * (n - 1)
    if kind is COMPLEX and twist.action == "identity":
        return [e0, [0, 1]]
    # every remaining built-in case has K = R
    return [e0]


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


def _centre_kernels(kind: DivisionAlgebraKind, twist: Automorphism, truncation: int):
    """The kernels of the centre system at s = 0, ..., p - 1: one period.

    c T^s is central when sigma(c) = c and d c = c sigma^s(d) for every
    basis element d. Only the right-hand side depends on s, and only
    through sigma^s. The powers are walked until the first p > 0 with
    sigma^p == sigma^0; then sigma^s = sigma^(s % p) by the group law, so
    the p systems solved are all there are, and the kernel at any s is
    kernels[s % p]. The period is witnessed, not assumed, and a twist
    that never repeats below the truncation is solved at every exponent.

    The rows are integers: the products d e and e sigma^s(d) of basis
    elements are taken on numerators by ``algebra._product``, the left
    ones once per call and the right ones once per system, and each
    equation is scaled by the denominator of sigma^s(d), which leaves its
    solutions alone.
    """
    n = kind.dim_over_k
    units = basis(kind)
    nums = [e.num for e in units]
    images = [apply(twist, e) for e in units]
    scale = math.lcm(*(image.den for image in images))
    fix_rows = [
        [image.num[i] * (scale // image.den) - scale * (i == j) for j, image in enumerate(images)]
        for i in range(n)
    ]
    # lefts[a][i]: row i of left multiplication by e_a, whose column j is e_a e_j
    lefts = [list(zip(*(_product(kind, d, e) for e in nums))) for d in nums]
    kernels: list[list[list[int]]] = []
    first = None
    for sigma_s in _powers(twist, range(truncation)):
        if first is None:
            first = sigma_s
        elif sigma_s == first:
            break
        rows = list(fix_rows)
        for d, left in zip(units, lefts):
            image = apply(sigma_s, d)
            den, b = image.den, image.num
            right = zip(*(_product(kind, e, b) for e in nums))
            rows += [[x - den * y for x, y in zip(r, l)] for r, l in zip(right, left)]
        kernels.append(_kernel(rows, n))
    return kernels


def centre_basis(kind: DivisionAlgebraKind, twist: Automorphism, truncation: int) -> CentreDescription:
    """Brute-force the centre of D[[T, sigma]] up to T^truncation.

    Solves the exact linear system "commutes with T and with every basis
    element of D" on integer rows once per sigma^s up to the period p that
    _centre_kernels witnesses (sigma^p == sigma^0), and checks the solution
    at T^s against K[[T^r]]. The system repeats with period p and the
    expected answer (K, or 0 when r does not divide s) with period r, so
    the exponents s < lcm(p, r) meet every pair that any exponent below
    the truncation meets. A disagreement raises InvariantViolation; inner
    twists are rejected because their centre involves a nontrivial unit
    (centre R[[uT]] rather than R[[T]]), which is out of scope here. A
    truncation above MAX_TRUNCATION, or too short to show two periods,
    raises ValidationError.
    """
    if twist.kind is not kind:
        raise KindMismatchError("twist acts on a different algebra")
    if twist.action == "inner":
        raise DomainError("centre with a nontrivial unit is not supported")
    require_ints(truncation=truncation)
    if truncation > MAX_TRUNCATION:
        raise ValidationError(f"truncation must be at most {MAX_TRUNCATION}", code="truncation")
    r = galois_order(twist)
    if truncation < 2 * r:
        raise ValidationError(
            f"truncation must be at least {2 * r} to witness the period {r}", code="truncation"
        )

    expected_k = _constant_subfield_basis(kind, twist)
    kernels = _centre_kernels(kind, twist, truncation)
    p = len(kernels)
    for s in range(min(truncation, math.lcm(p, r))):
        kernel = kernels[s % p]
        expected = expected_k if s % r == 0 else []
        if len(kernel) != len(expected):
            raise InvariantViolation(
                f"centre dimension at T^{s} is {len(kernel)}, expected {len(expected)}"
            )
        for vec in kernel:
            if not _in_span(vec, expected):
                raise InvariantViolation(f"unexpected central coefficient at T^{s}: {vec}")

    subfield = REAL if len(expected_k) == 1 else COMPLEX
    return CentreDescription(constant_subfield=subfield, period=r)


def dim_over_centre(kind: DivisionAlgebraKind, twist: Automorphism) -> int:
    """Dimension of D((T, sigma)) over its centre: comultiplicity^2 * order^2.

    Cross-checked against the basis count [D : K] * r coming from the basis
    {d_alpha T^s, 0 <= s < r} over K((T^r)).
    """
    if twist.kind is not kind:
        raise KindMismatchError("twist acts on a different algebra")
    e_star = comultiplicity(kind)
    r = galois_order(twist)
    formula = e_star * e_star * r * r
    basis_count = (kind.dim_over_k // len(_constant_subfield_basis(kind, twist))) * r
    if formula != basis_count:
        raise InvariantViolation(
            f"dimension formula {formula} disagrees with basis count {basis_count}"
        )
    return formula


# ---------------------------------------------------------------------------
# Jordan blocks under a twist

def _side_diagonal(powers, b: AlgebraElement, offset: int) -> dict:
    """The n x n side-diagonal matrix with entry (i, i+offset) = sigma^i(b),
    powers[i] = sigma^i, as a dict of its entries keyed (i, j); b is
    nonzero, so each of them is."""
    return {(i, i + offset): apply(powers[i], b) for i in range(len(powers) - offset)}


def _matmul(kind, a: dict, b: dict) -> dict:
    """Product of two matrices held as dicts of their nonzero entries keyed (i, j).

    Only pairs of nonzero entries meet, and a product by 1 is not formed:
    J's side diagonal is all ones, so most of the products left are by 1.
    Entries that cancel to zero are dropped, so equal matrices give equal
    dicts.
    """
    unit = one(kind)
    rows: dict[int, list] = {}
    for (k, j), y in b.items():
        rows.setdefault(k, []).append((j, y))
    out: dict = {}
    for (i, k), x in a.items():
        x_is_one = x == unit
        for j, y in rows.get(k, ()):
            term = y if x_is_one else x if y == unit else x * y
            out[i, j] = out[i, j] + term if (i, j) in out else term
    return {key: v for key, v in out.items() if not v.is_zero()}


def verify_jordan_twist(kind: DivisionAlgebraKind, twist: Automorphism, n: int) -> bool:
    """Check J^l (a I) = sigma^l(a) J^l on the twisted side-diagonal model.

    Scalars embed as a I = diag(a, sigma(a), ..., sigma^(n-1)(a)) and the
    right-hand side is the side-diagonal matrix of sigma^l(a) at offset l;
    the identity is checked for every l < n and a running over the basis.
    """
    require_ints(n=n)
    if not 1 <= n <= 6:
        raise DomainError("matrix size n must be between 1 and 6")
    if twist.kind is not kind:
        raise KindMismatchError("twist acts on a different algebra")
    powers = list(_powers(twist, range(n)))
    j = _side_diagonal(powers, one(kind), 1)
    j_power = _side_diagonal(powers, one(kind), 0)  # identity matrix
    scalars = [(a, _side_diagonal(powers, a, 0)) for a in basis(kind)]
    for offset in range(n):
        for a, a_scalar in scalars:
            lhs = _matmul(kind, j_power, a_scalar)
            rhs = _side_diagonal(powers, apply(powers[offset], a), offset)
            if lhs != rhs:
                return False
        j_power = _matmul(kind, j_power, j)
    return True
