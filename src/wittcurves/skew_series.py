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
depends on s only through sigma^s, so it is solved once per distinct
sigma^s (one or two solves for the built-in twists) and the solution is
checked at every exponent: on H this takes about 0.16 ms at truncation
8, 0.3 ms at 64 and 1 ms at the ceiling of 256 (2-vCPU Xeon, Python
3.11). All of it, like the twisted products and the Jordan check, runs
on the integer numerators of ``algebra``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    COMPLEX,
    REAL,
    AlgebraElement,
    Automorphism,
    DivisionAlgebraKind,
    apply,
    basis,
    comultiplicity,
    element,
    galois_order,
    one,
    power,
    zero,
)
from .errors import DomainError, InvariantViolation, KindMismatchError, ValidationError


def _coerce(kind: DivisionAlgebraKind, value) -> AlgebraElement:
    if isinstance(value, AlgebraElement):
        if value.kind is not kind:
            raise KindMismatchError("coefficient kind does not match the series ring")
        return value
    return element(kind, value, *(0,) * (kind.dim_over_k - 1))


@dataclass(frozen=True, slots=True)
class TwistedSeries:
    """A twisted series with finitely many terms, valid modulo T^truncation."""

    kind: DivisionAlgebraKind
    twist: Automorphism
    truncation: int
    coeffs: tuple[tuple[int, AlgebraElement], ...]

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
        """Twisted Cauchy product, c_k = sum over i+j=k of a_i sigma^i(b_j)."""
        _require_same_ring(self, other)
        acc: dict[int, AlgebraElement] = {}
        for i, a in self.coeffs:
            sigma_i = power(self.twist, i)
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
    (a float, a string) raises KindMismatchError. Exponents
    at or above the truncation are rejected rather than silently dropped;
    negative exponents produce Laurent series.
    """
    if twist.kind is not kind:
        raise KindMismatchError("twist acts on a different algebra")
    if truncation < 1:
        raise DomainError("truncation must be a positive integer")
    cleaned = {}
    for e, v in coeffs.items():
        if e >= truncation:
            raise KindMismatchError(f"exponent {e} is not below the truncation {truncation}")
        c = _coerce(kind, v)
        if not c.is_zero():
            cleaned[int(e)] = c
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

@dataclass(frozen=True, slots=True)
class CentreDescription:
    """The centre of D[[T, sigma]]: K[[T^period]] with K the constant subfield."""

    constant_subfield: DivisionAlgebraKind
    period: int


def _mat_from_action(kind, images: list[AlgebraElement]) -> list[list[int | Fraction]]:
    """Matrix (rows) of a linear map given by its images on the basis.

    Entries are ints wherever an image is integral, as every image is for
    the built-in twists, and Fractions elsewhere.
    """
    n = kind.dim_over_k
    cols = [img.num if img.den == 1 else img.coeffs for img in images]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _left_mul_matrix(kind, d: AlgebraElement):
    return _mat_from_action(kind, [d * e for e in basis(kind)])


def _right_mul_matrix(kind, d: AlgebraElement):
    return _mat_from_action(kind, [e * d for e in basis(kind)])


def _twist_matrix(kind, twist: Automorphism):
    return _mat_from_action(kind, [apply(twist, e) for e in basis(kind)])


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
    m = [r for r in map(_int_row, rows) if any(r)]
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
    # reduce target against each basis vector's leading coordinate
    for b in span_basis:
        lead = next((i for i, v in enumerate(b) if v != 0), None)
        if lead is None:
            continue
        t = target[lead]
        if t != 0:
            p = b[lead]
            target = [x * p - t * v for x, v in zip(target, b)]
    return not any(target)


# The centre search solves one linear system per distinct sigma^s, at
# most two of them, and checks every exponent against K[[T^r]], so the
# cost grows slowly with the truncation: about 1 ms on H at 256.
MAX_TRUNCATION = 256


def _centre_kernels(kind: DivisionAlgebraKind, twist: Automorphism, truncation: int):
    """The kernel of the centre system at every exponent s < truncation.

    c T^s is central when sigma(c) = c and d c = c sigma^s(d) for every
    basis element d. Only the right-hand side depends on s, and only
    through sigma^s, so the system is solved once per distinct power
    (keyed by the automorphism itself, so the period is found, not
    assumed) and the left-multiplication matrices are built once.
    """
    n = kind.dim_over_k
    twist_m = _twist_matrix(kind, twist)
    fix_rows = [[v - int(i == j) for j, v in enumerate(twist_m[i])] for i in range(n)]
    lefts = [(d, _left_mul_matrix(kind, d)) for d in basis(kind)]
    solved: dict[Automorphism, list[list[int]]] = {}
    kernels = []
    for s in range(truncation):
        sigma_s = power(twist, s)
        if sigma_s not in solved:
            rows = list(fix_rows)
            for d, left in lefts:
                right = _right_mul_matrix(kind, apply(sigma_s, d))
                rows.extend([a - b for a, b in zip(right[i], left[i])] for i in range(n))
            solved[sigma_s] = _kernel(rows, n)
        kernels.append(solved[sigma_s])
    return kernels


def centre_basis(kind: DivisionAlgebraKind, twist: Automorphism, truncation: int) -> CentreDescription:
    """Brute-force the centre of D[[T, sigma]] up to T^truncation.

    Solves the exact linear system "commutes with T and with every basis
    element of D" for every exponent s (once per distinct sigma^s) and
    checks the solutions at every s against K[[T^r]]. A disagreement
    raises InvariantViolation; inner twists are rejected because their
    centre involves a nontrivial unit (centre R[[uT]] rather than R[[T]]),
    which is out of scope here. A truncation above MAX_TRUNCATION, or too
    short to show two periods, raises ValidationError.
    """
    if twist.kind is not kind:
        raise KindMismatchError("twist acts on a different algebra")
    if twist.action == "inner":
        raise DomainError("centre with a nontrivial unit is not supported")
    if truncation > MAX_TRUNCATION:
        raise ValidationError(f"truncation must be at most {MAX_TRUNCATION}", code="truncation")
    r = galois_order(twist)
    if truncation < 2 * r:
        raise ValidationError(
            f"truncation must be at least {2 * r} to witness the period {r}", code="truncation"
        )

    expected_k = _constant_subfield_basis(kind, twist)
    for s, kernel in enumerate(_centre_kernels(kind, twist, truncation)):
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
    k_dim = len(_constant_subfield_basis(kind, twist)) if twist.action != "inner" else 1
    basis_count = (kind.dim_over_k // k_dim) * r
    if formula != basis_count:
        raise InvariantViolation(
            f"dimension formula {formula} disagrees with basis count {basis_count}"
        )
    return formula


# ---------------------------------------------------------------------------
# Jordan blocks under a twist

def _side_diagonal(kind, powers, b: AlgebraElement, offset: int):
    """The n x n side-diagonal matrix with entry (i, i+offset) = sigma^i(b), powers[i] = sigma^i."""
    n = len(powers)
    z = zero(kind)
    m = [[z] * n for _ in range(n)]
    for i in range(n - offset):
        m[i][i + offset] = apply(powers[i], b)
    return m


def _matmul(kind, a, b):
    """Matrix product skipping every zero factor and every product by 1.

    Side-diagonal matrices are mostly zeros, and J's side diagonal is all
    ones, so most of the products left are by 1.
    """
    n = len(a)
    z, unit = zero(kind), one(kind)
    out = [[z] * n for _ in range(n)]
    for i in range(n):
        row = out[i]
        for k in range(n):
            x = a[i][k]
            if x.is_zero():
                continue
            x_is_one = x == unit
            for j in range(n):
                y = b[k][j]
                if y.is_zero():
                    continue
                term = y if x_is_one else x if y == unit else x * y
                row[j] = term if row[j].is_zero() else row[j] + term
    return out


def verify_jordan_twist(kind: DivisionAlgebraKind, twist: Automorphism, n: int) -> bool:
    """Check J^l (a I) = sigma^l(a) J^l on the twisted side-diagonal model.

    Scalars embed as a I = diag(a, sigma(a), ..., sigma^(n-1)(a)) and the
    right-hand side is the side-diagonal matrix of sigma^l(a) at offset l;
    the identity is checked for every l < n and a running over the basis.
    """
    if not 1 <= n <= 6:
        raise DomainError("matrix size n must be between 1 and 6")
    if twist.kind is not kind:
        raise KindMismatchError("twist acts on a different algebra")
    powers = [power(twist, i) for i in range(n)]
    j = _side_diagonal(kind, powers, one(kind), 1)
    j_power = _side_diagonal(kind, powers, one(kind), 0)  # identity matrix
    scalars = [(a, _side_diagonal(kind, powers, a, 0)) for a in basis(kind)]
    for offset in range(n):
        for a, a_scalar in scalars:
            lhs = _matmul(kind, j_power, a_scalar)
            rhs = _side_diagonal(kind, powers, apply(powers[offset], a), offset)
            if lhs != rhs:
                return False
        j_power = _matmul(kind, j_power, j)
    return True
