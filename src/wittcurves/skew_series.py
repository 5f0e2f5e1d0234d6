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
integer products of basis numerators. The solve returns a canonical
basis, and the closed form is written in that same form, so the two are
compared as lists: stricter than span membership, since a kernel in the
right span but not in canonical form fails too. The comparison at T^s
depends only on s mod p and on whether r divides s, so it is made at the
exponents below lcm(p, r) alone. The powers sigma^i are built each from
the one before, by ``algebra._inner_of`` for an inner sigma, for the
centre search, the twisted products and the Jordan check alike.

The three kernels run on integer numerators: each takes sigma^i(b) as a
(numerators, denominator) pair by ``algebra._image`` and builds an
element only where it returns one. A product sums each coefficient on
numerators over the lcm of its terms' denominators and builds it once,
reduced; the centre rows are integer products of basis numerators; the
Jordan check compares pairs of ints.

The Jordan check models D[[T, sigma]] by n x n matrices in which T acts
as the Jordan block J and a scalar a as a I = diag(a, sigma(a), ...,
sigma^(n-1)(a)). J's entries are all 1, so J^l (a I) is a I shifted l
places along its diagonal: the check reads the list of a I from place l
and forms no product, and sigma^l(a) on the right-hand side is read from
that list too.
"""

from __future__ import annotations

import math

from .algebra import (
    COMPLEX,
    REAL,
    AlgebraElement,
    Automorphism,
    DivisionAlgebraKind,
    _builtin,
    _image,
    _lowest,
    _make,
    _powers,
    _product,
    basis,
    comultiplicity,
    element,
    galois_order,
    one,
)
from .errors import (
    DomainError,
    FrozenRecord,
    InvariantViolation,
    KindMismatchError,
    Record,
    ValidationError,
    _tuple_new,
    require_ints,
    require_positive,
)


# The largest truncation of a series or a centre search, and the least
# exponent of a series: a product builds sigma^i once for each exponent i
# of its left factor. The centre search costs the same at every
# truncation on the built-in twists, whose period is 1 or 2.
MAX_TRUNCATION = 256


class TwistedSeries(FrozenRecord):
    """A twisted series with finitely many terms, valid modulo T^truncation:
    the (exponent, coefficient) pairs of its nonzero terms, by exponent.

    The constructor refuses what ``series`` refuses, with the same error
    classes and codes, and also a record that ``series`` never builds:
    exponents out of order (code "exponent-order") or repeated (code
    "repeated-exponent"), and a zero coefficient (code "zero-coefficient").
    So every series, however built, holds its terms by ascending exponent,
    each below the truncation and nonzero.
    """

    __slots__ = _fields = ("kind", "twist", "truncation", "coeffs")

    def __init__(self, kind: DivisionAlgebraKind, twist: Automorphism, truncation: int, coeffs: tuple):
        kind = _check_ring(kind, twist, truncation)
        try:
            pairs = [(e, c) for e, c in coeffs]
        except (TypeError, ValueError):
            message = f"coefficients must be (exponent, coefficient) pairs, got {type(coeffs).__name__}"
            raise KindMismatchError(message) from None
        terms = []
        for e, v in pairs:
            c = _term(kind, truncation, e, v)
            if terms and e <= terms[-1][0]:
                raise ValidationError(
                    f"exponent {e} follows {terms[-1][0]}: exponents must ascend",
                    code="repeated-exponent" if e == terms[-1][0] else "exponent-order",
                )
            if c.is_zero():
                raise ValidationError(f"the coefficient of T^{e} is zero", code="zero-coefficient")
            terms.append((e, c))
        self._set(kind, twist, truncation, tuple(terms))

    def __add__(self, other: "TwistedSeries") -> "TwistedSeries":
        _require_same_ring(self, other)
        acc = dict(self.coeffs)
        for e, c in other.coeffs:
            acc[e] = acc[e] + c if e in acc else c
        return self._of_terms(acc)

    def _of_terms(self, coeffs: dict) -> TwistedSeries:
        """The series of this ring with the nonzero terms of an {exponent:
        element} mapping, by exponent: the result of a sum or a product,
        whose ring is already checked, built through the constructor
        alone, which checks the ring and each term once."""
        terms = sorted([(e, c) for e, c in coeffs.items() if not c.is_zero()])
        return TwistedSeries(self.kind, self.twist, self.truncation, terms)

    def __mul__(self, other: "TwistedSeries") -> "TwistedSeries":
        """Twisted Cauchy product, c_k = sum over i+j=k of a_i sigma^i(b_j),
        with sigma^i built for each exponent i of the left factor from the
        one before.

        Each term is taken on integer numerators, ``_product`` of those of
        a_i and of the pair ``_image`` gives for sigma^i(b_j), over the
        product of their denominators, and added into c_k over the lcm of
        the denominators; c_k is reduced once, when all its terms are in.
        The exponents of ``other`` ascend, so the first j with i + j at or
        above the truncation ends the row.
        """
        _require_same_ring(self, other)
        kind, truncation = self.kind, self.truncation
        right = [(j, b.num, b.den) for j, b in other.coeffs]
        sums: dict[int, tuple[list[int], int]] = {}
        for (i, a), sigma_i in zip(self.coeffs, _powers(self.twist, [i for i, _ in self.coeffs])):
            a_num, a_den = a.num, a.den
            for j, b_num, b_den in right:
                k = i + j
                if k >= truncation:
                    break
                b_num, b_den = _image(sigma_i, b_num, b_den)
                num = _product(kind, a_num, b_num)
                den = a_den * b_den
                if k in sums:
                    s_num, s_den = sums[k]
                    if s_den == den:
                        num = [x + y for x, y in zip(s_num, num)]
                    else:
                        lcm = math.lcm(s_den, den)
                        p, q = lcm // s_den, lcm // den
                        num = [x * p + y * q for x, y in zip(s_num, num)]
                        den = lcm
                sums[k] = num, den
        return self._of_terms({k: _make(kind, *_lowest(tuple(num), den)) for k, (num, den) in sums.items()})

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


def _ring_kind(kind, twist) -> DivisionAlgebraKind:
    """The built-in kind equal to ``kind``, a copied kind included, once
    ``twist`` is checked to be an Automorphism that acts on it: the one
    gate of every entry point."""
    kind = _builtin(kind)
    if twist.__class__ is not Automorphism:
        raise KindMismatchError(f"a twist must be an Automorphism, got {type(twist).__name__}")
    if twist.kind is not kind:
        raise KindMismatchError("twist acts on a different algebra")
    return kind


def _check_ring(kind, twist, truncation) -> DivisionAlgebraKind:
    """The ring's built-in kind, once the twist is checked to act on it and
    the truncation to be an integer from 1 to MAX_TRUNCATION."""
    kind = _ring_kind(kind, twist)
    # a plain int in range passes here; anything else goes to the full check
    if not (truncation.__class__ is int and 1 <= truncation <= MAX_TRUNCATION):
        require_positive(truncation=truncation)
        if truncation > MAX_TRUNCATION:
            raise ValidationError(f"truncation must be at most {MAX_TRUNCATION}", code="truncation")
    return kind


def _term(kind, truncation: int, exponent, value) -> AlgebraElement:
    """The coefficient of one term as an element of ``kind``, once its
    exponent is checked to be an integer below the truncation and not
    below -MAX_TRUNCATION."""
    # a plain int in range passes here; anything else goes to the full check
    if not (exponent.__class__ is int and -MAX_TRUNCATION <= exponent < truncation):
        require_ints(exponent=exponent)
        if exponent >= truncation:
            raise KindMismatchError(f"exponent {exponent} is not below the truncation {truncation}")
        if exponent < -MAX_TRUNCATION:
            raise ValidationError(f"exponent {exponent} is below {-MAX_TRUNCATION}", code="truncation")
    if isinstance(value, AlgebraElement):
        if value.kind is not kind:
            raise KindMismatchError("coefficient kind does not match the series ring")
        return value
    return element(kind, value, *(0,) * (kind.dim_over_k - 1))


def series(kind, twist, truncation, coeffs) -> TwistedSeries:
    """Build a series from an {exponent: coefficient} mapping.

    Coefficients may be AlgebraElements, ints or Fractions; anything else
    (a float, a string) raises KindMismatchError. Exponents at or above the
    truncation are rejected rather than silently dropped; negative exponents
    produce Laurent series. A truncation above MAX_TRUNCATION or an exponent
    below its negative, also of a sum or product, raises code "truncation".
    Zero coefficients are dropped.

    Each term is checked once: a zero one here, before it is dropped, and
    every other one by the constructor, which gets the terms by exponent.
    An exponent that is no int sorts below every exponent the constructor
    takes, so the sort compares ints alone.
    """
    kind = _check_ring(kind, twist, truncation)
    try:
        items = coeffs.items()
    except AttributeError:
        message = f"coefficients must be an {{exponent: coefficient}} mapping, got {type(coeffs).__name__}"
        raise KindMismatchError(message) from None
    terms = []
    for e, v in items:
        if v.is_zero() if isinstance(v, AlgebraElement) else v == 0:
            _term(kind, truncation, e, v)
        else:
            terms.append((e, v))
    return TwistedSeries(
        kind, twist, truncation, sorted(terms, key=lambda t: t[0] if isinstance(t[0], int) else -MAX_TRUNCATION - 1)
    )


# ---------------------------------------------------------------------------
# Centre computation

class CentreDescription(Record):
    """The centre of D[[T, sigma]]: K[[T^period]] with K the constant subfield."""

    __slots__ = ()

    def __new__(cls, constant_subfield, period):
        return _tuple_new(cls, (constant_subfield, period))


def _kernel(rows: list[list[int]], n: int) -> list[list[int]]:
    """Basis of the null space of an integer matrix, by fraction-free elimination.

    Every equation is homogeneous, so dividing a row by a nonzero integer
    leaves the kernel alone: zero rows are dropped, and each row an
    elimination step changes is divided by the gcd of its entries. The
    vector of a free column c is the primitive integer vector that is
    positive at c and zero at the other free columns, so equal kernels
    give equal bases.
    """
    m = [r for r in rows if any(r)]
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
    """Closed-form basis of K = Z(D) intersect Fix(twist), as coordinate
    vectors in the canonical form ``_kernel`` gives its bases."""
    n = kind.dim_over_k
    e0 = [1] + [0] * (n - 1)
    if kind is COMPLEX and twist.action == "identity":
        return [e0, [0, 1]]
    # every remaining built-in case has K = R
    return [e0]


def _centre_kernels(kind: DivisionAlgebraKind, twist: Automorphism, truncation: int):
    """The kernels of the centre system at s = 0, ..., p - 1: one period.

    c T^s is central when sigma(c) = c and d c = c sigma^s(d) for every
    basis element d. Only the right-hand side depends on s, and only
    through sigma^s. The powers are walked until the first p > 0 with
    sigma^p == sigma^0; then sigma^s = sigma^(s % p) by the group law, so
    the p systems solved are all there are, and the kernel at any s is
    kernels[s % p]. The period is witnessed, not assumed, and a twist
    that never repeats below the truncation is solved at every exponent.

    The rows are integers: sigma^s(d) is taken on numerators by
    ``algebra._image``, the products d e and e sigma^s(d) of basis
    elements by ``algebra._product``, the left ones once per call and the
    right ones once per system, and each equation is scaled by the
    denominator of sigma^s(d), which leaves its solutions alone.
    """
    n = kind.dim_over_k
    nums = [e.num for e in basis(kind)]
    images = [_image(twist, e, 1) for e in nums]
    scale = math.lcm(*(den for _, den in images))
    fix_rows = [
        [num[i] * (scale // den) - scale * (i == j) for j, (num, den) in enumerate(images)]
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
        for d, left in zip(nums, lefts):
            b, den = _image(sigma_s, d, 1)
            right = zip(*(_product(kind, e, b) for e in nums))
            rows += [[x - den * y for x, y in zip(r, l)] for r, l in zip(right, left)]
        kernels.append(_kernel(rows, n))
    return kernels


def centre_basis(kind: DivisionAlgebraKind, twist: Automorphism, truncation: int) -> CentreDescription:
    """Brute-force the centre of D[[T, sigma]] up to T^truncation.

    Solves the exact linear system "commutes with T and with every basis
    element of D" on integer rows once per sigma^s up to the period p that
    _centre_kernels witnesses (sigma^p == sigma^0), and compares the
    solution at T^s with K[[T^r]] as a canonical basis: ``_kernel``'s
    basis of the solutions must equal ``_constant_subfield_basis`` (or be
    empty when r does not divide s) as a list, which a kernel in the right
    span but in another form fails. The system repeats with period p and
    the expected answer with period r, so the exponents s < lcm(p, r) meet
    every pair that any exponent below the truncation meets, and each
    class of s mod lcm(p, r) is compared once. A disagreement raises
    InvariantViolation; inner twists are rejected because their centre
    involves a nontrivial unit (centre R[[uT]] rather than R[[T]]), which
    is out of scope here. A truncation above MAX_TRUNCATION, or too short
    to show two periods, raises ValidationError.
    """
    kind = _ring_kind(kind, twist)
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
        found, expected = kernels[s % p], (expected_k if s % r == 0 else [])
        if found != expected:
            raise InvariantViolation(f"centre basis at T^{s} is {found}, expected {expected}")

    subfield = REAL if len(expected_k) == 1 else COMPLEX
    return CentreDescription(constant_subfield=subfield, period=r)


def dim_over_centre(kind: DivisionAlgebraKind, twist: Automorphism) -> int:
    """Dimension of D((T, sigma)) over its centre: comultiplicity^2 * order^2.

    Cross-checked against the basis count [D : K] * r coming from the basis
    {d_alpha T^s, 0 <= s < r} over K((T^r)).
    """
    kind = _ring_kind(kind, twist)
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

def verify_jordan_twist(kind: DivisionAlgebraKind, twist: Automorphism, n: int) -> bool:
    """Check J^l (a I) = sigma^l(a) J^l on the twisted side-diagonal model.

    A scalar a acts as a I = diag(a, sigma(a), ..., sigma^(n-1)(a)) and T
    as the Jordan block J, whose entries are all 1. So the product
    J^l (a I) is a I shifted: its entry in row i is sigma^(i+l)(a), the
    entry l places further along the list of a I, and reading that list
    from place l is the whole product. The entry of sigma^l(a) J^l in row
    i is sigma^i(sigma^l(a)). The identity is checked for every l < n and
    a running over the basis. Each entry is the (numerators, denominator)
    pair of an element in lowest terms, so sigma^i(a) is taken once for
    each i by ``algebra._image`` and entries compare as pairs of ints,
    with no element built.
    """
    require_ints(n=n)
    if not 1 <= n <= 6:
        raise DomainError("matrix size n must be between 1 and 6")
    kind = _ring_kind(kind, twist)
    powers = list(_powers(twist, range(n)))
    for a in basis(kind):
        images = [_image(sigma, a.num, 1) for sigma in powers]
        for l in range(n):
            num, den = images[l]
            if images[l:] != [_image(sigma, num, den) for sigma in powers[: n - l]]:
                return False
    return True
