"""Random twisted rings through skew_series, against slow dense oracles.

Twists are drawn among the identities of R, C and H, complex conjugation
and inner automorphisms of H by random units, non-primitive ones and ones
with negative entries among them; truncations go up to 24, coefficient
maps are sparse and may hold negative exponents, and Jordan sizes run
from 1 to 6 with the odd size out of range. Products are compared with
the Cauchy product that takes power(sigma, i) afresh for every term,
centre_basis with the centre system solved and checked afresh at every
exponent, and verify_jordan_twist with the same identity on dense list
matrices. Every call must return or raise a CurveError.
"""

from datetime import timedelta
from fractions import Fraction

import fraction_oracle as fo
from fraction_oracle import _in_span
from hypothesis import given, settings
from hypothesis import strategies as st

from wittcurves.algebra import (
    COMPLEX,
    QUATERNION,
    REAL,
    apply,
    basis,
    complex_conjugation,
    element,
    galois_order,
    identity,
    inner,
    one,
    power,
    quat,
)
from wittcurves.errors import CurveError, DomainError, InvariantViolation, ValidationError
from wittcurves.skew_series import (
    CentreDescription,
    _constant_subfield_basis,
    _kernel,
    centre_basis,
    series,
    verify_jordan_twist,
)

FUZZ = settings(derandomize=True, database=None, max_examples=60, deadline=timedelta(seconds=2))

_SMALL = st.integers(-3, 3)
_UNIT = st.tuples(_SMALL, _SMALL, _SMALL, _SMALL).filter(any)
_SCALE = st.sampled_from([1, -1, 2, -6, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def _rings(draw):
    """A (kind, twist) pair: a built-in twist, or an inner one by a scaled unit."""
    choice = draw(st.integers(0, 4))
    if choice == 0:
        return REAL, identity(REAL)
    if choice == 1:
        return COMPLEX, draw(st.sampled_from([identity(COMPLEX), complex_conjugation()]))
    if choice == 2:
        return QUATERNION, identity(QUATERNION)
    scale = draw(_SCALE)
    return QUATERNION, inner(quat(*(scale * c for c in draw(_UNIT))))


def _coefficients(kind):
    return st.tuples(*[_SMALL] * kind.dim_over_k).map(lambda c: element(kind, *c))


def _series(draw, kind, twist, truncation):
    exponents = st.integers(-3, truncation - 1)
    return series(kind, twist, truncation, draw(st.dictionaries(exponents, _coefficients(kind), max_size=6)))


def _product_oracle(f, g):
    """c_k = sum over i+j=k of a_i sigma^i(b_j), sigma^i taken afresh for every term."""
    acc = {}
    z = element(f.kind, *(0,) * f.kind.dim_over_k)
    for i, a in f.coeffs:
        for j, b in g.coeffs:
            if i + j < f.truncation:
                acc[i + j] = acc.get(i + j, z) + a * apply(power(f.twist, i), b)
    return series(f.kind, f.twist, f.truncation, acc)


def _centre_oracle(kind, twist, truncation):
    """The centre system solved at every exponent and each kernel checked there."""
    phi = fo.from_twist(twist)
    r = galois_order(twist)
    expected_k = _constant_subfield_basis(kind, twist)
    for s in range(truncation):
        kernel = _kernel(fo.int_rows(fo.centre_system(phi, s)), kind.dim_over_k)
        expected = expected_k if s % r == 0 else []
        if len(kernel) != len(expected) or not all(_in_span(v, expected) for v in kernel):
            raise InvariantViolation(f"the centre at T^{s} is not the closed form")
    return CentreDescription(REAL if len(expected_k) == 1 else COMPLEX, r)


def _jordan_oracle(kind, twist, n):
    """J^l (a I) = sigma^l(a) J^l on dense list matrices, sigma^i taken afresh."""
    powers = [power(twist, i) for i in range(n)]
    z = element(kind, *(0,) * kind.dim_over_k)

    def side(b, offset):
        return [[apply(powers[i], b) if j == i + offset else z for j in range(n)] for i in range(n)]

    def mul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(n)), z) for j in range(n)] for i in range(n)]

    j, j_power = side(one(kind), 1), side(one(kind), 0)
    for offset in range(n):
        for a in basis(kind):
            if mul(j_power, side(a, 0)) != side(apply(powers[offset], a), offset):
                return False
        j_power = mul(j_power, j)
    return True


@FUZZ
@given(data=st.data(), ring=_rings(), truncation=st.integers(1, 24))
def test_products_match_the_per_term_powers(data, ring, truncation):
    kind, twist = ring
    f = _series(data.draw, kind, twist, truncation)
    g = _series(data.draw, kind, twist, truncation)
    assert f * g == _product_oracle(f, g)


@FUZZ
@given(ring=_rings(), truncation=st.integers(-2, 24))
def test_centres_match_the_per_exponent_check(ring, truncation):
    kind, twist = ring
    try:
        got = centre_basis(kind, twist, truncation)
    except CurveError as exc:
        assert not isinstance(exc, InvariantViolation), exc
        if twist.action == "inner":
            assert isinstance(exc, DomainError)
        else:
            assert isinstance(exc, ValidationError) and truncation < 2 * galois_order(twist)
        return
    assert got == _centre_oracle(kind, twist, truncation)


@FUZZ
@given(ring=_rings(), n=st.integers(0, 7))
def test_jordan_verdicts_match_the_dense_matrices(ring, n):
    kind, twist = ring
    try:
        got = verify_jordan_twist(kind, twist, n)
    except CurveError as exc:
        assert isinstance(exc, DomainError) and not 1 <= n <= 6
        return
    assert got is _jordan_oracle(kind, twist, n) is True
