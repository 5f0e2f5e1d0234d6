"""The integer core of wittcurves.algebra against the Fraction oracle.

Elements are stored as integer numerators over one denominator; the
oracle (tests/fraction_oracle.py) does the same arithmetic on Fraction
coefficients. Seeded random elements of R, C and H, with mixed signs,
zero coordinates, zero elements and large coprime denominators, must
give the same coefficients both ways.
"""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

import fraction_oracle as fo
from wittcurves.algebra import (
    COMPLEX,
    QUATERNION,
    REAL,
    AlgebraElement,
    apply,
    basis,
    complex_conjugation,
    cplx,
    element,
    identity,
    inner,
    one,
    power,
    quat,
    real,
    zero,
)
from wittcurves.errors import KindMismatchError
from wittcurves.skew_series import monomial, series

KINDS = [REAL, COMPLEX, QUATERNION]
KIND_IDS = ["R", "C", "H"]
# small ones, and large pairwise coprime ones whose products stay distinct
DENOMINATORS = [1, 1, 2, 3, 7, 12, 10**9 + 7, 998244353, 2**61 - 1]


def _rational(rng):
    if rng.random() < 0.2:
        return Fraction(0)
    return Fraction(rng.randint(-(10**12), 10**12), rng.choice(DENOMINATORS))


def _pair(rng, kind):
    """The same random element in the core and in the oracle."""
    n = kind.dim_over_k
    coeffs = [Fraction(0)] * n if rng.random() < 0.05 else [_rational(rng) for _ in range(n)]
    return AlgebraElement(kind, tuple(coeffs)), fo.OracleElement(n, tuple(coeffs))


def _assert_stored_form(a):
    assert a.den > 0 and math.gcd(a.den, *a.num) == 1
    assert all(type(v) is int for v in a.num)
    assert all(type(c) is Fraction for c in a.coeffs)


def _same(a, expected):
    _assert_stored_form(a)
    assert a.coeffs == expected.coeffs


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_ring_operations_match_the_oracle(kind):
    rng = random.Random(6100 + kind.dim_over_k)
    for _ in range(400):
        (a, fa), (b, fb) = _pair(rng, kind), _pair(rng, kind)
        _same(a * b, fa * fb)
        _same(a + b, fa + fb)
        _same(a - b, fa - fb)
        _same(-a, -fa)
        _same(a.conjugate(), fa.conjugate())
        assert a.norm() == fa.norm() and type(a.norm()) is Fraction
        scalar = _rational(rng)
        _same(a * scalar, fa * scalar)
        _same(scalar * a, fa * scalar)
        _same(a * 7, fa * 7)
        assert a.is_zero() == fa.is_zero()
        if fa.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            _same(a.inverse(), fa.inverse())


def _random_unit(rng):
    while True:
        u, fu = _pair(rng, QUATERNION)
        if not fu.is_zero():
            return u, fu


def test_inner_apply_and_powers_match_the_oracle():
    rng = random.Random(6104)
    for _ in range(40):
        u, fu = _random_unit(rng)
        phi, fphi = inner(u), fo.inner(fu)
        assert phi.unit.coeffs == fphi.unit.coeffs
        for n in range(-9, 10):
            phi_n, fphi_n = power(phi, n), fo.power(fphi, n)
            assert phi_n.unit.coeffs == fphi_n.unit.coeffs
            a, fa = _pair(rng, QUATERNION)
            _same(apply(phi_n, a), fo.apply(fphi_n, fa))
        a, fa = _pair(rng, QUATERNION)
        _same(apply(phi, a), fo.apply(fphi, fa))


@pytest.mark.parametrize(
    "phi, fphi",
    [
        (complex_conjugation(), fo.OracleAutomorphism("conj", 2)),
        (identity(COMPLEX), fo.OracleAutomorphism("identity", 2)),
        (identity(QUATERNION), fo.OracleAutomorphism("identity", 4)),
        (identity(REAL), fo.OracleAutomorphism("identity", 1)),
    ],
    ids=["C-conj", "C-id", "H-id", "R-id"],
)
def test_outer_apply_and_powers_match_the_oracle(phi, fphi):
    rng = random.Random(6105)
    for n in range(-9, 10):
        phi_n, fphi_n = power(phi, n), fo.power(fphi, n)
        assert phi_n.action == fphi_n.action
        for _ in range(10):
            a, fa = _pair(rng, phi.kind)
            _same(apply(phi_n, a), fo.apply(fphi_n, fa))


def test_coeffs_are_always_fractions():
    for a in (
        AlgebraElement(QUATERNION, (1, 2, 3, 4)),
        AlgebraElement(COMPLEX, [Fraction(1, 2), 3]),
        quat(1, 2, 3, 4),
        real(5),
        zero(QUATERNION),
        one(COMPLEX),
        *basis(QUATERNION),
        quat(1, 2) * quat(0, 0, 3),
        apply(inner(quat(1, 1, 2)), quat(0, 1)),
    ):
        _assert_stored_form(a)
    assert AlgebraElement(QUATERNION, (1, 2, 3, 4)).coeffs == tuple(map(Fraction, (1, 2, 3, 4)))


def test_equal_elements_hash_equal_however_built():
    half = Fraction(1, 2)
    ways = [
        quat(half, 1),
        AlgebraElement(QUATERNION, (Fraction(2, 4), Fraction(3, 3), 0, Fraction(0, 5))),
        quat(1, 2) * half,
        half * quat(1, 2),
        (quat(1, 2) + quat(1, 2)) * Fraction(1, 4),
        quat(3, 2) - quat(Fraction(5, 2), 1),
        quat(half, 1).inverse().inverse(),
        quat(0, half) * quat(0, -1) + quat(0, 1),
        apply(inner(quat(0, 1)), quat(half, 1)),
    ]
    for a in ways:
        assert a == ways[0]
        assert hash(a) == hash(ways[0])
    rng = random.Random(6106)
    for _ in range(200):
        (a, _), (b, fb) = _pair(rng, QUATERNION), _pair(rng, QUATERNION)
        if fb.is_zero():
            continue
        back = a * b * b.inverse()
        assert back == a and hash(back) == hash(a)
    assert zero(REAL) == real(0) and hash(zero(REAL)) == hash(real(Fraction(0, 9)))
    assert quat(1) != cplx(1) and quat(1, 1) != quat(1, 2)
    assert quat(1) != quat(Fraction(1, 2)) and quat(1, 3) != quat(1, 3) * Fraction(1, 7)


def test_elements_are_immutable_and_copy_whole():
    a = quat(1, 2) * Fraction(1, 3)
    with pytest.raises(AttributeError):
        a.num = (0, 0, 0, 0)
    with pytest.raises(AttributeError):
        a.den = 2
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a) and b.kind is QUATERNION


@pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, float("nan"), "1/2", complex(1, 0), True, None])
def test_public_constructors_reject_inexact_coefficients(bad):
    for build in (
        lambda: AlgebraElement(QUATERNION, (bad, 2, 3, 4)),
        lambda: AlgebraElement(REAL, (bad,)),
        lambda: element(COMPLEX, 1, bad),
        lambda: real(bad),
        lambda: cplx(bad),
        lambda: cplx(1, bad),
        lambda: quat(bad),
        lambda: quat(1, 2, 3, bad),
    ):
        with pytest.raises(KindMismatchError):
            build()


@pytest.mark.parametrize("bad", [0.1, 2.0, "3", True])
def test_series_coefficients_reject_inexact_values(bad):
    twist = identity(QUATERNION)
    with pytest.raises(KindMismatchError):
        series(QUATERNION, twist, 4, {0: bad})
    with pytest.raises(KindMismatchError):
        series(QUATERNION, twist, 4, {0: 1, 2: bad})
    with pytest.raises(KindMismatchError):
        monomial(COMPLEX, complex_conjugation(), 4, 1, bad)


def test_series_coefficients_accept_ints_and_fractions():
    twist = identity(QUATERNION)
    f = series(QUATERNION, twist, 4, {0: 3, 1: Fraction(1, 3), 2: quat(0, 1)})
    assert f.coeffs == ((0, quat(3)), (1, quat(Fraction(1, 3))), (2, quat(0, 1)))
