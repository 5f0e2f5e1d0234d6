"""The integer core of wittcurves.algebra against the Fraction oracle.

Elements are stored as integer numerators over one denominator; the
oracle (tests/fraction_oracle.py) does the same arithmetic on Fraction
coefficients. Seeded random elements of R, C and H, with mixed signs,
zero coordinates, zero elements and large coprime denominators, must
give the same coefficients both ways.
"""

import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

import fraction_oracle as fo
from wittcurves import algebra
from wittcurves.algebra import (
    COMPLEX,
    QUATERNION,
    REAL,
    AlgebraElement,
    _powers,
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
)
from wittcurves.errors import KindMismatchError, ValidationError
from wittcurves.skew_series import MAX_TRUNCATION, series

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


UNITS = [(1, 1, 0, 0), (0, 2, 0, 0), (1, 2, -1, 3), (-2, -3, 1, 3), (Fraction(1, 2), 0, Fraction(-3, 2), 1)]


@pytest.mark.parametrize("coeffs", UNITS, ids=[str(u) for u in UNITS])
def test_reduced_powers_match_repeated_application_and_the_unreduced_powering(coeffs):
    # fo.power squares the unit and normalises only at the end
    u = quat(*coeffs)
    phi, fphi = inner(u), fo.inner(fo.OracleElement(4, tuple(Fraction(c) for c in coeffs)))
    inverse = inner(u.conjugate())
    for sign, step in ((1, phi), (-1, inverse)):
        images = list(basis(QUATERNION))
        for m in range(41):
            n = sign * m
            phi_n = power(phi, n)
            assert phi_n.unit.coeffs == fo.power(fphi, n).unit.coeffs
            assert [apply(phi_n, e) for e in basis(QUATERNION)] == images
            images = [apply(step, a) for a in images]


def test_power_of_a_finite_order_unit_stays_small(monkeypatch):
    widest = [0]
    hamilton = algebra._hamilton

    def measured(a, b):
        out = hamilton(a, b)
        widest[0] = max(widest[0], *(abs(v).bit_length() for v in out))
        return out

    monkeypatch.setattr(algebra, "_hamilton", measured)
    phi = inner(quat(1, 1))  # its rotation has order 4
    assert power(phi, 1000).unit == quat(1)
    assert widest[0] <= 3  # unreduced, (1 + i)^1000 has entries of 501 bits
    assert power(phi, 10**9).unit.num == (1, 0, 0, 0)
    assert power(phi, 10**9 + 1).unit == quat(1, 1)
    assert power(phi, -(10**9) - 2).unit == quat(0, 1)
    assert widest[0] <= 3


def test_the_power_ceiling_holds_exactly_the_twists_of_infinite_order():
    # every rotation of finite order has order 1, 2, 3, 4 or 6, so twelve
    # powers find it; past the ceiling the others are refused, and these
    # take any power
    above = algebra.MAX_INNER_POWER + 1
    for v in itertools.product(range(-3, 4), repeat=4):
        if not any(v):
            continue
        u = quat(*v)
        order = next((k for k in range(1, 13) if power(inner(u), k).unit == quat(1)), None)
        if order is None:
            with pytest.raises(ValidationError):
                power(inner(u), above)
        else:
            for n in (above, 10**9 + 1, -(10**30) - 5):
                assert power(inner(u), n) == power(inner(u), n % order)


def test_an_inner_twist_of_infinite_order_is_powered_up_to_a_ceiling():
    assert algebra.MAX_INNER_POWER >= MAX_TRUNCATION
    phi = inner(quat(1, 2))  # cos t = -3/5: no power of the rotation is the identity
    # at the ceiling, the power is the last of the successive ones
    top = algebra.MAX_INNER_POWER
    assert power(phi, top) == list(_powers(phi, range(top + 1)))[-1]
    assert power(phi, -top) == power(inner(quat(1, -2)), top)
    for n in (algebra.MAX_INNER_POWER + 1, -algebra.MAX_INNER_POWER - 1, 10**5, 10**9):
        with pytest.raises(ValidationError) as exc:
            power(phi, n)
        assert exc.value.code == "too-large"
        with pytest.raises(ValidationError) as exc:
            algebra.apply_power(phi, n, quat(0, 1))
        assert exc.value.code == "too-large"


@pytest.mark.parametrize(
    "phi",
    [identity(REAL), identity(COMPLEX), complex_conjugation(), identity(QUATERNION),
     inner(quat(0, 1)), inner(quat(1, 2, -1, 3)), inner(quat(-4, 0, 2, 6))],
    ids=["R-id", "C-id", "C-conj", "H-id", "i", "1+2i-j+3k", "-4+2j+6k"],
)
def test_successive_powers_equal_the_binary_powers(phi):
    sequences = (range(12), range(-7, 5), range(3, 9), range(-4, -1), range(2, 2), (-9, -3, 0, 1, 2, 5, 8, 30), (4, 7, 10))
    for exponents in sequences:
        assert list(_powers(phi, exponents)) == [power(phi, e) for e in exponents]


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
        quat(0),
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
    assert real(0) == real(Fraction(0, 9)) and hash(real(0)) == hash(real(Fraction(0, 9)))
    assert quat(1) != cplx(1) and quat(1, 1) != quat(1, 2)
    assert quat(1) != quat(Fraction(1, 2)) and quat(1, 3) != quat(1, 3) * Fraction(1, 7)


def test_elements_are_immutable_and_copy_whole():
    a = quat(1, 2) * Fraction(1, 3)
    with pytest.raises(AttributeError):
        a.num = (0, 0, 0, 0)
    with pytest.raises(AttributeError):
        a.den = 2
    with pytest.raises(AttributeError):
        del a.num
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a) and b.kind is QUATERNION


@pytest.mark.parametrize("other", [0.5, "1", None, (1, 0, 0, 0), complex(1, 0)], ids=repr)
def test_an_element_meets_no_other_kind_of_value(other):
    # ints and Fractions scale an element; anything else neither equals nor multiplies it
    a = quat(1, 2)
    assert a != other and not a == other
    for product in (lambda: a * other, lambda: other * a):
        with pytest.raises(TypeError):
            product()


def test_an_automorphism_applies_to_its_own_algebra_only():
    for phi, a in ((identity(REAL), cplx(1, 2)), (complex_conjugation(), quat(1, 2)), (inner(quat(0, 1)), cplx(1))):
        with pytest.raises(KindMismatchError):
            apply(phi, a)


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
        series(COMPLEX, complex_conjugation(), 4, {1: bad})


def test_series_coefficients_accept_ints_and_fractions():
    twist = identity(QUATERNION)
    f = series(QUATERNION, twist, 4, {0: 3, 1: Fraction(1, 3), 2: quat(0, 1)})
    assert f.coeffs == ((0, quat(3)), (1, quat(Fraction(1, 3))), (2, quat(0, 1)))
