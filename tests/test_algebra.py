import random
from fractions import Fraction

import pytest

from wittcurves.algebra import (
    COMPLEX,
    QUATERNION,
    REAL,
    Automorphism,
    abstract_kind,
    apply,
    apply_power,
    basis,
    complex_conjugation,
    comultiplicity,
    cplx,
    element,
    galois_order,
    identity,
    inner,
    one,
    power,
    quat,
    real,
    zero,
)
from wittcurves.errors import InvariantViolation, KindMismatchError


def test_quaternion_units():
    i, j = quat(0, 1), quat(0, 0, 1)
    k = quat(0, 0, 0, 1)
    assert i * j == k
    assert j * i == -k
    assert i * i == -one(QUATERNION)
    assert j * j == -one(QUATERNION)
    assert k * k == -one(QUATERNION)


def test_complex_product():
    assert cplx(1, 1) * cplx(1, -1) == cplx(2)
    assert cplx(0, 1) * cplx(0, 1) == cplx(-1)


def test_real_is_one_dimensional():
    assert real(Fraction(3, 2)) * real(2) == real(3)
    with pytest.raises(KindMismatchError):
        real(1) + cplx(1)


def test_element_arity_checked():
    with pytest.raises(KindMismatchError):
        element(QUATERNION, 1, 2)
    with pytest.raises(KindMismatchError):
        element(COMPLEX, 1, 2, 3)


def test_invert_example():
    a = quat(1, 1, 1)
    third = Fraction(1, 3)
    assert a.inverse() == quat(third, -third, -third, 0)
    assert a * a.inverse() == one(QUATERNION)


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        zero(QUATERNION).inverse()


def test_conjugate_and_norm():
    a = quat(1, 2, 3, 4)
    assert a.norm() == 30
    assert a * a.conjugate() == quat(30)
    assert cplx(3, 4).norm() == 25


def test_comultiplicities():
    assert comultiplicity(QUATERNION) == 2
    assert comultiplicity(COMPLEX) == 1
    assert comultiplicity(REAL) == 1


def test_comultiplicity_squares_to_dimension_ratio():
    for kind in (REAL, COMPLEX, QUATERNION):
        e_star = comultiplicity(kind)
        assert e_star * e_star * kind.dim_centre_over_k == kind.dim_over_k


def test_abstract_kind_validation():
    k = abstract_kind(8, 2, "M2(F)")
    assert comultiplicity(k) == 2
    with pytest.raises(InvariantViolation):
        abstract_kind(3, 1)
    with pytest.raises(InvariantViolation):
        abstract_kind(4, 3)


def test_galois_orders():
    assert galois_order(identity(COMPLEX)) == 1
    assert galois_order(complex_conjugation()) == 2
    assert galois_order(inner(quat(0, 1))) == 1


def test_conjugation_action():
    sigma = complex_conjugation()
    assert apply(sigma, cplx(2, 5)) == cplx(2, -5)
    assert apply_power(sigma, 2, cplx(2, 5)) == cplx(2, 5)
    assert apply_power(sigma, -1, cplx(0, 1)) == cplx(0, -1)


def test_inner_action_by_i():
    phi = inner(quat(0, 1))
    i, j, k = quat(0, 1), quat(0, 0, 1), quat(0, 0, 0, 1)
    assert apply(phi, i) == i
    assert apply(phi, j) == -j
    assert apply(phi, k) == -k


def test_power_is_repeated_application():
    rng = random.Random(11)
    twists = [identity(QUATERNION), inner(quat(0, 1)), inner(quat(1, 2, -1, 3)), inner(quat(Fraction(1, 2), 0, 3))]
    for phi in twists:
        inverse = inner(phi.unit.inverse()) if phi.action == "inner" else phi
        for n in range(-7, 8):
            a = quat(*(rng.randint(-4, 4) for _ in range(4)))
            expected = a
            for _ in range(abs(n)):
                expected = apply(phi if n >= 0 else inverse, expected)
            assert apply(power(phi, n), a) == expected
            assert apply_power(phi, n, a) == expected
    sigma = complex_conjugation()
    assert power(sigma, 4) == identity(COMPLEX)
    assert power(sigma, -3) == sigma
    assert power(identity(REAL), 5) == identity(REAL)


def test_inner_unit_is_normalized():
    assert inner(quat(0, 2)).unit == quat(0, 1)
    assert inner(quat(Fraction(1, 2), Fraction(1, 2))).unit == quat(1, 1)
    with pytest.raises(KindMismatchError):
        inner(cplx(0, 1))


def _random_quat(rng):
    return quat(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)))


def test_quaternion_arithmetic_laws():
    rng = random.Random(20260816)
    phi = inner(quat(1, 1, 1))
    for _ in range(200):
        a, b, c = (_random_quat(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert (a * b).norm() == a.norm() * b.norm()
        assert apply(phi, a * b) == apply(phi, a) * apply(phi, b)
        if not a.is_zero():
            assert a * a.inverse() == one(QUATERNION)


def test_basis_multiplication_table_is_closed():
    table = basis(QUATERNION)
    for x in table:
        for y in table:
            prod = x * y
            assert sum(abs(c) for c in prod.coeffs) == 1


def test_inner_rotation_matches_the_hamilton_products():
    rng = random.Random(5150)
    checked = 0
    while checked < 500:
        u = _random_quat(rng)
        if u.is_zero():
            continue
        if checked % 3 == 0:
            # a rescaled unit, which inner() normalises back
            u = u * rng.choice([2, 3, -6, Fraction(7, 2)])
        a = _random_quat(rng)
        assert apply(inner(u), a) == u.inverse() * a * u
        checked += 1


def test_direct_inner_automorphism_applies():
    rng = random.Random(77)
    for u in (quat(0, 1), quat(2, 4, 0, -6), quat(Fraction(1, 3), Fraction(-5, 7), 2, 1)):
        phi = Automorphism(QUATERNION, "inner", u)
        assert phi == inner(u)
        for _ in range(20):
            a = _random_quat(rng)
            assert apply(phi, a) == u.inverse() * a * u
            assert phi(a) == apply(inner(u), a)
    with pytest.raises(ZeroDivisionError):
        Automorphism(QUATERNION, "inner", zero(QUATERNION))


def test_rotation_leaves_equality_hash_and_repr_alone():
    u = quat(1, 2, -1, 3)
    assert inner(u) == inner(3 * u)
    assert hash(inner(u)) == hash(inner(3 * u))
    assert repr(inner(3 * u)) == "Automorphism(kind=ℍ, action='inner', unit=1 + 2i - j + 3k)"
    assert inner(u) != inner(quat(1, 2, -1, 4))
