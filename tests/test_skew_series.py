import math
import random
from fractions import Fraction

import pytest

from wittcurves import skew_series
from wittcurves.algebra import (
    COMPLEX,
    QUATERNION,
    REAL,
    apply_power,
    basis,
    complex_conjugation,
    cplx,
    galois_order,
    identity,
    inner,
    one,
    quat,
    real,
)
from wittcurves.errors import DomainError, InvariantViolation, KindMismatchError, ValidationError
from wittcurves.skew_series import (
    MAX_TRUNCATION,
    _centre_kernels,
    _in_span,
    _kernel,
    _left_mul_matrix,
    _matmul,
    _right_mul_matrix,
    _twist_matrix,
    centre_basis,
    dim_over_centre,
    monomial,
    series,
    valuation,
    verify_jordan_twist,
)

CONJ = complex_conjugation()
BUILTIN_PAIRS = [
    (REAL, identity(REAL)),
    (COMPLEX, identity(COMPLEX)),
    (COMPLEX, CONJ),
    (QUATERNION, identity(QUATERNION)),
]
PAIR_IDS = ["R-id", "C-id", "C-conj", "H-id"]


def test_twist_moves_past_the_variable():
    f = monomial(COMPLEX, CONJ, 8, 1, cplx(0, 1))
    assert f * f == monomial(COMPLEX, CONJ, 8, 2, cplx(1))


def test_untwisted_square_keeps_the_sign():
    f = monomial(COMPLEX, identity(COMPLEX), 8, 1, cplx(0, 1))
    assert f * f == monomial(COMPLEX, identity(COMPLEX), 8, 2, cplx(-1))


def test_products_truncate():
    f = monomial(REAL, identity(REAL), 4, 3)
    assert (f * f).is_zero()


def test_laurent_exponents_allowed():
    f = monomial(COMPLEX, CONJ, 8, -2, cplx(1)) + monomial(COMPLEX, CONJ, 8, 3, cplx(0, 1))
    g = monomial(COMPLEX, CONJ, 8, 2, cplx(1))
    assert (f * g).coeff(0) == cplx(1)


def test_valuation_values():
    t = monomial(REAL, identity(REAL), 8, 1)
    assert valuation(t + t * t) == Fraction(1, 2)
    assert valuation(t * t) == Fraction(1, 4)
    inv = monomial(REAL, identity(REAL), 8, -1)
    assert valuation(inv + series(REAL, identity(REAL), 8, {0: real(1)})) == 2


def test_valuation_of_zero_raises():
    with pytest.raises(DomainError):
        valuation(series(REAL, identity(REAL), 8, {}))


def test_factory_rejects_bad_input():
    with pytest.raises(KindMismatchError):
        series(QUATERNION, CONJ, 8, {})
    with pytest.raises(DomainError):
        series(REAL, identity(REAL), 0, {})
    with pytest.raises(KindMismatchError):
        series(REAL, identity(REAL), 4, {4: real(1)})
    with pytest.raises(KindMismatchError):
        series(COMPLEX, CONJ, 8, {0: real(1)})


def test_zero_coefficients_are_dropped():
    f = series(COMPLEX, CONJ, 8, {0: cplx(0), 2: cplx(1)})
    assert [exp for exp, _ in f.coeffs] == [2]


def test_centre_of_conjugation_twist():
    d = centre_basis(COMPLEX, CONJ, 8)
    assert d.constant_subfield == REAL
    assert d.period == 2


def test_centre_of_untwisted_rings():
    assert centre_basis(QUATERNION, identity(QUATERNION), 8).constant_subfield == REAL
    assert centre_basis(QUATERNION, identity(QUATERNION), 8).period == 1
    assert centre_basis(COMPLEX, identity(COMPLEX), 8).constant_subfield == COMPLEX
    assert centre_basis(REAL, identity(REAL), 8).period == 1


def test_dims_over_centre():
    assert dim_over_centre(COMPLEX, CONJ) == 4
    assert dim_over_centre(QUATERNION, identity(QUATERNION)) == 4
    assert dim_over_centre(REAL, identity(REAL)) == 1
    assert dim_over_centre(COMPLEX, identity(COMPLEX)) == 1


def test_inner_twist_has_no_series_centre_description():
    with pytest.raises(DomainError):
        centre_basis(QUATERNION, inner(quat(0, 1)), 8)


def test_centre_needs_room_for_one_period():
    for kind, twist in BUILTIN_PAIRS:
        for truncation in (-5, 0, 2 * galois_order(twist) - 1):
            with pytest.raises(ValidationError) as exc:
                centre_basis(kind, twist, truncation)
            assert exc.value.code == "truncation"
    assert centre_basis(COMPLEX, CONJ, 4).period == 2
    assert centre_basis(REAL, identity(REAL), 2).period == 1


def test_jordan_twist_checks():
    assert verify_jordan_twist(COMPLEX, CONJ, 3)
    assert verify_jordan_twist(QUATERNION, identity(QUATERNION), 4)
    assert verify_jordan_twist(QUATERNION, inner(quat(0, 1)), 4)
    with pytest.raises(DomainError):
        verify_jordan_twist(COMPLEX, CONJ, 0)
    with pytest.raises(DomainError):
        verify_jordan_twist(COMPLEX, CONJ, 7)


def test_jordan_twist_holds_for_every_size_and_several_units():
    units = [(0, 1, 0, 0), (1, 1, 0, 0), (1, 2, -1, 3), (0, 0, 3, -2), (2, -1, 1, 1)]
    for n in range(1, 7):
        for unit in units:
            assert verify_jordan_twist(QUATERNION, inner(quat(*unit)), n), (n, unit)


def test_sparse_matmul_matches_the_dense_product():
    rng = random.Random(5)

    def entry():
        if rng.random() < 0.6:
            return quat(0)
        return quat(*(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)))

    for n in (1, 2, 3, 5, 6):
        for _ in range(10):
            a = [[entry() for _ in range(n)] for _ in range(n)]
            b = [[entry() for _ in range(n)] for _ in range(n)]
            dense = [
                [sum((a[i][k] * b[k][j] for k in range(n)), quat(0)) for j in range(n)]
                for i in range(n)
            ]
            assert _matmul(QUATERNION, a, b) == dense


def _fraction_kernel(rows, n):
    """The null space by Gauss-Jordan elimination on Fractions, free entries 1."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(n):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        m[rank] = [v / m[rank][col] for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
    out = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        out.append(vec)
    return out


def test_fraction_free_kernel_matches_the_fraction_elimination():
    rng = random.Random(4242)

    def value():
        if rng.random() < 0.4:
            return 0
        v = rng.randint(-9, 9)
        return Fraction(v, rng.choice([1, 2, 3, 7, 10**9 + 7])) if rng.random() < 0.3 else v

    for _ in range(300):
        n = rng.randint(1, 5)
        base = [[value() for _ in range(n)] for _ in range(rng.randint(0, 3))]
        # rows that repeat others' combinations, so the rank often falls short
        rows = base + [
            [sum((rng.randint(-2, 2) * b[c] for b in base), 0) for c in range(n)]
            for _ in range(rng.randint(0, 4))
        ]
        rng.shuffle(rows)
        got, want = _kernel(rows, n), _fraction_kernel(rows, n)
        assert len(got) == len(want)
        for vec, expected in zip(got, want):
            assert all(type(v) is int for v in vec) and math.gcd(*vec) == 1
            scale = next(v for v in expected if v != 0)
            factor = next(v for v in vec if v != 0) / scale
            assert factor > 0 and [factor * v for v in expected] == vec


def test_span_check_with_leads_other_than_one():
    assert _in_span([2, 4, 0], [[2, 4, 0]])
    assert _in_span([Fraction(1, 3), Fraction(2, 3)], [[3, 6]])
    assert _in_span([6, 3, 9], [[2, 1, 0], [0, 0, 3]])
    assert _in_span([0, 0], [])
    assert not _in_span([1, 2, 1], [[3, 6, 0]])
    assert not _in_span([6, 4, 9], [[2, 1, 0], [0, 0, 3]])
    assert not _in_span([1, 0], [])


def _random_series(rng, trunc):
    coeffs = {}
    for exp in rng.sample(range(trunc), rng.randint(1, 4)):
        coeffs[exp] = cplx(rng.randint(-5, 5), rng.randint(-5, 5))
    return series(COMPLEX, CONJ, trunc, coeffs)


def test_ring_laws_hold_for_random_series():
    rng = random.Random(8160)
    trunc = 8
    for _ in range(100):
        f, g, h = (_random_series(rng, trunc) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        if not f.is_zero() and not g.is_zero() and not (f * g).is_zero():
            assert valuation(f * g) == valuation(f) * valuation(g)


def test_centre_truncation_ceiling():
    with pytest.raises(ValidationError) as exc:
        centre_basis(COMPLEX, CONJ, MAX_TRUNCATION + 1)
    assert exc.value.code == "truncation"


def _per_exponent_kernels(kind, twist, truncation):
    """The centre system solved afresh at every exponent, tables and all."""
    n = kind.dim_over_k
    twist_m = _twist_matrix(kind, twist)
    fix_rows = [[twist_m[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    kernels = []
    for s in range(truncation):
        rows = [row[:] for row in fix_rows]
        for d in basis(kind):
            right = _right_mul_matrix(kind, apply_power(twist, s, d))
            left = _left_mul_matrix(kind, d)
            rows.extend([a - b for a, b in zip(right[i], left[i])] for i in range(n))
        kernels.append(_kernel(rows, n))
    return kernels


@pytest.mark.parametrize("kind, twist", BUILTIN_PAIRS, ids=PAIR_IDS)
def test_centre_kernels_match_the_per_exponent_solve(kind, twist):
    oracle = _per_exponent_kernels(kind, twist, 64)
    for truncation in range(8, 65):
        assert _centre_kernels(kind, twist, truncation) == oracle[:truncation]


@pytest.mark.parametrize("kind, twist", BUILTIN_PAIRS, ids=PAIR_IDS)
def test_wrong_period_trips_the_centre_check(monkeypatch, kind, twist):
    monkeypatch.setattr(skew_series, "galois_order", lambda phi: 3)
    with pytest.raises(InvariantViolation):
        centre_basis(kind, twist, 8)


@pytest.mark.parametrize("claimed", [1, 4])
def test_conjugation_period_is_witnessed_not_assumed(monkeypatch, claimed):
    # kernels looked up by s % claimed would take the claim on trust
    monkeypatch.setattr(skew_series, "galois_order", lambda phi: claimed)
    with pytest.raises(InvariantViolation):
        centre_basis(COMPLEX, CONJ, 8)


@pytest.mark.parametrize("kind, twist", BUILTIN_PAIRS, ids=PAIR_IDS)
def test_wrong_constant_subfield_trips_the_centre_check(monkeypatch, kind, twist):
    # the last basis line: of the wrong dimension on C/id, of the right
    # dimension but the wrong span on C/conj and H/id; R gets no line at all
    n = kind.dim_over_k
    wrong = [[Fraction(int(i == n - 1)) for i in range(n)]] if n > 1 else []
    monkeypatch.setattr(skew_series, "_constant_subfield_basis", lambda k, t: wrong)
    with pytest.raises(InvariantViolation):
        centre_basis(kind, twist, 8)
