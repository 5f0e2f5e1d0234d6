import math
import pickle
import random
from fractions import Fraction

import fraction_oracle as fo
from fraction_oracle import _in_span
import pytest
from test_weighted_curve import _calls

from wittcurves import algebra, skew_series
from wittcurves.algebra import (
    COMPLEX,
    QUATERNION,
    REAL,
    AlgebraElement,
    Automorphism,
    apply,
    complex_conjugation,
    cplx,
    galois_order,
    identity,
    inner,
    one,
    power,
    quat,
    real,
)
from wittcurves.errors import CurveError, DomainError, InvariantViolation, KindMismatchError, ValidationError
from wittcurves.skew_series import (
    MAX_TRUNCATION,
    TwistedSeries,
    _centre_kernels,
    _constant_subfield_basis,
    _kernel,
    centre_basis,
    dim_over_centre,
    series,
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
    f = series(COMPLEX, CONJ, 8, {1: cplx(0, 1)})
    assert f * f == series(COMPLEX, CONJ, 8, {2: cplx(1)})


def test_untwisted_square_keeps_the_sign():
    f = series(COMPLEX, identity(COMPLEX), 8, {1: cplx(0, 1)})
    assert f * f == series(COMPLEX, identity(COMPLEX), 8, {2: cplx(-1)})


def test_products_truncate():
    f = series(REAL, identity(REAL), 4, {3: 1})
    assert not (f * f).coeffs


def test_laurent_exponents_allowed():
    f = series(COMPLEX, CONJ, 8, {-2: cplx(1)}) + series(COMPLEX, CONJ, 8, {3: cplx(0, 1)})
    g = series(COMPLEX, CONJ, 8, {2: cplx(1)})
    assert dict((f * g).coeffs)[0] == cplx(1)


def test_valuation_values():
    # the valuation is (1/2)^l for the least exponent l of the series
    t = series(REAL, identity(REAL), 8, {1: 1})
    assert (t + t * t).coeffs[0][0] == 1
    assert (t * t).coeffs[0][0] == 2
    inv = series(REAL, identity(REAL), 8, {-1: 1})
    assert (inv + series(REAL, identity(REAL), 8, {0: real(1)})).coeffs[0][0] == -1


def test_factory_rejects_bad_input():
    with pytest.raises(KindMismatchError):
        series(QUATERNION, CONJ, 8, {})
    # a truncation below 1 is refused as every other positivity check refuses
    with pytest.raises(ValidationError) as exc:
        series(REAL, identity(REAL), 0, {})
    assert (exc.value.code, str(exc.value)) == ("nonpositive", "truncation must be a positive integer")
    with pytest.raises(KindMismatchError):
        series(REAL, identity(REAL), 4, {4: real(1)})
    with pytest.raises(KindMismatchError):
        series(COMPLEX, CONJ, 8, {0: real(1)})
    for coeffs in ([1], None, ((0, 1),)):
        with pytest.raises(KindMismatchError):
            series(REAL, identity(REAL), 4, coeffs)
    # the ceiling: a truncation above MAX_TRUNCATION or an exponent below its negative
    for truncation, exponent in ((MAX_TRUNCATION + 1, 0), (10**12, 0), (8, -MAX_TRUNCATION - 1), (8, -10**11)):
        with pytest.raises(ValidationError) as exc:
            series(REAL, identity(REAL), truncation, {exponent: real(1)})
        assert exc.value.code == "truncation"
        with pytest.raises(ValidationError) as exc:
            series(QUATERNION, inner(quat(1, 1, 0, 0)), truncation, {exponent: 1})
        assert exc.value.code == "truncation"
    edge = series(QUATERNION, inner(quat(1, 1, 0, 0)), MAX_TRUNCATION, {-MAX_TRUNCATION: 1})
    assert edge.coeffs[0][0] == -MAX_TRUNCATION
    with pytest.raises(ValidationError) as exc:
        edge * edge  # the product's exponent falls below the ceiling
    assert exc.value.code == "truncation"


def test_coefficient_lookups_and_the_zero_series():
    f = series(COMPLEX, CONJ, 8, {0: 1, 3: cplx(2, -1)})
    assert dict(f.coeffs)[3] == cplx(2, -1) and 5 not in dict(f.coeffs)
    zero_series = series(COMPLEX, CONJ, 8, {0: cplx(0)})
    assert not zero_series.coeffs and repr(zero_series) == "0"


def test_repr_of_a_laurent_quaternion_series():
    f = series(QUATERNION, identity(QUATERNION), 8, {-2: quat(0, 0, -1), 0: 2, 1: 1, 3: quat(1, 1)})
    assert repr(f) == "(-j)T^-2 + (2) + T + (1 + i)T^3"


@pytest.mark.parametrize("other", [
    series(COMPLEX, identity(COMPLEX), 8, {0: 1}),
    series(COMPLEX, CONJ, 4, {0: 1}),
    series(QUATERNION, identity(QUATERNION), 8, {0: 1}),
], ids=["twist", "truncation", "kind"])
def test_series_of_different_rings_do_not_meet(other):
    f = series(COMPLEX, CONJ, 8, {1: 1})
    for combine in (lambda: f + other, lambda: f * other, lambda: other * f):
        with pytest.raises(KindMismatchError):
            combine()


# (truncation, twist, {exponent: coefficient}) that series() refuses
REFUSED = [
    (8, identity(QUATERNION), {0: 1.5}),
    (8, identity(QUATERNION), {0: "1"}),
    (8, identity(QUATERNION), {1: cplx(1)}),
    (8, identity(QUATERNION), {8: quat(1)}),
    (8, identity(QUATERNION), {8: 0}),
    (8, identity(QUATERNION), {1.0: quat(1)}),
    (8, identity(QUATERNION), {True: quat(1)}),
    (8, identity(QUATERNION), {-MAX_TRUNCATION - 1: quat(1)}),
    (MAX_TRUNCATION + 1, identity(QUATERNION), {0: quat(1)}),
    (0, identity(QUATERNION), {}),
    (8.0, identity(QUATERNION), {}),
    (8, CONJ, {}),
]


def _refusal(build):
    with pytest.raises(Exception) as exc:
        build()
    return type(exc.value), getattr(exc.value, "code", None)


@pytest.mark.parametrize("truncation, twist, coeffs", REFUSED)
def test_the_constructor_refuses_what_series_refuses(truncation, twist, coeffs):
    by_series = _refusal(lambda: series(QUATERNION, twist, truncation, coeffs))
    by_constructor = _refusal(lambda: TwistedSeries(QUATERNION, twist, truncation, tuple(coeffs.items())))
    assert by_constructor == by_series
    assert by_series[0] in (KindMismatchError, ValidationError, DomainError)


def test_series_checks_each_term_once(monkeypatch):
    checked = []
    real_term = skew_series._term
    monkeypatch.setattr(skew_series, "_term", lambda *args: checked.append(args[2]) or real_term(*args))
    f = series(QUATERNION, identity(QUATERNION), 8, {5: 1, 0: quat(0), 2: quat(1, 2), -1: Fraction(0), 3: 4})
    # the zero terms here, before they are dropped, and the others by the constructor
    assert checked == [0, -1, 2, 3, 5]
    assert [e for e, _ in f.coeffs] == [2, 3, 5]


@pytest.mark.parametrize("exponent", ["a", None, 1.5, Fraction(1, 2), (1,)])
def test_series_refuses_an_exponent_that_is_no_int_among_int_ones(exponent):
    for coeffs in ({0: 1, exponent: 1, 3: 2}, {3: 2, exponent: 0}):
        with pytest.raises(ValidationError) as exc:
            series(QUATERNION, identity(QUATERNION), 8, coeffs)
        assert exc.value.code == "not-integer"


# every entry point that takes a kind and a twist, on a fixed truncation and terms
ENTRY_POINTS = {
    "TwistedSeries": lambda kind, twist: TwistedSeries(kind, twist, 8, ((0, 1), (3, 2))),
    "series": lambda kind, twist: series(kind, twist, 8, {3: 2, 0: 1}),
    "centre_basis": lambda kind, twist: centre_basis(kind, twist, 8),
    "dim_over_centre": dim_over_centre,
    "verify_jordan_twist": lambda kind, twist: verify_jordan_twist(kind, twist, 3),
}


def _outcome(call):
    try:
        return call()
    except CurveError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("kind, twist", BUILTIN_PAIRS + [
    (QUATERNION, inner(quat(1, 1))), (QUATERNION, CONJ), (REAL, CONJ),
], ids=PAIR_IDS + ["H-inner", "H-conj", "R-conj"])
def test_a_copied_kind_gets_what_the_built_in_gets(entry, kind, twist):
    copied = pickle.loads(pickle.dumps(kind))
    assert copied == kind and copied is not kind
    call = ENTRY_POINTS[entry]
    by_copy = _outcome(lambda: call(copied, twist))
    assert by_copy == _outcome(lambda: call(kind, twist))
    if isinstance(by_copy, TwistedSeries):
        assert by_copy.kind is kind


class _LookAlike:
    """No Automorphism, though it carries the fields the entry points read."""

    kind, action, unit = REAL, "identity", None


@pytest.mark.parametrize("entry", [*ENTRY_POINTS, "galois_order"])
@pytest.mark.parametrize("twist", [5, None, "conj", _LookAlike()], ids=["int", "None", "str", "look-alike"])
def test_a_twist_that_is_no_automorphism_is_a_kind_mismatch(entry, twist):
    call = ENTRY_POINTS.get(entry, lambda kind, phi: galois_order(phi))
    with pytest.raises(KindMismatchError):
        call(REAL, twist)


def test_the_constructor_refuses_malformed_records():
    h = identity(QUATERNION)
    # out of order, coeffs[0] would read the term at T^3 as the least exponent
    for coeffs, code in (
        (((3, quat(1)), (1, quat(2))), "exponent-order"),
        (((-2, quat(1)), (5, quat(1)), (4, quat(1))), "exponent-order"),
        (((1, quat(1)), (1, quat(2))), "repeated-exponent"),
        (((0, quat(1)), (2, quat(0))), "zero-coefficient"),
        (((0, Fraction(0)),), "zero-coefficient"),
    ):
        with pytest.raises(ValidationError) as exc:
            TwistedSeries(QUATERNION, h, 8, coeffs)
        assert exc.value.code == code, coeffs
    # a float is refused, not stored to fail with a bare TypeError at the first product
    with pytest.raises(KindMismatchError):
        TwistedSeries(QUATERNION, h, 8, ((0, 1.5),))
    # nor an exponent at or above the truncation, zero coefficient or not
    for coeffs in (((8, quat(1)),), ((0, quat(1)), (9, quat(0)))):
        with pytest.raises(KindMismatchError):
            TwistedSeries(QUATERNION, h, 8, coeffs)
    for coeffs in (None, 3, {0: quat(1)}, ((0,),), ((0, quat(1), 2),)):
        with pytest.raises(KindMismatchError):
            TwistedSeries(QUATERNION, h, 8, coeffs)
    f = TwistedSeries(QUATERNION, h, 8, [(1, quat(2)), (3, 1)])
    assert f.coeffs[0][0] == 1 and f.coeffs
    assert f == series(QUATERNION, h, 8, {3: 1, 1: quat(2)}) and type(f.coeffs) is tuple
    assert not TwistedSeries(QUATERNION, h, 8, ()).coeffs


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
    with pytest.raises(KindMismatchError):
        dim_over_centre(COMPLEX, identity(REAL))


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
    with pytest.raises(KindMismatchError):
        verify_jordan_twist(QUATERNION, CONJ, 2)


def test_jordan_twist_holds_for_every_size_and_several_units():
    units = [(0, 1, 0, 0), (1, 1, 0, 0), (1, 2, -1, 3), (0, 0, 3, -2), (2, -1, 1, 1)]
    for n in range(1, 7):
        for unit in units:
            assert verify_jordan_twist(QUATERNION, inner(quat(*unit)), n), (n, unit)


def _oracle_product(f, g):
    """The coefficients of f g on the Fraction oracle, by exponent: every
    term a_i sigma^i(b_j) formed on Fraction coordinates and summed, zero
    sums dropped."""
    phi, dim = fo.from_twist(f.twist), f.kind.dim_over_k
    acc = {}
    for i, a in f.coeffs:
        sigma_i = fo.power(phi, i)
        for j, b in g.coeffs:
            if i + j < f.truncation:
                term = fo.oracle(dim, *a.coeffs) * fo.apply(sigma_i, fo.oracle(dim, *b.coeffs))
                acc[i + j] = acc[i + j] + term if i + j in acc else term
    return {k: v.coeffs for k, v in acc.items() if any(v.coeffs)}


def _terms(f):
    return {e: c.coeffs for e, c in f.coeffs}


TWISTS_OF_H = [identity(QUATERNION), inner(quat(0, 1)), inner(quat(1, 2, -1, 3))]


@pytest.mark.parametrize("twist", TWISTS_OF_H, ids=["id", "i", "1+2i-j+3k"])
def test_coprime_denominators_sum_on_one_exponent(twist):
    # three terms over 2, 3 and 5 land on T^2
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    f = series(QUATERNION, twist, 4, {0: quat(Fraction(1, 2), 1), 1: quat(0, third), 2: quat(fifth, 0, 0, 1)})
    g = series(QUATERNION, twist, 4, {0: quat(1, 0, fifth), 1: quat(0, 0, Fraction(1, 2)), 2: quat(third)})
    product = f * g
    oracle = _oracle_product(f, g)
    assert _terms(product) == oracle
    assert 2 in oracle and dict(product.coeffs)[2].den == math.lcm(*(c.denominator for c in oracle[2]))


@pytest.mark.parametrize("twist", TWISTS_OF_H, ids=["id", "i", "1+2i-j+3k"])
def test_terms_that_cancel_leave_no_coefficient(twist):
    # a_0 b_1 + a_1 sigma(b_0) = 0, one term over 6 and the other over 3
    a0, a1, b1 = quat(0, Fraction(1, 2)), quat(Fraction(1, 3)), quat(Fraction(2, 3))
    b0 = apply(power(twist, -1), -(a1.inverse() * a0 * b1))
    f = series(QUATERNION, twist, 8, {0: a0, 1: a1})
    g = series(QUATERNION, twist, 8, {0: b0, 1: b1})
    product = f * g
    assert [e for e, _ in product.coeffs] == [0, 2]
    assert _terms(product) == _oracle_product(f, g)
    minus_g = series(QUATERNION, twist, 8, {e: -c for e, c in g.coeffs})
    assert not (f * minus_g + f * g).coeffs


def test_a_laurent_product_below_the_ceiling_is_refused():
    twist = inner(quat(1, 1, 0, 0))
    f = series(QUATERNION, twist, 8, {-200: quat(1, 1), 0: 1})
    g = series(QUATERNION, twist, 8, {-100: quat(0, 1), 3: quat(Fraction(1, 2))})
    with pytest.raises(ValidationError) as exc:
        f * g  # T^-300, and the terms above the ceiling do not save it
    assert exc.value.code == "truncation"
    # T^-256 is the ceiling itself
    h = series(QUATERNION, twist, 8, {-56: quat(0, 0, 1), 2: 3})
    assert (f * h).coeffs[0][0] == -MAX_TRUNCATION and _terms(f * h) == _oracle_product(f, h)


def test_product_sums_on_numerators_without_elements(monkeypatch):
    twist = inner(quat(1, 2, -1, 3))
    f = series(QUATERNION, twist, 16, {e: quat(Fraction(1, e + 2), e, 0, -1) for e in range(7)})
    g = series(QUATERNION, twist, 16, {e: quat(2, 0, Fraction(1, e + 3), 1) for e in range(0, 14, 2)})
    assert len(f.coeffs) == len(g.coeffs) == 7
    products = _counted(monkeypatch, AlgebraElement, "__mul__")
    sums = _counted(monkeypatch, AlgebraElement, "__add__")
    product = f * g
    assert products == [] and sums == []
    monkeypatch.undo()
    assert _terms(product) == _oracle_product(f, g)


def _sum_and_product_factors():
    twist = inner(quat(1, 1, 0, 0))
    f = series(QUATERNION, twist, 8, {0: quat(1, 2), 1: 3, 5: quat(0, 0, 1)})
    g = series(QUATERNION, twist, 8, {0: 2, 2: quat(1, 0, 0, 1), 3: quat(0, 1)})
    return f, g


def test_a_sum_and_a_product_check_their_ring_once(monkeypatch):
    f, g = _sum_and_product_factors()
    checks = _counted(monkeypatch, skew_series, "_check_ring")
    total, product = f + g, f * g
    # one check each, by the constructor: series, which checks it too, is not called
    assert len(checks) == 2
    monkeypatch.undo()
    assert _terms(product) == _oracle_product(f, g)
    assert total == series(QUATERNION, f.twist, 8, {0: quat(3, 2), 1: 3, 2: quat(1, 0, 0, 1), 3: quat(0, 1),
                                                    5: quat(0, 0, 1)})


# Guards on the Python and C calls of one sum and one product on CPython
# 3.11, set at what they make; a second ring check shows.
@pytest.mark.parametrize("op, bound", [("__add__", 61), ("__mul__", 205)], ids=["sum", "product"])
def test_a_sum_and_a_product_make_few_calls(op, bound):
    f, g = _sum_and_product_factors()
    getattr(f, op)(g)
    calls = _calls(getattr(f, op), g)
    assert "series" not in calls and calls.count("_check_ring") == 1, calls
    assert len(calls) <= bound, calls


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
        got, want = _kernel(fo.int_rows(rows), n), _fraction_kernel(rows, n)
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
        # the valuation (1/2)^l is multiplicative: the least exponents add
        if f.coeffs and g.coeffs and (f * g).coeffs:
            assert (f * g).coeffs[0][0] == f.coeffs[0][0] + g.coeffs[0][0]


def test_centre_truncation_ceiling():
    with pytest.raises(ValidationError) as exc:
        centre_basis(COMPLEX, CONJ, MAX_TRUNCATION + 1)
    assert exc.value.code == "truncation"


def _per_exponent_kernels(kind, twist, truncation):
    """The centre system solved afresh at every exponent, on the oracle's
    dense Fraction matrices scaled to integer rows."""
    phi = fo.from_twist(twist)
    return [_kernel(fo.int_rows(fo.centre_system(phi, s)), kind.dim_over_k) for s in range(truncation)]


def _every_exponent(kernels, truncation):
    """The kernel at each s < truncation, from one period of them."""
    return [kernels[s % len(kernels)] for s in range(truncation)]


@pytest.mark.parametrize("kind, twist", BUILTIN_PAIRS, ids=PAIR_IDS)
def test_centre_kernels_match_the_per_exponent_solve(monkeypatch, kind, twist):
    oracle = _per_exponent_kernels(kind, twist, 64)
    solves = _counted(monkeypatch, skew_series, "_kernel")
    for truncation in range(8, 65):
        solves.clear()
        kernels = _centre_kernels(kind, twist, truncation)
        assert _every_exponent(kernels, truncation) == oracle[:truncation]
        assert len(solves) == len(kernels) == galois_order(twist)


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


def _counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records the arguments of every call."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class _CountedKernels(list):
    """One period of kernels that counts the lookups made in it."""

    lookups = 0

    def __getitem__(self, index):
        self.lookups += 1
        return super().__getitem__(index)


@pytest.mark.parametrize("kind, twist", BUILTIN_PAIRS, ids=PAIR_IDS)
def test_centre_is_checked_once_per_period_class(monkeypatch, kind, twist):
    # the system repeats with period p and the expected answer with
    # period r, so one check per class of s mod lcm(p, r), at most 2 here
    periods = []

    def counted(k, t, m):
        periods.append(_CountedKernels(_centre_kernels(k, t, m)))
        return periods[-1]

    monkeypatch.setattr(skew_series, "_centre_kernels", counted)
    r = galois_order(twist)
    for truncation in range(8, MAX_TRUNCATION + 1):
        centre_basis(kind, twist, truncation)
        kernels = periods.pop()
        assert kernels.lookups == math.lcm(len(kernels), r) <= 2


# inner twists by units whose powers first turn real at 2, 4 and 3, and
# one, 1 + 2i, whose powers never do
INNER_UNITS = {quat(0, 1): 2, quat(1, 1): 4, quat(1, 1, 1, 1): 3, quat(1, 2): None}


@pytest.mark.parametrize("unit", INNER_UNITS, ids=repr)
def test_inner_centre_kernels_match_the_per_exponent_solve(monkeypatch, unit):
    twist = inner(unit)
    oracle = _per_exponent_kernels(QUATERNION, twist, 16)
    solves = _counted(monkeypatch, skew_series, "_kernel")
    for truncation in range(1, 17):
        solves.clear()
        kernels = _centre_kernels(QUATERNION, twist, truncation)
        assert _every_exponent(kernels, truncation) == oracle[:truncation]
        # one solve per exponent until sigma^p == sigma^0 is seen
        period = INNER_UNITS[unit]
        assert len(solves) == len(kernels) == (truncation if period is None else min(truncation, period))


def _only_int_rows(solves):
    return all(type(v) is int for rows, _ in solves for row in rows for v in row)


@pytest.mark.parametrize("kind, twist", BUILTIN_PAIRS, ids=PAIR_IDS)
def test_the_centre_kernels_solve_integer_rows_only(monkeypatch, kind, twist):
    # _kernel takes no rational row: every system _centre_kernels builds is
    # of ints, at every truncation the library allows
    solves = _counted(monkeypatch, skew_series, "_kernel")
    for truncation in range(8, MAX_TRUNCATION + 1):
        _centre_kernels(kind, twist, truncation)
    assert len(solves) == (MAX_TRUNCATION - 7) * galois_order(twist)
    assert _only_int_rows(solves)


@pytest.mark.parametrize("unit", INNER_UNITS, ids=repr)
def test_the_inner_centre_kernels_solve_integer_rows_only(monkeypatch, unit):
    solves = _counted(monkeypatch, skew_series, "_kernel")
    for truncation in range(1, 33):
        _centre_kernels(QUATERNION, inner(unit), truncation)
    period = INNER_UNITS[unit]
    assert len(solves) == sum(t if period is None else min(t, period) for t in range(1, 33))
    assert _only_int_rows(solves)


@pytest.mark.parametrize("unit", INNER_UNITS, ids=repr)
def test_an_inner_twist_of_h_has_dimension_4_over_its_centre(unit):
    # inner, so trivial in Aut(H)/Inn(H): r = 1, and K = R for every twist of H
    assert dim_over_centre(QUATERNION, inner(unit)) == 4


@pytest.mark.parametrize("kind, twist", BUILTIN_PAIRS, ids=PAIR_IDS)
def test_centre_work_does_not_grow_with_the_truncation(monkeypatch, kind, twist):
    solves = _counted(monkeypatch, skew_series, "_kernel")
    products = _counted(monkeypatch, skew_series, "_product")
    monkeypatch.setattr(algebra, "_product", skew_series._product)
    counts = []
    for truncation in (8, MAX_TRUNCATION):
        solves.clear()
        products.clear()
        centre_basis(kind, twist, truncation)
        assert len(solves) == galois_order(twist)
        counts.append(len(products))
    # n^2 left products, and n^2 right products per system
    n = kind.dim_over_k
    assert counts == [n * n * (1 + galois_order(twist))] * 2


def test_a_period_seen_too_early_trips_the_centre_check(monkeypatch):
    honest = skew_series._powers

    def early(phi, exponents):
        # sigma^0 once more in place of sigma^1
        for e, sigma_e in zip(exponents, honest(phi, exponents)):
            yield power(phi, 0) if e == 1 else sigma_e

    monkeypatch.setattr(skew_series, "_powers", early)
    with pytest.raises(InvariantViolation):
        centre_basis(COMPLEX, CONJ, 8)


def test_product_builds_one_automorphism_per_exponent(monkeypatch):
    twist = inner(quat(1, 2, -1, 3))
    g = series(QUATERNION, twist, 24, {0: quat(0, 1), 3: quat(2, 0, 1)})
    built = _counted(monkeypatch, algebra, "_inner_of")
    checked = _counted(monkeypatch, Automorphism, "__init__")
    for exponents in (range(21), range(0, 21, 2), (-5, -4, 0, 1, 9, 13, 20)):
        f = series(QUATERNION, twist, 24, {e: quat(1, e, 0, -1) for e in exponents})
        built.clear()
        f * g
        # one per exponent of the left factor: at most m + 1 if it reaches m
        assert len(built) == len(exponents)
        # and each by the trusted constructor, none through the checked one
        assert checked == []


def test_a_product_and_a_jordan_check_build_no_element_per_image(monkeypatch):
    # _make builds the unit of each power (in _inner_of) and each term of
    # a product's result, and nothing else: never one element per image
    twist = inner(quat(1, 2, -1, 3))
    f = series(QUATERNION, twist, 24, {e: quat(1, e, Fraction(1, e + 2), -1) for e in range(0, 21, 2)})
    g = series(QUATERNION, twist, 24, {e: quat(2, 0, Fraction(1, e + 3), 1) for e in range(14)})
    images = sum(i + j < 24 for i, _ in f.coeffs for j, _ in g.coeffs)
    made = _counted(monkeypatch, algebra, "_make")
    # skew_series builds a product's terms through its own import of _make
    monkeypatch.setattr(skew_series, "_make", algebra._make)
    units = _counted(monkeypatch, algebra, "_inner_of")
    product = f * g
    assert len(units) == len(f.coeffs)
    assert len(made) == len(f.coeffs) + len(product.coeffs) < images
    for n in range(1, 7):
        made.clear()
        assert verify_jordan_twist(QUATERNION, twist, n)
        assert len(made) == n
        for kind, other in BUILTIN_PAIRS:
            made.clear()
            assert verify_jordan_twist(kind, other, n)
            assert made == []
    monkeypatch.undo()
    assert _terms(product) == _oracle_product(f, g)


def test_jordan_check_builds_each_power_by_one_hamilton_product(monkeypatch):
    # J's entries are all 1, so the check reads J^l (a I) off the list of
    # a I and forms no product: every Hamilton product builds a power, and
    # power(twist, 0) squares the unit vector once
    products = _counted(monkeypatch, algebra, "_hamilton")
    for n in range(1, 7):
        products.clear()
        assert verify_jordan_twist(QUATERNION, inner(quat(1, 2, -1, 3)), n)
        assert len(products) == n


@pytest.mark.parametrize("kind, twist", BUILTIN_PAIRS, ids=PAIR_IDS)
def test_one_corrupted_kernel_trips_the_centre_check(monkeypatch, kind, twist):
    truncation = 16
    honest = _centre_kernels(kind, twist, truncation)
    units = [[int(i == c) for i in range(kind.dim_over_k)] for c in range(kind.dim_over_k)]
    # each kernel of the period stands for every exponent of its class
    for s, kernel in enumerate(honest):
        # one vector too few, one too many, and one out of the honest span
        wrong = [kernel + [units[-1]]]
        if kernel:
            wrong.append(kernel[:-1])
            outside = next((u for u in units if not _in_span(u, kernel)), None)
            if outside is not None:
                wrong.append([outside] + kernel[1:])
        for corrupted in wrong:
            kernels = honest[:s] + [corrupted] + honest[s + 1:]
            monkeypatch.setattr(skew_series, "_centre_kernels", lambda k, t, m, kernels=kernels: kernels)
            with pytest.raises(InvariantViolation):
                centre_basis(kind, twist, truncation)


@pytest.mark.parametrize("kind, twist", BUILTIN_PAIRS, ids=PAIR_IDS)
def test_the_solve_gives_the_closed_form_as_a_canonical_basis(kind, twist):
    # the contract centre_basis compares by: at every exponent the kernel
    # is the closed form (or empty) as a list, not just of the same span
    r = galois_order(twist)
    kernels = _centre_kernels(kind, twist, MAX_TRUNCATION)
    p = len(kernels)
    expected_k = _constant_subfield_basis(kind, twist)
    for s in range(2 * math.lcm(p, r)):
        assert kernels[s % p] == (expected_k if s % r == 0 else [])


@pytest.mark.parametrize(
    "kind, twist, kernel",
    [(QUATERNION, identity(QUATERNION), [[2, 0, 0, 0]]), (COMPLEX, identity(COMPLEX), [[0, 1], [1, 0]])],
    ids=["H-id", "C-id"],
)
def test_a_kernel_of_the_right_span_in_another_form_trips_the_centre_check(monkeypatch, kind, twist, kernel):
    expected_k = _constant_subfield_basis(kind, twist)
    assert len(kernel) == len(expected_k) and all(_in_span(v, expected_k) for v in kernel)
    monkeypatch.setattr(skew_series, "_centre_kernels", lambda k, t, m: [kernel])
    with pytest.raises(InvariantViolation) as exc:
        centre_basis(kind, twist, 8)
    assert str(exc.value) == f"centre basis at T^0 is {kernel}, expected {expected_k}"


@pytest.mark.parametrize(
    "kind, twist",
    [(COMPLEX, CONJ), (QUATERNION, identity(QUATERNION)), (QUATERNION, inner(quat(1, 2, -1, 3)))],
    ids=["C-conj", "H-id", "H-inner"],
)
def test_one_wrong_power_trips_the_jordan_check(monkeypatch, kind, twist):
    n = 6
    honest = [power(twist, i) for i in range(n)]
    for k in range(n):
        # sigma^k composed with one more map: conjugation on C, a turn by j on H
        if kind is COMPLEX:
            wrong = power(twist, k + 1)
        else:
            wrong = inner((honest[k].unit or quat(1)) * quat(0, 0, 1))
        assert wrong != honest[k]
        powers = honest[:k] + [wrong] + honest[k + 1:]
        monkeypatch.setattr(skew_series, "_powers", lambda phi, exponents, powers=powers: powers)
        assert not verify_jordan_twist(kind, twist, n)
