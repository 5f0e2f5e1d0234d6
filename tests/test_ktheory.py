import random
from fractions import Fraction
from math import gcd

import pytest

from wittcurves.errors import DomainError, ValidationError
from wittcurves.ktheory import (
    ELLIPTIC_TYPES,
    INFINITY,
    MAX_HEIGHT_BOUND,
    ClassVector,
    CurveNumerics,
    apply_slope_matrix,
    average_euler_form,
    elliptic_numerics,
    euler_form,
    fm_partners,
    mutation_matrices,
    reduce_class,
    slope_orbits,
)

E = ClassVector(1, 0)
F = ClassVector(0, 1)


def test_euler_form_values():
    assert euler_form(E, F, elliptic_numerics("A")) == -1
    assert euler_form(E, F, elliptic_numerics("K")) == -2
    assert euler_form(E, F, elliptic_numerics("M_H")) == -4
    assert euler_form(E, F, elliptic_numerics("A_RH")) == -4


def test_euler_form_is_alternating_at_genus_one():
    for name in ELLIPTIC_TYPES:
        n = elliptic_numerics(name)
        v = ClassVector(2, 3)
        assert euler_form(v, v, n) == 0
        assert euler_form(E, F, n) == -euler_form(F, E, n)


def test_average_form_ignores_orbifold_refinement():
    n = CurveNumerics(kappa=2, epsilon=1, genus=1, pbar=5, g_orb=Fraction(3))
    assert average_euler_form(E, F, n) == -2
    plain = CurveNumerics(kappa=2, epsilon=1, genus=1)
    assert average_euler_form(E, F, plain) == euler_form(E, F, plain)


def test_bilinearity():
    rng = random.Random(4)
    n = elliptic_numerics("D_2222")
    for _ in range(50):
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        x, y = ClassVector(a, b), ClassVector(c, d)
        z = ClassVector(a + c, b + d)
        assert euler_form(z, E, n) == euler_form(x, E, n) + euler_form(y, E, n)
        assert euler_form(E, z, n) == euler_form(E, x, n) + euler_form(E, y, n)


def test_mutation_matrices():
    assert mutation_matrices(elliptic_numerics("K")) == (((1, 0), (2, 1)), ((1, -1), (0, 1)))
    assert mutation_matrices(elliptic_numerics("A")) == (((1, 0), (1, 1)), ((1, -1), (0, 1)))
    for name in ELLIPTIC_TYPES:
        for m in mutation_matrices(elliptic_numerics(name)):
            (a, b), (c, d) = m
            assert a * d - b * c == 1


def test_mutations_need_genus_one():
    with pytest.raises(DomainError):
        mutation_matrices(CurveNumerics(kappa=1, epsilon=1, genus=0))


def test_slope_arithmetic():
    assert ClassVector(3, 6).slope() == Fraction(1, 2)
    assert ClassVector(5, 0).slope() == INFINITY
    assert not isinstance(ClassVector(5, 0).slope(), (int, Fraction, float))
    with pytest.raises(DomainError):
        ClassVector(0, 0).slope()


def test_three_cycle_on_slopes():
    m = ((0, -1), (1, -1))
    assert apply_slope_matrix(m, INFINITY) == 0
    assert apply_slope_matrix(m, 0) == 1
    assert apply_slope_matrix(m, 1) == INFINITY


def test_slope_matrix_must_be_unimodular():
    with pytest.raises(ValidationError) as exc:
        apply_slope_matrix(((1, 1), (1, 1)), 0)
    assert exc.value.code == "unimodular"


def test_orbit_counts():
    expected = {"A": 1, "M": 1, "K": 2, "A_RH": 2, "A_HH": 1, "M_H": 1, "D_2222": 1}
    for name, count in expected.items():
        assert slope_orbits(elliptic_numerics(name)).count == count, name


def test_orbit_counts_stable_under_the_height_bound():
    for name in ("K", "A_RH", "D_2222"):
        n = elliptic_numerics(name)
        reps = None
        for bound in (50, 100, 200):
            so = slope_orbits(n, height_bound=bound)
            if reps is None:
                reps = so.representatives
            assert so.representatives == reps
            assert so.height_bound == bound


def test_split_orbits_are_separated_by_degree_parity():
    for name in ("K", "A_RH"):
        so = slope_orbits(elliptic_numerics(name))
        parities = {frozenset(deg % 2 for deg, _ in orbit) for orbit in so.orbits}
        assert parities == {frozenset({0}), frozenset({1})}


def test_orbits_partition_primitive_classes():
    so = slope_orbits(elliptic_numerics("K"), height_bound=50)
    members = [v for orbit in so.orbits for v in orbit]
    assert len(members) == len(set(members))
    for deg, rank in members:
        assert rank >= 0


def _orbit_scan(k, bound):
    """Connected components of the primitive (degree, rank) vectors up to
    sign inside the box, under L^(+-1) and S^(+-1): the brute-force oracle."""
    gens = (((1, 0), (1, 1)), ((1, 0), (-1, 1)), ((1, -k), (0, 1)), ((1, k), (0, 1)))
    seen = {}
    orbits = []
    for r in range(bound + 1):
        d_values = (1,) if r == 0 else (d for d in range(-bound, bound + 1) if gcd(abs(d), r) == 1)
        for d in d_values:
            if (d, r) in seen:
                continue
            current = {(d, r)}
            orbits.append(current)
            stack = [(d, r)]
            seen[(d, r)] = len(orbits) - 1
            while stack:
                vd, vr = stack.pop()
                for (a, b), (c, e) in gens:
                    nd, nr = a * vd + b * vr, c * vd + e * vr
                    if nr < 0 or (nr == 0 and nd < 0):
                        nd, nr = -nd, -nr
                    if abs(nd) > bound or nr > bound or (nd, nr) in seen:
                        continue
                    seen[(nd, nr)] = len(orbits) - 1
                    current.add((nd, nr))
                    stack.append((nd, nr))
    return {frozenset(orbit) for orbit in orbits}


def _replay(word, vector, k):
    """Apply a reduction word letter by letter, then fix the sign."""
    d, r = vector
    for letter, e in word:
        if letter == "L":
            r += e * d
        else:
            d -= e * k * r
    return (-d, -r) if r < 0 or (r == 0 and d < 0) else (d, r)


@pytest.mark.parametrize(
    "name, bound", [(name, 50) for name in ELLIPTIC_TYPES] + [("K", 100), ("A_RH", 100)]
)
def test_reducer_partition_equals_the_box_scan(name, bound):
    n = elliptic_numerics(name)
    m_l, m_s = mutation_matrices(n)
    k = m_l[1][0] * -m_s[0][1]  # epsilon * c
    so = slope_orbits(n, height_bound=bound)
    assert so.coefficient == k
    assert set(so.orbits) == _orbit_scan(k, bound)


def test_synthetic_coefficients():
    for k in (1, 2):
        so = slope_orbits(CurveNumerics(kappa=k, epsilon=1, genus=1), height_bound=50)
        assert so.count == k // 2 + 1
        assert set(so.orbits) == _orbit_scan(k, 50)
    for k in (3, 4):
        with pytest.raises(DomainError):
            slope_orbits(CurveNumerics(kappa=k, epsilon=1, genus=1))
        with pytest.raises(DomainError):
            reduce_class((1, 1), k)


def test_certificate_replays_to_the_canonical_form():
    rng = random.Random(7)
    for k in (1, 2):
        for _ in range(300):
            d, r = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
            g = gcd(d, r)
            if g == 0:
                continue
            v = (d // g, r // g)
            form, word = reduce_class(v, k)
            assert form in ((1, 0), (0, 1))
            assert _replay(word, v, k) == form
            assert form[0] % k == v[0] % k
            assert len(word) <= 2 * abs(v[1]).bit_length() + 5


def test_reducer_rejects_imprimitive_classes():
    for v in ((0, 0), (2, 4), (-3, 0)):
        with pytest.raises(DomainError):
            reduce_class(v, 1)


def test_height_bound_floor():
    with pytest.raises(ValidationError) as exc:
        slope_orbits(elliptic_numerics("K"), height_bound=30)
    assert exc.value.code == "height-bound"


def test_height_bound_ceiling():
    with pytest.raises(ValidationError) as exc:
        slope_orbits(elliptic_numerics("K"), height_bound=MAX_HEIGHT_BOUND + 1)
    assert exc.value.code == "height-bound"


def test_fourier_mukai_partners():
    assert fm_partners("K") == frozenset({"K", "A_RH"})
    assert fm_partners("A_RH") == frozenset({"K", "A_RH"})
    for name in ("A", "M", "A_HH", "M_H", "D_2222"):
        assert fm_partners(name) == frozenset({name})
    for name in ELLIPTIC_TYPES:
        partners = fm_partners(name)
        assert name in partners
        for other in partners:
            assert name in fm_partners(other)
    with pytest.raises(ValidationError):
        fm_partners("X")


@pytest.mark.parametrize("field, value", [
    ("kappa", 1.5), ("epsilon", 1.0), ("genus", True), ("end_S_dim", 2.0), ("pbar", Fraction(1)),
])
def test_numerics_fields_must_be_ints(field, value):
    fields = {"kappa": 2, "epsilon": 1, "genus": 1, field: value}
    with pytest.raises(ValidationError) as exc:
        CurveNumerics(**fields)
    assert exc.value.code == "not-integer"
