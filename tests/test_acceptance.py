"""Acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion. Every comparison is exact; the only tolerances are the
wall-clock ceilings on the two enumeration criteria.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from wittcurves.algebra import (
    COMPLEX,
    QUATERNION,
    REAL,
    apply,
    complex_conjugation,
    cplx,
    identity,
    inner,
    one,
    quat,
)
from wittcurves.errors import DomainError, ValidationError
from wittcurves.ktheory import (
    ELLIPTIC_TYPES,
    ClassVector,
    elliptic_numerics,
    fm_partners,
    slope_orbits,
)
from wittcurves.local_data import WittPointClass, witt_local_datum
from wittcurves.skew_series import (
    centre_basis,
    dim_over_centre,
    series,
    valuation,
    verify_jordan_twist,
)
from wittcurves.weighted_curve import (
    CurveClass,
    WeightedCurve,
    WeightedPoint,
    classify,
    curve_profile,
    cy_dimension,
    genus_zero_orbifold_euler,
    ghost_group,
    orbifold_euler,
    picard_structure,
    tau_order,
    weight_ram_vector,
)
from wittcurves.witt_surface import (
    ComplexCentreBase,
    KleinTopology,
    WittSurface,
    canonical_key,
    catalog,
    constants_field,
    counts,
    euler_characteristics,
    genus,
    segmented_oval,
    surface_skewness,
    validate,
    whole_oval,
)
from wittcurves.zoo import enumerate_chi_zero, instantiate_domestic

INNER = WittPointClass.INNER
REAL_B = WittPointClass.REAL_BOUNDARY
SEG = WittPointClass.SEGMENTATION


def _example_a():
    return WeightedCurve(catalog("D_22"), (
        WeightedPoint(SEG, 3, oval=0, segment=0),
        WeightedPoint(REAL_B, 3, oval=0),
    ))


def _example_b():
    return WeightedCurve(catalog("D_22"), (
        WeightedPoint(SEG, 2, oval=0, segment=0),
        WeightedPoint(SEG, 2, oval=0, segment=1),
        WeightedPoint(REAL_B, 2, oval=0),
    ))


def _example_c():
    return WeightedCurve(catalog("RP2"), (
        WeightedPoint(INNER, 2),
        WeightedPoint(INNER, 2),
    ))


def test_c01_local_global_skewness():
    for point_class in WittPointClass:
        d = witt_local_datum(point_class)
        assert d.e * d.e_star * d.e_tau == 2


def test_c02_skew_series_centres():
    conj = centre_basis(COMPLEX, complex_conjugation(), 8)
    assert conj.constant_subfield is REAL
    assert conj.period == 2
    plain = centre_basis(QUATERNION, identity(QUATERNION), 8)
    assert plain.constant_subfield is REAL
    assert plain.period == 1
    assert dim_over_centre(COMPLEX, complex_conjugation()) == 4
    assert dim_over_centre(QUATERNION, identity(QUATERNION)) == 4
    assert dim_over_centre(REAL, identity(REAL)) == 1


def _all_witt_surfaces(max_genus, max_segments):
    oval_options = [whole_oval("+"), whole_oval("-")]
    for n in (2, 4, 6):
        for first in ("+", "-"):
            signs = [first if i % 2 == 0 else ("-" if first == "+" else "+") for i in range(n)]
            oval_options.append(segmented_oval(*signs))
    surfaces = {}
    for g in range(0, max_genus + 1):
        for s in (0, 1):
            for t in range(0, g + 2):
                for ovals in itertools.product(oval_options, repeat=t):
                    if sum(len(o.segments) for o in ovals) > max_segments:
                        continue
                    w = WittSurface(KleinTopology(g, t, s), ovals, commutative=False)
                    try:
                        validate(w)
                    except ValidationError:
                        continue
                    surfaces[canonical_key(w)] = w
    return surfaces


def test_c03_hurwitz_genus():
    assert genus(catalog("D_H")) == 0
    assert genus(catalog("D_22")) == 0
    assert genus(catalog("D_2222")) == 1
    assert genus(catalog("A_RH")) == 1
    assert genus(catalog("A_HH")) == 1
    assert genus(catalog("M_H")) == 1
    surfaces = _all_witt_surfaces(max_genus=2, max_segments=6)
    genus_zero = {key for key, w in surfaces.items() if genus(w) == 0}
    genus_one = {key for key, w in surfaces.items() if genus(w) == 1}
    assert genus_zero == {canonical_key(catalog("D_H")), canonical_key(catalog("D_22"))}
    assert genus_one == {
        canonical_key(catalog(name)) for name in ("A_RH", "A_HH", "M_H", "D_2222")
    }


def _random_witt_surface(rng):
    g = rng.randint(0, 4)
    s = rng.choice([0, 1])
    t = rng.randint(0, g + 1)
    ovals = []
    for _ in range(t):
        style = rng.random()
        if style < 0.4:
            n = 2 * rng.randint(1, 3)
            first = rng.choice(["+", "-"])
            signs = [first if i % 2 == 0 else ("-" if first == "+" else "+") for i in range(n)]
            ovals.append(segmented_oval(*signs))
        else:
            ovals.append(whole_oval(rng.choice(["+", "-"])))
    w = WittSurface(KleinTopology(g, t, s), tuple(ovals), commutative=False)
    try:
        validate(w)
    except ValidationError:
        return None
    return w


def test_c04_euler_characteristic_consistency():
    rng = random.Random(20260816)
    checked = 0
    while checked < 500:
        w = _random_witt_surface(rng)
        if w is None:
            continue
        checked += 1
        chi, chi_normalized = euler_characteristics(w)
        kappa = constants_field(w).dim_over_k
        s = surface_skewness(w)
        n_segments = sum(len(o.segments) for o in w.ovals)
        assert Fraction(kappa * (1 - genus(w)), s * s) == chi_normalized
        assert chi_normalized == (1 - w.topology.g) - Fraction(n_segments, 4)
    assert checked == 500


def _random_weighted_curve(rng):
    name = rng.choice([
        "D", "RP2", "D_H", "D_22", "S2_C",
        "A", "M", "K", "A_RH", "A_HH", "M_H", "D_2222", "T_C",
    ])
    base = catalog(name)
    placements = []
    if isinstance(base, ComplexCentreBase):
        for _ in range(rng.randint(0, 3)):
            placements.append(WeightedPoint("point", rng.randint(2, 9)))
        return WeightedCurve(base, tuple(placements))
    segments = [
        (i, j)
        for i, oval in enumerate(base.ovals)
        for j in range(len(oval.segments))
    ]
    plus_ovals = [i for i, o in enumerate(base.ovals) if o.sign == "+"]
    minus_ovals = [i for i, o in enumerate(base.ovals) if o.sign == "-"]
    choices = ["inner"] + (["seg"] if segments else []) \
        + (["real"] if plus_ovals else []) + (["quat"] if minus_ovals else [])
    used = set()
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(choices)
        p = rng.randint(2, 9)
        if kind == "inner":
            placements.append(WeightedPoint(INNER, p))
        elif kind == "real":
            placements.append(WeightedPoint(REAL_B, p, oval=rng.choice(plus_ovals)))
        elif kind == "quat":
            placements.append(
                WeightedPoint(WittPointClass.QUATERNION_BOUNDARY, p, oval=rng.choice(minus_ovals))
            )
        else:
            spot = rng.choice(segments)
            if spot in used:
                continue
            used.add(spot)
            placements.append(WeightedPoint(SEG, p, oval=spot[0], segment=spot[1]))
    return WeightedCurve(base, tuple(placements))


def test_c05_orbifold_euler_formulas_agree():
    # orbifold_euler cross-checks the general, weights-split and Thurston
    # forms internally and raises InvariantViolation on any disagreement,
    # so a clean return already certifies the identity.
    for entry in enumerate_chi_zero():
        c = instantiate_domestic(entry)
        assert orbifold_euler(c) == 0
    rng = random.Random(424242)
    for _ in range(500):
        c = _random_weighted_curve(rng)
        chi = orbifold_euler(c)
        if genus(c.base) == 0:
            profile = curve_profile(c)
            triples = profile.any_field_triples()
            s = profile.skewness
            assert genus_zero_orbifold_euler(profile.kappa, s, profile.epsilon, triples) == chi
    assert orbifold_euler(_example_a()) == 0
    assert orbifold_euler(_example_b()) == 0
    assert orbifold_euler(_example_c()) == 0
    assert weight_ram_vector(_example_a()) == (2, 3, 6)
    assert weight_ram_vector(_example_b()) == (2, 4, 4)
    assert weight_ram_vector(_example_c()) == (2, 2, 2, 2)


def test_c06_zoo_counts():
    start = time.perf_counter()
    entries = enumerate_chi_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert len(entries) == 39
    elliptic = [e for e in entries if e.curve_class is CurveClass.ELLIPTIC]
    tubular = [e for e in entries if e.curve_class is CurveClass.TUBULAR]
    assert len(elliptic) == 8
    assert len(tubular) == 31
    assert sum(1 for e in tubular if e.centre == "R") == 27
    assert sum(1 for e in entries if e.skewness == 1) == 17
    assert sum(1 for e in entries if e.skewness == 2) == 22


def test_c07_tau_order_and_calabi_yau():
    for entry in enumerate_chi_zero():
        assert entry.tau_order in {1, 2, 3, 4, 6}
        assert entry.cy == (entry.tau_order, entry.tau_order)
        c = instantiate_domestic(entry)
        n = tau_order(c)
        assert n == entry.tau_order
        assert cy_dimension(c) == (n, n)
    assert tau_order(WeightedCurve(catalog("D_2222"))) == 2
    assert tau_order(_example_a()) == 6
    assert tau_order(_example_b()) == 4
    assert tau_order(WeightedCurve(catalog("K"))) == 1


def test_c08_slope_orbit_counts():
    expected = {"A": 1, "M": 1, "K": 2, "A_RH": 2, "A_HH": 1, "M_H": 1, "D_2222": 1}
    assert tuple(expected[name] for name in ELLIPTIC_TYPES) == (1, 1, 2, 2, 1, 1, 1)
    for name in ELLIPTIC_TYPES:
        numerics = elliptic_numerics(name)
        start = time.perf_counter()
        reference = slope_orbits(numerics, height_bound=50)
        for bound in (100, 200):
            again = slope_orbits(numerics, height_bound=bound)
            assert again.count == reference.count
            assert again.representatives == reference.representatives
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert reference.count == expected[name]
        if reference.count == 2:
            parities = {
                frozenset(deg % 2 for deg, _ in orbit) for orbit in reference.orbits
            }
            assert parities == {frozenset({0}), frozenset({1})}


def test_c09_fourier_mukai_partners():
    assert fm_partners("K") == frozenset({"K", "A_RH"})
    assert fm_partners("A_RH") == frozenset({"K", "A_RH"})
    for name in ("A", "M", "A_HH", "M_H", "D_2222"):
        assert fm_partners(name) == frozenset({name})


def test_c10_ghost_groups():
    for n in range(2, 8):
        assert ghost_group([(n, 1), (n, 1)], 0).describe() == f"C{n}"
    assert ghost_group([(2, 1), (2, 2)], 0).describe() == "C2"
    assert ghost_group([(2, 1), (2, 1), (2, 1)], 0).describe() == "C2 x C2"
    assert ghost_group([(1, 1), (1, 2), (1, 3)], 0).describe() == "trivial"


def test_c11_picard_descriptors():
    d2222 = picard_structure(WeightedCurve(catalog("D_2222")))
    assert d2222.finitely_generated_rank_one
    assert d2222.base_part == "Z"
    assert d2222.pic_zero == "C2 x C2"
    for name in ("K", "A", "M", "T_C"):
        descriptor = picard_structure(WeightedCurve(catalog(name)))
        assert not descriptor.finitely_generated_rank_one
        assert "not finitely generated" in descriptor.base_part


def test_c12_property_suites():
    rng = random.Random(121212)

    def rand_quat():
        return quat(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)))

    for _ in range(200):
        a, b = rand_quat(), rand_quat()
        assert (a * b).norm() == a.norm() * b.norm()
        if not a.is_zero():
            assert a * a.inverse() == one(QUATERNION)
            assert a.inverse() * a == one(QUATERNION)

    conj = complex_conjugation()

    def rand_series():
        coeffs = {
            exp: cplx(rng.randint(-5, 5), rng.randint(-5, 5))
            for exp in rng.sample(range(8), rng.randint(1, 4))
        }
        return series(COMPLEX, conj, 8, coeffs)

    for _ in range(100):
        f, g = rand_series(), rand_series()
        h = rand_series()
        assert (f * g) * h == f * (g * h)
        if not f.is_zero() and not g.is_zero() and not (f * g).is_zero():
            assert valuation(f * g) == valuation(f) * valuation(g)

    for n in range(1, 6):
        assert verify_jordan_twist(COMPLEX, complex_conjugation(), n)
        assert verify_jordan_twist(QUATERNION, identity(QUATERNION), n)
        assert verify_jordan_twist(QUATERNION, inner(quat(0, 1)), n)
