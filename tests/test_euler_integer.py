"""The integer chi'_orb layer against the Fraction arithmetic it replaced.

tests/fraction_oracle.py keeps the term-by-term Fraction versions of the
chi'_orb routes, of the chi' of an abstract base, of
genus_zero_orbifold_euler and of the tubular search. Here the integer
code is compared with them on seeded random curves and place sets, and
each cross-check of chi_orb is shown to fire on a profile made
inconsistent with dataclasses.replace.
"""

import random
from dataclasses import replace
from fractions import Fraction

import fraction_oracle as fo
import pytest

from wittcurves.errors import InvariantViolation, ValidationError
from wittcurves.local_data import WittPointClass
from wittcurves.weighted_curve import (
    COMPLEX_POINT,
    AbstractBase,
    AbstractPoint,
    WeightedCurve,
    WeightedPoint,
    curve_profile,
    genus_zero_orbifold_euler,
)
from wittcurves.witt_surface import (
    MINUS,
    PLUS,
    ComplexCentreBase,
    KleinTopology,
    WittSurface,
    catalog,
    segmented_oval,
    validate,
    whole_oval,
)
from wittcurves.zoo import _tubular_weights

INNER = WittPointClass.INNER
REAL_B = WittPointClass.REAL_BOUNDARY
SEG = WittPointClass.SEGMENTATION


def _random_oval(rng, commutative):
    signs = (PLUS,) if commutative else (PLUS, MINUS)
    if commutative or rng.random() < 0.5:
        return whole_oval(rng.choice(signs))
    return segmented_oval(*(PLUS, MINUS) * rng.randint(1, 2))


def _random_surface(rng) -> WittSurface:
    while True:
        commutative = rng.random() < 0.3
        g, s = rng.randint(0, 3), rng.randint(0, 1)
        t = rng.randint(0, g + 1)
        ovals = tuple(_random_oval(rng, commutative) for _ in range(t))
        w = WittSurface(KleinTopology(g, t, s), ovals, commutative)
        try:
            validate(w)
        except ValidationError:
            continue
        return w


def _random_surface_curve(rng) -> WeightedCurve:
    base = _random_surface(rng)
    slots = [(oi, si) for oi, oval in enumerate(base.ovals) for si in range(len(oval.segments))]
    rng.shuffle(slots)
    points = []
    for _ in range(rng.randint(0, 4)):
        weight = rng.randint(2, 12)
        location = rng.choice(list(WittPointClass))
        if location is SEG:
            if not slots:
                continue
            oval, segment = slots.pop()
            points.append(WeightedPoint(SEG, weight, oval=oval, segment=segment))
        else:
            points.append(WeightedPoint(location, weight))
    try:
        return WeightedCurve(base, tuple(points))
    except ValidationError:  # a boundary sign the surface lacks
        return WeightedCurve(base, tuple(p for p in points if p.location in (SEG, INNER)))


def _random_complex_curve(rng) -> WeightedCurve:
    points = tuple(WeightedPoint(COMPLEX_POINT, rng.randint(2, 12)) for _ in range(rng.randint(0, 4)))
    return WeightedCurve(ComplexCentreBase(rng.randint(0, 3)), points)


def _random_abstract_curve(rng) -> WeightedCurve:
    points = tuple(
        AbstractPoint(f"x{i}", rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 8))
        for i in range(rng.randint(0, 5))
    )
    base = AbstractBase(
        Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
        rng.randint(1, 4),
        rng.randint(1, 4),
        rng.randint(1, 2),
        points,
        rng.choice((None, 0, 1)),
    )
    return WeightedCurve(base)


@pytest.mark.parametrize(
    "make", [_random_surface_curve, _random_complex_curve, _random_abstract_curve],
    ids=["surface", "complex-centre", "abstract"],
)
def test_every_route_matches_the_fraction_oracle(make):
    rng = random.Random(8)
    for _ in range(300):
        c = make(rng)
        profile = curve_profile(c)
        routes = profile.chi_routes()
        assert routes == fo.chi_routes(profile)
        assert all(type(v) is Fraction for v in routes.values())
        assert profile.chi_orb == routes["general"]
        if isinstance(c.base, AbstractBase):
            assert profile.chi_prime == fo.abstract_chi_prime(c.base)


def test_surface_curves_run_every_route():
    rng = random.Random(9)
    seen = set()
    for _ in range(300):
        seen.update(curve_profile(_random_surface_curve(rng)).chi_routes())
    assert seen == {"general", "split", "boundary count", "genus-zero form"}


def test_genus_zero_formula_matches_the_fraction_oracle():
    rng = random.Random(10)
    for _ in range(500):
        points = []
        for _ in range(rng.randint(0, 5)):
            f = rng.choice((rng.randint(1, 6), Fraction(rng.randint(1, 9), rng.randint(1, 9))))
            points.append((rng.randint(1, 4), f, rng.randint(1, 12)))
        kappa, s, epsilon = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 2)
        got = genus_zero_orbifold_euler(kappa, s, epsilon, points)
        assert type(got) is Fraction
        assert got == fo.genus_zero_orbifold_euler(kappa, s, epsilon, points)


def test_tubular_search_matches_the_fraction_oracle():
    rng = random.Random(11)
    names = ["seg", "real", "quat", "inner"]
    hits = 0
    for _ in range(60):
        places = {
            name: (rng.randint(1, 4), rng.randint(1, 4), rng.choice((None, rng.randint(1, 4))))
            for name in rng.sample(names, rng.randint(1, 3))
        }
        budget = Fraction(rng.randint(1, 6), rng.randint(2, 12))
        budget = min(budget, Fraction(1, 2))
        got = [tuple(sorted(ws)) for ws in _tubular_weights(budget, places)]
        assert got == [tuple(sorted(ws)) for ws in fo.tubular_weights(budget, places)]
        hits += bool(got)
    assert hits >= 20  # the search finds something on many of the place sets


# ---------------------------------------------------------------------------
# Each cross-check of chi_orb fires

def _disc_profile():
    """D with weights 3 and 5 on the boundary: real centre, genus zero."""
    c = WeightedCurve(catalog("D"), (WeightedPoint(REAL_B, 3), WeightedPoint(REAL_B, 5)))
    profile = curve_profile(c)
    assert set(profile.chi_routes()) == {"general", "split", "boundary count", "genus-zero form"}
    assert profile.chi_orb == Fraction(1, 2) * (2 - Fraction(2, 3) - Fraction(4, 5))
    return profile


def test_a_shifted_chi_prime_breaks_the_split_route():
    profile = _disc_profile()
    with pytest.raises(InvariantViolation, match="general .*, split "):
        replace(profile, chi_prime=profile.chi_prime + Fraction(1, 7)).chi_orb


def test_a_changed_point_kind_breaks_the_boundary_count():
    profile = _disc_profile()
    points = (replace(profile.points[0], kind=INNER.value),) + profile.points[1:]
    with pytest.raises(InvariantViolation, match="general .*, boundary count "):
        replace(profile, points=points).chi_orb


def test_a_changed_kappa_breaks_the_genus_zero_route():
    profile = _disc_profile()
    with pytest.raises(InvariantViolation, match="general .*, genus-zero form "):
        replace(profile, kappa=2).chi_orb
    # epsilon cancels from the genus-zero form (e f carries 1/epsilon), so
    # only kappa and s can put it out of step with the other routes
    assert replace(profile, epsilon=2).chi_orb == profile.chi_orb
