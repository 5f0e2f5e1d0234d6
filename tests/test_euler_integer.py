"""The integer chi'_orb layer against the Fraction arithmetic it replaced.

tests/fraction_oracle.py keeps the term-by-term Fraction versions of the
chi'_orb routes, of the chi' of an abstract base, of
genus_zero_orbifold_euler and of the tubular search. Here the integer
code is compared with them on seeded random curves and place sets, and
each cross-check of chi_orb is shown to fire on a profile made
inconsistent with its _replace.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import cache
from math import lcm

import fraction_oracle as fo
import pytest

from wittcurves.errors import CurveError, DomainError, InvariantViolation, ValidationError
from wittcurves.local_data import WittPointClass
from wittcurves.weighted_curve import (
    COMPLEX_POINT,
    AbstractBase,
    AbstractPoint,
    WeightedCurve,
    WeightedPoint,
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
from wittcurves.zoo import _build_curve, _search, enumerate_chi_zero

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
        profile = c.profile
        routes = profile.chi_routes()
        assert routes == fo.chi_routes(c)
        assert all(type(v) is Fraction for v in routes.values())
        assert profile.chi_orb == routes["general"]
        if isinstance(c.base, AbstractBase):
            assert profile.numerics.chi_prime == fo.abstract_chi_prime(c.base)


def _random_chi_zero_abstract_curve(rng) -> WeightedCurve:
    """An abstract curve whose chi_x is the sum of its point terms, so that
    chi'_orb = 0: elliptic when every weight is 1, else tubular, or refused
    as no curve when its vector or centre genus is not a tubular one."""
    points = tuple(
        AbstractPoint(f"x{i}", rng.randint(1, 3), rng.randint(1, 2), rng.choice((1, 2, 2, 3, 4, 6)))
        for i in range(rng.randint(0, 4))
    )
    chi_x = Fraction(1, 2) * sum((1 - Fraction(1, p.weight * p.e_tau)) * p.residue_degree for p in points)
    base = AbstractBase(chi_x, rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 2), points, rng.choice((None, 0, 1)))
    return WeightedCurve(base)


def _outcome(call):
    try:
        return call()
    except CurveError as exc:
        return type(exc)


def _reading(profile):
    """The class and the order of tau by the profile, and by its report:
    each a value, or the class of the error it raised."""
    report = _outcome(profile.report)
    if isinstance(report, dict):
        report = report["curve_class"], report["tau_order"]
    return _outcome(lambda: profile.curve_class().value), _outcome(profile.tau_order), report


def _oracle_reading(profile):
    """The same three by the Fraction comparisons of the oracle. The report
    raises the first error of the class and of tau, and gives no tau where
    chi'_orb is not 0."""
    cls, tau = _outcome(lambda: fo.curve_class(profile)), _outcome(lambda: fo.tau_order(profile))
    if isinstance(cls, type):
        report = cls
    elif tau is DomainError:
        report = cls, None
    else:
        report = tau if isinstance(tau, type) else (cls, tau)
    return cls, tau, report


def test_the_class_read_off_the_sign_matches_the_fraction_comparisons():
    rng = random.Random(12)
    makers = (_random_surface_curve, _random_complex_curve, _random_abstract_curve, _random_chi_zero_abstract_curve)
    curves = [make(rng) for make in makers for _ in range(300)]
    # the tubular and elliptic curves of the zoo, on surface and complex-centre bases
    curves += [_build_curve(entry.base, entry.weights) for entry in enumerate_chi_zero()]
    seen = Counter()
    for c in curves:
        profile = c.profile
        expected = _oracle_reading(profile)
        assert _reading(profile) == expected
        cls, chi = expected[0], profile.chi_orb
        seen["chi < 0" if chi < 0 else "chi > 0" if chi > 0 else "chi = 0, pbar 1" if profile.pbar == 1
             else "chi = 0, pbar > 1"] += 1
        seen[cls if isinstance(cls, str) else "refused"] += 1
    # every sign, both kinds of chi'_orb = 0, every class and refusals
    assert len(seen) == 9 and min(seen.values()) >= 20, seen


def test_surface_curves_run_every_route():
    rng = random.Random(9)
    seen = set()
    for _ in range(300):
        seen.update(_random_surface_curve(rng).profile.chi_routes())
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


def _random_place_sets():
    """(budget, places) of 60 seeded random searches: one to three places
    of e_tau and f in 1..4, with at most 4 slots or none, and a budget of
    at most 1/2."""
    rng = random.Random(11)
    names = ["seg", "real", "quat", "inner"]
    for _ in range(60):
        places = {
            name: (rng.randint(1, 4), rng.randint(1, 4), rng.choice((None, rng.randint(1, 4))))
            for name in rng.sample(names, rng.randint(1, 3))
        }
        budget = Fraction(rng.randint(1, 6), rng.randint(2, 12))
        yield min(budget, Fraction(1, 2)), places


def test_tubular_search_matches_the_fraction_oracle():
    hits = 0
    for budget, places in _random_place_sets():
        got = [tuple(sorted(ws)) for ws, _, exact in _search(budget, places) if exact]
        assert got == [tuple(sorted(ws)) for ws in fo.tubular_weights(budget, places)]
        hits += bool(got)
    assert hits >= 20  # the search finds something on many of the place sets


def _breaking_the_rule(budget, places, found):
    """Every pattern of the search that breaks the zoo's rule, on
    Fractions: it must fit the budget, no weight of it may become a symbol
    and still fit, and it is exact when it has no symbol and no slack."""
    share = {name: Fraction(f, 2 * e_tau) for name, (e_tau, f, _) in places.items()}
    term = cache(lambda name, p: share[name] / p)
    full = cache(lambda entries: sum(n * c for n, c in zip(entries, share.values())))
    broken = []
    for ws, symbols, exact in found:
        # a weight drops c - c/p and a symbol c; the c/p are summed as one
        # Fraction over the lcm of their denominators
        terms = [term(name, p) for name, p in ws]
        den = lcm(*(t.denominator for t in terms))
        nums = [t.numerator * (den // t.denominator) for t in terms]
        weights = Counter(name for name, _ in ws)
        drops = full(tuple(weights[name] + k for name, k in zip(share, symbols))) - Fraction(sum(nums), den)
        fits = drops <= budget
        saturated = not terms or drops + Fraction(min(nums), den) > budget
        if not (fits and saturated and exact == (not any(symbols) and drops == budget)):
            broken.append((ws, symbols, exact))
    return broken


def test_every_search_pattern_matches_the_fraction_oracle():
    inexact = 0
    for budget, places in _random_place_sets():
        found = _search(budget, places)
        assert _breaking_the_rule(budget, places, found) == []
        got = sorted((tuple(sorted(ws)), symbols) for ws, symbols, _ in found)
        assert got == sorted((tuple(sorted(ws)), symbols) for ws, symbols in fo.patterns(budget, places))
        inexact += sum(not exact for _, _, exact in found)
    assert inexact >= 500  # the rule reaches well past the exact patterns


# ---------------------------------------------------------------------------
# Each cross-check of chi_orb fires

def _disc_profile():
    """D with weights 3 and 5 on the boundary: real centre, genus zero."""
    c = WeightedCurve(catalog("D"), (WeightedPoint(REAL_B, 3), WeightedPoint(REAL_B, 5)))
    profile = c.profile
    assert set(profile.chi_routes()) == {"general", "split", "boundary count", "genus-zero form"}
    assert profile.chi_orb == Fraction(1, 2) * (2 - Fraction(2, 3) - Fraction(4, 5))
    return profile


def test_a_shifted_chi_prime_breaks_the_split_route():
    profile = _disc_profile()
    numerics = profile.numerics._replace(chi_prime=profile.numerics.chi_prime + Fraction(1, 7))
    with pytest.raises(InvariantViolation, match="general .*, split "):
        profile._replace(numerics=numerics).chi_orb


def test_a_changed_point_kind_breaks_the_boundary_count():
    profile = _disc_profile()
    shapes = ((INNER.value, *profile.shapes[0][1:]),) + profile.shapes[1:]
    with pytest.raises(InvariantViolation, match="general .*, boundary count "):
        profile._replace(shapes=shapes).chi_orb


@pytest.mark.parametrize("bare", [0, 1, 3])
def test_a_changed_count_of_bare_points_breaks_the_split_route(bare):
    """A bare segmentation point adds only to the general route, in closed
    form, so a count that the surface does not have puts it out of step."""
    profile = WeightedCurve(catalog("D_22"), (WeightedPoint(INNER, 3),)).profile
    assert profile.bare == 2
    with pytest.raises(InvariantViolation, match="general .*, split "):
        profile._replace(bare=bare).chi_orb


def test_a_changed_kappa_breaks_the_genus_zero_route():
    profile = _disc_profile()
    with pytest.raises(InvariantViolation, match="general .*, genus-zero form "):
        profile._replace(numerics=profile.numerics._replace(kappa=2)).chi_orb
    # epsilon cancels from the genus-zero form (e f carries 1/epsilon), so
    # only kappa and s can put it out of step with the other routes
    assert profile._replace(numerics=profile.numerics._replace(epsilon=2)).chi_orb == profile.chi_orb
