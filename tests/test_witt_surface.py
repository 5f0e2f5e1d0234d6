import random
from fractions import Fraction
from itertools import product

import pytest

from wittcurves.algebra import COMPLEX, QUATERNION, REAL
from wittcurves.errors import ValidationError
from wittcurves.witt_surface import (
    CATALOG_NAMES,
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
    signed_ovals,
    surface_numerics,
    surface_skewness,
    validate,
    whole_oval,
)


def test_catalog_topologies():
    expected = {
        "D": (0, 1, 1),
        "RP2": (0, 0, 0),
        "A": (1, 2, 1),
        "M": (1, 1, 0),
        "K": (1, 0, 0),
    }
    for name, (g, t, s) in expected.items():
        topo = catalog(name).topology
        assert (topo.g, topo.t, topo.s) == (g, t, s)


def test_catalog_rejects_unknown_names():
    with pytest.raises(ValidationError):
        catalog("D_23")


def test_counts():
    assert tuple(counts(catalog("D_2222"))) == (2, 0, 0)
    assert tuple(counts(catalog("D_H"))) == (0, 0, 1)
    assert tuple(counts(catalog("A_RH"))) == (0, 1, 1)
    assert tuple(counts(catalog("D_22"))) == (1, 0, 0)


def test_constants_fields():
    real_names = ("D", "A", "M", "K", "RP2")
    complex_names = ("D_22", "A_RH", "D_2222", "S2_C", "T_C")
    for name in real_names:
        assert constants_field(catalog(name)) is REAL
    for name in complex_names:
        assert constants_field(catalog(name)) is COMPLEX
    for name in ("D_H", "A_HH", "M_H"):
        assert constants_field(catalog(name)) is QUATERNION


def test_genus_catalog():
    expected = {
        "D": 0, "RP2": 0, "D_H": 0, "D_22": 0, "S2_C": 0,
        "A": 1, "M": 1, "K": 1,
        "A_RH": 1, "A_HH": 1, "M_H": 1, "D_2222": 1, "T_C": 1,
    }
    for name, g in expected.items():
        assert genus(catalog(name)) == g, name


def test_euler_characteristics():
    assert euler_characteristics(catalog("D")) == (1, 1)
    assert euler_characteristics(catalog("D_22")) == (2, Fraction(1, 2))
    assert euler_characteristics(catalog("D_2222")) == (0, 0)
    assert euler_characteristics(catalog("D_H")) == (4, 1)
    assert euler_characteristics(catalog("S2_C")) == (1, 1)
    assert euler_characteristics(catalog("T_C")) == (0, 0)


def test_skewness():
    assert surface_skewness(catalog("D")) == 1
    assert surface_skewness(catalog("D_22")) == 2
    assert surface_skewness(catalog("D_H")) == 2
    assert surface_skewness(catalog("S2_C")) == 1


def test_weichold_range_enforced():
    with pytest.raises(ValidationError) as exc:
        validate(WittSurface(KleinTopology(1, 3, 1), (whole_oval("+"),) * 3, commutative=True))
    assert exc.value.code == "weichold"
    with pytest.raises(ValidationError):
        validate(WittSurface(KleinTopology(1, 2, 0), (whole_oval("+"),) * 2, commutative=True))
    with pytest.raises(ValidationError):
        validate(WittSurface(KleinTopology(-1, 0, 1), (), commutative=True))


def test_oval_count_must_match_topology():
    with pytest.raises(ValidationError) as exc:
        validate(WittSurface(KleinTopology(0, 1, 1), (), commutative=True))
    assert exc.value.code == "oval-count"


def test_segment_shape_enforced():
    topo = KleinTopology(0, 1, 1)
    with pytest.raises(ValidationError) as exc:
        validate(WittSurface(topo, (segmented_oval("+", "-", "+"),), commutative=False))
    assert exc.value.code == "odd-segments"
    with pytest.raises(ValidationError) as exc:
        validate(WittSurface(topo, (segmented_oval("+", "+", "-", "-"),), commutative=False))
    assert exc.value.code == "non-alternating"


def test_commutative_surfaces_carry_no_signs():
    with pytest.raises(ValidationError) as exc:
        validate(WittSurface(KleinTopology(0, 1, 1), (whole_oval("-"),), commutative=True))
    assert exc.value.code == "minus-on-commutative"
    with pytest.raises(ValidationError):
        validate(WittSurface(KleinTopology(0, 1, 1), (segmented_oval("+", "-"),), commutative=True))


def test_noncommutative_realizability():
    with pytest.raises(ValidationError) as exc:
        validate(WittSurface(KleinTopology(0, 1, 1), (whole_oval("+"),), commutative=False))
    assert exc.value.code == "negative-genus"
    with pytest.raises(ValidationError) as exc:
        validate(WittSurface(KleinTopology(1, 2, 1), (whole_oval("+"), whole_oval("+")), commutative=False))
    assert exc.value.code == "positive-definite"


def test_genus_values_for_witt_surfaces():
    one_seg = WittSurface(KleinTopology(1, 2, 1), (segmented_oval("+", "-"), whole_oval("+")), commutative=False)
    validate(one_seg)
    assert genus(one_seg) == 2 * 1 - 1 + 1
    assert tuple(counts(one_seg)) == (1, 1, 0)


def test_canonical_key_ignores_rotation_and_reflection():
    topo = KleinTopology(0, 1, 1)
    flipped = WittSurface(topo, (segmented_oval("-", "+"),), commutative=False)
    assert canonical_key(flipped) == canonical_key(catalog("D_22"))
    four = WittSurface(topo, (segmented_oval("-", "+", "-", "+"),), commutative=False)
    assert canonical_key(four) == canonical_key(catalog("D_2222"))


def test_complex_centre_bases():
    with pytest.raises(ValidationError):
        validate(ComplexCentreBase(-1))
    assert genus(ComplexCentreBase(2)) == 2
    assert euler_characteristics(ComplexCentreBase(2)) == (-1, -1)
    assert surface_skewness(ComplexCentreBase(2)) == 1


def _random_surface(rng):
    g = rng.randint(0, 4)
    s = rng.choice([0, 1])
    if s == 1:
        t = rng.choice([t for t in range(0, g + 2) if (g + 1 - t) % 2 == 0])
    else:
        t = rng.randint(0, g)
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


def test_euler_characteristic_identity_on_random_surfaces():
    rng = random.Random(1731)
    seen = 0
    for _ in range(500):
        w = _random_surface(rng)
        if w is None:
            continue
        seen += 1
        chi, chi_normalized = euler_characteristics(w)
        kappa = constants_field(w).dim_over_k
        s = surface_skewness(w)
        assert chi == kappa * (1 - genus(w))
        assert chi_normalized * s * s == chi
        n_segments = sum(len(o.segments) for o in w.ovals)
        assert chi_normalized == (1 - w.topology.g) - Fraction(n_segments, 4)
        m, r, q = counts(w)
        is_quaternionic = constants_field(w) is QUATERNION
        assert is_quaternionic == (m == 0 and r == 0 and not w.commutative)
    assert seen > 200


def test_every_catalog_entry_validates():
    for name in CATALOG_NAMES:
        validate(catalog(name))


# ---------------------------------------------------------------------------
# The reading of a surface before surface_numerics, kept as an oracle: the
# bodies of constants_field, genus and euler_characteristics, and the
# epsilon rule of curve_profile, each counting the ovals for itself.

def _oracle_constants_field(w):
    if isinstance(w, ComplexCentreBase):
        return COMPLEX
    if w.commutative:
        return REAL
    m, r, _ = counts(w)
    return COMPLEX if (m > 0 or r > 0) else QUATERNION


def _oracle_skewness(w):
    if isinstance(w, ComplexCentreBase):
        return 1
    return 1 if w.commutative else 2


def _oracle_genus(w):
    if isinstance(w, ComplexCentreBase):
        return w.genus
    g = w.topology.g
    if w.commutative:
        return g
    m, r, _ = counts(w)
    if m > 0 or r > 0:
        upstairs = 2 * g - 1 + m
        if upstairs < 0:
            raise ValidationError("surface is not realizable", code="negative-genus")
        return upstairs
    return g


def _oracle_euler_characteristics(w):
    if isinstance(w, ComplexCentreBase):
        chi = Fraction(1 - w.genus)
        return chi, chi
    chi = _oracle_constants_field(w).dim_over_k * (1 - _oracle_genus(w))
    s2 = _oracle_skewness(w) ** 2
    assert 2 * chi == s2 * (2 * (1 - w.topology.g) - counts(w).m)
    return Fraction(chi), Fraction(chi, s2)


def _oracle_numerics(w):
    """The fields of SurfaceNumerics, read the old way."""
    constants = _oracle_constants_field(w)
    chi, chi_prime = _oracle_euler_characteristics(w)
    if isinstance(w, ComplexCentreBase):
        return (constants, 1, 1, 1, w.genus, "C", w.genus, None, chi, chi_prime)
    if w.commutative:
        epsilon = 2 if w.topology.t == 0 else 1
    else:
        m, r, _ = counts(w)
        epsilon = 2 if (m == 0 and r > 0) else 1
    return (
        constants, constants.dim_over_k, epsilon, _oracle_skewness(w), _oracle_genus(w),
        "R", w.topology.g, w.topology.t, chi, chi_prime,
    )


# whole ovals of either sign and segmented ones with up to four segments
_OVAL_SHAPES = (
    whole_oval("+"), whole_oval("-"),
    segmented_oval("+", "-"), segmented_oval("-", "+"),
    segmented_oval("+", "-", "+", "-"), segmented_oval("-", "+", "-", "+"),
)


def _small_surfaces():
    """Every valid surface with g <= 3 and at most 3 ovals, either flag."""
    for g, t, s, commutative in product(range(4), range(4), (0, 1), (False, True)):
        for ovals in product(_OVAL_SHAPES, repeat=t):
            w = WittSurface(KleinTopology(g, t, s), ovals, commutative=commutative)
            try:
                validate(w)
            except ValidationError:
                continue
            yield w


def test_surface_numerics_agrees_with_the_old_reading():
    surfaces = list(_small_surfaces()) + [ComplexCentreBase(g) for g in range(4)]
    assert sum(isinstance(w, WittSurface) and not w.commutative for w in surfaces) > 500
    assert sum(isinstance(w, WittSurface) and w.commutative for w in surfaces) > 10
    for w in surfaces:
        numerics = surface_numerics(w)
        assert tuple(numerics) == _oracle_numerics(w)
        assert constants_field(w) is _oracle_constants_field(w)
        assert genus(w) == _oracle_genus(w)
        assert surface_skewness(w) == _oracle_skewness(w)
        assert euler_characteristics(w) == _oracle_euler_characteristics(w)


def test_surface_numerics_states_the_negative_genus_rule():
    w = WittSurface(KleinTopology(0, 1, 1), (whole_oval("+"),), commutative=False)
    for read in (surface_numerics, genus, constants_field, euler_characteristics):
        with pytest.raises(ValidationError) as exc:
            read(w)
        assert exc.value.code == "negative-genus"


def test_signed_ovals():
    w = WittSurface(
        KleinTopology(2, 3, 1),
        (whole_oval("+"), segmented_oval("+", "-"), whole_oval("-")),
        commutative=False,
    )
    assert signed_ovals(w, "+") == (0, 1)
    assert signed_ovals(w, "-") == (1, 2)
    assert signed_ovals(catalog("K"), "+") == ()
