import copy
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest

from wittcurves.algebra import COMPLEX, QUATERNION, REAL
from wittcurves.errors import ValidationError
from wittcurves.weighted_curve import WeightedCurve, orbifold_euler
import wittcurves.witt_surface as ws
from wittcurves.witt_surface import (
    CATALOG_NAMES,
    MAX_ORDER_LCM,
    ComplexCentreBase,
    KleinTopology,
    Oval,
    WittSurface,
    canonical_key,
    catalog,
    constants_field,
    counts,
    euler_characteristics,
    genus,
    read_base,
    segmented_oval,
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


# two cut ovals of a topology that exists: one of odd length, one that does not alternate
_ODD, _SAME = segmented_oval("+", "-", "+"), segmented_oval("+", "+")


@pytest.mark.parametrize("topology, ovals, code", [
    (KleinTopology(1, 2, 1), (_ODD, _SAME), "odd-segments"),
    (KleinTopology(1, 2, 1), (_SAME, _ODD), "non-alternating"),
    (KleinTopology(1, 2, 1), (whole_oval("-"), _ODD, _SAME), "oval-count"),
    (KleinTopology(0, 1, 1), (_SAME, _ODD), "oval-count"),
])
def test_the_first_bad_cut_oval_is_refused_and_a_bad_oval_count_before_it(topology, ovals, code):
    with pytest.raises(ValidationError) as exc:
        read_base(WittSurface(topology, ovals, commutative=False))
    assert exc.value.code == code


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
    assert tuple(counts(ComplexCentreBase(2))) == (0, 0, 0)
    assert canonical_key(ComplexCentreBase(2)) == ("C", 2) != canonical_key(ComplexCentreBase(0))
    assert genus(ComplexCentreBase(2)) == 2
    assert euler_characteristics(ComplexCentreBase(2)) == (-1, -1)
    assert surface_skewness(ComplexCentreBase(2)) == 1


@pytest.mark.parametrize("make", [
    lambda g: WittSurface(KleinTopology(g, 0, 0), (), commutative=True), ComplexCentreBase,
], ids=["weichold", "complex-centre"])
def test_the_genus_of_a_base_has_a_ceiling(make):
    # at the ceiling chi'_orb = 1 - g prints; above it, a genus of 5001
    # digits would give a chi'_orb past Python's 4300 for printing an int
    assert str(orbifold_euler(WeightedCurve(make(MAX_ORDER_LCM)))) == str(1 - MAX_ORDER_LCM)
    for g in (MAX_ORDER_LCM + 1, 10**5000):
        for read in (read_base, WeightedCurve):
            with pytest.raises(ValidationError) as exc:
                read(make(g))
            assert exc.value.code == "too-large"


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
# epsilon rule the curve reader applied, each counting the ovals for itself.

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
    """The fields of BaseNumerics, read the old way."""
    constants = _oracle_constants_field(w)
    chi, chi_prime = _oracle_euler_characteristics(w)
    if isinstance(w, ComplexCentreBase):
        return (constants, 1, 1, 1, w.genus, "C", w.genus, None, chi, Fraction(1 - w.genus), chi_prime)
    if w.commutative:
        epsilon = 2 if w.topology.t == 0 else 1
    else:
        m, r, _ = counts(w)
        epsilon = 2 if (m == 0 and r > 0) else 1
    return (
        constants, constants.dim_over_k, epsilon, _oracle_skewness(w), _oracle_genus(w),
        "R", w.topology.g, w.topology.t, chi, Fraction(1 - w.topology.g), chi_prime,
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


def test_carries_sign():
    w = WittSurface(
        KleinTopology(2, 3, 1),
        (whole_oval("+"), segmented_oval("+", "-"), whole_oval("-")),
        commutative=False,
    )
    reading, k = read_base(w), read_base(catalog("K"))
    assert [i for i in range(-1, 5) if reading.carries_sign("+", i)] == [0, 1]
    assert [i for i in range(-1, 5) if reading.carries_sign("-", i)] == [1, 2]
    assert reading.carries_sign("+") and reading.carries_sign("-")
    assert not k.carries_sign("+") and not k.carries_sign("-")
    # any oval, read off the counts: a cut oval carries both signs
    for name in ("D", "D_H", "D_22", "A", "A_RH", "M_H", "D_2222"):
        base = read_base(catalog(name))
        for sign in "+-":
            assert base.carries_sign(sign) == any(base.carries_sign(sign, i) for i in range(len(base.ovals)))
    assert read_base(catalog("D_22")).carries_sign("+") and read_base(catalog("D_22")).carries_sign("-")
    assert not read_base(catalog("D_H")).carries_sign("+") and not read_base(catalog("A")).carries_sign("-")


_VIEWS = (surface_numerics, constants_field, genus, surface_skewness, euler_characteristics)


@pytest.mark.parametrize("read", _VIEWS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("ovals, code", [
    ((segmented_oval("+", "-"),), "minus-on-commutative"),
    ((segmented_oval("+", "+"),), "non-alternating"),
    ((segmented_oval("+"),), "odd-segments"),
    ((whole_oval("-"),), "minus-on-commutative"),
    ((), "oval-count"),
    ((segmented_oval("+", "-", "+", "-"), whole_oval("+")), "oval-count"),
])
def test_a_commutative_surface_with_other_than_whole_real_ovals_is_bad_input(read, ovals, code):
    w = WittSurface(KleinTopology(0, 1, 1), ovals, commutative=True)
    with pytest.raises(ValidationError) as exc:
        read(w)
    assert exc.value.code == code


def test_unvalidated_surfaces_never_trip_the_downstairs_check():
    # every small surface, valid or not: a view either answers or raises
    # the ValidationError of validate, never an InvariantViolation, and it
    # never answers for a commutative surface with a minus or a segment;
    # it answers exactly when validate accepts, and raises validate's code
    for g, t, s, commutative in product(range(4), range(4), (0, 1), (False, True)):
        for ovals in product(_OVAL_SHAPES, repeat=t):
            w = WittSurface(KleinTopology(g, t, s), ovals, commutative=commutative)
            bad = commutative and any(oval != whole_oval("+") for oval in ovals)
            try:
                validate(w)
                code = None
            except ValidationError as exc:
                code = exc.code
            for read in _VIEWS:
                try:
                    read(w)
                except ValidationError as exc:
                    assert exc.code == code, (w, read.__name__)
                    continue
                assert not bad
                assert code is None, (w, read.__name__)


def test_one_oval_for_the_sequence_of_ovals_raises_a_validation_error():
    # iterated, the one Oval would give its fields as ovals
    with pytest.raises(ValidationError) as err:
        WittSurface(KleinTopology(1, 2, 1), segmented_oval("+", "-"), commutative=False)
    assert err.value.code == "oval-shape"


def test_an_oval_keeps_its_segments_as_a_tuple():
    oval = Oval(segments=["+", "-"])
    assert type(oval.segments) is tuple and oval == segmented_oval("+", "-")
    w = WittSurface(KleinTopology(0, 1, 1), (oval,), commutative=False)
    assert hash(w) == hash(catalog("D_22"))
    assert w == catalog("D_22")


# ---------------------------------------------------------------------------
# A surface keeps its reading

def _fresh_surfaces():
    """Every real catalog surface, and a few valid ones off the catalog,
    each built afresh, so that none has been read yet."""
    surfaces = [copy.copy(w) for w in map(catalog, CATALOG_NAMES) if isinstance(w, WittSurface)]
    surfaces += [
        WittSurface(KleinTopology(2, 3, 1), (whole_oval("+"), segmented_oval("+", "-"), whole_oval("-")), False),
        WittSurface(KleinTopology(3, 2, 0), (whole_oval("-"), segmented_oval("+", "-", "+", "-")), False),
        WittSurface(KleinTopology(2, 1, 0), (whole_oval("+"),), True),
    ]
    return surfaces


def test_a_surface_is_read_once_and_keeps_its_reading(monkeypatch):
    counted = []
    real_counts = ws.counts
    monkeypatch.setattr(ws, "counts", lambda w: counted.append(w) or real_counts(w))
    for w in _fresh_surfaces():
        counted.clear()
        numerics = surface_numerics(w)
        assert surface_numerics(w) is numerics and validate(w) is numerics
        assert read_base(w) is read_base(w)
        assert genus(w) == numerics.genus and euler_characteristics(w) == (numerics.chi, numerics.chi_prime)
        assert counted == [w]


def test_segmentation_points_are_read_with_the_surface():
    w = WittSurface(KleinTopology(3, 2, 0), (segmented_oval("+", "-"), segmented_oval("-", "+", "-", "+")), False)
    reading = read_base(w)
    assert reading.points == ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3))
    # asked of one point, by the index bounds
    assert {(o, s) for o, s in product(range(-1, 4), range(-1, 6)) if reading.is_segmentation_point(o, s)} == set(
        reading.points
    )
    # read first for its points, the surface keeps its numerics as well
    assert w._reading.numerics is surface_numerics(w)
    assert read_base(catalog("S2_C")).points == ()


def test_the_kept_reading_is_no_field():
    for w in _fresh_surfaces():
        unread = copy.copy(w)
        surface_numerics(w)
        assert w._reading is not None and unread._reading is None
        assert w == unread and hash(w) == hash(unread) and repr(w) == repr(unread)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(w, protocol) == pickle.dumps(unread, protocol)
        assert "_reading" not in repr(w) and "_reading" not in w._fields


def test_a_rebuilt_surface_reads_again(monkeypatch):
    counted = []
    real_counts = ws.counts
    monkeypatch.setattr(ws, "counts", lambda w: counted.append(w) or real_counts(w))
    w = copy.copy(catalog("D_2222"))
    numerics = surface_numerics(w)
    rebuilt = [
        copy.copy(w),
        copy.deepcopy(w),
        w._replace(),
        WittSurface._make(w._values),
        *(pickle.loads(pickle.dumps(w, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    ]
    counted.clear()
    for built in rebuilt:
        assert built == w and built._reading is None
        assert surface_numerics(built) == numerics and surface_numerics(built) is not numerics
    assert len(counted) == len(rebuilt) and all(c is b for c, b in zip(counted, rebuilt))


@pytest.mark.parametrize("w, code", [
    (WittSurface(KleinTopology(0, 1, 1), (whole_oval("+"),), commutative=False), "negative-genus"),
    (WittSurface(KleinTopology(1, 3, 1), (whole_oval("+"),) * 3, commutative=True), "weichold"),
    (WittSurface(KleinTopology(0, 1, 1), (segmented_oval("+", "-", "+"),), commutative=False), "odd-segments"),
    (WittSurface(KleinTopology(0, 1, 1), (whole_oval("-"),), commutative=True), "minus-on-commutative"),
])
def test_a_surface_that_cannot_exist_raises_on_every_read(w, code):
    for _ in range(2):
        for read in (*_VIEWS, validate, read_base, canonical_key, lambda w: read_base(w).points,
                     lambda w: read_base(w).carries_sign("+"), lambda w: read_base(w).carries_sign("-", 0),
                     lambda w: read_base(w).is_segmentation_point(0, 0)):
            with pytest.raises(ValidationError) as exc:
                read(w)
            assert exc.value.code == code
            assert w._reading is None


def _commutative_surfaces(rng, count):
    """Fresh copies of the commutative catalog surfaces, then random
    commutative topologies with whole real ovals, those that exist."""
    surfaces = [copy.copy(catalog(name)) for name in CATALOG_NAMES if getattr(catalog(name), "commutative", False)]
    while len(surfaces) < count:
        g = rng.randint(0, 6)
        t = rng.randint(0, g + 2)
        w = WittSurface(KleinTopology(g, t, rng.choice((0, 1))), (whole_oval("+"),) * t, True)
        try:
            read_base(copy.copy(w))
        except ValidationError:
            continue
        surfaces.append(w)
    return surfaces


def test_a_commutative_surface_has_three_equal_characteristics():
    # kappa = s = 1 and the genus upstairs is g, so chi = chi_centre = chi'
    surfaces = _commutative_surfaces(random.Random(3511), 60)
    assert [w.topology for w in surfaces[:5]] == [catalog(name).topology for name in ("D", "RP2", "A", "M", "K")]
    for w in surfaces:
        numerics = read_base(w).numerics
        values = (numerics.chi, numerics.chi_centre, numerics.chi_prime)
        assert all(type(value) is Fraction for value in values)
        assert values == (1 - w.topology.g,) * 3
