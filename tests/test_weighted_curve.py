import random
from dataclasses import replace
from fractions import Fraction

import pytest

import wittcurves.witt_surface as ws
from wittcurves.errors import DomainError, InconsistentDataError, InvariantViolation, ValidationError
from wittcurves.local_data import WittPointClass
from wittcurves.weighted_curve import (
    MAX_POINT_VALUE,
    MAX_VECTOR_LENGTH,
    TUBULAR_VECTORS,
    AbstractBase,
    AbstractPoint,
    CurveClass,
    WeightedCurve,
    WeightedPoint,
    classify,
    curve_profile,
    cy_dimension,
    effective_points,
    genus_zero_orbifold_euler,
    ghost_group,
    invariants_report,
    orbifold_euler,
    picard_structure,
    tau_exponents,
    tau_order,
    tau_word,
    weight_ram_vector,
)
from wittcurves.witt_surface import (
    ComplexCentreBase,
    KleinTopology,
    WittSurface,
    catalog,
    segmented_oval,
    whole_oval,
)

INNER = WittPointClass.INNER
REAL_B = WittPointClass.REAL_BOUNDARY
QUAT_B = WittPointClass.QUATERNION_BOUNDARY
SEG = WittPointClass.SEGMENTATION


def _tri_disc():
    return WeightedCurve(catalog("D_22"), (
        WeightedPoint(SEG, 3, oval=0, segment=0),
        WeightedPoint(REAL_B, 3, oval=0),
    ))


def test_weighted_disc_with_orders_two_three_six():
    c = _tri_disc()
    assert orbifold_euler(c) == 0
    assert weight_ram_vector(c) == (2, 3, 6)
    assert classify(c) is CurveClass.TUBULAR
    assert tau_order(c) == 6
    assert cy_dimension(c) == (6, 6)
    assert tau_exponents(c) == {"seg0.0": 5, "seg0.1": 1, "real0": 2}
    assert tau_word(c) == (("x0", -2), ("real0", 2), ("seg0.0", 5), ("seg0.1", 1))


def test_weighted_disc_with_orders_two_four_four():
    c = WeightedCurve(catalog("D_22"), (
        WeightedPoint(SEG, 2, oval=0, segment=0),
        WeightedPoint(SEG, 2, oval=0, segment=1),
        WeightedPoint(REAL_B, 2, oval=0),
    ))
    assert orbifold_euler(c) == 0
    assert weight_ram_vector(c) == (2, 4, 4)
    assert tau_order(c) == 4
    profile = curve_profile(c)
    triples = profile.any_field_triples()
    assert sorted(e * f for e, f, _ in triples) == [1, 1, 2]
    assert genus_zero_orbifold_euler(profile.kappa, 2, profile.epsilon, triples) == 0


def test_weighted_projective_plane():
    c = WeightedCurve(catalog("RP2"), (WeightedPoint(INNER, 2), WeightedPoint(INNER, 2)))
    assert orbifold_euler(c) == 0
    assert weight_ram_vector(c) == (2, 2, 2, 2)
    assert tau_order(c) == 2
    with pytest.raises(DomainError):
        tau_word(c)


def test_wild_example():
    c = WeightedCurve(catalog("D_22"), (WeightedPoint(INNER, 7),))
    assert orbifold_euler(c) == Fraction(-5, 14)
    assert classify(c) is CurveClass.WILD
    assert weight_ram_vector(c) == (2, 2, 7, 7)


def test_weightless_catalog_curves():
    elliptic = WeightedCurve(catalog("D_2222"))
    assert classify(elliptic) is CurveClass.ELLIPTIC
    assert tau_order(elliptic) == 2
    assert cy_dimension(elliptic) == (2, 2)
    assert tau_order(WeightedCurve(catalog("K"))) == 1
    domestic = WeightedCurve(catalog("D"))
    assert classify(domestic) is CurveClass.DOMESTIC
    assert orbifold_euler(domestic) == 1
    assert tau_word(domestic) == (("x0", -2),)
    with pytest.raises(DomainError):
        tau_order(domestic)


def test_genus_zero_formula_directly():
    assert genus_zero_orbifold_euler(1, 1, 1, [(1, 1, 2), (1, 1, 3), (1, 1, 6)]) == 0
    assert genus_zero_orbifold_euler(2, 2, 1, []) == Fraction(1, 2)
    assert genus_zero_orbifold_euler(1, 1, 2, [(1, 1, 2), (1, 1, 2)]) == 0


def test_abstract_base_over_a_number_field():
    base = AbstractBase(chi_x=Fraction(1), s=1, kappa=1, epsilon=1, points=(
        AbstractPoint("p1", e_tau=2),
        AbstractPoint("p2", e_tau=2),
        AbstractPoint("p3", residue_degree=2, weight=2),
    ))
    c = WeightedCurve(base)
    assert orbifold_euler(c) == 0
    assert weight_ram_vector(c) == (2, 2, 2, 2)
    assert classify(c) is CurveClass.TUBULAR


def test_abstract_base_with_complex_constants():
    base = AbstractBase(chi_x=Fraction(1), s=1, kappa=1, epsilon=1, points=(
        AbstractPoint("p1", e_tau=2),
        AbstractPoint("p2", e_tau=2, weight=2),
        AbstractPoint("p3", e_tau=2, weight=2),
    ))
    c = WeightedCurve(base)
    assert orbifold_euler(c) == 0
    assert weight_ram_vector(c) == (2, 4, 4)
    assert classify(c) is CurveClass.TUBULAR


def test_validation_codes():
    disc = catalog("D_22")
    with pytest.raises(ValidationError) as exc:
        WeightedCurve(disc, (WeightedPoint(INNER, 1),))
    assert exc.value.code == "weight"
    with pytest.raises(ValidationError) as exc:
        WeightedCurve(disc, (
            WeightedPoint(SEG, 2, oval=0, segment=0),
            WeightedPoint(SEG, 3, oval=0, segment=0),
        ))
    assert exc.value.code == "duplicate-placement"
    with pytest.raises(ValidationError) as exc:
        WeightedCurve(catalog("D"), (WeightedPoint(SEG, 2, oval=0, segment=0),))
    assert exc.value.code == "placement"
    with pytest.raises(ValidationError) as exc:
        WeightedCurve(disc, (WeightedPoint(SEG, 2),))
    assert exc.value.code == "placement"
    with pytest.raises(ValidationError) as exc:
        WeightedCurve(catalog("D_H"), (WeightedPoint(REAL_B, 2, oval=0),))
    assert exc.value.code == "placement"
    with pytest.raises(ValidationError) as exc:
        WeightedCurve(catalog("S2_C"), (WeightedPoint(INNER, 2),))
    assert exc.value.code == "placement"
    base = AbstractBase(chi_x=Fraction(1), s=1, kappa=1, epsilon=1, points=())
    with pytest.raises(ValidationError) as exc:
        WeightedCurve(base, (WeightedPoint(INNER, 2),))
    assert exc.value.code == "placement"


def test_single_segment_weight_ram_vector():
    for p in range(2, 6):
        c = WeightedCurve(catalog("D_22"), (WeightedPoint(SEG, p, oval=0, segment=0),))
        assert weight_ram_vector(c) == (2, 2 * p)


def test_picard_structures():
    fg = picard_structure(WeightedCurve(catalog("D_2222")))
    assert fg.base_part == "Z"
    assert fg.finitely_generated_rank_one
    assert fg.pic_zero == "C2 x C2"
    assert fg.torsion_quotient == (2, 2, 2, 2)
    not_fg = picard_structure(WeightedCurve(catalog("K")))
    assert not not_fg.finitely_generated_rank_one
    assert "not finitely generated" in not_fg.base_part
    plain = picard_structure(WeightedCurve(catalog("D")))
    assert plain.base_part == "Z"
    assert plain.torsion_quotient == ()


def test_ghost_groups():
    g = ghost_group([(5, 1), (5, 1)], 0)
    assert g.orders == (5,)
    assert g.describe() == "C5"
    assert g.shifts == ((1, Fraction(1)),)
    assert ghost_group([(2, 1), (2, 2)], 0).describe() == "C2"
    assert ghost_group([(2, 1), (2, 1), (2, 1)], 0).describe() == "C2 x C2"
    assert ghost_group([(1, 1), (1, 3)], 0).describe() == "trivial"


def test_ghost_group_shift_must_divide():
    with pytest.raises(InconsistentDataError):
        ghost_group([(2, 1), (2, 2)], 1)


def test_ghost_group_input_checks():
    with pytest.raises(ValidationError) as exc:
        ghost_group([(0, 1)], 0)
    assert exc.value.code == "nonpositive"
    with pytest.raises(ValidationError) as exc:
        ghost_group([(2, 1)], 3)
    assert exc.value.code == "placement"


def test_effective_points_of_the_wild_example():
    c = WeightedCurve(catalog("D_22"), (WeightedPoint(INNER, 7),))
    rows = [(p.kind, p.e_tau, p.residue_degree, p.weight) for p in effective_points(c)]
    assert rows == [
        ("segmentation", 2, 1, 1),
        ("segmentation", 2, 1, 1),
        ("inner", 1, 2, 7),
    ]


def test_invariants_report_shape():
    report = invariants_report(_tri_disc())
    assert report["kappa"] == 2
    assert report["epsilon"] == 1
    assert report["skewness"] == 2
    assert report["pbar"] == 3
    assert report["chi_orb"] == 0
    assert report["curve_class"] == "tubular"
    assert report["tau_order"] == 6
    assert report["cy_dimension"] == (6, 6)
    assert report["picard"] is not None
    wild = invariants_report(WeightedCurve(catalog("D_22"), (WeightedPoint(INNER, 7),)))
    assert wild["tau_order"] is None
    assert wild["cy_dimension"] is None


def _random_curve(rng):
    name = rng.choice(["D", "RP2", "D_H", "D_22", "S2_C", "D_2222", "A", "M", "K", "A_RH", "A_HH", "M_H", "T_C"])
    base = catalog(name)
    placements = []
    if isinstance(base, ComplexCentreBase):
        choices = ["point"]
        segments = []
        plus_ovals, minus_ovals = [], []
    else:
        segments = [
            (i, j)
            for i, oval in enumerate(base.ovals)
            for j in range(len(oval.segments))
        ]
        plus_ovals = [i for i, o in enumerate(base.ovals) if o.sign == "+"]
        minus_ovals = [i for i, o in enumerate(base.ovals) if o.sign == "-"]
        choices = ["inner"]
        if segments:
            choices.append("seg")
        if plus_ovals:
            choices.append("real")
        if minus_ovals:
            choices.append("quat")
    used_segments = set()
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(choices)
        p = rng.randint(2, 9)
        if kind == "point":
            placements.append(WeightedPoint("point", p))
        elif kind == "inner":
            placements.append(WeightedPoint(INNER, p))
        elif kind == "real":
            placements.append(WeightedPoint(REAL_B, p, oval=rng.choice(plus_ovals)))
        elif kind == "quat":
            placements.append(WeightedPoint(QUAT_B, p, oval=rng.choice(minus_ovals)))
        else:
            spot = rng.choice(segments)
            if spot in used_segments:
                continue
            used_segments.add(spot)
            placements.append(WeightedPoint(SEG, p, oval=spot[0], segment=spot[1]))
    return WeightedCurve(base, tuple(placements))


def test_random_curves_classify_consistently():
    rng = random.Random(90125)
    for _ in range(500):
        c = _random_curve(rng)
        chi = orbifold_euler(c)
        cls = classify(c)
        if chi > 0:
            assert cls is CurveClass.DOMESTIC
        elif chi < 0:
            assert cls is CurveClass.WILD
        else:
            assert cls in (CurveClass.ELLIPTIC, CurveClass.TUBULAR)
            assert weight_ram_vector(c) in TUBULAR_VECTORS or cls is CurveClass.ELLIPTIC
            n, n2 = cy_dimension(c)
            assert n == n2 == tau_order(c)


def test_abstract_data_off_the_tubular_vectors_is_inconsistent():
    base = AbstractBase(Fraction(1, 2), 2, 1, 2, (AbstractPoint("x0", residue_degree=2, weight=2),))
    c = WeightedCurve(base)
    for view in (classify, invariants_report):
        with pytest.raises(InconsistentDataError) as exc:
            view(c)
        assert not isinstance(exc.value, InvariantViolation)
        assert str(exc.value) == "tubular curve with vector (2, 2)"


@pytest.mark.parametrize("field", ["e_tau", "residue_degree", "weight"])
@pytest.mark.parametrize("value", [10**9, 2**70])
def test_abstract_point_entries_are_bounded(field, value):
    point = AbstractPoint("x0", **{field: value})
    with pytest.raises(ValidationError) as exc:
        invariants_report(WeightedCurve(AbstractBase(Fraction(1), 1, 1, 1, (point,))))
    assert exc.value.code == "too-large"
    point = AbstractPoint("x0", **{field: MAX_POINT_VALUE})
    invariants_report(WeightedCurve(AbstractBase(Fraction(1), 1, 1, 1, (point,))))


def test_inserted_weights_are_bounded():
    with pytest.raises(ValidationError) as exc:
        WeightedCurve(catalog("D"), (WeightedPoint(INNER, MAX_POINT_VALUE + 1),))
    assert exc.value.code == "too-large"


def test_weight_ram_vector_length_is_bounded():
    assert MAX_VECTOR_LENGTH >= MAX_POINT_VALUE
    half = MAX_VECTOR_LENGTH // 2 + 1

    def base(*points):
        return AbstractBase(Fraction(1), 1, 1, 1, points)

    # two points that each fit, but not together
    weighted = AbstractPoint("x0", residue_degree=half, weight=2)
    with pytest.raises(ValidationError) as exc:
        WeightedCurve(base(weighted, AbstractPoint("x1", residue_degree=half, e_tau=2)))
    assert exc.value.code == "too-large"
    # a point with weight * e_tau = 1 adds no entries
    WeightedCurve(base(weighted, AbstractPoint("x1", residue_degree=half)))
    # the cap itself is allowed
    WeightedCurve(base(replace(weighted, residue_degree=MAX_VECTOR_LENGTH - 1), AbstractPoint("x1", e_tau=3)))


# ---------------------------------------------------------------------------
# Integer fields take ints only: no float, no bool, no truncation

def _not_integer(call):
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.value.code == "not-integer"


@pytest.mark.parametrize("g, t, s", [(0.0, 1, 1), (0, True, 1), (0, 1, 1.0)])
def test_topology_fields_must_be_ints(g, t, s):
    ovals = (whole_oval("+"),)
    _not_integer(lambda: WeightedCurve(WittSurface(KleinTopology(g, t, s), ovals, commutative=True)))


@pytest.mark.parametrize("value", [0.5, 1.0, True, Fraction(1)])
def test_complex_centre_genus_must_be_an_int(value):
    _not_integer(lambda: WeightedCurve(ComplexCentreBase(value)))


@pytest.mark.parametrize("point", [
    WeightedPoint(WittPointClass.INNER, 2.5),
    WeightedPoint(WittPointClass.INNER, 2.0),
    WeightedPoint(WittPointClass.INNER, True),
    WeightedPoint(WittPointClass.REAL_BOUNDARY, 2, oval=0.0),
    WeightedPoint(WittPointClass.SEGMENTATION, 2, oval=0, segment=0.0),
])
def test_weighted_point_fields_must_be_ints(point):
    _not_integer(lambda: WeightedCurve(catalog("D_22"), (point,)))


@pytest.mark.parametrize("field", ["e_tau", "residue_degree", "weight"])
@pytest.mark.parametrize("value", [2.5, 2.0, True])
def test_abstract_point_fields_must_be_ints(field, value):
    point = replace(AbstractPoint("x0"), **{field: value})
    _not_integer(lambda: WeightedCurve(AbstractBase(Fraction(1), 1, 1, 1, (point,))))


@pytest.mark.parametrize("field, value", [
    ("chi_x", 0.1), ("chi_x", True), ("s", 1.0), ("kappa", 1.5), ("epsilon", True), ("centre_genus", 0.0),
])
def test_abstract_base_fields_must_be_ints(field, value):
    base = replace(AbstractBase(Fraction(1), 1, 1, 1, ()), **{field: value})
    _not_integer(lambda: WeightedCurve(base))


def test_abstract_chi_x_may_be_an_int_or_a_fraction():
    for chi_x in (1, Fraction(1, 2)):
        curve = WeightedCurve(AbstractBase(chi_x, 1, 1, 1, ()))
        assert curve_profile(curve).chi_prime == chi_x


def test_abstract_centre_genus_must_be_nonnegative():
    with pytest.raises(ValidationError) as exc:
        WeightedCurve(AbstractBase(Fraction(1), 1, 1, 1, (), centre_genus=-1))
    assert exc.value.code == "negative-genus"


@pytest.mark.parametrize("points, efficient", [
    ([(2.7, 1), (2, 1)], 0), ([(2, 1.0), (2, 1)], 0), ([(True, 1), (2, 1)], 0), ([(2, 1), (2, 1)], 0.0),
])
def test_ghost_group_entries_must_be_ints(points, efficient):
    _not_integer(lambda: ghost_group(points, efficient))


# ---------------------------------------------------------------------------
# A report reads its surface once

def test_one_report_counts_the_ovals_once(monkeypatch):
    counted = []
    real_counts = ws.counts
    monkeypatch.setattr(ws, "counts", lambda w: counted.append(w) or real_counts(w))
    weighted = WeightedCurve(catalog("D_22"), (
        WeightedPoint(WittPointClass.SEGMENTATION, 3, oval=0, segment=0),
        WeightedPoint(WittPointClass.REAL_BOUNDARY, 3),
    ))
    curves = [weighted] + [WeightedCurve(catalog(name)) for name in ("D", "K", "D_H", "A_RH", "M_H", "D_2222")]
    for curve in curves:
        counted.clear()
        invariants_report(curve)
        assert counted == [curve.base]
