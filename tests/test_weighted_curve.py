import copy
import enum
import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import isqrt, lcm, prod

import fraction_oracle as fo
import pytest
from test_euler_integer import _random_abstract_curve, _random_complex_curve, _random_surface_curve

import wittcurves.weighted_curve as wc
import wittcurves.witt_surface as ws
import wittcurves.zoo as zoo
from wittcurves.errors import (
    DomainError,
    InconsistentDataError,
    InvariantViolation,
    KindMismatchError,
    ValidationError,
    require_ints,
)
from wittcurves.ktheory import CurveNumerics
from wittcurves.local_data import WittPointClass, degree_of_simple, witt_local_datum
from wittcurves.weighted_curve import (
    MAX_ORDER_LCM,
    MAX_POINT_VALUE,
    MAX_VECTOR_LENGTH,
    AbstractBase,
    AbstractPoint,
    CurveClass,
    EffectivePoint,
    WeightedCurve,
    WeightedPoint,
    classify,
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

# the weight-ramification vectors of the tubular curves
TUBULAR_VECTORS = {(2, 2, 2, 2), (2, 3, 6), (2, 4, 4), (3, 3, 3)}


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
    profile = c.profile
    triples = fo.any_field_triples(c)
    assert sorted(e * f for e, f, _ in triples) == [1, 1, 2]
    assert genus_zero_orbifold_euler(profile.numerics.kappa, 2, profile.numerics.epsilon, triples) == 0


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


@pytest.mark.parametrize("base, weight, message", [
    ("D", WeightedPoint(INNER, 2, oval=99, segment=-7), "an inner weight takes no oval or segment index"),
    ("D", WeightedPoint(INNER, 2, oval=0), "an inner weight takes no oval or segment index"),
    ("D", WeightedPoint(INNER, 2, segment=0), "an inner weight takes no oval or segment index"),
    ("D", WeightedPoint(REAL_B, 2, segment=5), "a boundary weight takes no segment index"),
    ("D_H", WeightedPoint(QUAT_B, 2, oval=0, segment=0), "a boundary weight takes no segment index"),
    ("S2_C", WeightedPoint("point", 2, oval=3), "a point weight takes no oval or segment index"),
    ("S2_C", WeightedPoint("point", 2, segment=0), "a point weight takes no oval or segment index"),
], ids=["inner-both", "inner-oval", "inner-segment", "real-segment", "quaternion-segment", "point-oval",
        "point-segment"])
def test_an_index_the_class_does_not_read_is_refused(base, weight, message):
    with pytest.raises(ValidationError) as exc:
        WeightedCurve(catalog(base), (weight,))
    assert exc.value.code == "placement"
    assert str(exc.value) == message
    # the same weight with only the indices its class reads is taken
    kept = weight._replace(segment=None, oval=weight.oval if weight.location in (REAL_B, QUAT_B) else None)
    WeightedCurve(catalog(base), (kept,))


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


def test_only_the_bare_d2222_has_a_known_pic_zero():
    # picard() names the bare D_2222 from its profile alone: a real centre
    # of genus 0, no weight and four points. Search every surface with
    # g <= 4, whole ovals and alternating ovals of up to 8 segments.
    kinds = [whole_oval("+"), whole_oval("-")] + [
        segmented_oval(*signs * k) for k in range(1, 5) for signs in (("+", "-"), ("-", "+"))
    ]
    d2222 = ws.canonical_key(catalog("D_2222"))
    four_points, existing = set(), 0
    for g, flag, commutative in product(range(5), (0, 1), (False, True)):
        for t in range(g + 2):
            for ovals in combinations_with_replacement(kinds, t):
                w = WittSurface(KleinTopology(g, t, flag), ovals, commutative)
                try:
                    numerics = ws.surface_numerics(w)
                except ValidationError:
                    continue
                existing += 1
                key = ws.canonical_key(w)
                if numerics.centre_genus == 0 and len(ws.read_base(w).points) == 4:
                    four_points.add(key)
                pic_zero = picard_structure(WeightedCurve(w)).pic_zero
                assert pic_zero == ("C2 x C2" if key == d2222 else None), w
    assert existing > 4000
    assert four_points == {d2222}
    # a weight of any class takes the D_2222 off the known case
    for weight in (
        WeightedPoint(SEG, 2, oval=0, segment=1),
        WeightedPoint(INNER, 2),
        WeightedPoint(REAL_B, 3),
        WeightedPoint(QUAT_B, 2, oval=0),
    ):
        assert picard_structure(WeightedCurve(catalog("D_2222"), (weight,))).pic_zero is None


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


@pytest.mark.parametrize("index", [3, -1], ids=["one-past-the-end", "negative"])
def test_the_efficient_index_just_outside_the_points_is_refused(index):
    assert ghost_group([(2, 1)] * 3, 2).describe() == "C2 x C2"
    with pytest.raises(ValidationError) as exc:
        ghost_group([(2, 1)] * 3, index)
    assert exc.value.code == "placement"


def test_ghost_group_has_a_ceiling():
    top = MAX_POINT_VALUE
    assert ghost_group([(1, 1)] * top, 0).describe() == "trivial"
    assert ghost_group([(top, 1), (top, 1)], 0).describe() == f"C{top}"
    assert ghost_group([(1, top), (1, 1)], 0).shifts == ((1, Fraction(1, top)),)
    # one above each limit is refused; too many points before any point is read
    for points in ([(1, 1), (top + 1, top + 1)], [(top + 1, 1)], [(1, 1), (1, top + 1)], [None] * (top + 1)):
        with pytest.raises(ValidationError) as exc:
            ghost_group(points, 0)
        assert exc.value.code == "too-large"


@pytest.mark.parametrize("points", [None, 5, [(1,)], [(2, 1, 1)], [2], [(2, 1), "21"]])
def test_ghost_group_points_must_be_pairs(points):
    with pytest.raises(ValidationError) as exc:
        ghost_group(points, 0)
    assert exc.value.code == "placement"


@pytest.mark.parametrize("args, code", [
    ((1, 0, 1, []), "nonpositive"),
    ((0, 1, 1, []), "nonpositive"),
    ((1, 1, -1, []), "nonpositive"),
    ((1, 1, 3, []), "epsilon"),
    ((1, 1, 1, [(1, 1, 0)]), "nonpositive"),
    ((1.0, 1, 1, []), "not-integer"),
    ((1, 1, 1, [(1, 1, 2.0)]), "not-integer"),
    ((1, 1, 1, [(0, 1, 2)]), "nonpositive"),
    ((1, 1, 1, [(-3, 1, 2)]), "nonpositive"),
    ((1, 1, 1, [(1, Fraction(-1, 2), 3)]), "nonpositive"),
    ((1, 1, 1, [(1, 0, 2)]), "nonpositive"),
    ((1, 1, 1, [(MAX_ORDER_LCM + 1, 1, 2)]), "too-large"),
    ((1, 1, 1, [(1, Fraction(1, MAX_ORDER_LCM + 1), 2)]), "too-large"),
    ((1, 1, 1, [(10**50000, 10**50000, 2)] * 50), "too-large"),
    ((1, MAX_ORDER_LCM + 1, 1, []), "too-large"),
    ((MAX_ORDER_LCM + 1, 1, 1, []), "too-large"),
    ((1, 10**3000, 1, []), "too-large"),
], ids=["s-zero", "kappa-zero", "epsilon-negative", "epsilon-three", "p-zero", "float-kappa", "float-p", "e-zero",
        "e-negative", "f-negative-fraction", "f-zero", "e-above-the-ceiling", "f-denominator-above-the-ceiling",
        "e-and-f-huge", "s-above-the-ceiling", "kappa-above-the-ceiling", "s-of-3001-digits"])
def test_genus_zero_formula_checks_its_integers(args, code):
    with pytest.raises(ValidationError) as exc:
        genus_zero_orbifold_euler(*args)
    assert exc.value.code == code


# every entry point that takes the base numerics, by the fields it takes;
# each builds an answer from the defaults
_TAKES_NUMERICS = {
    "AbstractBase": lambda kappa=1, s=1, epsilon=1: WeightedCurve(AbstractBase(Fraction(1), s, kappa, epsilon, ())),
    "CurveNumerics": lambda kappa=1, epsilon=1: CurveNumerics(kappa, epsilon, 0),
    "genus_zero_orbifold_euler": lambda kappa=1, s=1, epsilon=1: genus_zero_orbifold_euler(kappa, s, epsilon, []),
    "degree_of_simple": lambda kappa=1, epsilon=1: degree_of_simple(witt_local_datum(INNER), kappa, epsilon, 1),
}


@pytest.mark.parametrize("entry, field, value, code", [
    (entry, field, value, code)
    for field, value, code in (
        ("kappa", 0, "nonpositive"), ("epsilon", 0, "nonpositive"), ("epsilon", 3, "epsilon"),
        ("kappa", 1.5, "not-integer"), ("s", 1.5, "not-integer"),
    )
    for entry, call in _TAKES_NUMERICS.items() if field in call.__code__.co_varnames
], ids=lambda v: repr(v) if isinstance(v, float) else None)
def test_every_entry_point_refuses_the_same_numerics_with_the_same_code(entry, field, value, code):
    call = _TAKES_NUMERICS[entry]
    call()
    with pytest.raises(ValidationError) as exc:
        call(**{field: value})
    assert exc.value.code == code


@pytest.mark.parametrize(
    "points", [None, 5, [5], [None], [(1, 2)], [(1, 1, 2, 3)]],
    ids=["none", "int", "int-point", "none-point", "pair", "quadruple"],
)
def test_genus_zero_formula_takes_a_sequence_of_triples(points):
    with pytest.raises(ValidationError) as exc:
        genus_zero_orbifold_euler(1, 1, 1, points)
    assert exc.value.code == "placement"


@pytest.mark.parametrize("point", [(0.5, 1, 2), (1, 0.5, 2), (1, "1", 2), (True, 1, 2)])
def test_genus_zero_formula_takes_exact_e_and_f(point):
    with pytest.raises(KindMismatchError):
        genus_zero_orbifold_euler(1, 1, 1, [point])


def test_genus_zero_formula_refuses_too_many_points_on_their_count():
    with pytest.raises(ValidationError) as exc:
        genus_zero_orbifold_euler(1, 1, 1, [None] * (MAX_VECTOR_LENGTH + 1))
    assert exc.value.code == "too-large"
    assert genus_zero_orbifold_euler(1, 1, 1, [(1, 1, 1)] * MAX_VECTOR_LENGTH) == 1


def test_genus_zero_formula_refuses_a_weight_above_the_ceiling():
    with pytest.raises(ValidationError) as exc:
        genus_zero_orbifold_euler(1, 1, 1, [(1, 1, MAX_POINT_VALUE + 1)])
    assert exc.value.code == "too-large"
    assert genus_zero_orbifold_euler(1, 1, 1, [(1, 1, MAX_POINT_VALUE)]) == Fraction(MAX_POINT_VALUE + 1, 2 * MAX_POINT_VALUE)


def test_genus_zero_formula_refuses_the_common_denominator_as_it_passes_the_ceiling():
    orders = orders_at_the_ceiling()
    chi = genus_zero_orbifold_euler(1, 1, 1, [(1, 1, p) for p in orders])
    assert chi.denominator <= 2 * MAX_ORDER_LCM
    # the point after the one that passes the ceiling is never read
    for points in ([(1, 1, p) for p in orders + [2]] + [None], [(1, Fraction(1, MAX_ORDER_LCM + 1), 1), None]):
        with pytest.raises(ValidationError) as exc:
            genus_zero_orbifold_euler(1, 1, 1, points)
        assert exc.value.code == "too-large"


def test_the_labelled_points_of_an_abstract_base_are_its_records_in_any_sequence():
    records = [AbstractPoint("b", 2), AbstractPoint("a", 1, 2, 3), AbstractPoint("c")]
    expected = (EffectivePoint("b", "abstract", 2, 1, 1), EffectivePoint("a", "abstract", 1, 2, 3),
                EffectivePoint("c", "abstract", 1, 1, 1))
    for points in (records, tuple(records)):
        curve = WeightedCurve(AbstractBase(Fraction(1), 1, 1, 1, points))
        assert effective_points(curve) == effective_points(curve) == expected
        assert tau_exponents(curve) == {"b": 1, "a": 2}


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


def test_abstract_tubular_data_on_a_positive_genus_centre_is_inconsistent():
    points = tuple(AbstractPoint(f"x{i}", weight=2) for i in range(4))
    c = WeightedCurve(AbstractBase(Fraction(1), 1, 1, 1, points, centre_genus=1))
    assert c.profile.chi_orb == 0 and c.profile.weight_ram_vector == (2, 2, 2, 2)
    for view in (classify, invariants_report):
        with pytest.raises(InconsistentDataError) as exc:
            view(c)
        assert not isinstance(exc.value, InvariantViolation)
        assert str(exc.value) == "tubular curve with a positive-genus centre"
    # the same data over a genus-zero centre is a tubular curve
    assert classify(WeightedCurve(c.base._replace(centre_genus=0))) is CurveClass.TUBULAR


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
    WeightedCurve(base(weighted._replace(residue_degree=MAX_VECTOR_LENGTH - 1), AbstractPoint("x1", e_tau=3)))


def test_the_vector_of_a_surface_curve_is_bounded():
    # a real-boundary weight adds one entry, an inner weight two, and each
    # segmentation point one whether weighted or not: D has none, D_22 two
    for name, weight, per_weight in (("D", WeightedPoint(REAL_B, 2), 1), ("D", WeightedPoint(INNER, 9973), 2),
                                     ("D_22", WeightedPoint(REAL_B, 2), 1)):
        base = catalog(name)
        fits = (MAX_VECTOR_LENGTH - len(ws.read_base(base).points)) // per_weight
        assert len(weight_ram_vector(WeightedCurve(base, [weight] * fits))) == MAX_VECTOR_LENGTH
        with pytest.raises(ValidationError) as exc:
            WeightedCurve(base, [weight] * (fits + 1))
        assert exc.value.code == "too-large"


def test_too_many_weights_are_refused_before_any_is_read(monkeypatch):
    read = []
    monkeypatch.setattr(wc, "_validate_placement", lambda base, wp: read.append(wp))
    for count in (MAX_VECTOR_LENGTH + 1, 200_025):
        with pytest.raises(ValidationError) as exc:
            WeightedCurve(catalog("D"), [WeightedPoint(INNER, 9973)] * count)
        assert exc.value.code == "too-large"
        assert str(exc.value) == (
            f"{count} weights would give the weight-ramification vector more than {MAX_VECTOR_LENGTH} entries"
        )
    assert read == []


def _counted_effective_points(monkeypatch) -> list:
    """Log the fields of every EffectivePoint built from here on: by
    effective_points, on request, and never by a curve's check."""
    built = []
    real = wc.EffectivePoint
    monkeypatch.setattr(wc, "EffectivePoint", lambda *fields: built.append(fields) or real(*fields))
    return built


def test_too_many_abstract_points_are_refused_before_any_is_read(monkeypatch):
    # points with e_tau = f = p = 1 add no entry to the vector, so only their count bounds them
    built = _counted_effective_points(monkeypatch)
    trivial = tuple(AbstractPoint(f"x{i}") for i in range(MAX_VECTOR_LENGTH + 1))
    at = WeightedCurve(AbstractBase(Fraction(1), 1, 1, 1, trivial[:-1]))
    # the check labels no point, and a point of order 1 leaves no shape
    assert built == [] and at.profile.shapes == () and at.profile.weight_ram_vector == ()
    assert len(effective_points(at)) == len(built) == MAX_VECTOR_LENGTH
    built.clear()
    for points in (trivial, (None,) * (MAX_VECTOR_LENGTH + 1)):
        with pytest.raises(ValidationError) as exc:
            WeightedCurve(AbstractBase(Fraction(1), 1, 1, 1, points))
        assert exc.value.code == "too-large"
        assert str(exc.value) == f"more than {MAX_VECTOR_LENGTH} points"
    assert built == []


def test_too_many_segmentation_points_are_refused_before_any_is_built(monkeypatch):
    def cut(count):
        """A disc whose one oval is cut into count segments, each ended by a segmentation point."""
        return WittSurface(KleinTopology(0, 1, 1), (segmented_oval(*"+-" * (count // 2)),), commutative=False)

    built = _counted_effective_points(monkeypatch)
    at = WeightedCurve(cut(MAX_VECTOR_LENGTH))
    # the check counts the bare points and labels none
    assert len(at.profile.weight_ram_vector) == at.profile.bare == MAX_VECTOR_LENGTH and built == []
    assert len(effective_points(at)) == len(built) == MAX_VECTOR_LENGTH
    # segments come in pairs: the least count above the ceiling, and the ceiling with one weight more
    for count, weights, length in ((MAX_VECTOR_LENGTH + 2, [], MAX_VECTOR_LENGTH + 2),
                                   (MAX_VECTOR_LENGTH, [WeightedPoint(REAL_B, 2)], MAX_VECTOR_LENGTH + 1)):
        surface = cut(count)
        ws.surface_numerics(surface)
        walks: list = []
        object.__setattr__(surface, "_reading", surface._reading._replace(
            points=_WalkedPoints(surface._reading.points, walks)))
        built.clear()
        with pytest.raises(ValidationError) as exc:
            WeightedCurve(surface, weights)
        assert exc.value.code == "too-large"
        assert str(exc.value) == (
            f"the weight-ramification vector would have {length} entries, more than {MAX_VECTOR_LENGTH}"
        )
        # no point labelled, and no segmentation point walked: they are counted
        assert built == [] and walks == []


class _WalkedPoints(tuple):
    """Points that log each walk over them."""

    def __new__(cls, points, walks: list):
        self = super().__new__(cls, points)
        self.walks = walks
        return self

    def __iter__(self):
        self.walks.append("walk")
        return super().__iter__()

    def __contains__(self, item):
        self.walks.append("walk")
        return super().__contains__(item)


def _counted_surface(t: int, g: int, ovals, reads: list) -> WittSurface:
    """A surface, read, whose ovals log each read of a sign or of segments
    from here on, and whose kept segmentation points log each walk."""

    class CountedOval(ws.Oval):
        __slots__ = ()

        def __getattribute__(self, name):
            if name in ("sign", "segments"):
                reads.append(name)
            return super().__getattribute__(name)

    ovals = tuple(CountedOval(o.segments, o.sign) for o in ovals)
    w = WittSurface(KleinTopology(g, t, 1), ovals, commutative=False)
    ws.surface_numerics(w)
    reading = w._reading
    object.__setattr__(w, "_reading", reading._replace(points=_WalkedPoints(reading.points, reads)))
    reads.clear()
    return w


def test_a_placement_reads_one_oval_and_no_list_of_points(monkeypatch):
    reads, surface_reads = [], []
    real_counts = ws.counts
    monkeypatch.setattr(ws, "counts", lambda w: surface_reads.append(w) or real_counts(w))
    # many whole ovals of both signs, and one cut oval of many segments
    many = 2000
    whole = _counted_surface(many, many - 1, [whole_oval("+-"[i % 2]) for i in range(many)], reads)
    cut = _counted_surface(1, 0, [segmented_oval(*"+-" * many)], reads)
    cases = [
        (whole, [WeightedPoint(cls, 2, oval=i) for i in range(0, many, 7) for cls in (REAL_B, QUAT_B)
                if (cls is REAL_B) == (i % 2 == 0)] + [WeightedPoint(REAL_B, 3), WeightedPoint(QUAT_B, 3)]),
        (cut, [WeightedPoint(SEG, 3, oval=0, segment=i) for i in range(0, 2 * many, 3)]
         + [WeightedPoint(REAL_B, 2, oval=0), WeightedPoint(QUAT_B, 2)] * 10),
    ]
    for w, weights in cases:
        for _ in range(2):
            reads.clear()
            WeightedCurve(w, weights)
            # at most a sign and the segments of the one oval each weight names;
            # the kept segmentation points are counted, never walked
            assert reads.count("walk") == 0
            assert len(reads) <= 2 * len(weights)
    # each surface object read once, when it was built above
    assert len(surface_reads) == 2 and surface_reads[0] is whole and surface_reads[1] is cut


def test_a_curve_over_a_ceiling_is_refused_before_any_route_is_summed(monkeypatch):
    sums = []
    real_less_half = wc._less_half
    monkeypatch.setattr(wc, "_less_half", lambda *args: sums.append(args) or real_less_half(*args))
    cut = WittSurface(KleinTopology(0, 1, 1), (segmented_oval(*"+-" * (MAX_VECTOR_LENGTH // 2)),), commutative=False)
    ws.surface_numerics(cut)
    above = orders_at_the_ceiling() + [2]
    complex_weights = [WeightedPoint(wc.COMPLEX_POINT, 2)] * (MAX_VECTOR_LENGTH + 1)
    over = [
        (cut, [WeightedPoint(REAL_B, 2)]),  # the vector, one entry past the segmentation points
        (catalog("D"), [WeightedPoint(INNER, p) for p in above]),  # the lcm of the orders
        (catalog("S2_C"), complex_weights),  # the vector, on the count of the weights
        (catalog("S2_C"), [WeightedPoint(wc.COMPLEX_POINT, p) for p in above]),  # the lcm of the orders
    ]
    for base, weights in over:
        with pytest.raises(ValidationError) as exc:
            WeightedCurve(base, weights)
        assert exc.value.code == "too-large"
    assert sums == []
    # at the ceilings: the general and the split route, and the boundary count over a real centre
    for base, weights in ((cut, []), (catalog("S2_C"), complex_weights[1:]),
                          (catalog("S2_C"), [WeightedPoint(wc.COMPLEX_POINT, p) for p in above[:-1]])):
        sums.clear()
        WeightedCurve(base, weights)
        assert len(sums) == (3 if base is cut else 2)


_D22_WEIGHTS = (WeightedPoint(REAL_B, 2), WeightedPoint(INNER, 3), WeightedPoint(SEG, 5, oval=0, segment=1))


def test_a_surface_curve_walks_its_shapes_once(monkeypatch):
    walks = []
    real_validate = wc._validate_weights

    def validate(reading, weights):
        shapes, bare, pbar, order_lcm = real_validate(reading, weights)
        return _WalkedPoints(shapes, walks), bare, pbar, order_lcm

    monkeypatch.setattr(wc, "_validate_weights", validate)
    for name, weights in (("D_22", (WeightedPoint(REAL_B, 2), WeightedPoint(SEG, 5, oval=0, segment=1))),
                          ("D", ()), ("S2_C", (WeightedPoint(wc.COMPLEX_POINT, 3),))):
        walks.clear()
        c = WeightedCurve(catalog(name), weights)
        # once, for every route and the vector: the ceilings are held as the weights are read
        assert walks == ["walk"]
        points = effective_points(c)
        assert c.profile.order_lcm == lcm(*(pt.weight * pt.e_tau for pt in points))
        assert c.profile.pbar == lcm(*(pt.weight for pt in points))


def test_a_profile_walks_its_shapes_once():
    walks = []
    abstract = AbstractBase(Fraction(1), 1, 1, 1, (AbstractPoint("x0", 2, 3),))
    for c in (WeightedCurve(catalog("D_22"), _D22_WEIGHTS), WeightedCurve(abstract)):
        walks.clear()
        profile = c.profile._replace(shapes=_WalkedPoints(c.profile.shapes, walks))
        assert walks == ["walk"]
        assert profile.chi_orb == c.profile.chi_orb and profile.weight_ram_vector == c.profile.weight_ram_vector


def _calls(call, *args) -> list:
    """The Python and C calls that call(*args) makes, itself included."""
    calls = []

    def profiler(frame, event, arg):
        if event == "call" or (event == "c_call" and arg is not sys.setprofile):
            calls.append(frame.f_code.co_name if event == "call" else arg)

    sys.setprofile(profiler)
    try:
        call(*args)
    finally:
        sys.setprofile(None)
    return calls


# The guards below count Python and C calls on CPython 3.11, the shapes of
# the points built included; a Fraction comparison, a Fraction built by its
# constructor or a pass more shows as calls.

def test_the_check_of_a_curve_makes_few_calls():
    base = catalog("D_22")
    # the surface is read by the first check; the second is counted
    WeightedCurve(base, _D22_WEIGHTS)
    calls = _calls(WeightedCurve, base, _D22_WEIGHTS)
    assert len(calls) <= 46, calls


def test_the_check_of_an_abstract_curve_with_plain_int_numerics_makes_few_calls():
    points = (AbstractPoint("x0", 2, 1, 3), AbstractPoint("x1", 1, 2, 2))
    for centre_genus in (None, 0):
        calls = _calls(WeightedCurve, AbstractBase(Fraction(1, 2), 2, 1, 2, points, centre_genus))
        # the numerics are plain ints in range, so no keyword check is called, and no ceiling is reached
        assert not {"require_positive", "require_ints"} & set(calls), calls
        assert not [c for c in calls if str(c).startswith("_refuse_")], calls
        assert len(calls) <= 38, calls


def test_the_first_read_of_a_fresh_surface_makes_few_calls():
    w = WittSurface(KleinTopology(1, 2, 1), (segmented_oval("+", "-", "+", "-"), whole_oval("-")), False)
    calls = _calls(ws.read_base, w)
    # one walk checks the cut oval and gathers its points, and counts walks the ovals once more
    assert calls.count("counts") == 1, calls
    assert not {"<listcomp>", "<genexpr>"} & set(calls), calls
    assert len(calls) <= 20, calls
    assert ws.read_base(w).points == ((0, 0), (0, 1), (0, 2), (0, 3))


def test_the_report_of_a_curve_makes_few_calls():
    profile = WeightedCurve(catalog("D_22"), _D22_WEIGHTS).profile
    calls = _calls(profile.report)
    # the class off the sign of an int read through its slot, its value off
    # the member with no call, and the Picard descriptor
    assert len(calls) <= 5, calls


def test_a_zoo_entry_makes_few_calls():
    weights = (("inner", 2),)
    zoo._entry_for("D_22", weights)
    calls = _calls(zoo._entry_for, "D_22", weights)
    assert len(calls) <= 52, calls


def primes_below(n: int) -> list[int]:
    return [p for p in range(2, n) if all(p % q for q in range(2, isqrt(p) + 1))]


def orders_at_the_ceiling() -> list[int]:
    """The largest primes below MAX_POINT_VALUE, as many as fit with their
    product at most MAX_ORDER_LCM: it is then above half the ceiling, so
    one more order of 2 passes it."""
    orders: list[int] = []
    for p in reversed(primes_below(MAX_POINT_VALUE)):
        if prod(orders) * p > MAX_ORDER_LCM:
            break
        orders.append(p)
    return orders


def _inner_weights(orders):
    """D with one inner weight of each order: pbar is their lcm."""
    return WeightedCurve(catalog("D"), tuple(WeightedPoint(INNER, p) for p in orders))


def _abstract_e_tau(orders):
    """An abstract base with one point of each e_tau and every weight 1: pbar is 1."""
    points = tuple(AbstractPoint(f"x{i}", e_tau=e) for i, e in enumerate(orders))
    return WeightedCurve(AbstractBase(Fraction(1), 1, 1, 1, points))


@pytest.mark.parametrize("make", [_inner_weights, _abstract_e_tau], ids=["weights", "e_tau"])
def test_the_lcm_of_the_point_orders_is_bounded(make):
    orders = orders_at_the_ceiling()
    assert prod(orders) <= MAX_ORDER_LCM < 2 * prod(orders)
    c = make(orders)
    assert lcm(*weight_ram_vector(c)) == prod(orders)
    assert c.profile.pbar == (1 if make is _abstract_e_tau else prod(orders))
    report = invariants_report(c)
    assert report["curve_class"] == "wild" and report["chi_orb"].denominator <= 2 * MAX_ORDER_LCM
    for above in (orders + [2], primes_below(MAX_POINT_VALUE)):
        with pytest.raises(ValidationError) as exc:
            make(above)
        assert exc.value.code == "too-large"


def test_a_base_over_the_order_ceiling_never_sums_its_chi_prime(monkeypatch):
    sums = []
    real_less_half = wc._less_half
    monkeypatch.setattr(wc, "_less_half", lambda *args: sums.append(args) or real_less_half(*args))
    orders = orders_at_the_ceiling()
    for above in (orders + [2], primes_below(MAX_POINT_VALUE)):
        with pytest.raises(ValidationError) as exc:
            _abstract_e_tau(above)
        assert exc.value.code == "too-large"
    assert sums == []
    # at the ceiling: chi' once, then the general and the split route
    _abstract_e_tau(orders)
    assert len(sums) == 3


@pytest.mark.parametrize("chi_x", [
    Fraction(MAX_ORDER_LCM + 1), Fraction(-MAX_ORDER_LCM - 1, 7), Fraction(1, MAX_ORDER_LCM + 1),
], ids=["numerator", "negative", "denominator"])
def test_abstract_chi_x_is_bounded(chi_x):
    with pytest.raises(ValidationError) as exc:
        WeightedCurve(AbstractBase(chi_x, 1, 1, 1, ()))
    assert exc.value.code == "too-large"
    WeightedCurve(AbstractBase(Fraction(-MAX_ORDER_LCM, MAX_ORDER_LCM - 1), 1, 1, 1, ()))


class _Int(int):
    pass


@pytest.mark.parametrize("field", ["s", "kappa"])
def test_abstract_s_and_kappa_are_bounded(field):
    # the report echoes both: at the ceiling it prints, and a value of 5001
    # digits would be past Python's 4300 for printing an int
    def curve(value):
        return WeightedCurve(AbstractBase(Fraction(1), **{"s": 1, "kappa": 1, field: value}, epsilon=1, points=()))

    assert str(MAX_ORDER_LCM) in str(invariants_report(curve(MAX_ORDER_LCM)))
    for value in (MAX_ORDER_LCM + 1, _Int(MAX_ORDER_LCM + 1), 10**5000):
        with pytest.raises(ValidationError) as exc:
            curve(value)
        assert exc.value.code == "too-large"
        assert str(exc.value) == "s or kappa is above MAX_ORDER_LCM"


@pytest.mark.parametrize("field", ["s", "kappa"])
def test_genus_zero_formula_bounds_s_and_kappa(field):
    # kappa / s^2 with s of 3001 digits has a denominator of 6001, past
    # Python's 4300 for printing an int
    def chi(value):
        return genus_zero_orbifold_euler(**{"kappa": 1, "s": 1, field: value}, epsilon=1, points=[(1, 1, 2)])

    at_ceiling = chi(MAX_ORDER_LCM)
    assert type(at_ceiling) is Fraction and str(at_ceiling)
    assert at_ceiling == fo.genus_zero_orbifold_euler(**{"kappa": 1, "s": 1, field: MAX_ORDER_LCM}, epsilon=1,
                                                      points=[(1, 1, 2)])
    for value in (MAX_ORDER_LCM + 1, _Int(MAX_ORDER_LCM + 1), 10**3000):
        with pytest.raises(ValidationError) as exc:
            chi(value)
        assert exc.value.code == "too-large"
        assert str(exc.value) == "s or kappa is above MAX_ORDER_LCM"


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


class Small(enum.IntEnum):
    """Members are ints of a subclass, which the checks accept as ints."""

    ZERO = 0
    ONE = 1
    TWO = 2


# a segmentation weight of D_22 with every integer field set
_SEG_WEIGHT = {"weight": 2, "oval": 0, "segment": 1}


@pytest.mark.parametrize("field", ["weight", "oval", "segment"])
@pytest.mark.parametrize("value", [True, 2.0, "2"], ids=["bool", "float", "str"])
def test_a_weight_field_that_is_no_int_is_refused_with_its_name(field, value):
    point = WeightedPoint(SEG, **{**_SEG_WEIGHT, field: value})
    with pytest.raises(ValidationError) as exc:
        WeightedCurve(catalog("D_22"), (point,))
    assert exc.value.code == "not-integer"
    assert str(exc.value) == f"{field} must be an integer, got {value!r}"


@pytest.mark.parametrize("field", ["weight", "oval", "segment"])
def test_a_weight_field_of_an_int_subclass_is_read_as_its_int(field):
    plain = WeightedCurve(catalog("D_22"), (WeightedPoint(SEG, **_SEG_WEIGHT),))
    member = Small(_SEG_WEIGHT[field])
    curve = WeightedCurve(catalog("D_22"), (WeightedPoint(SEG, **{**_SEG_WEIGHT, field: member}),))
    assert curve.profile == plain.profile and effective_points(curve) == effective_points(plain)
    assert invariants_report(curve) == invariants_report(plain)


@pytest.mark.parametrize("field", ["e_tau", "residue_degree", "weight"])
def test_an_abstract_point_field_of_an_int_subclass_is_read_as_its_int(field):
    def curve(value):
        return WeightedCurve(AbstractBase(Fraction(1), 1, 1, 1, (AbstractPoint("x0", **{field: value}),)))

    assert invariants_report(curve(Small.TWO)) == invariants_report(curve(2))


@pytest.mark.parametrize("field", ["e_tau", "residue_degree", "weight"])
@pytest.mark.parametrize("value", [2.5, 2.0, True])
def test_abstract_point_fields_must_be_ints(field, value):
    point = AbstractPoint("x0")._replace(**{field: value})
    _not_integer(lambda: WeightedCurve(AbstractBase(Fraction(1), 1, 1, 1, (point,))))


@pytest.mark.parametrize("field, value", [
    ("chi_x", 0.1), ("chi_x", True), ("s", 1.0), ("kappa", 1.5), ("epsilon", True), ("centre_genus", 0.0),
])
def test_abstract_base_fields_must_be_ints(field, value):
    base = AbstractBase(Fraction(1), 1, 1, 1, ())._replace(**{field: value})
    _not_integer(lambda: WeightedCurve(base))


@pytest.mark.parametrize(
    "labels", [([1],), ("a", 3), (3, "a"), (None,)], ids=["unhashable", "mixed", "int-first", "none"]
)
def test_abstract_point_labels_must_be_strings(labels):
    base = AbstractBase(Fraction(1), 1, 1, 1, tuple(AbstractPoint(label, 2) for label in labels))
    with pytest.raises(ValidationError) as exc:
        WeightedCurve(base)
    assert exc.value.code == "placement"


def test_abstract_chi_x_may_be_an_int_or_a_fraction():
    for chi_x in (1, Fraction(1, 2)):
        curve = WeightedCurve(AbstractBase(chi_x, 1, 1, 1, ()))
        assert curve.profile.numerics.chi_prime == chi_x


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
# Plain ints and tuples take a fast path; anything else takes the full check,
# and gives the same record or the same error

def _error(call) -> tuple[str, str]:
    with pytest.raises(ValidationError) as exc:
        call()
    return exc.value.code, str(exc.value)


def _full_check_error(**field) -> tuple[str, str]:
    """The code and message that require_ints gives for the field."""
    return _error(lambda: require_ints(("centre_genus",), **field))


class Exact(Fraction):
    """A Fraction of a subclass."""


@pytest.mark.parametrize("make", [list, iter], ids=["list", "iterator"])
def test_ovals_and_segments_in_any_sequence_give_the_same_record(make):
    plain = WittSurface(KleinTopology(1, 2, 1), (segmented_oval("+", "-"), whole_oval("-")), commutative=False)
    oval = ws.Oval(make(("+", "-")))
    assert oval == plain.ovals[0] and type(oval.segments) is tuple
    surface = WittSurface(KleinTopology(1, 2, 1), make((oval, whole_oval("-"))), commutative=False)
    assert surface == plain and type(surface.ovals) is tuple
    assert ws.read_base(surface) == ws.read_base(plain)
    assert type(ws.read_base(surface).numerics.chi_centre) is Fraction
    assert _error(lambda: ws.Oval(2)) == ("oval-shape", "the segments must be a sequence, got int")
    assert _error(lambda: WittSurface(KleinTopology(0, 0, 0), 0, True)) == (
        "oval-shape", "the ovals must be a sequence, got int"
    )


@pytest.mark.parametrize("field", ["g", "t", "s"])
@pytest.mark.parametrize("kind", [bool, float, Small], ids=["bool", "float", "int-subclass"])
def test_a_topology_field_that_is_no_plain_int_takes_the_full_check(field, kind):
    plain = {"g": 0, "t": 1, "s": 1}
    value = kind(plain[field])
    surface = WittSurface(KleinTopology(**{**plain, field: value}), (whole_oval("+"),), commutative=True)
    if kind is Small:
        assert ws.read_base(surface) == ws.read_base(catalog("D"))
        assert type(ws.read_base(surface).numerics.chi_centre) is Fraction
    else:
        assert _error(lambda: WeightedCurve(surface)) == _full_check_error(**{field: value})


def test_a_complex_centre_genus_of_an_int_subclass_is_read_as_its_int():
    numerics = WeightedCurve(ComplexCentreBase(Small.ONE)).profile.numerics
    assert numerics == WeightedCurve(catalog("T_C")).profile.numerics
    assert type(numerics.chi_centre) is Fraction


@pytest.mark.parametrize("field", ["s", "kappa", "epsilon", "centre_genus"])
@pytest.mark.parametrize("kind", [bool, float, Small], ids=["bool", "float", "int-subclass"])
def test_an_abstract_base_field_that_is_no_plain_int_takes_the_full_check(field, kind):
    plain = AbstractBase(Fraction(1, 2), 1, 1, 1, (AbstractPoint("x0", 2, 1, 3),), 0)
    value = kind(getattr(plain, field))

    def curve():
        return WeightedCurve(plain._replace(**{field: value}))

    if kind is Small:
        numerics = curve().profile.numerics
        assert numerics == WeightedCurve(plain).profile.numerics
        assert invariants_report(curve()) == invariants_report(WeightedCurve(plain))
        assert type(numerics.chi_centre) is Fraction
    else:
        assert _error(curve) == _full_check_error(**{field: value})


@pytest.mark.parametrize("fields, code, message", [
    *((
        {field: value}, "not-integer", f"{field} must be an integer, got {value!r}"
    ) for field in ("s", "kappa", "epsilon") for value in (True, 2.0, Fraction(2))),
    *((
        {field: value}, "nonpositive", f"{field} must be a positive integer"
    ) for field in ("s", "kappa", "epsilon") for value in (0, Small.ZERO, -1)),
    ({"epsilon": 3}, "epsilon", "epsilon must be 1 or 2, got 3"),
    ({"centre_genus": -1}, "negative-genus", "the centre genus must be nonnegative"),
    ({"centre_genus": "0"}, "not-integer", "centre_genus must be an integer, got '0'"),
    ({"centre_genus": True}, "not-integer", "centre_genus must be an integer, got True"),
    # the integer checks of the three numerics come before their ranges, and all before the centre genus
    ({"s": 0, "epsilon": 2.0}, "not-integer", "epsilon must be an integer, got 2.0"),
    ({"kappa": 0, "centre_genus": "0"}, "nonpositive", "kappa must be a positive integer"),
    ({"epsilon": 3, "centre_genus": -1}, "epsilon", "epsilon must be 1 or 2, got 3"),
])
def test_the_numerics_of_an_abstract_base_are_refused_as_the_full_checks_refuse_them(fields, code, message):
    base = AbstractBase(Fraction(1), 1, 1, 1, (AbstractPoint("x0", 2),))._replace(**fields)
    with pytest.raises(ValidationError) as exc:
        WeightedCurve(base)
    assert type(exc.value) is ValidationError and (exc.value.code, str(exc.value)) == (code, message)


@pytest.mark.parametrize("chi_x", [1, Small.ONE, Fraction(1, 2), Exact(1, 2)], ids=["int", "int-subclass", "fraction",
                                                                                  "fraction-subclass"])
def test_an_abstract_chi_x_is_read_as_exactly_a_fraction(chi_x):
    numerics = WeightedCurve(AbstractBase(chi_x, 1, 1, 1, (AbstractPoint("x0", 2),))).profile.numerics
    assert type(numerics.chi_centre) is Fraction and numerics.chi_centre == chi_x
    assert type(numerics.chi_prime) is Fraction and numerics.chi_prime == chi_x - Fraction(1, 4)


def test_a_placement_is_a_class_and_not_its_name():
    assert _error(lambda: WeightedCurve(catalog("D"), (WeightedPoint("inner", 2),))) == (
        "placement", "invalid placement 'inner'"
    )
    assert _error(lambda: WeightedCurve(catalog("D"), (WeightedPoint(wc.COMPLEX_POINT, 2),))) == (
        "placement", "invalid placement 'point'"
    )
    assert _error(lambda: WeightedCurve(catalog("S2_C"), (WeightedPoint(INNER, 2),)))[0] == "placement"
    assert WeightedCurve(catalog("D"), (WeightedPoint(INNER, 2),)).profile.pbar == 2
    assert WeightedCurve(catalog("S2_C"), (WeightedPoint(wc.COMPLEX_POINT, 2),)).profile.pbar == 2


# ---------------------------------------------------------------------------
# A curve reads its surface once, when it is built

def test_one_report_counts_the_ovals_once(monkeypatch):
    counted = []
    real_counts = ws.counts
    monkeypatch.setattr(ws, "counts", lambda w: counted.append(w) or real_counts(w))
    points = (
        WeightedPoint(WittPointClass.SEGMENTATION, 3, oval=0, segment=0),
        WeightedPoint(WittPointClass.REAL_BOUNDARY, 3),
    )
    shapes = [("D_22", points)] + [(name, ()) for name in ("D", "K", "D_H", "A_RH", "M_H", "D_2222")]
    for name, weights in shapes:
        # a copy is built afresh, so no earlier read of the catalog's surface counts
        base = copy.copy(catalog(name))
        counted.clear()
        curve = WeightedCurve(base, weights)
        assert counted == [base] and counted[0] is base
        counted.clear()
        invariants_report(curve)
        classify(curve)
        # the surface keeps its reading, so a second curve on it counts none
        WeightedCurve(base, weights)
        assert counted == []


def test_a_curve_keeps_the_numerics_its_check_read():
    rng = random.Random(12)
    curves = [WeightedCurve(catalog(name)) for name in ws.CATALOG_NAMES]
    curves += [make(rng) for make in (_random_surface_curve, _random_complex_curve) for _ in range(300)]
    for c in curves:
        assert c.profile.numerics == ws.surface_numerics(c.base)
    for _ in range(300):
        c = _random_abstract_curve(rng)
        assert type(c.profile.numerics) is ws.BaseNumerics
        assert c.profile.numerics.chi_centre == c.base.chi_x
        assert c.profile.numerics.chi_prime == fo.abstract_chi_prime(c.base)


@pytest.mark.parametrize("make, code", [
    (lambda: WeightedCurve("D"), "base"),
    (lambda: WeightedCurve(None), "base"),
    (lambda: WeightedCurve(catalog("D_22"), WeightedPoint(WittPointClass.INNER, 2)), "placement"),
    (lambda: WeightedCurve(AbstractBase(Fraction(1), 1, 1, 1, None)), "placement"),
    (lambda: WeightedCurve(AbstractBase(Fraction(1), 1, 1, 1, ((1,),))), "placement"),
    (lambda: WeightedCurve(AbstractBase(Fraction(1), 1, 1, 1, iter((AbstractPoint("x0", 2),)))), "placement"),
], ids=[
    "name-for-base", "none-for-base", "one-point-for-the-sequence", "none-for-abstract-points",
    "tuple-for-an-abstract-point", "iterator-for-abstract-points",
])
def test_records_of_the_wrong_kind_raise_validation_errors(make, code):
    # one WeightedPoint where the sequence belongs would be read field by field
    with pytest.raises(ValidationError) as err:
        make()
    assert err.value.code == code


@pytest.mark.parametrize("make, code", [
    (lambda: WittSurface((0, 1, 1), (whole_oval("+"),), commutative=True), "topology"),
    (lambda: WeightedCurve(WittSurface((0, 1, 1), (whole_oval("+"),), commutative=True)), "topology"),
    (lambda: WittSurface(KleinTopology(0, 1, 1), 5, True), "oval-shape"),
    (lambda: WeightedCurve(catalog("D"), 5), "placement"),
], ids=["tuple-topology", "tuple-topology-in-a-curve", "ovals-not-iterable", "weights-not-iterable"])
def test_records_of_the_wrong_shape_raise_validation_errors(make, code):
    with pytest.raises(ValidationError) as err:
        make()
    assert err.value.code == code
