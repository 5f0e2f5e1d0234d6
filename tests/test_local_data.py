import pickle
from fractions import Fraction

import pytest

from wittcurves.algebra import (
    COMPLEX,
    QUATERNION,
    REAL,
    DivisionAlgebraKind,
    complex_conjugation,
    comultiplicity,
    identity,
)
from wittcurves.errors import KindMismatchError, ValidationError
from wittcurves.local_data import (
    PointDatum,
    WittPointClass,
    degree_of_simple,
    inertial_degree,
    local_skewness,
    skewness,
    witt_local_datum,
)
from wittcurves.skew_series import dim_over_centre

TABLE = {
    WittPointClass.INNER: (2, 1, 1, 2, COMPLEX),
    WittPointClass.REAL_BOUNDARY: (2, 1, 1, 1, REAL),
    WittPointClass.QUATERNION_BOUNDARY: (1, 2, 1, 1, QUATERNION),
    WittPointClass.SEGMENTATION: (1, 1, 2, 1, COMPLEX),
}


@pytest.mark.parametrize("point_class", list(WittPointClass))
def test_builtin_table(point_class):
    d = witt_local_datum(point_class)
    e, e_star, e_tau, f_res, end = TABLE[point_class]
    assert (d.e, d.e_star, d.e_tau, d.residue_degree) == (e, e_star, e_tau, f_res)
    assert d.simple_end is end


@pytest.mark.parametrize("point_class", list(WittPointClass))
def test_skewness_is_two_everywhere(point_class):
    assert skewness(witt_local_datum(point_class)) == 2


def test_local_skewness_values():
    values = {
        WittPointClass.INNER: 1,
        WittPointClass.REAL_BOUNDARY: 1,
        WittPointClass.QUATERNION_BOUNDARY: 2,
        WittPointClass.SEGMENTATION: 2,
    }
    for point_class, expected in values.items():
        assert local_skewness(witt_local_datum(point_class)) == expected


@pytest.mark.parametrize("point_class", list(WittPointClass))
def test_local_skewness_matches_completed_ring(point_class):
    d = witt_local_datum(point_class)
    twist = complex_conjugation() if d.e_tau == 2 else identity(d.simple_end)
    assert local_skewness(d) ** 2 == dim_over_centre(d.simple_end, twist)


def test_inertial_degrees():
    values = {
        WittPointClass.INNER: 1,
        WittPointClass.REAL_BOUNDARY: 1,
        WittPointClass.QUATERNION_BOUNDARY: 4,
        WittPointClass.SEGMENTATION: 2,
    }
    for point_class, expected in values.items():
        assert inertial_degree(witt_local_datum(point_class)) == expected


def test_degree_of_simple_examples():
    inner = PointDatum(1, 1, 2, COMPLEX)
    assert degree_of_simple(inner, kappa=1, epsilon=2, pbar=1) == 1
    seg = witt_local_datum(WittPointClass.SEGMENTATION)
    assert degree_of_simple(seg, kappa=2, epsilon=1, pbar=1) == 1
    trivial = PointDatum(1, 1, 1, REAL)
    assert degree_of_simple(trivial, kappa=1, epsilon=1, pbar=1) == 1


def test_degree_of_simple_scales_with_weight():
    seg = witt_local_datum(WittPointClass.SEGMENTATION)
    weighted = PointDatum(seg.e, seg.e_tau, seg.residue_degree, seg.simple_end, weight=3)
    assert degree_of_simple(weighted, kappa=2, epsilon=1, pbar=3) == Fraction(1, 1)
    assert degree_of_simple(weighted, kappa=2, epsilon=1, pbar=1) == Fraction(1, 3)


def test_nonpositive_entries_rejected():
    with pytest.raises(ValidationError) as exc:
        PointDatum(0, 1, 1, REAL)
    assert exc.value.code == "nonpositive"
    with pytest.raises(ValidationError):
        PointDatum(1, 1, 1, REAL, weight=0)


@pytest.mark.parametrize("kind", [REAL, COMPLEX, QUATERNION], ids=repr)
def test_e_star_is_read_off_the_simple_end(kind):
    # a pickled copy of a built-in kind is the built-in kind again
    for end in (kind, pickle.loads(pickle.dumps(kind))):
        assert PointDatum(1, 1, 1, end).e_star == comultiplicity(end) == (2 if kind is QUATERNION else 1)


@pytest.mark.parametrize("kind", [REAL, COMPLEX, QUATERNION], ids=repr)
def test_a_datum_holds_the_built_in_kind_when_given_a_pickled_copy(kind):
    copy = pickle.loads(pickle.dumps(kind))
    assert copy == kind and copy is not kind
    datum = PointDatum(1, 1, 1, copy)
    assert datum.simple_end is kind
    assert datum == PointDatum(1, 1, 1, kind) and repr(datum) == repr(PointDatum(1, 1, 1, kind))
    for again in (pickle.loads(pickle.dumps(datum)), datum._replace(simple_end=copy)):
        assert again.simple_end is kind


def test_a_nonpositive_field_is_refused_before_the_kind():
    # one input with both faults: the positivity check comes first, as before the kind was mapped
    with pytest.raises(ValidationError) as exc:
        PointDatum(0, 1, 1, (4, 1))
    assert exc.value.code == "nonpositive"


@pytest.mark.parametrize("kind", [
    DivisionAlgebraKind("ABSTRACT", 4, 1, "D"),
    DivisionAlgebraKind("ABSTRACT", 3, 1, "D"),
    DivisionAlgebraKind("QUATERNION", 4, 1, "H"),
    ("QUATERNION", 4, 1, "ℍ"),
    (4, 1),
], ids=["hand-built", "hand-built-not-square", "hand-built-renamed", "plain-tuple-of-H", "pair"])
def test_only_r_c_and_h_are_kinds(kind):
    with pytest.raises(KindMismatchError):
        comultiplicity(kind)
    with pytest.raises(KindMismatchError):
        PointDatum(1, 1, 1, kind)


def test_residue_degree_must_divide_the_dimension_of_the_simple_end():
    with pytest.raises(ValidationError) as exc:
        PointDatum(e=1, e_tau=1, residue_degree=3, simple_end=COMPLEX)
    assert exc.value.code == "residue-degree"
    assert str(exc.value) == "residue degree 3 does not divide dim 2 of ℂ"
    assert inertial_degree(PointDatum(e=1, e_tau=1, residue_degree=2, simple_end=QUATERNION)) == 2


def test_point_datum_simple_end_must_be_a_division_algebra():
    with pytest.raises(KindMismatchError):
        PointDatum(1, 1, 1, "R")


@pytest.mark.parametrize("kappa, epsilon, pbar, code", [
    (0, 1, 1, "nonpositive"), (1, 0, 1, "nonpositive"), (1, 1, 0, "nonpositive"), (-2, 1, 1, "nonpositive"),
    (1, 3, 1, "epsilon"),
    (1.5, 1, 1, "not-integer"), (1, True, 1, "not-integer"), (1, 1, Fraction(1), "not-integer"),
])
def test_degree_of_simple_needs_positive_int_numerics(kappa, epsilon, pbar, code):
    seg = witt_local_datum(WittPointClass.SEGMENTATION)
    with pytest.raises(ValidationError) as exc:
        degree_of_simple(seg, kappa, epsilon, pbar)
    assert exc.value.code == code
