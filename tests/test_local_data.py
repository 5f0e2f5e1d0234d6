from fractions import Fraction

import pytest

from wittcurves.algebra import COMPLEX, QUATERNION, REAL, complex_conjugation, identity
from wittcurves.errors import ValidationError
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
    inner = PointDatum(1, 1, 1, 2, COMPLEX)
    assert degree_of_simple(inner, kappa=1, epsilon=2, pbar=1) == 1
    seg = witt_local_datum(WittPointClass.SEGMENTATION)
    assert degree_of_simple(seg, kappa=2, epsilon=1, pbar=1) == 1
    trivial = PointDatum(1, 1, 1, 1, REAL)
    assert degree_of_simple(trivial, kappa=1, epsilon=1, pbar=1) == 1


def test_degree_of_simple_scales_with_weight():
    seg = witt_local_datum(WittPointClass.SEGMENTATION)
    weighted = PointDatum(seg.e, seg.e_star, seg.e_tau, seg.residue_degree, seg.simple_end, weight=3)
    assert degree_of_simple(weighted, kappa=2, epsilon=1, pbar=3) == Fraction(1, 1)
    assert degree_of_simple(weighted, kappa=2, epsilon=1, pbar=1) == Fraction(1, 3)


def test_nonpositive_entries_rejected():
    with pytest.raises(ValidationError) as exc:
        PointDatum(0, 1, 1, 1, REAL)
    assert exc.value.code == "nonpositive"
    with pytest.raises(ValidationError):
        PointDatum(1, 1, 1, 1, REAL, weight=0)


def test_e_star_must_match_the_simple_end():
    with pytest.raises(ValidationError) as exc:
        PointDatum(1, 2, 1, 1, REAL)
    assert exc.value.code == "e-star-mismatch"
    with pytest.raises(ValidationError):
        PointDatum(1, 1, 1, 1, QUATERNION)
