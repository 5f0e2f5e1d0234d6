"""Local numerical invariants of points and the identities tying them together.

A point carries a multiplicity e, a comultiplicity e*, a tau-multiplicity
e_tau (the ramification index of the real structure), the residue degree
[k(x):k] and the division algebra D_x acting on its simple object. For
points of a Witt curve these come in exactly four flavours, tabulated
below; the product e * e* * e_tau always recovers the ambient skewness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    BUILTIN_KINDS,
    COMPLEX,
    QUATERNION,
    REAL,
    DivisionAlgebraKind,
    comultiplicity,
)
from .errors import InvariantViolation, ValidationError


class WittPointClass(enum.Enum):
    INNER = "inner"
    REAL_BOUNDARY = "real_boundary"
    QUATERNION_BOUNDARY = "quaternion_boundary"
    SEGMENTATION = "segmentation"


# The short name of each class: the prefix of its point labels and its name
# in the zoo's weight lists.
SHORT_NAMES = {
    WittPointClass.INNER: "inner",
    WittPointClass.REAL_BOUNDARY: "real",
    WittPointClass.QUATERNION_BOUNDARY: "quat",
    WittPointClass.SEGMENTATION: "seg",
}


@dataclass(frozen=True, slots=True)
class PointDatum:
    """Numerical data of one closed point.

    weight = 1 marks an ordinary point; weight > 1 an inserted orbifold
    weight.
    """

    e: int
    e_star: int
    e_tau: int
    residue_degree: int
    simple_end: DivisionAlgebraKind
    weight: int = 1

    def __post_init__(self):
        for name in ("e", "e_star", "e_tau", "residue_degree", "weight"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be a positive integer", code="nonpositive")
        if self.simple_end in BUILTIN_KINDS and comultiplicity(self.simple_end) != self.e_star:
            raise ValidationError(
                f"e_star={self.e_star} contradicts the comultiplicity of {self.simple_end!r}",
                code="e-star-mismatch",
            )


_TABLE = {
    WittPointClass.INNER: PointDatum(e=2, e_star=1, e_tau=1, residue_degree=2, simple_end=COMPLEX),
    WittPointClass.REAL_BOUNDARY: PointDatum(e=2, e_star=1, e_tau=1, residue_degree=1, simple_end=REAL),
    WittPointClass.QUATERNION_BOUNDARY: PointDatum(e=1, e_star=2, e_tau=1, residue_degree=1, simple_end=QUATERNION),
    WittPointClass.SEGMENTATION: PointDatum(e=1, e_star=1, e_tau=2, residue_degree=1, simple_end=COMPLEX),
}


def witt_local_datum(point_class: WittPointClass) -> PointDatum:
    """Table row for one of the four point classes of a Witt curve."""
    return _TABLE[point_class]


def skewness(d: PointDatum) -> int:
    """Ambient skewness recovered locally: e * e_star * e_tau."""
    return d.e * d.e_star * d.e_tau


def local_skewness(d: PointDatum) -> int:
    """PI-degree of the completed local algebra: e_star * e_tau."""
    return d.e_star * d.e_tau


def inertial_degree(d: PointDatum) -> int:
    """[D_x : k(x)] computed from real dimensions."""
    dim = d.simple_end.dim_over_k
    if dim % d.residue_degree != 0:
        raise InvariantViolation(
            f"residue degree {d.residue_degree} does not divide dim {dim} of {d.simple_end!r}"
        )
    return dim // d.residue_degree


def degree_of_simple(d: PointDatum, kappa: int, epsilon: int, pbar: int) -> Fraction:
    """Degree of the simple object at the point.

    deg S_x = (pbar * s) / (p * kappa * epsilon) * e_star * [k(x):k],
    with s the ambient skewness and p the point's weight. The result is
    rational in general but integral whenever epsilon was normalized
    correctly for the curve.
    """
    s = skewness(d)
    return Fraction(pbar * s, d.weight * kappa * epsilon) * d.e_star * d.residue_degree
