"""Local numerical invariants of points and the identities tying them together.

A point carries a multiplicity e, a tau-multiplicity e_tau (the
ramification index of the real structure), the residue degree [k(x):k]
and the division algebra D_x = End(S_x) acting on its simple object,
which is R, C or H; its comultiplicity e* is read off D_x, never stated.
For points of a Witt curve these come in exactly four flavours, tabulated
below; the product e * e* * e_tau always recovers the ambient skewness.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .algebra import COMPLEX, QUATERNION, REAL, DivisionAlgebraKind, _builtin, comultiplicity
from .errors import FrozenRecord, ValidationError, require_positive


class WittPointClass(enum.Enum):
    INNER = "inner"
    REAL_BOUNDARY = "real_boundary"
    QUATERNION_BOUNDARY = "quaternion_boundary"
    SEGMENTATION = "segmentation"


# placement marker for weights on a complex-centre base
COMPLEX_POINT = "point"

# The short name of each placement class, the four of a real base and the
# point of a complex-centre base: the prefix of its point labels on a real
# base and its name in the zoo's weight lists. Its order is the zoo's one
# order of weights: segmentation slots, inner, real, quat, point.
SHORT_NAMES = {
    WittPointClass.SEGMENTATION: "seg",
    WittPointClass.INNER: "inner",
    WittPointClass.REAL_BOUNDARY: "real",
    WittPointClass.QUATERNION_BOUNDARY: "quat",
    COMPLEX_POINT: "point",
}


class PointDatum(FrozenRecord):
    """Numerical data of one closed point.

    weight = 1 marks an ordinary point; weight > 1 an inserted orbifold
    weight. ``simple_end`` must be R, C or H (KindMismatchError otherwise),
    and is stored as the built-in kind, also when given a copy of it.
    ``e_star`` is its comultiplicity. It is derived from that
    field, so it is no field and takes no part in equality, hash or repr.
    """

    _fields = ("e", "e_tau", "residue_degree", "simple_end", "weight")
    __slots__ = (*_fields, "e_star")

    def __init__(self, e: int, e_tau: int, residue_degree: int, simple_end: DivisionAlgebraKind, weight: int = 1):
        require_positive(e=e, e_tau=e_tau, residue_degree=residue_degree, weight=weight)
        # the built-in kind, a copied one mapped back to it
        self._set(e, e_tau, residue_degree, simple_end := _builtin(simple_end), weight)
        object.__setattr__(self, "e_star", comultiplicity(simple_end))
        if simple_end.dim_over_k % residue_degree:
            message = f"residue degree {residue_degree} does not divide dim {simple_end.dim_over_k} of {simple_end!r}"
            raise ValidationError(message, code="residue-degree")


_TABLE = {
    WittPointClass.INNER: PointDatum(e=2, e_tau=1, residue_degree=2, simple_end=COMPLEX),
    WittPointClass.REAL_BOUNDARY: PointDatum(e=2, e_tau=1, residue_degree=1, simple_end=REAL),
    WittPointClass.QUATERNION_BOUNDARY: PointDatum(e=1, e_tau=1, residue_degree=1, simple_end=QUATERNION),
    WittPointClass.SEGMENTATION: PointDatum(e=1, e_tau=2, residue_degree=1, simple_end=COMPLEX),
}


def witt_local_datum(point_class: WittPointClass) -> PointDatum:
    """Table row for one of the four point classes of a Witt curve;
    anything else is refused with code "placement"."""
    if point_class.__class__ is not WittPointClass:
        raise ValidationError(f"{point_class!r} is not a Witt point class", code="placement")
    return _TABLE[point_class]


def skewness(d: PointDatum) -> int:
    """Ambient skewness recovered locally: e * e_star * e_tau."""
    return d.e * d.e_star * d.e_tau


def local_skewness(d: PointDatum) -> int:
    """PI-degree of the completed local algebra: e_star * e_tau."""
    return d.e_star * d.e_tau


def inertial_degree(d: PointDatum) -> int:
    """[D_x : k(x)] computed from real dimensions; the residue degree
    divides dim End(S_x), as PointDatum checks."""
    return d.simple_end.dim_over_k // d.residue_degree


def degree_of_simple(d: PointDatum, kappa: int, epsilon: int, pbar: int) -> Fraction:
    """Degree of the simple object at the point.

    deg S_x = (pbar * s) / (p * kappa * epsilon) * e_star * [k(x):k],
    with s the ambient skewness and p the point's weight. The result is
    rational in general but integral whenever epsilon was normalized
    correctly for the curve. kappa and pbar are positive ints, epsilon is
    1 or 2.
    """
    require_positive(kappa=kappa, epsilon=epsilon, pbar=pbar)
    s = skewness(d)
    return Fraction(pbar * s, d.weight * kappa * epsilon) * d.e_star * d.residue_degree
