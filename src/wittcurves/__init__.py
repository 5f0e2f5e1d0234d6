"""Exact invariants of real smooth projective curves, commutative or not.

The package models a noncommutative real curve by a signed Klein surface
(witt_surface), attaches weights to its points (weighted_curve), and
computes the classical invariants: local ramification data (local_data),
centres of twisted series rings (skew_series), Euler forms and slope
orbits (ktheory), and the finite zoo of curves with nonnegative orbifold
characteristic (zoo). All arithmetic is exact.

The public names are written once, in the imports below, and __all__ is
read off them. Every module is imported when the package is.
"""

from types import ModuleType as _ModuleType

from .algebra import (
    COMPLEX,
    QUATERNION,
    REAL,
    AlgebraElement,
    Automorphism,
    DivisionAlgebraKind,
    comultiplicity,
    complex_conjugation,
    cplx,
    galois_order,
    identity,
    inner,
    quat,
    real,
)
from .errors import (
    CurveError,
    DomainError,
    InconsistentDataError,
    InvariantViolation,
    KindMismatchError,
    ValidationError,
)
from .ktheory import (
    ClassVector,
    CurveNumerics,
    SlopeOrbits,
    average_euler_form,
    elliptic_numerics,
    euler_form,
    fm_partners,
    mutation_matrices,
    slope_orbits,
)
from .local_data import (
    PointDatum,
    WittPointClass,
    degree_of_simple,
    inertial_degree,
    local_skewness,
    skewness,
    witt_local_datum,
)
from .skew_series import (
    CentreDescription,
    TwistedSeries,
    centre_basis,
    dim_over_centre,
    series,
    verify_jordan_twist,
)
from .weighted_curve import (
    AbstractBase,
    AbstractPoint,
    CurveClass,
    GhostGroup,
    PicardDescriptor,
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
from .witt_surface import (
    CATALOG_NAMES,
    ComplexCentreBase,
    KleinTopology,
    Oval,
    WittSurface,
    catalog,
    constants_field,
    counts,
    euler_characteristics,
    genus,
    segmented_oval,
    surface_skewness,
    whole_oval,
)
from .zoo import ZooEntry, enumerate_chi_zero, enumerate_domestic, instantiate_domestic, zoo_report

__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
