"""The rank-degree lattice: Euler forms, mutations, slope orbits, partners.

Classes of sheaves are tracked only through their (degree, rank) vectors.
The Euler form is the Riemann-Roch pairing; on an elliptic curve the line
bundle class and a degree-one simple class define two transvections of the
lattice whose group action on slopes has finitely many orbits, tabulated
for the seven real elliptic types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError, InconsistentDataError, ValidationError
from .weighted_curve import WeightedCurve, curve_profile
from .witt_surface import catalog


class _Infinity:
    """The slope of a torsion class: hashable, equal only to itself, not a number."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()

Matrix = tuple[tuple[int, int], tuple[int, int]]

ELLIPTIC_TYPES = ("A", "M", "K", "A_RH", "A_HH", "M_H", "D_2222")


@dataclass(frozen=True, slots=True)
class ClassVector:
    degree: int
    rank: int

    def slope(self):
        """degree/rank in Q union {infinity}; undefined on the zero class."""
        if self.rank == 0:
            if self.degree == 0:
                raise DomainError("the zero class has no slope")
            return INFINITY
        return Fraction(self.degree, self.rank)


@dataclass(frozen=True, slots=True)
class CurveNumerics:
    """Numerical data of a curve as Riemann-Roch sees it.

    end_S_dim is the real dimension of the endomorphism ring of the
    designated degree-one simple object; g_orb and pbar extend the data
    to the weighted case and default to the plain genus and 1.
    """

    kappa: int
    epsilon: int
    genus: int
    deg_S: int = 1
    end_S_dim: int = 1
    pbar: int = 1
    g_orb: Fraction | None = None

    def __post_init__(self):
        if self.kappa < 1 or self.genus < 0 or self.deg_S < 1 or self.end_S_dim < 1 or self.pbar < 1:
            raise ValidationError("numerics entries out of range", code="nonpositive")
        if self.epsilon not in (1, 2):
            raise ValidationError(f"epsilon must be 1 or 2, got {self.epsilon}", code="epsilon")


# real dimension of End(S) for the designated degree-one simple object S
_END_S_DIM = {"A": 1, "M": 1, "K": 2, "A_RH": 4, "A_HH": 4, "M_H": 4, "D_2222": 2}


def elliptic_numerics(name: str) -> CurveNumerics:
    """Riemann-Roch data of a real elliptic type; kappa, epsilon and the
    genus are those of its catalog surface."""
    if name not in _END_S_DIM:
        raise ValidationError(f"{name!r} is not a real elliptic type", code="unknown-name")
    profile = curve_profile(WeightedCurve(catalog(name)))
    return CurveNumerics(
        kappa=profile.kappa, epsilon=profile.epsilon, genus=profile.genus, end_S_dim=_END_S_DIM[name]
    )


def _det(e: ClassVector, f: ClassVector) -> int:
    return e.rank * f.degree - e.degree * f.rank


def euler_form(e: ClassVector, f: ClassVector, n: CurveNumerics) -> int:
    """Riemann-Roch: <E,F> = kappa[(1-g) rk E rk F + epsilon (rk E deg F - deg E rk F)]."""
    return n.kappa * ((1 - n.genus) * e.rank * f.rank + n.epsilon * _det(e, f))


def average_euler_form(e: ClassVector, f: ClassVector, n: CurveNumerics) -> Fraction:
    """Weighted Riemann-Roch average: kappa pbar [(1 - g_orb) rr' + (epsilon/pbar) det]."""
    g = n.g_orb if n.g_orb is not None else Fraction(n.genus)
    return n.kappa * n.pbar * (
        (1 - g) * e.rank * f.rank + Fraction(n.epsilon, n.pbar) * _det(e, f)
    )


def _simple_coefficient(n: CurveNumerics) -> int:
    num = n.kappa * n.epsilon * n.deg_S * n.deg_S
    if num % n.end_S_dim != 0:
        raise InconsistentDataError(
            f"mutation coefficient {num}/{n.end_S_dim} is not an integer"
        )
    return num // n.end_S_dim


def mutation_matrices(n: CurveNumerics) -> tuple[Matrix, Matrix]:
    """Tubular mutations on (degree, rank) columns of an elliptic curve.

    M_L adds epsilon*deg to the rank, M_S subtracts
    (kappa epsilon deg_S^2 / end_S_dim) * rank from the degree.
    """
    if n.genus != 1:
        raise DomainError("mutations are defined for elliptic numerics")
    c = _simple_coefficient(n)
    m_l = ((1, 0), (n.epsilon, 1))
    m_s = ((1, -c), (0, 1))
    return m_l, m_s


def apply_slope_matrix(matrix: Matrix, slope):
    """Moebius action of a unimodular matrix on a slope in Q union {infinity}."""
    (a, b), (c, d) = matrix
    if a * d - b * c not in (1, -1):
        raise ValidationError("matrix is not unimodular", code="unimodular")
    if slope == INFINITY:
        num, den = Fraction(a), Fraction(c)
    else:
        mu = Fraction(slope)
        num, den = a * mu + b, c * mu + d
    if den == 0:
        return INFINITY
    return num / den


# The orbit scan walks a box of (2B + 1)(B + 1) vectors, twice; a bound of
# 600 takes a few seconds, and the counts are stable from 50 on.
MAX_HEIGHT_BOUND = 600


@dataclass(frozen=True, slots=True)
class SlopeOrbits:
    count: int
    representatives: tuple
    orbits: tuple[frozenset[tuple[int, int]], ...]
    height_bound: int


def _orbit_scan(gens, bound):
    """Connected components of primitive (degree, rank) vectors mod sign
    inside the box, under the given integer matrices."""
    seen: dict[tuple[int, int], int] = {}
    orbits: list[set[tuple[int, int]]] = []
    for r in range(bound + 1):
        d_values = (1,) if r == 0 else (d for d in range(-bound, bound + 1) if gcd(abs(d), r) == 1)
        for d in d_values:
            if (d, r) in seen:
                continue
            orbit_id = len(orbits)
            current = {(d, r)}
            orbits.append(current)
            stack = [(d, r)]
            seen[(d, r)] = orbit_id
            while stack:
                vd, vr = stack.pop()
                for (a, b), (c, e) in gens:
                    nd, nr = a * vd + b * vr, c * vd + e * vr
                    if nr < 0 or (nr == 0 and nd < 0):
                        nd, nr = -nd, -nr
                    if abs(nd) > bound or nr > bound or (nd, nr) in seen:
                        continue
                    seen[(nd, nr)] = orbit_id
                    current.add((nd, nr))
                    stack.append((nd, nr))
    return orbits


def slope_orbits(n: CurveNumerics, height_bound: int = 100) -> SlopeOrbits:
    """Orbits of the mutation group on slopes, by finite search.

    The search walks primitive (degree, rank) vectors with both entries
    bounded, using the transvections in the unnormalized degree form (the
    lattice where the line-bundle mutation has coefficient 1 and the
    simple mutation has coefficient epsilon * c); this is conjugate to the
    normalized picture and realizes the even/odd numerator description of
    the two-orbit cases. Generators come paired with their inverses, so
    the sign ambiguity of the mutation direction is immaterial. The count
    must agree at half the bound, otherwise the search is inconclusive.
    """
    if height_bound < 50:
        raise ValidationError("height bound must be at least 50", code="height-bound")
    if height_bound > MAX_HEIGHT_BOUND:
        raise ValidationError(f"height bound must be at most {MAX_HEIGHT_BOUND}", code="height-bound")
    if n.genus != 1:
        raise DomainError("slope orbits are computed for elliptic numerics")
    k = n.epsilon * _simple_coefficient(n)
    gens = (
        ((1, 0), (1, 1)),
        ((1, 0), (-1, 1)),
        ((1, -k), (0, 1)),
        ((1, k), (0, 1)),
    )
    half_count = len(_orbit_scan(gens, height_bound // 2))
    orbits = _orbit_scan(gens, height_bound)
    if len(orbits) != half_count:
        raise DomainError(
            f"orbit count changed between bounds {height_bound // 2} and {height_bound}"
        )

    def rep_key(v):
        return (v[1], abs(v[0]), v[0])

    ordered = sorted(orbits, key=lambda orbit: rep_key(min(orbit, key=rep_key)))
    reps = []
    for orbit in ordered:
        d, r = min(orbit, key=rep_key)
        reps.append(INFINITY if r == 0 else Fraction(d, r))
    return SlopeOrbits(
        count=len(ordered),
        representatives=tuple(reps),
        orbits=tuple(frozenset(orbit) for orbit in ordered),
        height_bound=height_bound,
    )


_FM_PARTNERS = {name: frozenset({name}) for name in ELLIPTIC_TYPES}
_FM_PARTNERS["K"] = frozenset({"K", "A_RH"})
_FM_PARTNERS["A_RH"] = frozenset({"K", "A_RH"})


def fm_partners(name: str) -> frozenset[str]:
    """Fourier-Mukai partners among the real elliptic types."""
    try:
        return _FM_PARTNERS[name]
    except KeyError:
        raise ValidationError(f"{name!r} is not a real elliptic type", code="unknown-name") from None
