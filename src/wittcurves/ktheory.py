"""The rank-degree lattice: Euler forms, mutations, slope orbits, partners.

Classes of sheaves are tracked only through their (degree, rank) vectors.
The Euler form is the Riemann-Roch pairing; on an elliptic curve the line
bundle class and a degree-one simple class define two transvections of the
lattice. For the seven real elliptic types they generate a subgroup of
finite index in SL2(Z), with one or two orbits on slopes; alternating
division reduces every slope to its orbit's representative and returns
the generator word that does it, so the count is exact and certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError, InconsistentDataError, InvariantViolation, ValidationError, require_ints
from .weighted_curve import WeightedCurve, curve_profile
from .witt_surface import catalog


class _Infinity:
    """The slope of a torsion class: hashable, equal only to itself, not a number."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()

Matrix = tuple[tuple[int, int], tuple[int, int]]

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
    end_S_dim: int = 1
    pbar: int = 1
    g_orb: Fraction | None = None

    def __post_init__(self):
        require_ints(
            kappa=self.kappa, epsilon=self.epsilon, genus=self.genus, end_S_dim=self.end_S_dim, pbar=self.pbar
        )
        if self.kappa < 1 or self.genus < 0 or self.end_S_dim < 1 or self.pbar < 1:
            raise ValidationError("numerics entries out of range", code="nonpositive")
        if self.epsilon not in (1, 2):
            raise ValidationError(f"epsilon must be 1 or 2, got {self.epsilon}", code="epsilon")


# real dimension of End(S) for the designated degree-one simple object S
_END_S_DIM = {"A": 1, "M": 1, "K": 2, "A_RH": 4, "A_HH": 4, "M_H": 4, "D_2222": 2}
ELLIPTIC_TYPES = tuple(_END_S_DIM)


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
    num = n.kappa * n.epsilon
    if num % n.end_S_dim != 0:
        raise InconsistentDataError(
            f"mutation coefficient {num}/{n.end_S_dim} is not an integer"
        )
    return num // n.end_S_dim


def mutation_matrices(n: CurveNumerics) -> tuple[Matrix, Matrix]:
    """Tubular mutations on (degree, rank) columns of an elliptic curve.

    M_L adds epsilon*deg to the rank, M_S subtracts
    (kappa epsilon / end_S_dim) * rank from the degree.
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


# slope_orbits never walks the height box; the bound only sizes the box
# that SlopeOrbits.orbits lists when read, (2B + 1)(B + 1) reductions.
MAX_HEIGHT_BOUND = 600

def _rep_key(v: tuple[int, int]):
    return (v[1], abs(v[0]), v[0])


def reduce_class(vector: tuple[int, int], k: int) -> tuple[tuple[int, int], tuple[tuple[str, int], ...]]:
    """Canonical form of a primitive (degree, rank) vector up to sign under
    L^e: r -> r + e d and S^e: d -> d - e k r, and the word of (letter, e)
    pairs that takes the vector there, its sign fixed as in the form.

    Alternating division: r to r mod |d| when |d| <= r, else d to its
    centred remainder mod k r. The rank at least halves every two steps and
    the loop ends at (1, 0) or (0, 1); for k = 1, S then L joins the two.
    """
    if k not in (1, 2):
        raise DomainError(f"mutation coefficient {k} generates a subgroup of infinite index")
    d, r = vector if vector[1] >= 0 else (-vector[0], -vector[1])
    if gcd(d, r) != 1:
        raise DomainError(f"{vector} is not a primitive class")
    word = []
    while d and r:
        if abs(d) <= r:
            e = -(r // d) if d > 0 else r // -d
            r += e * d
            word.append(("L", e))
        else:
            e = (2 * d + k * r) // (2 * k * r)
            d -= e * k * r
            word.append(("S", e))
    if (d, r) == (0, 1) and k == 1:
        word += [("S", 1), ("L", 1)]
        d, r = -1, 0
    return (abs(d), 0) if r == 0 else (d, r), tuple(word)


@dataclass(frozen=True, slots=True)
class SlopeOrbits:
    count: int
    representatives: tuple
    height_bound: int
    coefficient: int

    @property
    def orbits(self) -> tuple[frozenset[tuple[int, int]], ...]:
        """The primitive (degree, rank) vectors up to sign with both entries
        at most height_bound, one set per orbit in the order of the
        representatives; reduced afresh on each read."""
        bound = self.height_bound
        groups: dict[tuple[int, int], set] = {}
        for r in range(bound + 1):
            for d in (1,) if r == 0 else range(-bound, bound + 1):
                if gcd(d, r) == 1:
                    groups.setdefault(reduce_class((d, r), self.coefficient)[0], set()).add((d, r))
        return tuple(frozenset(groups[form]) for form in sorted(groups, key=_rep_key))


def slope_orbits(n: CurveNumerics, height_bound: int = 100) -> SlopeOrbits:
    """Orbits of the mutation group on slopes, exactly.

    The group acts on primitive (degree, rank) vectors up to sign through
    the transvections in the unnormalized degree form (the lattice where
    the line-bundle mutation has coefficient 1 and the simple mutation has
    coefficient k = epsilon * c); this is conjugate to the normalized
    picture and realizes the even/odd numerator description of the
    two-orbit cases. `reduce_class` takes every vector to (1, 0) or
    (0, 1), so the orbits are the distinct forms those two reduce to. Both
    generators and the sign keep the degree mod k, which separates them.
    The answer does not depend on height_bound; k outside {1, 2} raises
    DomainError, since the group then has infinitely many orbits.
    """
    if height_bound < 50:
        raise ValidationError("height bound must be at least 50", code="height-bound")
    if height_bound > MAX_HEIGHT_BOUND:
        raise ValidationError(f"height bound must be at most {MAX_HEIGHT_BOUND}", code="height-bound")
    if n.genus != 1:
        raise DomainError("slope orbits are computed for elliptic numerics")
    k = n.epsilon * _simple_coefficient(n)
    forms = sorted({reduce_class(v, k)[0] for v in ((1, 0), (0, 1))}, key=_rep_key)
    if len({d % k for d, _ in forms}) != len(forms):
        raise InvariantViolation(f"the degree mod {k} does not separate the forms {forms}")
    return SlopeOrbits(
        count=len(forms),
        representatives=tuple(ClassVector(d, r).slope() for d, r in forms),
        height_bound=height_bound,
        coefficient=k,
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
