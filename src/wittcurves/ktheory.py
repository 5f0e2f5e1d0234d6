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

from fractions import Fraction
from math import gcd

from .errors import (
    DomainError,
    FrozenRecord,
    InconsistentDataError,
    InvariantViolation,
    KindMismatchError,
    Record,
    ValidationError,
    _tuple_new,
    require_ints,
    require_positive,
)
from .witt_surface import catalog, validate


class _Infinity:
    """The slope of a torsion class: hashable, equal only to itself, not a number."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"

    def __reduce__(self):
        # copies and unpickling return the one INFINITY, which `is` tests
        return "INFINITY"


INFINITY = _Infinity()


class ClassVector(FrozenRecord):
    """A (degree, rank) class in the lattice; both entries are ints."""

    __slots__ = _fields = ("degree", "rank")

    def __init__(self, degree: int, rank: int):
        self._set(degree, rank)
        require_ints(degree=degree, rank=rank)

    def slope(self):
        """degree/rank in Q union {infinity}; undefined on the zero class."""
        if self.rank == 0:
            if self.degree == 0:
                raise DomainError("the zero class has no slope")
            return INFINITY
        return Fraction(self.degree, self.rank)


class CurveNumerics(FrozenRecord):
    """Numerical data of a curve as Riemann-Roch sees it.

    end_S_dim is the real dimension of the endomorphism ring of the
    designated degree-one simple object; g_orb and pbar extend the data
    to the weighted case and default to the plain genus and 1. g_orb is
    an int or a Fraction.
    """

    __slots__ = _fields = ("kappa", "epsilon", "genus", "end_S_dim", "pbar", "g_orb")

    def __init__(
        self, kappa: int, epsilon: int, genus: int, end_S_dim: int = 1, pbar: int = 1, g_orb: Fraction | None = None
    ):
        self._set(kappa, epsilon, genus, end_S_dim, pbar, g_orb)
        require_positive(kappa=kappa, epsilon=epsilon, end_S_dim=end_S_dim, pbar=pbar)
        require_ints(genus=genus)
        if not isinstance(g_orb, Fraction):
            require_ints(("g_orb",), g_orb=g_orb)
        if genus < 0:
            raise ValidationError("genus must be nonnegative", code="nonpositive")


# real dimension of End(S) for the designated degree-one simple object S
_END_S_DIM = {"A": 1, "M": 1, "K": 2, "A_RH": 4, "A_HH": 4, "M_H": 4, "D_2222": 2}
ELLIPTIC_TYPES = tuple(_END_S_DIM)


def elliptic_numerics(name: str) -> CurveNumerics:
    """Riemann-Roch data of a real elliptic type; kappa, epsilon and the
    genus are those of its catalog surface."""
    # membership of the tuple compares and does not hash, so a list is refused too
    if name not in ELLIPTIC_TYPES:
        raise ValidationError(f"{name!r} is not a real elliptic type", code="unknown-name")
    n = validate(catalog(name))
    return CurveNumerics(kappa=n.kappa, epsilon=n.epsilon, genus=n.genus, end_S_dim=_END_S_DIM[name])


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


def mutation_matrices(n: CurveNumerics) -> tuple[tuple, tuple]:
    """Tubular mutations of an elliptic curve on (degree, rank) columns, as int rows.

    M_L adds epsilon*deg to the rank, M_S subtracts
    (kappa epsilon / end_S_dim) * rank from the degree.
    """
    if n.genus != 1:
        raise DomainError("mutations are defined for elliptic numerics")
    c = _simple_coefficient(n)
    m_l = ((1, 0), (n.epsilon, 1))
    m_s = ((1, -c), (0, 1))
    return m_l, m_s


# slope_orbits checks height_bound against [50, MAX_HEIGHT_BOUND], echoes it and sizes nothing by it
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
    if not (isinstance(vector, (tuple, list)) and len(vector) == 2):
        raise KindMismatchError(f"a class vector is a (degree, rank) pair, got {vector!r}")
    require_ints(degree=vector[0], rank=vector[1], k=k)
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


class SlopeOrbits(Record):
    __slots__ = ()

    def __new__(cls, count, representatives, height_bound, coefficient):
        return _tuple_new(cls, (count, representatives, height_bound, coefficient))


def slope_orbits(n: CurveNumerics, height_bound: int = 100) -> SlopeOrbits:
    """Orbits of the mutation group on slopes, exactly.

    The group acts on primitive (degree, rank) vectors up to sign through
    the transvections in the unnormalized degree form (the lattice where
    the line-bundle mutation has coefficient 1 and the simple mutation has
    coefficient k = epsilon * c); this is conjugate to the normalized
    picture and realizes the even/odd numerator description of the
    two-orbit cases. `reduce_class` takes every vector to (1, 0) or
    (0, 1), so the orbits are the distinct forms those two reduce to. Both
    generators and the sign keep the degree mod k, which separates them; a
    vector's orbit is its form, reduce_class(v, k)[0]. height_bound is
    checked and echoed, and sizes nothing; k outside {1, 2} raises
    DomainError, since the group then has infinitely many orbits.
    """
    require_ints(height_bound=height_bound)
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
    except (KeyError, TypeError):
        raise ValidationError(f"{name!r} is not a real elliptic type", code="unknown-name") from None
