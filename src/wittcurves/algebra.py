"""Exact arithmetic in the real division algebras and their automorphisms.

Elements of R, C and H carry rational coefficients over the bases {1},
{1, i} and {1, i, j, ij}, with the defining relations i^2 = -1 = j^2 and
ij = -ji. All arithmetic is exact; nothing in this package ever rounds.
By Frobenius these three are all the division algebras over R, so they
are the only kinds; the comultiplicity e* of each is read off it.

An element is stored as a tuple of integer numerators ``num`` over one
positive denominator ``den``, reduced so that gcd(den, *num) = 1 (zero is
all zeros over 1). The form is unique, so equality and hashing compare
the integers, and the arithmetic runs on plain ints: a Hamilton product
is sixteen integer products and one gcd. ``coeffs`` shows the same
element as a tuple of ``Fraction``s. ``AlgebraElement`` is a
``FrozenRecord`` whose fields, kind and coeffs, are its constructor's
arguments, so a copy, a pickle or ``_replace`` goes through the
constructor. The public constructor ``AlgebraElement(kind, coeffs)``
checks the kind, the arity and that every coefficient is an int or a
``Fraction``; results computed here are built by ``_make``, from
numerators that ``_lowest`` has reduced where they need it, and
``_make`` trusts its caller and checks nothing. The package builds a
``Fraction`` from an int pair it has summed, such as an orbifold Euler
characteristic, by ``_rational``, and an inner automorphism from a unit
vector it has computed, such as a power of a unit, by ``_inner_of``;
both trust their callers in the same way.

An inner automorphism a -> u^-1 a u holds its unit as a primitive integer
vector and its rotation of the i, j, k part as integers over the unit's
norm, so applying it and taking its powers stay on ints as well.
``_image`` applies an automorphism to a (numerators, denominator) pair
and returns the pair of the image, so a kernel that reads only numerators,
such as a twisted product, builds no element for an image; ``apply`` is
``_image`` wrapped in one element. Every power of an automorphism comes
from one walk, ``_powers``, which builds each power of an ascending run
of exponents from the one before; ``power(phi, n)`` is its one step at n.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    DomainError,
    FrozenRecord,
    KindMismatchError,
    Record,
    ValidationError,
    _tuple_new,
    require_ints,
)


class DivisionAlgebraKind(Record):
    """One of the division algebras over R, seen through its dimensions.

    By Frobenius these are R, C and H, the three built-in kinds below, and
    they are the only kinds: every function that takes a kind refuses any
    other, a hand-built one or a plain tuple of the same fields included,
    with KindMismatchError. ``dim_over_k`` and ``dim_centre_over_k`` are
    dimensions over R; their ratio is the comultiplicity squared.
    """

    __slots__ = ()

    def __new__(cls, tag, dim_over_k, dim_centre_over_k, display_name):
        return _tuple_new(cls, (tag, dim_over_k, dim_centre_over_k, display_name))

    def __repr__(self):
        return self.display_name


REAL = DivisionAlgebraKind("REAL", 1, 1, "ℝ")
COMPLEX = DivisionAlgebraKind("COMPLEX", 2, 2, "ℂ")
QUATERNION = DivisionAlgebraKind("QUATERNION", 4, 1, "ℍ")

BUILTIN_KINDS = (REAL, COMPLEX, QUATERNION)
_BUILTIN = {kind: kind for kind in BUILTIN_KINDS}


def _builtin(kind: DivisionAlgebraKind) -> DivisionAlgebraKind:
    """The built-in kind equal to ``kind``; anything else, a plain tuple of
    the same fields included, is no division algebra over R."""
    builtin = _BUILTIN.get(kind) if isinstance(kind, DivisionAlgebraKind) else None
    if builtin is None:
        raise KindMismatchError("the only division algebras over R are R, C and H")
    return builtin


def comultiplicity(kind: DivisionAlgebraKind) -> int:
    """e*: the square root of [D : Z(D)], 2 for H and 1 for R and C."""
    kind = _builtin(kind)
    return math.isqrt(kind.dim_over_k // kind.dim_centre_over_k)


class AlgebraElement(FrozenRecord):
    """An element of R, C or H: integer numerators ``num`` over one positive
    denominator ``den``, in lowest terms (see the module docstring).

    A FrozenRecord whose fields are its constructor's arguments, the kind
    and the coefficients, kept normalised in the slots ``kind``, ``num``
    and ``den``; ``coeffs`` reads them back as Fractions. Copies, pickles,
    ``_make`` and ``_replace`` rebuild it through the constructor, while
    equality and hash compare the integers.
    """

    _fields = ("kind", "coeffs")
    __slots__ = ("kind", "num", "den")

    def __init__(self, kind: DivisionAlgebraKind, coeffs):
        self.__post_init__(kind, coeffs)

    def __post_init__(self, kind: DivisionAlgebraKind, coeffs):
        """Check a public construction and bring the coefficients to lowest terms."""
        kind = _builtin(kind)
        coeffs = tuple(coeffs)
        if len(coeffs) != kind.dim_over_k:
            raise KindMismatchError(
                f"{kind.display_name} needs {kind.dim_over_k} coefficients, got {len(coeffs)}"
            )
        plain = True
        for c in coeffs:
            # plain ints pass here; anything else goes to the full check
            if c.__class__ is not int:
                if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                    raise KindMismatchError(
                        f"coefficients must be ints or Fractions, got {type(c).__name__} {c!r}"
                    )
                plain = False
        # plain ints are their own numerators over 1; over the lcm of reduced
        # denominators the numerators share no factor with it
        den = 1 if plain else math.lcm(*(c.denominator for c in coeffs))
        _set_kind(self, kind)
        _set_num(self, coeffs if plain else tuple(c.numerator * (den // c.denominator) for c in coeffs))
        _set_den(self, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(v, den) for v in self.num)

    def __eq__(self, other):
        if other.__class__ is not AlgebraElement:
            return NotImplemented
        return self.kind is other.kind and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.kind, self.num, self.den))

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _require_same_kind(self, other)
        da, db = self.den, other.den
        return _make(
            self.kind, *_lowest(tuple(x * db + y * da for x, y in zip(self.num, other.num)), da * db)
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return _make(self.kind, tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        if other.__class__ is not AlgebraElement:
            if isinstance(other, (int, Fraction)):
                return _make(
                    self.kind,
                    *_lowest(tuple(x * other.numerator for x in self.num), self.den * other.denominator),
                )
            return NotImplemented
        _require_same_kind(self, other)
        kind = self.kind
        return _make(kind, *_lowest(_product(kind, self.num, other.num), self.den * other.den))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    # -- involution and norm -----------------------------------------------

    def conjugate(self) -> "AlgebraElement":
        """Standard involution: fixes the real part, negates the rest."""
        num = self.num
        return _make(self.kind, (num[0],) + tuple(-x for x in num[1:]), self.den)

    def norm(self) -> Fraction:
        """Multiplicative norm (a * conj(a); a sum of squares, zero only at zero)."""
        return Fraction(sum(x * x for x in self.num), self.den * self.den)

    def inverse(self) -> "AlgebraElement":
        """conj(a) / |a|^2, which on num / den is conj(num) * den / |num|^2."""
        num, den = self.num, self.den
        n = sum(x * x for x in num)
        if n == 0:
            raise ZeroDivisionError("zero has no inverse")
        return _make(self.kind, *_lowest((num[0] * den,) + tuple(-x * den for x in num[1:]), n))

    def is_zero(self) -> bool:
        return not any(self.num)

    def __repr__(self):
        coeffs = self.coeffs
        names = {1: [""], 2: ["", "i"], 4: ["", "i", "j", "k"]}[len(coeffs)]
        parts = []
        for c, n in zip(coeffs, names):
            if c == 0:
                continue
            term = f"{abs(c)}{n}" if (not n or abs(c) != 1) else n
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts) if parts else "0"


# Writing the slots through their descriptors gets past the frozen __setattr__.
_set_kind = AlgebraElement.kind.__set__
_set_num = AlgebraElement.num.__set__
_set_den = AlgebraElement.den.__set__
_new = object.__new__
_set_slot = object.__setattr__


def _make(kind: DivisionAlgebraKind, num: tuple[int, ...], den: int) -> AlgebraElement:
    """An element from numerators already in lowest terms over den > 0, unchecked."""
    a = _new(AlgebraElement)
    _set_kind(a, kind)
    _set_num(a, num)
    _set_den(a, den)
    return a


def _lowest(num: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """Integer numerators over den > 0, brought to lowest terms by one gcd,
    as a (numerators, denominator) pair."""
    if den != 1 and (g := math.gcd(den, *num)) != 1:
        # a list comprehension builds the tuple faster than a generator would
        return tuple([x // g for x in num]), den // g
    return num, den


def _rational(n: int, d: int) -> Fraction:
    """The Fraction n / d from ints n and d > 0, brought to lowest terms by
    one gcd and unchecked. Its two slots are set directly, as Fraction's own
    constructor sets them on CPython 3.10 to 3.13, so its Python-level
    normalisation is skipped."""
    if d != 1 and (g := math.gcd(n, d)) != 1:
        n, d = n // g, d // g
    x = _new(Fraction)
    x._numerator = n
    x._denominator = d
    return x


def _hamilton(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Hamilton product of coordinate 4-tuples over 1, i, j, k with k = ij."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def _product(kind: DivisionAlgebraKind, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The numerators of x * y for elements x, y of a built-in kind with
    numerators a and b, over the product of their denominators, unreduced:
    the one multiplication rule of R, C and H (``_hamilton`` on H).

    On the integer vectors of basis elements these are the structure
    constants, so a caller that needs only numerators, such as a linear
    system that may be scaled row by row, builds no element at all.
    """
    if kind is QUATERNION:
        return _hamilton(a, b)
    if kind is COMPLEX:
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
    return (a[0] * b[0],)


def _require_same_kind(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.kind is not b.kind:
        raise KindMismatchError(
            f"mixed kinds: {a.kind.display_name} and {b.kind.display_name}"
        )


def element(kind: DivisionAlgebraKind, *coeffs) -> AlgebraElement:
    """An element from int or Fraction coefficients; anything else is rejected."""
    return AlgebraElement(kind, coeffs)


def real(x) -> AlgebraElement:
    return element(REAL, x)


def cplx(re, im=0) -> AlgebraElement:
    return element(COMPLEX, re, im)


def quat(a, b=0, c=0, d=0) -> AlgebraElement:
    return element(QUATERNION, a, b, c, d)


def _unit_vectors(kind: DivisionAlgebraKind) -> tuple[AlgebraElement, ...]:
    n = kind.dim_over_k
    return tuple(_make(kind, tuple(int(i == pos) for i in range(n)), 1) for pos in range(n))


# Elements never change, so one copy of each constant serves every caller.
_BASIS = {kind: _unit_vectors(kind) for kind in BUILTIN_KINDS}


def one(kind: DivisionAlgebraKind) -> AlgebraElement:
    return _BASIS[_builtin(kind)][0]


def basis(kind: DivisionAlgebraKind) -> tuple[AlgebraElement, ...]:
    """The standard basis 1, i, j, k truncated to the algebra's dimension."""
    return _BASIS[_builtin(kind)]


# ---------------------------------------------------------------------------
# Automorphisms


def _normalize_unit(unit: AlgebraElement) -> AlgebraElement:
    """Scale an inner-automorphism unit to a primitive integer vector.

    Units are only meaningful up to central (real) scaling, so a canonical
    representative (first nonzero coordinate positive) makes equality of
    automorphisms decidable.
    """
    if not isinstance(unit, AlgebraElement) or unit.kind is not QUATERNION:
        raise KindMismatchError(f"an inner automorphism needs a unit in H, got {unit!r}")
    if unit.is_zero():
        raise ValidationError("an inner automorphism needs a nonzero unit", code="zero-unit")
    return _unit_of(unit.num)


def _unit_of(num: tuple[int, ...]) -> AlgebraElement:
    """The unit of a nonzero integer 4-vector, divided by its content and
    with its first nonzero coordinate made positive: the one normalisation
    of inner() and _inner_of."""
    g = math.gcd(*num)
    if next(v for v in num if v) < 0:
        g = -g
    return _make(QUATERNION, num if g == 1 else tuple([v // g for v in num]), 1)


def _inner_rotation(unit: AlgebraElement) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Matrix of a -> u^-1 a u on the i, j, k coordinates, as (rows, N).

    For a normalised unit u = w + xi + yj + zk of norm N this is the
    rotation by conj(u) / N, the transpose of the one by u: integer rows
    over N, both divided by their common gcd.
    """
    w, x, y, z = unit.num
    norm = w * w + x * x + y * y + z * z
    rows = (
        (w * w + x * x - y * y - z * z, 2 * (x * y + w * z), 2 * (x * z - w * y)),
        (2 * (x * y - w * z), w * w - x * x + y * y - z * z, 2 * (y * z + w * x)),
        (2 * (x * z + w * y), 2 * (y * z - w * x), w * w - x * x - y * y + z * z),
    )
    g = math.gcd(norm, *rows[0], *rows[1], *rows[2])
    if g == 1:
        return rows, norm
    return tuple([tuple([v // g for v in row]) for row in rows]), norm // g


_ACTIONS = {REAL: ("identity",), COMPLEX: ("identity", "conj"), QUATERNION: ("identity", "inner")}


class Automorphism(FrozenRecord):
    """A k-algebra automorphism of R, C or H.

    Only three shapes exist: the identity, complex conjugation on C, and
    inner automorphisms of H (every R-automorphism of H is inner by
    Skolem-Noether; Gal(C/R) is generated by conjugation; R is rigid).
    An inner automorphism stores its unit normalised, so equal maps
    compare equal however the unit was scaled.

    a -> u^-1 a u fixes the real part of a and rotates its i, j, k part
    by an exact rational 3 x 3 matrix, held in ``rotation`` as integer
    rows over a common positive denominator N: (rows, N), or None for the
    other actions. It is derived from the unit, so it is no field and
    takes no part in equality, hash or repr.
    """

    _fields = ("kind", "action", "unit")  # action: "identity" | "conj" | "inner"
    __slots__ = (*_fields, "rotation")

    def __init__(self, kind: DivisionAlgebraKind, action: str, unit: AlgebraElement | None = None):
        kind = _builtin(kind)
        if action not in _ACTIONS[kind]:
            raise DomainError(f"{kind.display_name} has no automorphism {action!r}")
        if action != "inner" and unit is not None:
            raise DomainError(f"a unit belongs to an inner automorphism, not to {action!r}")
        rotation = None
        if action == "inner":
            unit = _normalize_unit(unit)
            rotation = _inner_rotation(unit)
        self._set(kind, action, unit)
        _set_slot(self, "rotation", rotation)


def _inner_of(vector: tuple[int, ...]) -> Automorphism:
    """inner(quat(*vector)) for a nonzero integer 4-vector that the package
    computed, a _unit_power or a Hamilton product of two units, unchecked:
    the unit is normalised as inner() normalises it, and the slots are set
    past the frozen __setattr__."""
    phi = _new(Automorphism)
    unit = _unit_of(vector)
    _set_slot(phi, "kind", QUATERNION)
    _set_slot(phi, "action", "inner")
    _set_slot(phi, "unit", unit)
    _set_slot(phi, "rotation", _inner_rotation(unit))
    return phi


def identity(kind: DivisionAlgebraKind) -> Automorphism:
    return Automorphism(kind, "identity")


def complex_conjugation() -> Automorphism:
    return Automorphism(COMPLEX, "conj")


def inner(unit: AlgebraElement) -> Automorphism:
    return Automorphism(QUATERNION, "inner", unit)


def apply(phi: Automorphism, a: AlgebraElement) -> AlgebraElement:
    """Apply an automorphism to an element of the same algebra; anything
    but an Automorphism and an AlgebraElement raises KindMismatchError."""
    if phi.__class__ is not Automorphism:
        raise _not_a_twist(phi)
    if a.__class__ is not AlgebraElement:
        raise KindMismatchError(f"an automorphism applies to an AlgebraElement, got {type(a).__name__}")
    if phi.kind is not a.kind:
        raise KindMismatchError(
            f"automorphism on {phi.kind.display_name} applied to {a.kind.display_name}"
        )
    return _make(a.kind, *_image(phi, a.num, a.den))


def _image(phi: Automorphism, num: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """The (numerators, denominator) pair of phi(a), in lowest terms, for
    the element a = num / den of phi's algebra, whose kind the caller has
    matched with phi's: the identity, conjugation, or the integer rotation
    of an inner phi, the only action with a rotation, reduced by one gcd."""
    rotation = phi.rotation
    if rotation is None:
        return ((num[0], -num[1]), den) if phi.action == "conj" else (num, den)
    ((x0, x1, x2), (y0, y1, y2), (z0, z1, z2)), norm = rotation
    c0, c1, c2, c3 = num
    return _lowest(
        (
            c0 * norm,
            x0 * c1 + x1 * c2 + x2 * c3,
            y0 * c1 + y1 * c2 + y2 * c3,
            z0 * c1 + z1 * c2 + z2 * c3,
        ),
        den * norm,
    )


def _primitive(v: tuple[int, ...]) -> tuple[int, ...]:
    """A nonzero integer vector divided by its content, the gcd of its entries."""
    g = math.gcd(*v)
    return v if g == 1 else tuple([x // g for x in v])


def _unit_power(unit: tuple[int, ...], n: int) -> tuple[int, ...]:
    """u^n up to a real scalar, for the integer vector of a unit u, by
    binary powering, u^-1 being conj(u) up to a real scalar.

    The vector is divided by its content after every squaring and every
    product, which changes u^n only by a real scalar. So a unit of finite
    order keeps small entries however large n is: (1 + i)^n never leaves
    a few bits, where the unreduced vector would carry n/2 of them.
    """
    w, x, y, z = unit
    step = unit if n >= 0 else (w, -x, -y, -z)
    un = (1, 0, 0, 0)
    for bit in bin(abs(n))[2:]:
        un = _primitive(_hamilton(un, un))
        if bit == "1":
            un = _primitive(_hamilton(un, step))
    return un


# power refuses |n| above this for an inner twist of infinite order, whose
# u^n keeps about |n| log2(N) / 2 bits: for 1 + 2i, 0.12 ms at 1024 and 0.17 s
# at 10^5 (2-vCPU Xeon). It is above MAX_TRUNCATION, the most a series asks.
MAX_INNER_POWER = 1024


def power(phi: Automorphism, n: int) -> Automorphism:
    """phi^n, negative n giving powers of the inverse: the one step of
    ``_powers`` at n, the walk every power comes from. An inner phi of
    infinite order, by Niven's theorem one whose rotation has cosine
    2w^2/N - 1 outside {1, -1, -1/2, 0, 1/2} for the unit w + xi + yj + zk
    of norm N, refuses |n| above MAX_INNER_POWER with ValidationError (code
    "too-large"); an n that is not an int, a bool included, raises
    ValidationError (``not-integer``), and a phi that is not an
    Automorphism KindMismatchError."""
    require_ints(n=n)
    if phi.__class__ is not Automorphism:
        raise _not_a_twist(phi)
    unit = phi.unit.num if phi.action == "inner" else None
    if unit is not None and abs(n) > MAX_INNER_POWER and (
        4 * unit[0] ** 2 not in [k * sum(v * v for v in unit) for k in (4, 0, 1, 2, 3)]
    ):
        raise ValidationError(
            f"an inner twist of infinite order takes powers of size up to {MAX_INNER_POWER}, got {n}", code="too-large"
        )
    return next(_powers(phi, (n,)))


def _powers(phi: Automorphism, exponents):
    """Yield phi^e for each e of an ascending sequence of exponents, each
    built from the one before: the one walk that builds every power of an
    automorphism, ``power`` included, for a phi the caller has checked.

    The identity and conjugation yield phi at odd exponents and the
    identity at even ones, the identity being its own even power. An
    inner phi starts from the unit u^e at the first exponent e, by
    ``_unit_power``; every later unit is the unit before times u^gap, gap
    the step from the exponent before, in one Hamilton product normalised
    by _inner_of. u^gap is taken once per distinct gap, and is
    u itself over consecutive exponents. So an inner phi builds one
    automorphism per exponent, where one binary powering per exponent
    would redo the powering each time.
    """
    if phi.action != "inner":
        even = phi if phi.action == "identity" else identity(phi.kind)
        for e in exponents:
            yield phi if e % 2 else even
    else:
        unit = phi.unit.num
        steps = {1: unit}
        current = None
        for e in exponents:
            if current is None:
                current = _inner_of(_unit_power(unit, e))
            else:
                gap = e - last
                if gap not in steps:
                    steps[gap] = _unit_power(unit, gap)
                current = _inner_of(_hamilton(current.unit.num, steps[gap]))
            last = e
            yield current


def apply_power(phi: Automorphism, n: int, a: AlgebraElement) -> AlgebraElement:
    """Apply phi n times; negative n applies the inverse automorphism."""
    return apply(power(phi, n), a)


def galois_order(phi: Automorphism) -> int:
    """Order of the automorphism's class in Aut(D)/Inn(D) = Gal(Z-fixed data).

    Identity is trivial; conjugation on C has order two; every inner
    automorphism of H is trivial in the quotient. Anything but an
    Automorphism raises KindMismatchError.
    """
    if phi.__class__ is not Automorphism:
        raise _not_a_twist(phi)
    return 2 if phi.action == "conj" else 1


def _not_a_twist(phi) -> KindMismatchError:
    return KindMismatchError(f"a twist must be an Automorphism, got {type(phi).__name__}")
