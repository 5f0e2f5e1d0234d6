"""Exact arithmetic in the real division algebras and their automorphisms.

Elements of R, C and H carry rational coefficients over the bases {1},
{1, i} and {1, i, j, ij}, with the defining relations i^2 = -1 = j^2 and
ij = -ji. All arithmetic is exact; nothing in this package ever rounds.

An element is stored as a tuple of integer numerators ``num`` over one
positive denominator ``den``, reduced so that gcd(den, *num) = 1 (zero is
all zeros over 1). The form is unique, so equality and hashing compare
the integers, and the arithmetic runs on plain ints: a Hamilton product
is sixteen integer products and one gcd. ``coeffs`` shows the same
element as a tuple of ``Fraction``s. The public constructor
``AlgebraElement(kind, coeffs)`` checks the kind, the arity and that
every coefficient is an int or a ``Fraction``; results computed here are
built by ``_make``, which trusts its caller and checks nothing.

An inner automorphism a -> u^-1 a u holds its unit as a primitive integer
vector and its rotation of the i, j, k part as integers over the unit's
norm, so applying it and taking its powers stay on ints as well.

Division algebras over other base fields (finite fields, number fields)
appear only through their dimension data, as ``abstract_kind`` descriptors
without element arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction

from .errors import DomainError, InvariantViolation, KindMismatchError


@dataclass(frozen=True, slots=True)
class DivisionAlgebraKind:
    """A division algebra over a base field k, seen through its dimensions.

    ``dim_over_k`` and ``dim_centre_over_k`` are dimensions over k; their
    ratio is a perfect square (the comultiplicity squared).
    """

    tag: str
    dim_over_k: int
    dim_centre_over_k: int
    display_name: str

    def __repr__(self):
        return self.display_name


REAL = DivisionAlgebraKind("REAL", 1, 1, "ℝ")
COMPLEX = DivisionAlgebraKind("COMPLEX", 2, 2, "ℂ")
QUATERNION = DivisionAlgebraKind("QUATERNION", 4, 1, "ℍ")

BUILTIN_KINDS = (REAL, COMPLEX, QUATERNION)
_BUILTIN = {kind: kind for kind in BUILTIN_KINDS}


def abstract_kind(dim_over_k: int, dim_centre_over_k: int, display_name: str = "D") -> DivisionAlgebraKind:
    """Dimension-only descriptor for a division algebra over an implicit base field."""
    if dim_over_k % dim_centre_over_k != 0:
        raise InvariantViolation(
            f"centre dimension {dim_centre_over_k} does not divide {dim_over_k}"
        )
    kind = DivisionAlgebraKind("ABSTRACT", dim_over_k, dim_centre_over_k, display_name)
    comultiplicity(kind)  # validates the perfect-square constraint
    return kind


def comultiplicity(kind: DivisionAlgebraKind) -> int:
    """e*: the square root of [D : Z(D)]."""
    ratio, rem = divmod(kind.dim_over_k, kind.dim_centre_over_k)
    root = math.isqrt(ratio)
    if rem != 0 or root * root != ratio:
        raise InvariantViolation(
            f"[D:Z(D)] = {kind.dim_over_k}/{kind.dim_centre_over_k} is not a perfect square"
        )
    return root


def _builtin(kind: DivisionAlgebraKind) -> DivisionAlgebraKind:
    """The built-in kind equal to ``kind``; anything else has no element arithmetic."""
    try:
        return _BUILTIN[kind]
    except KeyError:
        raise KindMismatchError("element arithmetic exists only for R, C, H") from None


class AlgebraElement:
    """An element of R, C or H: integer numerators ``num`` over one positive
    denominator ``den``, in lowest terms (see the module docstring)."""

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
        for c in coeffs:
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise KindMismatchError(
                    f"coefficients must be ints or Fractions, got {type(c).__name__} {c!r}"
                )
        # over the lcm of reduced denominators the numerators share no factor with it
        den = math.lcm(*(c.denominator for c in coeffs))
        _set_kind(self, kind)
        _set_num(self, tuple(c.numerator * (den // c.denominator) for c in coeffs))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt by the public constructor, which maps a copied kind back to its built-in
        return AlgebraElement, (self.kind, self.coeffs)

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
        if da == db:
            return _reduced(self.kind, tuple(x + y for x, y in zip(self.num, other.num)), da)
        return _reduced(
            self.kind, tuple(x * db + y * da for x, y in zip(self.num, other.num)), da * db
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return _make(self.kind, tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        if other.__class__ is not AlgebraElement:
            if isinstance(other, (int, Fraction)):
                return _reduced(
                    self.kind,
                    tuple(x * other.numerator for x in self.num),
                    self.den * other.denominator,
                )
            return NotImplemented
        _require_same_kind(self, other)
        kind, a, b = self.kind, self.num, other.num
        if kind is QUATERNION:
            num = _hamilton(a, b)
        elif kind is COMPLEX:
            num = (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
        else:
            num = (a[0] * b[0],)
        return _reduced(kind, num, self.den * other.den)

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
        return _reduced(self.kind, (num[0] * den,) + tuple(-x * den for x in num[1:]), n)

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


def _make(kind: DivisionAlgebraKind, num: tuple[int, ...], den: int) -> AlgebraElement:
    """An element from numerators already in lowest terms over den > 0, unchecked."""
    a = _new(AlgebraElement)
    _set_kind(a, kind)
    _set_num(a, num)
    _set_den(a, den)
    return a


def _reduced(kind: DivisionAlgebraKind, num: tuple[int, ...], den: int) -> AlgebraElement:
    """An element from integer numerators over den > 0, brought to lowest terms."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(x // g for x in num)
            den //= g
    return _make(kind, num, den)


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
_ZERO = {kind: _make(kind, (0,) * kind.dim_over_k, 1) for kind in BUILTIN_KINDS}
_BASIS = {kind: _unit_vectors(kind) for kind in BUILTIN_KINDS}


def zero(kind: DivisionAlgebraKind) -> AlgebraElement:
    return _ZERO[_builtin(kind)]


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
    if unit.kind is not QUATERNION:
        raise KindMismatchError("inner automorphisms are registered only on H")
    if unit.is_zero():
        raise ZeroDivisionError("inner automorphism needs an invertible unit")
    num = unit.num
    g = math.gcd(*num)
    if next(v for v in num if v != 0) < 0:
        g = -g
    return _make(QUATERNION, tuple(v // g for v in num), 1)


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
    g = math.gcd(norm, *(v for row in rows for v in row))
    return tuple(tuple(v // g for v in row) for row in rows), norm // g


@dataclass(frozen=True, slots=True)
class Automorphism:
    """A k-algebra automorphism of R, C or H.

    Only three shapes exist: the identity, complex conjugation on C, and
    inner automorphisms of H (every R-automorphism of H is inner by
    Skolem-Noether; Gal(C/R) is generated by conjugation; R is rigid).
    An inner automorphism stores its unit normalised, so equal maps
    compare equal however the unit was scaled.
    """

    kind: DivisionAlgebraKind
    action: str  # "identity" | "conj" | "inner"
    unit: AlgebraElement | None = None
    # a -> u^-1 a u fixes the real part of a and rotates its i, j, k part
    # by an exact rational 3 x 3 matrix, held as integer rows over a
    # common positive denominator N: (rows, N). It is derived from the
    # unit, so it takes no part in equality, hash or repr.
    rotation: tuple[tuple[tuple[int, ...], ...], int] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if self.action == "inner":
            unit = _normalize_unit(self.unit)
            object.__setattr__(self, "unit", unit)
            object.__setattr__(self, "rotation", _inner_rotation(unit))

    def __call__(self, a: AlgebraElement) -> AlgebraElement:
        return apply(self, a)


def identity(kind: DivisionAlgebraKind) -> Automorphism:
    return Automorphism(kind, "identity")


def complex_conjugation() -> Automorphism:
    return Automorphism(COMPLEX, "conj")


def inner(unit: AlgebraElement) -> Automorphism:
    return Automorphism(QUATERNION, "inner", unit)


def apply(phi: Automorphism, a: AlgebraElement) -> AlgebraElement:
    """Apply an automorphism to an element of the same algebra."""
    if phi.kind is not a.kind:
        raise KindMismatchError(
            f"automorphism on {phi.kind.display_name} applied to {a.kind.display_name}"
        )
    if phi.action == "identity":
        return a
    if phi.action == "conj":
        return a.conjugate()
    rows, norm = phi.rotation
    c0, c1, c2, c3 = a.num
    return _reduced(
        QUATERNION,
        (c0 * norm,) + tuple(r0 * c1 + r1 * c2 + r2 * c3 for r0, r1, r2 in rows),
        a.den * norm,
    )


def power(phi: Automorphism, n: int) -> Automorphism:
    """phi^n, negative n giving powers of the inverse; an inner phi has unit
    u^n, taken by binary powering on the unit's integer vector, u^-1 being
    conj(u) up to a real scalar."""
    if phi.action == "identity":
        return phi
    if phi.action == "conj":
        return phi if n % 2 else identity(phi.kind)
    w, x, y, z = phi.unit.num
    step = (w, x, y, z) if n >= 0 else (w, -x, -y, -z)
    un = (1, 0, 0, 0)
    for bit in bin(abs(n))[2:]:
        un = _hamilton(un, un)
        if bit == "1":
            un = _hamilton(un, step)
    return inner(_make(QUATERNION, un, 1))


def apply_power(phi: Automorphism, n: int, a: AlgebraElement) -> AlgebraElement:
    """Apply phi n times; negative n applies the inverse automorphism."""
    return apply(power(phi, n), a)


def galois_order(phi: Automorphism) -> int:
    """Order of the automorphism's class in Aut(D)/Inn(D) = Gal(Z-fixed data).

    Identity is trivial; conjugation on C has order two; every inner
    automorphism of H is trivial in the quotient.
    """
    if phi.action == "identity":
        return 1
    if phi.action == "conj":
        return 2
    if phi.action == "inner":
        return 1
    raise DomainError(f"unknown automorphism action {phi.action!r}")
