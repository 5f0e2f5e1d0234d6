"""Exact arithmetic in the real division algebras and their automorphisms.

Elements of R, C and H carry rational coefficients over the bases {1},
{1, i} and {1, i, j, ij}, with the defining relations i^2 = -1 = j^2 and
ij = -ji. All arithmetic is exact; nothing in this package ever rounds.

Division algebras over other base fields (finite fields, number fields)
appear only through their dimension data, as ``abstract_kind`` descriptors
without element arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True, slots=True)
class AlgebraElement:
    """An element of R, C or H with rational coefficients."""

    kind: DivisionAlgebraKind
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.kind not in BUILTIN_KINDS:
            raise KindMismatchError("element arithmetic exists only for R, C, H")
        if len(self.coeffs) != self.kind.dim_over_k:
            raise KindMismatchError(
                f"{self.kind.display_name} needs {self.kind.dim_over_k} coefficients, "
                f"got {len(self.coeffs)}"
            )

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _require_same_kind(self, other)
        return AlgebraElement(self.kind, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.kind, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgebraElement(self.kind, tuple(a * other for a in self.coeffs))
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _require_same_kind(self, other)
        a, b = self.coeffs, other.coeffs
        if self.kind is REAL:
            return AlgebraElement(REAL, (a[0] * b[0],))
        if self.kind is COMPLEX:
            return AlgebraElement(
                COMPLEX, (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
            )
        # Hamilton product over 1, i, j, k with k = ij.
        return AlgebraElement(
            QUATERNION,
            (
                a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
                a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
                a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
                a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0],
            ),
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    # -- involution and norm -----------------------------------------------

    def conjugate(self) -> "AlgebraElement":
        """Standard involution: fixes the real part, negates the rest."""
        return AlgebraElement(
            self.kind, (self.coeffs[0],) + tuple(-c for c in self.coeffs[1:])
        )

    def norm(self) -> Fraction:
        """Multiplicative norm (a * conj(a); a sum of squares, zero only at zero)."""
        return sum((c * c for c in self.coeffs), Fraction(0))

    def inverse(self) -> "AlgebraElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero has no inverse")
        return AlgebraElement(self.kind, tuple(c / n for c in self.conjugate().coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        names = {1: [""], 2: ["", "i"], 4: ["", "i", "j", "k"]}[len(self.coeffs)]
        parts = []
        for c, n in zip(self.coeffs, names):
            if c == 0:
                continue
            term = f"{abs(c)}{n}" if (not n or abs(c) != 1) else n
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts) if parts else "0"


def _require_same_kind(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.kind is not b.kind:
        raise KindMismatchError(
            f"mixed kinds: {a.kind.display_name} and {b.kind.display_name}"
        )


def element(kind: DivisionAlgebraKind, *coeffs) -> AlgebraElement:
    return AlgebraElement(kind, tuple(Fraction(c) for c in coeffs))


def real(x) -> AlgebraElement:
    return element(REAL, x)


def cplx(re, im=0) -> AlgebraElement:
    return element(COMPLEX, re, im)


def quat(a, b=0, c=0, d=0) -> AlgebraElement:
    return element(QUATERNION, a, b, c, d)


def zero(kind: DivisionAlgebraKind) -> AlgebraElement:
    return AlgebraElement(kind, (Fraction(0),) * kind.dim_over_k)


def one(kind: DivisionAlgebraKind) -> AlgebraElement:
    return AlgebraElement(kind, (Fraction(1),) + (Fraction(0),) * (kind.dim_over_k - 1))


def basis(kind: DivisionAlgebraKind) -> tuple[AlgebraElement, ...]:
    """The standard basis 1, i, j, k truncated to the algebra's dimension."""
    out = []
    for pos in range(kind.dim_over_k):
        coeffs = [Fraction(0)] * kind.dim_over_k
        coeffs[pos] = Fraction(1)
        out.append(AlgebraElement(kind, tuple(coeffs)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Automorphisms


def _normalize_unit(unit: AlgebraElement) -> AlgebraElement:
    """Scale an inner-automorphism unit to a primitive integer vector.

    Units are only meaningful up to central (real) scaling, so a canonical
    representative makes equality of automorphisms decidable.
    """
    if unit.kind is not QUATERNION:
        raise KindMismatchError("inner automorphisms are registered only on H")
    if unit.is_zero():
        raise ZeroDivisionError("inner automorphism needs an invertible unit")
    denom_lcm = math.lcm(*(c.denominator for c in unit.coeffs))
    ints = [int(c * denom_lcm) for c in unit.coeffs]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return AlgebraElement(unit.kind, tuple(Fraction(v) for v in ints))


def _inner_rotation(unit: AlgebraElement) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of the matrix of a -> u^-1 a u on the i, j, k coordinates.

    For a normalised unit u = w + xi + yj + zk of norm N this is the
    rotation by conj(u) / N, the transpose of the one by u.
    """
    w, x, y, z = (int(c) for c in unit.coeffs)
    norm = w * w + x * x + y * y + z * z
    rows = (
        (w * w + x * x - y * y - z * z, 2 * (x * y + w * z), 2 * (x * z - w * y)),
        (2 * (x * y - w * z), w * w - x * x + y * y - z * z, 2 * (y * z + w * x)),
        (2 * (x * z + w * y), 2 * (y * z - w * x), w * w - x * x - y * y + z * z),
    )
    return tuple(tuple(Fraction(v, norm) for v in row) for row in rows)


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
    # by an exact rational 3 x 3 matrix, held here row by row. It is
    # derived from the unit, so it takes no part in equality, hash or repr.
    rotation: tuple[tuple[Fraction, ...], ...] | None = field(
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
    c = a.coeffs
    return AlgebraElement(
        QUATERNION,
        (c[0],) + tuple(r[0] * c[1] + r[1] * c[2] + r[2] * c[3] for r in phi.rotation),
    )


def power(phi: Automorphism, n: int) -> Automorphism:
    """phi^n, negative n giving powers of the inverse; an inner phi has unit
    u^n by binary powering, u^-1 being conj(u) up to a real scalar."""
    if phi.action == "identity":
        return phi
    if phi.action == "conj":
        return phi if n % 2 else identity(phi.kind)
    step = phi.unit if n >= 0 else phi.unit.conjugate()
    un = one(QUATERNION)
    for bit in bin(abs(n))[2:]:
        un = un * un
        if bit == "1":
            un = un * step
    return inner(un)


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
