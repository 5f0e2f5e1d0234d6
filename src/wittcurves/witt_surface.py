"""Topological models of real curves: Klein surfaces and their signed variants.

A curve over the reals is encoded by its Weichold triple (g, t, s): genus of
the complex double, number of ovals, and whether the complement of the real
locus is connected. The noncommutative ("Witt") variants additionally colour
the real locus: every oval is either a whole real oval (+), a whole
quaternion oval (-), or is cut into an even number of segments of
alternating sign. Commutative curves carry no minus signs at all.

All invariants down the line (constants field, genus of the function field,
Euler characteristics) are computed from this combinatorial data alone, by
surface_numerics, which reads a surface once; this is the only module that
reads the topology and the ovals of a surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .algebra import COMPLEX, QUATERNION, REAL, DivisionAlgebraKind
from .errors import InvariantViolation, ValidationError, require_ints

PLUS = "+"
MINUS = "-"


@dataclass(frozen=True, slots=True)
class KleinTopology:
    """Weichold triple (g, t, s) of a real curve."""

    g: int
    t: int
    s: int


@dataclass(frozen=True, slots=True)
class Oval:
    """One oval: either a whole signed circle or an even alternating cycle of segments."""

    segments: tuple[str, ...] = ()
    sign: str | None = None

    def __post_init__(self):
        if self.segments and self.sign is not None:
            raise ValidationError("an oval is segmented or whole, not both", code="oval-shape")
        if not self.segments and self.sign is None:
            raise ValidationError("an unsegmented oval needs a sign", code="oval-shape")
        for s in self.segments if self.segments else (self.sign,):
            if s not in (PLUS, MINUS):
                raise ValidationError(f"invalid sign {s!r}", code="oval-shape")

    @property
    def segmented(self) -> bool:
        return bool(self.segments)


def whole_oval(sign: str) -> Oval:
    return Oval(sign=sign)


def segmented_oval(*signs: str) -> Oval:
    return Oval(segments=tuple(signs))


@dataclass(frozen=True, slots=True)
class WittSurface:
    topology: KleinTopology
    ovals: tuple[Oval, ...]
    commutative: bool

    def __post_init__(self):
        object.__setattr__(self, "ovals", tuple(self.ovals))


@dataclass(frozen=True, slots=True)
class ComplexCentreBase:
    """A curve whose field of constants is C itself, not a real form.

    The zoos mix these with the real surfaces, so they share the same
    invariant accessors; topologically they are plain Riemann surfaces
    and carry no ovals.
    """

    genus: int


class SurfaceCounts(NamedTuple):
    m: int  # half the total number of segmentation points
    r: int  # whole real ovals
    q: int  # whole quaternion ovals


class SurfaceNumerics(NamedTuple):
    """Every invariant of a surface, as surface_numerics reads it once."""

    constants: DivisionAlgebraKind  # field of constants of the function field
    kappa: int  # its dimension over the ground field of the curve
    epsilon: int
    skewness: int
    genus: int  # of the function field, upstairs
    centre: str  # field of the centre curve: "R" or "C"
    centre_genus: int
    ovals: int | None  # None over C
    chi: Fraction
    chi_prime: Fraction


# ---------------------------------------------------------------------------
# Validation

def validate(w: WittSurface | ComplexCentreBase) -> None:
    """Check realizability; raises ValidationError with a stable code."""
    if isinstance(w, ComplexCentreBase):
        require_ints(genus=w.genus)
        if w.genus < 0:
            raise ValidationError("genus must be nonnegative", code="weichold")
        return
    g, t, s = w.topology.g, w.topology.t, w.topology.s
    require_ints(g=g, t=t, s=s)
    if g < 0 or t < 0 or s not in (0, 1):
        raise ValidationError("topology entries out of range", code="weichold")
    if len(w.ovals) != t:
        raise ValidationError(f"expected {t} ovals, got {len(w.ovals)}", code="oval-count")
    weichold_ok = (s == 0 and t <= g) or (s == 1 and t % 2 == (g + 1) % 2 and 1 <= t <= g + 1)
    if not weichold_ok:
        raise ValidationError(f"(g={g}, t={t}, s={s}) is not realizable", code="weichold")
    for oval in w.ovals:
        if not oval.segmented:
            continue
        k = len(oval.segments)
        if k % 2 != 0:
            raise ValidationError("segment count per oval must be even", code="odd-segments")
        if any(oval.segments[i] == oval.segments[(i + 1) % k] for i in range(k)):
            raise ValidationError("segment signs must alternate around the oval", code="non-alternating")
    has_minus = bool(signed_ovals(w, MINUS))
    if w.commutative:
        if has_minus:
            raise ValidationError("a commutative curve carries no quaternion locus", code="minus-on-commutative")
        return
    surface_numerics(w)  # raises negative-genus
    if not has_minus:
        raise ValidationError(
            "a noncommutative curve needs a quaternion segment or oval",
            code="positive-definite",
        )


# ---------------------------------------------------------------------------
# Invariants

def counts(w: WittSurface | ComplexCentreBase) -> SurfaceCounts:
    if isinstance(w, ComplexCentreBase):
        return SurfaceCounts(0, 0, 0)
    n = sum(len(oval.segments) for oval in w.ovals)
    r = sum(1 for oval in w.ovals if oval.sign == PLUS)
    q = sum(1 for oval in w.ovals if oval.sign == MINUS)
    return SurfaceCounts(n // 2, r, q)


def segmentation_points(w: WittSurface | ComplexCentreBase) -> tuple[tuple[int, int], ...]:
    """(oval, segment) of every segmentation point, oval by oval."""
    if isinstance(w, ComplexCentreBase):
        return ()
    return tuple((oi, si) for oi, oval in enumerate(w.ovals) for si in range(len(oval.segments)))


def signed_ovals(w: WittSurface, sign: str) -> tuple[int, ...]:
    """Index of every oval that carries the sign, whole or on a segment."""
    return tuple(i for i, oval in enumerate(w.ovals) if oval.sign == sign or sign in oval.segments)


def surface_numerics(w: WittSurface | ComplexCentreBase) -> SurfaceNumerics:
    """Read every invariant of a surface, counting its ovals once.

    The genus of the function field comes from the Hurwitz count, and
    chi = kappa (1 - genus upstairs), chi' = chi / s^2 are cross-checked
    against the downstairs count (1 - g) - m/2, compared on integers as
    2 kappa (1 - genus upstairs) = s^2 (2(1 - g) - m); the two must agree
    for every valid surface.
    """
    if isinstance(w, ComplexCentreBase):
        # such a curve lives over its own constants field, so the constants
        # contribute dimension 1, not [C:R]
        chi = Fraction(1 - w.genus)
        return SurfaceNumerics(COMPLEX, 1, 1, 1, w.genus, "C", w.genus, None, chi, chi)
    g, t = w.topology.g, w.topology.t
    m, r, _ = counts(w)
    # epsilon is 2 exactly when no rational section of odd degree exists: a
    # commutative curve with empty real locus, or a noncommutative one whose
    # ovals are whole and not all quaternion
    if w.commutative:
        constants, s, upstairs, epsilon = REAL, 1, g, 2 if t == 0 else 1
    elif m > 0 or r > 0:
        constants, s, upstairs, epsilon = COMPLEX, 2, 2 * g - 1 + m, 2 if m == 0 else 1
        if upstairs < 0:
            message = "no segmentation, a real oval and genus 0 force a negative genus upstairs"
            raise ValidationError(message, code="negative-genus")
    else:
        constants, s, upstairs, epsilon = QUATERNION, 2, g, 1
    kappa = constants.dim_over_k
    chi = kappa * (1 - upstairs)
    downstairs = 2 * (1 - g) - m
    if 2 * chi != s * s * downstairs:
        raise InvariantViolation(
            f"normalized characteristic {Fraction(chi, s * s)} "
            f"!= downstairs count {Fraction(downstairs, 2)}"
        )
    return SurfaceNumerics(constants, kappa, epsilon, s, upstairs, "R", g, t, Fraction(chi), Fraction(chi, s * s))


def surface_skewness(w: WittSurface | ComplexCentreBase) -> int:
    return surface_numerics(w).skewness


def constants_field(w: WittSurface | ComplexCentreBase) -> DivisionAlgebraKind:
    """Field of constants of the function field (over R, or C for the degenerate bases)."""
    return surface_numerics(w).constants


def genus(w: WittSurface | ComplexCentreBase) -> int:
    """Genus of the function field (the curve upstairs), by the Hurwitz count."""
    return surface_numerics(w).genus


def euler_characteristics(w: WittSurface | ComplexCentreBase) -> tuple[Fraction, Fraction]:
    """(chi, chi') with chi = kappa(1 - genus upstairs) and chi' = chi/s^2."""
    n = surface_numerics(w)
    return n.chi, n.chi_prime


# ---------------------------------------------------------------------------
# Catalog

def _klein(g, t, s, *ovals):
    return WittSurface(KleinTopology(g, t, s), tuple(ovals), commutative=True)

def _witt(g, t, s, *ovals):
    return WittSurface(KleinTopology(g, t, s), tuple(ovals), commutative=False)


_CATALOG: dict[str, WittSurface | ComplexCentreBase] = {
    # commutative
    "D": _klein(0, 1, 1, whole_oval(PLUS)),
    "RP2": _klein(0, 0, 0),
    "A": _klein(1, 2, 1, whole_oval(PLUS), whole_oval(PLUS)),
    "M": _klein(1, 1, 0, whole_oval(PLUS)),
    "K": _klein(1, 0, 0),
    # genus zero upstairs
    "D_H": _witt(0, 1, 1, whole_oval(MINUS)),
    "D_22": _witt(0, 1, 1, segmented_oval(PLUS, MINUS)),
    # genus one upstairs
    "A_RH": _witt(1, 2, 1, whole_oval(PLUS), whole_oval(MINUS)),
    "A_HH": _witt(1, 2, 1, whole_oval(MINUS), whole_oval(MINUS)),
    "M_H": _witt(1, 1, 0, whole_oval(MINUS)),
    "D_2222": _witt(0, 1, 1, segmented_oval(PLUS, MINUS, PLUS, MINUS)),
    # complex-centre bases
    "S2_C": ComplexCentreBase(0),
    "T_C": ComplexCentreBase(1),
}

CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str) -> WittSurface | ComplexCentreBase:
    try:
        return _CATALOG[name]
    except KeyError:
        raise ValidationError(f"unknown catalog name {name!r}", code="unknown-name") from None


# ---------------------------------------------------------------------------
# Comparison up to symmetry

def _oval_key(oval: Oval):
    if not oval.segmented:
        return (0, oval.sign)
    segs = oval.segments
    k = len(segs)
    rotations = [segs[i:] + segs[:i] for i in range(k)]
    flipped = segs[::-1]
    rotations += [flipped[i:] + flipped[:i] for i in range(k)]
    return (1, min(rotations))


def canonical_key(w: WittSurface | ComplexCentreBase):
    """Hashable key identifying a surface up to oval reordering and
    rotation/reflection of each segment cycle."""
    if isinstance(w, ComplexCentreBase):
        return ("C", w.genus)
    return (
        "R",
        w.topology.g,
        w.topology.t,
        w.topology.s,
        w.commutative,
        tuple(sorted(_oval_key(o) for o in w.ovals)),
    )
