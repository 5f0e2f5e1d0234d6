"""Topological models of real curves: Klein surfaces and their signed variants.

A curve over the reals is encoded by its Weichold triple (g, t, s): genus of
the complex double, number of ovals, and whether the complement of the real
locus is connected. The noncommutative ("Witt") variants additionally colour
the real locus: every oval is either a whole real oval (+), a whole
quaternion oval (-), or is cut into an even number of segments of
alternating sign. Commutative curves carry no minus signs at all.

All invariants down the line (constants field, genus of the function field,
Euler characteristics) are computed from this combinatorial data alone, by
read_base, the one reader of a base: it checks that a base exists and
reads it into the _Reading that every view reads and that answers the
placement questions of a curve. On a surface it walks the ovals twice:
one loop checks each cut oval and gathers the segmentation points, and
counts reads (m, r, q) in one loop of its own. A surface keeps its reading
on its first read; a complex-centre base is read afresh. Only this module
reads the topology and the ovals of a surface, and only read_base the
reading a surface keeps. The genus of a base is held to MAX_ORDER_LCM,
the ceiling weighted_curve holds the lcm of the point orders of a curve
to, so every Euler characteristic of a curve prints; read_base builds
each of its Fractions from an int pair by algebra._rational.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat

from .algebra import COMPLEX, QUATERNION, REAL, DivisionAlgebraKind, _rational
from .errors import (
    FrozenRecord,
    InvariantViolation,
    Record,
    ValidationError,
    _tuple_new,
    require_ints,
    require_sequence,
)

PLUS = "+"
MINUS = "-"

# The largest genus g of a base, and the largest lcm of the point orders
# p * e_tau of a weighted curve, which weighted_curve reads from here. pbar
# and the lcm of the e_tau divide that lcm, and the denominator of chi'_orb
# divides twice it over a surface; the numerator and denominator of an
# abstract chi_x, and its s and kappa, are held to it too. So chi'_orb has
# at most about 200 digits however large the base or however many points a
# curve has, and every answer prints as JSON.
MAX_ORDER_LCM = 10**100


class KleinTopology(Record):
    """Weichold triple (g, t, s) of a real curve."""

    __slots__ = ()

    def __new__(cls, g, t, s):
        return _tuple_new(cls, (g, t, s))


class Oval(FrozenRecord):
    """One oval: either a whole signed circle or an even alternating cycle of segments."""

    __slots__ = _fields = ("segments", "sign")

    def __init__(self, segments: tuple[str, ...] = (), sign: str | None = None):
        if segments.__class__ is not tuple:
            segments = require_sequence(segments, "the segments", "oval-shape")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "sign", sign)
        if segments and sign is not None:
            raise ValidationError("an oval is segmented or whole, not both", code="oval-shape")
        if not segments and sign is None:
            raise ValidationError("an unsegmented oval needs a sign", code="oval-shape")
        for s in segments if segments else (sign,):
            if s not in (PLUS, MINUS):
                raise ValidationError(f"invalid sign {s!r}", code="oval-shape")


def whole_oval(sign: str) -> Oval:
    return Oval(sign=sign)


def segmented_oval(*signs: str) -> Oval:
    return Oval(segments=tuple(signs))


class WittSurface(FrozenRecord):
    """A Klein topology with its ovals, commutative or not.

    The first read_base of a surface that exists keeps its _Reading in
    ``_reading``, and every later read of the same object returns it.
    The fields are immutable and the checks are pure functions of them,
    so reading once per object loses no check. A surface that fails its
    check keeps nothing and raises again on every read. The reading is
    no field, so it takes no part in equality, hash, repr or pickling;
    _replace, copies and unpickling build the surface again, and the new
    object reads again.
    """

    _fields = ("topology", "ovals", "commutative")
    __slots__ = (*_fields, "_reading")

    def __init__(self, topology: KleinTopology, ovals: tuple[Oval, ...], commutative: bool):
        if ovals.__class__ is not tuple:
            ovals = require_sequence(ovals, "the ovals", "oval-shape")
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "ovals", ovals)
        object.__setattr__(self, "commutative", commutative)
        object.__setattr__(self, "_reading", None)
        if not isinstance(topology, KleinTopology):
            raise ValidationError(
                f"a topology must be a KleinTopology, got {type(topology).__name__}", code="topology"
            )
        for oval in ovals:
            if not isinstance(oval, Oval):
                raise ValidationError(
                    f"an oval must be an Oval, got {type(oval).__name__}", code="oval-shape"
                )


class ComplexCentreBase(Record):
    """A curve whose field of constants is C itself, not a real form.

    The zoos mix these with the real surfaces, so they share the same
    invariant accessors; topologically they are plain Riemann surfaces
    and carry no ovals.
    """

    __slots__ = ()

    def __new__(cls, genus):
        return _tuple_new(cls, (genus,))


class SurfaceCounts(Record):
    """m: half the total number of segmentation points;
    r: whole real ovals;
    q: whole quaternion ovals."""

    __slots__ = ()

    def __new__(cls, m, r, q):
        return _tuple_new(cls, (m, r, q))


class BaseNumerics(Record):
    """Every numerical invariant of a curve's base, read once by its check:
    read_base reads a surface or a complex-centre base, and weighted_curve
    an abstract base, which gives kappa, epsilon, skewness, centre_genus
    (None if unknown), chi_centre and chi_prime, and None for the fields
    of a surface.

    constants: the DivisionAlgebraKind of the field of constants of the
    function field, or None; kappa: its dimension over the ground field of
    the curve; genus: of the function field, upstairs, or None; centre:
    the field of the centre curve, "R" or "C", or None; ovals: None over
    C; chi: a Fraction or None; chi_centre: of the centre curve;
    chi_prime: normalized, of the non-weighted curve.
    """

    __slots__ = ()

    def __new__(
        cls, constants, kappa, epsilon, skewness, genus, centre, centre_genus, ovals, chi, chi_centre, chi_prime
    ):
        return _tuple_new(
            cls, (constants, kappa, epsilon, skewness, genus, centre, centre_genus, ovals, chi, chi_centre, chi_prime)
        )


class _Reading(Record):
    """What read_base reads off a base, kept by a surface, and the two
    questions that validation of a placement asks of it, each in
    constant time.

    numerics: the BaseNumerics; counts: the SurfaceCounts; points: the
    (oval, segment) of each segmentation point; ovals: the Ovals.
    """

    __slots__ = ()

    def __new__(cls, numerics, counts, points, ovals):
        return _tuple_new(cls, (numerics, counts, points, ovals))

    def is_segmentation_point(self, oval: int, segment: int) -> bool:
        """Whether (oval, segment) is a segmentation point, by the index bounds."""
        ovals = self.ovals
        return 0 <= oval < len(ovals) and 0 <= segment < len(ovals[oval].segments)

    def carries_sign(self, sign: str, oval: int | None = None) -> bool:
        """Whether the oval of that index, or any oval if none is named,
        carries the sign, whole or on a segment. A cut oval of a surface that
        exists alternates, so it carries both; any oval is read off the counts."""
        if oval is None:
            m, r, q = self.counts
            return bool(m or (r if sign == PLUS else q))
        ovals = self.ovals
        return 0 <= oval < len(ovals) and (ovals[oval].sign == sign or bool(ovals[oval].segments))


# ---------------------------------------------------------------------------
# Checking and reading

def _complex_centre(w) -> bool:
    """Whether a base that is no plain WittSurface is a complex-centre base;
    anything but a base raises ValidationError (code "base")."""
    if not isinstance(w, (WittSurface, ComplexCentreBase)):
        raise ValidationError(
            f"a curve base must be a surface or an abstract base, got {type(w).__name__}", code="base"
        )
    return isinstance(w, ComplexCentreBase)


def counts(w: WittSurface | ComplexCentreBase) -> SurfaceCounts:
    """The SurfaceCounts of a base, in one walk of the ovals of a surface;
    anything but a base raises ValidationError (code "base")."""
    if w.__class__ is not WittSurface and _complex_centre(w):
        return SurfaceCounts(0, 0, 0)
    n = r = q = 0
    for oval in w.ovals:
        if segments := oval.segments:
            n += len(segments)
        elif oval.sign == PLUS:
            r += 1
        else:
            q += 1
    return SurfaceCounts(n // 2, r, q)


def read_base(w: WittSurface | ComplexCentreBase) -> _Reading:
    """Check that a base exists and read every invariant of it; a base
    that cannot exist raises ValidationError with a stable code. The
    ovals of a surface are walked twice: once to check each cut oval, in
    oval order, and gather its segmentation points, and once by a single
    call of counts.

    The genus of the function field comes from the Hurwitz count, and
    chi = kappa (1 - genus upstairs), chi' = chi / s^2 are cross-checked
    against the downstairs count (1 - g) - m/2, compared on integers as
    2 kappa (1 - genus upstairs) = s^2 (2(1 - g) - m); the two must agree
    for every valid surface. A genus above MAX_ORDER_LCM, of a surface or
    of a complex-centre base, is refused with code "too-large". The first
    read of a surface object keeps what it read, and later reads return
    it; a complex-centre base has no ovals and is read afresh each time.
    Anything but a surface or a complex-centre base raises ValidationError
    (code "base").
    """
    # a plain surface, the common case, is told by its class alone
    if w.__class__ is not WittSurface and _complex_centre(w):
        if w.genus.__class__ is not int:
            require_ints(genus=w.genus)
        if w.genus < 0:
            raise ValidationError("genus must be nonnegative", code="weichold")
        if w.genus > MAX_ORDER_LCM:
            raise ValidationError("the genus is above MAX_ORDER_LCM", code="too-large")
        # such a curve lives over its own constants field, so the constants
        # contribute dimension 1, not [C:R]
        chi = _rational(1 - w.genus, 1)
        numerics = BaseNumerics(COMPLEX, 1, 1, 1, w.genus, "C", w.genus, None, chi, chi, chi)
        return _Reading(numerics, SurfaceCounts(0, 0, 0), (), ())
    if w._reading is not None:
        return w._reading
    g, t, flag = w.topology
    # plain ints pass here; anything else, an int subclass too, goes to the full check
    if not (g.__class__ is int and t.__class__ is int and flag.__class__ is int):
        require_ints(g=g, t=t, s=flag)
    if g < 0 or t < 0 or flag not in (0, 1):
        raise ValidationError("topology entries out of range", code="weichold")
    if g > MAX_ORDER_LCM:
        raise ValidationError("the genus g is above MAX_ORDER_LCM", code="too-large")
    if len(w.ovals) != t:
        raise ValidationError(f"expected {t} ovals, got {len(w.ovals)}", code="oval-count")
    weichold_ok = (flag == 0 and t <= g) or (flag == 1 and t % 2 == (g + 1) % 2 and 1 <= t <= g + 1)
    if not weichold_ok:
        raise ValidationError(f"(g={g}, t={t}, s={flag}) is not realizable", code="weichold")
    # one walk checks each cut oval, in oval order, and gathers its
    # segmentation points (oval, segment)
    points: list[tuple[int, int]] = []
    for oi, oval in enumerate(w.ovals):
        if segs := oval.segments:
            k = len(segs)
            if k % 2 != 0:
                raise ValidationError("segment count per oval must be even", code="odd-segments")
            # of signs + and -, an even cycle alternates iff it repeats two that differ
            if segs[0] == segs[1] or segs != segs[:2] * (k // 2):
                raise ValidationError("segment signs must alternate around the oval", code="non-alternating")
            points += zip(repeat(oi), range(k))
    # a segmented oval that passed the checks above carries both signs, so
    # the surface has a quaternion locus exactly when m or q is nonzero;
    # epsilon is 2 exactly when no rational section of odd degree exists: a
    # commutative curve with empty real locus, or a noncommutative one whose
    # ovals are whole and not all quaternion
    m, r, q = surface_counts = counts(w)
    if w.commutative:
        if m or q:
            raise ValidationError("a commutative curve carries no quaternion locus", code="minus-on-commutative")
        constants, s, upstairs, epsilon = REAL, 1, g, 2 if t == 0 else 1
    else:
        if m or r:
            constants, s, upstairs, epsilon = COMPLEX, 2, 2 * g - 1 + m, 2 if m == 0 else 1
            if upstairs < 0:
                message = "no segmentation, a real oval and genus 0 force a negative genus upstairs"
                raise ValidationError(message, code="negative-genus")
        else:
            constants, s, upstairs, epsilon = QUATERNION, 2, g, 1
        if not (m or q):
            raise ValidationError(
                "a noncommutative curve needs a quaternion segment or oval",
                code="positive-definite",
            )
    kappa = constants.dim_over_k
    chi = kappa * (1 - upstairs)
    downstairs = 2 * (1 - g) - m
    if 2 * chi != s * s * downstairs:
        raise InvariantViolation(
            f"normalized characteristic {Fraction(chi, s * s)} "
            f"!= downstairs count {Fraction(downstairs, 2)}"
        )
    numerics = BaseNumerics(
        constants, kappa, epsilon, s, upstairs, "R", g, t, _rational(chi, 1), _rational(1 - g, 1), _rational(chi, s * s)
    )
    reading = _Reading(numerics, surface_counts, tuple(points), w.ovals)
    object.__setattr__(w, "_reading", reading)
    return reading


def surface_numerics(w: WittSurface | ComplexCentreBase) -> BaseNumerics:
    """The BaseNumerics of a base, as read_base reads them."""
    return read_base(w).numerics


def validate(w: WittSurface | ComplexCentreBase) -> BaseNumerics:
    """Check realizability, as read_base does, and return the numerics
    the check read; raises ValidationError with a stable code."""
    return surface_numerics(w)


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

def _surface(g, t, s, *ovals, commutative=False):
    return WittSurface(KleinTopology(g, t, s), ovals, commutative)


_CATALOG: dict[str, WittSurface | ComplexCentreBase] = {
    # commutative
    "D": _surface(0, 1, 1, whole_oval(PLUS), commutative=True),
    "RP2": _surface(0, 0, 0, commutative=True),
    "A": _surface(1, 2, 1, whole_oval(PLUS), whole_oval(PLUS), commutative=True),
    "M": _surface(1, 1, 0, whole_oval(PLUS), commutative=True),
    "K": _surface(1, 0, 0, commutative=True),
    # genus zero upstairs
    "D_H": _surface(0, 1, 1, whole_oval(MINUS)),
    "D_22": _surface(0, 1, 1, segmented_oval(PLUS, MINUS)),
    # genus one upstairs
    "A_RH": _surface(1, 2, 1, whole_oval(PLUS), whole_oval(MINUS)),
    "A_HH": _surface(1, 2, 1, whole_oval(MINUS), whole_oval(MINUS)),
    "M_H": _surface(1, 1, 0, whole_oval(MINUS)),
    "D_2222": _surface(0, 1, 1, segmented_oval(PLUS, MINUS, PLUS, MINUS)),
    # complex-centre bases
    "S2_C": ComplexCentreBase(0),
    "T_C": ComplexCentreBase(1),
}

CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str) -> WittSurface | ComplexCentreBase:
    try:
        return _CATALOG[name]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown catalog name {name!r}", code="unknown-name") from None


# ---------------------------------------------------------------------------
# Comparison up to symmetry

def canonical_key(w: WittSurface | ComplexCentreBase):
    """Hashable key identifying a surface up to oval reordering and
    rotation/reflection of each segment cycle. The surface is read first,
    so one that cannot exist raises ValidationError; a cut oval of one that
    exists alternates, so its length alone keys it."""
    if read_base(w).numerics.centre == "C":
        return ("C", w.genus)
    ovals = sorted((1, len(o.segments)) if o.segments else (0, o.sign) for o in w.ovals)
    return ("R", *w.topology, w.commutative, tuple(ovals))
