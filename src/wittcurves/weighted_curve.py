"""Weighted curves: orbifold Euler characteristics, classification, Picard data.

A weighted curve is a base (a real surface from witt_surface, a complex
base, or an explicit abstract record for other ground fields) together with
weight insertions p >= 2 at chosen points. Every numerical invariant is
driven by the shapes of its points: each point contributes through its
weight p, its ramification index e_tau, and its residue degree f, never
through a label.

A WeightedCurve checks itself when built, and the check reads each list
of the curve in as few passes as it can, and builds no labelled point:

- the base, by one call to witt_surface.read_base for a surface or a
  complex-centre base; an abstract base is checked here, with its point
  records in one loop that gathers the shape (kind, e_tau, f, p), the
  weight and the order p * e_tau of each point with an order above 1,
  and its numerics s, kappa and epsilon skip the keyword checks
  require_positive and require_ints when they are plain ints in range and
  the centre genus is None or a plain int;
- the weights of a surface base, in one loop that checks each record,
  asks the reading where it may sit, and gathers its shape, its weight
  and its order and adds up the vector length the weighted points give;
  the segmentation points of the reading that carry no weight, the bare
  ones, are counted, not walked;
- so on either kind of base both ceilings are held on what one loop
  gathered and that count, before any route is summed, each compared in
  place, with its refusal called only to raise; an abstract base then
  walks its shapes once more, to sum its chi' over the lcm of the orders;
- the shapes, once, when the CurveProfile is built: one walk sums every
  chi'_orb route and gathers the vector, and the bare segmentation points
  are added in closed form after it.

What the check read is the curve's CurveProfile, kept in curve.profile:
the shapes and the count of bare segmentation points, the lcm weight
pbar, the lcm of the orders, the BaseNumerics of the base, and chi'_orb
and the weight-ramification vector, which the profile derives when it is
built. A surface keeps the reading of its first read_base, so a second
curve on it reads nothing of it again; nothing here reads the ovals or
topology of a surface. Every numerical invariant is a view of the
profile, and a report reads all of its entries from it; the class of a
curve and the order of tau are read off the sign of the int numerator of
chi'_orb, through its slot, with no Fraction comparison. The labelled
points, which only tau_exponents and tau_word read, are built on request
by effective_points from the curve's own fields.

The normalized orbifold Euler characteristic is computed by three
independent routes (the general formula over the centre, the split through
the non-weighted curve, and a Thurston-style count for real bases) which
must agree exactly; a fourth genus-zero route is checked where it applies.
Each of the three sums its point terms in an integer accumulator of its
own, as one numerator over the lcm of their denominators, giving an int
(numerator, denominator) pair; the genus-zero form's point terms are s^2
times the split's, term by term, so its sum is read off the split's once
the walk is done, over its own denominator and constants. The pairs are
compared by cross-multiplying, and one Fraction is built for the answer,
by algebra._rational from the pair, with no call of Fraction's Python
constructor. The chi' of an abstract base is summed and built the same
way. A profile runs the routes once, when it is built.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm

from .algebra import _rational
from .errors import (
    DomainError,
    KindMismatchError,
    FrozenRecord,
    InconsistentDataError,
    InvariantViolation,
    Record,
    ValidationError,
    _tuple_new,
    require_ints,
    require_positive,
    require_sequence,
)
from .local_data import COMPLEX_POINT, SHORT_NAMES, WittPointClass, witt_local_datum
from .witt_surface import (
    MAX_ORDER_LCM,
    MINUS,
    PLUS,
    BaseNumerics,
    ComplexCentreBase,
    WittSurface,
    _Reading,
    read_base,
)

# The largest e_tau, residue degree or weight a point may have. The
# weight-ramification vector repeats an entry residue-degree times, so
# larger values would cost unbounded memory; no curve of interest needs them.
MAX_POINT_VALUE = 10_000
# The most entries the weight-ramification vector of a curve may have: the
# sum of f over its points with weight * e_tau > 1. It is at least
# MAX_POINT_VALUE, so one abstract point of any allowed size fits. On a
# surface base f is 1 or 2, and the count of weights is refused above it
# before any weight is read.
MAX_VECTOR_LENGTH = MAX_POINT_VALUE

class CurveClass(enum.Enum):
    DOMESTIC = "domestic"
    ELLIPTIC = "elliptic"
    TUBULAR = "tubular"
    WILD = "wild"


# The members that the check and the class reading compare with, each read
# off its Enum once: on CPython 3.11 a read of a member off its class costs
# about as much as a small Python call.
_INNER, _REAL, _QUATERNION, _SEGMENTATION = (
    WittPointClass.INNER, WittPointClass.REAL_BOUNDARY, WittPointClass.QUATERNION_BOUNDARY, WittPointClass.SEGMENTATION
)
_DOMESTIC, _ELLIPTIC, _TUBULAR, _WILD = CurveClass.DOMESTIC, CurveClass.ELLIPTIC, CurveClass.TUBULAR, CurveClass.WILD


class WeightedPoint(Record):
    """A weight insertion: where it sits and the weight p >= 2. The
    location is a WittPointClass on a real surface base, or COMPLEX_POINT
    on a complex-centre base; anything else, the name of a class too, is
    refused with code "placement".

    For segmentation placements the (oval, segment) coordinates are
    mandatory so that collisions can be detected; boundary and inner
    placements name anonymous points and may repeat.
    """

    __slots__ = ()

    def __new__(cls, location, weight, oval=None, segment=None):
        return _tuple_new(cls, (location, weight, oval, segment))


class AbstractPoint(Record):
    """A closed point of an abstract base, weights baked in."""

    __slots__ = ()

    def __new__(cls, label, e_tau=1, residue_degree=1, weight=1):
        return _tuple_new(cls, (label, e_tau, residue_degree, weight))


class AbstractBase(Record):
    """Numerical stand-in for a curve over an arbitrary perfect field: chi_x
    a Fraction, points a tuple of AbstractPoints, centre_genus None if
    unknown."""

    __slots__ = ()

    def __new__(cls, chi_x, s, kappa, epsilon, points, centre_genus=None):
        return _tuple_new(cls, (chi_x, s, kappa, epsilon, points, centre_genus))


class EffectivePoint(Record):
    """A labelled point of a curve, as effective_points builds it on request."""

    __slots__ = ()

    def __new__(cls, label, kind, e_tau, residue_degree, weight):
        return _tuple_new(cls, (label, kind, e_tau, residue_degree, weight))


Base = WittSurface | ComplexCentreBase | AbstractBase


class WeightedCurve(FrozenRecord):
    """A base with weight insertions, checked on construction.

    The check reads the curve once, and what it read, the curve's
    CurveProfile, is kept in ``profile``. It is derived from the fields,
    so it is no field and takes no part in equality, hash or repr;
    _replace, copies and unpickling build the record again, through the
    check.
    """

    _fields = ("base", "points")
    __slots__ = (*_fields, "profile")

    def __init__(self, base: Base, points=()):
        if points.__class__ is not tuple:
            points = require_sequence(points, "the weights", "placement")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "points", points)
        self.__post_init__()

    def __post_init__(self):
        """Check the curve and keep what the check read, its profile."""
        base = self.base
        if isinstance(base, AbstractBase):
            if self.points:
                raise ValidationError(
                    "weights on an abstract base belong in its point records",
                    code="placement",
                )
            numerics, shapes, pbar, order_lcm = _validate_abstract(base)
            bare = 0
        else:
            # read_base refuses anything but a surface (code "base")
            reading = read_base(base)
            numerics = reading.numerics
            shapes, bare, pbar, order_lcm = _validate_weights(reading, self.points)
        object.__setattr__(self, "profile", CurveProfile(shapes, bare, pbar, order_lcm, numerics))


def _refuse_large_order_lcm(n: int) -> None:
    if n > MAX_ORDER_LCM:
        raise ValidationError("the lcm of the point orders p * e_tau is above MAX_ORDER_LCM", code="too-large")


def _refuse_long_vector(length: int) -> None:
    if length > MAX_VECTOR_LENGTH:
        raise ValidationError(
            f"the weight-ramification vector would have {length} entries, more than {MAX_VECTOR_LENGTH}",
            code="too-large",
        )


def _refuse_too_many_weights(count: int) -> None:
    """Each weight gives the weight-ramification vector an entry at least,
    a segmentation weight through its own point, so more weights than
    MAX_VECTOR_LENGTH are refused on their count, before any is read."""
    if count > MAX_VECTOR_LENGTH:
        message = f"{count} weights would give the weight-ramification vector more than {MAX_VECTOR_LENGTH} entries"
        raise ValidationError(message, code="too-large")


def _refuse_too_many_points(count: int) -> None:
    """More points than MAX_VECTOR_LENGTH are refused on their count, before any
    is read: a point with e_tau = f = p = 1 adds no entry to the vector."""
    if count > MAX_VECTOR_LENGTH:
        raise ValidationError(f"more than {MAX_VECTOR_LENGTH} points", code="too-large")


# label prefix, kind, e_tau and residue degree of the points of each class,
# which _validate_placement returns from its dispatch on the class
_INNER_SHAPE, _REAL_SHAPE, _QUATERNION_SHAPE, _SEGMENTATION_SHAPE = (
    (SHORT_NAMES[cls], cls.value, witt_local_datum(cls).e_tau, witt_local_datum(cls).residue_degree)
    for cls in (_INNER, _REAL, _QUATERNION, _SEGMENTATION)
)
_POINT_SHAPE = ("pt", COMPLEX_POINT, 1, 1)


def _validate_weights(reading: _Reading, weights) -> tuple[tuple[tuple, ...], int, int, int]:
    """Check the weights against the reading of a surface base, too many
    on their count first, then each in one loop, its record and then its
    placement, gathering its shape, its weight and its order p * e_tau;
    hold the weight-ramification vector to MAX_VECTOR_LENGTH and the lcm of
    the orders to MAX_ORDER_LCM, and return the shapes, the count of bare
    segmentation points, pbar and that lcm. A shape is the (kind, e_tau,
    residue degree, weight) of a weighted point, in the order of the
    weights: a point of a surface base takes e_tau and the residue degree
    from local_data, a plain point of a complex-centre base 1 and 1. A bare
    segmentation point is one with no weight; it is counted, not built.
    Every point has p * e_tau > 1, so each adds f entries to the vector."""
    # each ceiling is compared here, and its refusal called only to raise
    if len(weights) > MAX_VECTOR_LENGTH:
        _refuse_too_many_weights(len(weights))
    seg_weighted: set[tuple[int, int]] = set()
    shapes: list[tuple] = []
    ps: list[int] = []
    orders: list[int] = []
    # the length of the vector the weighted points give
    length = 0
    for wp in weights:
        if not isinstance(wp, WeightedPoint):
            raise ValidationError(
                f"a weight must be a WeightedPoint, got {type(wp).__name__}", code="placement"
            )
        location, p, oval, segment = wp.location, wp.weight, wp.oval, wp.segment
        # plain ints pass here; anything else, an int subclass too, goes to the full check
        if not (p.__class__ is int and (oval is None or oval.__class__ is int)
                and (segment is None or segment.__class__ is int)):
            require_ints(("oval", "segment"), weight=p, oval=oval, segment=segment)
        if p < 2:
            raise ValidationError("an inserted weight must be at least 2", code="weight")
        if p > MAX_POINT_VALUE:
            raise ValidationError(f"an inserted weight must be at most {MAX_POINT_VALUE}", code="too-large")
        _, kind, e_tau, f = _validate_placement(reading, wp)
        if location is _SEGMENTATION:
            if (key := (oval, segment)) in seg_weighted:
                raise ValidationError(
                    "two weights on the same segmentation point", code="duplicate-placement"
                )
            seg_weighted.add(key)
        shapes.append((kind, e_tau, f, p))
        ps.append(p)
        orders.append(p * e_tau)
        length += f
    _, _, e_tau, f = _SEGMENTATION_SHAPE
    # held before the profile is built: with e_tau = 2, each bare point is f
    # entries of the vector and has order e_tau
    bare = len(points := reading.points) - len(seg_weighted)
    if (total := f * bare + length) > MAX_VECTOR_LENGTH:
        _refuse_long_vector(total)
    order_lcm = lcm(e_tau if points else 1, *orders)
    if order_lcm > MAX_ORDER_LCM:
        _refuse_large_order_lcm(order_lcm)
    # each weight divides its order, so pbar divides the lcm
    return tuple(shapes), bare, lcm(*ps), order_lcm


def _validate_abstract(base: AbstractBase) -> tuple[BaseNumerics, tuple[tuple, ...], int, int]:
    """Check an abstract base, its points in one loop that also gathers
    the shapes, weights and orders p * e_tau of those with an order above
    1, and return its numerics, those shapes, pbar and the lcm of their
    orders. A point of order 1 adds nothing to any route or to the vector,
    so it leaves no shape. The weight-ramification vector and that lcm are
    held to their ceilings before chi' is summed from chi_x and the shapes'
    e_tau and residue degrees."""
    shapes: list[tuple] = []
    labels: set[str] = set()
    records = base.points
    if records.__class__ is not tuple:
        # effective_points reads the records again, which a one-shot iterator could not give
        if hasattr(records, "__next__"):
            raise ValidationError("the points of an abstract base must be a sequence, got an iterator", code="placement")
        records = require_sequence(records, "the points of an abstract base", "placement")
    # each ceiling is compared here, and its refusal called only to raise
    if len(records) > MAX_VECTOR_LENGTH:
        _refuse_too_many_points(len(records))
    ps: list[int] = []
    orders: list[int] = []
    # the length of the weight-ramification vector
    length = 0
    for pt in records:
        if not isinstance(pt, AbstractPoint):
            raise ValidationError(
                f"a point of an abstract base must be an AbstractPoint, got {type(pt).__name__}", code="placement"
            )
        label, e, f, p = pt.label, pt.e_tau, pt.residue_degree, pt.weight
        if not isinstance(label, str):
            raise ValidationError(f"a point label must be a string, got {label!r}", code="placement")
        if label in labels:
            raise ValidationError("abstract point labels must be unique", code="duplicate-placement")
        labels.add(label)
        # plain ints pass here; anything else, an int subclass too, goes to the full check
        if not (e.__class__ is int and f.__class__ is int and p.__class__ is int):
            require_ints(e_tau=e, residue_degree=f, weight=p)
        if e < 1 or f < 1 or p < 1:
            raise ValidationError(f"point {label} has a nonpositive entry", code="nonpositive")
        if e > MAX_POINT_VALUE or f > MAX_POINT_VALUE or p > MAX_POINT_VALUE:
            raise ValidationError(
                f"point {label} has an entry above {MAX_POINT_VALUE}", code="too-large"
            )
        if (o := p * e) > 1:
            shapes.append(("abstract", e, f, p))
            length += f
            ps.append(p)
            orders.append(o)
    s, kappa, epsilon, cg, chi_x = base.s, base.kappa, base.epsilon, base.centre_genus, base.chi_x
    # plain ints in range pass here; anything else, an int subclass too, goes to the full checks
    if not (s.__class__ is int and kappa.__class__ is int and epsilon.__class__ is int
            and 1 <= s <= MAX_ORDER_LCM and 1 <= kappa <= MAX_ORDER_LCM
            and 0 < epsilon < 3 and (cg is None or cg.__class__ is int)):
        require_positive(s=s, kappa=kappa, epsilon=epsilon)
        require_ints(("centre_genus",), centre_genus=cg)
        if max(s, kappa) > MAX_ORDER_LCM:
            raise ValidationError("s or kappa is above MAX_ORDER_LCM", code="too-large")
    # a Fraction chi_x is taken as it is
    if chi_x.__class__ is not Fraction:
        if not isinstance(chi_x, Fraction):
            require_ints(chi_x=chi_x)
        chi_x = Fraction(chi_x)
    if cg is not None and cg < 0:
        raise ValidationError("the centre genus must be nonnegative", code="negative-genus")
    if max(abs(chi_x.numerator), chi_x.denominator) > MAX_ORDER_LCM:
        raise ValidationError("chi_x has a numerator or a denominator above MAX_ORDER_LCM", code="too-large")
    if length > MAX_VECTOR_LENGTH:
        _refuse_long_vector(length)
    n = lcm(*orders)
    if n > MAX_ORDER_LCM:
        _refuse_large_order_lcm(n)
    # (1 - 1/e) f = (e - 1) f / e, over the lcm of the point orders, which every e_tau divides
    drops = 0
    for _, e, f, _ in shapes:
        if e > 1:
            drops += (e - 1) * f * (n // e)
    chi_prime = _rational(*_less_half(chi_x, drops, n))
    numerics = BaseNumerics(None, kappa, epsilon, s, None, None, cg, None, None, chi_x, chi_prime)
    # each weight divides its order, so pbar divides n
    return numerics, tuple(shapes), lcm(*ps), n


def _validate_placement(reading: _Reading, wp: WeightedPoint) -> tuple[str, str, int, int]:
    """The part of validation that reads one weight's placement against
    the reading of its base, returning the shape of its points; two
    weights on one segmentation point are the caller's to catch. Only a
    segmentation weight takes a segment index, and only a segmentation or
    boundary weight an oval index."""
    location, oval, segment = wp.location, wp.oval, wp.segment
    if reading.numerics.centre == "C":
        if location != COMPLEX_POINT:
            raise ValidationError(
                "a complex-centre base only accepts plain point placements",
                code="placement",
            )
        if oval is not None or segment is not None:
            raise ValidationError("a point weight takes no oval or segment index", code="placement")
        return _POINT_SHAPE
    # inner placements are always available
    if location is _INNER:
        if oval is not None or segment is not None:
            raise ValidationError("an inner weight takes no oval or segment index", code="placement")
        return _INNER_SHAPE
    if location is _SEGMENTATION:
        if oval is None or segment is None:
            raise ValidationError(
                "a segmentation weight needs oval and segment indices", code="placement"
            )
        if not reading.is_segmentation_point(oval, segment):
            raise ValidationError("no such segmentation point", code="placement")
        return _SEGMENTATION_SHAPE
    if location is _REAL or location is _QUATERNION:
        if segment is not None:
            raise ValidationError("a boundary weight takes no segment index", code="placement")
        real = location is _REAL
        sign = PLUS if real else MINUS
        if oval is not None:
            if not reading.carries_sign(sign, oval):
                raise ValidationError("that oval has no locus of the requested sign", code="placement")
        elif not reading.carries_sign(sign):
            raise ValidationError("the surface has no locus of the requested sign", code="placement")
        return _REAL_SHAPE if real else _QUATERNION_SHAPE
    raise ValidationError(f"invalid placement {location!r}", code="placement")


# ---------------------------------------------------------------------------
# The profile of a curve

# four times the share of a point of a real base in the boundary count:
# 1/4 for a segmentation point, 1 for an inner one, 1/2 on the boundary
_QUARTERS = {_SEGMENTATION.value: 1, _INNER.value: 4}


def _less_half(x: Fraction, num: int, den: int) -> tuple[int, int]:
    """x - num / (2 den), as an int (numerator, denominator) pair."""
    n, d = x._numerator, x._denominator
    return n * 2 * den - d * num, d * 2 * den


class CurveProfile(FrozenRecord):
    """Everything the invariants of one curve are read from.

    shapes holds the (kind, e_tau, residue degree, weight) of each point
    of order p * e_tau > 1 but the bare segmentation points, those with no
    weight, which bare counts (an unweighted boundary or inner point, or an
    abstract point of order 1, adds nothing and is not held). No point is
    labelled here: effective_points builds the labelled points of a curve
    from its own fields, on request. pbar is the lcm of the weights and
    order_lcm the lcm of the orders p * e_tau, which the check bounds by
    MAX_ORDER_LCM and the general and split routes sum over. numerics is
    the curve's BaseNumerics, as its check read them. A curve's check
    builds its profile, and the curve keeps it in ``curve.profile``. The
    constructor runs the cross-checked routes once and keeps chi_orb, the
    general route once every other route has been checked equal to it by
    cross-multiplying the integer pairs, and weight_ram_vector, the sorted
    multiset of p * e_tau > 1, each counted residue-degree times. Both are
    derived from the fields, so they are no fields and take no part in
    equality, hash or repr.
    """

    _fields = ("shapes", "bare", "pbar", "order_lcm", "numerics")
    __slots__ = (*_fields, "chi_orb", "weight_ram_vector")

    def __init__(self, shapes: tuple[tuple, ...], bare: int, pbar: int, order_lcm: int, numerics: BaseNumerics):
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "bare", bare)
        object.__setattr__(self, "pbar", pbar)
        object.__setattr__(self, "order_lcm", order_lcm)
        object.__setattr__(self, "numerics", numerics)
        routes, vector = self._route_pairs()
        (_, (gn, gd)), *others = routes
        for name, (num, den) in others:
            if num * gd != gn * den:
                raise InvariantViolation(
                    f"Euler characteristic mismatch: general {Fraction(gn, gd)}, {name} {Fraction(num, den)}"
                )
        object.__setattr__(self, "chi_orb", _rational(gn, gd))
        vector.sort()
        object.__setattr__(self, "weight_ram_vector", tuple(vector))

    def _route_pairs(self) -> tuple[list[tuple[str, tuple[int, int]]], list[int]]:
        """Every chi'_orb route that applies, the general one first, as a
        short list of the name its mismatch message gives it and an int
        (numerator, denominator) pair with a positive denominator, and the
        weight-ramification vector, unsorted. One walk over the shapes reads
        them all: each route sums its point terms in an integer accumulator
        of its own, as one numerator over the lcm of their denominators,
        but the genus-zero form, whose sum is s^2 times the split's. The
        bare segmentation points are added in closed form after the walk."""
        nums, n, pbar = self.numerics, self.order_lcm, self.pbar
        real = nums.centre == "R"
        general = split = boundary = 0
        vector: list[int] = []
        for kind, e, f, p in self.shapes:
            o = p * e
            m = n // o
            # (1 - 1/(p e)) f = (p e - 1) f / (p e) and (1 - 1/p) f / e = (p - 1) f / (p e)
            general += (o - 1) * f * m
            split += (p - 1) * f * m
            if real:
                # the share of the point (1/4, 1 or 1/2) times 1 - 1/p, over 4 pbar
                boundary += _QUARTERS.get(kind, 2) * (p - 1) * (pbar // p)
            vector += [o] * f
        if bare := self.bare:
            # p = 1: (e - 1) f / e each in the general route, and 0 in every
            # other route, which sums p - 1
            _, _, e, f = _SEGMENTATION_SHAPE
            general += bare * (e - 1) * f * (n // e)
            vector += [e] * (bare * f)
        routes = [("general", _less_half(nums.chi_centre, general, n)),
                  ("split", _less_half(nums.chi_prime, split, n))]
        if real:
            routes.append(("boundary count", _less_half(nums.chi_prime, boundary, 2 * pbar)))
        if nums.genus == 0:
            # e f (p - 1) / p with e = 1 and f = s^2 f_res / (kappa epsilon e_tau), over
            # kappa epsilon n, the lcm of the kappa epsilon e_tau p: term by term s^2 times split's
            s, kappa, epsilon = nums.skewness, nums.kappa, nums.epsilon
            routes.append(("genus-zero form", _genus_zero(kappa, s, epsilon, s * s * split, kappa * epsilon * n)))
        return routes, vector

    def chi_routes(self) -> dict[str, Fraction]:
        """The value of every chi'_orb route that applies, keyed by the name
        its mismatch message gives it: the general formula over the centre
        and the split through the non-weighted curve always, the boundary
        count on a real centre and the genus-zero form where the function
        field has genus zero. Each is a Fraction built from the integer
        pair the constructor compares; nothing is compared here."""
        return {name: Fraction(num, den) for name, (num, den) in self._route_pairs()[0]}

    def curve_class(self) -> CurveClass:
        # the sign of chi'_orb, read off its int numerator
        sign = self.chi_orb._numerator
        if sign > 0:
            result = _DOMESTIC
        elif not sign:
            result = _ELLIPTIC if self.pbar == 1 else _TUBULAR
        else:
            result = _WILD
        vector = self.weight_ram_vector
        cg = self.numerics.centre_genus
        if result is _TUBULAR:
            if _genus_zero_excess(vector) != 0:
                raise self._inconsistent(f"tubular curve with vector {vector}")
            if cg is not None and cg != 0:
                raise self._inconsistent("tubular curve with a positive-genus centre")
        if result is _DOMESTIC and cg == 0 and _genus_zero_excess(vector) >= 0:
            raise self._inconsistent(f"domestic genus-zero curve with vector {vector}")
        return result

    def _inconsistent(self, message: str) -> Exception:
        """The error for numerics no actual curve has: bad input on an
        abstract base, a bug on a surface base."""
        return (InconsistentDataError if self.numerics.centre is None else InvariantViolation)(message)

    def tau_order(self) -> int:
        if self.chi_orb._numerator:
            raise DomainError("tau has finite order only when the orbifold characteristic vanishes")
        order = max(self.weight_ram_vector, default=1)
        if order not in (1, 2, 3, 4, 6):
            raise self._inconsistent(f"unexpected tau order {order}")
        return order

    def picard(self) -> PicardDescriptor:
        cg = self.numerics.centre_genus
        if cg is None:
            raise DomainError("the Picard description needs a known centre genus")
        fg = cg == 0
        base_part = "Z" if fg else "not finitely generated (Pic_0 of positive-genus X)"
        # a weightless curve over a real centre of genus 0 has one oval at
        # most (Weichold), and its points are its bare segmentation points;
        # four of them make the bare D_2222
        bare_d2222 = self.numerics.centre == "R" and fg and self.pbar == 1 and self.bare == 4
        return PicardDescriptor(
            base_part=base_part,
            torsion_quotient=self.weight_ram_vector,
            finitely_generated_rank_one=fg,
            pic_zero="C2 x C2" if bare_d2222 else None,
        )

    def report(self) -> dict:
        chi, nums = self.chi_orb, self.numerics
        report = {
            "kappa": nums.kappa,
            "epsilon": nums.epsilon,
            "skewness": nums.skewness,
            "pbar": self.pbar,
            "chi_orb": chi,
            # read with no call: .value goes through a DynamicClassAttribute
            "curve_class": self.curve_class()._value_,
            "weight_ram_vector": self.weight_ram_vector,
            "tau_order": None,
            "cy_dimension": None,
            "picard": None,
        }
        if not chi._numerator:
            order = self.tau_order()
            report["tau_order"] = order
            report["cy_dimension"] = (order, order)
        if nums.centre_genus is not None:
            report["picard"] = self.picard()
        return report


# ---------------------------------------------------------------------------
# Views of a curve: its labelled points, built from its fields, and the rest read off its profile

def effective_points(c: WeightedCurve) -> tuple[EffectivePoint, ...]:
    """All points that can contribute to an invariant, labelled, built on
    request from the curve's own fields: on an abstract base each point
    record; on a surface base every segmentation point, seg<oval>.<segment>
    with its weight or 1, then each other weight in turn, labelled by its
    class (pt on a complex-centre base) and its count within the class."""
    base = c.base
    if isinstance(base, AbstractBase):
        return tuple(EffectivePoint(pt.label, "abstract", pt.e_tau, pt.residue_degree, pt.weight) for pt in base.points)
    reading = read_base(base)
    seg_weight = {(wp.oval, wp.segment): wp.weight for wp in c.points if wp.location is _SEGMENTATION}
    prefix, kind, e_tau, f = _SEGMENTATION_SHAPE
    points = [EffectivePoint(f"{prefix}{oi}.{si}", kind, e_tau, f, seg_weight.get((oi, si), 1))
              for oi, si in reading.points]
    counters: dict[str, int] = {}
    for wp in c.points:
        if wp.location is not _SEGMENTATION:
            prefix, kind, e_tau, f = _validate_placement(reading, wp)
            counters[prefix] = n = counters.get(prefix, -1) + 1
            points.append(EffectivePoint(f"{prefix}{n}", kind, e_tau, f, wp.weight))
    return tuple(points)


def genus_zero_orbifold_euler(kappa, s, epsilon, points) -> Fraction:
    """Normalized orbifold characteristic over any field, genus-zero case.

    points is an iterable of (e, f, p) triples, e and f positive integers
    or Fractions; only the product e*f enters. kappa, s and every p are
    positive integers, and epsilon is 1 or 2. No separability assumption is
    needed here. The terms e f (p - 1) / p are summed as one integer
    numerator over the lcm of their denominators, and the answer is built
    from its int pair by ``_rational``. At most MAX_VECTOR_LENGTH points
    are taken, each p at most MAX_POINT_VALUE; kappa, s, the numerators
    and denominators of e and f and that lcm are at most MAX_ORDER_LCM.
    """
    require_positive(kappa=kappa, s=s, epsilon=epsilon)
    if max(s, kappa) > MAX_ORDER_LCM:
        raise ValidationError("s or kappa is above MAX_ORDER_LCM", code="too-large")
    points = require_sequence(points, "the points", "placement")
    _refuse_too_many_points(len(points))
    terms = []
    d = 1
    for point in points:
        triple = require_sequence(point, "a point", "placement")
        if len(triple) != 3:
            raise ValidationError(f"a point must be an (e, f, p) triple, got {point!r}", code="placement")
        e, f, p = triple
        if not all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in (e, f)):
            raise KindMismatchError(f"e and f must be ints or Fractions, got {e!r} and {f!r}")
        if e <= 0 or f <= 0:
            raise ValidationError("e and f must be positive", code="nonpositive")
        if max(e.numerator, e.denominator, f.numerator, f.denominator) > MAX_ORDER_LCM:
            raise ValidationError("e and f have a numerator or a denominator above MAX_ORDER_LCM", code="too-large")
        require_positive(p=p)
        if p > MAX_POINT_VALUE:
            raise ValidationError(f"a weight p must be at most {MAX_POINT_VALUE}", code="too-large")
        den = e.denominator * f.denominator * p
        terms.append((e.numerator * f.numerator * (p - 1), den))
        d = lcm(d, den)
        if d > MAX_ORDER_LCM:
            raise ValidationError("the common denominator of the points is above MAX_ORDER_LCM", code="too-large")
    return _rational(*_genus_zero(kappa, s, epsilon, sum(num * (d // den) for num, den in terms), d))


def _genus_zero(kappa: int, s: int, epsilon: int, total: int, d: int) -> tuple[int, int]:
    """kappa/s^2 - (kappa epsilon / 2 s^2) times total/d, the sum of the
    terms e f (p - 1) / p over a common denominator d, as an int
    (numerator, denominator) pair."""
    return kappa * (2 * d - epsilon * total), 2 * s * s * d


def orbifold_euler(c: WeightedCurve) -> Fraction:
    """Normalized orbifold Euler characteristic: the general formula over
    the centre, checked equal to the split through the non-weighted curve,
    to the boundary count on a real centre and to the genus-zero form where
    the function field has genus zero."""
    return c.profile.chi_orb


def weight_ram_vector(c: WeightedCurve) -> tuple[int, ...]:
    """Sorted multiset of p(x)*e_tau(x) > 1, each counted residue-degree times."""
    return c.profile.weight_ram_vector


def _genus_zero_excess(vector: tuple[int, ...]) -> int:
    """sum(1 - 1/v) - 2 over a weight-ramification vector, times an lcm: 0 on
    the tubular vectors, negative on the Geigle-Lenzing types. An entry adds
    at least 1/2, so five pass 2, and only the first five are read."""
    v = vector[:5]
    d = lcm(*v)
    return sum(d - d // x for x in v) - 2 * d


def classify(c: WeightedCurve) -> CurveClass:
    return c.profile.curve_class()


def tau_exponents(c: WeightedCurve) -> dict[str, int]:
    """Exponent p(x)*e_tau(x) - 1 of the Picard-shift at each labelled point; zeros omitted."""
    return {pt.label: exp for pt in effective_points(c) if (exp := pt.weight * pt.e_tau - 1)}


def tau_word(c: WeightedCurve) -> tuple[tuple[str, int], ...]:
    """Full Picard word for tau over a genus-zero centre.

    The leading factor is the shift at an auxiliary rational point x0
    carrying neither ramification nor weight, with exponent -2/epsilon.
    Raised DomainError when the centre has positive genus or, as for the
    real conic without real points, no eligible x0 exists.
    """
    profile = c.profile
    if profile.numerics.centre_genus != 0:
        raise DomainError("the explicit word requires a genus-zero centre")
    if profile.numerics.ovals == 0:
        raise DomainError("no rational point without ramification or weight exists")
    prefix = ("x0", -(2 // profile.numerics.epsilon))
    body = tuple(sorted(tau_exponents(c).items()))
    return (prefix,) + body


def tau_order(c: WeightedCurve) -> int:
    """Order of tau on degree-zero classes; only finite when chi'_orb = 0."""
    return c.profile.tau_order()


def cy_dimension(c: WeightedCurve) -> tuple[int, int]:
    """Calabi-Yau dimension n/n, reported as the pair (n, n)."""
    n = c.profile.tau_order()
    return (n, n)


class PicardDescriptor(Record):
    __slots__ = ()

    def __new__(cls, base_part, torsion_quotient, finitely_generated_rank_one, pic_zero=None):
        return _tuple_new(cls, (base_part, torsion_quotient, finitely_generated_rank_one, pic_zero))


def picard_structure(c: WeightedCurve) -> PicardDescriptor:
    """Shape of the Picard group read off the weighted ramification sequence.

    Pic(H) sits between Pic(X) and the product of cyclic groups of the
    orders in the weight-ramification vector. The degree-zero part is only
    pinned down for the known genus-one case with four segmentation
    points, where it is the Klein four-group.
    """
    return c.profile.picard()


def invariants_report(c: WeightedCurve) -> dict:
    """The whole report of a curve, as plain values: kappa, epsilon, the
    skewness, pbar, chi'_orb, the class, the weight-ramification vector,
    the order of tau and the Calabi-Yau dimension where chi'_orb = 0, and
    the Picard descriptor where the centre genus is known."""
    return c.profile.report()


# ---------------------------------------------------------------------------
# Ghost groups

class GhostGroup(Record):
    """Product of cyclic groups C_n, with the shift exponents d(y) that
    witness how each generator is normalized against the efficient point."""

    __slots__ = ()

    def __new__(cls, orders, shifts):
        return _tuple_new(cls, (orders, shifts))

    def describe(self) -> str:
        if not self.orders:
            return "trivial"
        return " x ".join(f"C{n}" for n in self.orders)


def ghost_group(points, efficient_index: int) -> GhostGroup:
    """Ghost group of a genus-zero non-weighted curve.

    points is a list of (e_tau, residue_degree) pairs; the efficient point
    x is the one whose Picard-shift is used to cancel degrees. For every
    other point y the exponent d(y) satisfies e_tau(y) d(y) = (f_y/f_x)
    e_tau(x); it must be an integer whenever y is a ramification point.
    At most MAX_VECTOR_LENGTH points are taken, each with e_tau and f at
    most MAX_POINT_VALUE.
    """
    pts = require_sequence(points, "the points", "placement")
    _refuse_too_many_points(len(pts))
    for pt in pts:
        if not isinstance(pt, (tuple, list)) or len(pt) != 2:
            raise ValidationError(f"a point must be an (e_tau, f) pair, got {pt!r}", code="placement")
        e, f = pt
        require_positive(e_tau=e, residue_degree=f)
        if max(e, f) > MAX_POINT_VALUE:
            raise ValidationError(f"e_tau and residue degrees must be at most {MAX_POINT_VALUE}", code="too-large")
    require_ints(efficient_index=efficient_index)
    if not 0 <= efficient_index < len(pts):
        raise ValidationError("efficient point index out of range", code="placement")
    ex_tau, ex_f = pts[efficient_index]
    orders: list[int] = []
    shifts: list[tuple[int, Fraction]] = []
    for i, (e_tau, f) in enumerate(pts):
        if i == efficient_index:
            continue
        d = Fraction(ex_tau * f, e_tau * ex_f)
        if e_tau > 1:
            if d.denominator != 1:
                raise InconsistentDataError(
                    f"shift exponent {d} at point {i} is not an integer"
                )
            orders.append(e_tau)
        shifts.append((i, d))
    return GhostGroup(orders=tuple(sorted(orders)), shifts=tuple(shifts))
