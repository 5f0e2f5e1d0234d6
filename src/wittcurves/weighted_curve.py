"""Weighted curves: orbifold Euler characteristics, classification, Picard data.

A weighted curve is a base (a real surface from witt_surface, a complex
base, or an explicit abstract record for other ground fields) together with
weight insertions p >= 2 at chosen points. Every numerical invariant is
driven by the effective point list: each point contributes through its
weight p, its ramification index e_tau, and its residue degree f.

curve_profile reads a curve once into a CurveProfile: the effective
points and the numerics of the base. A surface base is read by one call
to witt_surface.surface_numerics, and nothing here reads its ovals or
topology. Every public invariant is a view of a profile built afresh for
the call, and a report reads all of its entries from one profile.

The normalized orbifold Euler characteristic is computed by three
independent routes (the general formula over the centre, the split through
the non-weighted curve, and a Thurston-style count for real bases) which
must agree exactly; a fourth genus-zero route is checked where it applies.
Each route sums its point terms as one integer numerator over the lcm of
their denominators and builds one Fraction, and the Fractions are compared;
the chi' of an abstract base is summed the same way. A profile runs the
routes once, when its chi_orb is first read, so the accessors that need
only base numerics never run them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .algebra import DivisionAlgebraKind
from .errors import DomainError, InconsistentDataError, InvariantViolation, ValidationError, require_ints
from .local_data import SHORT_NAMES, WittPointClass, witt_local_datum
from .witt_surface import (
    MINUS,
    PLUS,
    ComplexCentreBase,
    WittSurface,
    canonical_key,
    catalog,
    segmentation_points,
    signed_ovals,
    surface_numerics,
    validate,
)

# placement marker for weights on a complex-centre base
COMPLEX_POINT = "point"

TUBULAR_VECTORS = frozenset({(2, 2, 2, 2), (2, 3, 6), (2, 4, 4), (3, 3, 3)})

# The largest e_tau, residue degree or weight a point may have. The
# weight-ramification vector repeats an entry residue-degree times, so
# larger values would cost unbounded memory; no curve of interest needs them.
MAX_POINT_VALUE = 10_000
# The most entries the weight-ramification vector of an abstract base may
# have: the sum of f over its points with weight * e_tau > 1. It is at
# least MAX_POINT_VALUE, so one point of any allowed size fits. On a
# surface base f is 1 or 2, so the vector grows only with the input.
MAX_VECTOR_LENGTH = MAX_POINT_VALUE

# the one surface whose weightless curve (with its four segmentation
# points) has a known Pic_0
_BARE_D2222 = canonical_key(catalog("D_2222"))


class CurveClass(enum.Enum):
    DOMESTIC = "domestic"
    ELLIPTIC = "elliptic"
    TUBULAR = "tubular"
    WILD = "wild"


@dataclass(frozen=True, slots=True)
class WeightedPoint:
    """A weight insertion: where it sits and the weight p >= 2.

    For segmentation placements the (oval, segment) coordinates are
    mandatory so that collisions can be detected; boundary and inner
    placements name anonymous points and may repeat.
    """

    location: WittPointClass | str
    weight: int
    oval: int | None = None
    segment: int | None = None


@dataclass(frozen=True, slots=True)
class AbstractPoint:
    """A closed point of an abstract base, weights baked in."""

    label: str
    e_tau: int = 1
    residue_degree: int = 1
    weight: int = 1


@dataclass(frozen=True, slots=True)
class AbstractBase:
    """Numerical stand-in for a curve over an arbitrary perfect field."""

    chi_x: Fraction
    s: int
    kappa: int
    epsilon: int
    points: tuple[AbstractPoint, ...]
    centre_genus: int | None = None


@dataclass(frozen=True, slots=True)
class EffectivePoint:
    label: str
    kind: str
    e_tau: int
    residue_degree: int
    weight: int


Base = WittSurface | ComplexCentreBase | AbstractBase


@dataclass(frozen=True, slots=True)
class WeightedCurve:
    base: Base
    points: tuple[WeightedPoint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        _validate_curve(self)


def _validate_curve(c: WeightedCurve) -> None:
    base = c.base
    if isinstance(base, AbstractBase) and c.points:
        raise ValidationError(
            "weights on an abstract base belong in its point records",
            code="placement",
        )
    _validate_base(base)
    for wp in c.points:
        require_ints(("oval", "segment"), weight=wp.weight, oval=wp.oval, segment=wp.segment)
        if wp.weight < 2:
            raise ValidationError("an inserted weight must be at least 2", code="weight")
        if wp.weight > MAX_POINT_VALUE:
            raise ValidationError(f"an inserted weight must be at most {MAX_POINT_VALUE}", code="too-large")
    seen_segments: set[tuple[int, int]] = set()
    for wp in c.points:
        _validate_placement(base, wp)
        if wp.location is WittPointClass.SEGMENTATION:
            key = (wp.oval, wp.segment)
            if key in seen_segments:
                raise ValidationError(
                    "two weights on the same segmentation point", code="duplicate-placement"
                )
            seen_segments.add(key)


def _validate_base(base: Base) -> None:
    """The part of validation that reads the base alone: realizability of
    a surface, the point records and numerics of an abstract base."""
    if not isinstance(base, AbstractBase):
        validate(base)
        return
    labels = [p.label for p in base.points]
    if len(set(labels)) != len(labels):
        raise ValidationError("abstract point labels must be unique", code="duplicate-placement")
    length = 0
    for p in base.points:
        require_ints(e_tau=p.e_tau, residue_degree=p.residue_degree, weight=p.weight)
        if p.e_tau < 1 or p.residue_degree < 1 or p.weight < 1:
            raise ValidationError(f"point {p.label} has a nonpositive entry", code="nonpositive")
        if max(p.e_tau, p.residue_degree, p.weight) > MAX_POINT_VALUE:
            raise ValidationError(
                f"point {p.label} has an entry above {MAX_POINT_VALUE}", code="too-large"
            )
        if p.weight * p.e_tau > 1:
            length += p.residue_degree
    if length > MAX_VECTOR_LENGTH:
        raise ValidationError(
            f"the weight-ramification vector would have {length} entries, more than {MAX_VECTOR_LENGTH}",
            code="too-large",
        )
    require_ints(("centre_genus",), s=base.s, kappa=base.kappa, epsilon=base.epsilon, centre_genus=base.centre_genus)
    if not isinstance(base.chi_x, Fraction):
        require_ints(chi_x=base.chi_x)
    if base.s < 1 or base.kappa < 1 or base.epsilon < 1:
        raise ValidationError("base numerics must be positive", code="nonpositive")
    if base.epsilon not in (1, 2):
        raise ValidationError(f"epsilon must be 1 or 2, got {base.epsilon}", code="epsilon")
    if base.centre_genus is not None and base.centre_genus < 0:
        raise ValidationError("the centre genus must be nonnegative", code="negative-genus")


def _validate_placement(base: WittSurface | ComplexCentreBase, wp: WeightedPoint) -> None:
    """The part of validation that reads one weight's placement against
    its base; the base is taken as valid, and two weights on one
    segmentation point are the caller's to catch."""
    if isinstance(base, ComplexCentreBase):
        if wp.location != COMPLEX_POINT:
            raise ValidationError(
                "a complex-centre base only accepts plain point placements",
                code="placement",
            )
        return
    if not isinstance(wp.location, WittPointClass):
        raise ValidationError(f"invalid placement {wp.location!r}", code="placement")
    if wp.location is WittPointClass.SEGMENTATION:
        if wp.oval is None or wp.segment is None:
            raise ValidationError(
                "a segmentation weight needs oval and segment indices", code="placement"
            )
        if (wp.oval, wp.segment) not in segmentation_points(base):
            raise ValidationError("no such segmentation point", code="placement")
    elif wp.location in (WittPointClass.REAL_BOUNDARY, WittPointClass.QUATERNION_BOUNDARY):
        signed = signed_ovals(base, PLUS if wp.location is WittPointClass.REAL_BOUNDARY else MINUS)
        if wp.oval is not None and wp.oval not in signed:
            raise ValidationError("that oval has no locus of the requested sign", code="placement")
        if not signed:
            raise ValidationError("the surface has no locus of the requested sign", code="placement")
    # inner placements are always available


# ---------------------------------------------------------------------------
# The profile of a curve

# four times the share of a point of a real base in the boundary count:
# 1/4 for a segmentation point, 1 for an inner one, 1/2 on the boundary
_QUARTERS = {WittPointClass.SEGMENTATION.value: 1, WittPointClass.INNER.value: 4}


def _less_half(x: Fraction, num: int, den: int) -> Fraction:
    """x - num / (2 den), built as one Fraction."""
    return Fraction(x.numerator * 2 * den - x.denominator * num, x.denominator * 2 * den)


@dataclass(frozen=True)
class CurveProfile:
    """Everything the invariants of one curve are read from.

    points lists every point that can contribute to an invariant: the
    segmentation points and the weighted ones (an unweighted boundary or
    inner point has e_tau = 1 and weight 1 and adds nothing). chi_centre
    belongs to the centre curve, chi_prime (normalized) to the
    non-weighted curve. The rest describe a surface base and are None for
    an abstract one: centre is the field of the centre curve ("R" or "C"),
    ovals counts the ovals of a real base (None on "C"), and genus, chi
    and constants belong to the function field. chi_orb runs the
    cross-checked routes when first read, so a profile asked only for base
    numerics never does; it and weight_ram_vector are then kept with the
    profile, which lives for one public call.
    """

    curve: WeightedCurve
    points: tuple[EffectivePoint, ...]
    kappa: int
    epsilon: int
    skewness: int
    centre_genus: int | None
    pbar: int
    chi_centre: Fraction
    chi_prime: Fraction
    centre: str | None = None
    ovals: int | None = None
    genus: int | None = None
    chi: Fraction | None = None
    constants: DivisionAlgebraKind | None = None

    def chi_routes(self) -> dict[str, Fraction]:
        """The value of every chi'_orb route that applies, keyed by the name
        its mismatch message gives it: the general formula over the centre
        and the split through the non-weighted curve always, the boundary
        count on a real centre and the genus-zero form where the function
        field has genus zero. Each route sums its point terms as one
        integer numerator over the lcm of their denominators and builds
        one Fraction; nothing is compared here."""
        pts = self.points
        orders = [pt.weight * pt.e_tau for pt in pts]
        n = lcm(*orders)
        # (1 - 1/(p e)) f = (p e - 1) f / (p e) and (1 - 1/p) f / e = (p - 1) f / (p e)
        general = sum((o - 1) * pt.residue_degree * (n // o) for o, pt in zip(orders, pts))
        split = sum((pt.weight - 1) * pt.residue_degree * (n // o) for o, pt in zip(orders, pts))
        routes = {
            "general": _less_half(self.chi_centre, general, n),
            "split": _less_half(self.chi_prime, split, n),
        }
        if self.centre == "R":
            # the share of each point (1/4, 1 or 1/2) times 1 - 1/p, over 4 pbar
            pbar = self.pbar
            routes["boundary count"] = _less_half(
                self.chi_prime,
                sum(_QUARTERS.get(pt.kind, 2) * (pt.weight - 1) * (pbar // pt.weight) for pt in pts),
                2 * pbar,
            )
        if self.genus == 0:
            routes["genus-zero form"] = genus_zero_orbifold_euler(
                self.kappa, self.skewness, self.epsilon, self.any_field_triples()
            )
        return routes

    @cached_property
    def chi_orb(self) -> Fraction:
        """Normalized orbifold Euler characteristic: the general route, once
        every other route of chi_routes has been checked equal to it."""
        routes = self.chi_routes()
        general = routes.pop("general")
        for name, value in routes.items():
            if value != general:
                raise InvariantViolation(
                    f"Euler characteristic mismatch: general {general}, {name} {value}"
                )
        return general

    def any_field_triples(self) -> tuple[tuple[int, Fraction, int], ...]:
        """(e, f, p) data feeding the genus-zero formula, with e*f recovered
        from the real local data via e*f = (s^2 / (kappa*epsilon)) * f_res / e_tau."""
        s, kap, eps = self.skewness, self.kappa, self.epsilon
        return tuple(
            (1, Fraction(s * s * pt.residue_degree, kap * eps * pt.e_tau), pt.weight)
            for pt in self.points
        )

    @cached_property
    def weight_ram_vector(self) -> tuple[int, ...]:
        entries: list[int] = []
        for pt in self.points:
            v = pt.weight * pt.e_tau
            if v > 1:
                entries.extend([v] * pt.residue_degree)
        return tuple(sorted(entries))

    def curve_class(self) -> CurveClass:
        chi = self.chi_orb
        if chi > 0:
            result = CurveClass.DOMESTIC
        elif chi == 0:
            result = CurveClass.ELLIPTIC if self.pbar == 1 else CurveClass.TUBULAR
        else:
            result = CurveClass.WILD
        vector = self.weight_ram_vector
        cg = self.centre_genus
        if result is CurveClass.TUBULAR:
            if vector not in TUBULAR_VECTORS:
                raise self._inconsistent(f"tubular curve with vector {vector}")
            if cg is not None and cg != 0:
                raise self._inconsistent("tubular curve with a positive-genus centre")
        if result is CurveClass.DOMESTIC and cg == 0 and not _domestic_genus_zero_vector(vector):
            raise self._inconsistent(f"domestic genus-zero curve with vector {vector}")
        return result

    def _inconsistent(self, message: str) -> Exception:
        """The error for numerics no actual curve has: bad input on an
        abstract base, a bug on a surface base."""
        return (InconsistentDataError if self.centre is None else InvariantViolation)(message)

    def tau_exponents(self) -> dict[str, int]:
        out = {}
        for pt in self.points:
            exp = pt.weight * pt.e_tau - 1
            if exp:
                out[pt.label] = exp
        return out

    def tau_order(self) -> int:
        if self.chi_orb != 0:
            raise DomainError("tau has finite order only when the orbifold characteristic vanishes")
        order = max([pt.weight * pt.e_tau for pt in self.points], default=1)
        if order not in (1, 2, 3, 4, 6):
            raise self._inconsistent(f"unexpected tau order {order}")
        return order

    def picard(self) -> PicardDescriptor:
        cg = self.centre_genus
        if cg is None:
            raise DomainError("the Picard description needs a known centre genus")
        fg = cg == 0
        base_part = "Z" if fg else "not finitely generated (Pic_0 of positive-genus X)"
        bare_d2222 = (
            self.centre == "R"
            and not self.curve.points
            and len(self.points) == 4
            and canonical_key(self.curve.base) == _BARE_D2222
        )
        return PicardDescriptor(
            base_part=base_part,
            torsion_quotient=self.weight_ram_vector,
            finitely_generated_rank_one=fg,
            pic_zero="C2 x C2" if bare_d2222 else None,
        )

    def report(self) -> dict:
        chi = self.chi_orb
        report = {
            "kappa": self.kappa,
            "epsilon": self.epsilon,
            "skewness": self.skewness,
            "pbar": self.pbar,
            "chi_orb": chi,
            "curve_class": self.curve_class().value,
            "weight_ram_vector": self.weight_ram_vector,
            "tau_order": None,
            "cy_dimension": None,
            "picard": None,
        }
        if chi == 0:
            order = self.tau_order()
            report["tau_order"] = order
            report["cy_dimension"] = (order, order)
        if self.centre_genus is not None:
            report["picard"] = self.picard()
        return report


def curve_profile(c: WeightedCurve) -> CurveProfile:
    """Read a curve once: its effective points and the numerics of its base.

    A surface base is read by one surface_numerics call. Points of a
    surface base take e_tau, the residue degree and the label prefix from
    local_data, or are plain points on a complex-centre base.
    """
    base = c.base
    surface = {}
    if isinstance(base, AbstractBase):
        points = tuple(
            EffectivePoint(p.label, "abstract", p.e_tau, p.residue_degree, p.weight)
            for p in base.points
        )
        kappa, epsilon, s, cg = base.kappa, base.epsilon, base.s, base.centre_genus
        chi_centre = Fraction(base.chi_x)
        # (1 - 1/e) f = (e - 1) f / e, over the lcm of the e_tau
        n = lcm(*(p.e_tau for p in points))
        drops = sum((p.e_tau - 1) * p.residue_degree * (n // p.e_tau) for p in points)
        chi_prime = _less_half(chi_centre, drops, n)
    else:
        n = surface_numerics(base)
        points = _surface_points(base, c.points)
        kappa, epsilon, s, cg = n.kappa, n.epsilon, n.skewness, n.centre_genus
        chi_centre, chi_prime = Fraction(1 - cg), n.chi_prime
        surface = dict(centre=n.centre, ovals=n.ovals, genus=n.genus, chi=n.chi, constants=n.constants)
    pbar = lcm(*(pt.weight for pt in points))
    return CurveProfile(c, points, kappa, epsilon, s, cg, pbar, chi_centre, chi_prime, **surface)


# label prefix, kind, e_tau and residue degree of the points of each class
_SHAPES = {
    cls: (SHORT_NAMES[cls], cls.value, witt_local_datum(cls).e_tau, witt_local_datum(cls).residue_degree)
    for cls in WittPointClass
} | {COMPLEX_POINT: ("pt", COMPLEX_POINT, 1, 1)}


def _surface_points(base: WittSurface | ComplexCentreBase, weights) -> tuple[EffectivePoint, ...]:
    seg = WittPointClass.SEGMENTATION
    prefix, kind, e_tau, f = _SHAPES[seg]
    seg_weight = {(wp.oval, wp.segment): wp.weight for wp in weights if wp.location is seg}
    out = [
        EffectivePoint(f"{prefix}{oi}.{si}", kind, e_tau, f, seg_weight.get((oi, si), 1))
        for oi, si in segmentation_points(base)
    ]
    counters: dict[str, int] = {}
    for wp in weights:
        if wp.location is not seg:
            prefix, kind, e_tau, f = _SHAPES[wp.location]
            n = counters.get(prefix, 0)
            counters[prefix] = n + 1
            out.append(EffectivePoint(f"{prefix}{n}", kind, e_tau, f, wp.weight))
    return tuple(out)


# ---------------------------------------------------------------------------
# Views of the profile

def effective_points(c: WeightedCurve) -> tuple[EffectivePoint, ...]:
    """All points that can contribute to an invariant."""
    return curve_profile(c).points


def genus_zero_orbifold_euler(kappa, s, epsilon, points) -> Fraction:
    """Normalized orbifold characteristic over any field, genus-zero case.

    points is an iterable of (e, f, p) triples, e and f integers or
    Fractions; only the product e*f enters. No separability assumption is
    needed here. The terms e f (p - 1) / p are summed as one integer
    numerator over the lcm of their denominators.
    """
    terms = [(e.numerator * f.numerator * (p - 1), e.denominator * f.denominator * p) for e, f, p in points]
    d = lcm(*(den for _, den in terms))
    total = sum(num * (d // den) for num, den in terms)
    # kappa/s^2 - (kappa epsilon / 2 s^2) total/d
    return Fraction(kappa * (2 * d - epsilon * total), 2 * s * s * d)


def orbifold_euler(c: WeightedCurve) -> Fraction:
    """Normalized orbifold Euler characteristic, cross-checked three ways."""
    return curve_profile(c).chi_orb


def weight_ram_vector(c: WeightedCurve) -> tuple[int, ...]:
    """Sorted multiset of p(x)*e_tau(x) > 1, each counted residue-degree times."""
    return curve_profile(c).weight_ram_vector


def _domestic_genus_zero_vector(v: tuple[int, ...]) -> bool:
    if len(v) <= 2:
        return True
    if len(v) == 3:
        return (v[0], v[1]) == (2, 2) or v in ((2, 3, 3), (2, 3, 4), (2, 3, 5))
    return False


def classify(c: WeightedCurve) -> CurveClass:
    return curve_profile(c).curve_class()


def tau_exponents(c: WeightedCurve) -> dict[str, int]:
    """Exponent p(x)*e_tau(x) - 1 of the Picard-shift at each point; zeros omitted."""
    return curve_profile(c).tau_exponents()


def tau_word(c: WeightedCurve) -> tuple[tuple[str, int], ...]:
    """Full Picard word for tau over a genus-zero centre.

    The leading factor is the shift at an auxiliary rational point x0
    carrying neither ramification nor weight, with exponent -2/epsilon.
    Raised DomainError when the centre has positive genus or, as for the
    real conic without real points, no eligible x0 exists.
    """
    profile = curve_profile(c)
    if profile.centre_genus != 0:
        raise DomainError("the explicit word requires a genus-zero centre")
    if profile.ovals == 0:
        raise DomainError("no rational point without ramification or weight exists")
    prefix = ("x0", -(2 // profile.epsilon))
    body = tuple(sorted(profile.tau_exponents().items()))
    return (prefix,) + body


def tau_order(c: WeightedCurve) -> int:
    """Order of tau on degree-zero classes; only finite when chi'_orb = 0."""
    return curve_profile(c).tau_order()


def cy_dimension(c: WeightedCurve) -> tuple[int, int]:
    """Calabi-Yau dimension n/n, reported as the pair (n, n)."""
    n = curve_profile(c).tau_order()
    return (n, n)


@dataclass(frozen=True, slots=True)
class PicardDescriptor:
    base_part: str
    torsion_quotient: tuple[int, ...]
    finitely_generated_rank_one: bool
    pic_zero: str | None = None


def picard_structure(c: WeightedCurve) -> PicardDescriptor:
    """Shape of the Picard group read off the weighted ramification sequence.

    Pic(H) sits between Pic(X) and the product of cyclic groups of the
    orders in the weight-ramification vector. The degree-zero part is only
    pinned down for the known genus-one case with four segmentation
    points, where it is the Klein four-group.
    """
    return curve_profile(c).picard()


def invariants_report(c: WeightedCurve) -> dict:
    """Everything the command line prints, as plain values."""
    return curve_profile(c).report()


# ---------------------------------------------------------------------------
# Ghost groups

@dataclass(frozen=True, slots=True)
class GhostGroup:
    """Product of cyclic groups C_n, with the shift exponents d(y) that
    witness how each generator is normalized against the efficient point."""

    orders: tuple[int, ...]
    shifts: tuple[tuple[int, Fraction], ...]

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
    """
    pts = list(points)
    for e, f in pts:
        require_ints(e_tau=e, residue_degree=f)
        if e < 1 or f < 1:
            raise ValidationError("e_tau and residue degrees must be positive", code="nonpositive")
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
