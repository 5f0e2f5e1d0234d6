"""Enumeration of the real weighted curves with nonnegative orbifold characteristic.

Nothing here lists bases, placements or weights; all is read off the
catalog, validation and curve profiles. The catalog bases whose weightless
curve has chi'_orb = 0 are the elliptic entries; those with chi'_orb > 0
(D, RP2, D_H, D_22, S2_C) carry the weights. A placement class belongs to
a base when the per-point part of validation accepts a weight of that
class on it, and a probe curve with one weight of each accepted class
gives their e_tau and residue degree f; building it validates the base,
once. The segmentation points in its profile are slots for one weight
each.

By the general formula a weight p at a point of (e_tau, f) lowers
chi'_orb by c (1 - 1/p), with share c = f / (2 e_tau). The tubular
entries are the weight multisets whose drops add up to the weightless
chi'_orb exactly. A drop lies in [c/2, c), which bounds the weights per
place; for fixed counts the weights solve sum c/p = sum c - chi'_orb,
and taking c/p in decreasing order, the largest of m terms left is at
least 1/m of what is left, which bounds each weight. The search runs on
integers: the shares and the budget are scaled to one common
denominator, what is left of the budget is carried as a numerator and
a denominator, and fractions are compared by cross-multiplying.

The domestic zoo is the weightless bases with chi'_orb > 0 and a table
of families with symbolic weights; their weight-ramification vectors come
from the same (e_tau, f) per place.

Weights are recorded per placement class as multisets, which identifies
configurations up to the colour-preserving symmetries of the base (a
reflection swaps the two segmentation points of the segmented disc).
Each entry is read from one CurveProfile of its curve. Placement classes
go by the short names of local_data, plus "point" on a complex-centre base.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import lcm

from .errors import ValidationError
from .local_data import SHORT_NAMES, WittPointClass
from .weighted_curve import (
    COMPLEX_POINT,
    CurveClass,
    WeightedCurve,
    WeightedPoint,
    _validate_placement,
    curve_profile,
)
from .witt_surface import CATALOG_NAMES, catalog, euler_characteristics, segmentation_points

_LOCATION = {short: cls for cls, short in SHORT_NAMES.items()} | {"point": COMPLEX_POINT}
_SEG = SHORT_NAMES[WittPointClass.SEGMENTATION]
_SEG_KIND = WittPointClass.SEGMENTATION.value
_CLASS_ORDER = {"seg": 0, "real": 1, "quat": 2, "inner": 3, "point": 4}

# a weight entry is (placement class, p) with p an int, or a parameter
# name for the symbolic domestic families
Weights = tuple[tuple[str, object], ...]


@dataclass(frozen=True, slots=True)
class ZooEntry:
    base: str
    weights: Weights
    curve_class: CurveClass
    chi_orb: Fraction | None
    skewness: int
    wrv: tuple
    tau_order: int | None
    cy: tuple[int, int] | None
    centre: str


def _weight_key(pair):
    cls, w = pair
    if isinstance(w, int):
        return (_CLASS_ORDER[cls], 0, w, "")
    return (_CLASS_ORDER[cls], 1, 0, str(w))


def entry_key(entry: ZooEntry):
    return (entry.base, len(entry.weights), tuple(_weight_key(p) for p in entry.weights))


def _build_curve(base_name: str, weights: Weights) -> WeightedCurve:
    base = catalog(base_name)
    slots = iter(segmentation_points(base))
    pts = []
    for cls, w in weights:
        if cls == _SEG:
            oval, segment = next(slots)
            pts.append(WeightedPoint(WittPointClass.SEGMENTATION, w, oval=oval, segment=segment))
        else:
            pts.append(WeightedPoint(_LOCATION[cls], w))
    return WeightedCurve(base, tuple(pts))


def _entry_for(base_name: str, weights: Weights) -> ZooEntry:
    profile = curve_profile(_build_curve(base_name, weights))
    chi = profile.chi_orb
    order = profile.tau_order() if chi == 0 else None
    return ZooEntry(
        base=base_name,
        weights=weights,
        curve_class=profile.curve_class(),
        chi_orb=chi,
        skewness=profile.skewness,
        wrv=profile.weight_ram_vector,
        tau_order=order,
        cy=(order, order) if order is not None else None,
        centre=profile.centre,
    )


def _bases():
    """Each catalog name with the chi'_orb of its weightless curve: chi' of
    the base, since no weight enters the split route."""
    return [(name, euler_characteristics(catalog(name))[1]) for name in CATALOG_NAMES]


def _places(base_name: str) -> dict[str, tuple[int, int, int | None]]:
    """(e_tau, f, most weights) of every place on a base: its segmentation
    points, one weight each, and any number of weights of every other
    class that validation accepts on the base."""
    base = catalog(base_name)
    accepted = {}
    for name, location in _LOCATION.items():
        if name == _SEG:
            continue  # segmentation weights go on the slots
        wp = WeightedPoint(location, 2)
        try:
            _validate_placement(base, wp)
        except ValidationError:
            continue
        accepted[name] = wp
    # a probe curve with a weight of each accepted class; building it
    # validates the base, once
    probe = curve_profile(WeightedCurve(base, tuple(accepted.values()))).points
    seg = [(pt.e_tau, pt.residue_degree) for pt in probe if pt.kind == _SEG_KIND]
    places = {_SEG: (*seg[0], len(seg))} if seg else {}
    weighted = [pt for pt in probe if pt.kind != _SEG_KIND]
    for name, pt in zip(accepted, weighted):
        places[name] = (pt.e_tau, pt.residue_degree, None)
    return places


# ---------------------------------------------------------------------------
# The tubular search

def _fill(shares, counts, tn, td, bound):
    """Weights p >= 2, counts[i] of them at share shares[i][1], with
    sum c/p = tn/td, in decreasing order of (c/p, -i) up to bound.

    The shares c are ints, the target is the fraction tn/td and bound
    (bc, bp, bi) stands for the key (bc/bp, -bi); every comparison of
    fractions is made by cross-multiplying."""
    m = sum(counts)
    bc, bp, bi = bound
    for i, (name, c) in enumerate(shares):
        if not counts[i]:
            continue
        # c/p is at most the bound and the target, and the largest of the
        # m terms left is at least target / m
        low = -(-c * bp // bc) if bc * td <= tn * bp else -(-c * td // tn)
        for p in range(max(2, low), c * m * td // tn + 1):
            rn, rd = tn * p - c * td, td * p  # the target less c/p
            # p >= low keeps c/p at most bc/bp, so (c/p, -i) passes the
            # bound unless the two tie and i comes first
            if (c * bp == bc * p and i < bi) or (rn == 0) != (m == 1):
                continue
            if m == 1:
                yield ((name, p),)
                continue
            left = counts[:i] + (counts[i] - 1,) + counts[i + 1:]
            for tail in _fill(shares, left, rn, rd, (c, p, i)):
                yield ((name, p),) + tail


def _tubular_weights(budget: Fraction, places) -> list[Weights]:
    """Every weight multiset on the places whose drops add up to the budget."""
    # the shares f / (2 e_tau) and the budget as ints over one denominator
    d = lcm(budget.denominator, *(2 * e_tau for e_tau, _, _ in places.values()))
    shares = [(name, f * d // (2 * e_tau)) for name, (e_tau, f, _) in places.items()]
    b = budget.numerator * (d // budget.denominator)
    # a weight costs at least half its share
    most = [min(n := 2 * b // c, slots or n) for (_, c), (_, _, slots) in zip(shares, places.values())]
    found = []
    for counts in product(*(range(n + 1) for n in most)):
        total = sum(n * c for n, (_, c) in zip(counts, shares))
        if total <= 2 * b and b < total:
            for ws in _fill(shares, counts, total - b, 1, (total, 1, 0)):
                found.append(tuple(sorted(ws, key=_weight_key)))
    return found


def enumerate_chi_zero() -> list[ZooEntry]:
    """All curves with chi'_orb = 0: the weightless bases with chi'_orb = 0
    plus every tubular weight configuration on a base with chi'_orb > 0."""
    entries = []
    for name, chi in _bases():
        if chi == 0:
            entries.append(_entry_for(name, ()))
        elif chi > 0:
            entries.extend(_entry_for(name, ws) for ws in _tubular_weights(chi, _places(name)))
    return sorted(entries, key=entry_key)


# ---------------------------------------------------------------------------
# The domestic zoo

# The weight types of Geigle-Lenzing, the domestic families over the
# complex numbers: (p), (p,q), (2,2,n), (2,3,3), (2,3,4) and (2,3,5)
_GEIGLE_LENZING = (("p",), ("p", "q"), (2, 2, "n"), (2, 3, 3), (2, 3, 4), (2, 3, 5))


def _families(cls: str) -> list[Weights]:
    return [tuple((cls, w) for w in ws) for ws in _GEIGLE_LENZING]


def _boundary_families(cls: str) -> list[Weights]:
    return _families(cls) + [(("inner", "p"),), (("inner", 2), (cls, "n")), (("inner", 3), (cls, 2))]


# D_22 takes (p) and (p,q) on its two segmentation points, and three shapes
# of segmentation weights with one weight on the real or the quaternion boundary
_D22_BOUNDARY = (((), "n"), ((("seg", "p"),), 2), ((("seg", 2),), 3))

_DOMESTIC_FAMILIES: dict[str, list[Weights]] = {
    "D": _boundary_families("real"),
    "D_H": _boundary_families("quat"),
    "RP2": [(("inner", "p"),)],
    "D_22": _families("seg")[:2]
    + [segs + ((cls, w),) for segs, w in _D22_BOUNDARY for cls in ("real", "quat")],
    "S2_C": _families("point"),
}


def _family_entry(bare: ZooEntry, places, weights: Weights) -> ZooEntry:
    if all(isinstance(w, int) for _, w in weights):
        return _entry_for(bare.base, weights)
    # a weight w at a place of (e_tau, f) adds w * e_tau to the vector f
    # times; a free segmentation slot counts as weight 1
    free = places[_SEG][2] - sum(cls == _SEG for cls, _ in weights) if _SEG in places else 0
    wrv = []
    for cls, w in weights + ((_SEG, 1),) * free:
        e_tau, f, _ = places[cls]
        if isinstance(w, str):
            wrv += [f"{e_tau}{w}" if e_tau > 1 else w] * f
        elif w * e_tau > 1:
            wrv += [w * e_tau] * f
    wrv.sort(key=lambda v: (isinstance(v, str), v if isinstance(v, int) else 0, str(v)))
    return replace(bare, weights=weights, chi_orb=None, wrv=tuple(wrv))


def enumerate_domestic() -> list[ZooEntry]:
    """The domestic zoo: the weightless bases with chi'_orb > 0 and the
    weighted families on them.

    Parametric families use the symbols p, q, n (all ranging over
    integers >= 2); instantiate_domestic turns one into an honest curve.
    """
    entries = []
    for name, chi in _bases():
        if chi > 0:
            bare, places = _entry_for(name, ()), _places(name)
            entries.append(bare)
            entries.extend(_family_entry(bare, places, ws) for ws in _DOMESTIC_FAMILIES[name])
    return sorted(entries, key=entry_key)


def instantiate_domestic(entry: ZooEntry, assignments: dict[str, int] | None = None) -> WeightedCurve:
    """Substitute numeric weights for a family's parameters and build the curve."""
    assignments = assignments or {}
    weights = []
    for cls, w in entry.weights:
        if isinstance(w, str):
            if w not in assignments:
                raise ValidationError(f"no value given for parameter {w}", code="parameter")
            w = assignments[w]
        if not isinstance(w, int) or w < 2:
            raise ValidationError("weights must be integers >= 2", code="weight")
        weights.append((cls, w))
    return _build_curve(entry.base, tuple(weights))


# ---------------------------------------------------------------------------
# Reporting

def _fmt_weights(weights: Weights) -> str:
    return "{" + ", ".join(f"{cls}:{w}" for cls, w in weights) + "}"


def _fmt_vector(vector: tuple) -> str:
    return "(" + ",".join(str(v) for v in vector) + ")"


def zoo_report(entries) -> str:
    """Aligned text table, deterministically ordered by base then weights."""
    headers = ("base", "weights", "class", "chi'", "s", "WRV", "tau", "CY")
    rows = []
    for e in sorted(entries, key=entry_key):
        rows.append(
            (
                e.base,
                _fmt_weights(e.weights),
                e.curve_class.value,
                "-" if e.chi_orb is None else str(e.chi_orb),
                str(e.skewness),
                _fmt_vector(e.wrv),
                str(e.tau_order) if e.tau_order is not None else "-",
                f"{e.cy[0]}/{e.cy[1]}" if e.cy is not None else "-",
            )
        )
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))).rstrip())
    return "\n".join(lines)
