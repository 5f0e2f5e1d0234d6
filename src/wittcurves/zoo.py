"""Enumeration of the real weighted curves with nonnegative orbifold characteristic.

The chi' = 0 zoo is finite: 8 elliptic curves (the weightless genus-one
bases) and 31 tubular ones, found by distributing weights over the five
genus-zero-centre bases until the weight-ramification vector hits one of
the four tubular vectors. The domestic zoo is a list of families with
symbolic weight parameters.

Configurations are identified up to the colour-preserving symmetries of
the base surface; concretely, weights are recorded per placement class as
multisets (the two segmentation points of the segmented disc are swapped
by a reflection, so only the multiset of their weights matters).

Each entry is read from one CurveProfile of its curve, so an entry runs
the cross-checked orbifold characteristic once. Placement classes go by
the short names of local_data, plus "point" on a complex-centre base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product

from .errors import ValidationError
from .local_data import SHORT_NAMES, WittPointClass
from .weighted_curve import (
    COMPLEX_POINT,
    TUBULAR_VECTORS,
    CurveClass,
    WeightedCurve,
    WeightedPoint,
    curve_profile,
)
from .witt_surface import CATALOG_NAMES, catalog, genus

# the genus-zero-centre bases: the tubular search runs over them, and their
# weightless curves open the domestic zoo
TUBULAR_BASE_NAMES = ("D", "RP2", "D_H", "D_22", "S2_C")

_PLACEMENT_CLASSES = {
    "D": ("inner", "real"),
    "RP2": ("inner",),
    "D_H": ("inner", "quat"),
    "D_22": ("inner", "real", "quat"),
    "S2_C": ("point",),
}
_SEG_SLOTS = {"D_22": ((0, 0), (0, 1))}
_LOCATION = {short: cls for cls, short in SHORT_NAMES.items()} | {"point": COMPLEX_POINT}
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


def _canonical_weights(seg_weights, class_weights) -> Weights:
    pairs = [("seg", w) for w in seg_weights if w > 1]
    for cls, ws in class_weights:
        pairs.extend((cls, w) for w in ws)
    return tuple(sorted(pairs, key=_weight_key))


def _build_curve(base_name: str, weights: Weights) -> WeightedCurve:
    base = catalog(base_name)
    slots = iter(_SEG_SLOTS.get(base_name, ()))
    pts = []
    for cls, w in weights:
        if cls == "seg":
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


# ---------------------------------------------------------------------------
# The tubular search

def _class_multisets(cls: str, budget: int):
    per_weight = 2 if cls == "inner" else 1
    for size in range(budget // per_weight + 1):
        yield from combinations_with_replacement(range(2, 7), size)


def _raw_tubular_configs(base_name: str):
    """Labeled weight configurations on one base whose vector is tubular.

    Segmentation slots are assigned individually here (weight 1 means no
    insertion); the caller collapses symmetric assignments.
    """
    classes = _PLACEMENT_CLASSES[base_name]
    slots = _SEG_SLOTS.get(base_name, ())
    found = []
    for seg_weights in product((1, 2, 3), repeat=len(slots)):
        base_entries = tuple(2 * w for w in seg_weights)
        budget = 4 - len(base_entries)
        if budget < 0:
            continue

        def extend(index, entries, chosen):
            if index == len(classes):
                vector = tuple(sorted(base_entries + entries))
                if vector in TUBULAR_VECTORS:
                    found.append((seg_weights, tuple(chosen)))
                return
            cls = classes[index]
            copies = 2 if cls == "inner" else 1
            remaining = budget - len(entries)
            for ws in _class_multisets(cls, remaining):
                contribution = tuple(sorted(w for w in ws for _ in range(copies)))
                extend(index + 1, entries + contribution, chosen + [(cls, ws)])

        extend(0, (), [])
    return found


def enumerate_chi_zero() -> list[ZooEntry]:
    """All curves with chi'_orb = 0: the weightless genus-one bases plus
    every tubular weight configuration on a genus-zero-centre base."""
    entries = []
    for name in sorted(n for n in CATALOG_NAMES if genus(catalog(n)) == 1):
        entries.append(_entry_for(name, ()))
    for base_name in TUBULAR_BASE_NAMES:
        weight_lists = sorted(
            {_canonical_weights(sw, cw) for sw, cw in _raw_tubular_configs(base_name)},
            key=lambda ws: tuple(_weight_key(p) for p in ws),
        )
        entries.extend(_entry_for(base_name, ws) for ws in weight_lists)
    return sorted(entries, key=entry_key)


# ---------------------------------------------------------------------------
# The domestic zoo

def _boundary_families(cls: str) -> list[Weights]:
    return [
        ((cls, "p"),),
        ((cls, "p"), (cls, "q")),
        ((cls, 2), (cls, 2), (cls, "n")),
        ((cls, 2), (cls, 3), (cls, 3)),
        ((cls, 2), (cls, 3), (cls, 4)),
        ((cls, 2), (cls, 3), (cls, 5)),
        (("inner", "p"),),
        (("inner", 2), (cls, "n")),
        (("inner", 3), (cls, 2)),
    ]


_DOMESTIC_FAMILIES: dict[str, list[Weights]] = {
    "D": _boundary_families("real"),
    "D_H": _boundary_families("quat"),
    "RP2": [(("inner", "p"),)],
    "D_22": [
        (("seg", "p"),),
        (("seg", "p"), ("seg", "q")),
        (("real", "n"),),
        (("quat", "n"),),
        (("seg", "p"), ("real", 2)),
        (("seg", "p"), ("quat", 2)),
        (("seg", 2), ("real", 3)),
        (("seg", 2), ("quat", 3)),
    ],
    # over the complex numbers the listed weight types are (p,q), (2,2,n),
    # (2,3,3) and (2,3,5)
    "S2_C": [
        (("point", "p"), ("point", "q")),
        (("point", 2), ("point", 2), ("point", "n")),
        (("point", 2), ("point", 3), ("point", 3)),
        (("point", 2), ("point", 3), ("point", 5)),
    ],
}


def _symbolic_wrv(base_name: str, weights: Weights) -> tuple:
    entries: list[object] = []
    if base_name == "D_22":
        entries.extend([2] * (2 - sum(1 for cls, _ in weights if cls == "seg")))
    for cls, w in weights:
        if cls == "seg":
            entries.append(2 * w if isinstance(w, int) else f"2{w}")
        elif cls == "inner":
            entries.extend([w, w])
        else:
            entries.append(w)
    return tuple(sorted(entries, key=lambda v: (isinstance(v, str), v if isinstance(v, int) else 0, str(v))))


def _family_entry(base_name: str, weights: Weights) -> ZooEntry:
    if all(isinstance(w, int) for _, w in weights):
        return _entry_for(base_name, weights)
    profile = curve_profile(_build_curve(base_name, ()))
    return ZooEntry(
        base=base_name,
        weights=weights,
        curve_class=CurveClass.DOMESTIC,
        chi_orb=None,
        skewness=profile.skewness,
        wrv=_symbolic_wrv(base_name, weights),
        tau_order=None,
        cy=None,
        centre=profile.centre,
    )


def enumerate_domestic() -> list[ZooEntry]:
    """The domestic zoo: five weightless curves and the weighted families.

    Parametric families use the symbols p, q, n (all ranging over
    integers >= 2); instantiate_domestic turns one into an honest curve.
    """
    entries = [_entry_for(name, ()) for name in TUBULAR_BASE_NAMES]
    for base_name, families in _DOMESTIC_FAMILIES.items():
        entries.extend(_family_entry(base_name, ws) for ws in families)
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
    if not weights:
        return "{}"
    return "{" + ", ".join(f"{cls}:{w}" for cls, w in weights) + "}"


def _fmt_rational(value: Fraction | None) -> str:
    if value is None:
        return "-"
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _fmt_vector(vector: tuple) -> str:
    if not vector:
        return "()"
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
                _fmt_rational(e.chi_orb),
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
