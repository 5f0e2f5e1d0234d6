"""Enumeration of the real weighted curves with nonnegative orbifold characteristic.

Nothing here lists bases, placements, weights or families; all is read off
the catalog, validation, the point shapes and, for each entry, the profile
its curve keeps (curve.profile), by one search.
The catalog bases whose weightless curve has chi'_orb = 0 are the elliptic
entries; those with chi'_orb > 0 (D, RP2, D_H, D_22, S2_C) carry weights.
A placement class belongs to a base when the per-point part of validation
accepts a weight of that class on it, and the point shapes of
weighted_curve give its e_tau and residue degree f. The segmentation
points of a base are slots for one entry each.

A pattern is a multiset of entries: an int weight p >= 2, which lowers
chi'_orb by c (1 - 1/p) with share c = f / (2 e_tau), or a symbol, which
lowers it by all of c. A pattern is in the zoo when its drops add up to at
most the weightless chi'_orb and no int weight could become a symbol and
still fit. The exact patterns, with no symbol and drops adding up to
chi'_orb, are the tubular entries; the others are the domestic families,
the empty one being the weightless base. An entry drops at least c/2,
which bounds the entries per place; for fixed counts the int weights,
by c/p in decreasing order, reach sum c - chi'_orb with the last one, the
rest being symbols, and the largest of m terms left is at least 1/m of
what is left, which bounds each weight. So the search is complete for
every weight. It runs on integers over one common denominator, comparing
fractions by cross-multiplying. Each base is searched once, and both
enumerations read the cached patterns. Each catalog surface is checked
on its first read, for its chi'; its slots, its placements and the
curves built on it, and a second enumeration, ask its kept reading.

A family lists its entries place by place, ints ascending, then symbols
named p, q in turn; the one hand-written rule is that a lone symbol with
vector (2, 2, n) is named n, after Geigle-Lenzing. Weights are recorded
per placement class as multisets, which identifies configurations up to
the colour-preserving symmetries of the base (a reflection swaps the two
segmentation points of the segmented disc). Placement classes go by the
short names of local_data, and every entry, tubular or domestic, writes
its weights in the one order of that table: segmentation slots, inner,
real, quat, point, and in each class ints ascending before symbols.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm

from .errors import Record, ValidationError, _tuple_new
from .local_data import SHORT_NAMES, WittPointClass
from .weighted_curve import (
    WeightedCurve,
    WeightedPoint,
    _SEGMENTATION_SHAPE,
    _validate_placement,
)
from .witt_surface import CATALOG_NAMES, catalog, euler_characteristics, read_base

_LOCATION = {short: cls for cls, short in SHORT_NAMES.items()}
# membership of the tuple of short names compares and does not hash, so an
# unhashable class goes to the check as an unknown one does
_SHORT = tuple(_LOCATION)
_SEG = SHORT_NAMES[WittPointClass.SEGMENTATION]
# the one order of weights: by class in the order of SHORT_NAMES, and in
# each class ints ascending before symbols
_RANK = {short: r for r, short in enumerate(_LOCATION)}

# a weight entry is (placement class, p) with p an int, or a parameter
# name for the symbolic domestic families
Weights = tuple[tuple[str, object], ...]


class ZooEntry(Record):
    __slots__ = ()

    def __new__(cls, base, weights, curve_class, chi_orb, skewness, wrv, tau_order, cy, centre):
        return _tuple_new(cls, (base, weights, curve_class, chi_orb, skewness, wrv, tau_order, cy, centre))


def _weight_key(pair):
    cls, w = pair
    return _RANK[cls], isinstance(w, str), w


def entry_key(entry: ZooEntry):
    return (entry.base, len(entry.weights), tuple(_weight_key(p) for p in entry.weights))


def _build_curve(base_name: str, weights: Weights) -> WeightedCurve:
    base = catalog(base_name)
    slots = iter(read_base(base).points)
    pts = []
    # an unknown class goes to the check as its own location, and a
    # segmentation weight past the slots with no indices: both are refused
    for cls, w in weights:
        location = _LOCATION[cls] if cls in _SHORT else cls
        oval, segment = next(slots, (None, None)) if cls == _SEG else (None, None)
        pts.append(WeightedPoint(location, w, oval, segment))
    return WeightedCurve(base, tuple(pts))


def _entry_for(base_name: str, weights: Weights) -> ZooEntry:
    profile = _build_curve(base_name, weights).profile
    chi = profile.chi_orb
    order = None if chi.numerator else profile.tau_order()
    return ZooEntry(
        base=base_name,
        weights=weights,
        curve_class=profile.curve_class(),
        chi_orb=chi,
        skewness=profile.numerics.skewness,
        wrv=profile.weight_ram_vector,
        tau_order=order,
        cy=(order, order) if order is not None else None,
        centre=profile.numerics.centre,
    )


def _bases():
    """Each catalog name with the chi'_orb of its weightless curve: chi' of
    the base, since no weight enters the split route."""
    return [(name, euler_characteristics(catalog(name))[1]) for name in CATALOG_NAMES]


def _places(base_name: str) -> dict[str, tuple[int, int, int | None]]:
    """(e_tau, f, most weights) of every place on a base: its segmentation
    points, one weight each, and any number of weights of every other
    class that validation accepts on the base, all asked of one reading."""
    reading = read_base(catalog(base_name))
    slots = len(reading.points)
    places = {_SEG: (*_SEGMENTATION_SHAPE[2:], slots)} if slots else {}
    for name, location in _LOCATION.items():
        if name == _SEG:
            continue  # segmentation weights go on the slots
        try:
            shape = _validate_placement(reading, WeightedPoint(location, 2))
        except ValidationError:
            continue
        places[name] = (*shape[2:], None)
    return places


# ---------------------------------------------------------------------------
# The search

def _fill(shares, counts, tn, td, bound):
    """Weights p >= 2, at most counts[i] of them at share shares[i][1], in
    decreasing order of (c/p, -i) up to bound, whose sum c/p reaches tn/td
    with the last weight; each with the counts left over, which become
    symbols, and whether it is exact: the sum is tn/td and none are left.

    The shares c are ints, the target is the fraction tn/td and bound
    (bc, bp, bi) stands for the key (bc/bp, -bi); every comparison of
    fractions is made by cross-multiplying."""
    m = sum(counts)
    bc, bp, bi = bound
    for i, (name, c) in enumerate(shares):
        if not counts[i]:
            continue
        left = counts[:i] + (counts[i] - 1,) + counts[i + 1:]
        # c/p is at most the bound, and the largest of the at most m
        # weights left is at least target / m
        for p in range(max(2, -(-c * bp // bc)), c * m * td // tn + 1):
            # so (c/p, -i) passes the bound unless the two tie and i comes first
            if c * bp == bc * p and i < bi:
                continue
            rn, rd = tn * p - c * td, td * p  # the target less c/p
            if rn <= 0:
                yield ((name, p),), left, rn == 0 and m == 1
            elif m > 1:
                for tail, rest, exact in _fill(shares, left, rn, rd, (c, p, i)):
                    yield ((name, p),) + tail, rest, exact


def _search(budget: Fraction, places) -> list:
    """Every pattern on the places that fits the budget, as its int weights,
    the number of symbols at each place and whether it is exact."""
    # the shares f / (2 e_tau) and the budget as ints over one denominator
    d = lcm(budget.denominator, *(2 * e_tau for e_tau, _, _ in places.values()))
    shares = [(name, f * d // (2 * e_tau)) for name, (e_tau, f, _) in places.items()]
    b = budget.numerator * (d // budget.denominator)
    # an entry drops at least half its share
    most = [min(n := 2 * b // c, slots or n) for (_, c), (_, _, slots) in zip(shares, places.values())]
    found = []
    for counts in product(*(range(n + 1) for n in most)):
        # the int weights of a pattern on these counts drop total - sum c/p
        total = sum(n * c for n, (_, c) in zip(counts, shares))
        if total <= b:
            found.append(((), counts, total == b == 0))
        elif total <= 2 * b:
            found.extend(_fill(shares, counts, total - b, 1, (total, 1, 0)))
    return found


@cache
def _zoo(name: str, budget: Fraction):
    """The places of a weighted base and every pattern that fits its budget,
    searched once for both enumerations."""
    places = _places(name)
    return places, _search(budget, places)


def enumerate_chi_zero() -> list[ZooEntry]:
    """All curves with chi'_orb = 0: the weightless bases with chi'_orb = 0
    plus the exact patterns on the bases with chi'_orb > 0."""
    entries = []
    for name, chi in _bases():
        if not chi.numerator:
            entries.append(_entry_for(name, ()))
        elif chi.numerator > 0:
            patterns = _zoo(name, chi)[1]
            entries.extend(_entry_for(name, tuple(sorted(ws, key=_weight_key))) for ws, _, exact in patterns if exact)
    return sorted(entries, key=entry_key)


def _family_entry(bare: ZooEntry, places, ints: Weights, left) -> ZooEntry:
    """The family of a pattern: its entries in the one order of weights,
    which is the order of its places, ints ascending before symbols; the
    symbols are named p, q, ... in turn, or n when the lone symbol of a
    vector (2, 2, n). A weight w at a place of (e_tau, f) adds w * e_tau
    to the vector f times, a symbol e_tau times its name, and a free
    segmentation slot counts as weight 1."""
    names = iter("pqrstuvwxyz")
    weights = ints + tuple((cls, next(names)) for cls, k in zip(places, left) for _ in range(k))
    weights = sorted(weights, key=_weight_key)
    if not any(left):
        return _entry_for(bare.base, tuple(weights)) if weights else bare
    free = places[_SEG][2] - sum(cls == _SEG for cls, _ in weights) if _SEG in places else 0
    vector, symbols = [], []
    for cls, w in weights + [(_SEG, 1)] * free:
        e_tau, f, _ = places[cls]
        if isinstance(w, str):
            symbols += [f"{e_tau}{w}" if e_tau > 1 else w] * f
        elif w * e_tau > 1:
            vector += [w * e_tau] * f
    if symbols == ["p"] and sorted(vector) == [2, 2]:
        symbols, weights = ["n"], [(cls, "n" if w == "p" else w) for cls, w in weights]
    return bare._replace(weights=tuple(weights), chi_orb=None, wrv=tuple(sorted(vector) + sorted(symbols)))


def enumerate_domestic() -> list[ZooEntry]:
    """The domestic zoo: every pattern on a base with chi'_orb > 0 but the
    exact ones, the empty pattern being the weightless base.

    Symbols range over the integers >= 2; instantiate_domestic turns a
    family into an honest curve."""
    entries = []
    for name, chi in _bases():
        if chi.numerator > 0:
            places, patterns = _zoo(name, chi)
            bare = _entry_for(name, ())
            entries.extend(_family_entry(bare, places, ws, left) for ws, left, exact in patterns if not exact)
    return sorted(entries, key=entry_key)


def instantiate_domestic(entry: ZooEntry, assignments: dict[str, int] | None = None) -> WeightedCurve:
    """Substitute numeric weights for a family's parameters, and no others,
    and build the curve. An entry that is no ZooEntry, and weights that
    are not (class, weight) pairs, are refused with code "placement", as a
    weight of an unknown class is; assignments that are neither None nor a
    dict, with code "parameter"."""
    if not isinstance(entry, ZooEntry):
        raise ValidationError(f"a family must be a ZooEntry, got {type(entry).__name__}", code="placement")
    if assignments is not None and not isinstance(assignments, dict):
        raise ValidationError(f"assignments must be a dict, got {type(assignments).__name__}", code="parameter")
    assignments = assignments or {}
    try:
        pairs = [(cls, w) for cls, w in entry.weights]
    except (TypeError, ValueError):
        raise ValidationError(f"weights must be (class, weight) pairs, got {entry.weights!r}", code="placement") from None
    unknown = set(assignments) - {w for _, w in pairs if isinstance(w, str)}
    if unknown:
        raise ValidationError(f"the family has no parameter {', '.join(sorted(map(str, unknown)))}", code="parameter")
    weights = []
    for cls, w in pairs:
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
