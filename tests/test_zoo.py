from collections import Counter
from functools import cache
from itertools import permutations, product

import pytest

import wittcurves.weighted_curve as wc
from wittcurves import zoo
from wittcurves.errors import ValidationError
from wittcurves.local_data import SHORT_NAMES, WittPointClass
from wittcurves.weighted_curve import (
    COMPLEX_POINT,
    TUBULAR_VECTORS,
    CurveClass,
    WeightedCurve,
    WeightedPoint,
    classify,
    curve_profile,
    orbifold_euler,
)
from wittcurves.witt_surface import CATALOG_NAMES, catalog
from wittcurves.zoo import (
    ZooEntry,
    entry_key,
    enumerate_chi_zero,
    enumerate_domestic,
    instantiate_domestic,
    zoo_report,
)


def test_headline_counts():
    entries = enumerate_chi_zero()
    assert len(entries) == 39
    by_class = Counter(e.curve_class for e in entries)
    assert by_class[CurveClass.ELLIPTIC] == 8
    assert by_class[CurveClass.TUBULAR] == 31


def test_tubular_counts_per_base():
    tubular = [e for e in enumerate_chi_zero() if e.curve_class is CurveClass.TUBULAR]
    per_base = Counter(e.base for e in tubular)
    assert per_base == {"D": 8, "RP2": 1, "D_H": 8, "D_22": 10, "S2_C": 4}


def test_tubular_centre_split():
    tubular = [e for e in enumerate_chi_zero() if e.curve_class is CurveClass.TUBULAR]
    centres = Counter(e.centre for e in tubular)
    assert centres == {"R": 27, "C": 4}


def test_skewness_split():
    entries = enumerate_chi_zero()
    skew = Counter(e.skewness for e in entries)
    assert skew == {1: 17, 2: 22}


def test_elliptic_entries_are_the_weightless_genus_one_bases():
    elliptic = [e for e in enumerate_chi_zero() if e.curve_class is CurveClass.ELLIPTIC]
    assert sorted(e.base for e in elliptic) == [
        "A", "A_HH", "A_RH", "D_2222", "K", "M", "M_H", "T_C",
    ]
    assert all(e.weights == () for e in elliptic)


# The completeness oracle: a brute force over small configurations on every
# catalog base, sharing nothing with the zoo's search but the profiles.
ORACLE_WEIGHTS = range(2, 7)
ORACLE_WRV_LENGTH = 4
_ORACLE_CLASSES = (
    WittPointClass.INNER,
    WittPointClass.REAL_BOUNDARY,
    WittPointClass.QUATERNION_BOUNDARY,
    COMPLEX_POINT,
)
_ORACLE_NAMES = SHORT_NAMES | {COMPLEX_POINT: "point"}


def _accepts(base, location) -> bool:
    try:
        WeightedCurve(base, (WeightedPoint(location, 2),))
    except ValidationError:
        return False
    return True


@cache
def oracle_configurations() -> dict[tuple, object]:
    """chi'_orb >= 0 of every weighted configuration on a catalog base with
    weights in ORACLE_WEIGHTS and at most ORACLE_WRV_LENGTH entries in its
    weight-ramification vector, keyed by base and sorted weight multiset."""
    seg = WittPointClass.SEGMENTATION
    found = {}
    for name in CATALOG_NAMES:
        base = catalog(name)
        slots = [(oi, si) for oi, oval in enumerate(getattr(base, "ovals", ())) for si in range(len(oval.segments))]
        locations = [seg] if slots else []
        locations += [loc for loc in _ORACLE_CLASSES if _accepts(base, loc)]
        items = [(loc, p) for loc in locations for p in ORACLE_WEIGHTS]

        def extend(chosen, start):
            for k in range(start, len(items)):
                config = chosen + [items[k]]
                if sum(loc is seg for loc, _ in config) > len(slots):
                    continue
                segs = iter(slots)
                points = tuple(WeightedPoint(loc, p, *(next(segs) if loc is seg else ())) for loc, p in config)
                profile = curve_profile(WeightedCurve(base, points))
                # a further weight lowers chi'_orb and never shortens the vector
                if profile.chi_orb < 0 or len(profile.weight_ram_vector) > ORACLE_WRV_LENGTH:
                    continue
                weights = tuple(sorted((_ORACLE_NAMES[loc], p) for loc, p in config))
                assert (name, weights) not in found
                found[name, weights] = profile.chi_orb
                extend(config, k)

        extend([], 0)
    return found


def test_oracle_finds_exactly_the_tubular_entries():
    zero = {key for key, chi in oracle_configurations().items() if chi == 0}
    tubular = [
        (e.base, tuple(sorted(e.weights)))
        for e in enumerate_chi_zero()
        if e.curve_class is CurveClass.TUBULAR
    ]
    assert len(set(tubular)) == len(tubular) == 31
    assert zero == set(tubular)


def _instantiates(weights, family) -> bool:
    """Whether a numeric weight multiset is an instance of a family."""
    for order in set(permutations(weights)):
        values = {}
        if all(
            cls == fcls and (w == fw if isinstance(fw, int) else values.setdefault(fw, w) == w)
            for (cls, w), (fcls, fw) in zip(order, family)
        ):
            return True
    return False


def test_oracle_domestic_configurations_are_family_instances():
    families = {}
    for e in enumerate_domestic():
        families.setdefault(e.base, []).append(e.weights)
    positive = [key for key, chi in oracle_configurations().items() if chi > 0]
    assert len(positive) == 153
    for base, weights in positive:
        assert any(
            len(f) == len(weights) and _instantiates(weights, f) for f in families[base]
        ), (base, weights)


def test_small_family_instances_are_domestic():
    for entry in enumerate_domestic():
        symbols = sorted({w for _, w in entry.weights if isinstance(w, str)})
        for values in product(range(2, 5), repeat=len(symbols)):
            c = instantiate_domestic(entry, dict(zip(symbols, values)))
            assert classify(c) is CurveClass.DOMESTIC
            assert orbifold_euler(c) > 0


def test_enumeration_is_deterministic():
    first = enumerate_chi_zero()
    second = enumerate_chi_zero()
    assert first == second
    assert zoo_report(first) == zoo_report(second)
    assert [entry_key(e) for e in first] == sorted(entry_key(e) for e in first)


def test_tubular_entries_are_internally_consistent():
    for e in enumerate_chi_zero():
        if e.curve_class is CurveClass.TUBULAR:
            assert e.chi_orb == 0
            assert e.wrv in TUBULAR_VECTORS
            assert e.cy == (e.tau_order, e.tau_order)


def test_report_layout():
    entries = enumerate_chi_zero()
    lines = zoo_report(entries).splitlines()
    assert len(lines) == 2 + 39
    assert lines[0].split() == ["base", "weights", "class", "chi'", "s", "WRV", "tau", "CY"]
    assert set(lines[1]) <= {"-", " "}
    body = "\n".join(lines[2:])
    assert "{seg:3, real:3}" in body
    assert "{inner:2, inner:2}" in body
    d22_row = next(l for l in lines if "{seg:3, real:3}" in l)
    assert "6/6" in d22_row and "(2,3,6)" in d22_row
    rp2_row = next(l for l in lines if l.startswith("RP2"))
    assert "{inner:2, inner:2}" in rp2_row and "2/2" in rp2_row


def test_domestic_families():
    dom = enumerate_domestic()
    assert len(dom) == 38
    assert all(e.curve_class is CurveClass.DOMESTIC for e in dom)
    weightless = [e for e in dom if not e.weights]
    assert sorted(e.base for e in weightless) == ["D", "D_22", "D_H", "RP2", "S2_C"]
    weighted = [e for e in dom if e.weights]
    centres = Counter(e.centre for e in weighted)
    assert centres == {"R": 27, "C": 6}


def test_domestic_families_instantiate():
    filled = {"p": 5, "q": 7, "n": 9}
    for entry in enumerate_domestic():
        if not entry.weights:
            continue
        c = instantiate_domestic(entry, filled)
        assert classify(c) is CurveClass.DOMESTIC
        assert orbifold_euler(c) > 0


def test_instantiation_checks_parameters():
    symbolic = next(
        e for e in enumerate_domestic()
        if any(isinstance(w, str) for _, w in e.weights)
    )
    with pytest.raises(ValidationError) as exc:
        instantiate_domestic(symbolic, {})
    assert exc.value.code == "parameter"
    with pytest.raises(ValidationError) as exc:
        instantiate_domestic(symbolic, {"p": 1, "q": 1, "n": 1})
    assert exc.value.code == "weight"


def test_single_segment_family_value():
    entry = next(
        e for e in enumerate_domestic()
        if e.base == "D_22" and e.weights == (("seg", "p"),)
    )
    c = instantiate_domestic(entry, {"p": 5})
    from wittcurves.weighted_curve import weight_ram_vector

    assert weight_ram_vector(c) == (2, 10)


def test_zoo_entries_are_frozen_records():
    entry = enumerate_chi_zero()[0]
    assert isinstance(entry, ZooEntry)
    with pytest.raises(AttributeError):
        entry.base = "X"



def test_reading_the_places_of_a_base_validates_it_once(monkeypatch):
    validated, built = [], []
    real_validate, real_build = wc.validate, zoo._build_curve
    monkeypatch.setattr(wc, "validate", lambda base: validated.append(base) or real_validate(base))
    monkeypatch.setattr(zoo, "_build_curve", lambda *args: built.append(args) or real_build(*args))
    for enumerate_ in (enumerate_chi_zero, enumerate_domestic):
        validated.clear()
        built.clear()
        enumerate_()
        # each entry's curve validates its base; so does each of the five
        # bases with chi'_orb > 0 (D, RP2, D_H, D_22, S2_C), once
        assert len(validated) == len(built) + 5
