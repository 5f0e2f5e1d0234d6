import copy
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import permutations, product

import pytest

import wittcurves.weighted_curve as wc
import wittcurves.witt_surface as ws
from wittcurves import zoo
from wittcurves.errors import ValidationError
from wittcurves.local_data import SHORT_NAMES, WittPointClass
from wittcurves.weighted_curve import (
    COMPLEX_POINT,
    CurveClass,
    WeightedCurve,
    WeightedPoint,
    classify,
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

# the weight-ramification vectors of the tubular curves
TUBULAR_VECTORS = {(2, 2, 2, 2), (2, 3, 6), (2, 4, 4), (3, 3, 3)}


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
                profile = WeightedCurve(base, points).profile
                # a further weight lowers chi'_orb and never shortens the vector
                if profile.chi_orb < 0 or len(profile.weight_ram_vector) > ORACLE_WRV_LENGTH:
                    continue
                weights = tuple(sorted((SHORT_NAMES[loc], p) for loc, p in config))
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


def _drop(places, cls, w) -> Fraction:
    """What an entry takes from chi'_orb: c (1 - 1/p) for a weight p and
    the full share c = f / (2 e_tau) for a symbol."""
    e_tau, f, _ = places[cls]
    share = Fraction(f, 2 * e_tau)
    return share if isinstance(w, str) else share * (1 - Fraction(1, w))


def test_domestic_families_fit_and_no_weight_can_become_a_symbol():
    budgets = dict(zoo._bases())
    for e in enumerate_domestic():
        places, budget = zoo._places(e.base), budgets[e.base]
        drops = [_drop(places, cls, w) for cls, w in e.weights]
        if any(isinstance(w, str) for _, w in e.weights):
            assert sum(drops) <= budget, e
        else:
            assert sum(drops) < budget and e.chi_orb == budget - sum(drops), e
        for k, (cls, w) in enumerate(e.weights):
            if isinstance(w, int):
                raised = sum(drops) - drops[k] + _drop(places, cls, "x")
                assert raised > budget, (e, cls, w)


def test_one_search_serves_both_zoos(monkeypatch):
    searched = []
    real_search = zoo._search
    monkeypatch.setattr(zoo, "_search", lambda *args: searched.append(args) or real_search(*args))
    zoo._zoo.cache_clear()
    try:
        enumerate_chi_zero()
        enumerate_domestic()
    finally:
        zoo._zoo.cache_clear()  # drop the patterns of the wrapped search
    assert len(searched) == 5  # D, RP2, D_H, D_22 and S2_C


def test_domestic_families_instantiate():
    filled = {"p": 5, "q": 7, "n": 9}
    for entry in enumerate_domestic():
        if not entry.weights:
            continue
        c = instantiate_domestic(entry, {w: filled[w] for _, w in entry.weights if isinstance(w, str)})
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
        instantiate_domestic(symbolic, {w: 1 for _, w in symbolic.weights if isinstance(w, str)})
    assert exc.value.code == "weight"


def test_instantiation_refuses_parameters_the_family_does_not_have():
    one = next(e for e in enumerate_domestic() if e.base == "D" and e.weights == (("real", "p"),))
    assert instantiate_domestic(one, {"p": 3}).profile.weight_ram_vector == (3,)
    bare = next(e for e in enumerate_domestic() if e.base == "D" and not e.weights)
    for entry, assignments, named in ((one, {"p": 3, "q": 99, "zz": "junk"}, "q, zz"), (bare, {"n": 7}, "n")):
        with pytest.raises(ValidationError) as exc:
            instantiate_domestic(entry, assignments)
        assert exc.value.code == "parameter"
        assert str(exc.value) == f"the family has no parameter {named}"


def test_instantiation_refuses_weights_off_the_places_of_the_base():
    bare = next(e for e in enumerate_domestic() if e.base == "D" and not e.weights)
    # an unknown class, and a third segmentation weight on the two slots of D_22
    for entry in (bare._replace(weights=(("bogus", 2),)), bare._replace(base="D_22", weights=(("seg", 2),) * 3)):
        with pytest.raises(ValidationError) as exc:
            instantiate_domestic(entry)
        assert exc.value.code == "placement"


def test_instantiation_refuses_what_is_no_family_or_no_assignment_dict():
    family = next(e for e in enumerate_domestic() if e.base == "D" and e.weights == (("inner", "p"),))
    for assignments in (5, [["n"]], ["p"], "p"):
        with pytest.raises(ValidationError) as exc:
            instantiate_domestic(family, assignments)
        assert exc.value.code == "parameter", assignments
    for entry in ("abc", None, ("D", ())):
        with pytest.raises(ValidationError) as exc:
            instantiate_domestic(entry, {"p": 3})
        assert exc.value.code == "placement", entry


def test_every_entry_writes_its_weights_in_the_one_order():
    """By class in the order of SHORT_NAMES (seg, inner, real, quat,
    point), ints ascending before symbols."""
    rank = list(SHORT_NAMES.values())
    assert rank == ["seg", "inner", "real", "quat", "point"]
    for entry in enumerate_chi_zero() + enumerate_domestic():
        keys = [(rank.index(cls), isinstance(w, str), w) for cls, w in entry.weights]
        assert keys == sorted(keys), entry


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



def test_each_curve_a_zoo_builds_is_checked_with_one_read_of_its_base(monkeypatch):
    validated, built = [], []
    real_validate, real_build = wc.read_base, zoo._build_curve
    monkeypatch.setattr(wc, "read_base", lambda base: validated.append(base) or real_validate(base))
    monkeypatch.setattr(zoo, "_build_curve", lambda *args: built.append(args) or real_build(*args))
    for enumerate_ in (enumerate_chi_zero, enumerate_domestic):
        validated.clear()
        built.clear()
        enumerate_()
        # the check of each entry's curve reads its base once
        assert len(validated) == len(built)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_the_places_of_a_base_are_asked_of_one_reading(monkeypatch, name):
    reads = []
    real_read = zoo.read_base
    monkeypatch.setattr(zoo, "read_base", lambda base: reads.append(base) or real_read(base))
    monkeypatch.setattr(wc, "read_base", lambda base: pytest.fail("a placement probe checked a curve"))
    zoo._places(name)
    assert reads == [catalog(name)]


@pytest.mark.parametrize("enumerate_", [enumerate_chi_zero, enumerate_domestic])
def test_a_zoo_reads_each_catalog_surface_once(monkeypatch, enumerate_):
    # on catalog surfaces built afresh, the first enumeration counts the
    # ovals of each real one once, for its chi'; the curves built on it,
    # their reports and classifications, and a second enumeration count none
    fresh = {name: copy.copy(base) for name, base in ws._CATALOG.items()}
    real = [w for w in fresh.values() if isinstance(w, ws.WittSurface)]
    assert len(real) == 11 and not {id(w) for w in real} & {id(w) for w in ws._CATALOG.values()}
    monkeypatch.setattr(ws, "_CATALOG", fresh)
    counted = []
    real_counts = ws.counts
    monkeypatch.setattr(ws, "counts", lambda w: counted.append(w) or real_counts(w))
    enumerate_()
    assert len(counted) == 11 and {id(w) for w in counted} == {id(w) for w in real}
    counted.clear()
    enumerate_()
    assert counted == []
