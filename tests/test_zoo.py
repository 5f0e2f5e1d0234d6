from collections import Counter

import pytest

from wittcurves.errors import ValidationError
from wittcurves.weighted_curve import TUBULAR_VECTORS, CurveClass, classify, orbifold_euler
from wittcurves.zoo import (
    TUBULAR_BASE_NAMES,
    ZooEntry,
    _raw_tubular_configs,
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
    assert set(per_base) == set(TUBULAR_BASE_NAMES)


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


def test_labelled_enumeration_overcounts():
    entries = enumerate_chi_zero()
    elliptic = [e for e in entries if e.curve_class is CurveClass.ELLIPTIC]
    labelled = len(elliptic) + sum(len(_raw_tubular_configs(name)) for name in TUBULAR_BASE_NAMES)
    assert labelled == 43
    assert labelled > len(entries)


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
    assert len(dom) == 36
    assert all(e.curve_class is CurveClass.DOMESTIC for e in dom)
    weightless = [e for e in dom if not e.weights]
    assert sorted(e.base for e in weightless) == ["D", "D_22", "D_H", "RP2", "S2_C"]
    weighted = [e for e in dom if e.weights]
    centres = Counter(e.centre for e in weighted)
    assert centres == {"R": 27, "C": 4}


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
