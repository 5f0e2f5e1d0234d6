"""The semantics of every public record class.

A plain record is a Record and one that checks, normalises or derives a
field is a FrozenRecord; each reads its fields and their defaults off its
constructor, and a plain record reads each field with the getter of a
collections.namedtuple field. Each is built by position and by keyword,
compares and hashes by value, refuses assignment, has no instance
__dict__ and prints as Name(field=value, ...). A plain record is a tuple
of its fields, in a fixed order: it equals and hashes as that tuple, and
_make, _replace, copy and pickle give back its own class. A FrozenRecord
is copied, replaced, remade and unpickled through its constructor, so a
checked one rejects bad fields through its constructor, _make, _replace,
__replace__ (which copy.replace calls on Python 3.13), copy and pickle
alike; an element, whose fields are its kind and its coefficients, refuses
bad coefficients with KindMismatchError by each of _make, _replace and
__replace__ as by its constructor.
"""

import copy
import inspect
import pickle
from collections import namedtuple
from fractions import Fraction

import pytest

from wittcurves.algebra import (
    COMPLEX,
    QUATERNION,
    AlgebraElement,
    Automorphism,
    DivisionAlgebraKind,
    complex_conjugation,
    inner,
    quat,
)
from wittcurves.errors import FrozenInstanceError, FrozenRecord, KindMismatchError, ValidationError
from wittcurves.ktheory import ClassVector, CurveNumerics, SlopeOrbits, elliptic_numerics, slope_orbits
from wittcurves.local_data import PointDatum, WittPointClass, witt_local_datum
from wittcurves.skew_series import CentreDescription, TwistedSeries, centre_basis, series
from wittcurves.weighted_curve import (
    AbstractBase,
    AbstractPoint,
    CurveProfile,
    EffectivePoint,
    GhostGroup,
    PicardDescriptor,
    WeightedCurve,
    WeightedPoint,
    effective_points,
    ghost_group,
    picard_structure,
)
from wittcurves.witt_surface import (
    ComplexCentreBase,
    KleinTopology,
    Oval,
    BaseNumerics,
    SurfaceCounts,
    WittSurface,
    _Reading,
    catalog,
    counts,
    read_base,
    segmented_oval,
    surface_numerics,
    whole_oval,
)
from wittcurves.zoo import ZooEntry, enumerate_chi_zero

SEG = WittPointClass.SEGMENTATION
INNER = WittPointClass.INNER
_CURVE = WeightedCurve(catalog("D_22"), (WeightedPoint(SEG, 3, oval=0, segment=0), WeightedPoint(INNER, 2)))

# class -> (a sample instance, the defaults of its constructor today)
RECORDS = {
    DivisionAlgebraKind: (QUATERNION, {}),
    AlgebraElement: (quat(1, Fraction(1, 2), 0, -3), {}),
    Automorphism: (inner(quat(1, 1, 0, 0)), {"unit": None}),
    KleinTopology: (KleinTopology(0, 1, 1), {}),
    Oval: (segmented_oval("+", "-"), {"segments": (), "sign": None}),
    WittSurface: (catalog("D_22"), {}),
    ComplexCentreBase: (catalog("S2_C"), {}),
    SurfaceCounts: (counts(catalog("D_2222")), {}),
    BaseNumerics: (surface_numerics(catalog("D_22")), {}),
    PointDatum: (witt_local_datum(INNER), {"weight": 1}),
    WeightedPoint: (WeightedPoint(SEG, 3, oval=0, segment=0), {"oval": None, "segment": None}),
    AbstractPoint: (AbstractPoint("x0", 2, 1, 3), {"e_tau": 1, "residue_degree": 1, "weight": 1}),
    AbstractBase: (AbstractBase(Fraction(1), 1, 1, 1, (AbstractPoint("x0"),), 0), {"centre_genus": None}),
    EffectivePoint: (effective_points(_CURVE)[0], {}),
    WeightedCurve: (_CURVE, {"points": ()}),
    CurveProfile: (_CURVE.profile, {}),
    PicardDescriptor: (picard_structure(WeightedCurve(catalog("D_2222"))), {"pic_zero": None}),
    GhostGroup: (ghost_group([(2, 1), (2, 1), (1, 1)], 0), {}),
    ClassVector: (ClassVector(1, 2), {}),
    CurveNumerics: (elliptic_numerics("K"), {"end_S_dim": 1, "pbar": 1, "g_orb": None}),
    SlopeOrbits: (slope_orbits(elliptic_numerics("A"), 50), {}),
    TwistedSeries: (series(COMPLEX, complex_conjugation(), 4, {0: 1, 2: 3}), {}),
    CentreDescription: (centre_basis(COMPLEX, complex_conjugation(), 8), {}),
    ZooEntry: (enumerate_chi_zero()[0], {}),
}
# the records whose repr is their own, not Name(field=value, ...)
CUSTOM_REPR = {DivisionAlgebraKind: "ℍ", AlgebraElement: "1 + 1/2i - 3k", TwistedSeries: "(1) + (3)T^2"}

_REQUIRED = object()


def _constructor_fields(cls) -> dict:
    """Each constructor argument in order, with its default or _REQUIRED."""
    return {name: cls._field_defaults.get(name, _REQUIRED) for name in cls._fields}


def test_every_public_record_class_is_covered():
    import wittcurves

    records = {
        value
        for value in vars(wittcurves).values()
        if isinstance(value, type) and hasattr(value, "_fields")
    }
    assert records <= set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    sample, defaults = RECORDS[cls]
    assert type(sample) is cls
    fields = _constructor_fields(cls)
    assert {name: d for name, d in fields.items() if d is not _REQUIRED} == defaults
    values = {name: getattr(sample, name) for name in fields}
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    for built in (by_position, by_keyword):
        assert type(built) is cls
        assert built == sample
        assert hash(built) == hash(sample)
    with pytest.raises(AttributeError):
        setattr(sample, next(iter(fields)), None)
    # a record equals no object of another class
    assert sample != object() and not sample == object()
    # no instance __dict__ either
    assert not hasattr(sample, "__dict__")
    expected = CUSTOM_REPR.get(cls)
    if expected is None:
        expected = f"{cls.__name__}(" + ", ".join(f"{n}={getattr(sample, n)!r}" for n in cls._fields) + ")"
    assert repr(sample) == expected


# the slots each FrozenRecord derives from its fields, if any
DERIVED = {
    AlgebraElement: ("num", "den"),
    Automorphism: ("rotation",),
    PointDatum: ("e_star",),
    WeightedCurve: ("profile",),
    CurveProfile: ("chi_orb", "weight_ram_vector"),
}


@pytest.mark.parametrize(
    "cls", [cls for cls in RECORDS if issubclass(cls, FrozenRecord)], ids=lambda cls: cls.__name__
)
def test_frozen_records_copy_and_replace_by_their_fields(cls, monkeypatch):
    sample = RECORDS[cls][0]
    derived = DERIVED.get(cls, ())
    checked = []
    real_check = WeightedCurve.__post_init__
    monkeypatch.setattr(WeightedCurve, "__post_init__", lambda self: checked.append(self) or real_check(self))
    rebuilt = [
        copy.copy(sample),
        copy.deepcopy(sample),
        sample._replace(),
        sample.__replace__(),
        *([copy.replace(sample)] if hasattr(copy, "replace") else []),
        cls._make(sample._values),
        *(pickle.loads(pickle.dumps(sample, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    ]
    for built in rebuilt:
        assert type(built) is cls and built == sample
        for name in derived:
            assert getattr(built, name) == getattr(sample, name)
        if cls is Automorphism:
            # derived again from the fields, not copied
            assert built.rotation is not sample.rotation
        if cls is WeightedCurve:
            # checked again; the numerics are the reading its base keeps
            assert built.profile.numerics is surface_numerics(built.base)
    if cls is WeightedCurve:
        assert len(checked) == len(rebuilt) and all(c is b for c, b in zip(checked, rebuilt))
        assert sample.profile.numerics == surface_numerics(sample.base)
        for moved in (
            WeightedCurve(catalog("D"))._replace(base=catalog("K")),
            WeightedCurve(catalog("D")).__replace__(base=catalog("K")),
        ):
            assert moved.profile.numerics == surface_numerics(catalog("K"))
    with pytest.raises(FrozenInstanceError):
        delattr(sample, cls._fields[0])


# (a valid record, a field, a bad value for it, the code of the rejection)
CHECKED = [
    (segmented_oval("+", "-"), "sign", "+", "oval-shape"),
    (whole_oval("-"), "sign", "0", "oval-shape"),
    (whole_oval("+"), "segments", None, "oval-shape"),
    (segmented_oval("+", "-"), "segments", 5, "oval-shape"),
    (whole_oval("+"), "sign", None, "oval-shape"),
    (witt_local_datum(INNER), "e", 0, "nonpositive"),
    (witt_local_datum(INNER), "e_tau", 1.5, "not-integer"),
    (witt_local_datum(INNER), "residue_degree", "x", "not-integer"),
    (witt_local_datum(INNER), "weight", True, "not-integer"),
    (witt_local_datum(SEG), "residue_degree", 3, "residue-degree"),
    (CurveNumerics(1, 1, 1), "epsilon", 3, "epsilon"),
    (CurveNumerics(1, 1, 1), "kappa", 1.0, "not-integer"),
    (WeightedCurve(catalog("D")), "points", (WeightedPoint(INNER, 1),), "weight"),
    (WeightedCurve(catalog("D")), "base", WittSurface(KleinTopology(0, 1, 1), (), True), "oval-count"),
    (catalog("D_22"), "ovals", ("+",), "oval-shape"),
    (RECORDS[TwistedSeries][0], "coeffs", ((2, 3), (0, 1)), "exponent-order"),
    (RECORDS[TwistedSeries][0], "coeffs", ((0, 1), (0, 3)), "repeated-exponent"),
    (RECORDS[TwistedSeries][0], "coeffs", ((0, 1), (2, 0)), "zero-coefficient"),
    (RECORDS[TwistedSeries][0], "coeffs", ((-257, 1),), "truncation"),
    (RECORDS[TwistedSeries][0], "truncation", 257, "truncation"),
]


def _bypassing_checks(record, field, value):
    """The record with one field changed, built without any check, and
    its field values."""
    cls = type(record)
    values = [value if name == field else getattr(record, name) for name in cls._fields]
    bad = object.__new__(cls)
    bad._set(*values)
    return bad, values


@pytest.mark.parametrize(
    "record, field, value, code", CHECKED, ids=[f"{type(r).__name__}.{f}" for r, f, _, _ in CHECKED]
)
def test_checked_records_reject_bad_fields_however_built(record, field, value, code):
    cls = type(record)
    bad, values = _bypassing_checks(record, field, value)
    attempts = {
        "constructor": lambda: cls(*values),
        "keywords": lambda: cls(**dict(zip(cls._fields, values))),
        "_make": lambda: cls._make(values),
        "_replace": lambda: record._replace(**{field: value}),
        "__replace__": lambda: record.__replace__(**{field: value}),
        "copy": lambda: copy.copy(bad),
        "deepcopy": lambda: copy.deepcopy(bad),
        **{
            f"pickle{p}": (lambda p=p: pickle.loads(pickle.dumps(bad, protocol=p)))
            for p in range(pickle.HIGHEST_PROTOCOL + 1)
        },
    }
    if hasattr(copy, "replace"):
        attempts["copy.replace"] = lambda: copy.replace(record, **{field: value})
    for how, attempt in attempts.items():
        with pytest.raises(ValidationError) as exc:
            attempt()
        assert exc.value.code == code, how


@pytest.mark.parametrize(
    "coeffs", [(Fraction(1, 2), 1.5, 0, 0), (1, 0, True, 0), (1, 0, 0)], ids=["float", "bool", "arity"]
)
def test_an_element_refuses_bad_coefficients_however_built(coeffs):
    sample = quat(1)
    attempts = {
        "constructor": lambda: AlgebraElement(QUATERNION, coeffs),
        "_make": lambda: AlgebraElement._make((QUATERNION, coeffs)),
        "_replace": lambda: sample._replace(coeffs=coeffs),
        "__replace__": lambda: sample.__replace__(coeffs=coeffs),
    }
    if hasattr(copy, "replace"):
        attempts["copy.replace"] = lambda: copy.replace(sample, coeffs=coeffs)
    refused = []
    for how, attempt in attempts.items():
        try:
            attempt()
        except KindMismatchError:
            refused.append(how)
    assert refused == list(attempts)
    # a replaced element is brought to lowest terms, as a constructed one is
    assert quat(1)._replace(coeffs=(Fraction(2, 2), 0, 0, 0)) == quat(1)


def test_checked_records_normalise_however_built():
    surface, curve = catalog("D_22"), WeightedCurve(catalog("D"))
    ovals, points = list(surface.ovals), [WeightedPoint(INNER, 2)]
    for built in (
        WittSurface(surface.topology, ovals, False),
        surface._replace(ovals=ovals),
        pickle.loads(pickle.dumps(_bypassing_checks(surface, "ovals", ovals)[0])),
    ):
        assert type(built.ovals) is tuple and built == surface
    for built in (WeightedCurve(curve.base, points), curve._replace(points=points)):
        assert type(built.points) is tuple and built.points == tuple(points)


# each plain record and its fields, in order
PLAIN_FIELDS = {
    DivisionAlgebraKind: ("tag", "dim_over_k", "dim_centre_over_k", "display_name"),
    KleinTopology: ("g", "t", "s"),
    ComplexCentreBase: ("genus",),
    SurfaceCounts: ("m", "r", "q"),
    BaseNumerics: (
        "constants", "kappa", "epsilon", "skewness", "genus", "centre", "centre_genus", "ovals", "chi",
        "chi_centre", "chi_prime",
    ),
    _Reading: ("numerics", "counts", "points", "ovals"),
    WeightedPoint: ("location", "weight", "oval", "segment"),
    AbstractPoint: ("label", "e_tau", "residue_degree", "weight"),
    AbstractBase: ("chi_x", "s", "kappa", "epsilon", "points", "centre_genus"),
    EffectivePoint: ("label", "kind", "e_tau", "residue_degree", "weight"),
    PicardDescriptor: ("base_part", "torsion_quotient", "finitely_generated_rank_one", "pic_zero"),
    GhostGroup: ("orders", "shifts"),
    SlopeOrbits: ("count", "representatives", "height_bound", "coefficient"),
    CentreDescription: ("constant_subfield", "period"),
    ZooEntry: ("base", "weights", "curve_class", "chi_orb", "skewness", "wrv", "tau_order", "cy", "centre"),
}
PLAIN_SAMPLES = {
    **{cls: RECORDS[cls][0] for cls in PLAIN_FIELDS if cls in RECORDS},
    _Reading: read_base(catalog("D_22")),
}


@pytest.mark.parametrize("cls", PLAIN_FIELDS, ids=lambda cls: cls.__name__)
def test_plain_records_are_tuples_of_their_fields(cls):
    assert issubclass(cls, tuple) and not issubclass(cls, FrozenRecord)
    assert cls._fields == PLAIN_FIELDS[cls]
    sample = PLAIN_SAMPLES[cls]
    assert type(sample) is cls
    assert sample == tuple(sample) and tuple(sample) == sample
    assert hash(sample) == hash(tuple(sample))
    assert not hasattr(sample, "__dict__")
    for built in (cls._make(tuple(sample)), cls._make(iter(sample)), sample._replace()):
        assert type(built) is cls and built == sample
    changed = sample._replace(**{cls._fields[0]: None})
    assert type(changed) is cls and changed == (None, *sample[1:])
    rebuilt = [
        copy.copy(sample),
        copy.deepcopy(sample),
        *(pickle.loads(pickle.dumps(sample, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    ]
    for built in rebuilt:
        assert type(built) is cls and built == sample


@pytest.mark.parametrize("cls", PLAIN_FIELDS, ids=lambda cls: cls.__name__)
def test_plain_records_read_their_fields_off_the_constructor(cls):
    # each field is read by the C getter of a collections.namedtuple field,
    # kept on the record's own class: no second class is built for it
    getter = type(namedtuple("_T", "x").x)
    assert all(type(vars(cls)[name]) is getter for name in cls._fields)
    assert cls.__match_args__ == cls._fields
    parameters = list(inspect.signature(cls.__new__).parameters.values())[1:]
    assert tuple(p.name for p in parameters) == cls._fields
    assert {p.name: p.default for p in parameters if p.default is not p.empty} == cls._field_defaults


@pytest.mark.parametrize("cls", PLAIN_FIELDS, ids=lambda cls: cls.__name__)
def test_plain_records_refuse_what_a_namedtuple_refuses(cls):
    sample = PLAIN_SAMPLES[cls]
    n = len(cls._fields)
    assert sample._asdict() == dict(zip(cls._fields, sample))
    for values in (tuple(sample)[:-1], (*sample, None)):
        with pytest.raises(TypeError, match=f"^Expected {n} arguments, got {len(values)}$"):
            cls._make(values)
    with pytest.raises(ValueError, match=r"^Got unexpected field names: \['colour'\]$"):
        sample._replace(colour=None)


@pytest.mark.parametrize("cls", PLAIN_FIELDS, ids=lambda cls: cls.__name__)
def test_plain_records_are_replaced_by_copy_replace(cls):
    # copy.replace (Python 3.13) calls __replace__, which a namedtuple binds to _replace
    replace = getattr(copy, "replace", lambda obj, /, **changes: type(obj).__replace__(obj, **changes))
    sample = PLAIN_SAMPLES[cls]
    change = {cls._fields[0]: None}
    replaced = replace(sample, **change)
    assert type(replaced) is cls and replaced == sample._replace(**change)
    with pytest.raises(ValueError, match=r"^Got unexpected field names: \['colour'\]$"):
        replace(sample, colour=None)


def test_plain_records_keep_their_methods():
    assert repr(QUATERNION) == str(QUATERNION) == "ℍ"
    assert f"{COMPLEX}" == "ℂ" and repr((QUATERNION,)) == "(ℍ,)"
    assert ghost_group([(2, 1), (2, 1), (1, 1)], 0).describe() == "C2"
    assert GhostGroup((), ()).describe() == "trivial"
    assert GhostGroup((2, 3), ()).describe() == "C2 x C3"
    cut = read_base(catalog("D_22"))
    assert cut.is_segmentation_point(0, 0) and cut.is_segmentation_point(0, 1)
    assert not any(cut.is_segmentation_point(o, s) for o, s in ((0, 2), (1, 0), (-1, 0), (0, -1)))
    assert cut.carries_sign("+") and cut.carries_sign("-") and cut.carries_sign("-", 0)
    assert not cut.carries_sign("+", 1)
    whole = read_base(catalog("A_RH"))
    assert whole.carries_sign("+") and whole.carries_sign("-")
    assert whole.carries_sign("+", 0) and not whole.carries_sign("-", 0) and whole.carries_sign("-", 1)
    assert not whole.is_segmentation_point(0, 0)
    bare = read_base(catalog("S2_C"))
    assert not bare.carries_sign("+") and not bare.carries_sign("-") and not bare.is_segmentation_point(0, 0)


def test_a_weighted_curve_is_checked_once_per_construction(monkeypatch):
    # bench/tracing.py wraps this hook as the weighted_curve.construct span
    calls = []
    check = WeightedCurve.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(WeightedCurve, "__post_init__", counted)
    curve = WeightedCurve(catalog("D_22"), (WeightedPoint(INNER, 2),))
    assert len(calls) == 1
    for rebuild in (
        lambda: WeightedCurve(base=curve.base, points=curve.points),
        lambda: curve._replace(points=()),
        lambda: copy.copy(curve),
        lambda: copy.deepcopy(curve),
        lambda: pickle.loads(pickle.dumps(curve)),
    ):
        before = len(calls)
        rebuild()
        assert len(calls) == before + 1
