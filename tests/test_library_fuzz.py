"""Random well-typed calls to ghost_group, genus_zero_orbifold_euler,
instantiate_domestic, and the functions of ktheory and local_data.

Each function is called with hypothesis draws of the right types with
bad values and bad shapes: ghost points of small ints, 0, negatives and
one above MAX_POINT_VALUE, with every efficient index from -1 to the
number of points; genus-zero triples whose e and f are ints or Fractions,
zero, negative or above MAX_ORDER_LCM, and whose p runs from 0 to one
above MAX_POINT_VALUE; every domestic family with its parameters, and
others, given ints, bools, None or strings, and some with a weight of an
unknown class or one segmentation weight more than the base has slots,
which never make a curve; inner twists by units of
small entries raised to small powers, to powers about MAX_INNER_POWER
and to huge ones; class vectors of small or huge ints, in pairs or in
other shapes, and the slopes of pairs of ints or Fractions; CurveNumerics of every range; and PointDatum on every
built-in kind and on hand-built kinds of any small dimensions, which are
no kind at all and are refused. Every
call must return or raise a CurveError; every genus-zero answer is at
most kappa/s^2, since each point takes a positive share, every power of
a twist of finite order is the power by the exponent mod the order, and
every PointDatum has e_star = comultiplicity(simple_end). The name
lookups (catalog, elliptic_numerics, fm_partners) and witt_local_datum are
called with values of every shape: strings, names they know, ints, bools,
None, point classes, and lists, tuples and dicts of these; and a domestic
family is given such a value as its weights, as the class or the weight
of one of them, as its base, or as an assignment, and such a value is
passed as the family itself and as the whole assignments. A lookup
answers only a string, witt_local_datum only a point class. The sizes
are capped so that every draw ends quickly. The readers of a base and
of a twist, given what is not their record, refuse it with a coded
ValidationError and a KindMismatchError.
"""

from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittcurves.algebra import (
    BUILTIN_KINDS,
    MAX_INNER_POWER,
    REAL,
    DivisionAlgebraKind,
    apply,
    apply_power,
    complex_conjugation,
    comultiplicity,
    identity,
    inner,
    power,
    quat,
)
from wittcurves.errors import CurveError, KindMismatchError, ValidationError
from wittcurves.ktheory import (
    ELLIPTIC_TYPES,
    INFINITY,
    ClassVector,
    CurveNumerics,
    elliptic_numerics,
    euler_form,
    fm_partners,
    mutation_matrices,
    reduce_class,
    slope_orbits,
)
from wittcurves.local_data import SHORT_NAMES, PointDatum, WittPointClass, degree_of_simple, witt_local_datum
from wittcurves.weighted_curve import (
    MAX_ORDER_LCM,
    MAX_POINT_VALUE,
    WeightedCurve,
    genus_zero_orbifold_euler,
    ghost_group,
)
from wittcurves.witt_surface import (
    CATALOG_NAMES,
    KleinTopology,
    canonical_key,
    catalog,
    counts,
    genus,
    read_base,
    validate,
)
from wittcurves.zoo import enumerate_domestic, instantiate_domestic

_SETTINGS = settings(derandomize=True, database=None, max_examples=300, deadline=timedelta(seconds=2))


def _mostly(strategy, rare):
    """Draws from strategy nine times in ten and from rare otherwise."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 0 else strategy)


_SMALL = _mostly(st.integers(1, 6), st.sampled_from([0, -1, -7, MAX_POINT_VALUE, MAX_POINT_VALUE + 1]))
# a pair, mostly; a bare int, a triple or None otherwise
_GHOST_POINT = _mostly(
    st.tuples(_SMALL, _SMALL) | st.lists(_SMALL, min_size=2, max_size=2),
    st.one_of(_SMALL, st.tuples(_SMALL, _SMALL, _SMALL), st.none()),
)
_GHOST = st.lists(_GHOST_POINT, max_size=5).flatmap(
    lambda points: st.tuples(st.just(points), st.integers(-1, len(points)))
)


@_SETTINGS
@given(drawn=_GHOST)
def test_ghost_groups_end_in_an_answer_or_a_curve_error(drawn):
    points, efficient = drawn
    try:
        group = ghost_group(points, efficient)
    except CurveError:
        return
    assert all(1 < n <= MAX_POINT_VALUE for n in group.orders)


_EDGE_RATIONAL = st.sampled_from([0, -1, MAX_ORDER_LCM, MAX_ORDER_LCM + 1, 10**200])
_RATIONAL = st.one_of(
    _mostly(st.integers(1, 5), _EDGE_RATIONAL),
    st.builds(
        Fraction, _mostly(st.integers(1, 9), _EDGE_RATIONAL), _mostly(st.integers(1, 9), st.just(MAX_ORDER_LCM + 1))
    ),
)
_P = _mostly(st.integers(1, 12), st.sampled_from([0, -1, MAX_POINT_VALUE, MAX_POINT_VALUE + 1]))
# a triple, mostly; a pair, a quadruple or None otherwise
_TRIPLE = _mostly(
    st.tuples(_RATIONAL, _RATIONAL, _P),
    st.one_of(st.tuples(_RATIONAL, _P), st.tuples(_RATIONAL, _RATIONAL, _P, _P), st.none()),
)
_NUMERIC = _mostly(st.integers(1, 3), st.sampled_from([0, -1]))
_GENUS_ZERO = st.tuples(_NUMERIC, _NUMERIC, _NUMERIC, st.lists(_TRIPLE, max_size=5))


@_SETTINGS
@given(drawn=_GENUS_ZERO)
def test_genus_zero_answers_are_at_most_kappa_over_s_squared(drawn):
    kappa, s, epsilon, points = drawn
    try:
        chi = genus_zero_orbifold_euler(kappa, s, epsilon, points)
    except CurveError:
        return
    assert type(chi) is Fraction
    assert chi <= Fraction(kappa, s * s)


_VALUE = _mostly(
    st.integers(2, 9),
    st.one_of(st.integers(-2, 1), st.just(MAX_POINT_VALUE + 1), st.booleans(), st.none(), st.sampled_from(["3", "p"])),
)
_ASSIGNMENTS = st.dictionaries(st.sampled_from("npqr"), _VALUE, max_size=3)


def _off_places(family):
    """(family, False) nine times in ten; otherwise (entry, True) for the
    family with a weight of an unknown class, or with one segmentation
    weight more than its base has slots."""
    slots = len(read_base(catalog(family.base)).points)
    past = (("seg", 2),) * (slots + 1 - sum(cls == "seg" for cls, _ in family.weights))
    off = [family._replace(weights=family.weights + extra) for extra in ((("bogus", 2),), past)]
    return _mostly(st.just((family, False)), st.sampled_from([(entry, True) for entry in off]))


# read when the test first draws, so that importing this module runs no enumeration
_FAMILY = st.deferred(lambda: st.sampled_from(enumerate_domestic()).flatmap(_off_places))


@_SETTINGS
@given(drawn=_FAMILY, assignments=st.none() | _ASSIGNMENTS)
def test_domestic_families_end_in_a_curve_or_a_curve_error(drawn, assignments):
    family, off_places = drawn
    try:
        curve = instantiate_domestic(family, assignments)
    except CurveError:
        return
    assert not off_places
    assert isinstance(curve, WeightedCurve)


_ENTRY = _mostly(st.integers(-6, 6), st.sampled_from([10**30, -(10**30), MAX_ORDER_LCM + 1]))
# a pair, mostly; a bare int, a single, a triple or None otherwise
_VECTOR = _mostly(
    st.tuples(_ENTRY, _ENTRY) | st.lists(_ENTRY, min_size=2, max_size=2),
    st.one_of(_ENTRY, st.tuples(_ENTRY), st.tuples(_ENTRY, _ENTRY, _ENTRY), st.tuples(), st.none()),
)


@_SETTINGS
@given(vector=_VECTOR, k=st.integers(-1, 3))
def test_class_reductions_end_in_a_form_or_a_curve_error(vector, k):
    try:
        form, word = reduce_class(vector, k)
    except CurveError:
        return
    assert form in ((1, 0), (0, 1))
    assert all(letter in "LS" and type(e) is int for letter, e in word)


_SLOPE_ENTRY = _ENTRY | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@_SETTINGS
@given(degree=_SLOPE_ENTRY, rank=_SLOPE_ENTRY)
def test_class_slopes_end_in_a_slope_or_a_curve_error(degree, rank):
    try:
        image = ClassVector(degree, rank).slope()
    except CurveError:
        return
    assert image is INFINITY or type(image) is Fraction


_UNIT = st.tuples(*[_mostly(st.integers(-3, 3), st.just(10**6))] * 4).filter(any)
_EXPONENT = _mostly(
    st.integers(-12, 12),
    st.sampled_from([
        MAX_INNER_POWER, -MAX_INNER_POWER, MAX_INNER_POWER + 1, -MAX_INNER_POWER - 1, 10**9, -(10**30),
        2.5, -1.0, float("inf"), Fraction(3, 2), Fraction(4), True, False,
    ]),
)


@_SETTINGS
@given(unit=_UNIT, n=_EXPONENT)
def test_inner_powers_end_in_a_twist_or_a_curve_error(unit, n):
    phi = inner(quat(*unit))
    # a rotation of finite order has order 1, 2, 3, 4 or 6
    order = next((k for k in (1, 2, 3, 4, 6) if power(phi, k).unit == quat(1)), None)
    try:
        phi_n = power(phi, n)
    except CurveError as exc:
        if type(n) is not int:
            assert exc.code == "not-integer"
        else:
            assert order is None and abs(n) > MAX_INNER_POWER
        return
    assert type(n) is int
    if order is not None:
        assert phi_n == power(phi, n % order)


_RANGE = _mostly(st.integers(1, 4), st.sampled_from([0, -1, 10**30]))
_NUMERICS = st.tuples(
    _RANGE, _RANGE, _mostly(st.just(1), st.integers(-1, 3)), _RANGE, _RANGE,
    st.none() | st.integers(-2, 2) | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
)


@_SETTINGS
@given(fields=_NUMERICS, bound=_mostly(st.just(100), st.sampled_from([-1, 49, 50, 600, 601])),
       e=st.tuples(_ENTRY, _ENTRY), f=st.tuples(_ENTRY, _ENTRY))
def test_curve_numerics_end_in_answers_or_curve_errors(fields, bound, e, f):
    try:
        n = CurveNumerics(*fields)
    except CurveError:
        return
    assert type(euler_form(ClassVector(*e), ClassVector(*f), n)) is int
    try:
        m_l, m_s = mutation_matrices(n)
    except CurveError:
        pass
    else:
        assert all(a * d - b * c == 1 for (a, b), (c, d) in (m_l, m_s))
    try:
        orbits = slope_orbits(n, bound)
    except CurveError:
        return
    assert orbits.count == len(orbits.representatives) in (1, 2)


_KIND = st.sampled_from(BUILTIN_KINDS) | st.builds(
    DivisionAlgebraKind, st.just("ABSTRACT"), st.integers(-1, 16), st.integers(-1, 4), st.just("D")
)
_POINT_FIELD = _mostly(st.integers(1, 4), st.sampled_from([0, -1, MAX_POINT_VALUE + 1]))


@_SETTINGS
@given(fields=st.tuples(_POINT_FIELD, _POINT_FIELD, _POINT_FIELD, _KIND, _POINT_FIELD),
       kappa=_RANGE, epsilon=_RANGE, pbar=_RANGE)
def test_point_data_end_in_a_datum_or_a_curve_error(fields, kappa, epsilon, pbar):
    try:
        datum = PointDatum(*fields)
    except CurveError:
        return
    assert datum.e_star == comultiplicity(datum.simple_end)
    try:
        degree = degree_of_simple(datum, kappa, epsilon, pbar)
    except CurveError:
        return
    assert type(degree) is Fraction and degree > 0


_NAMES = [*CATALOG_NAMES, *ELLIPTIC_TYPES, *SHORT_NAMES.values(), *(c.value for c in WittPointClass)]
_SCALAR = st.one_of(
    st.sampled_from(_NAMES), st.text(max_size=3), st.integers(-2, 9), st.booleans(), st.none(),
    st.sampled_from(WittPointClass),
)
_ANY = st.recursive(
    _SCALAR,
    lambda items: st.lists(items, max_size=3) | st.lists(items, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=2) | st.integers(0, 3), items, max_size=2),
    max_leaves=5,
)


@pytest.mark.parametrize(
    "lookup, accepted",
    [(catalog, str), (elliptic_numerics, str), (fm_partners, str), (witt_local_datum, WittPointClass)],
    ids=["catalog", "elliptic_numerics", "fm_partners", "witt_local_datum"],
)
@_SETTINGS
@given(value=_ANY)
def test_lookups_end_in_an_answer_or_a_curve_error(lookup, accepted, value):
    try:
        lookup(value)
    except CurveError:
        return
    assert isinstance(value, accepted)


def _hand_built(family, value, where):
    """The family with value put in where, and the assignments to try it
    with: 2 for each parameter, or value for the first one; or value
    itself as the family or as the whole assignments."""
    weights = family.weights
    assignments = {w: 2 for _, w in weights if isinstance(w, str)}
    if where == "entry":
        return value, assignments
    if where == "assignments":
        return family, value
    if where == "weights":
        return family._replace(weights=value), assignments
    if where == "class":
        return family._replace(weights=((value, 2),) + weights), assignments
    if where == "weight":
        return family._replace(weights=(("inner", value),) + weights), assignments
    if where == "base":
        return family._replace(base=value), assignments
    return family, {**assignments, next(iter(assignments), "n"): value}


_WHERE = st.sampled_from(["weights", "class", "weight", "base", "assignment", "entry", "assignments"])


@_SETTINGS
@given(family=st.deferred(lambda: st.sampled_from(enumerate_domestic())), value=_ANY, where=_WHERE)
def test_hand_built_families_end_in_a_curve_or_a_curve_error(family, value, where):
    entry, assignments = _hand_built(family, value, where)
    try:
        curve = instantiate_domestic(entry, assignments)
    except CurveError:
        return
    assert isinstance(curve, WeightedCurve)


_NOT_A_BASE = "a curve base must be a surface or an abstract base, got "
_NOT_A_TWIST = "a twist must be an Automorphism, got "


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: validate(None), ValidationError, _NOT_A_BASE + "NoneType", id="validate(None)"),
        pytest.param(lambda: validate("D"), ValidationError, _NOT_A_BASE + "str", id="validate-name"),
        pytest.param(lambda: counts(None), ValidationError, _NOT_A_BASE + "NoneType", id="counts(None)"),
        pytest.param(lambda: canonical_key(5), ValidationError, _NOT_A_BASE + "int", id="canonical_key(5)"),
        pytest.param(
            lambda: genus(KleinTopology(0, 1, 1)), ValidationError, _NOT_A_BASE + "KleinTopology", id="genus-topology"
        ),
        pytest.param(lambda: apply(None, quat(1)), KindMismatchError, _NOT_A_TWIST + "NoneType", id="apply(None)"),
        pytest.param(
            lambda: apply(identity(REAL), 3),
            KindMismatchError,
            "an automorphism applies to an AlgebraElement, got int",
            id="apply-to-int",
        ),
        pytest.param(
            lambda: apply_power(complex_conjugation(), 1, None),
            KindMismatchError,
            "an automorphism applies to an AlgebraElement, got NoneType",
            id="apply_power-to-None",
        ),
        pytest.param(lambda: power(None, 2), KindMismatchError, _NOT_A_TWIST + "NoneType", id="power(None)"),
        pytest.param(lambda: power("conj", 2), KindMismatchError, _NOT_A_TWIST + "str", id="power-name"),
    ],
)
def test_readers_refuse_what_is_not_their_record(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error and str(refused.value) == message
    if error is ValidationError:
        assert refused.value.code == "base"
