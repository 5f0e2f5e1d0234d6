"""Random well-typed calls to ghost_group, genus_zero_orbifold_euler and instantiate_domestic.

Each function is called with hypothesis draws of the right types with
bad values and bad shapes: ghost points of small ints, 0, negatives and
one above MAX_POINT_VALUE, with every efficient index from -1 to the
number of points; genus-zero triples whose e and f are ints or Fractions,
zero, negative or above MAX_ORDER_LCM, and whose p runs from 0 to one
above MAX_POINT_VALUE; and every domestic family with its parameters
given ints, bools, None or strings. Every call must return or raise a
CurveError, and every genus-zero answer is at most kappa/s^2, since each
point takes a positive share. The sizes are capped so that every draw
ends quickly.
"""

from datetime import timedelta
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wittcurves.errors import CurveError
from wittcurves.weighted_curve import (
    MAX_ORDER_LCM,
    MAX_POINT_VALUE,
    WeightedCurve,
    genus_zero_orbifold_euler,
    ghost_group,
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
# read when the test first draws, so that importing this module runs no enumeration
_FAMILY = st.deferred(lambda: st.sampled_from(enumerate_domestic()))


@_SETTINGS
@given(family=_FAMILY, assignments=st.none() | _ASSIGNMENTS)
def test_domestic_families_end_in_a_curve_or_a_curve_error(family, assignments):
    try:
        curve = instantiate_domestic(family, assignments)
    except CurveError:
        return
    assert isinstance(curve, WeightedCurve)
