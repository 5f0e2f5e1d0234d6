"""Random well-typed curves through the library: every call ends in a CurveError or an answer.

WeightedCurve records are drawn with hypothesis from records of the
right classes with bad values: placement classes the base does not
have, missing or out-of-range ovals and segments, two weights on one
segmentation point, weights of 0, 1 or above MAX_POINT_VALUE, and
abstract bases whose points or numerics are out of range. Building the
curve, and every view of weighted_curve on a curve that was built, must
return or raise a CurveError. The sizes are capped so that every draw
ends quickly.
"""

from datetime import timedelta
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wittcurves import weighted_curve as wc
from wittcurves.errors import CurveError
from wittcurves.local_data import WittPointClass
from wittcurves.weighted_curve import MAX_POINT_VALUE, AbstractBase, AbstractPoint, WeightedCurve, WeightedPoint
from wittcurves.witt_surface import CATALOG_NAMES, KleinTopology, WittSurface, catalog, segmented_oval, whole_oval

# every view of a curve
VIEWS = (
    wc.effective_points,
    wc.orbifold_euler,
    wc.weight_ram_vector,
    wc.classify,
    wc.tau_exponents,
    wc.tau_word,
    wc.tau_order,
    wc.cy_dimension,
    wc.picard_structure,
    wc.invariants_report,
)


def _mostly(strategy, rare):
    """Draws from strategy nine times in ten and from rare otherwise."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 0 else strategy)


_EDGE = st.sampled_from([0, 1, -1, MAX_POINT_VALUE, MAX_POINT_VALUE + 1, 10**9])
_WEIGHT = _mostly(st.integers(2, 7), _EDGE)
_INDEX = _mostly(st.none() | st.integers(0, 1), st.sampled_from([-1, 2, 4, 10**9]))
_LOCATION = _mostly(st.sampled_from([*WittPointClass, wc.COMPLEX_POINT]), st.just("cusp"))
_PLACEMENT = st.builds(WeightedPoint, _LOCATION, _WEIGHT, _INDEX, _INDEX)
# a segmentation slot of the small surfaces, so that two weights often
# share one, and an inner weight, which a real surface always takes
_SLOT = st.builds(
    WeightedPoint, st.just(WittPointClass.SEGMENTATION), _WEIGHT, st.integers(0, 1), st.integers(0, 3)
)
_INNER = st.builds(WeightedPoint, st.just(WittPointClass.INNER), _WEIGHT)
_OVAL = st.one_of(
    st.sampled_from([whole_oval("+"), whole_oval("-")]),
    st.sampled_from([("+", "-"), ("-", "+"), ("+", "-", "+", "-"), ("+", "-", "-")]).map(
        lambda signs: segmented_oval(*signs)
    ),
)
_SURFACE = _mostly(
    st.sampled_from(CATALOG_NAMES).map(catalog),
    st.builds(
        WittSurface,
        st.builds(KleinTopology, st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
        st.lists(_OVAL, max_size=2).map(tuple),
        st.booleans(),
    ),
)
_SURFACE_CURVE = st.tuples(_SURFACE, st.lists(_PLACEMENT | _SLOT | _INNER, max_size=3).map(tuple))

_ENTRY = _mostly(st.integers(1, 4), _EDGE)
_LABEL = _mostly(st.integers(0, 99).map("x{}".format), st.just("x0"))
_ABSTRACT_POINT = st.builds(AbstractPoint, _LABEL, _ENTRY, _ENTRY, _ENTRY)
_ABSTRACT = st.builds(
    AbstractBase,
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    _mostly(st.integers(1, 2), _EDGE),
    _mostly(st.integers(1, 2), _EDGE),
    _mostly(st.integers(1, 2), st.sampled_from([0, 3, -1])),
    st.lists(_ABSTRACT_POINT, max_size=4).map(tuple),
    st.one_of(st.none(), st.integers(-1, 2)),
)
_ABSTRACT_CURVE = st.tuples(_ABSTRACT, _mostly(st.just(()), st.lists(_PLACEMENT, min_size=1, max_size=1).map(tuple)))


@settings(derandomize=True, database=None, max_examples=400, deadline=timedelta(seconds=2))
@given(drawn=_SURFACE_CURVE | _ABSTRACT_CURVE)
def test_random_curves_end_in_an_answer_or_a_curve_error(drawn):
    base, points = drawn
    try:
        curve = WeightedCurve(base, points)
    except CurveError:
        return
    for view in VIEWS:
        try:
            view(curve)
        except CurveError:
            pass
