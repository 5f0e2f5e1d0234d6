"""The labelled points of a curve, built on request, against the eager oracle.

The check of a curve keeps the shapes of its points and the count of its
bare segmentation points, and labels none; effective_points builds the
labelled points from the curve's own fields when asked, and
tau_exponents and tau_word read them. Here all three are compared with
tests/point_oracle.py, which builds the points eagerly, as the check did
before, on hypothesis draws over every catalog base (segmentation, inner,
boundary and point weights), over two surfaces with several cut ovals,
and over abstract bases. The shapes and the bare count of each profile
are checked against the labelled points too.
"""

from collections import Counter
from datetime import timedelta
from fractions import Fraction

import point_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittcurves.errors import CurveError
from wittcurves.local_data import WittPointClass
from wittcurves.weighted_curve import (
    COMPLEX_POINT,
    AbstractBase,
    AbstractPoint,
    WeightedCurve,
    WeightedPoint,
    effective_points,
    tau_exponents,
    tau_word,
)
from wittcurves.witt_surface import CATALOG_NAMES, KleinTopology, WittSurface, catalog, segmented_oval, whole_oval

SEG = WittPointClass.SEGMENTATION

BASES = {name: catalog(name) for name in CATALOG_NAMES}
BASES["two-cut-ovals"] = WittSurface(
    KleinTopology(3, 2, 0), (segmented_oval("+", "-"), segmented_oval("-", "+", "-", "+")), False
)
BASES["cut-and-whole-ovals"] = WittSurface(
    KleinTopology(1, 2, 1), (segmented_oval("+", "-", "+", "-"), whole_oval("-")), False
)

_WEIGHT = st.builds(
    WeightedPoint,
    st.sampled_from([*WittPointClass, COMPLEX_POINT]),
    st.integers(2, 7),
    st.none() | st.integers(0, 2),
    st.none() | st.integers(0, 3),
)
_SEG_WEIGHT = st.builds(WeightedPoint, st.just(SEG), st.integers(2, 7), st.integers(0, 1), st.integers(0, 3))


def _curve(base, candidates) -> WeightedCurve:
    """The curve on base with each candidate weight that the check takes,
    in turn, given the ones taken before it."""
    taken: list[WeightedPoint] = []
    for wp in candidates:
        try:
            WeightedCurve(base, (*taken, wp))
        except CurveError:
            continue
        taken.append(wp)
    return WeightedCurve(base, tuple(taken))


def _outcome(call, curve):
    try:
        return call(curve)
    except CurveError as exc:
        return type(exc), str(exc)


def _assert_matches_the_oracle(curve):
    points = effective_points(curve)
    assert points == point_oracle.eager_points(curve)
    assert all(type(pt.label) is str for pt in points) and len({pt.label for pt in points}) == len(points)
    assert tau_exponents(curve) == point_oracle.tau_exponents(curve)
    assert _outcome(tau_word, curve) == _outcome(point_oracle.tau_word, curve)
    # the profile holds the same points: a shape for each of order above 1
    # but the bare segmentation points, which it counts
    profile = curve.profile
    bare = [pt for pt in points if pt.kind == SEG.value and pt.weight == 1]
    shaped = [(pt.kind, pt.e_tau, pt.residue_degree, pt.weight) for pt in points
              if pt.weight * pt.e_tau > 1 and not (pt.kind == SEG.value and pt.weight == 1)]
    assert profile.bare == len(bare)
    assert Counter(profile.shapes) == Counter(shaped)


@pytest.mark.parametrize("name", BASES)
@settings(derandomize=True, database=None, max_examples=40, deadline=timedelta(seconds=2))
@given(candidates=st.lists(_WEIGHT | _SEG_WEIGHT, max_size=6))
def test_the_labelled_points_of_a_surface_curve_match_the_eager_oracle(name, candidates):
    _assert_matches_the_oracle(_curve(BASES[name], candidates))


_ENTRY = st.integers(1, 4)


@st.composite
def _abstract_curves(draw) -> WeightedCurve:
    count = draw(st.integers(0, 5))
    labels = draw(st.lists(st.text("xyz", min_size=1, max_size=2), min_size=count, max_size=count, unique=True))
    points = tuple(AbstractPoint(label, draw(_ENTRY), draw(_ENTRY), draw(_ENTRY)) for label in labels)
    chi_x = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
    base = AbstractBase(
        chi_x, draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2)), points,
        draw(st.sampled_from([None, 0, 1])),
    )
    return WeightedCurve(base)


@settings(derandomize=True, database=None, max_examples=200, deadline=timedelta(seconds=2))
@given(curve=_abstract_curves())
def test_the_labelled_points_of_an_abstract_curve_match_the_eager_oracle(curve):
    _assert_matches_the_oracle(curve)


def test_every_placement_class_is_drawn_on_the_catalog():
    """The weight strategy puts a weight of every placement class on a
    curve that the check takes."""
    seen = Counter()

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(candidates=st.lists(_WEIGHT | _SEG_WEIGHT, max_size=6))
    def draw(candidates):
        for name in ("D_22", "D_2222", "A_RH", "S2_C"):
            seen.update(wp.location for wp in _curve(BASES[name], candidates).points)

    draw()
    assert set(seen) == {*WittPointClass, COMPLEX_POINT}, seen
