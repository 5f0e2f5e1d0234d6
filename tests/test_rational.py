"""algebra._rational, the trusted constructor of the package's rationals,
against Fraction's own constructor.

_rational reduces an int pair by one gcd and sets the two slots of a
Fraction directly. What it builds must be the Fraction that
Fraction(n, d) builds: equal, of the same type, with the same hash, repr,
str, numerator, denominator and integer ratio, and it must survive pickle
and copy. It relies on Fraction keeping its value in the slots
_numerator and _denominator, which is pinned here, so a Python where they
differ fails here, loudly.
"""

import copy
import pickle
from datetime import timedelta
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wittcurves.algebra import _rational

# small and past 10**100, with 0 and the signs; a common factor makes the reduction do work
_INTS = st.one_of(st.integers(-50, 50), st.integers(-(10**120), 10**120), st.sampled_from([0, 10**101, -(10**101)]))
_DENOMINATORS = st.one_of(st.just(1), st.integers(1, 50), st.integers(10**100, 10**120))
_FACTORS = st.one_of(st.just(1), st.integers(1, 10**30))


def test_fraction_keeps_its_value_in_two_slots():
    assert Fraction.__slots__ == ("_numerator", "_denominator")


def _same(x: Fraction, y: Fraction) -> None:
    assert type(x) is Fraction
    assert x == y and hash(x) == hash(y)
    assert repr(x) == repr(y) and str(x) == str(y)
    assert (x.numerator, x.denominator) == (y.numerator, y.denominator)
    assert x.as_integer_ratio() == y.as_integer_ratio()
    assert type(x.numerator) is int and type(x.denominator) is int


@settings(derandomize=True, database=None, max_examples=300, deadline=timedelta(seconds=2))
@given(n=_INTS, d=_DENOMINATORS, k=_FACTORS)
def test_a_rational_is_the_fraction_of_its_pair(n, d, k):
    n, d = n * k, d * k
    expected = Fraction(n, d)
    x = _rational(n, d)
    _same(x, expected)
    for again in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        _same(again, expected)
    assert x + 1 == expected + 1 and x * x == expected * expected and (x < 1) == (expected < 1)


def test_a_rational_over_one_and_zero():
    for n, d in ((0, 1), (0, 7), (-3, 1), (6, 4), (-6, 4), (10**200, 10**100)):
        _same(_rational(n, d), Fraction(n, d))
    assert _rational(0, 9).denominator == 1
