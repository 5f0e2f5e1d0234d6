"""The twisted kernels on integer numerators against independent code.

TwistedSeries products, verify_jordan_twist and the pair-level helpers of
wittcurves.algebra (``_image``, ``_inner_of``) are checked against two
sources that share none of their design:

- bench/model.py, the benchmark's own reference, which imports nothing
  of wittcurves and forms (a T^i)(b T^j) = a u^-i b u^i T^(i+j) on
  Fraction 4-tuples with the unit's powers unnormalised. It is read from
  its file, never edited, as tests/traffic_audit.py reads it. It indexes
  the powers by i >= 0, so it takes the products with nonnegative
  exponents;
- tests/fraction_oracle.py, the element arithmetic on Fractions, whose
  ``power`` and ``apply`` take the Laurent exponents down to -12.

The units cover a negative first coordinate, a non-primitive vector
(2 + 2i), units of finite order (i, 1 + i, 1 + i + j + k) and units of
infinite order.
"""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import fraction_oracle as fo
import pytest
from test_skew_series import _oracle_product, _terms

from wittcurves.algebra import (
    COMPLEX,
    QUATERNION,
    REAL,
    AlgebraElement,
    _image,
    _inner_of,
    apply,
    complex_conjugation,
    element,
    identity,
    inner,
    power,
    quat,
)
from wittcurves.skew_series import series, verify_jordan_twist

_MODEL_PATH = Path(__file__).resolve().parent.parent / "bench" / "model.py"
_spec = importlib.util.spec_from_file_location("bench_model", _MODEL_PATH)
model = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(model)

UNITS = {
    "i": (0, 1, 0, 0),
    "1+i": (1, 1, 0, 0),
    "1+i+j+k": (1, 1, 1, 1),
    "2+2i": (2, 2, 0, 0),
    "-1+2i+k": (-1, 2, 0, 1),
    "-2-2j": (-2, 0, -2, 0),
    "1+2i": (1, 2, 0, 0),
    "1+2i-j+3k": (1, 2, -1, 3),
    "0-3j+2k": (0, 0, -3, 2),
}
OTHER_TWISTS = {
    "R-id": (REAL, identity(REAL)),
    "C-id": (COMPLEX, identity(COMPLEX)),
    "C-conj": (COMPLEX, complex_conjugation()),
    "H-id": (QUATERNION, identity(QUATERNION)),
}


def _coefficient(rng, dim=4):
    """A nonzero coefficient tuple with small numerators and denominators."""
    while True:
        c = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5))) for _ in range(dim))
        if any(c):
            return c


def _draw(rng, truncation, lowest):
    """An {exponent: coefficient tuple} mapping with exponents from lowest
    to below the truncation."""
    exponents = rng.sample(range(lowest, truncation), rng.randint(1, min(6, truncation - lowest)))
    return {e: _coefficient(rng) for e in exponents}


@pytest.mark.parametrize("unit", UNITS.values(), ids=UNITS)
def test_products_match_the_benchmark_model(unit):
    rng = random.Random(f"model {unit}")
    twist = inner(quat(*unit))
    for _ in range(12):
        truncation = rng.randint(1, 14)
        f, g = _draw(rng, truncation, 0), _draw(rng, truncation, 0)
        product = series(QUATERNION, twist, truncation, {e: quat(*c) for e, c in f.items()}) * series(
            QUATERNION, twist, truncation, {e: quat(*c) for e, c in g.items()}
        )
        assert _terms(product) == model.twisted_product(unit, f, g, truncation)


@pytest.mark.parametrize("unit", UNITS.values(), ids=UNITS)
def test_laurent_products_match_the_fraction_oracle(unit):
    rng = random.Random(f"laurent {unit}")
    twist = inner(quat(*unit))
    for _ in range(8):
        truncation = rng.randint(1, 10)
        f = series(QUATERNION, twist, truncation, {e: quat(*c) for e, c in _draw(rng, truncation, -12).items()})
        g = series(QUATERNION, twist, truncation, {e: quat(*c) for e, c in _draw(rng, truncation, -12).items()})
        assert _terms(f * g) == _oracle_product(f, g)


@pytest.mark.parametrize("ring", OTHER_TWISTS.values(), ids=OTHER_TWISTS)
def test_untwisted_and_conjugate_laurent_products_match_the_fraction_oracle(ring):
    kind, twist = ring
    rng = random.Random(f"other {kind!r} {twist.action}")
    dim = kind.dim_over_k
    for _ in range(8):
        truncation = rng.randint(1, 10)

        def draw():
            exponents = rng.sample(range(-12, truncation), rng.randint(1, 6))
            return series(kind, twist, truncation, {e: element(kind, *_coefficient(rng, dim)) for e in exponents})

        f, g = draw(), draw()
        assert _terms(f * g) == _oracle_product(f, g)


@pytest.mark.parametrize("n", range(1, 7))
def test_the_jordan_check_holds_on_every_unit_and_twist(n):
    for unit in UNITS.values():
        assert verify_jordan_twist(QUATERNION, inner(quat(*unit)), n) is True, unit
    for kind, twist in OTHER_TWISTS.values():
        assert verify_jordan_twist(kind, twist, n) is True, (kind, twist)


def _vectors():
    """Nonzero integer 4-vectors: the units above, their multiples by
    -3 and 6, and seeded ones with leading zeros and mixed signs."""
    rng = random.Random(11)
    vectors = [tuple(k * v for v in unit) for unit in UNITS.values() for k in (1, -3, 6)]
    vectors += [(0, 0, 0, -5), (0, 0, 4, 0), (0, -2, 4, 0), (-7, 0, 0, 0)]
    while len(vectors) < 80:
        v = tuple(rng.randint(-9, 9) * rng.choice((1, 1, 12)) for _ in range(4))
        if any(v):
            vectors.append(v)
    return vectors


def test_the_trusted_inner_automorphism_equals_the_checked_one():
    for v in _vectors():
        trusted, checked = _inner_of(v), inner(quat(*v))
        assert trusted == checked and hash(trusted) == hash(checked), v
        assert trusted.rotation == checked.rotation and repr(trusted) == repr(checked), v
        assert trusted.unit.num == checked.unit.num and trusted.unit.den == 1
        assert math.gcd(*trusted.unit.num) == 1 and next(x for x in trusted.unit.num if x) > 0


def _elements(rng, kind, count):
    dim = kind.dim_over_k
    out = [element(kind, *(0,) * dim)]
    while len(out) < count:
        out.append(element(kind, *(Fraction(rng.randint(-30, 30), rng.choice((1, 2, 6, 7, 35))) for _ in range(dim))))
    return out


def test_image_agrees_with_apply_and_with_the_fraction_oracle():
    rng = random.Random(23)
    twists = [(QUATERNION, inner(quat(*u))) for u in UNITS.values()] + list(OTHER_TWISTS.values())
    twists += [(QUATERNION, power(inner(quat(1, 2, -1, 3)), e)) for e in (-12, -5, 7)]
    for kind, phi in twists:
        oracle_phi = fo.from_twist(phi)
        for a in _elements(rng, kind, 25):
            num, den = _image(phi, a.num, a.den)
            image = apply(phi, a)
            assert (num, den) == (image.num, image.den)
            assert den > 0 and math.gcd(den, *num) == 1 and all(type(x) is int for x in num)
            expected = fo.apply(oracle_phi, fo.oracle(kind.dim_over_k, *a.coeffs)).coeffs
            assert tuple(Fraction(x, den) for x in num) == expected
            # an element built from the pair is the public one
            assert AlgebraElement(kind, expected) == image
