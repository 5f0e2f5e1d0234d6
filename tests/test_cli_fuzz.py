"""Random curve files through the CLI: every run ends in a documented exit.

Curve records (surface, complex-centre and abstract) are drawn with
hypothesis, written to a file and run through ``invariants`` and
``classify``. Each run must exit with 0, 1, 2 or 3, let no exception out
of the CLI and print no traceback. An ``InvariantViolation`` is an internal
check failing, not bad input, so the CLI's error handler is narrowed to
the other error types here: one raised lets the runner record it.
"""

import json
from datetime import timedelta

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from wittcurves import cli
from wittcurves.errors import CurveError, InvariantViolation
from wittcurves.local_data import WittPointClass
from wittcurves.witt_surface import CATALOG_NAMES

def _mostly(strategy, rare):
    """Draws from strategy nine times in ten and from rare otherwise."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 0 else strategy)


_EDGE = st.sampled_from([0, -1, -(10**9), 10_000, 10_001, 10**9, 2**70])
_INT = _mostly(st.integers(1, 6), _EDGE)
_WORD = st.sampled_from(["", "x0", "7", "+"])
_JUNK = st.one_of(st.none(), st.booleans(), _WORD, st.floats(-1e3, 1e3))
_SIGN = st.sampled_from(["+", "-"])

_OVAL = st.one_of(
    _SIGN,
    st.fixed_dictionaries({"sign": _mostly(_SIGN, st.just("0"))}),
    st.fixed_dictionaries({"segments": st.lists(_SIGN, max_size=6)}),
)
_TOPOLOGY = st.fixed_dictionaries(
    {"g": st.integers(0, 3) | _EDGE, "t": st.integers(0, 3) | _EDGE, "s": st.integers(0, 1) | _EDGE},
    optional={"ovals": st.lists(_OVAL, max_size=4), "commutative": st.booleans()},
)
_PLACEMENT = st.fixed_dictionaries(
    {
        "class": _mostly(st.sampled_from([c.value for c in WittPointClass] + ["point"]), st.just("cusp")),
        "p": _mostly(_INT, _JUNK),
    },
    optional={"oval": st.integers(-1, 3), "segment": st.integers(-1, 3)},
)
_SURFACE = st.fixed_dictionaries(
    {"base": st.one_of(_mostly(st.sampled_from(CATALOG_NAMES), st.just("nowhere")), _TOPOLOGY)},
    optional={"weights": st.lists(_PLACEMENT, max_size=5)},
)
_COMPLEX_CENTRE = st.fixed_dictionaries({
    "base": st.sampled_from(["S2_C", "T_C"]),
    "weights": st.lists(st.fixed_dictionaries({"class": st.just("point"), "p": _INT}), max_size=5),
})
_ABSTRACT_POINT = st.fixed_dictionaries(
    {}, optional={"label": _WORD, "e_tau": _INT, "f": _INT, "p": _INT}
)
_ABSTRACT = st.fixed_dictionaries({
    "overrides": st.fixed_dictionaries(
        {
            "chi_x": _mostly(st.integers(-3, 3) | st.fixed_dictionaries({"num": _INT, "den": _INT}), _JUNK),
            "s": st.integers(0, 3) | _EDGE,
            "kappa": _mostly(st.integers(1, 2), _EDGE),
            "epsilon": _mostly(st.integers(1, 2), _EDGE),
        },
        optional={
            "points": st.lists(_ABSTRACT_POINT, max_size=5),
            "centre_genus": st.one_of(st.none(), st.integers(0, 2), _EDGE),
        },
    )
})
_RECORD = st.one_of(_SURFACE, _COMPLEX_CENTRE, _ABSTRACT)

# Every error type the CLI reports, except the internal check failures.
_USER_ERRORS = tuple(
    c for c in CurveError.__subclasses__() if not issubclass(c, InvariantViolation)
)


@pytest.fixture(scope="module")
def curve_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "curve.json"


@pytest.fixture(scope="module")
def strict_cli():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CurveError", _USER_ERRORS)
        yield


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=timedelta(seconds=2),
)
@given(record=_RECORD)
def test_random_curve_files_end_in_a_documented_exit(curve_file, strict_cli, record):
    curve_file.write_text(json.dumps(record))
    runner = CliRunner()
    for command in ("invariants", "classify"):
        res = runner.invoke(cli.main, [command, str(curve_file)])
        assert res.exception is None or isinstance(res.exception, SystemExit), (
            command, record, repr(res.exception),
        )
        assert res.exit_code in (0, 1, 2, 3), (command, record, res.output)
        assert "Traceback" not in res.output
        assert "InvariantViolation" not in res.output
