import builtins
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from cli_runner import invoke
from test_weighted_curve import orders_at_the_ceiling, primes_below

from wittcurves import cli, weighted_curve, witt_surface
from wittcurves.errors import ValidationError
from wittcurves.ktheory import INFINITY
from wittcurves.weighted_curve import MAX_ORDER_LCM, MAX_POINT_VALUE, MAX_VECTOR_LENGTH


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _curve_b(tmp_path):
    return _write(tmp_path, "b.json", {
        "base": "D_22",
        "weights": [
            {"class": "segmentation", "p": 2, "oval": 0, "segment": 0},
            {"class": "segmentation", "p": 2, "oval": 0, "segment": 1},
            {"class": "real_boundary", "p": 2, "oval": 0},
        ],
    })


def test_invariants_of_an_elliptic_curve(tmp_path):
    path = _write(tmp_path, "c.json", {"base": "D_2222"})
    res = invoke(["invariants", path])
    assert res.exit_code == 0
    assert res.output == (
        '{"chi": {"den": 1, "num": 0}, "chi_normalized": {"den": 1, "num": 0},'
        ' "chi_orb": {"den": 1, "num": 0}, "class": "ELLIPTIC", "constants_field": "C",'
        ' "cy": [2, 2], "genus": 1, "picard": {"base_part": "Z",'
        ' "finitely_generated_rank_one": true, "pic_zero": "C2 x C2",'
        ' "torsion": [2, 2, 2, 2]}, "tau_order": 2, "wrv": [2, 2, 2, 2]}\n'
    )


def test_invariants_of_a_quaternionic_disc(tmp_path):
    path = _write(tmp_path, "c.json", {"base": "D_H"})
    res = invoke(["invariants", path])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["chi"] == {"num": 4, "den": 1}
    assert data["chi_normalized"] == {"num": 1, "den": 1}
    assert data["class"] == "DOMESTIC"
    assert data["constants_field"] == "H"
    assert data["genus"] == 0
    assert data["tau_order"] is None
    assert data["cy"] is None


def test_invariants_of_a_weighted_disc(tmp_path):
    res = invoke(["invariants", _curve_b(tmp_path)])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["class"] == "TUBULAR"
    assert data["chi_orb"] == {"num": 0, "den": 1}
    assert data["cy"] == [4, 4]
    assert data["tau_order"] == 4
    assert data["wrv"] == [2, 4, 4]
    assert data["picard"]["torsion"] == [2, 4, 4]


def test_invariants_of_an_explicit_surface(tmp_path):
    path = _write(tmp_path, "c.json", {
        "base": {
            "g": 0, "t": 1, "s": 1, "commutative": False,
            "ovals": [{"segments": ["+", "-", "+", "-"]}],
        },
    })
    res = invoke(["invariants", path])
    assert res.exit_code == 0
    assert json.loads(res.output)["class"] == "ELLIPTIC"


def test_invariants_of_abstract_numerics(tmp_path):
    path = _write(tmp_path, "q.json", {
        "overrides": {
            "chi_x": 1, "s": 1, "kappa": 1, "epsilon": 1,
            "points": [
                {"label": "a", "e_tau": 2},
                {"label": "b", "e_tau": 2},
                {"label": "c", "f": 2, "p": 2},
            ],
        },
    })
    res = invoke(["invariants", path])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["class"] == "TUBULAR"
    assert data["wrv"] == [2, 2, 2, 2]
    assert data["genus"] is None
    assert data["constants_field"] is None


def test_classify_wild(tmp_path):
    path = _write(tmp_path, "w.json", {
        "base": "D_22",
        "weights": [{"class": "inner", "p": 7}],
    })
    res = invoke(["classify", path])
    assert res.exit_code == 0
    assert res.output == "WILD\n"


def test_zoo_table_sizes():
    for flag, rows in (("elliptic", 8), ("tubular", 31), ("domestic", 38), ("all", 77)):
        res = invoke(["zoo", "--class", flag])
        assert res.exit_code == 0
        assert len(res.output.splitlines()) == rows + 2


def test_zoo_json_sizes():
    for flag, rows in (("elliptic", 8), ("tubular", 31), ("domestic", 38), ("all", 77)):
        res = invoke(["zoo", "--class", flag, "--format", "json"])
        assert res.exit_code == 0
        assert len(json.loads(res.output)) == rows


def test_zoo_json_first_tubular_entry():
    res = invoke(["zoo", "--class", "tubular", "--format", "json"])
    first = json.loads(res.output)[0]
    assert first == {
        "base": "D",
        "centre": "R",
        "chi_orb": {"den": 1, "num": 0},
        "class": "TUBULAR",
        "cy": [2, 2],
        "s": 1,
        "tau_order": 2,
        "weights": [["inner", 2], ["inner", 2]],
        "wrv": [2, 2, 2, 2],
    }


def test_local_table():
    res = invoke(["local", "segmentation"])
    assert res.exit_code == 0
    assert res.output == (
        "class         e  e*  e_tau  f_res  D_x\n"
        "segmentation  1  1   2      1      ℂ\n"
    )


def test_slopes_output():
    res = invoke(["slopes", "K"])
    assert res.exit_code == 0
    assert res.output == "2 orbits\nrepresentatives: inf, 0\n"
    res = invoke(["slopes", "A"])
    assert res.output == "1 orbit\nrepresentatives: inf\n"


def test_skew_centre_output():
    cases = [
        (["--algebra", "C", "--twist", "conj"], "centre = R[[T^2]], dim over centre = 4\n"),
        (["--algebra", "H", "--twist", "id"], "centre = R[[T]], dim over centre = 4\n"),
        (["--algebra", "C", "--twist", "id"], "centre = C[[T]], dim over centre = 1\n"),
    ]
    for args, expected in cases:
        res = invoke(["skew-centre", *args])
        assert res.exit_code == 0
        assert res.output == expected


def test_ghost_outputs(tmp_path):
    cases = [
        ({"points": [{"e_tau": 5, "f": 1}, {"e_tau": 5, "f": 1}]}, "ghost group: C5\n"),
        ({"points": [[2, 1], [2, 1], [2, 1]], "efficient": 0}, "ghost group: C2 x C2\n"),
        ({"points": [{"e_tau": 1, "f": 1}, {"e_tau": 1, "f": 3}]}, "ghost group: trivial\n"),
    ]
    for i, (payload, expected) in enumerate(cases):
        path = _write(tmp_path, f"g{i}.json", payload)
        res = invoke(["ghost", path])
        assert res.exit_code == 0
        assert res.output == expected


def test_parse_errors_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = invoke(["invariants", str(bad)])
    assert res.exit_code == 1
    both = _write(tmp_path, "both.json", {
        "base": "D",
        "overrides": {"g": 0, "t": 1, "s": 1, "ovals": ["+"], "commutative": True},
    })
    res = invoke(["invariants", both])
    assert res.exit_code == 1
    missing = tmp_path / "missing.json"
    res = invoke(["invariants", str(missing)])
    assert res.exit_code == 1


@pytest.mark.parametrize("command", ["invariants", "classify", "ghost"])
def test_unreadable_files_exit_one(tmp_path, monkeypatch, command):
    # a user without read permission, simulated since root reads anything:
    # os.access denies the file and opening it raises PermissionError
    path = _write(tmp_path, "locked.json", {"base": "D"})
    access, real_open = os.access, builtins.open

    def denied_access(p, mode, *args, **kwargs):
        return False if os.fspath(p) == path else access(p, mode, *args, **kwargs)

    def denied_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == path:
            raise PermissionError(13, "Permission denied", path)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(os, "access", denied_access)
    monkeypatch.setattr(builtins, "open", denied_open)
    res = invoke([command, path])
    assert res.exit_code == 1
    assert res.output.startswith(f"error: cannot read {path}")


@pytest.mark.parametrize("command", ["invariants", "ghost"])
@pytest.mark.parametrize("content", [
    b'{"base": "\xff"}',
    b"[" * 100_000 + b"]" * 100_000,
    b'{"base": "D", "efficient": ' + b"7" * 5000 + b"}",
], ids=["not-utf8", "deep-nesting", "long-integer"])
def test_malformed_files_exit_one_without_a_traceback(tmp_path, command, content):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    res = invoke([command, str(path)])
    assert isinstance(res.exception, SystemExit)
    assert res.exit_code == 1
    assert res.output.startswith("error:")


def test_validation_errors_exit_two(tmp_path):
    unknown = _write(tmp_path, "u.json", {"base": "D_23"})
    res = invoke(["invariants", unknown])
    assert res.exit_code == 2
    assert res.output.startswith("error:")
    low = _write(tmp_path, "l.json", {
        "base": "D_22", "weights": [{"class": "inner", "p": 1}],
    })
    res = invoke(["classify", low])
    assert res.exit_code == 2
    res = invoke(["slopes", "X"])
    assert res.exit_code == 2


@pytest.mark.parametrize("base, record, message", [
    ("D", {"class": "inner", "p": 2, "oval": 99, "segment": -7}, "an inner weight takes no oval or segment index"),
    ("D", {"class": "real_boundary", "p": 2, "segment": 5}, "a boundary weight takes no segment index"),
    ("S2_C", {"class": "point", "p": 2, "oval": 3}, "a point weight takes no oval or segment index"),
], ids=["inner", "real-boundary", "point"])
def test_an_index_the_class_does_not_read_exits_two(tmp_path, base, record, message):
    res = invoke(["invariants", _write(tmp_path, "i.json", {"base": base, "weights": [record]})])
    assert (res.exit_code, res.output) == (2, f"error: {message}\n")


@pytest.mark.parametrize("command", ["invariants", "classify"])
def test_abstract_epsilon_outside_one_and_two_exits_two(tmp_path, command):
    path = _write(tmp_path, "e.json", {
        "overrides": {"chi_x": 1, "s": 1, "kappa": 1, "epsilon": 3, "points": []},
    })
    res = invoke([command, path])
    assert res.exit_code == 2
    assert res.output == "error: epsilon must be 1 or 2, got 3\n"


@pytest.mark.parametrize("command", ["invariants", "classify"])
def test_abstract_inconsistent_data_exits_three(tmp_path, command):
    path = _write(tmp_path, "t.json", {"overrides": {
        "chi_x": {"num": 1, "den": 2}, "s": 2, "kappa": 1, "epsilon": 2,
        "points": [{"label": "x0", "f": 2, "p": 2}],
    }})
    res = invoke([command, path])
    assert res.exit_code == 3
    assert res.output == "error: tubular curve with vector (2, 2)\n"


@pytest.mark.parametrize("command", ["invariants", "classify"])
def test_abstract_tubular_data_on_a_positive_genus_centre_exits_three(tmp_path, command):
    path = _write(tmp_path, "t.json", {"overrides": {
        "chi_x": 1, "s": 1, "kappa": 1, "epsilon": 1, "points": [{"p": 2}] * 4, "centre_genus": 1,
    }})
    res = invoke([command, path])
    assert res.exit_code == 3
    assert res.output == "error: tubular curve with a positive-genus centre\n"


@pytest.mark.parametrize("field", ["e_tau", "f", "p"])
@pytest.mark.parametrize("value", [10**9, 2**70])
def test_huge_abstract_point_entries_exit_two(tmp_path, field, value):
    path = _write(tmp_path, "h.json", {"overrides": {
        "chi_x": 1, "s": 1, "kappa": 1, "epsilon": 1, "points": [{"label": "x0", field: value}],
    }})
    res = invoke(["invariants", path])
    assert res.exit_code == 2
    assert res.output == "error: point x0 has an entry above 10000\n"


def _inner_weights(orders):
    return {"base": "D", "weights": [{"class": "inner", "p": p} for p in orders]}


def _e_tau_points(orders, chi_x=1):
    return {"overrides": {
        "chi_x": chi_x, "s": 1, "kappa": 1, "epsilon": 1, "points": [{"e_tau": e, "p": 1} for e in orders],
    }}


@pytest.mark.parametrize("command", ["invariants", "classify"])
@pytest.mark.parametrize("make", [_inner_weights, _e_tau_points], ids=["weights", "e_tau"])
def test_the_lcm_of_the_point_orders_has_a_ceiling(tmp_path, make, command):
    at = orders_at_the_ceiling()
    res = invoke([command, _write(tmp_path, "at.json", make(at))])
    assert res.exit_code == 0
    # one more order of 2, and one weight or e_tau for each prime below 10000
    for above in (at + [2], primes_below(10000)):
        res = invoke([command, _write(tmp_path, "above.json", make(above))])
        assert res.exit_code == 2
        assert res.output == "error: the lcm of the point orders p * e_tau is above MAX_ORDER_LCM\n"


@pytest.mark.parametrize("command", ["invariants", "classify"])
def test_the_count_of_weights_has_a_ceiling(tmp_path, command):
    weights = [{"class": "real_boundary", "p": 2}] * MAX_VECTOR_LENGTH
    res = invoke([command, _write(tmp_path, "at.json", {"base": "D", "weights": weights})])
    assert res.exit_code == 0
    if command == "invariants":
        assert json.loads(res.output)["wrv"] == [2] * MAX_VECTOR_LENGTH
    above = {"base": "D", "weights": [{"class": "inner", "p": 9973}] * (MAX_VECTOR_LENGTH + 1)}
    res = invoke([command, _write(tmp_path, "above.json", above)])
    assert res.exit_code == 2
    assert res.output == (
        f"error: {MAX_VECTOR_LENGTH + 1} weights would give the weight-ramification vector more than"
        f" {MAX_VECTOR_LENGTH} entries\n"
    )


def test_too_many_weights_are_refused_before_any_record_is_parsed(tmp_path, monkeypatch):
    parsed = []
    real_weighted_point = cli._weighted_point
    monkeypatch.setattr(cli, "_weighted_point", lambda record: parsed.append(record) or real_weighted_point(record))
    # one malformed record among too many: the count is refused first
    weights = [{"class": "inner", "p": 9973}] * MAX_VECTOR_LENGTH + [{"class": "no-such-class", "p": 2}]
    res = invoke(["invariants", _write(tmp_path, "above.json", {"base": "D", "weights": weights})])
    assert res.exit_code == 2 and res.output.startswith(f"error: {MAX_VECTOR_LENGTH + 1} weights would give")
    assert parsed == []
    res = invoke(["invariants", _write(tmp_path, "at.json", {"base": "D", "weights": weights[1:]})])
    assert res.exit_code == 1 and res.output == "error: unknown point class 'no-such-class'\n"
    assert len(parsed) == MAX_VECTOR_LENGTH


def test_too_many_points_are_refused_before_any_record_is_parsed(tmp_path, monkeypatch):
    parsed = []
    for name in ("_abstract_point", "_ghost_point"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, real=real: parsed.append(args) or real(*args))
    # one malformed record among too many: the count is refused first
    points = [{"e_tau": 1}] * MAX_VECTOR_LENGTH + [{"bogus": 1}]
    numerics = {"chi_x": 1, "s": 1, "kappa": 1, "epsilon": 1}
    for command, what in (("invariants", "an override point"), ("ghost", "a ghost point")):
        def payload(points):
            return {"overrides": {**numerics, "points": points}} if command == "invariants" else {"points": points}

        res = invoke([command, _write(tmp_path, "above.json", payload(points))])
        assert res.exit_code == 2 and res.output == f"error: more than {MAX_VECTOR_LENGTH} points\n"
        assert parsed == []
        # at the ceiling every record is parsed, the malformed one too
        res = invoke([command, _write(tmp_path, "at.json", payload(points[1:]))])
        assert res.exit_code == 1 and res.output == f"error: unknown fields in {what}: ['bogus']\n"
        assert len(parsed) == MAX_VECTOR_LENGTH
        res = invoke([command, _write(tmp_path, "at.json", payload(points[:-1]))])
        assert res.exit_code == 0
        parsed.clear()


def test_the_largest_file_of_weights_fits_under_the_byte_ceiling(tmp_path):
    # one oval cut into MAX_VECTOR_LENGTH segments, spelt out, and a weight of
    # MAX_POINT_VALUE on each of its segmentation points: MAX_VECTOR_LENGTH
    # weight records with an oval and a segment, printed with an indent of four
    segments = MAX_VECTOR_LENGTH
    base = {"g": 0, "t": 1, "s": 1, "commutative": False, "ovals": [{"segments": ["+", "-"] * (segments // 2)}]}
    weights = [{"class": "segmentation", "oval": 0, "p": MAX_POINT_VALUE, "segment": i} for i in range(segments)]
    path = tmp_path / "largest.json"
    path.write_text(json.dumps({"base": base, "weights": weights}, indent=4))
    assert path.stat().st_size <= cli.MAX_FILE_BYTES
    res = invoke(["invariants", str(path)])
    assert res.exit_code == 0
    assert json.loads(res.output)["wrv"] == [2 * MAX_POINT_VALUE] * MAX_VECTOR_LENGTH


def test_too_many_segments_are_refused_before_the_surface_is_read(tmp_path, monkeypatch):
    reads, ovals = [], []
    real_read = witt_surface.read_base
    for owner in (weighted_curve, witt_surface):
        monkeypatch.setattr(owner, "read_base", lambda w: reads.append(w) or real_read(w))
    real_oval = cli._oval
    monkeypatch.setattr(cli, "_oval", lambda record: ovals.append(record) or real_oval(record))
    # each segmentation point gives the vector an entry: one oval of
    # MAX_VECTOR_LENGTH + 2 segments, and two that have as many in all
    above = ["+", "-"] * (MAX_VECTOR_LENGTH // 2 + 1)
    bases = (
        {"g": 0, "t": 1, "s": 1, "ovals": [{"segments": above}]},
        {"g": 1, "t": 2, "s": 1, "ovals": [{"segments": above[:-2]}, {"segments": ["-", "+"]}]},
    )
    for base in bases:
        path = _write(tmp_path, "above.json", {"base": base})
        res = invoke(["invariants", path])
        assert res.exit_code == 2 and res.output == (
            f"error: the weight-ramification vector would have {MAX_VECTOR_LENGTH + 2} entries,"
            f" more than {MAX_VECTOR_LENGTH}\n"
        )
        with pytest.raises(ValidationError) as exc:
            cli.load_curve(path)
        assert exc.value.code == "too-large"
        assert reads == [] and ovals == []
    # one malformed sign among too many: the count is refused first
    base = {"g": 0, "t": 1, "s": 1, "ovals": [{"segments": above[:-1] + ["?"]}]}
    res = invoke(["invariants", _write(tmp_path, "above.json", {"base": base})])
    assert res.exit_code == 2 and res.output.startswith("error: the weight-ramification vector would have")
    assert reads == [] and ovals == []


@pytest.mark.parametrize("command, payload", [
    ("invariants", {"base": "D"}), ("classify", {"base": "D"}), ("ghost", {"points": [[2, 1]]}),
])
def test_a_file_above_the_byte_ceiling_is_refused_before_it_is_parsed(tmp_path, monkeypatch, command, payload):
    parsed = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: parsed.append(len(text)) or real_loads(text))
    body = json.dumps(payload).encode()
    # a valid file padded with spaces to the ceiling, and one byte more
    at, above = tmp_path / "at.json", tmp_path / "above.json"
    at.write_bytes(body + b" " * (cli.MAX_FILE_BYTES - len(body)))
    above.write_bytes(body + b" " * (cli.MAX_FILE_BYTES + 1 - len(body)))
    res = invoke([command, str(above)])
    assert res.exit_code == 2 and res.output == f"error: {above} has more than {cli.MAX_FILE_BYTES} bytes\n"
    assert parsed == []
    res = invoke([command, str(at)])
    assert res.exit_code == 0 and parsed == [cli.MAX_FILE_BYTES]


def test_slope_strings_are_inf_or_the_fraction():
    slopes = (INFINITY, Fraction(0), Fraction(-3), Fraction(3, 4), Fraction(-5, 2), 7)
    assert [cli._slope_str(s) for s in slopes] == ["inf", "0", "-3", "3/4", "-5/2", "7"]


@pytest.mark.parametrize("command", ["invariants", "classify"])
@pytest.mark.parametrize("chi_x", [
    {"num": 1, "den": 9 * 10**4299 + 1}, 9 * 10**4299, {"num": MAX_ORDER_LCM + 1, "den": 3},
], ids=["parse-limit-denominator", "parse-limit-integer", "above-the-ceiling"])
def test_abstract_chi_x_has_a_ceiling(tmp_path, chi_x, command):
    res = invoke([command, _write(tmp_path, "x.json", _e_tau_points([3], chi_x))])
    assert res.exit_code == 2
    assert res.output == "error: chi_x has a numerator or a denominator above MAX_ORDER_LCM\n"


@pytest.mark.parametrize("command", ["invariants", "classify"])
def test_the_genus_of_a_base_has_a_ceiling(tmp_path, command):
    # a genus of 4251 digits with 25 inner weights gave a chi'_orb past
    # Python's 4300 digits for printing an int, and a traceback
    base = {"g": MAX_ORDER_LCM, "t": 0, "s": 0, "ovals": [], "commutative": True}
    curve = {"base": base, "weights": [{"class": "inner", "p": p} for p in orders_at_the_ceiling()]}
    res = invoke([command, _write(tmp_path, "at.json", curve)])
    assert res.exit_code == 0
    for g in (MAX_ORDER_LCM + 1, 10**4250):
        base["g"] = g
        res = invoke([command, _write(tmp_path, "above.json", curve)])
        assert res.exit_code == 2
        assert res.output == "error: the genus g is above MAX_ORDER_LCM\n"


def test_an_answer_at_every_ceiling_stays_short(tmp_path):
    chi_x = {"num": -MAX_ORDER_LCM, "den": MAX_ORDER_LCM - 1}
    path = _write(tmp_path, "a.json", _e_tau_points(orders_at_the_ceiling(), chi_x))
    res = invoke(["invariants", path])
    assert res.exit_code == 0
    chi = json.loads(res.output)["chi_orb"]
    assert max(abs(chi["num"]), chi["den"]) < 10**205
    assert len(res.output) < 2000


@pytest.mark.parametrize("points, message", [
    ([[10001, 1], [1, 1]], "e_tau and residue degrees must be at most 10000"),
    ([[1, 1], [1, 10001]], "e_tau and residue degrees must be at most 10000"),
    ([[1, 1]] * 10001, "more than 10000 points"),
], ids=["e_tau", "f", "points"])
def test_ghost_ceiling_exits_two(tmp_path, points, message):
    res = invoke(["ghost", _write(tmp_path, "big.json", {"points": points})])
    assert res.exit_code == 2
    assert res.output == f"error: {message}\n"


@pytest.mark.parametrize("argv, words", [
    (["slopes", "K", "--bound", "30"], "--bound 30"),
    (["skew-centre", "--algebra", "H", "--twist", "id", "--order", "8"], "--order 8"),
], ids=" ".join)
def test_slopes_and_skew_centre_take_no_bound_or_order(argv, words):
    # no answer depends on a slope bound or a centre order, so neither is an option
    res = invoke(argv)
    assert res.exit_code == 2
    assert res.output == f"usage: wittcurves [-h] COMMAND ...\nwittcurves: error: unrecognized arguments: {words}\n"


def test_domain_errors_exit_three(tmp_path):
    inconsistent = _write(tmp_path, "g.json", {
        "points": [{"e_tau": 2, "f": 1}, {"e_tau": 2, "f": 2}],
        "efficient": 1,
    })
    res = invoke(["ghost", inconsistent])
    assert res.exit_code == 3
    res = invoke(["skew-centre", "--algebra", "H", "--twist", "conj"])
    assert res.exit_code == 3


@pytest.mark.parametrize("command", ["invariants", "classify"])
def test_abstract_negative_centre_genus_exits_two(tmp_path, command):
    path = _write(tmp_path, "n.json", {
        "overrides": {"chi_x": 1, "s": 1, "kappa": 1, "epsilon": 1, "points": [], "centre_genus": -1},
    })
    res = invoke([command, path])
    assert res.exit_code == 2
    assert res.output == "error: the centre genus must be nonnegative\n"


_TOPOLOGY = {"g": 0, "t": 1, "s": 1, "ovals": ["+"], "commutative": True}
_OVERRIDES = {"chi_x": 1, "s": 1, "kappa": 1, "epsilon": 1}


def _with(record, **fields):
    return {**record, **fields}


def _on_topology(**fields):
    return {"base": _with(_TOPOLOGY, **fields)}


def _on_oval(oval):
    return _on_topology(ovals=[oval], commutative=False)


def _on_placement(placement):
    return {"base": "D_22", "weights": [placement]}


def _on_overrides(**fields):
    return {"overrides": _with(_OVERRIDES, **fields)}


def _on_ghost_point(point):
    return {"points": [[2, 1], point]}


# (reader, the check it fails, command, file content); every case is a
# JSON value that parses, so the reader and no JSON decoder rejects it
_MALFORMED = [
    ("top", "not-object", "invariants", [1, 2]),
    ("top", "unknown", "invariants", {"base": "D", "colour": 1}),
    ("top", "missing", "invariants", {"weights": []}),
    ("top", "both", "invariants", {"base": "D", "overrides": _OVERRIDES}),
    ("top", "not-list", "invariants", {"base": "D_H", "weights": {"class": "inner", "p": 2}}),
    ("top", "weights-on-overrides", "invariants", {"overrides": _OVERRIDES, "weights": [{"class": "inner", "p": 2}]}),
    ("topology", "not-object", "invariants", {"base": 5}),
    ("topology", "not-object-list", "invariants", {"base": ["g", "t", "s"]}),
    ("topology", "unknown", "invariants", _on_topology(colour=1)),
    ("topology", "missing", "invariants", {"base": {"g": 0, "t": 1}}),
    ("topology", "float", "invariants", _on_topology(g=0.0)),
    ("topology", "bool", "invariants", _on_topology(t=True)),
    ("topology", "null", "invariants", _on_topology(s=None)),
    ("topology", "not-list", "invariants", _on_topology(ovals="+")),
    ("topology", "commutative-int", "invariants", _on_topology(commutative=1)),
    ("topology", "commutative-null", "invariants", _on_topology(commutative=None)),
    ("oval", "not-object", "invariants", _on_oval(5)),
    ("oval", "not-object-list", "invariants", _on_oval(["+", "-"])),
    ("oval", "missing", "invariants", _on_oval({})),
    ("oval", "bad-sign-bare", "invariants", _on_oval("0")),
    ("oval", "bad-sign", "invariants", _on_oval({"sign": "0"})),
    ("oval", "null-sign", "invariants", _on_oval({"sign": None})),
    ("oval", "bad-segment-sign", "invariants", _on_oval({"segments": ["+", "0"]})),
    ("oval", "not-list", "invariants", _on_oval({"segments": "+-"})),
    ("placement", "not-object", "invariants", _on_placement("inner")),
    ("placement", "unknown", "invariants", _on_placement({"class": "inner", "p": 2, "colour": 1})),
    ("placement", "missing-p", "invariants", _on_placement({"class": "inner"})),
    ("placement", "missing-class", "invariants", _on_placement({"p": 2})),
    ("placement", "bad-class", "invariants", _on_placement({"class": "edge", "p": 2})),
    ("placement", "float", "invariants", _on_placement({"class": "inner", "p": 2.0})),
    ("placement", "bool", "invariants", _on_placement({"class": "inner", "p": True})),
    ("placement", "null", "invariants", _on_placement({"class": "inner", "p": None})),
    ("placement", "float-oval", "invariants", _on_placement({"class": "real_boundary", "p": 2, "oval": 0.0})),
    ("placement", "bool-segment", "invariants",
     _on_placement({"class": "segmentation", "p": 2, "oval": 0, "segment": False})),
    ("overrides", "not-object", "invariants", {"overrides": [1]}),
    ("overrides", "unknown", "invariants", _on_overrides(colour=1)),
    ("overrides", "missing", "invariants", {"overrides": {"chi_x": 1, "s": 1, "kappa": 1}}),
    ("overrides", "float", "invariants", _on_overrides(s=1.0)),
    ("overrides", "bool", "invariants", _on_overrides(kappa=True)),
    ("overrides", "null", "invariants", _on_overrides(epsilon=None)),
    ("overrides", "float-centre-genus", "invariants", _on_overrides(centre_genus=0.5)),
    ("overrides", "float-chi", "invariants", _on_overrides(chi_x=0.5)),
    ("overrides", "bool-chi", "invariants", _on_overrides(chi_x=True)),
    ("overrides", "null-chi", "invariants", _on_overrides(chi_x=None)),
    ("overrides", "unknown-chi-field", "invariants", _on_overrides(chi_x={"num": 1, "den": 2, "sign": 1})),
    ("overrides", "missing-chi-field", "invariants", _on_overrides(chi_x={"num": 1})),
    ("overrides", "float-chi-field", "invariants", _on_overrides(chi_x={"num": 1.0, "den": 2})),
    ("overrides", "zero-denominator", "invariants", _on_overrides(chi_x={"num": 1, "den": 0})),
    ("overrides", "not-list", "invariants", _on_overrides(points={"label": "a"})),
    ("override-point", "not-object", "invariants", _on_overrides(points=[[2, 1, 1]])),
    ("override-point", "unknown", "invariants", _on_overrides(points=[{"label": "a", "colour": 1}])),
    ("override-point", "float", "invariants", _on_overrides(points=[{"e_tau": 2.0}])),
    ("override-point", "bool", "invariants", _on_overrides(points=[{"f": True}])),
    ("override-point", "null", "invariants", _on_overrides(points=[{"e_tau": None}])),
    ("override-point", "null-label", "invariants", _on_overrides(points=[{"label": None}])),
    ("override-point", "list-label", "invariants", _on_overrides(points=[{"label": [1]}])),
    ("ghost", "not-object", "ghost", [[2, 1]]),
    ("ghost", "unknown", "ghost", {"points": [[2, 1]], "colour": 1}),
    ("ghost", "missing", "ghost", {"efficient": 0}),
    ("ghost", "not-list", "ghost", {"points": {"e_tau": 2, "f": 1}}),
    ("ghost", "empty", "ghost", {"points": []}),
    ("ghost", "float", "ghost", {"points": [[2, 1]], "efficient": 0.0}),
    ("ghost", "bool", "ghost", {"points": [[2, 1]], "efficient": True}),
    ("ghost", "null", "ghost", {"points": [[2, 1]], "efficient": None}),
    ("ghost-point", "not-object", "ghost", _on_ghost_point(5)),
    ("ghost-point", "short-list", "ghost", _on_ghost_point([2])),
    ("ghost-point", "long-list", "ghost", _on_ghost_point([2, 1, 1])),
    ("ghost-point", "unknown", "ghost", _on_ghost_point({"e_tau": 2, "colour": 1})),
    ("ghost-point", "float", "ghost", _on_ghost_point({"e_tau": 2.0})),
    ("ghost-point", "bool", "ghost", _on_ghost_point([True, 1])),
    ("ghost-point", "null", "ghost", _on_ghost_point({"f": None})),
    ("ghost-point", "null-in-list", "ghost", _on_ghost_point([2, None])),
]


@pytest.mark.parametrize(
    "command, payload",
    [case[2:] for case in _MALFORMED],
    ids=[f"{reader}-{check}" for reader, check, *_ in _MALFORMED],
)
def test_every_reader_rejects_malformed_records_with_exit_one(tmp_path, command, payload):
    res = invoke([command, _write(tmp_path, "m.json", payload)])
    assert isinstance(res.exception, SystemExit)
    assert res.exit_code == 1
    assert res.output.startswith("error: ")
    assert res.output.count("\n") == 1
    assert "Traceback" not in res.output


@pytest.mark.parametrize("payload", [
    _on_oval({"sign": "+", "colour": 1}),
    _on_placement({"class": ["inner"], "p": 2}),
], ids=["oval-unknown", "placement-unhashable-class"])
def test_records_once_let_through_or_crashing_exit_one(tmp_path, payload):
    res = invoke(["invariants", _write(tmp_path, "m.json", payload)])
    assert isinstance(res.exception, SystemExit)
    assert res.exit_code == 1
    assert res.output.startswith("error: ")


def test_an_oval_with_both_a_sign_and_segments_exits_one(tmp_path):
    oval = {"sign": "+", "segments": ["+", "-"]}
    payload = {"base": {"g": 0, "t": 1, "s": 1, "ovals": [oval]}}
    res = invoke(["invariants", _write(tmp_path, "m.json", payload)])
    assert res.exit_code == 1
    assert res.output == "error: an oval needs a sign or a segments list, not both\n"


_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.parametrize("args, code", [
    ([], 2),
    (["bogus"], 2),
    (["zoo", "--class", "wild"], 2),
    (["slopes", "K", "--bound", "many"], 2),
    (["skew-centre", "--twist", "id"], 2),
    (["--help"], 0),
    (["slopes", "--help"], 0),
], ids=["no-command", "unknown-command", "bad-choice", "unknown-option", "missing-algebra", "help", "command-help"])
def test_usage_errors_exit_two_and_help_zero(args, code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "wittcurves.cli", *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (proc.stdout if code == 0 else proc.stderr).startswith("usage: wittcurves")
    # the same through main in process, which returns the code argparse exits with
    res = invoke(args)
    assert res.exit_code == code and res.output.startswith("usage: wittcurves")
