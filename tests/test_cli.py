import json

import pytest
from click.testing import CliRunner

from wittcurves.cli import main


@pytest.fixture
def runner():
    return CliRunner()


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


def test_invariants_of_an_elliptic_curve(runner, tmp_path):
    path = _write(tmp_path, "c.json", {"base": "D_2222"})
    res = runner.invoke(main, ["invariants", path])
    assert res.exit_code == 0
    assert res.output == (
        '{"chi": {"den": 1, "num": 0}, "chi_normalized": {"den": 1, "num": 0},'
        ' "chi_orb": {"den": 1, "num": 0}, "class": "ELLIPTIC", "constants_field": "C",'
        ' "cy": [2, 2], "genus": 1, "picard": {"base_part": "Z",'
        ' "finitely_generated_rank_one": true, "pic_zero": "C2 x C2",'
        ' "torsion": [2, 2, 2, 2]}, "tau_order": 2, "wrv": [2, 2, 2, 2]}\n'
    )


def test_invariants_of_a_quaternionic_disc(runner, tmp_path):
    path = _write(tmp_path, "c.json", {"base": "D_H"})
    res = runner.invoke(main, ["invariants", path])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["chi"] == {"num": 4, "den": 1}
    assert data["chi_normalized"] == {"num": 1, "den": 1}
    assert data["class"] == "DOMESTIC"
    assert data["constants_field"] == "H"
    assert data["genus"] == 0
    assert data["tau_order"] is None
    assert data["cy"] is None


def test_invariants_of_a_weighted_disc(runner, tmp_path):
    res = runner.invoke(main, ["invariants", _curve_b(tmp_path)])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["class"] == "TUBULAR"
    assert data["chi_orb"] == {"num": 0, "den": 1}
    assert data["cy"] == [4, 4]
    assert data["tau_order"] == 4
    assert data["wrv"] == [2, 4, 4]
    assert data["picard"]["torsion"] == [2, 4, 4]


def test_invariants_of_an_explicit_surface(runner, tmp_path):
    path = _write(tmp_path, "c.json", {
        "base": {
            "g": 0, "t": 1, "s": 1, "commutative": False,
            "ovals": [{"segments": ["+", "-", "+", "-"]}],
        },
    })
    res = runner.invoke(main, ["invariants", path])
    assert res.exit_code == 0
    assert json.loads(res.output)["class"] == "ELLIPTIC"


def test_invariants_of_abstract_numerics(runner, tmp_path):
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
    res = runner.invoke(main, ["invariants", path])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["class"] == "TUBULAR"
    assert data["wrv"] == [2, 2, 2, 2]
    assert data["genus"] is None
    assert data["constants_field"] is None


def test_classify_wild(runner, tmp_path):
    path = _write(tmp_path, "w.json", {
        "base": "D_22",
        "weights": [{"class": "inner", "p": 7}],
    })
    res = runner.invoke(main, ["classify", path])
    assert res.exit_code == 0
    assert res.output == "WILD\n"


def test_zoo_table_sizes(runner):
    for flag, rows in (("elliptic", 8), ("tubular", 31), ("domestic", 38), ("all", 77)):
        res = runner.invoke(main, ["zoo", "--class", flag])
        assert res.exit_code == 0
        assert len(res.output.splitlines()) == rows + 2


def test_zoo_json_sizes(runner):
    for flag, rows in (("elliptic", 8), ("tubular", 31), ("domestic", 38), ("all", 77)):
        res = runner.invoke(main, ["zoo", "--class", flag, "--format", "json"])
        assert res.exit_code == 0
        assert len(json.loads(res.output)) == rows


def test_zoo_json_first_tubular_entry(runner):
    res = runner.invoke(main, ["zoo", "--class", "tubular", "--format", "json"])
    first = json.loads(res.output)[0]
    assert first == {
        "base": "D",
        "centre": "R",
        "chi_orb": {"den": 1, "num": 0},
        "class": "TUBULAR",
        "cy": [4, 4],
        "s": 1,
        "tau_order": 4,
        "weights": [["real", 2], ["inner", 4]],
        "wrv": [2, 4, 4],
    }


def test_local_table(runner):
    res = runner.invoke(main, ["local", "segmentation"])
    assert res.exit_code == 0
    assert res.output == (
        "class         e  e*  e_tau  f_res  D_x\n"
        "segmentation  1  1   2      1      ℂ\n"
    )


def test_slopes_output(runner):
    res = runner.invoke(main, ["slopes", "K"])
    assert res.exit_code == 0
    assert res.output == "2 orbits\nrepresentatives: inf, 0\n"
    res = runner.invoke(main, ["slopes", "A"])
    assert res.output == "1 orbit\nrepresentatives: inf\n"


def test_skew_centre_output(runner):
    cases = [
        (["--algebra", "C", "--twist", "conj"], "centre = R[[T^2]], dim over centre = 4\n"),
        (["--algebra", "H", "--twist", "id"], "centre = R[[T]], dim over centre = 4\n"),
        (["--algebra", "C", "--twist", "id"], "centre = C[[T]], dim over centre = 1\n"),
    ]
    for args, expected in cases:
        res = runner.invoke(main, ["skew-centre", *args])
        assert res.exit_code == 0
        assert res.output == expected


def test_ghost_outputs(runner, tmp_path):
    cases = [
        ({"points": [{"e_tau": 5, "f": 1}, {"e_tau": 5, "f": 1}]}, "ghost group: C5\n"),
        ({"points": [[2, 1], [2, 1], [2, 1]], "efficient": 0}, "ghost group: C2 x C2\n"),
        ({"points": [{"e_tau": 1, "f": 1}, {"e_tau": 1, "f": 3}]}, "ghost group: trivial\n"),
    ]
    for i, (payload, expected) in enumerate(cases):
        path = _write(tmp_path, f"g{i}.json", payload)
        res = runner.invoke(main, ["ghost", path])
        assert res.exit_code == 0
        assert res.output == expected


def test_parse_errors_exit_one(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["invariants", str(bad)])
    assert res.exit_code == 1
    both = _write(tmp_path, "both.json", {
        "base": "D",
        "overrides": {"g": 0, "t": 1, "s": 1, "ovals": ["+"], "commutative": True},
    })
    res = runner.invoke(main, ["invariants", both])
    assert res.exit_code == 1
    missing = tmp_path / "missing.json"
    res = runner.invoke(main, ["invariants", str(missing)])
    assert res.exit_code == 1


@pytest.mark.parametrize("command", ["invariants", "ghost"])
@pytest.mark.parametrize("content", [
    b'{"base": "\xff"}',
    b"[" * 100_000 + b"]" * 100_000,
    b'{"base": "D", "efficient": ' + b"7" * 5000 + b"}",
], ids=["not-utf8", "deep-nesting", "long-integer"])
def test_malformed_files_exit_one_without_a_traceback(runner, tmp_path, command, content):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    res = runner.invoke(main, [command, str(path)])
    assert isinstance(res.exception, SystemExit)
    assert res.exit_code == 1
    assert res.output.startswith("error:")


def test_validation_errors_exit_two(runner, tmp_path):
    unknown = _write(tmp_path, "u.json", {"base": "D_23"})
    res = runner.invoke(main, ["invariants", unknown])
    assert res.exit_code == 2
    assert res.output.startswith("error:")
    low = _write(tmp_path, "l.json", {
        "base": "D_22", "weights": [{"class": "inner", "p": 1}],
    })
    res = runner.invoke(main, ["classify", low])
    assert res.exit_code == 2
    res = runner.invoke(main, ["slopes", "K", "--bound", "30"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["slopes", "X"])
    assert res.exit_code == 2


@pytest.mark.parametrize("command", ["invariants", "classify"])
def test_abstract_epsilon_outside_one_and_two_exits_two(runner, tmp_path, command):
    path = _write(tmp_path, "e.json", {
        "overrides": {"chi_x": 1, "s": 1, "kappa": 1, "epsilon": 3, "points": []},
    })
    res = runner.invoke(main, [command, path])
    assert res.exit_code == 2
    assert res.output == "error: epsilon must be 1 or 2, got 3\n"


@pytest.mark.parametrize("command", ["invariants", "classify"])
def test_abstract_inconsistent_data_exits_three(runner, tmp_path, command):
    path = _write(tmp_path, "t.json", {"overrides": {
        "chi_x": {"num": 1, "den": 2}, "s": 2, "kappa": 1, "epsilon": 2,
        "points": [{"label": "x0", "f": 2, "p": 2}],
    }})
    res = runner.invoke(main, [command, path])
    assert res.exit_code == 3
    assert res.output == "error: tubular curve with vector (2, 2)\n"


@pytest.mark.parametrize("field", ["e_tau", "f", "p"])
@pytest.mark.parametrize("value", [10**9, 2**70])
def test_huge_abstract_point_entries_exit_two(runner, tmp_path, field, value):
    path = _write(tmp_path, "h.json", {"overrides": {
        "chi_x": 1, "s": 1, "kappa": 1, "epsilon": 1, "points": [{"label": "x0", field: value}],
    }})
    res = runner.invoke(main, ["invariants", path])
    assert res.exit_code == 2
    assert res.output == "error: point x0 has an entry above 10000\n"


def test_slope_bound_ceiling_exits_two(runner):
    res = runner.invoke(main, ["slopes", "K", "--bound", "10000"])
    assert res.exit_code == 2
    assert res.output == "error: height bound must be at most 600\n"


def test_centre_order_ceiling_exits_two(runner):
    res = runner.invoke(main, ["skew-centre", "--algebra", "H", "--twist", "id", "--order", "100000"])
    assert res.exit_code == 2
    assert res.output == "error: truncation must be at most 256\n"


@pytest.mark.parametrize("args, message", [
    (["--algebra", "H", "--twist", "id", "--order", "-5"], "at least 2 to witness the period 1"),
    (["--algebra", "R", "--twist", "id", "--order", "0"], "at least 2 to witness the period 1"),
    (["--algebra", "C", "--twist", "conj", "--order", "3"], "at least 4 to witness the period 2"),
])
def test_centre_order_floor_exits_two(runner, args, message):
    res = runner.invoke(main, ["skew-centre", *args])
    assert res.exit_code == 2
    assert res.output == f"error: truncation must be {message}\n"


def test_domain_errors_exit_three(runner, tmp_path):
    inconsistent = _write(tmp_path, "g.json", {
        "points": [{"e_tau": 2, "f": 1}, {"e_tau": 2, "f": 2}],
        "efficient": 1,
    })
    res = runner.invoke(main, ["ghost", inconsistent])
    assert res.exit_code == 3
    res = runner.invoke(main, ["skew-centre", "--algebra", "H", "--twist", "conj"])
    assert res.exit_code == 3


@pytest.mark.parametrize("command", ["invariants", "classify"])
def test_abstract_negative_centre_genus_exits_two(runner, tmp_path, command):
    path = _write(tmp_path, "n.json", {
        "overrides": {"chi_x": 1, "s": 1, "kappa": 1, "epsilon": 1, "points": [], "centre_genus": -1},
    })
    res = runner.invoke(main, [command, path])
    assert res.exit_code == 2
    assert res.output == "error: the centre genus must be nonnegative\n"
