"""Exact bytes of the command-line output, pinned.

Refactors of the invariant code must leave what the CLI prints unchanged
byte for byte. The short outputs are stored as literals; the zoo listings
are long, so only their sha256 digests and lengths are stored.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from wittcurves.cli import main

CURVES = {
    # a catalog Witt base with segmentation and both boundary weights
    "d2222_mixed": {
        "base": "D_2222",
        "weights": [
            {"class": "segmentation", "p": 3, "oval": 0, "segment": 1},
            {"class": "real_boundary", "p": 2, "oval": 0},
            {"class": "quaternion_boundary", "p": 3},
            {"class": "inner", "p": 2},
        ],
    },
    # a hand-built topology: genus 2, a segmented oval and two whole ones
    "hand_built": {
        "base": {
            "g": 2, "t": 3, "s": 1, "commutative": False,
            "ovals": [{"segments": ["+", "-"]}, "+", {"sign": "-"}],
        },
        "weights": [
            {"class": "segmentation", "p": 2, "oval": 0, "segment": 0},
            {"class": "real_boundary", "p": 5, "oval": 1},
            {"class": "quaternion_boundary", "p": 4, "oval": 2},
        ],
    },
    # a complex-centre base with points
    "s2c_points": {
        "base": "S2_C",
        "weights": [{"class": "point", "p": 2}, {"class": "point", "p": 3}, {"class": "point", "p": 5}],
    },
    # an abstract record
    "overrides": {
        "overrides": {
            "chi_x": {"num": 1, "den": 2}, "s": 2, "kappa": 2, "epsilon": 1, "centre_genus": 0,
            "points": [{"label": "a", "e_tau": 2, "f": 1, "p": 3}, {"e_tau": 1, "f": 2, "p": 2}],
        },
    },
    # one curve of each class
    "elliptic_a_rh": {"base": "A_RH"},
    "tubular_d22": {
        "base": "D_22",
        "weights": [
            {"class": "segmentation", "p": 3, "oval": 0, "segment": 0},
            {"class": "real_boundary", "p": 3, "oval": 0},
        ],
    },
    "domestic_d_h": {"base": "D_H"},
    "wild_d_inner": {
        "base": "D",
        "weights": [{"class": "inner", "p": p} for p in (2, 3, 5, 7)],
    },
    # commutative and complex elliptic bases
    "commutative_k": {"base": "K"},
    "elliptic_t_c": {"base": "T_C"},
    # abstract records whose numbers no real curve has: the cross-checks
    # report them with exit code 3
    "tubular_off_vector": {
        "overrides": {
            "chi_x": {"num": 1, "den": 2}, "s": 1, "kappa": 1, "epsilon": 1, "centre_genus": 0,
            "points": [{"f": 2, "p": 2}],
        },
    },
    "domestic_off_list": {
        "overrides": {
            "chi_x": 2, "s": 1, "kappa": 1, "epsilon": 1, "centre_genus": 0,
            "points": [{"p": 2}, {"p": 2}, {"p": 2}, {"p": 2}],
        },
    },
    "tau_order_five": {
        "overrides": {
            "chi_x": {"num": 2, "den": 5}, "s": 1, "kappa": 1, "epsilon": 1,
            "points": [{"e_tau": 5}],
        },
    },
}

ONE_ORBIT = "1 orbit\nrepresentatives: inf\n"
TWO_ORBITS = "2 orbits\nrepresentatives: inf, 0\n"
EXPECTED_SLOPES = {
    "A": ONE_ORBIT, "M": ONE_ORBIT, "K": TWO_ORBITS, "A_RH": TWO_ORBITS,
    "A_HH": ONE_ORBIT, "M_H": ONE_ORBIT, "D_2222": ONE_ORBIT,
}

ZOO_RUNS = [(cls, fmt) for cls in ("elliptic", "tubular", "domestic", "all") for fmt in ("table", "json")]

EXPECTED_CURVES = {
    ('d2222_mixed', 'invariants'): (0, (
        '{"chi": {"den": 1, "num": 0}, "chi_normalized": {"den": 1, "num": 0}, '
        '"chi_orb": {"den": 4, "num": -5}, "class": "WILD", "constants_field": "C", '
        '"cy": null, "genus": 1, "picard": {"base_part": "Z", '
        '"finitely_generated_rank_one": true, "pic_zero": null, "torsion": [2, 2, 2, '
        '2, 2, 2, 3, 6]}, "tau_order": null, "wrv": [2, 2, 2, 2, 2, 2, 3, 6]}\n'
    )),
    ('d2222_mixed', 'classify'): (0, 'WILD\n'),
    ('hand_built', 'invariants'): (0, (
        '{"chi": {"den": 1, "num": -6}, "chi_normalized": {"den": 2, "num": -3}, '
        '"chi_orb": {"den": 5, "num": -12}, "class": "WILD", "constants_field": "C", '
        '"cy": null, "genus": 4, '
        '"picard": {"base_part": "not finitely generated (Pic_0 of positive-genus X)", '
        '"finitely_generated_rank_one": false, "pic_zero": null, "torsion": [2, 4, 4, '
        '5]}, "tau_order": null, "wrv": [2, 4, 4, 5]}\n'
    )),
    ('hand_built', 'classify'): (0, 'WILD\n'),
    ('s2c_points', 'invariants'): (0, (
        '{"chi": {"den": 1, "num": 1}, "chi_normalized": {"den": 1, "num": 1}, '
        '"chi_orb": {"den": 60, "num": 1}, "class": "DOMESTIC", '
        '"constants_field": "C", "cy": null, "genus": 0, "picard": {"base_part": "Z", '
        '"finitely_generated_rank_one": true, "pic_zero": null, "torsion": [2, 3, 5]}, '
        '"tau_order": null, "wrv": [2, 3, 5]}\n'
    )),
    ('s2c_points', 'classify'): (0, 'DOMESTIC\n'),
    ('overrides', 'invariants'): (0, (
        '{"chi": null, "chi_normalized": null, "chi_orb": {"den": 12, "num": -5}, '
        '"class": "WILD", "constants_field": null, "cy": null, "genus": null, '
        '"picard": {"base_part": "Z", "finitely_generated_rank_one": true, '
        '"pic_zero": null, "torsion": [2, 2, 6]}, "tau_order": null, "wrv": [2, 2, 6]}\n'
    )),
    ('overrides', 'classify'): (0, 'WILD\n'),
    ('elliptic_a_rh', 'invariants'): (0, (
        '{"chi": {"den": 1, "num": 0}, "chi_normalized": {"den": 1, "num": 0}, '
        '"chi_orb": {"den": 1, "num": 0}, "class": "ELLIPTIC", "constants_field": "C", '
        '"cy": [1, 1], "genus": 1, '
        '"picard": {"base_part": "not finitely generated (Pic_0 of positive-genus X)", '
        '"finitely_generated_rank_one": false, "pic_zero": null, "torsion": []}, '
        '"tau_order": 1, "wrv": []}\n'
    )),
    ('elliptic_a_rh', 'classify'): (0, 'ELLIPTIC\n'),
    ('tubular_d22', 'invariants'): (0, (
        '{"chi": {"den": 1, "num": 2}, "chi_normalized": {"den": 2, "num": 1}, '
        '"chi_orb": {"den": 1, "num": 0}, "class": "TUBULAR", "constants_field": "C", '
        '"cy": [6, 6], "genus": 0, "picard": {"base_part": "Z", '
        '"finitely_generated_rank_one": true, "pic_zero": null, "torsion": [2, 3, 6]}, '
        '"tau_order": 6, "wrv": [2, 3, 6]}\n'
    )),
    ('tubular_d22', 'classify'): (0, 'TUBULAR\n'),
    ('domestic_d_h', 'invariants'): (0, (
        '{"chi": {"den": 1, "num": 4}, "chi_normalized": {"den": 1, "num": 1}, '
        '"chi_orb": {"den": 1, "num": 1}, "class": "DOMESTIC", "constants_field": "H", '
        '"cy": null, "genus": 0, "picard": {"base_part": "Z", '
        '"finitely_generated_rank_one": true, "pic_zero": null, "torsion": []}, '
        '"tau_order": null, "wrv": []}\n'
    )),
    ('domestic_d_h', 'classify'): (0, 'DOMESTIC\n'),
    ('wild_d_inner', 'invariants'): (0, (
        '{"chi": {"den": 1, "num": 1}, "chi_normalized": {"den": 1, "num": 1}, '
        '"chi_orb": {"den": 210, "num": -383}, "class": "WILD", '
        '"constants_field": "R", "cy": null, "genus": 0, "picard": {"base_part": "Z", '
        '"finitely_generated_rank_one": true, "pic_zero": null, "torsion": [2, 2, 3, '
        '3, 5, 5, 7, 7]}, "tau_order": null, "wrv": [2, 2, 3, 3, 5, 5, 7, 7]}\n'
    )),
    ('wild_d_inner', 'classify'): (0, 'WILD\n'),
    ('commutative_k', 'invariants'): (0, (
        '{"chi": {"den": 1, "num": 0}, "chi_normalized": {"den": 1, "num": 0}, '
        '"chi_orb": {"den": 1, "num": 0}, "class": "ELLIPTIC", "constants_field": "R", '
        '"cy": [1, 1], "genus": 1, '
        '"picard": {"base_part": "not finitely generated (Pic_0 of positive-genus X)", '
        '"finitely_generated_rank_one": false, "pic_zero": null, "torsion": []}, '
        '"tau_order": 1, "wrv": []}\n'
    )),
    ('commutative_k', 'classify'): (0, 'ELLIPTIC\n'),
    ('elliptic_t_c', 'invariants'): (0, (
        '{"chi": {"den": 1, "num": 0}, "chi_normalized": {"den": 1, "num": 0}, '
        '"chi_orb": {"den": 1, "num": 0}, "class": "ELLIPTIC", "constants_field": "C", '
        '"cy": [1, 1], "genus": 1, '
        '"picard": {"base_part": "not finitely generated (Pic_0 of positive-genus X)", '
        '"finitely_generated_rank_one": false, "pic_zero": null, "torsion": []}, '
        '"tau_order": 1, "wrv": []}\n'
    )),
    ('elliptic_t_c', 'classify'): (0, 'ELLIPTIC\n'),
    ('tubular_off_vector', 'invariants'): (3, 'error: tubular curve with vector (2, 2)\n'),
    ('tubular_off_vector', 'classify'): (3, 'error: tubular curve with vector (2, 2)\n'),
    ('domestic_off_list', 'invariants'): (3, 'error: domestic genus-zero curve with vector (2, 2, 2, 2)\n'),
    ('domestic_off_list', 'classify'): (3, 'error: domestic genus-zero curve with vector (2, 2, 2, 2)\n'),
    ('tau_order_five', 'invariants'): (3, 'error: unexpected tau order 5\n'),
    ('tau_order_five', 'classify'): (0, 'ELLIPTIC\n'),
}

EXPECTED_ZOO = {
    ('elliptic', 'table'): ('ad0c1a23cfc410998cc188e6032b9a93a0d1933f4128ef4a0767e5ed69e7743e', 559),
    ('elliptic', 'json'): ('902a5257e3691fd3d91235b79e463148eeb19f4d215741fb9a67580fa797ecff', 1210),
    ('tubular', 'table'): ('18890285c50e61379c0d04a5eff171ec1917aa6d1db06ad26c080e63c5f59cd2', 2705),
    ('tubular', 'json'): ('3f95080b8bc3df5204b2dca1108084193f23c2190c765df70e1da4a7e58252e2', 5867),
    ('domestic', 'table'): ('4ceb2ebb753aa20ccbef71ecb3201a2de05b92b01261425abfbf287b242e18ec', 2842),
    ('domestic', 'json'): ('b5ea8b6d8f24ee21ec4299c6f330b71147212395394fc681c054471b3c8b8af5', 6574),
    ('all', 'table'): ('c678874876883413a52e5333ee9ce5a313eb371baa1f532fe1dd4b8c46fffdf1', 6638),
    ('all', 'json'): ('dc5e36305204041f96a3b4fea3bb9563ff863e275e6e244cd5b93f9e477a6cb9', 13649),
}


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.mark.parametrize("name", sorted(CURVES))
@pytest.mark.parametrize("command", ["invariants", "classify"])
def test_curve_output_is_pinned(runner, tmp_path, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CURVES[name]))
    res = runner.invoke(main, [command, str(path)])
    assert (res.exit_code, res.output) == EXPECTED_CURVES[name, command]


@pytest.mark.parametrize("which, fmt", ZOO_RUNS)
def test_zoo_output_is_pinned(runner, which, fmt):
    res = runner.invoke(main, ["zoo", "--class", which, "--format", fmt])
    assert res.exit_code == 0
    digest = hashlib.sha256(res.output.encode()).hexdigest()
    assert (digest, len(res.output)) == EXPECTED_ZOO[which, fmt]


@pytest.mark.parametrize("bound", [50, 100, 600])
@pytest.mark.parametrize("name", sorted(EXPECTED_SLOPES))
def test_slopes_output_is_pinned(runner, name, bound):
    res = runner.invoke(main, ["slopes", name, "--bound", str(bound)])
    assert (res.exit_code, res.output) == (0, EXPECTED_SLOPES[name])
