"""The examples of the README run and give what it says they give.

The Python quick start runs, and each line of it with a result in its
comment evaluates to that result, type and value; the curve.profile
snippet runs on the same curve and reads what the views give. Each of
the three curve-file examples, written to a file, goes through
``invariants`` with exit code 0 and the class the curve has.
"""

import json
import re
from fractions import Fraction
from pathlib import Path

from cli_runner import invoke

from wittcurves import CurveClass, classify, orbifold_euler, weight_ram_vector

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# (language, body) of each fenced block, in order
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)


def test_the_python_examples_give_their_commented_results():
    quick_start, profile_snippet = (body for language, body in BLOCKS if language == "python")
    namespace = {}
    exec(quick_start, namespace)
    results = [line.split("#", 1) for line in quick_start.splitlines() if "#" in line]
    expected = {"Fraction": Fraction, "CurveClass": CurveClass}
    assert [comment.strip() for _, comment in results] == ["Fraction(0, 1)", "CurveClass.TUBULAR"]
    for code, comment in results:
        got, want = eval(code, namespace), eval(comment, expected)
        assert (type(got), got) == (type(want), want), code
    last = profile_snippet.strip().splitlines()[-1]
    exec(profile_snippet, namespace)
    curve = namespace["curve"]
    assert eval(last, namespace) == (orbifold_euler(curve), classify(curve), weight_ram_vector(curve))


def test_the_curve_file_examples_run_through_invariants(tmp_path):
    curves = [json.loads(body) for language, body in BLOCKS if language == "json"]
    curves = [curve for curve in curves if "base" in curve or "overrides" in curve]
    classes = []
    for i, curve in enumerate(curves):
        path = tmp_path / f"curve{i}.json"
        path.write_text(json.dumps(curve), encoding="utf-8")
        result = invoke(["invariants", str(path)])
        assert result.exit_code == 0, result.output
        classes.append(json.loads(result.output)["class"])
    assert classes == ["TUBULAR", "ELLIPTIC", "TUBULAR"]
