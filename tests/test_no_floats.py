"""Every answer of wittcurves is exact, so no float may enter src/.

An AST scan of src/wittcurves/*.py fails on a float or complex literal, a
call of float(), complex() or round(), and any use of a math function
outside its exact integer ones (gcd, lcm, isqrt, ...): sqrt, log, exp,
pi and the rest all work in floating point.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wittcurves"
FLOAT_CALLS = {"float", "complex", "round"}
EXACT_MATH = {"gcd", "lcm", "isqrt", "comb", "perm", "factorial", "prod", "floor", "ceil", "trunc"}


def float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for every float construct in a parsed module."""
    math_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in FLOAT_CALLS:
            found.append((node.lineno, f"{node.func.id}()"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_names
            and node.attr not in EXACT_MATH
        ):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"from math import {a.name}") for a in node.names if a.name not in EXACT_MATH]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_float_in_source(path):
    uses = float_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not uses, f"{path.name}: " + ", ".join(f"line {line}: {what}" for line, what in uses)


def test_the_scan_sees_every_kind_of_float():
    code = """
import math
import math as m
from math import sqrt, gcd
x = 0.5
y = 1e3
z = 2j
a = float(3)
b = round(x)
c = math.sqrt(2)
d = m.pi
e = math.gcd(4, 6)
"""
    found = sorted(what for _, what in float_uses(ast.parse(code)))
    assert found == sorted(
        ["from math import sqrt", "literal 0.5", "literal 1000.0", "literal 2j", "float()", "round()", "math.sqrt", "math.pi"]
    )
