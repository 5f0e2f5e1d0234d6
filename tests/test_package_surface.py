"""The public surface of wittcurves and its private helpers stay lean.

The export list names each public object of the package exactly once. An
AST scan of src/wittcurves/*.py finds every module-level private name
(one leading underscore) and fails on any that nothing in src/ reads
again: a helper whose last caller is gone is deleted with it. A second
scan keeps the reading of a surface in witt_surface: no other module
reads the topology, the commutative flag or the signs of its ovals.
"""

import ast
import types
from pathlib import Path

import wittcurves

SRC = Path(__file__).resolve().parent.parent / "src" / "wittcurves"


def test_export_list_names_each_public_object_once():
    exported = wittcurves.__all__
    assert len(exported) == len(set(exported))
    public = {
        name
        for name, value in vars(wittcurves).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public
    for name in exported:
        assert getattr(wittcurves, name) is not None


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _read_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_private_names(modules: dict[str, ast.Module]) -> list[str]:
    """module.name for every module-level _name that no other statement reads.

    A read inside the defining statement itself (a recursive call, a class
    naming itself) does not count.
    """
    reads = {module: [_read_names(stmt) for stmt in tree.body] for module, tree in modules.items()}
    unused = []
    for module, tree in modules.items():
        for i, stmt in enumerate(tree.body):
            for name in _defined_names(stmt):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if not any(
                    name in r
                    for other, stmt_reads in reads.items()
                    for j, r in enumerate(stmt_reads)
                    if (other, j) != (module, i)
                ):
                    unused.append(f"{module}.{name}")
    return unused


def test_every_private_name_in_src_is_read():
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    assert unused_private_names(modules) == []


def test_the_scan_sees_unused_private_names():
    used = ast.parse(
        "from .b import _imported\n"
        "_TABLE = {}\n"
        "_A, _B = 1, 2\n"
        "def _helper():\n"
        "    return _helper() + _A\n"
        "class _Tag:\n"
        "    pass\n"
        "def public():\n"
        "    return _TABLE\n"
        "__all__ = ['public']\n"
    )
    other = ast.parse("_imported = 1\n_LOCAL = 2\nprint(_LOCAL)\n")
    assert sorted(unused_private_names({"a": used, "b": other})) == ["a._B", "a._Tag", "a._helper"]


# attributes of a surface and its ovals that only witt_surface reads
SURFACE_INTERNALS = frozenset({"topology", "commutative", "segments", "sign"})


def surface_internal_reads(modules: dict[str, ast.Module]) -> list[str]:
    """module:line.attribute for every read of a surface internal."""
    return sorted(
        f"{module}:{node.lineno}.{node.attr}"
        for module, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in SURFACE_INTERNALS
    )


def test_only_witt_surface_reads_a_surface():
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "witt_surface"
    }
    assert surface_internal_reads(modules) == []


def test_the_scan_sees_surface_internal_reads():
    tree = ast.parse(
        "g = base.topology.g\n"
        "if w.commutative:\n"
        "    pass\n"
        "n = len(oval.segments) + (oval.sign == '+')\n"
        "WittSurface(topology=t, ovals=o, commutative=True)\n"
        "ovals = profile.ovals\n"
    )
    assert surface_internal_reads({"m": tree}) == ["m:1.topology", "m:2.commutative", "m:4.segments", "m:4.sign"]
