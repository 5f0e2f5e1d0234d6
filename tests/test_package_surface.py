"""The public surface of wittcurves and its private helpers stay lean.

The export list names each public object of the package exactly once. An
AST scan of src/wittcurves/*.py finds every module-level private name
(one leading underscore) and fails on any that nothing in src/ reads
again: a helper whose last caller is gone is deleted with it. A second
scan keeps the reading of a surface in witt_surface: no other module
reads the topology, the commutative flag or the signs of its ovals. A
third keeps dataclasses out, a fourth gives every ValidationError
raised in src/ a stable code, one of those the README lists under "Error
codes", which are exactly the codes src/ raises, and a fifth keeps one base for the records
that check themselves: it sees exactly the plain records, each a Record
whose __new__ only packs its parameters, in order; no class extends one,
none defines __init__ or __post_init__, and no module imports
collections.namedtuple or typing.NamedTuple. A sixth keeps
the branching on the kind of a base in witt_surface and weighted_curve: the numerics
every other module reads come in one record for every kind. A seventh
keeps one reader per curve: only weighted_curve builds a CurveProfile,
and every other module reads a curve's numerics off its profile. An
eighth keeps every record on slots: each FrozenRecord subclass declares
__slots__, and nothing uses cached_property, which needs an instance
__dict__. A ninth keeps one reader per base: only witt_surface.read_base
reads the reading a surface keeps. The command line starts without click, dataclasses, inspect,
ast or dis: importing it in a fresh interpreter adds none of them to
sys.modules. It builds no typing.ForwardRef, and makes no call of
collections.namedtuple, eval, compile or exec. Two guards keep src/ from regrowing quietly: its
logical lines (NEWLINE tokens) are exactly SRC_LOGICAL_LINES, and every
module-level public function is read by another statement of src/ or by
bench/, or is named in UNREAD_PUBLIC with the reason it stays; so is
every module-level public constant, and every method that is not a
dunder is read by an attribute in src/ or bench/, or each is named in
UNREAD_MEMBERS. A bare name counts as a read only where it refers to a
module-level binding, not to a parameter, local or comprehension
variable that shadows it.
"""

import ast
import io
import os
import re
import subprocess
import symtable
import sys
import tokenize
import types
from pathlib import Path

import wittcurves

SRC = Path(__file__).resolve().parent.parent / "src" / "wittcurves"
BENCH = SRC.parent.parent / "bench"
# The logical lines of src/wittcurves/*.py, held exactly, so that no
# deletion leaves slack for a later change to spend. A change that deletes
# code lowers it; one that raises it says by how much and why in CHANGES.md.
SRC_LOGICAL_LINES = 1854
# module-level public functions of src/ that nothing in src/ or bench/
# reads, each with why it stays
UNREAD_PUBLIC = {
    "algebra.cplx": "one constructor family with real and quat, of which the benchmark calls only quat",
    "algebra.real": "one constructor family with cplx and quat, of which the benchmark calls only quat",
    "ktheory.euler_form": "the Euler form on K_0 of an elliptic curve, an invariant answered in its own right",
    "ktheory.average_euler_form": "the averaged Euler form, which the second route through K_0 on the ROADMAP calls",
}
# methods and module-level public constants of src/ that nothing in src/
# or bench/ reads, each with why it stays
UNREAD_MEMBERS = {
    "algebra.AlgebraElement.conjugate": "the standard involution of the division algebras, checked by the property "
    "suites; apply and the twisted kernels conjugate on numerators by algebra._image",
    "algebra.AlgebraElement.norm": "the multiplicative norm of the division algebras, checked by the property suites",
    "algebra.AlgebraElement.inverse": "the inverse in the division algebras, checked by the property suites",
    "errors.Record._asdict": "part of the namedtuple API that every plain record has, as the README says",
    "weighted_curve.CurveProfile.chi_routes": "the value of every route to chi'_orb, which the README shows and "
    "invariants --explain on the ROADMAP prints",
}


def parse_modules(directory: Path) -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(directory.glob("*.py"))
    }


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
    assert exported == sorted(exported)
    namespace = {}
    exec("from wittcurves import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == exported
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _module_level_reads(table: symtable.SymbolTable) -> set[str]:
    """The bare names that a scope and the scopes inside it read off module
    level, as the compiler resolves them: a parameter, a local, a
    comprehension variable or a name of a class body shadows the binding
    where it is in scope, and is not one. (From Python 3.12 a
    comprehension outside a function is inlined, so its variables count
    as module-level reads: the scan may then see a reader too many.)"""
    module = table.get_type() == "module"
    names = {s.get_name() for s in table.get_symbols() if s.is_referenced() and (module or s.is_global())}
    for child in table.get_children():
        names |= _module_level_reads(child)
    return names


def _read_names(tree: ast.AST) -> set[str]:
    """Every bare name that tree reads off module level, every attribute
    name and every name imported from a module."""
    names = _module_level_reads(symtable.symtable(ast.unparse(tree), "<scan>", "exec"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
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
    modules = parse_modules(SRC)
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


def logical_lines(source: str) -> int:
    """The NEWLINE tokens of a module: one per logical line, however many
    physical lines it spans; blank lines and comments have none."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return sum(token.type == tokenize.NEWLINE for token in tokens)


def test_src_stays_within_its_logical_line_budget():
    total = sum(logical_lines(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py"))
    direction = "lower" if total < SRC_LOGICAL_LINES else "raise, saying why in CHANGES.md,"
    assert total == SRC_LOGICAL_LINES, (
        f"src/ has {total} logical lines, its budget is {SRC_LOGICAL_LINES}: {direction} SRC_LOGICAL_LINES to {total}"
    )


def test_the_scan_sees_logical_lines():
    flat = "total = f(1, 2, 3)\nprint(total)\n"
    reflowed = "# a comment\ntotal = f(\n    1,\n    2,\n    3,\n)\n\nprint(\n    total\n)\n"
    assert logical_lines(flat) == logical_lines(reflowed) == 2
    assert logical_lines('def f():\n    """one\n    docstring"""\n    return 1\n') == 3


def _traced_functions(tracing: ast.Module) -> set[str]:
    """layer.name of each function that the FUNCTIONS table of bench/tracing.py wraps."""
    table = next(
        stmt.value
        for stmt in tracing.body
        if isinstance(stmt, ast.Assign) and [ast.unparse(t) for t in stmt.targets] == ["FUNCTIONS"]
    )
    return {f"{layer}.{name}" for layer, names in ast.literal_eval(table).items() for name in names}


def _statement_reads(modules: dict[str, ast.Module]) -> dict[str, list[set[str]]]:
    """The names each top-level statement of src/ reads, module by module;
    __init__, whose reads are its re-exports, is left out."""
    return {
        module: [_read_names(stmt) for stmt in tree.body] for module, tree in modules.items() if module != "__init__"
    }


def _read_elsewhere(reads: dict[str, list[set[str]]], module: str, i: int, name: str) -> bool:
    """Whether a statement of src/ other than statement i of module reads name."""
    return any(name in r for other, rs in reads.items() for j, r in enumerate(rs) if (other, j) != (module, i))


def _reader(in_src: bool, in_bench: bool) -> str | None:
    return "src" if in_src else "bench" if in_bench else None


def public_function_readers(modules: dict[str, ast.Module], bench: dict[str, ast.Module]) -> dict[str, str | None]:
    """module.name of each module-level public function of src/, mapped to
    its reader: "src" when another statement of src/ reads it (the
    re-export in __init__ does not count), "bench" when bench/ reads it in
    its code or traces it by name, and None when nothing does."""
    reads = _statement_reads(modules)
    bench_reads = set().union(*map(_read_names, bench.values())) | _traced_functions(bench["tracing"])
    readers = {}
    for module, tree in modules.items():
        for i, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stmt.name.startswith("_"):
                name = f"{module}.{stmt.name}"
                in_bench = stmt.name in bench_reads or name in bench_reads
                readers[name] = _reader(_read_elsewhere(reads, module, i, stmt.name), in_bench)
    return readers


def test_every_public_function_in_src_has_a_reader_or_a_reason():
    readers = public_function_readers(parse_modules(SRC), parse_modules(BENCH))
    assert sorted(name for name, reader in readers.items() if reader is None) == sorted(UNREAD_PUBLIC)
    assert all(UNREAD_PUBLIC.values())


def test_the_scan_sees_public_functions_without_a_reader():
    src = {
        "__init__": ast.parse("from .a import exported, unread\n"),
        "a": ast.parse(
            "def called():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def exported():\n    return called()\n"
            "def traced():\n    pass\n"
            "def benched():\n    pass\n"
            "def unread():\n    pass\n"
            "def _private():\n    pass\n"
            "class Public:\n    def method(self):\n        pass\n"
            "def shadowed():\n    pass\n"
            "def global_read():\n    pass\n"
        ),
        # each read of shadowed is of a parameter, a local or a comprehension variable
        "b": ast.parse(
            "def f(shadowed, g=global_read):\n    return shadowed\n"
            "def g():\n    shadowed = 1\n    return shadowed\n"
            "def h():\n    return [shadowed for shadowed in ()], lambda shadowed: shadowed\n"
            "class C:\n    shadowed = 1\n    doubled = 2 * shadowed\n"
        ),
    }
    bench = {
        "tracing": ast.parse("FUNCTIONS = {'a': ('traced',), 'b': ('unread',)}\n"),
        "workloads": ast.parse("from wittcurves.a import benched\n"),
    }
    assert public_function_readers(src, bench) == {
        "a.called": "src",
        "a.recursive": None,
        "a.exported": None,
        "a.traced": "bench",
        "a.benched": "bench",
        "a.unread": None,
        "a.shadowed": None,
        "a.global_read": "src",
        "b.f": None,
        "b.g": None,
        "b.h": None,
    }


def test_the_scan_sees_methods_and_constants_without_a_reader():
    src = {
        "__init__": ast.parse("from .a import EXPORTED\n"),
        "a": ast.parse(
            "READ = 1\n"
            "EXPORTED = 2\n"
            "BENCHED, _PRIVATE = 3, 4\n"
            "SHADOWED = 5\n"
            "def f(SHADOWED=READ):\n    return SHADOWED\n"
            "class Thing:\n"
            "    LIMIT = 5\n"
            "    def called(self):\n        return self.helper()\n"
            "    def helper(self):\n        return 1\n"
            "    def recursive(self):\n        return self.recursive()\n"
            "    def benched(self):\n        pass\n"
            "    def unread(self):\n        pass\n"
            "    def __repr__(self):\n        return 'Thing'\n"
        ),
        "b": ast.parse("from .a import Thing\nTOTAL = Thing().called()\n"),
    }
    bench = {"workloads": ast.parse("from wittcurves.a import BENCHED\nthing.benched()\n")}
    assert member_readers(src, bench) == {
        "a.READ": "src",
        "a.EXPORTED": None,
        "a.BENCHED": "bench",
        "a.SHADOWED": None,
        "a.Thing.called": "src",
        "a.Thing.helper": "src",
        "a.Thing.recursive": None,
        "a.Thing.benched": "bench",
        "a.Thing.unread": None,
        "b.TOTAL": None,
    }


def _attributes(trees) -> list[ast.Attribute]:
    return [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def member_readers(modules: dict[str, ast.Module], bench: dict[str, ast.Module]) -> dict[str, str | None]:
    """module.NAME of each module-level public constant of src/ and
    module.Class.name of each method of a class of src/ that is not a
    dunder, mapped to its reader: "src" when src/ reads it, "bench" when
    bench/ does, and None when nothing does. A constant is read as a
    public function is, by another statement of src/ than the one that
    binds it and the re-export in __init__; a method by an attribute of
    its name outside its own body."""
    reads = _statement_reads(modules)
    attributes = _attributes(modules.values())
    bench_reads = set().union(*map(_read_names, bench.values()))
    bench_attributes = {node.attr for node in _attributes(bench.values())}
    readers = {}
    for module, tree in modules.items():
        for i, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for name in _defined_names(stmt):
                    if not name.startswith("_"):
                        in_src = _read_elsewhere(reads, module, i, name)
                        readers[f"{module}.{name}"] = _reader(in_src, name in bench_reads)
            elif isinstance(stmt, ast.ClassDef):
                for method in stmt.body:
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and not method.name.startswith("__"):
                        own = set(map(id, ast.walk(method)))
                        in_src = any(node.attr == method.name and id(node) not in own for node in attributes)
                        in_bench = method.name in bench_attributes
                        readers[f"{module}.{stmt.name}.{method.name}"] = _reader(in_src, in_bench)
    return readers


def test_every_method_and_public_constant_in_src_has_a_reader_or_a_reason():
    readers = member_readers(parse_modules(SRC), parse_modules(BENCH))
    assert sorted(name for name, reader in readers.items() if reader is None) == sorted(UNREAD_MEMBERS)
    assert all(UNREAD_MEMBERS.values())


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
    modules = {module: tree for module, tree in parse_modules(SRC).items() if module != "witt_surface"}
    assert surface_internal_reads(modules) == []


# the kinds of base; only witt_surface and weighted_curve ask which one
# they hold, and the rest read a base's BaseNumerics
BASE_KINDS = frozenset({"AbstractBase", "ComplexCentreBase", "WittSurface"})


def base_kind_checks(modules: dict[str, ast.Module]) -> list[str]:
    """module:line for every isinstance call whose class argument names a kind of base."""
    return sorted(
        f"{module}:{node.lineno}"
        for module, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and len(node.args) == 2
        and any(getattr(n, "id", getattr(n, "attr", None)) in BASE_KINDS for n in ast.walk(node.args[1]))
    )


def test_only_the_base_modules_branch_on_the_kind_of_a_base():
    modules = {
        module: tree for module, tree in parse_modules(SRC).items() if module not in ("witt_surface", "weighted_curve")
    }
    assert base_kind_checks(modules) == []


def test_the_scan_sees_base_kind_checks():
    tree = ast.parse(
        "if isinstance(base, AbstractBase):\n"
        "    pass\n"
        "flag = not isinstance(b, (ws.WittSurface, int))\n"
        "isinstance(b, Oval)\n"
        "isinstance(b, ComplexCentreBase | AbstractBase)\n"
        "AbstractBase(1, 1, 1, 1, ())\n"
        "issubclass(t, WittSurface)\n"
    )
    assert base_kind_checks({"m": tree}) == ["m:1", "m:3", "m:5"]


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


# A curve's check reads it into the CurveProfile it keeps in
# curve.profile, so weighted_curve alone builds a profile, and elsewhere
# the numerics of a curve are read from its profile: off a name profile
# or a .profile attribute. witt_surface reads the numerics of a base off
# its reading, the answer of read_base.
NUMERICS_HOLDERS = frozenset({"profile", "reading", "read_base"})


def curve_rereads(modules: dict[str, ast.Module]) -> list[str]:
    """module:line for every CurveProfile(...) call and every .numerics read
    off anything but a profile or the reading of a base."""
    found = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if getattr(node.func, "id", getattr(node.func, "attr", None)) == "CurveProfile":
                    found.append(f"{module}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr == "numerics":
                holder = node.value.func if isinstance(node.value, ast.Call) else node.value
                if getattr(holder, "id", getattr(holder, "attr", None)) not in NUMERICS_HOLDERS:
                    found.append(f"{module}:{node.lineno}")
    return sorted(found)


def test_only_weighted_curve_reads_a_curve():
    modules = {module: tree for module, tree in parse_modules(SRC).items() if module != "weighted_curve"}
    assert curve_rereads(modules) == []


def test_the_scan_sees_curve_rereads():
    tree = ast.parse(
        "profile = CurveProfile(points, 1, numerics)\n"
        "kappa = c.numerics.kappa\n"
        "s = curve.profile.numerics.skewness\n"
        "eps = profile.numerics.epsilon\n"
        "p = wc.CurveProfile(c)\n"
        "n = read_base(w).numerics\n"
        "g = f(c).numerics.genus\n"
        "numerics = c.profile.numerics\n"
    )
    assert curve_rereads({"m": tree}) == ["m:1", "m:2", "m:5", "m:7"]


# A surface keeps its reading in _reading, and read_base alone reads it:
# every other reader of a base asks read_base, so none re-enters the kept
# reading by a second path.
def kept_reading_reads(modules: dict[str, ast.Module]) -> list[str]:
    """module:line for every ._reading attribute, and every getattr of
    "_reading", outside a function named read_base."""
    found = []

    def visit(module: str, node: ast.AST, inside: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(module, child, inside or child.name == "read_base")
                continue
            if not inside and (
                isinstance(child, ast.Attribute) and child.attr == "_reading"
                or isinstance(child, ast.Call) and getattr(child.func, "id", None) == "getattr"
                and any(isinstance(arg, ast.Constant) and arg.value == "_reading" for arg in child.args)
            ):
                found.append(f"{module}:{child.lineno}")
            visit(module, child, inside)

    for module, tree in modules.items():
        visit(module, tree, False)
    return sorted(found)


def test_only_read_base_reads_a_kept_reading():
    modules = parse_modules(SRC)
    assert kept_reading_reads(modules) == []


def test_the_scan_sees_kept_reading_reads():
    tree = ast.parse(
        "def read_base(w):\n"
        "    if w._reading is not None:\n"
        "        return w._reading\n"
        "    def inner():\n"
        "        return w._reading\n"
        "def _read(w):\n"
        "    return w._reading.points\n"
        "n = getattr(w, '_reading', None)\n"
        "object.__setattr__(w, '_reading', None)\n"
        "class Surface:\n"
        "    def carries_sign(self):\n"
        "        return self.reading._reading\n"
    )
    assert kept_reading_reads({"m": tree}) == ["m:12", "m:7", "m:8"]


# No class is a dataclass. A plain record is a Record, and one that
# checks, normalises or derives a field a FrozenRecord:
# dataclass() compiles every generated method of a class with exec at
# import, and importing dataclasses loads inspect, ast and dis, which once
# took most of the start-up of the command line.
DATACLASS_ALLOWED: dict[str, str] = {}


def dataclass_classes(modules: dict[str, ast.Module]) -> list[str]:
    """module.Class for every class decorated with dataclass, called or not."""
    found = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name == "dataclass":
                    found.append(f"{module}.{node.name}")
    return sorted(found)


def test_only_the_allowed_classes_are_dataclasses():
    modules = parse_modules(SRC)
    assert dataclass_classes(modules) == sorted(DATACLASS_ALLOWED)


def test_the_command_line_loads_no_framework():
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))

    def modules_after(imports: str) -> set[str]:
        return set(subprocess.run(
            [sys.executable, "-c", f"import {imports}; print(' '.join(sorted(sys.modules)))"],
            capture_output=True, text=True, check=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
        ).stdout.split())

    # a bare interpreter may load some of them already (3.12 and 3.13 load
    # ast, dis and inspect at start with another Python's site-packages on
    # PYTHONPATH): only what the import adds counts
    bare = modules_after("sys")
    loaded = modules_after("sys, wittcurves.cli")
    assert "wittcurves.cli" in loaded
    assert {"click", "dataclasses", "inspect", "ast", "dis"}.isdisjoint(loaded - bare)


def test_importing_the_command_line_builds_no_forward_reference():
    # typing.NamedTuple compiles every string annotation of a record into a
    # ForwardRef at import, 66 of them when the records were built that way
    built = subprocess.run(
        [
            sys.executable, "-c",
            "import typing\n"
            "built = []\n"
            "init = typing.ForwardRef.__init__\n"
            "typing.ForwardRef.__init__ = lambda self, *a, **k: built.append(a) or init(self, *a, **k)\n"
            "import wittcurves.cli\n"
            "print(len(built))\n",
        ],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))),
    ).stdout.split()
    assert built == ["0"]


def test_importing_the_command_line_compiles_no_code():
    # collections.namedtuple compiled the __new__ of each record with eval
    # at import, 15 of each when the plain records were built that way. A
    # call counts when the package made it, directly or through the standard
    # library: the nearest frame of the package or of the import system
    # decides, so the import system compiling a module does not count, nor
    # does a standard-library module that builds a namedtuple as it loads.
    counted = subprocess.run(
        [
            sys.executable, "-c",
            "import builtins, collections, sys\n"
            "calls = dict.fromkeys(('namedtuple', 'eval', 'compile', 'exec'), 0)\n"
            "def made_by_the_package():\n"
            "    frame = sys._getframe(2)\n"
            "    while frame is not None:\n"
            "        name = frame.f_globals.get('__name__', '')\n"
            "        if name.partition('.')[0] == 'wittcurves':\n"
            "            return True\n"
            "        if name.startswith(('importlib', '_frozen_importlib')):\n"
            "            return False\n"
            "        frame = frame.f_back\n"
            "    return False\n"
            "def counting(name, real):\n"
            "    def call(*args, **kwargs):\n"
            "        calls[name] += made_by_the_package()\n"
            "        return real(*args, **kwargs)\n"
            "    return call\n"
            "collections.namedtuple = counting('namedtuple', collections.namedtuple)\n"
            "for name in ('eval', 'compile', 'exec'):\n"
            "    setattr(builtins, name, counting(name, getattr(builtins, name)))\n"
            "import wittcurves.cli\n"
            "print(*calls.values())\n",
        ],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))),
    ).stdout.split()
    assert counted == ["0", "0", "0", "0"]


def test_importing_the_command_line_reads_no_surface():
    # a surface is read on first use, never at import
    read = subprocess.run(
        [
            sys.executable, "-c",
            "import wittcurves.cli, wittcurves.witt_surface as ws; "
            "print(sum(getattr(w, '_reading', None) is not None for w in ws._CATALOG.values()))",
        ],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))),
    ).stdout.split()
    assert read == ["0"]


def test_the_scan_sees_dataclasses():
    tree = ast.parse(
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class B:\n"
        "    x: int\n"
        "@functools.total_ordering\n"
        "class C(NamedTuple):\n"
        "    x: int\n"
        "def f():\n"
        "    @dataclass(slots=True)\n"
        "    class D:\n"
        "        pass\n"
    )
    assert dataclass_classes({"m": tree}) == ["m.A", "m.B", "m.D"]


def uncoded_validation_errors(modules: dict[str, ast.Module]) -> list[str]:
    """module:line for every ValidationError(...) call without a code= keyword."""
    return sorted(
        f"{module}:{node.lineno}"
        for module, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ValidationError"
        and not any(keyword.arg == "code" for keyword in node.keywords)
    )


def test_every_validation_error_has_a_code():
    modules = parse_modules(SRC)
    assert uncoded_validation_errors(modules) == []


def test_the_scan_sees_validation_errors_without_a_code():
    tree = ast.parse(
        "raise ValidationError('bad', code='weight')\n"
        "raise ValidationError('bad')\n"
        "raise errors.ValidationError(f'bad {x}')\n"
        "raise ValidationError('bad', 'weight')\n"
        "raise DomainError('bad')\n"
        "class ValidationError(CurveError, ValueError):\n"
        "    pass\n"
    )
    assert uncoded_validation_errors({"m": tree}) == ["m:2", "m:3", "m:4"]


def validation_codes(modules: dict[str, ast.Module]) -> tuple[set[str], list[str]]:
    """The string codes src/ passes to ValidationError (code=) and to
    require_sequence (its third argument or code=), both branches of a
    conditional expression there included; and the source of every other
    expression passed in that place."""
    codes, other = set(), []
    for tree in modules.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in ("ValidationError", "require_sequence"):
                continue
            values = node.args[2:] if name == "require_sequence" else []
            for value in values + [keyword.value for keyword in node.keywords if keyword.arg == "code"]:
                for leaf in (value.body, value.orelse) if isinstance(value, ast.IfExp) else (value,):
                    if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                        codes.add(leaf.value)
                    else:
                        other.append(ast.unparse(leaf))
    return codes, other


def readme_codes() -> list[str]:
    """The codes listed in the README's "Error codes" section, in order."""
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Error codes\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `([a-z-]+)`: \S", section, flags=re.M)


def test_the_readme_lists_each_validation_code_that_src_raises_once():
    codes, other = validation_codes(parse_modules(SRC))
    listed = readme_codes()
    assert len(listed) == len(set(listed)), listed
    assert sorted(listed) == sorted(codes)
    # require_sequence passes on the code its caller hands it
    assert other == ["code"]


def test_the_scan_sees_validation_codes():
    tree = ast.parse(
        "raise ValidationError('bad', code='weight')\n"
        "raise errors.ValidationError('bad', code='a' if x else 'b')\n"
        "require_sequence(v, 'the points', 'placement')\n"
        "require_sequence(v, 'the ovals', code='oval-shape')\n"
        "raise ValidationError('bad', code=name)\n"
        "raise DomainError('bad', code='not-this')\n"
        "f(v, 'x', 'not-this-either')\n"
    )
    assert validation_codes({"m": tree}) == ({"weight", "a", "b", "placement", "oval-shape"}, ["name"])


# A plain record is a Record, and a record that checks, normalises or
# derives a field is a FrozenRecord, built through its own __init__. A plain
# record never checks or normalises: its __new__ only packs its parameters,
# in order, into the tuple, it has no __init__ or __post_init__, and no
# class extends one, so a build, a copy or an unpickling runs nothing more.
# No record is made by collections.namedtuple, which compiles the __new__ of
# each record with eval at import, nor is one a typing.NamedTuple, which
# also compiles every string annotation into a ForwardRef that nothing
# reads; each took a large share of the import time of the package.
RECORD_HOOKS = frozenset({"__init__", "__post_init__"})
PLAIN_RECORDS = [
    "algebra.DivisionAlgebraKind",
    "ktheory.SlopeOrbits",
    "skew_series.CentreDescription",
    "weighted_curve.AbstractBase",
    "weighted_curve.AbstractPoint",
    "weighted_curve.EffectivePoint",
    "weighted_curve.GhostGroup",
    "weighted_curve.PicardDescriptor",
    "weighted_curve.WeightedPoint",
    "witt_surface.BaseNumerics",
    "witt_surface.ComplexCentreBase",
    "witt_surface.KleinTopology",
    "witt_surface.SurfaceCounts",
    "witt_surface._Reading",
    "zoo.ZooEntry",
]


def _name(node: ast.expr) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _base_names(node: ast.ClassDef) -> set[str]:
    return {_name(base) for base in node.bases}


def _classes(modules: dict[str, ast.Module]) -> list[tuple[str, ast.ClassDef]]:
    return [
        (module, node) for module, tree in modules.items() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]


def plain_records(modules: dict[str, ast.Module]) -> list[str]:
    """module.Class for every class with Record among its bases."""
    return sorted(f"{module}.{node.name}" for module, node in _classes(modules) if "Record" in _base_names(node))


def _only_packs(node: ast.ClassDef) -> bool:
    """Whether the class defines no hook and one undecorated __new__ that is
    exactly ``def __new__(cls, <fields>): return _tuple_new(cls, (<fields>))``,
    with the fields in the order of its parameters."""
    methods = [stmt for stmt in node.body if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))]
    news = [stmt for stmt in methods if stmt.name == "__new__"]
    if len(news) != 1 or any(stmt.name in RECORD_HOOKS for stmt in methods):
        return False
    new, = news
    args = new.args
    params = [arg.arg for arg in args.args]
    if new.decorator_list or args.posonlyargs or args.vararg or args.kwonlyargs or args.kwarg or params[:1] != ["cls"]:
        return False
    packed = ast.Return(ast.Call(
        ast.Name("_tuple_new", ast.Load()),
        [ast.Name("cls", ast.Load()), ast.Tuple([ast.Name(p, ast.Load()) for p in params[1:]], ast.Load())],
        [],
    ))
    return [ast.dump(stmt) for stmt in new.body] == [ast.dump(packed)]


def checked_records(modules: dict[str, ast.Module]) -> list[str]:
    """module.Class for every class that extends a plain record of the
    scanned modules, and every plain record whose __new__ does more than
    pack its parameters in order, or that defines __init__ or
    __post_init__."""
    classes = _classes(modules)
    records = {node.name for _, node in classes if "Record" in _base_names(node)}
    return sorted(
        f"{module}.{node.name}"
        for module, node in classes
        if _base_names(node) & records or ("Record" in _base_names(node) and not _only_packs(node))
    )


def namedtuple_factories(modules: dict[str, ast.Module]) -> list[str]:
    """module:line for every import of namedtuple from collections and every
    collections.namedtuple read."""
    return sorted(
        f"{module}:{node.lineno}"
        for module, tree in modules.items()
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.ImportFrom)
            and node.module == "collections"
            and any(alias.name == "namedtuple" for alias in node.names)
        )
        or (isinstance(node, ast.Attribute) and node.attr == "namedtuple" and _name(node.value) == "collections")
    )


def typing_namedtuples(modules: dict[str, ast.Module]) -> list[str]:
    """module:line for every import of NamedTuple from typing and every
    typing.NamedTuple read."""
    return sorted(
        f"{module}:{node.lineno}"
        for module, tree in modules.items()
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.ImportFrom)
            and node.module == "typing"
            and any(alias.name == "NamedTuple" for alias in node.names)
        )
        or (isinstance(node, ast.Attribute) and node.attr == "NamedTuple" and _name(node.value) == "typing")
    )


def test_no_record_extends_or_hooks_a_namedtuple():
    modules = parse_modules(SRC)
    # the scan sees every plain record, so a form it cannot read fails here
    assert plain_records(modules) == PLAIN_RECORDS
    assert checked_records(modules) == []
    assert namedtuple_factories(modules) == []
    assert typing_namedtuples(modules) == []


def test_the_scan_sees_checked_namedtuples():
    records = ast.parse(
        "class Plain(Record):\n"
        "    __slots__ = ()\n"
        "    def __new__(cls, x, y=0):\n"
        "        return _tuple_new(cls, (x, y))\n"
        "    def total(self):\n"
        "        return self.x + self.y\n"
        "class Single(errors.Record):\n"
        "    def __new__(cls, x):\n"
        "        return _tuple_new(cls, (x,))\n"
        "class Normalised(Record):\n"
        "    def __new__(cls, x):\n"
        "        return _tuple_new(cls, (int(x),))\n"
        "class Checked(Record):\n"
        "    def __new__(cls, x):\n"
        "        if x < 0:\n"
        "            raise ValueError(x)\n"
        "        return _tuple_new(cls, (x,))\n"
        "class Swapped(Record):\n"
        "    def __new__(cls, x, y):\n"
        "        return _tuple_new(cls, (y, x))\n"
        "class Inherited(Record):\n"
        "    def __new__(cls, x):\n"
        "        return super().__new__(cls, (x,))\n"
        "class Starred(Record):\n"
        "    def __new__(cls, *x):\n"
        "        return _tuple_new(cls, x)\n"
        "class Wrapped(Record):\n"
        "    @functools.cache\n"
        "    def __new__(cls, x):\n"
        "        return _tuple_new(cls, (x,))\n"
        "class Bare(Record):\n"
        "    __slots__ = ()\n"
        "class Posted(Record):\n"
        "    def __new__(cls, x):\n"
        "        return _tuple_new(cls, (x,))\n"
        "    def __post_init__(self):\n"
        "        pass\n"
        "class Initialised(Record):\n"
        "    def __new__(cls, x):\n"
        "        return _tuple_new(cls, (x,))\n"
        "    def __init__(self, x):\n"
        "        assert x\n"
    )
    others = ast.parse(
        "class Moved(Plain):\n"
        "    __slots__ = ()\n"
        "class Frozen(FrozenRecord):\n"
        "    def __init__(self, x):\n"
        "        self._set(x)\n"
        "    def __post_init__(self):\n"
        "        pass\n"
        "class Point(namedtuple('Point', 'x y')):\n"
        "    def __new__(cls, x, y):\n"
        "        return super().__new__(cls, int(x), y)\n"
    )
    modules = {"a": records, "b": others}
    assert checked_records(modules) == [
        "a.Bare", "a.Checked", "a.Inherited", "a.Initialised", "a.Normalised", "a.Posted", "a.Starred",
        "a.Swapped", "a.Wrapped", "b.Moved",
    ]
    assert plain_records(modules) == [
        "a.Bare", "a.Checked", "a.Inherited", "a.Initialised", "a.Normalised", "a.Plain", "a.Posted", "a.Single",
        "a.Starred", "a.Swapped", "a.Wrapped",
    ]


def test_the_scan_sees_namedtuple_factories():
    tree = ast.parse(
        "from collections import namedtuple\n"
        "from collections import OrderedDict, namedtuple as nt\n"
        "import collections\n"
        "Point = collections.namedtuple('Point', 'x y')\n"
        "from collections import _tuplegetter\n"
        "from typing import NamedTuple\n"
        "namedtuple = make_record\n"
    )
    assert namedtuple_factories({"m": tree}) == ["m:1", "m:2", "m:4"]


def test_the_scan_sees_typing_namedtuples():
    tree = ast.parse(
        "from typing import NamedTuple\n"
        "from typing import Any, NamedTuple as NT\n"
        "import typing\n"
        "class A(typing.NamedTuple):\n"
        "    x: int\n"
        "from collections import namedtuple\n"
        "from typing import Any\n"
        "NamedTuple = namedtuple\n"
    )
    assert typing_namedtuples({"m": tree}) == ["m:1", "m:2", "m:4"]


# A FrozenRecord keeps its fields, and what it derives from them, in
# __slots__, so no record has an instance __dict__; cached_property would
# need one, so a record derives its values when it is built instead.
def dict_storage(modules: dict[str, ast.Module]) -> list[str]:
    """module.Class for every subclass of FrozenRecord, directly or through
    a class of the scanned modules, that declares no __slots__, and
    module:line for every use of cached_property."""
    classes = _classes(modules)
    records = {"FrozenRecord"}
    while new := {node.name for _, node in classes if _base_names(node) & records} - records:
        records |= new
    found = []
    for module, node in classes:
        targets = [
            t for stmt in node.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for t in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        ]
        if _base_names(node) & records and not any(getattr(t, "id", None) == "__slots__" for t in targets):
            found.append(f"{module}.{node.name}")
    for module, tree in modules.items():
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else [
                getattr(node, "id", getattr(node, "attr", None))
            ]
            if "cached_property" in names:
                found.append(f"{module}:{node.lineno}")
    return sorted(found)


def test_every_record_keeps_its_values_in_slots():
    modules = parse_modules(SRC)
    assert dict_storage(modules) == []


def test_the_scan_sees_dict_storage():
    tree = ast.parse(
        "from functools import cached_property\n"
        "class Slotted(FrozenRecord):\n"
        "    __slots__ = _fields = ('x',)\n"
        "class Bare(errors.FrozenRecord):\n"
        "    _fields = ('x',)\n"
        "class Derived(Slotted):\n"
        "    def total(self):\n"
        "        return self.x\n"
        "class Plain:\n"
        "    @functools.cached_property\n"
        "    def x(self):\n"
        "        return 1\n"
        "class Annotated(Slotted):\n"
        "    __slots__: tuple = ()\n"
    )
    assert dict_storage({"m": tree}) == ["m.Bare", "m.Derived", "m:1", "m:10"]
