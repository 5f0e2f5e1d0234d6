"""Which lines of src/ only the tests reach: a line trace of the benchmark's
traffic against a line trace of tier-1.

    python tests/traffic_audit.py [--seed N]

Run it from the root of a checkout. It traces src/wittcurves with
sys.settrace twice in this one process:

1. one period of each benchmark workload (bench/workloads.py), run in
   process: the in-process ops as the benchmark runs them, and each CLI op
   sent through wittcurves.cli.main with its argv in place of a child
   interpreter;
2. tier-1, through pytest.main on tests/.

It prints every line that the second run reaches and the first does not,
leaving out raise statements: first the functions the workloads never
enter, marked private or public, and then the lines the workloads skip
inside functions they do enter. It ends with the size of src/: its
logical lines (counted as the budget test of test_package_surface.py
counts them), its physical lines, the length of wittcurves.__all__,
and, for each public function the workloads never enter, the reader that
the public-function scan of test_package_surface.py finds for it.
bench/ is imported and read, never written; the CLI ops write their
input files under a temporary directory. It starts no threads and no
processes. Tier-1 does not run it, since its name does not start with
test_; it takes a few minutes, most of them in the traced tier-1.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wittcurves"


class LineTrace:
    """The (file, line) pairs that ran in src/wittcurves while recording."""

    def __init__(self):
        self.lines: set[tuple[str, int]] = set()
        self.prefix = str(SRC)

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    @contextlib.contextmanager
    def recording(self):
        sys.settrace(self._global)
        try:
            yield self.lines
        finally:
            sys.settrace(None)


def run_workloads(seed: int) -> dict[str, int]:
    """One period of each workload, every op run once; the op count of each."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    class InProcessCli(workloads.CliSession):
        """The CLI session with each command run by wittcurves.cli.main."""

        def _spawn(self, args, trace_out=None):
            def run():
                if args == ["-c", workloads._IMPORT_CLI]:
                    importlib.import_module("wittcurves.cli")
                    return 0, "", ""
                if args[:2] != ["-c", workloads._RUN_CLI]:
                    raise ValueError(f"unknown child argv {args[:2]!r}")
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = importlib.import_module("wittcurves.cli").main(args[2:])
                return code, out.getvalue(), err.getvalue()

            return run

    counts = {}
    with tempfile.TemporaryDirectory() as scratch:
        for cls in (workloads.CurveReports, workloads.ExactKernels, InProcessCli):
            workload = cls(Path(scratch), seed)
            workload.setup(lambda: None)
            ops = 0
            for index in range(workload.PERIOD):
                for op in workload.cycle(index):
                    try:
                        got, exc = op.run(), None
                    except Exception as caught:  # the check below sorts every outcome
                        got, exc = None, caught
                    outcome, detail = op.check(got, exc)
                    if outcome not in (workloads.OK, workloads.REJECTED):
                        print(f"  {cls.name} {op.kind}: {outcome}: {detail}")
                    ops += 1
            workload.close()
            counts[cls.name] = ops
    return counts


def run_tier1() -> int:
    import pytest

    return int(pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")]))


def _functions(tree: ast.Module):
    """(qualified name, first body line, last line) of every function."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    out.append((name, child.body[0].lineno, child.end_lineno))
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def _private(name: str) -> bool:
    return any(part.startswith("_") and not part.endswith("__") for part in name.split("."))


def report(bench_lines, test_lines) -> list[str]:
    """Print what only tier-1 reaches; return the public functions the
    workloads never enter, as module.qualified_name."""
    gone = sorted(test_lines - bench_lines)
    by_file: dict[str, list[int]] = {}
    for filename, line in gone:
        by_file.setdefault(filename, []).append(line)
    never, skipped, never_public = [], [], []
    for filename, lines in sorted(by_file.items()):
        source = Path(filename).read_text(encoding="utf-8")
        text = source.splitlines()
        tree = ast.parse(source)
        raises = {n for node in ast.walk(tree) if isinstance(node, ast.Raise)
                  for n in range(node.lineno, node.end_lineno + 1)}
        functions = _functions(tree)
        module = Path(filename).stem
        grouped: dict[str, list[int]] = {}
        for line in lines:
            if line in raises:
                continue
            # the innermost function holding the line
            holders = [f for f in functions if f[1] <= line <= f[2]]
            owner = max(holders, key=lambda f: f[1]) if holders else ("<module>", 1, len(text))
            grouped.setdefault(owner, []).append(line)
        for (name, first, last), found in grouped.items():
            entered = any((filename, n) in bench_lines for n in range(first, last + 1))
            if entered:
                skipped.extend(f"  {module}.py:{n} in {name}: {text[n - 1].strip()}" for n in found)
            else:
                kind = "private" if _private(name) else "public"
                if kind == "public":
                    never_public.append(f"{module}.{name}")
                never.append(f"  {module}.{name} ({kind}; lines {first}-{last}; {len(found)} reached by tier-1)")
    print("functions the workloads never enter and tier-1 does, raise statements left out:")
    print("\n".join(never) or "  none")
    print("lines inside functions the workloads enter that only tier-1 reaches, raise statements left out:")
    print("\n".join(skipped) or "  none")
    return never_public


def size_report(never_public: list[str]) -> None:
    """The size metrics of src/, and a reader for each public function in
    never_public."""
    import wittcurves
    from test_package_surface import (
        BENCH, SRC_LOGICAL_LINES, UNREAD_PUBLIC, logical_lines, parse_modules, public_function_readers,
    )

    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    print(
        f"size of src/: {sum(map(logical_lines, sources))} logical lines (SRC_LOGICAL_LINES = {SRC_LOGICAL_LINES}), "
        f"{sum(len(source.splitlines()) for source in sources)} physical lines, "
        f"{len(wittcurves.__all__)} names in wittcurves.__all__"
    )
    readers = public_function_readers(parse_modules(SRC), parse_modules(BENCH))
    print("readers of the public functions the workloads never enter:")
    for name in never_public:
        if name not in readers:
            reader = "not module-level, not scanned"
        elif readers[name] is not None:
            reader = f"read in {readers[name]}/"
        else:
            reader = f"no reader; kept: {UNREAD_PUBLIC[name]}" if name in UNREAD_PUBLIC else "no reader"
        print(f"  {name}: {reader}")
    if not never_public:
        print("  none")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=41)
    args = parser.parse_args()
    trace = LineTrace()
    with trace.recording() as bench_lines:
        counts = run_workloads(args.seed)
    bench_lines = set(bench_lines)
    trace.lines = set()
    # tier-1 imports the program afresh, as it does on its own
    for name in [n for n in sys.modules if n == "wittcurves" or n.startswith("wittcurves.")]:
        del sys.modules[name]
    with trace.recording() as test_lines:
        status = run_tier1()
    total = sum(counts.values())
    print(f"workload ops: {total} ({', '.join(f'{k} {v}' for k, v in counts.items())}); tier-1 exit status {status}")
    size_report(report(bench_lines, test_lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
