"""Bytecode counted per op, by source file, on a fixed seeded sample of the
benchmark's in-process workloads.

    python tests/opcount.py [--seed N] [--cycles N] [--kernel-cycles N] [--ops N] [--against BASE.json]

Run it from the root of a checkout. It imports bench/workloads.py and,
through it, bench/model.py and bench/tracing.py, and writes nothing. For
curve_reports and exact_kernels in turn it sets the workload up with the
seed, as the benchmark does, draws its first cycles (--cycles of
curve_reports, 20 by default, which is one pool of 1000 curves, and
--kernel-cycles of exact_kernels, 1 by default, 17 jobs), keeps the first
--ops ops of them if that is given, and runs each op once under
sys.settrace with opcode events on. Each opcode that runs is counted
against the file of its code: wittcurves/<module>.py for the package,
bench/<file> for the benchmark's own code, a path below the standard
library for the standard library (fractions.py, json/decoder.py) and the
file name of anything else. The checks of the ops are not run, so the
benchmark's model costs nothing here. It prints one JSON object: the
Python version, the arguments, and for each workload the ops counted,
how many of them ended in an exception, by its class (a refused curve
among them), and their opcodes, in all and per op, by file, by op kind and
by (file, function), keyed "<file>:<qualified name of the code>", so a
row of by_file splits into the functions whose code ran there. Each op
kind splits the same way: its by_function rows are its opcodes per op of
that kind, by (file, function), and add up to its opcodes_per_op.

--against BASE.json reads an earlier run's output, say of a parent
checkout, and adds an "against" block: for each workload, its opcodes
per op and those of each op kind as {"base", "this", "delta"}, and the
ten (file, function) rows whose opcodes per op moved most, largest move
first. A base taken with another Python, seed or sample (cycles and
--ops) counts another thing, so it is refused before anything is counted.

The counts are deterministic: one checkout, Python and set of arguments
give the same counts on every run, where wall time on a shared host
moves by several percent from run to run. Only Python bytecode is
counted; C work (int arithmetic, dict and list operations, the calls of
built-in functions) costs no opcode of its own. Before the sample, a
traced warm-up region runs one small function, since on CPython 3.12 the
first region traced counts no opcode at all. On 3.13 the first call of
each code object counts none, so a count there leaves out code that runs
for the first time in the sample, as the package's code does after
exact_kernels imports it afresh for a cycle: compare counts taken on one
Python only. It starts no thread and no process. Tier-1 does not run it
as a test, since its name does not start with test_;
tests/test_opcount.py runs it on a tiny sample.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import sysconfig
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wittcurves"
BENCH = ROOT / "bench"
STDLIB = sysconfig.get_paths()["stdlib"]


def file_key(filename: str) -> str:
    """The row an opcode of code from this file is counted in."""
    path = Path(filename)
    if path.is_relative_to(SRC):
        return f"wittcurves/{path.relative_to(SRC).as_posix()}"
    if path.is_relative_to(BENCH):
        return f"bench/{path.relative_to(BENCH).as_posix()}"
    if path.is_relative_to(STDLIB):
        return Path(os.path.relpath(filename, STDLIB)).as_posix()
    return path.name


def function_key(code) -> str:
    """The (file, function) row an opcode of this code is counted in; 3.10
    has no co_qualname, so its rows name the function alone."""
    return f"{file_key(code.co_filename)}:{getattr(code, 'co_qualname', code.co_name)}"


class OpcodeCount:
    """Opcodes run while recording, by function_key of their code."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._tracers: dict = {}

    def _global(self, frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        code = frame.f_code
        tracer = self._tracers.get(code)
        if tracer is None:
            tracer = self._tracers[code] = self._local(function_key(code))
        return tracer

    def _local(self, key: str):
        counts = self.counts

        def local(frame, event, arg):
            if event == "opcode":
                counts[key] += 1
            return local

        return local

    def run(self, call) -> str | None:
        """call() under the trace; the name of the class of the exception
        that ended it, if one did. A curve the program refuses is an op
        like any other, so the exception is reported, not raised."""
        sys.settrace(self._global)
        try:
            call()
        except Exception as exc:  # counted by class in the output, as the benchmark counts rejections
            return type(exc).__name__
        finally:
            sys.settrace(None)
        return None


def _warm_up() -> int:
    return sum(range(3))


def count_workload(workload, cycles: int, ops_limit: int | None) -> dict:
    """The opcodes of the first ops of the workload's first cycles, each op
    run once."""
    workload.setup(lambda: None)
    ops = [op for index in range(cycles) for op in workload.cycle(index)]
    ops = ops[:ops_limit]
    OpcodeCount().run(_warm_up)
    by_kind: dict[str, OpcodeCount] = {}
    kinds: Counter = Counter()
    raised: Counter = Counter()
    for op in ops:
        if (name := by_kind.setdefault(op.kind, OpcodeCount()).run(op.run)) is not None:
            raised[name] += 1
        kinds[op.kind] += 1
    workload.close()
    total: Counter = sum((count.counts for count in by_kind.values()), Counter())
    opcodes = sum(total.values())
    by_file: Counter = Counter()
    for key, n in total.items():
        by_file[key.rpartition(":")[0]] += n

    def per_op(counts: Counter, n: int) -> dict:
        return {key: round(v / n, 1) for key, v in sorted(counts.items())}

    return {
        "ops": len(ops),
        "raised": dict(sorted(raised.items())),
        "opcodes": opcodes,
        "opcodes_per_op": round(opcodes / len(ops), 1),
        "by_file": per_op(by_file, len(ops)),
        "by_kind": {
            kind: {
                "ops": kinds[kind],
                "opcodes_per_op": round(sum(by_kind[kind].counts.values()) / kinds[kind], 1),
                "by_function": per_op(by_kind[kind].counts, kinds[kind]),
            }
            for kind in sorted(kinds)
        },
        "by_function": per_op(total, len(ops)),
    }


# the fields of a run that fix what it counts; a base must match them all
SAMPLE_FIELDS = ("python", "seed", "cycles", "ops_limit")
MOVED_ROWS = 10


def _beside(base: float, this: float) -> dict:
    return {"base": base, "this": this, "delta": round(this - base, 1)}


def compare(base: dict, this: dict) -> dict:
    """The "against" block: for each workload of this run, its opcodes
    per op, in all and by op kind, beside the base's, and the function
    rows that moved most. A row or kind missing on one side counts 0."""
    block = {}
    for name, counted in this["workloads"].items():
        old = base["workloads"][name]
        kinds = sorted(old["by_kind"].keys() | counted["by_kind"].keys())
        rows = old["by_function"].keys() | counted["by_function"].keys()
        moves = [(key, _beside(old["by_function"].get(key, 0), counted["by_function"].get(key, 0))) for key in rows]
        moves.sort(key=lambda move: (-abs(move[1]["delta"]), move[0]))
        block[name] = {
            **_beside(old["opcodes_per_op"], counted["opcodes_per_op"]),
            "by_kind": {
                kind: _beside(
                    old["by_kind"].get(kind, {}).get("opcodes_per_op", 0),
                    counted["by_kind"].get(kind, {}).get("opcodes_per_op", 0),
                )
                for kind in kinds
            },
            "moved": [{"function": key, **move} for key, move in moves[:MOVED_ROWS]],
        }
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=20, help="cycles of curve_reports (50 ops each)")
    parser.add_argument("--kernel-cycles", type=int, default=1, help="cycles of exact_kernels (17 ops each)")
    parser.add_argument("--ops", type=int, default=None, help="count at most this many ops of each workload")
    parser.add_argument("--against", type=Path, default=None, help="the JSON of an earlier run to compare with")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    result = {
        "python": platform.python_version(),
        "seed": args.seed,
        "cycles": {"curve_reports": args.cycles, "exact_kernels": args.kernel_cycles},
        "ops_limit": args.ops,
        "workloads": {},
    }
    base = None
    if args.against is not None:
        base = json.loads(args.against.read_text(encoding="utf-8"))
        for field in SAMPLE_FIELDS:
            if base.get(field) != result[field]:
                parser.error(f"{args.against} has {field} {base.get(field)!r}, this run {result[field]!r}")
    for cls, cycles in ((workloads.CurveReports, args.cycles), (workloads.ExactKernels, args.kernel_cycles)):
        result["workloads"][cls.name] = count_workload(cls(ROOT, args.seed), cycles, args.ops)
    if base is not None:
        result["against"] = compare(base, result)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
