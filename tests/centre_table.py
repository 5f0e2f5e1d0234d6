"""The README's table of centre_basis at MAX_TRUNCATION, one built-in pair
per child process.

    python tests/centre_table.py [--repeats N] [--calls N]

Run it from the root of a checkout; it writes nothing. For each built-in
pair (R/id, C/id, C/conj, H/id) in turn it starts one child process of
this script, waits for it, and starts the next, so no two children run at
once. The child imports wittcurves from src/ of this checkout and calls
centre_basis(kind, twist, MAX_TRUNCATION): --repeats rounds (9 by
default) of --calls calls each (200 by default), timed in process CPU
time, of which the best round, divided by its calls, is the time of one
call. It then reads its own peak RSS, and last makes one more call with
_kernel and the kernels' lookups counted: the solves are the systems
_centre_kernels solves, the comparisons the lookups centre_basis makes in
the period of kernels, one per class of s mod lcm(p, r). The child also
reports its peak RSS before it imports wittcurves.

It prints the Markdown header and one row per pair, then the largest peak
RSS any child had before the import. Tier-1 does not run it as a test,
since its name does not start with test_; tests/test_centre_table.py runs
it on a tiny sample.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (label, kind, twist): the kind's name in wittcurves.algebra and the
# name of the function that builds the twist from it
PAIRS = [
    ("ℝ, id", "REAL", "identity"),
    ("ℂ, id", "COMPLEX", "identity"),
    ("ℂ, conj", "COMPLEX", "complex_conjugation"),
    ("ℍ, id", "QUATERNION", "identity"),
]


def _peak_rss_mb() -> float:
    """This process's peak RSS in MB; Linux reports ru_maxrss in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _CountedKernels(list):
    """One period of kernels that counts the lookups made in it."""

    lookups = 0

    def __getitem__(self, index):
        self.lookups += 1
        return super().__getitem__(index)


def child(index: int, repeats: int, calls: int) -> dict:
    """Time, peak RSS and counts of centre_basis on pair ``index``."""
    before_import = _peak_rss_mb()
    sys.path.insert(0, str(ROOT / "src"))
    from wittcurves import algebra, skew_series

    _, kind_name, twist_name = PAIRS[index]
    kind = getattr(algebra, kind_name)
    twist = algebra.complex_conjugation() if twist_name == "complex_conjugation" else algebra.identity(kind)
    truncation = skew_series.MAX_TRUNCATION
    best = None
    for _ in range(repeats):
        start = time.process_time()
        for _ in range(calls):
            skew_series.centre_basis(kind, twist, truncation)
        elapsed = time.process_time() - start
        best = elapsed if best is None else min(best, elapsed)
    peak = _peak_rss_mb()

    solves = 0
    kernel, centre_kernels = skew_series._kernel, skew_series._centre_kernels

    def counted_kernel(rows, n):
        nonlocal solves
        solves += 1
        return kernel(rows, n)

    periods = []

    def counted_centre_kernels(k, t, m):
        periods.append(_CountedKernels(centre_kernels(k, t, m)))
        return periods[-1]

    skew_series._kernel, skew_series._centre_kernels = counted_kernel, counted_centre_kernels
    try:
        skew_series.centre_basis(kind, twist, truncation)
    finally:
        skew_series._kernel, skew_series._centre_kernels = kernel, centre_kernels
    return {
        "ms_per_call": best / calls * 1000,
        "peak_rss_mb": peak,
        "before_import_mb": before_import,
        "solves": solves,
        "comparisons": periods[0].lookups,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9, help="timed rounds; the best is kept")
    parser.add_argument("--calls", type=int, default=200, help="calls of centre_basis per round")
    parser.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child, args.repeats, args.calls)))
        return 0
    print("| pair | solves | comparisons | time | peak RSS |")
    print("|---|---|---|---|---|")
    before_import = 0.0
    for index, (label, _, _) in enumerate(PAIRS):
        done = subprocess.run(
            [sys.executable, __file__, "--child", str(index), "--repeats", str(args.repeats), "--calls", str(args.calls)],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        row = json.loads(done.stdout)
        before_import = max(before_import, row["before_import_mb"])
        print(
            f"| {label} | {row['solves']} | {row['comparisons']} | {row['ms_per_call']:#.2g} ms "
            f"| {row['peak_rss_mb']:.1f} MB |"
        )
    print(f"\npeak RSS before the import: {before_import:.1f} MB (Python {platform.python_version()})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
