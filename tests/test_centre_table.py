"""tests/centre_table.py prints one row per built-in pair, with the solves
and comparisons centre_basis makes at MAX_TRUNCATION: one of each per
class of s mod lcm(p, r), two on C/conj and one elsewhere."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_tiny_sample_prints_the_counts_of_each_pair():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "centre_table.py"), "--repeats", "1", "--calls", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    lines = done.stdout.splitlines()
    assert lines[0] == "| pair | solves | comparisons | time | peak RSS |"
    rows = [line.split(" | ")[:3] for line in lines[2:6]]
    assert rows == [["| ℝ, id", "1", "1"], ["| ℂ, id", "1", "1"], ["| ℂ, conj", "2", "2"], ["| ℍ, id", "1", "1"]]
    assert all(line.endswith(" MB |") for line in lines[2:6])
    assert lines[7].startswith("peak RSS before the import: ")
