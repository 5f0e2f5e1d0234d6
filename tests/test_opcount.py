"""tests/opcount.py counts the same opcodes on every run of one sample,
and its rows by function add up to its rows by file. Compared with
itself by --against, a sample moves by nothing; a base of another seed
is refused."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--seed", "3", "--cycles", "1", "--kernel-cycles", "1", "--ops", "4"]


def _run(*extra: str, check: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tests" / "opcount.py"), *TINY, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=check,
    )


def _count(*extra: str) -> dict:
    return json.loads(_run(*extra).stdout)


def test_two_runs_of_a_tiny_sample_count_the_same_opcodes_by_file():
    first, second = _count(), _count()
    assert set(first["workloads"]) == set(second["workloads"]) == {"curve_reports", "exact_kernels"}
    for name, counted in first["workloads"].items():
        again = second["workloads"][name]
        assert counted["ops"] == again["ops"] == 4
        assert counted["opcodes"] == again["opcodes"] > 0
        assert counted["by_file"].keys() == again["by_file"].keys()
        assert counted["by_file"] == again["by_file"] and counted["by_kind"] == again["by_kind"]
        assert counted["by_function"] == again["by_function"]
        # every opcode is counted against one file
        assert abs(sum(counted["by_file"].values()) - counted["opcodes_per_op"]) < 1
    assert "wittcurves/weighted_curve.py" in first["workloads"]["curve_reports"]["by_file"]
    assert first["ops_limit"] == 4 and first["seed"] == 3


def test_rows_by_function_split_the_rows_by_file():
    counts = _count()
    for counted in counts["workloads"].values():
        sums: dict = {}
        for key, per_op in counted["by_function"].items():
            file, _, function = key.rpartition(":")
            assert file in counted["by_file"] and function
            sums[file] = sums.get(file, 0) + per_op
        assert sums.keys() == counted["by_file"].keys()
        # each row is rounded to a tenth of an opcode per op
        for file, total in sums.items():
            assert abs(total - counted["by_file"][file]) <= 0.05 * (len(counted["by_function"]) + 1)
    for counted in counts["workloads"].values():
        # each op kind splits by function the same way, into its own total
        for kind, split in counted["by_kind"].items():
            assert split["by_function"] and all(key.rpartition(":")[0] in counted["by_file"]
                                                for key in split["by_function"])
            total = sum(split["by_function"].values())
            assert abs(total - split["opcodes_per_op"]) <= 0.05 * (len(split["by_function"]) + 1), kind
    rows = counts["workloads"]["curve_reports"]["by_function"]
    assert "wittcurves/weighted_curve.py:CurveProfile.__init__" in rows
    assert "wittcurves/algebra.py:_rational" in rows


def test_a_sample_compared_with_itself_moves_by_nothing(tmp_path):
    base = _count()
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base), encoding="utf-8")
    against = _count("--against", str(path))["against"]
    assert against.keys() == base["workloads"].keys()
    for name, compared in against.items():
        counted = base["workloads"][name]
        assert compared["base"] == compared["this"] == counted["opcodes_per_op"] and compared["delta"] == 0
        assert compared["by_kind"].keys() == counted["by_kind"].keys()
        assert all(row["delta"] == 0 for row in compared["by_kind"].values())
        moved = compared["moved"]
        assert len(moved) == min(10, len(counted["by_function"]))
        assert all(row["delta"] == 0 and row["base"] == counted["by_function"][row["function"]] for row in moved)
    base["seed"] += 1
    path.write_text(json.dumps(base), encoding="utf-8")
    refused = _run("--against", str(path), check=False)
    assert refused.returncode == 2 and "seed" in refused.stderr and not refused.stdout
