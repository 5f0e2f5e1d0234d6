"""The wittcurves benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {cli_session,curve_reports,exact_kernels}
                         [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. It sets up several times and reports
the median set-up time, then runs whole cycles of ops, one at a time. The
number of cycles depends only on the workload and --seconds, and is sized
so that the ops take about --seconds on the reference host; so two runs
with the same seed run the same ops. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it runs half the cycles untraced and
half traced, and reports the per-layer metrics and the tracing overhead.
Every op is checked; the last line of standard output is a JSON object
with the keys correct, attempted, failed and metrics. Everything it writes
goes under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

SETUP_REPEATS = 9
PROBES = 5
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def calibrate(samples: list, workload) -> None:
    samples.append(workload.calibration_sample())


def to_reference(samples, reference_s) -> float:
    """The factor that puts times measured alongside these calibration
    samples at reference speed.

    On a shared host the speed of the same code changes from one few
    milliseconds to the next and drifts over minutes. The calibration runs
    right around what it scales, so it slows down about as much as that
    did, and the ratio cancels most of the host's speed out.
    """
    return reference_s / statistics.median(samples)


def at_reference(samples, timed, workload):
    """Times at reference speed, given (time, index of the calibration sample
    taken last before it) pairs.

    A time shorter than the calibration spacing is scaled by the sample just
    before it and the one just after it. A longer one averages the host's
    speed over a longer stretch, so the next sample on each side joins in.
    """
    ref = workload.REFERENCE_CALIBRATION_S
    near = [to_reference(samples[i:i + 2], ref) for i in range(len(samples))]
    wide = [to_reference(samples[max(0, i - 1):i + 3], ref) for i in range(len(samples))]
    return [t * (wide[i] if t > workload.CALIBRATE_EVERY_S else near[i]) for t, i in timed]


def run_phase(workload, cycles, runner=None, first=0):
    """Run `cycles` whole cycles from cycle `first` on; time and check each op."""
    from workloads import OUTCOMES

    # per op, in arrays to keep the benchmark's own memory small: its kind,
    # its latency and the calibration sample taken last before it
    kinds: list[str] = []
    kind_of, latency, sample = array("B"), array("d"), array("L")
    calibration: list[float] = []
    outcomes = dict.fromkeys(OUTCOMES, 0)
    problems: list[str] = []
    wall, clock = time.perf_counter, workload.clock
    last_calibration = wall()
    calibrate(calibration, workload)
    for index in range(first, first + cycles):
        for op in workload.cycle(index):
            if wall() - last_calibration > workload.CALIBRATE_EVERY_S:
                calibrate(calibration, workload)
                last_calibration = wall()
            result = exc = None
            t0 = clock()
            try:
                result = op.run() if runner is None else runner("op." + op.kind, op.run)
            except Exception as err:  # every exception is an outcome to count
                exc = err
            latency.append(clock() - t0)
            sample.append(len(calibration) - 1)
            if op.kind not in kinds:
                kinds.append(op.kind)
            kind_of.append(kinds.index(op.kind))
            outcome, detail = op.check(result, exc)
            outcomes[outcome] += 1
            line = f"{outcome}: {detail}"
            if detail and outcome != "rejected" and len(problems) < 20 and line not in problems:
                problems.append(line)
    calibrate(calibration, workload)
    return {
        "kinds": kinds, "kind_of": kind_of, "latency": latency, "sample": sample, "calibration": calibration,
        "outcomes": outcomes, "problems": problems, "cycles": cycles, "workload": workload,
    }


def summary(phase):
    """Throughput and latency percentiles over every op, at reference speed.

    Each op is scaled by the calibration samples taken just before and just
    after it, so a slow spell of the host slows the calibration beside it
    as well, while the program's own slow calls (collections, first calls,
    cache misses) stay as slow as they were.
    """
    samples = phase["calibration"]
    raw = phase["latency"]
    scaled = array("d", at_reference(samples, zip(raw, phase["sample"]), phase["workload"]))
    ranked = array("d", sorted(scaled))
    n = len(ranked)
    by_kind = {
        kind: array("d", (t for t, k in zip(scaled, phase["kind_of"]) if k == index))
        for index, kind in enumerate(phase["kinds"])
    }
    failed = sum(phase["outcomes"][o] for o in ("failed", "wrong", "crash"))
    return {
        "attempted": n,
        "failed": failed,
        "failed_frac": failed / n,
        "ops_per_s": n / sum(scaled),
        "latency_p50_ms": 1000 * statistics.median(ranked),
        # the highest percentile with at least 10 ops beyond it
        "latency_tail_ms": 1000 * ranked[max(n - 11, 0)],
        "tail_percentile": 100.0 * max(n - 10, 0) / n,
        "kind_p50_ms": {kind: 1000 * statistics.median(ts) for kind, ts in by_kind.items()},
        "raw_ops_per_s": n / sum(raw),
        "raw_latency_p50_ms": 1000 * statistics.median(raw),
        "raw_latency_tail_ms": 1000 * sorted(raw)[max(n - 11, 0)],
        "calibration_p50_ms": 1000 * statistics.median(samples),
    }


def timed_setup(workload):
    """One set-up, in seconds at reference speed and raw.

    The set-up calls tick() between small pieces of its work. Every
    CALIBRATE_EVERY_S of the workload a calibration sample is taken there,
    outside the set-up's time, and each stretch of work between two samples
    is scaled by the samples around it, as an op is. It starts from a collected heap,
    with nothing frozen, so earlier copies of the program are gone."""
    gc.unfreeze()
    gc.collect()
    clock, wall = workload.clock, time.perf_counter
    samples: list[float] = []
    stretches = []  # (work time, index of the calibration sample taken last before it)
    began = [0.0, 0.0]  # clock and wall time at which the current stretch began

    def tick(force=False):
        if force or wall() - began[1] > workload.CALIBRATE_EVERY_S:
            stretches.append((clock() - began[0], len(samples) - 1))
            calibrate(samples, workload)
            began[:] = clock(), wall()

    calibrate(samples, workload)
    calibrate(samples, workload)
    began[:] = clock(), wall()
    workload.setup(tick)
    tick(force=True)
    calibrate(samples, workload)
    return sum(at_reference(samples, stretches, workload)), sum(t for t, _ in stretches)


def interpreter_probe(argv, env):
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=60, check=True)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def import_times(env):
    """Median import cost of wittcurves.cli from -X importtime in fresh interpreters."""
    totals, own, click = [], [], []
    for _ in range(PROBES):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import wittcurves.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        ).stderr
        rows = []
        for line in err.splitlines():
            if line.startswith("import time:") and "self [us]" not in line:
                self_us, _, name = line[len("import time:"):].split("|", 2)
                rows.append((name, int(self_us)))
        # everything after the top-level "site" import is what the statement imported
        start = max(i for i, (name, _) in enumerate(rows) if name == " site") + 1
        rows = [(name.strip(), us) for name, us in rows[start:]]
        totals.append(sum(us for _, us in rows) / 1000)
        own.append(sum(us for name, us in rows if name.split(".")[0] == "wittcurves") / 1000)
        click.append(sum(us for name, us in rows if name.split(".")[0] == "click") / 1000)
    return statistics.median(totals), statistics.median(own), statistics.median(click)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else None
    return ref


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src" / "wittcurves"
    if not (src / "__init__.py").is_file() or not (src / "cli.py").is_file():
        print(f"error: no wittcurves sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # Compile the program once, as an installed package is; no interpreter
    # the benchmark runs writes bytecode anywhere else.
    compileall.compile_dir(str(src), quiet=1)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    try:
        scaled_setups, setups = zip(*(timed_setup(workload) for _ in range(SETUP_REPEATS)))
        setup_s = statistics.median(scaled_setups)
        import wittcurves

        if Path(wittcurves.__file__).resolve().parent != src.resolve():
            print(f"error: imported wittcurves from {wittcurves.__file__}, not {src}", file=sys.stderr)
            return 2
        if args.trace:
            half = workload.cycles_for(args.seconds / 2)
            plain = run_phase(workload, half)
            traced = run_phase(workload, half, workload.start_trace(), first=half)
            phases = [plain, traced]
        else:
            plain = run_phase(workload, workload.cycles_for(args.seconds))
            phases = [plain]
        peak_mb = workload.peak_rss_mb()  # before the summary adds to the benchmark's own size
        env = workloads.child_env(ROOT)
        result = report(args, workload, setup_s, setups, phases, peak_mb, env)
    finally:
        workload.close()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        import tracing

        tracing.write_spans(out_dir / f"spans-{name}.jsonl", workload.trace_state())
    print_human(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def report(args, workload, setup_s, setups, phases, peak_mb, env) -> dict:
    import tracing

    plain = phases[0]
    s = summary(plain)
    outcomes = {k: sum(p["outcomes"][k] for p in phases) for k in plain["outcomes"]}
    attempted = sum(outcomes.values())
    extra = {}
    for metric in workload.extra_metrics:
        kind = metric.split("_p50_ms")[0].removeprefix("cmd.")
        extra[metric] = {"value": s["kind_p50_ms"].get(kind, 0.0), "unit": "ms"}
    if args.trace:
        traced = summary(phases[1])
        metrics = tracing.layer_metrics(workload.trace_state(), traced["attempted"], import_times(env))
        metrics["trace.overhead_frac"] = {"value": 1 - traced["ops_per_s"] / s["ops_per_s"], "unit": "fraction"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": s["ops_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": s["latency_p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": s["latency_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed loop, 1 client, no threads",
        "correct": outcomes["wrong"] == 0 and outcomes["crash"] == 0,
        "attempted": attempted,
        "failed": outcomes["failed"] + outcomes["wrong"] + outcomes["crash"],
        "metrics": metrics,
        "also": {
            **extra,
            "failed_frac": {"value": s["failed_frac"], "unit": "fraction"},
            "latency_tail_percentile": {"value": s["tail_percentile"], "unit": "%"},
            "ops_measured": {"value": s["attempted"], "unit": "count"},
            "raw_ops_per_s": {"value": s["raw_ops_per_s"], "unit": "1/s"},
            "raw_latency_p50_ms": {"value": s["raw_latency_p50_ms"], "unit": "ms"},
            "raw_latency_tail_ms": {"value": s["raw_latency_tail_ms"], "unit": "ms"},
            "raw_setup_runs_s": {"value": list(setups), "unit": "s"},
            "calibration_p50_ms": {"value": s["calibration_p50_ms"], "unit": "ms"},
        },
        "outcomes": outcomes,
        "problems": [p for ph in phases for p in ph["problems"]][:20],
        "cycles": [p["cycles"] for p in phases],
        "inputs": workload.properties(),
        "context": {
            "interp_p50_ms": interpreter_probe([sys.executable, "-c", "pass"], env),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_commit": git_commit(),
            "platform": platform.platform(),
        },
    }


def print_human(result) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  ({result['loop']})")
    for name, m in {**result["metrics"], **result["also"]}.items():
        value = m["value"]
        shown = ", ".join(f"{v:.4g}" for v in value) if isinstance(value, list) else f"{value:.6g}"
        print(f"  {name:<48} {shown} {m['unit']}")
    print(f"  outcomes {result['outcomes']}")
    for problem in result["problems"]:
        print(f"  {problem}")
    print(f"  inputs {json.dumps(result['inputs'])}")
    print(f"  context {json.dumps(result['context'])}")


if __name__ == "__main__":
    sys.exit(main())
