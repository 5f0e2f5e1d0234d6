"""The three workloads. Each is a closed loop with one client and no threads.

A workload hands out its ops one cycle at a time. A cycle has a fixed
composition of op kinds; the seed picks the inputs and the order within
it. Every op is checked against the answer the benchmark itself computes
(model.py), and ends as one of:

  ok        the expected answer
  rejected  a documented rejection of input built or known to be invalid:
            a CurveError other than InvariantViolation in process, exit
            code 1 or 2 (3 for inconsistent data) with an "error:" line
  failed    an InvariantViolation, or a rejection of valid input
  wrong     an answer that differs from the reference
  crash     any other exception, or a traceback from the CLI
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import model
import tracing

OK, REJECTED, FAILED, WRONG, CRASH = "ok", "rejected", "failed", "wrong", "crash"
OUTCOMES = (OK, REJECTED, FAILED, WRONG, CRASH)


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run  # () -> result
        self.check = check  # (result, exception) -> (outcome, detail)


def cycle_rng(seed: int, cycle: int) -> random.Random:
    return random.Random(seed * 1_000_003 + cycle)


def fresh_import(*names):
    """Import wittcurves modules anew, so that each set-up pays the import."""
    for name in [n for n in sys.modules if n == "wittcurves" or n.startswith("wittcurves.")]:
        del sys.modules[name]
    return [importlib.import_module(n) for n in names]


def calibration_work():
    """Fixed pure-Python work like the program's: exact rationals and small
    dicts. It never calls the program."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 40):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        table[(i, i % 3)] = (acc.numerator % 97, i)
    return acc, len(table)


class Workload:
    name = ""
    why = ""
    extra_metrics: tuple[str, ...] = ()
    # In-process ops and set-ups are timed in the CPU time of the thread,
    # which leaves out the spells in which the host did not run the process
    # (several a second, of about 10 ms each, on the host the benchmark was
    # tuned on); collections, first calls and cache misses of the program
    # stay in. Workloads that wait for other processes use wall time.
    clock = staticmethod(time.thread_time)
    # A run has a fixed number of whole cycles: about CYCLES_PER_S for each
    # second of --seconds (as measured on the reference host), rounded to a
    # whole number of periods of PERIOD cycles. Timing never decides how many
    # ops run, so two runs with the same seed attempt the same ops and fail
    # the same ones.
    CYCLES_PER_S = 1.0
    PERIOD = 1
    # Every op and every stretch of a set-up is scaled to reference speed by
    # the calibration samples taken next to it (run.py). The sample is the
    # time of calibration_work() on the workload's clock, whose median on
    # the host the benchmark was tuned on (a 2-vCPU Intel Xeon at 2.1 GHz)
    # is REFERENCE_CALIBRATION_S. On that host the speed of the same code
    # wanders by about 18 % (coefficient of variation) from one 3 ms stretch
    # to the next, and two stretches 100 ms apart are only weakly alike
    # (correlation 0.4), so a sample is taken every CALIBRATE_EVERY_S,
    # between ops.
    REFERENCE_CALIBRATION_S = 0.00015
    CALIBRATE_EVERY_S = 0.005

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.tracer = None

    def cycles_for(self, seconds: float) -> int:
        return max(1, round(seconds * self.CYCLES_PER_S / self.PERIOD)) * self.PERIOD

    def calibration_sample(self) -> float:
        t0 = self.clock()
        calibration_work()
        return self.clock() - t0

    def setup(self, tick) -> None:
        """Import the program, make the inputs and warm up, calling tick()
        between small pieces of work."""
        raise NotImplementedError

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def start_trace(self):
        """Wrap the program's layers; return how to run one op under a root span."""
        self.tracer = tracing.Tracer()
        self.tracer.install()
        return self.tracer.run_op

    def trace_state(self) -> dict:
        return self.tracer.state()

    def properties(self) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


def _in_process_outcome(exc, errors, expect_rejection):
    if isinstance(exc, errors.InvariantViolation):
        return FAILED, f"InvariantViolation: {exc}"
    if isinstance(exc, errors.CurveError):
        return (REJECTED if expect_rejection else FAILED), f"{type(exc).__name__}: {exc}"
    return CRASH, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------

class CurveReports(Workload):
    name = "curve_reports"
    why = "in-process curve reports and classifications: weighted_curve, witt_surface and local_data do the work"
    extra_metrics = ("report_p50_ms", "classify_p50_ms")
    POOL = 1000
    CYCLE = 50  # ops per cycle; report and classify alternate, so the ratio is 1:1
    CYCLES_PER_S = 30
    PERIOD = POOL // CYCLE  # whole pools

    def setup(self, tick):
        self.wc, self.ws, self.ld, self.errors = fresh_import(
            "wittcurves.weighted_curve", "wittcurves.witt_surface", "wittcurves.local_data", "wittcurves.errors"
        )
        self.pools = 0
        self.pool_properties = []
        self._draw_pool(tick)
        for op in self._ops(0):
            tick()
            try:
                op.run()
            except Exception:  # the measured loop counts every outcome; warm-up only fills caches
                pass

    def _draw_pool(self, tick=lambda: None):
        """Draw the next pool of curves with their references.

        Each pass over the inputs has a pool of its own, so no curve the
        program has seen comes back (except by chance, as small curves do),
        and a cache the program keeps answers no more than it would across
        the processes of a CLI user. A run sees tens of pools, so its latency
        tail rests on thousands of distinct costly curves."""
        self.pool = model.curve_pool(cycle_rng(self.seed, self.pools), self.POOL, tick)
        self.refs = []
        for spec in self.pool:
            tick()
            self.refs.append(model.reference(spec))
        self.pool_properties.append(model.pool_properties(self.pool, self.refs))
        self.pools += 1
        gc.collect()
        gc.freeze()  # keep the program's collections off the benchmark's inputs

    def properties(self):
        props = model.mean_properties(self.pool_properties)
        props["pools"] = self.pools
        props["report_to_classify"] = "1:1"
        return props

    def build(self, spec):
        wc, ws = self.wc, self.ws
        if "overrides" in spec:
            o = spec["overrides"]
            points = tuple(
                wc.AbstractPoint(p["label"], p.get("e_tau", 1), p.get("f", 1), p.get("p", 1)) for p in o["points"]
            )
            base = wc.AbstractBase(
                Fraction(o["chi_x"]["num"], o["chi_x"]["den"]), o["s"], o["kappa"], o["epsilon"], points,
                o.get("centre_genus"),
            )
            return wc.WeightedCurve(base, ())
        b = spec["base"]
        if isinstance(b, str):
            base = ws.catalog(b)
        else:
            ovals = tuple(
                ws.whole_oval(o) if isinstance(o, str) else ws.segmented_oval(*o["segments"]) for o in b["ovals"]
            )
            base = ws.WittSurface(ws.KleinTopology(b["g"], b["t"], b["s"]), ovals, commutative=b["commutative"])
        points = tuple(
            wc.WeightedPoint(
                wc.COMPLEX_POINT if w["class"] == "point" else self.ld.WittPointClass(w["class"]),
                w["p"], oval=w.get("oval"), segment=w.get("segment"),
            )
            for w in spec["weights"]
        )
        return wc.WeightedCurve(base, points)

    def cycle(self, index):
        if index and index * self.CYCLE % self.POOL == 0:
            self._draw_pool()
        return self._ops(index)

    def _ops(self, index):
        ops = []
        for i in range(index * self.CYCLE, (index + 1) * self.CYCLE):
            spec, ref = self.pool[i % self.POOL], self.refs[i % self.POOL]
            if i % 2 == 0:
                ops.append(Op("report", self._report_run(spec), self._report_check(ref)))
            else:
                ops.append(Op("classify", self._classify_run(spec), self._classify_check(ref)))
        return ops

    def _report_run(self, spec):
        return lambda: self.wc.invariants_report(self.build(spec))

    def _classify_run(self, spec):
        return lambda: self.wc.classify(self.build(spec))

    def _report_check(self, ref):
        def check(got, exc):
            if exc is not None:
                return _in_process_outcome(exc, self.errors, ref["inconsistent_report"])
            if ref["inconsistent_report"]:
                return WRONG, "inconsistent data was answered"
            return report_mismatch(got, ref)
        return check

    def _classify_check(self, ref):
        def check(got, exc):
            if exc is not None:
                return _in_process_outcome(exc, self.errors, ref["inconsistent_classify"])
            if ref["inconsistent_classify"]:
                return WRONG, "inconsistent data was classified"
            if got.value != ref["class"]:
                return WRONG, f"class {got.value}, expected {ref['class']}"
            return OK, None
        return check


def report_mismatch(got: dict, ref: dict):
    tau = ref["tau_order"]
    want = {
        "kappa": ref["kappa"],
        "epsilon": ref["epsilon"],
        "skewness": ref["skewness"],
        "pbar": ref["pbar"],
        "chi_orb": ref["chi_orb"],
        "curve_class": ref["class"],
        "weight_ram_vector": ref["wrv"],
        "tau_order": tau,
        "cy_dimension": None if tau is None else (tau, tau),
    }
    for key, value in want.items():
        if got[key] != value:
            return WRONG, f"{key} = {got[key]!r}, expected {value!r}"
    if type(got["chi_orb"]) is not Fraction:
        return WRONG, f"chi_orb is an inexact {type(got['chi_orb']).__name__}"
    picard = got["picard"]
    if (picard is None) != (ref["centre_genus"] is None):
        return WRONG, "picard presence"
    if picard is not None and (
        tuple(picard.torsion_quotient) != ref["wrv"]
        or picard.finitely_generated_rank_one != (ref["centre_genus"] == 0)
        or picard.pic_zero != ref["pic_zero"]
    ):
        return WRONG, f"picard {picard}"
    return OK, None


# ---------------------------------------------------------------------------

PAIRS = (("R", "id"), ("C", "id"), ("C", "conj"), ("H", "id"))
GOLDEN = (5 ** 0.5 - 1) / 2


def _unit(rng):
    """A small integer quaternion of norm 6: (1, 1, 2, 0) permuted, signs random."""
    coeffs = [1, 1, 2, 0]
    rng.shuffle(coeffs)
    return tuple(c * rng.choice((1, -1)) for c in coeffs)


def _coeff(rng):
    while True:
        c = tuple(rng.randint(-2, 2) for _ in range(4))
        if any(c):
            return c


def _zoo_dicts(entries):
    return [
        {
            "base": e.base,
            "weights": [[c, w] for c, w in e.weights],
            "class": e.curve_class.name,
            "chi_orb": None if e.chi_orb is None else (
                {"num": e.chi_orb.numerator, "den": e.chi_orb.denominator}
                if type(e.chi_orb) is Fraction else e.chi_orb
            ),
        }
        for e in entries
    ]


class ExactKernels(Workload):
    name = "exact_kernels"
    why = "heavy exact jobs: slope orbits, series centres, Jordan twists, twisted products, the zoos"
    CYCLES_PER_S = 0.47
    PERIOD = 7  # cycles in which each elliptic type meets each slope bound stratum once

    def load(self):
        _, self.al, self.sk, self.kt, self.zoo, self.errors = fresh_import(
            "wittcurves", "wittcurves.algebra", "wittcurves.skew_series", "wittcurves.ktheory",
            "wittcurves.zoo", "wittcurves.errors",
        )

    def setup(self, tick):
        self.load()
        rng = random.Random(self.seed)
        self.types = list(model.ELLIPTIC_TYPES)
        rng.shuffle(self.types)
        self.starts = [rng.random() for _ in range(len(self.types) + len(PAIRS))]
        self.drawn = []
        warm = [("slopes", "K", 50), ("centre", "H", "id", 8), ("jordan", 2, (1, 1, 0, 0)), ("chi_zero",), ("domestic",)]
        for job in warm:
            tick()
            self._op(job).run()

    def _jobs(self, cycle):
        """The jobs of one cycle: 7 slope scans, 4 centre searches, Jordan
        checks of sizes 4 and 6, 2 twisted products and both zoos.

        Every cycle has arguments of its own, so no call repeats an earlier
        one except by chance, while every cycle asks for about the same work.
        The slope bounds fall one in each seventh of [50, 300] and the
        centre orders one in each quarter of [8, 64] (the largest for H).
        From cycle to cycle each bound and order steps through its stretch
        by the golden ratio, so a run of cycles covers the stretch evenly,
        and the types move one seventh up. The seed picks the starting
        points, the first order of the types, the units, the coefficients
        and the order of the jobs."""
        rng = cycle_rng(self.seed, cycle)

        def stratum(low, high, slots, slot, start):
            u = (start + cycle * GOLDEN) % 1.0
            return low + int((high - low) / slots * (slot + u))

        shift = cycle % len(self.types)
        types = self.types[shift:] + self.types[:shift]
        jobs = [("slopes", name, stratum(50, 300, 7, k, self.starts[k])) for k, name in enumerate(types)]
        jobs += [
            ("centre", alg, twist, stratum(8, 64, 4, k, self.starts[len(types) + k]))
            for k, (alg, twist) in enumerate(PAIRS)
        ]
        jobs += [("jordan", 4, _unit(rng)), ("jordan", 6, _unit(rng))]
        for _ in range(2):
            n, unit = 12, _unit(rng)
            f = {e: _coeff(rng) for e in rng.sample(range(n), 7)}
            g = {e: _coeff(rng) for e in rng.sample(range(n), 7)}
            jobs.append(("series", unit, n, f, g, model.twisted_product(unit, f, g, n)))
        jobs += [("chi_zero",), ("domestic",)]
        rng.shuffle(jobs)
        return jobs

    def properties(self):
        slopes = [j for jobs in self.drawn for j in jobs if j[0] == "slopes"]
        centres = [j for jobs in self.drawn for j in jobs if j[0] == "centre"]
        return {
            "cycles_drawn": len(self.drawn),
            "jobs_per_cycle": len(self.drawn[0]),
            "slope_bounds_drawn": [j[2] for j in slopes],
            "slope_bound_mean": statistics.mean(j[2] for j in slopes),
            "centre_order_mean": {f"{a}/{t}": statistics.mean(j[3] for j in centres if j[1:3] == (a, t)) for a, t in PAIRS},
            "jordan_sizes": sorted(j[1] for j in self.drawn[0] if j[0] == "jordan"),
        }

    def cycle(self, index):
        """Import the program afresh before each cycle, so that no cache it
        keeps answers a call of an earlier cycle (the zoo enumerators take
        no arguments), as none would across the processes of a CLI user."""
        self.load()
        if self.tracer is not None:
            self.tracer.install()
        gc.unfreeze()
        gc.collect()  # the previous copy of the program, outside any op
        jobs = self._jobs(index)
        self.drawn.append(jobs)
        return [self._op(job) for job in jobs]

    def _op(self, job):
        al, sk, kt, zoo = self.al, self.sk, self.kt, self.zoo
        kind = job[0]
        if kind == "slopes":
            _, name, bound = job

            def check(got, exc):
                if exc is not None:
                    return _in_process_outcome(exc, self.errors, False)
                count = model.SLOPE_COUNTS[name]
                reps = ", ".join("inf" if not isinstance(r, (int, Fraction)) else str(Fraction(r)) for r in got.representatives)
                if got.count != count or reps != model.SLOPE_REPS[count] or got.height_bound != bound:
                    return WRONG, f"{name} at {bound}: {got.count} orbits, representatives {reps}"
                return OK, None

            return Op("slopes", lambda: kt.slope_orbits(kt.elliptic_numerics(name), height_bound=bound), check)
        if kind == "centre":
            _, alg, twist, order = job

            def run():
                kind_ = {"R": al.REAL, "C": al.COMPLEX, "H": al.QUATERNION}[alg]
                aut = al.complex_conjugation() if twist == "conj" else al.identity(kind_)
                return sk.centre_basis(kind_, aut, order)

            def check(got, exc):
                if exc is not None:
                    return _in_process_outcome(exc, self.errors, False)
                field, period, _ = model.CENTRES[(alg, twist)]
                if got.constant_subfield.tag != field or got.period != period:
                    return WRONG, f"centre of {alg}/{twist}: {got}"
                return OK, None

            return Op("centre", run, check)
        if kind == "jordan":
            _, n, unit = job

            def check(got, exc):
                if exc is not None:
                    return _in_process_outcome(exc, self.errors, False)
                return (OK, None) if got is True else (WRONG, f"Jordan check n={n} u={unit} returned {got!r}")

            return Op("jordan", lambda: sk.verify_jordan_twist(al.QUATERNION, al.inner(al.quat(*unit)), n), check)
        if kind == "series":
            _, unit, n, f, g, want = job

            def run():
                twist = al.inner(al.quat(*unit))
                return sk.series(al.QUATERNION, twist, n, {e: al.quat(*c) for e, c in f.items()}) * sk.series(
                    al.QUATERNION, twist, n, {e: al.quat(*c) for e, c in g.items()}
                )

            def check(got, exc):
                if exc is not None:
                    return _in_process_outcome(exc, self.errors, False)
                terms = {e: tuple(c.coeffs) for e, c in got.coeffs}
                exact = all(type(x) is Fraction for c in terms.values() for x in c)
                if terms != want or not exact:
                    return WRONG, f"twisted product with u={unit} differs from the reference"
                return OK, None

            return Op("series", run, check)
        which = "chi_zero" if kind == "chi_zero" else "domestic"
        enumerate_ = (lambda: zoo.enumerate_chi_zero()) if kind == "chi_zero" else (lambda: zoo.enumerate_domestic())

        def check(got, exc):
            if exc is not None:
                return _in_process_outcome(exc, self.errors, False)
            problem = model.check_zoo(_zoo_dicts(got), which)
            return (WRONG, problem) if problem else (OK, None)

        return Op(kind, enumerate_, check)


# ---------------------------------------------------------------------------

# InvariantViolation messages the program raises on inconsistent data. The
# CLI maps it to exit code 3 like a documented CurveError, so only the
# message tells the two apart.
_IV_MESSAGE = re.compile(r"^error: (tubular curve with|domestic genus-zero curve with|unexpected tau order)")

_INVALID = (
    # (expected exit code, file text)
    (1, "{\"base\": \"D\", "),
    (1, "[1, 2]"),
    (1, json.dumps({"base": "D", "colour": 1})),
    (1, json.dumps({"base": "D", "overrides": {"chi_x": 1, "s": 1, "kappa": 1, "epsilon": 1}})),
    (1, json.dumps({"base": "D_H", "weights": {"class": "inner", "p": 2}})),
    (1, json.dumps({"base": "D", "weights": [{"class": "edge", "p": 2}]})),
    (1, json.dumps({"base": "D_22", "weights": [{"class": "inner"}]})),
    (1, json.dumps({"base": "A", "weights": [{"class": "inner", "p": True}]})),
    (1, json.dumps({"overrides": {"chi_x": {"num": 1, "den": 0}, "s": 1, "kappa": 1, "epsilon": 1}})),
    (2, json.dumps({"base": "D", "weights": [{"class": "inner", "p": 1}]})),
    (2, json.dumps({"base": "Q7"})),
    (2, json.dumps({"base": "D_22", "weights": [{"class": "segmentation", "p": 3}]})),
    (2, json.dumps({"base": "D_2222", "weights": [
        {"class": "segmentation", "p": 2, "oval": 0, "segment": 1},
        {"class": "segmentation", "p": 3, "oval": 0, "segment": 1}]})),
    (2, json.dumps({"base": {"g": 0, "t": 2, "s": 1, "ovals": ["+", "+"]}})),
    (2, json.dumps({"base": {"g": 0, "t": 1, "s": 1, "ovals": [{"segments": ["+", "-", "+"]}]}})),
    (2, json.dumps({"base": {"g": 1, "t": 1, "s": 0, "ovals": [{"segments": ["+", "+", "-", "-"]}]}})),
    (2, json.dumps({"base": {"g": 1, "t": 2, "s": 1, "ovals": ["+", "+"]}})),
    (2, json.dumps({"base": "D", "weights": [{"class": "quaternion_boundary", "p": 2}]})),
    (2, json.dumps({"overrides": {"chi_x": 1, "s": 0, "kappa": 1, "epsilon": 1}})),
)
_ZOO_CLASSES = ("elliptic", "tubular", "domestic", "all")

# An untraced CLI op runs `python -m wittcurves.cli ARGS` through the same
# runpy entry point that -m uses (or the bare import), after which the
# process appends its own peak RSS to its stderr. VmHWM counts only the
# process image that exec started afresh; ru_maxrss of a child also counts
# the benchmark process it was forked from.
_PEAK_LINE = "VmHWM:"
_REPORT_PEAK = """import sys
try:
    {}
finally:
    with open('/proc/self/status') as status:
        sys.stderr.write(''.join(line for line in status if line.startswith('VmHWM:')))
"""
_RUN_CLI = _REPORT_PEAK.format("import runpy; runpy._run_module_as_main('wittcurves.cli')")
_IMPORT_CLI = _REPORT_PEAK.format("import wittcurves.cli")
_LOCAL_CLASSES = tuple(model.LOCAL_TABLE)


def _ghost_file(rng):
    efficient = rng.randint(0, 3)
    points, orders = [], []
    for i in range(4):
        if i == efficient:
            points.append((1, 1))
            continue
        e = rng.choice((1, 2, 2, 3, 4, 6))
        f = e * rng.randint(1, 2) if e > 1 else rng.randint(1, 2)
        points.append((e, f))
        if e > 1:
            orders.append(e)
    records = [{"e_tau": e, "f": f} if rng.random() < 0.5 else [e, f] for e, f in points]
    describe = " x ".join(f"C{n}" for n in sorted(orders)) or "trivial"
    return {"points": records, "efficient": efficient}, f"ghost group: {describe}\n"


def _parse_table(text: str):
    """Rows of a zoo table as CLI-style JSON dicts, read by column position."""
    lines = text.rstrip("\n").split("\n")
    headers = ("base", "weights", "class", "chi'", "s", "WRV", "tau", "CY")
    starts, pos = [], 0
    for h in headers:
        pos = lines[0].index(h, pos)
        starts.append(pos)
    rows = []
    for line in lines[2:]:
        cells = [line[a:b].strip() for a, b in zip(starts, starts[1:] + [None])]
        weights = []
        if cells[1] != "{}":
            for item in cells[1].strip("{}").split(", "):
                cls, w = item.split(":")
                weights.append([cls, int(w) if w.isdigit() else w])
        chi = None
        if cells[3] != "-":
            num, _, den = cells[3].partition("/")
            chi = {"num": int(num), "den": int(den or 1)}
        rows.append({"base": cells[0], "weights": weights, "class": cells[2].upper(), "chi_orb": chi})
    return rows


class CliSession(Workload):
    name = "cli_session"
    why = "each CLI command as a subprocess, as a user runs it: interpreter start-up, import and the cli layer dominate"
    extra_metrics = (
        "import_p50_ms", "cmd.invariants_p50_ms", "cmd.classify_p50_ms", "cmd.zoo_p50_ms",
        "cmd.slopes_p50_ms", "cmd.skew_centre_p50_ms",
    )
    clock = staticmethod(time.perf_counter)
    CYCLES_PER_S = 1 / 5
    PERIOD = 2  # cycles after which the same inputs recur
    # A CLI op is mostly process start-up and imports, which a slow spell of
    # the host slows more than it slows pure-Python work. So here the
    # calibration sample is the start-up of a bare interpreter in the same
    # environment, which the program cannot change, taken before every op;
    # REFERENCE_CALIBRATION_S is its median on the reference host.
    REFERENCE_CALIBRATION_S = 0.055
    CALIBRATE_EVERY_S = 0.05
    CURVES = 10 * PERIOD  # each used once per period, by invariants or classify
    GHOSTS = PERIOD

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.work = root / ".bench_out" / f"work-{os.getpid()}"
        self.env = child_env(root)
        self.shim = str(Path(__file__).resolve().parent / "trace_cli.py")
        self.state = None
        self.peak_kb = 0

    def calibration_sample(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=self.root, env=self.env, capture_output=True, timeout=60, check=True)
        return time.perf_counter() - t0

    def setup(self, tick):
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        rng = random.Random(self.seed)
        self.curves = []
        for i, spec in enumerate(model.curve_pool(rng, self.CURVES, tick)):
            tick()
            path = self.work / f"curve{i}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            self.curves.append((str(path), model.reference(spec)))
        self.invalid = []
        for i, (code, text) in enumerate(_INVALID):
            path = self.work / f"invalid{i}.json"
            path.write_text(text, encoding="utf-8")
            self.invalid.append((str(path), code))
        self.ghosts = []
        for i in range(self.GHOSTS):
            record, expected = _ghost_file(rng)
            path = self.work / f"ghost{i}.json"
            path.write_text(json.dumps(record), encoding="utf-8")
            self.ghosts.append((str(path), expected))
        for op in (self._import_op(), self._curve_op("invariants", *self.curves[0])):
            tick()
            op.run()

    def properties(self):
        specs = [json.loads(Path(p).read_text(encoding="utf-8")) for p, _ in self.curves]
        props = model.pool_properties(specs, [ref for _, ref in self.curves])
        props["invalid_files"] = len(self.invalid)
        props["ops_per_cycle"] = len(self.cycle(0))
        return props

    def start_trace(self):
        self.state = tracing.empty_state()
        self.op_id = 0
        return lambda kind, fn: fn()

    def trace_state(self):
        return self.state

    def peak_rss_mb(self):
        return self.peak_kb / 1024

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    # -- ops -----------------------------------------------------------------

    def cycle(self, index):
        index %= self.PERIOD
        rng = cycle_rng(self.seed, index)
        types = model.ELLIPTIC_TYPES
        ops = [self._import_op()]
        files = self.curves[10 * index:10 * index + 10]
        ops += [self._curve_op("invariants", *f) for f in files[:5]]
        ops += [self._curve_op("classify", *f) for f in files[5:]]
        fmt = "table" if index % 2 == 0 else "json"
        ops += [self._zoo_op(which, fmt) for which in _ZOO_CLASSES]
        ops += [self._slopes_op(types[(4 * index + k) % len(types)]) for k in range(4)]
        ops += [self._skew_op(*PAIRS[2 * index + k]) for k in range(2)]
        ops.append(self._ghost_op(*self.ghosts[index]))
        ops += [self._local_op(_LOCAL_CLASSES[2 * index + k]) for k in range(2)]
        codes = [f for f in self.invalid if f[1] == 1 + index % 2]
        ops.append(self._invalid_op(*rng.choice(codes), "invariants" if rng.random() < 0.5 else "classify"))
        rng.shuffle(ops)
        return ops

    def _cli_op(self, kind, args, check):
        if self.state is not None:
            self.op_id += 1
            out = self.work / "trace.json"
            return Op(kind, self._spawn([self.shim, str(out), str(self.op_id), *args], out), check)
        return Op(kind, self._spawn(["-c", _RUN_CLI, *args]), check)

    def _spawn(self, args, trace_out=None):
        argv = [sys.executable, *args]

        def run():
            proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True, timeout=120)
            if trace_out is not None and trace_out.exists():
                tracing.merge(self.state, json.loads(trace_out.read_text(encoding="utf-8")))
                trace_out.unlink()
            err = []
            for line in proc.stderr.decode("utf-8", "replace").splitlines(keepends=True):
                if line.startswith(_PEAK_LINE):
                    self.peak_kb = max(self.peak_kb, int(line.split()[1]))
                else:
                    err.append(line)
            return proc.returncode, proc.stdout.decode("utf-8", "replace"), "".join(err)

        return run

    def _import_op(self):
        return Op("import", self._spawn(["-c", _IMPORT_CLI]), _expect_output(""))

    def _curve_op(self, command, path, ref):
        inconsistent = ref["inconsistent_report" if command == "invariants" else "inconsistent_classify"]
        if command == "invariants":
            want = model.expected_cli_payload(ref)

            def answer_ok(out):
                try:
                    return json.loads(out) == want
                except ValueError:
                    return False
        else:
            want_text = ref["class"].upper() + "\n"

            def answer_ok(out):
                return out == want_text

        def check(got, exc):
            if exc is not None:
                return CRASH, f"{type(exc).__name__}: {exc}"
            code, out, err = got
            if "Traceback" in err:
                return CRASH, err.strip().splitlines()[-1]
            if code == 3 and _IV_MESSAGE.match(err):
                return FAILED, err.strip()
            if inconsistent:
                if code == 3 and err.startswith("error:"):
                    return REJECTED, None
                return WRONG, f"{command} {path}: exit {code}, inconsistent data not rejected"
            if code != 0:
                return FAILED, f"{command} {path}: exit {code}: {err.strip()}"
            if not answer_ok(out):
                return WRONG, f"{command} {path}: {out.strip()}"
            return OK, None

        return self._cli_op(command, [command, path], check)

    def _zoo_op(self, which, fmt):
        def check(got, exc):
            bad = _process_problem(got, exc)
            if bad:
                return bad
            _, out, _ = got
            try:
                entries = json.loads(out) if fmt == "json" else _parse_table(out)
            except ValueError as err:
                return WRONG, f"zoo {which} {fmt}: unreadable output ({err})"
            problem = model.check_zoo(entries, which)
            return (WRONG, f"zoo {which} {fmt}: {problem}") if problem else (OK, None)

        return self._cli_op("zoo", ["zoo", "--class", which, "--format", fmt], check)

    def _slopes_op(self, name):
        count = model.SLOPE_COUNTS[name]
        text = f"{count} {'orbit' if count == 1 else 'orbits'}\nrepresentatives: {model.SLOPE_REPS[count]}\n"
        return self._cli_op("slopes", ["slopes", name], _expect_output(text))

    def _skew_op(self, alg, twist):
        field, period, dim = model.CENTRES[(alg, twist)]
        variable = "T" if period == 1 else f"T^{period}"
        text = f"centre = {model.FIELD_LETTER[field]}[[{variable}]], dim over centre = {dim}\n"
        return self._cli_op("skew_centre", ["skew-centre", "--algebra", alg, "--twist", twist], _expect_output(text))

    def _ghost_op(self, path, text):
        return self._cli_op("ghost", ["ghost", path], _expect_output(text))

    def _local_op(self, point_class):
        want = [["class", "e", "e*", "e_tau", "f_res", "D_x"], [point_class, *model.LOCAL_TABLE[point_class]]]

        def check(got, exc):
            bad = _process_problem(got, exc)
            if bad:
                return bad
            rows = [line.split() for line in got[1].splitlines()]
            return (OK, None) if rows == want else (WRONG, f"local {point_class}: {got[1]!r}")

        return self._cli_op("local", ["local", point_class], check)

    def _invalid_op(self, path, code, command):
        def check(got, exc):
            if exc is not None:
                return CRASH, f"{type(exc).__name__}: {exc}"
            got_code, _, err = got
            if "Traceback" in err:
                return CRASH, err.strip().splitlines()[-1]
            if got_code == code and err.startswith("error:"):
                return REJECTED, None
            return WRONG, f"{command} {path}: exit {got_code}, expected {code}"

        return self._cli_op("invalid", [command, path], check)


def _process_problem(got, exc):
    if exc is not None:
        return CRASH, f"{type(exc).__name__}: {exc}"
    code, _, err = got
    if "Traceback" in err:
        return CRASH, err.strip().splitlines()[-1]
    if code != 0:
        return FAILED, f"exit {code}: {err.strip()}"
    return None


def _expect_output(text):
    def check(got, exc):
        bad = _process_problem(got, exc)
        if bad:
            return bad
        return (OK, None) if got[1] == text else (WRONG, f"output {got[1]!r}, expected {text!r}")

    return check


def child_env(root: Path) -> dict:
    """The environment of every interpreter the benchmark starts: the
    checkout's sources (compiled by run.py) on the path, and no bytecode
    written."""
    env = dict(os.environ)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env


WORKLOADS = {w.name: w for w in (CliSession, CurveReports, ExactKernels)}
