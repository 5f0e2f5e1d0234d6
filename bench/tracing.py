"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of each wittcurves module and
rebinds every name that refers to them, in every wittcurves module,
because ``from .x import y`` copies the binding into the importing
module. Each wrapped call is a span; its self time is its duration minus
the durations of the wrapped calls made inside it. Aggregates cover every
call. Individual spans are kept in memory only where a call crosses from
one layer into another (up to MAX_SPANS) and are written out at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

MAX_SPANS = 50_000

# layer -> module-level functions whose calls are spans
FUNCTIONS = {
    "algebra": ("apply", "apply_power"),
    "skew_series": ("series", "centre_basis", "dim_over_centre", "verify_jordan_twist"),
    "witt_surface": (
        "validate", "counts", "surface_skewness", "constants_field", "genus",
        "euler_characteristics", "catalog", "canonical_key",
    ),
    "local_data": ("witt_local_datum", "skewness", "local_skewness", "inertial_degree", "degree_of_simple"),
    "weighted_curve": (
        "effective_points", "orbifold_euler", "genus_zero_orbifold_euler", "weight_ram_vector",
        "classify", "tau_exponents", "tau_word", "tau_order", "cy_dimension", "picard_structure",
        "ghost_group", "invariants_report",
    ),
    "ktheory": ("elliptic_numerics", "mutation_matrices", "slope_orbits", "fm_partners"),
    "zoo": ("enumerate_chi_zero", "enumerate_domestic", "instantiate_domestic", "zoo_report"),
    "cli": ("load_curve",),
}
# (layer, class, method, span name): methods that are spans
METHODS = (
    ("skew_series", "TwistedSeries", "__mul__", "series_mul"),
    ("weighted_curve", "WeightedCurve", "__post_init__", "construct"),
)
# (layer, class, method, counter name): methods only counted, being too
# small and too frequent to time without distorting what they sit in
COUNTED = (
    ("algebra", "AlgebraElement", "__mul__", "algebra.mul.calls"),
    ("algebra", "AlgebraElement", "__post_init__", "algebra.element.constructed"),
)
# Calls counted by the outermost of these spans they run under.
ANCHORS = {
    "weighted_curve.invariants_report",
    "weighted_curve.classify",
    "zoo.enumerate_chi_zero",
    "zoo.enumerate_domestic",
}
NESTED = {"weighted_curve.orbifold_euler", "weighted_curve.effective_points", "weighted_curve.classify"}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [child_ns, name, layer, stored_id]
        self.agg: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = 0
        self.roots: dict = {}

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, layer: str, fn, result_hook=None):
        agg = self.agg.setdefault(name, [0, 0, 0])
        stack = self.stack
        counts = self.counts
        spans = self.spans
        clock = time.perf_counter_ns
        nested = name in NESTED
        anchor = name in ANCHORS

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if nested or anchor:
                outer = next((f[1] for f in stack if f[1] in ANCHORS), None)
                if nested and outer is not None:
                    counts[outer + ">" + name] += 1
                if anchor and outer is None:
                    counts[name + ">"] += 1
            boundary = parent is None or parent[2] != layer
            if boundary and len(spans) < MAX_SPANS:
                sid = len(spans)
                spans.append(None)
            else:
                sid = None
                if boundary:
                    self.dropped += 1
            frame = [0, name, layer, sid if sid is not None else (parent[3] if parent else None)]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if result_hook is not None:
                    result_hook(result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if sid is not None:
                    spans[sid] = (sid, parent[3] if parent else None, self.op_id, name, t0, t1)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, name: str, fn, layer: str = "bench"):
        """Run one op as a root span; the spans it causes share its op id."""
        self.op_id += 1
        root = self.roots.get(name)
        if root is None:
            root = self.roots[name] = self._span(name, layer, lambda f: f())
        return root(fn)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function and method of the loaded wittcurves modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "wittcurves" or n.startswith("wittcurves.")]
        hooks = {"zoo.enumerate_chi_zero": self._count_entries, "zoo.enumerate_domestic": self._count_entries}
        for layer, names in FUNCTIONS.items():
            module = sys.modules.get("wittcurves." + layer)
            if module is None:
                continue
            for attr in names:
                orig = getattr(module, attr)
                name = f"{layer}.{attr}"
                _rebind(modules, orig, self._span(name, layer, orig, hooks.get(name)))
        for layer, cls_name, method, name in METHODS:
            cls = getattr(sys.modules["wittcurves." + layer], cls_name)
            setattr(cls, method, self._span(f"{layer}.{name}", layer, getattr(cls, method)))
        for layer, cls_name, method, name in COUNTED:
            cls = getattr(sys.modules["wittcurves." + layer], cls_name)
            setattr(cls, method, self._counter(name, getattr(cls, method)))

    def _count_entries(self, result) -> None:
        self.counts["zoo.entries"] += len(result)

    # -- output ------------------------------------------------------------------

    def state(self) -> dict:
        return {
            "agg": self.agg,
            "counts": dict(self.counts),
            "spans": [s for s in self.spans if s is not None],
            "dropped": self.dropped,
        }


def _rebind(modules, orig, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)


def merge(total: dict, part: dict) -> None:
    """Add one tracer state (e.g. from a traced CLI process) into another."""
    for name, (calls, tot, self_ns) in part["agg"].items():
        acc = total["agg"].setdefault(name, [0, 0, 0])
        acc[0] += calls
        acc[1] += tot
        acc[2] += self_ns
    for key, n in part["counts"].items():
        total["counts"][key] = total["counts"].get(key, 0) + n
    offset = len(total["spans"])
    room = max(0, MAX_SPANS - offset)
    for sid, parent, op, name, t0, t1 in part["spans"][:room]:
        total["spans"].append((sid + offset, None if parent is None else parent + offset, op, name, t0, t1))
    total["dropped"] += part["dropped"] + max(0, len(part["spans"]) - room)


def empty_state() -> dict:
    return {"agg": {}, "counts": {}, "spans": [], "dropped": 0}


def write_spans(path, state: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "start_ns", "end_ns"], "dropped": state["dropped"]}) + "\n")
        for span in state["spans"]:
            fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics

CLI_COMMANDS = ("invariants", "classify", "zoo", "slopes", "skew_centre", "ghost", "local")

# name -> unit. Counts and times are per op of the traced phase unless the
# unit says otherwise; cli.<command>.self_ms is per call of that command.
PER_LAYER = {
    "algebra.mul.calls": "1/op",
    "algebra.element.constructed": "1/op",
    "algebra.apply_power.calls": "1/op",
    "algebra.apply_power.self_ms": "ms/op",
    "skew_series.centre_basis.self_ms": "ms/op",
    "skew_series.verify_jordan_twist.self_ms": "ms/op",
    "skew_series.series_mul.calls": "1/op",
    "skew_series.series_mul.self_ms": "ms/op",
    "witt_surface.validate.calls": "1/op",
    "witt_surface.counts.calls": "1/op",
    "witt_surface.euler_characteristics.calls": "1/op",
    "witt_surface.self_ms": "ms/op",
    "local_data.witt_local_datum.calls": "1/op",
    "local_data.self_ms": "ms/op",
    "weighted_curve.orbifold_euler.calls_per_report": "1/report",
    "weighted_curve.effective_points.calls_per_report": "1/report",
    "weighted_curve.orbifold_euler.calls_per_classify": "1/classify",
    "weighted_curve.construct.self_ms": "ms/op",
    "weighted_curve.invariants_report.self_ms": "ms/op",
    "weighted_curve.classify.self_ms": "ms/op",
    "weighted_curve.orbifold_euler.self_ms": "ms/op",
    "ktheory.slope_orbits.calls": "1/op",
    "ktheory.slope_orbits.self_ms": "ms/op",
    "zoo.enumerate_chi_zero.self_ms": "ms/op",
    "zoo.enumerate_domestic.self_ms": "ms/op",
    "zoo.entries": "1/op",
    "zoo.classify_calls": "1/op",
    "cli.import.total_ms": "ms",
    "cli.import.wittcurves_ms": "ms",
    "cli.import.click_ms": "ms",
    "cli.load_curve.self_ms": "ms/op",
    **{f"cli.{c}.self_ms": "ms/call" for c in CLI_COMMANDS},
    "trace.overhead_frac": "fraction",
}


def layer_metrics(state: dict, ops: int, imports: tuple[float, float, float]) -> dict:
    """Per-layer metrics from a traced phase of `ops` ops (all but the overhead)."""
    agg, counts = state["agg"], state["counts"]

    def calls(name):
        return agg.get(name, (0, 0, 0))[0]

    def self_ms(names):
        return sum(agg.get(n, (0, 0, 0))[2] for n in names) / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    def layer(prefix):
        return [n for n in agg if n.startswith(prefix + ".")]

    report, classify = "weighted_curve.invariants_report", "weighted_curve.classify"
    values = {
        "algebra.mul.calls": counts.get("algebra.mul.calls", 0) / ops,
        "algebra.element.constructed": counts.get("algebra.element.constructed", 0) / ops,
        "algebra.apply_power.calls": calls("algebra.apply_power") / ops,
        "algebra.apply_power.self_ms": self_ms(["algebra.apply_power"]) / ops,
        "skew_series.centre_basis.self_ms": self_ms(["skew_series.centre_basis"]) / ops,
        "skew_series.verify_jordan_twist.self_ms": self_ms(["skew_series.verify_jordan_twist"]) / ops,
        "skew_series.series_mul.calls": calls("skew_series.series_mul") / ops,
        "skew_series.series_mul.self_ms": self_ms(["skew_series.series_mul"]) / ops,
        "witt_surface.validate.calls": calls("witt_surface.validate") / ops,
        "witt_surface.counts.calls": calls("witt_surface.counts") / ops,
        "witt_surface.euler_characteristics.calls": calls("witt_surface.euler_characteristics") / ops,
        "witt_surface.self_ms": self_ms(layer("witt_surface")) / ops,
        "local_data.witt_local_datum.calls": calls("local_data.witt_local_datum") / ops,
        "local_data.self_ms": self_ms(layer("local_data")) / ops,
        "weighted_curve.orbifold_euler.calls_per_report": ratio(
            counts.get(f"{report}>weighted_curve.orbifold_euler", 0), counts.get(report + ">", 0)
        ),
        "weighted_curve.effective_points.calls_per_report": ratio(
            counts.get(f"{report}>weighted_curve.effective_points", 0), counts.get(report + ">", 0)
        ),
        "weighted_curve.orbifold_euler.calls_per_classify": ratio(
            counts.get(f"{classify}>weighted_curve.orbifold_euler", 0), counts.get(classify + ">", 0)
        ),
        "weighted_curve.construct.self_ms": self_ms(["weighted_curve.construct"]) / ops,
        "weighted_curve.invariants_report.self_ms": self_ms([report]) / ops,
        "weighted_curve.classify.self_ms": self_ms([classify]) / ops,
        "weighted_curve.orbifold_euler.self_ms": self_ms(["weighted_curve.orbifold_euler"]) / ops,
        "ktheory.slope_orbits.calls": calls("ktheory.slope_orbits") / ops,
        "ktheory.slope_orbits.self_ms": self_ms(["ktheory.slope_orbits"]) / ops,
        "zoo.enumerate_chi_zero.self_ms": self_ms(["zoo.enumerate_chi_zero"]) / ops,
        "zoo.enumerate_domestic.self_ms": self_ms(["zoo.enumerate_domestic"]) / ops,
        "zoo.entries": counts.get("zoo.entries", 0) / ops,
        "zoo.classify_calls": (
            counts.get(f"zoo.enumerate_chi_zero>{classify}", 0) + counts.get(f"zoo.enumerate_domestic>{classify}", 0)
        ) / ops,
        "cli.import.total_ms": imports[0],
        "cli.import.wittcurves_ms": imports[1],
        "cli.import.click_ms": imports[2],
        "cli.load_curve.self_ms": self_ms(["cli.load_curve"]) / ops,
    }
    for command in CLI_COMMANDS:
        name = "cli." + command
        values[name + ".self_ms"] = ratio(self_ms([name]), calls(name))
    return {name: {"value": value, "unit": PER_LAYER[name]} for name, value in values.items()}
