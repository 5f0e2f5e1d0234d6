"""The benchmark's own model of the answers it checks, and its seeded inputs.

Nothing here imports wittcurves: every reference answer is recomputed from
the paper's formulas on plain data, so a change to the program cannot move
the reference along with it.

A curve is described by the same JSON record the CLI reads (a catalog name
or topology record under "base" with "weights", or abstract numerics under
"overrides"), so one description feeds both the in-process workloads and
the curve files of the CLI session.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# The catalog, restated from the paper: (g, t, s, ovals, commutative) for the
# real surfaces, ("C", genus) for the complex-centre bases. An oval is "+" or
# "-" when whole, or a tuple of alternating segment signs.

CATALOG = {
    "D": (0, 1, 1, ("+",), True),
    "RP2": (0, 0, 0, (), True),
    "A": (1, 2, 1, ("+", "+"), True),
    "M": (1, 1, 0, ("+",), True),
    "K": (1, 0, 0, (), True),
    "D_H": (0, 1, 1, ("-",), False),
    "D_22": (0, 1, 1, (("+", "-"),), False),
    "A_RH": (1, 2, 1, ("+", "-"), False),
    "A_HH": (1, 2, 1, ("-", "-"), False),
    "M_H": (1, 1, 0, ("-",), False),
    "D_2222": (0, 1, 1, (("+", "-", "+", "-"),), False),
    "S2_C": ("C", 0),
    "T_C": ("C", 1),
}

TUBULAR_VECTORS = {(2, 2, 2, 2), (2, 3, 6), (2, 4, 4), (3, 3, 3)}
DOMESTIC_TRIPLES = {(2, 3, 3), (2, 3, 4), (2, 3, 5)}
TAU_ORDERS = {1, 2, 3, 4, 6}

# Slope orbit counts of the seven real elliptic types: floor(k/2) + 1 with
# k = epsilon * (kappa * epsilon / dim End S).
ELLIPTIC_TYPES = ("A", "M", "K", "A_RH", "A_HH", "M_H", "D_2222")
SLOPE_COUNTS = dict(zip(ELLIPTIC_TYPES, (1, 1, 2, 2, 1, 1, 1)))
SLOPE_REPS = {1: "inf", 2: "inf, 0"}

# Centre of D[[T, sigma]] in closed form: K[[T^r]] with K = Z(D) ∩ Fix(sigma),
# and dim over the centre = e*^2 r^2.
CENTRES = {
    ("R", "id"): ("REAL", 1, 1),
    ("C", "id"): ("COMPLEX", 1, 1),
    ("C", "conj"): ("REAL", 2, 4),
    ("H", "id"): ("REAL", 1, 4),
}
FIELD_LETTER = {"REAL": "R", "COMPLEX": "C", "QUATERNION": "H"}

# One row per Witt point class: e, e*, e_tau, residue degree, D_x.
LOCAL_TABLE = {
    "inner": ("2", "1", "1", "2", "ℂ"),
    "real_boundary": ("2", "1", "1", "1", "ℝ"),
    "quaternion_boundary": ("1", "2", "1", "1", "ℍ"),
    "segmentation": ("1", "1", "2", "1", "ℂ"),
}

ZOO_ELLIPTIC = 8
ZOO_TUBULAR = 31
# The seed lists 36 domestic entries and is known to miss some families, so
# a correct fix may only add entries.
ZOO_DOMESTIC_MIN = 36

# Zoo placement classes and the local data (e_tau, residue degree) behind them.
ZOO_CLASSES = {"seg": (2, 1), "real": (1, 1), "quat": (1, 1), "inner": (1, 2), "point": (1, 1)}
CLI_CLASSES = {
    "segmentation": "seg",
    "real_boundary": "real",
    "quaternion_boundary": "quat",
    "inner": "inner",
    "point": "point",
}


def _surface(base):
    """Normalize a catalog name or topology record to the CATALOG shape."""
    if isinstance(base, str):
        return CATALOG[base]
    ovals = tuple(o if isinstance(o, str) else tuple(o["segments"]) for o in base.get("ovals", []))
    return (base["g"], base["t"], base["s"], ovals, base.get("commutative", False))


def _signs(ovals):
    return [set(o) if isinstance(o, tuple) else {o} for o in ovals]


def effective_points(spec):
    """(e_tau, residue degree, weight) of every point that enters a formula."""
    if "overrides" in spec:
        return [(p.get("e_tau", 1), p.get("f", 1), p.get("p", 1)) for p in spec["overrides"].get("points", [])]
    surf = _surface(spec["base"])
    weights = spec.get("weights", [])
    pts = []
    if surf[0] != "C":
        seg_weight = {
            (w["oval"], w["segment"]): w["p"] for w in weights if w["class"] == "segmentation"
        }
        for oi, oval in enumerate(surf[3]):
            if isinstance(oval, tuple):
                pts.extend((2, 1, seg_weight.get((oi, si), 1)) for si in range(len(oval)))
    for w in weights:
        if w["class"] != "segmentation":
            e_tau, f = ZOO_CLASSES[CLI_CLASSES[w["class"]]]
            pts.append((e_tau, f, w["p"]))
    return pts


def base_numbers(spec):
    """kappa, epsilon, skewness and centre genus of the base."""
    if "overrides" in spec:
        o = spec["overrides"]
        return o["kappa"], o["epsilon"], o["s"], o.get("centre_genus")
    surf = _surface(spec["base"])
    if surf[0] == "C":
        return 1, 1, 1, surf[1]
    g, t, _, ovals, commutative = surf
    n = sum(len(o) for o in ovals if isinstance(o, tuple))
    r = sum(1 for o in ovals if o == "+")
    if commutative:
        return 1, (2 if t == 0 else 1), 1, g
    kappa = 2 if (n or r) else 4
    epsilon = 2 if (n == 0 and r > 0) else 1
    return kappa, epsilon, 2, g


def _rational(value):
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(value["num"], value["den"])


def chi_orb(spec) -> Fraction:
    """chi'_orb from placement counts.

    A surface starts at (1 - g) - n/4 for n segmentation points; then each
    weight p costs (1 - 1/p) times 1/4 on a segmentation point, 1 on an inner
    point and 1/2 on a boundary or complex point. Abstract data use the
    general formula chi_x - 1/2 sum (1 - 1/(p e_tau)) f.
    """
    if "overrides" in spec:
        o = spec["overrides"]
        return _rational(o["chi_x"]) - Fraction(1, 2) * sum(
            (1 - Fraction(1, p.get("p", 1) * p.get("e_tau", 1))) * p.get("f", 1) for p in o.get("points", [])
        )
    surf = _surface(spec["base"])
    if surf[0] == "C":
        chi = Fraction(1 - surf[1])
    else:
        n = sum(len(o) for o in surf[3] if isinstance(o, tuple))
        chi = Fraction(1 - surf[0]) - Fraction(n, 4)
    share = {"segmentation": Fraction(1, 4), "inner": Fraction(1), "real_boundary": Fraction(1, 2),
             "quaternion_boundary": Fraction(1, 2), "point": Fraction(1, 2)}
    for w in spec.get("weights", []):
        chi -= share[w["class"]] * (1 - Fraction(1, w["p"]))
    return chi


def reference(spec) -> dict:
    """Expected invariants of a curve, plus whether its data is inconsistent.

    Data that no actual curve can have (a tubular curve off the four tubular
    vectors, a domestic genus-zero curve off the platonic list, a tau order
    outside 1, 2, 3, 4, 6) must be rejected; only abstract records can
    describe such data.
    """
    chi = chi_orb(spec)
    kappa, epsilon, s, cg = base_numbers(spec)
    pts = effective_points(spec)
    if "overrides" in spec:
        weights = [p for _, _, p in pts]
    else:
        weights = [w["p"] for w in spec.get("weights", [])]
    pbar = math.lcm(*weights) if weights else 1
    wrv = tuple(sorted(v for e, f, p in pts if p * e > 1 for v in [p * e] * f))
    if chi > 0:
        cls = "domestic"
    elif chi == 0:
        cls = "elliptic" if pbar == 1 else "tubular"
    else:
        cls = "wild"
    platonic = len(wrv) <= 2 or (len(wrv) == 3 and (wrv[:2] == (2, 2) or wrv in DOMESTIC_TRIPLES))
    tau = max((p * e for e, _, p in pts), default=1) if chi == 0 else None
    # the first check such data fails, in the order the paper states them
    if cls == "tubular" and wrv not in TUBULAR_VECTORS:
        violation = "tubular_vector"
    elif cls == "tubular" and cg not in (None, 0):
        violation = "tubular_centre_genus"
    elif cls == "domestic" and cg == 0 and not platonic:
        violation = "domestic_vector"
    elif tau is not None and tau not in TAU_ORDERS:
        violation = "tau_order"
    else:
        violation = None
    ref = {
        "chi_orb": chi,
        "class": cls,
        "pbar": pbar,
        "kappa": kappa,
        "epsilon": epsilon,
        "skewness": s,
        "wrv": wrv,
        "tau_order": tau,
        "centre_genus": cg,
        "pic_zero": "C2 x C2" if _is_bare_d2222(spec) else None,
        "violation": violation,
        "inconsistent_classify": violation not in (None, "tau_order"),
        "inconsistent_report": violation is not None,
    }
    if "overrides" not in spec:
        ref.update(_surface_cli_fields(spec))
    return ref


def _is_bare_d2222(spec):
    if "overrides" in spec or spec.get("weights"):
        return False
    surf = _surface(spec["base"])
    return surf[0] == 0 and surf[1] == 1 and not surf[4] and len(surf[3]) == 1 and (
        isinstance(surf[3][0], tuple) and len(surf[3][0]) == 4
    )


def _surface_cli_fields(spec):
    """Genus upstairs, chi, normalized chi and constants field of the base."""
    surf = _surface(spec["base"])
    if surf[0] == "C":
        chi = Fraction(1 - surf[1])
        return {"genus": surf[1], "chi": chi, "chi_normalized": chi, "constants": "C"}
    g, _, _, ovals, commutative = surf
    m = sum(len(o) for o in ovals if isinstance(o, tuple)) // 2
    r = sum(1 for o in ovals if o == "+")
    if commutative:
        genus, constants, dim, s = g, "R", 1, 1
    elif m or r:
        genus, constants, dim, s = 2 * g - 1 + m, "C", 2, 2
    else:
        genus, constants, dim, s = g, "H", 4, 2
    chi = Fraction(dim * (1 - genus))
    return {"genus": genus, "chi": chi, "chi_normalized": chi / (s * s), "constants": constants}


def _json_rational(x):
    return None if x is None else {"num": x.numerator, "den": x.denominator}


def expected_cli_payload(ref) -> dict:
    """The JSON object `invariants` prints for a consistent curve."""
    tau = ref["tau_order"]
    return {
        "genus": ref.get("genus"),
        "chi": _json_rational(ref.get("chi")),
        "chi_normalized": _json_rational(ref.get("chi_normalized")),
        "chi_orb": _json_rational(ref["chi_orb"]),
        "class": ref["class"].upper(),
        "wrv": list(ref["wrv"]),
        "tau_order": tau,
        "cy": [tau, tau] if tau is not None else None,
        "constants_field": ref.get("constants"),
        "picard": None
        if ref["centre_genus"] is None
        else {
            "base_part": "Z" if ref["centre_genus"] == 0 else "not finitely generated (Pic_0 of positive-genus X)",
            "torsion": list(ref["wrv"]),
            "finitely_generated_rank_one": ref["centre_genus"] == 0,
            "pic_zero": ref["pic_zero"],
        },
    }


# ---------------------------------------------------------------------------
# Zoo entries

def zoo_entry_chi(base: str, weights) -> Fraction:
    """chi'_orb of a zoo entry with numeric weights, from placement counts."""
    long_name = {v: k for k, v in CLI_CLASSES.items()}
    return chi_orb({"base": base, "weights": [{"class": long_name[cls], "p": w} for cls, w in weights]})


def check_zoo(entries, which: str) -> str | None:
    """Check a zoo listing given as CLI-style JSON dicts; return a problem or None.

    which is a --class choice, or "chi_zero" for the elliptic and tubular
    entries together.
    """
    by_class = {"ELLIPTIC": 0, "TUBULAR": 0, "DOMESTIC": 0}
    seen = set()
    for e in entries:
        key = (e["base"], tuple(tuple(w) for w in e["weights"]))
        if key in seen:
            return f"duplicate zoo entry {key}"
        seen.add(key)
        cls = e["class"]
        if cls not in by_class:
            return f"unexpected zoo class {cls}"
        by_class[cls] += 1
        if all(isinstance(w, int) for _, w in e["weights"]):
            chi = zoo_entry_chi(e["base"], e["weights"])
            if e["chi_orb"] != _json_rational(chi):
                return f"chi_orb of {key} is {e['chi_orb']}, expected {chi}"
            want = "DOMESTIC" if chi > 0 else ("TUBULAR" if e["weights"] else "ELLIPTIC") if chi == 0 else "WILD"
            if cls != want:
                return f"{key} listed as {cls}, expected {want}"
        elif cls != "DOMESTIC" or e["chi_orb"] is not None:
            return f"symbolic entry {key} must be an open domestic family"
    want_e = ZOO_ELLIPTIC if which in ("elliptic", "all", "chi_zero") else 0
    want_t = ZOO_TUBULAR if which in ("tubular", "all", "chi_zero") else 0
    if by_class["ELLIPTIC"] != want_e or by_class["TUBULAR"] != want_t:
        return f"zoo counts {by_class}, expected {want_e} elliptic and {want_t} tubular"
    if which in ("domestic", "all"):
        if by_class["DOMESTIC"] < ZOO_DOMESTIC_MIN:
            return f"only {by_class['DOMESTIC']} domestic entries"
    elif by_class["DOMESTIC"]:
        return "domestic entries in a chi' = 0 listing"
    return None


# ---------------------------------------------------------------------------
# Quaternion arithmetic on 4-tuples of Fractions, for the series reference

def qmul(a, b):
    return (
        a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
        a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
        a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
        a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0],
    )


def qinv(a):
    n = sum(c * c for c in a)
    return (a[0] / n, -a[1] / n, -a[2] / n, -a[3] / n)


def twisted_product(unit, f: dict, g: dict, truncation: int) -> dict:
    """(a T^i)(b T^j) = a u^-i b u^i T^(i+j), truncated; zero terms dropped."""
    u = tuple(Fraction(c) for c in unit)
    powers = [(Fraction(1), Fraction(0), Fraction(0), Fraction(0))]
    for _ in range(truncation):
        powers.append(qmul(powers[-1], u))
    out: dict[int, tuple] = {}
    for i, a in f.items():
        ui, ui_inv = powers[i], qinv(powers[i])
        for j, b in g.items():
            if i + j >= truncation:
                continue
            term = qmul(a, qmul(qmul(ui_inv, b), ui))
            acc = out.get(i + j, (Fraction(0),) * 4)
            out[i + j] = tuple(x + y for x, y in zip(acc, term))
    return {k: v for k, v in out.items() if any(v)}


# ---------------------------------------------------------------------------
# Seeded curve generator

_P = (2, 2, 2, 3, 3, 4, 5, 6)


def _random_surface(rng: random.Random) -> dict:
    """A realizable Weichold topology of genus at most 3, often with several
    segmented ovals of 2 or 4 segments."""
    while True:
        g = rng.randint(0, 3)
        s = rng.randint(0, 1)
        if s == 0:
            t = rng.randint(0, g)
        else:
            t = rng.choice([t for t in range(1, g + 2) if t % 2 == (g + 1) % 2])
        commutative = rng.random() < 0.2
        ovals = []
        for _ in range(t):
            if commutative or rng.random() < 0.4:
                ovals.append("+" if commutative else rng.choice("+-"))
            else:
                first = rng.choice("+-")
                other = "-" if first == "+" else "+"
                ovals.append({"segments": [first, other] * rng.randint(1, 2)})
        record = {"g": g, "t": t, "s": s, "ovals": ovals, "commutative": commutative}
        if commutative or _noncommutative_ok(record):
            return record


def _large_surface(rng: random.Random) -> dict:
    """Genus 4 with five ovals of four segments each: 20 segmentation points,
    more than any _random_surface has."""
    ovals = []
    for _ in range(5):
        first = rng.choice("+-")
        ovals.append({"segments": [first, "-" if first == "+" else "+"] * 2})
    return {"g": 4, "t": 5, "s": 1, "ovals": ovals, "commutative": False}


def _noncommutative_ok(record) -> bool:
    has_minus = any(o == "-" or (isinstance(o, dict) and "-" in o["segments"]) for o in record["ovals"])
    m = sum(len(o["segments"]) for o in record["ovals"] if isinstance(o, dict))
    r = sum(1 for o in record["ovals"] if o == "+")
    return has_minus and not (m == 0 and r > 0 and record["g"] == 0)


def _random_weights(rng: random.Random, base) -> list:
    surf = _surface(base)
    if surf[0] == "C":
        return [{"class": "point", "p": rng.choice(_P)} for _ in range(rng.choice((0, 1, 2, 3, 3, 4)))]
    ovals = surf[3]
    signs = _signs(ovals)
    free_segs = [(oi, si) for oi, o in enumerate(ovals) if isinstance(o, tuple) for si in range(len(o))]
    rng.shuffle(free_segs)
    classes = ["inner"]
    if any("+" in s for s in signs):
        classes.append("real_boundary")
    if any("-" in s for s in signs):
        classes.append("quaternion_boundary")
    out = []
    for _ in range(rng.choice((0, 1, 2, 2, 3, 3, 4))):
        options = classes + (["segmentation"] * 2 if free_segs else [])
        cls = rng.choice(options)
        w = {"class": cls, "p": rng.choice(_P)}
        if cls == "segmentation":
            w["oval"], w["segment"] = free_segs.pop()
        elif cls != "inner" and rng.random() < 0.5:
            sign = "+" if cls == "real_boundary" else "-"
            w["oval"] = rng.choice([oi for oi, s in enumerate(signs) if sign in s])
        out.append(w)
    return out


def _random_abstract(rng: random.Random) -> dict:
    points = [
        {"label": f"x{i}", "e_tau": rng.choice((1, 1, 2)), "f": rng.choice((1, 1, 2)), "p": rng.choice((1,) + _P)}
        for i in range(rng.randint(0, 4))
    ]
    record = {
        "chi_x": {"num": rng.randint(-2, 2), "den": rng.choice((1, 2))},
        "s": rng.choice((1, 2)),
        "kappa": rng.choice((1, 2, 4)),
        "epsilon": rng.choice((1, 2)),
        "points": points,
    }
    cg = rng.choice((None, 0, 0, 1))
    if cg is not None:
        record["centre_genus"] = cg
    return {"overrides": record}


def random_curve(rng: random.Random, kind: str) -> dict:
    if kind == "abstract":
        return _random_abstract(rng)
    if kind == "catalog":
        base = rng.choice(sorted(CATALOG))
    else:
        base = _large_surface(rng) if kind == "large" else _random_surface(rng)
    return {"base": base, "weights": _random_weights(rng, base)}


# Per block of 20 curves: 9 on catalog bases, 6 on random and 1 on a large
# generated topology, 4 abstract; every fifth curve (slots 0, 5, 10, 15: two
# catalog, one random topology, one abstract) is drawn until chi'_orb = 0,
# since uniform draws give well under 1 %. The large curves are the
# costliest, so the latency tail rests on a fixed share of the pool.
#
# Abstract records are where data no curve can have lies. The program
# raises InvariantViolation for such data, a failure; it stays in the pool.
# The first abstract chi'_orb = 0 slot always holds KNOWN_INCONSISTENT, so
# every pool has at least one.
_BLOCK = ["catalog"] * 9 + ["surface"] * 3 + ["large"] + ["surface"] * 2 + ["abstract", "surface"] + ["abstract"] * 3
ZERO_EVERY = 5
# Abstract data of a tubular curve with vector (2, 2), which the program is
# known to reject with InvariantViolation instead of a documented error.
KNOWN_INCONSISTENT = {"overrides": {
    "chi_x": {"num": 1, "den": 2}, "s": 2, "kappa": 1, "epsilon": 2, "points": [{"label": "x0", "f": 2, "p": 2}],
}}
# Shares of inconsistent data among draws of _random_abstract, measured on
# 200 000 draws: of those with chi'_orb = 0, 6.2 % are tubular off the four
# tubular vectors and 1.5 % tubular over a positive-genus centre; of the
# others, 1.9 % are domestic genus-zero off the platonic list. A pool holds
# each share of its other abstract slots of that kind, rounded, and draws
# those slots until their data has the planned violation (or none). So the
# number of ops that fail depends on the size of the pool, not on the seed.
VIOLATION_SHARES = {
    True: {"tubular_vector": 0.062, "tubular_centre_genus": 0.015},
    False: {"domestic_vector": 0.019},
}


def _violation_plan(slots) -> list:
    """The violation each abstract slot of a pool is drawn to have."""
    known = _BLOCK.index("abstract")
    plan = [None] * len(slots)
    for zero, shares in VIOLATION_SHARES.items():
        free = [i for i, (kind, z) in enumerate(slots) if kind == "abstract" and z == zero and i != known]
        total = len(free)
        for violation, share in shares.items():
            for _ in range(round(share * total)):
                plan[free.pop()] = violation
    return plan


def curve_pool(rng: random.Random, n: int, tick=lambda: None) -> list[dict]:
    """n curve descriptions with fixed shares of base kinds, of chi' = 0 and
    of each kind of inconsistent data; tick() is called between draws."""
    slots = [(_BLOCK[i % len(_BLOCK)], i % ZERO_EVERY == 0) for i in range(n)]
    plan = _violation_plan(slots)
    pool = []
    for i, (kind, want_zero) in enumerate(slots):
        tick()
        if i == _BLOCK.index("abstract"):
            pool.append(KNOWN_INCONSISTENT)
            continue
        while True:
            spec = random_curve(rng, kind)
            if (chi_orb(spec) == 0) == want_zero and (kind != "abstract" or reference(spec)["violation"] == plan[i]):
                break
            tick()
        pool.append(spec)
    rng.shuffle(pool)
    return pool


def pool_properties(pool, refs) -> dict:
    """Input properties of a pool of curves with their references."""
    return {
        "curves": len(pool),
        "chi_zero_share": sum(ref["chi_orb"] == 0 for ref in refs) / len(pool),
        "abstract_share": sum("overrides" in c for c in pool) / len(pool),
        "mean_effective_points": sum(len(effective_points(c)) for c in pool) / len(pool),
        "invariant_violation_share": {
            kind: sum(ref["violation"] == kind for ref in refs) / len(pool)
            for kind in ("tubular_vector", "tubular_centre_genus", "domestic_vector", "tau_order")
        },
    }


def mean_properties(props: list[dict]) -> dict:
    """The mean of the input properties of several pools of the same size."""
    return {
        key: mean_properties([p[key] for p in props]) if isinstance(value, dict)
        else round(sum(p[key] for p in props) / len(props), 6)
        for key, value in props[0].items()
    }
