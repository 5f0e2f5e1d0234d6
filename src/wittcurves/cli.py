"""Command-line front end: curve files in, JSON and aligned tables out.

Exit codes: 1 for unreadable or malformed input files, 2 for data that
parses but fails validation, 3 for sound data outside an operation's
domain. JSON output is deterministic (sorted keys) and keeps all
rationals exact as {"num", "den"} pairs; aligned tables write them as
p/q strings.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from .algebra import COMPLEX, QUATERNION, REAL, complex_conjugation, identity
from .errors import CurveError, ValidationError
from .ktheory import INFINITY, elliptic_numerics, slope_orbits
from .local_data import WittPointClass, witt_local_datum
from .skew_series import centre_basis, dim_over_centre
from .weighted_curve import (
    COMPLEX_POINT,
    AbstractBase,
    AbstractPoint,
    CurveClass,
    WeightedCurve,
    WeightedPoint,
    classify,
    curve_profile,
    ghost_group,
)
from .witt_surface import (
    KleinTopology,
    WittSurface,
    catalog,
    segmented_oval,
    whole_oval,
)
from .zoo import entry_key, enumerate_chi_zero, enumerate_domestic, zoo_report

_ASCII_FIELD = {"REAL": "R", "COMPLEX": "C", "QUATERNION": "H"}
_ALGEBRAS = {"R": REAL, "C": COMPLEX, "H": QUATERNION}


class ParseError(Exception):
    """A curve or ghost file that cannot be read as structured data."""


def _reporting(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except ParseError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except ValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except CurveError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapper


# ---------------------------------------------------------------------------
# Input files

def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    # ValueError covers JSONDecodeError and integer literals past Python's
    # digit limit; RecursionError covers nesting too deep for the decoder
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("the top level of a data file must be a JSON object")
    return data


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{name} must be an integer")
    return value


def _parse_rational(value, name: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{name} must be an integer or a num/den object")
    if isinstance(value, int):
        return Fraction(value)
    if (
        isinstance(value, dict)
        and set(value) == {"num", "den"}
        and all(isinstance(v, int) and not isinstance(v, bool) for v in value.values())
    ):
        if value["den"] == 0:
            raise ParseError(f"{name} has denominator zero")
        return Fraction(value["num"], value["den"])
    raise ParseError(f"{name} must be an integer or a num/den object")


def _surface_from_record(record) -> WittSurface:
    if not isinstance(record, dict):
        raise ParseError("base must be a catalog name or a topology object")
    unknown = set(record) - {"g", "t", "s", "ovals", "commutative"}
    if unknown:
        raise ParseError(f"unknown topology fields: {sorted(unknown)}")
    for key in ("g", "t", "s"):
        if key not in record:
            raise ParseError(f"topology records need the field {key}")
    g, t, s = (_as_int(record[key], key) for key in ("g", "t", "s"))
    ovals_spec = record.get("ovals", [])
    if not isinstance(ovals_spec, list):
        raise ParseError("ovals must be a list")
    ovals = []
    for item in ovals_spec:
        if isinstance(item, str) and item in ("+", "-"):
            ovals.append(whole_oval(item))
        elif isinstance(item, dict) and "segments" in item:
            segs = item["segments"]
            if not isinstance(segs, list) or not all(x in ("+", "-") for x in segs):
                raise ParseError("segments must be a list of '+'/'-' signs")
            ovals.append(segmented_oval(*segs))
        elif isinstance(item, dict) and "sign" in item:
            if item["sign"] not in ("+", "-"):
                raise ParseError("oval sign must be '+' or '-'")
            ovals.append(whole_oval(item["sign"]))
        else:
            raise ParseError("each oval needs a sign or a segments list")
    commutative = record.get("commutative", False)
    if not isinstance(commutative, bool):
        raise ParseError("commutative must be a boolean")
    return WittSurface(KleinTopology(g, t, s), tuple(ovals), commutative=commutative)


_POINT_CLASSES = {cls.value: cls for cls in WittPointClass} | {COMPLEX_POINT: COMPLEX_POINT}


def _weighted_point(record) -> WeightedPoint:
    if not isinstance(record, dict):
        raise ParseError("each weight placement must be an object")
    unknown = set(record) - {"class", "p", "oval", "segment"}
    if unknown:
        raise ParseError(f"unknown weight fields: {sorted(unknown)}")
    cls = record.get("class")
    if cls not in _POINT_CLASSES:
        raise ParseError(f"unknown point class {cls!r}")
    if "p" not in record:
        raise ParseError("each weight placement needs an integer weight p")
    weight = _as_int(record["p"], "p")
    oval = record.get("oval")
    segment = record.get("segment")
    if oval is not None:
        oval = _as_int(oval, "oval")
    if segment is not None:
        segment = _as_int(segment, "segment")
    return WeightedPoint(_POINT_CLASSES[cls], weight, oval=oval, segment=segment)


def _abstract_base(record) -> AbstractBase:
    if not isinstance(record, dict):
        raise ParseError("overrides must be an object")
    allowed = {"chi_x", "s", "kappa", "epsilon", "points", "centre_genus"}
    unknown = set(record) - allowed
    if unknown:
        raise ParseError(f"unknown override fields: {sorted(unknown)}")
    missing = {"chi_x", "s", "kappa", "epsilon"} - set(record)
    if missing:
        raise ParseError(f"overrides need the fields {sorted(missing)}")
    raw_points = record.get("points", [])
    if not isinstance(raw_points, list):
        raise ParseError("override points must be a list")
    points = []
    for i, item in enumerate(raw_points):
        if not isinstance(item, dict):
            raise ParseError("each override point must be an object")
        unknown = set(item) - {"label", "e_tau", "f", "p"}
        if unknown:
            raise ParseError(f"unknown point fields: {sorted(unknown)}")
        points.append(
            AbstractPoint(
                label=str(item.get("label", f"x{i}")),
                e_tau=_as_int(item.get("e_tau", 1), "e_tau"),
                residue_degree=_as_int(item.get("f", 1), "f"),
                weight=_as_int(item.get("p", 1), "p"),
            )
        )
    centre = record.get("centre_genus")
    if centre is not None:
        centre = _as_int(centre, "centre_genus")
    return AbstractBase(
        chi_x=_parse_rational(record["chi_x"], "chi_x"),
        s=_as_int(record["s"], "s"),
        kappa=_as_int(record["kappa"], "kappa"),
        epsilon=_as_int(record["epsilon"], "epsilon"),
        points=tuple(points),
        centre_genus=centre,
    )


def load_curve(path: str) -> WeightedCurve:
    """Build a curve from a JSON file with either a surface or abstract numerics."""
    data = _load_json(path)
    unknown = set(data) - {"base", "weights", "overrides"}
    if unknown:
        raise ParseError(f"unknown top-level fields: {sorted(unknown)}")
    if ("base" in data) == ("overrides" in data):
        raise ParseError("exactly one of 'base' and 'overrides' must be present")
    if "overrides" in data:
        if data.get("weights"):
            raise ParseError("weights on abstract data go inside the override points")
        return WeightedCurve(_abstract_base(data["overrides"]), ())
    base_spec = data["base"]
    base = catalog(base_spec) if isinstance(base_spec, str) else _surface_from_record(base_spec)
    raw_weights = data.get("weights", [])
    if not isinstance(raw_weights, list):
        raise ParseError("weights must be a list")
    return WeightedCurve(base, tuple(_weighted_point(w) for w in raw_weights))


# ---------------------------------------------------------------------------
# Output shaping

def _rational_json(value) -> dict | None:
    if value is None:
        return None
    value = Fraction(value)
    return {"num": value.numerator, "den": value.denominator}


def _slope_str(slope) -> str:
    if slope == INFINITY:
        return "inf"
    slope = Fraction(slope)
    if slope.denominator == 1:
        return str(slope.numerator)
    return f"{slope.numerator}/{slope.denominator}"


def _curve_payload(c: WeightedCurve) -> dict:
    profile = curve_profile(c)
    report = profile.report()
    surface = profile.chi is not None
    picard = report["picard"]
    return {
        "genus": profile.genus,
        "chi": _rational_json(profile.chi),
        "chi_normalized": _rational_json(profile.chi_prime if surface else None),
        "chi_orb": _rational_json(report["chi_orb"]),
        "class": report["curve_class"].upper(),
        "wrv": list(report["weight_ram_vector"]),
        "tau_order": report["tau_order"],
        "cy": list(report["cy_dimension"]) if report["cy_dimension"] is not None else None,
        "constants_field": _ASCII_FIELD[profile.constants.tag] if surface else None,
        "picard": None
        if picard is None
        else {
            "base_part": picard.base_part,
            "torsion": list(picard.torsion_quotient),
            "finitely_generated_rank_one": picard.finitely_generated_rank_one,
            "pic_zero": picard.pic_zero,
        },
    }


def _zoo_json(entry) -> dict:
    return {
        "base": entry.base,
        "weights": [[cls, w] for cls, w in entry.weights],
        "class": entry.curve_class.name,
        "chi_orb": _rational_json(entry.chi_orb),
        "s": entry.skewness,
        "wrv": list(entry.wrv),
        "tau_order": entry.tau_order,
        "cy": list(entry.cy) if entry.cy is not None else None,
        "centre": entry.centre,
    }


# ---------------------------------------------------------------------------
# Commands

@click.group()
def main():
    """Invariants of real smooth projective curves, commutative or not."""


@main.command()
@click.argument("path", type=click.Path())
@_reporting
def invariants(path):
    """Full invariant report for a curve file, as JSON."""
    click.echo(json.dumps(_curve_payload(load_curve(path)), sort_keys=True))


@main.command("classify")
@click.argument("path", type=click.Path())
@_reporting
def classify_command(path):
    """Print the class of a curve: DOMESTIC, ELLIPTIC, TUBULAR or WILD."""
    click.echo(classify(load_curve(path)).name)


@main.command("zoo")
@click.option(
    "--class",
    "which",
    type=click.Choice(["elliptic", "tubular", "domestic", "all"]),
    default="all",
    show_default=True,
    help="Which part of the zoo to list.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "json"]),
    default="table",
    show_default=True,
)
@_reporting
def zoo_command(which, fmt):
    """List the curves with nonnegative orbifold characteristic."""
    entries = []
    if which in ("elliptic", "tubular", "all"):
        chi_zero = enumerate_chi_zero()
        if which == "elliptic":
            entries += [e for e in chi_zero if e.curve_class is CurveClass.ELLIPTIC]
        elif which == "tubular":
            entries += [e for e in chi_zero if e.curve_class is CurveClass.TUBULAR]
        else:
            entries += chi_zero
    if which in ("domestic", "all"):
        entries += enumerate_domestic()
    if fmt == "table":
        click.echo(zoo_report(entries))
    else:
        ordered = sorted(entries, key=entry_key)
        click.echo(json.dumps([_zoo_json(e) for e in ordered], sort_keys=True))


@main.command()
@click.argument("point_class", type=click.Choice([c.value for c in WittPointClass]))
@_reporting
def local(point_class):
    """One row of the local invariants table for a Witt point class."""
    datum = witt_local_datum(WittPointClass(point_class))
    headers = ("class", "e", "e*", "e_tau", "f_res", "D_x")
    row = (
        point_class,
        str(datum.e),
        str(datum.e_star),
        str(datum.e_tau),
        str(datum.residue_degree),
        datum.simple_end.display_name,
    )
    widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
    click.echo("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    click.echo("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())


@main.command()
@click.argument("name")
@click.option(
    "--bound", type=int, default=100, show_default=True,
    help="Height bound (50 to 600) of the box of classes; the orbits do not depend on it.",
)
@_reporting
def slopes(name, bound):
    """Count the slope orbits of the mutation group for an elliptic type."""
    orbits = slope_orbits(elliptic_numerics(name), height_bound=bound)
    noun = "orbit" if orbits.count == 1 else "orbits"
    click.echo(f"{orbits.count} {noun}")
    click.echo("representatives: " + ", ".join(_slope_str(r) for r in orbits.representatives))


@main.command("skew-centre")
@click.option("--algebra", type=click.Choice(["R", "C", "H"]), required=True)
@click.option("--twist", type=click.Choice(["id", "conj"]), required=True)
@click.option("--order", type=int, default=8, show_default=True, help="Truncation order for the search.")
@_reporting
def skew_centre(algebra, twist, order):
    """Centre of the twisted power series ring D[[T, sigma]]."""
    kind = _ALGEBRAS[algebra]
    automorphism = complex_conjugation() if twist == "conj" else identity(kind)
    description = centre_basis(kind, automorphism, order)
    letter = _ASCII_FIELD[description.constant_subfield.tag]
    variable = "T" if description.period == 1 else f"T^{description.period}"
    dimension = dim_over_centre(kind, automorphism)
    click.echo(f"centre = {letter}[[{variable}]], dim over centre = {dimension}")


@main.command()
@click.argument("path", type=click.Path())
@_reporting
def ghost(path):
    """Ghost group computed from a ramification data file."""
    data = _load_json(path)
    unknown = set(data) - {"points", "efficient"}
    if unknown:
        raise ParseError(f"unknown ghost fields: {sorted(unknown)}")
    raw_points = data.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        raise ParseError("ghost files need a nonempty 'points' list")
    pairs = []
    for item in raw_points:
        if isinstance(item, dict) and set(item) <= {"e_tau", "f"}:
            pairs.append((_as_int(item.get("e_tau", 1), "e_tau"), _as_int(item.get("f", 1), "f")))
        elif isinstance(item, list) and len(item) == 2:
            pairs.append((_as_int(item[0], "e_tau"), _as_int(item[1], "f")))
        else:
            raise ParseError("each ghost point needs e_tau and f")
    efficient = _as_int(data.get("efficient", 0), "efficient")
    group = ghost_group(pairs, efficient)
    click.echo(f"ghost group: {group.describe()}")


if __name__ == "__main__":
    main()
