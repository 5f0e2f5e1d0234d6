"""Command-line front end: curve files in, JSON and aligned tables out.

Exit codes: 1 for unreadable or malformed input files, 2 for a usage
error or for data that parses but fails validation, 3 for sound data
outside an operation's domain. JSON output is deterministic (sorted keys)
and keeps all rationals exact as {"num", "den"} pairs; aligned tables
write them as p/q strings. One table, _COMMANDS, names every command with
its arguments. Plain argv is read off it directly; anything else, help
and every usage error among it, goes to argparse, which is built from the
same table and imported only then. json is imported only by the code that
reads or writes JSON, so that a command loads only what it uses of the
standard library.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .algebra import COMPLEX, QUATERNION, REAL, complex_conjugation, identity
from .errors import CurveError, ValidationError
from .ktheory import INFINITY, elliptic_numerics, slope_orbits
from .local_data import WittPointClass, witt_local_datum
from .skew_series import centre_basis, dim_over_centre
from .weighted_curve import (
    COMPLEX_POINT,
    MAX_VECTOR_LENGTH,
    AbstractBase,
    AbstractPoint,
    WeightedCurve,
    WeightedPoint,
    _refuse_long_vector,
    _refuse_too_many_points,
    _refuse_too_many_weights,
    classify,
    ghost_group,
)
from .witt_surface import (
    KleinTopology,
    Oval,
    WittSurface,
    catalog,
    segmented_oval,
    whole_oval,
)
from .zoo import entry_key, enumerate_chi_zero, enumerate_domestic, zoo_report

# the letter of each division algebra on the command line and in the output
_ALGEBRAS = {"R": REAL, "C": COMPLEX, "H": QUATERNION}
_LETTERS = {kind.tag: letter for letter, kind in _ALGEBRAS.items()}


class ParseError(Exception):
    """A curve or ghost file that cannot be read as structured data."""


# ---------------------------------------------------------------------------
# Input files

# The most bytes a curve or ghost file may have: room for MAX_VECTOR_LENGTH
# weight records, each with an oval and a segment, of up to 256 bytes as
# printed with an indent. A larger file is refused before it is parsed,
# having read one byte more than the ceiling.
MAX_FILE_BYTES = 256 * MAX_VECTOR_LENGTH


def _load_json(path: str):
    try:
        with open(path, "rb") as file:
            data = file.read(MAX_FILE_BYTES + 1)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if len(data) > MAX_FILE_BYTES:
        raise ValidationError(f"{path} has more than {MAX_FILE_BYTES} bytes", code="too-large")
    try:
        # newlines read as a text file reads them
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    import json

    try:
        return json.loads(text)
    # ValueError covers JSONDecodeError and integer literals past Python's
    # digit limit; RecursionError covers nesting too deep for the decoder
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _fields(record, what: str, required=(), optional=()) -> dict:
    """The record, once it is a JSON object with every required field and
    no field outside required and optional; what names it in errors."""
    if not isinstance(record, dict):
        raise ParseError(f"{what} must be a JSON object")
    unknown = sorted(set(record) - set(required) - set(optional))
    if unknown:
        raise ParseError(f"unknown fields in {what}: {unknown}")
    missing = [key for key in required if key not in record]
    if missing:
        raise ParseError(f"missing fields in {what}: {missing}")
    return record


def _int(record: dict, key: str, default=...):
    """record[key] as an int (a bool is not one), or the default when the
    field is absent; ... marks a required field, and only a field whose
    default is None may be null."""
    value = record.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{key} must be an integer")
    return value


def _list(record: dict, key: str) -> list:
    value = record.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{key} must be a list")
    return value


def _rational(record: dict, key: str) -> Fraction:
    """An integer field, or a {"num", "den"} object with a nonzero den."""
    if not isinstance(record[key], dict):
        return Fraction(_int(record, key))
    pair = _fields(record[key], key, ("num", "den"))
    num, den = _int(pair, "num"), _int(pair, "den")
    if den == 0:
        raise ParseError(f"{key} has denominator zero")
    return Fraction(num, den)


def _sign(value) -> str:
    if value not in ("+", "-"):
        raise ParseError("an oval sign must be '+' or '-'")
    return value


def _oval(record) -> Oval:
    """A whole oval, spelt "+" or {"sign": "+"}, or {"segments": [...]}."""
    if isinstance(record, str):
        record = {"sign": record}
    record = _fields(record, "an oval", (), ("sign", "segments"))
    if ("segments" in record) == ("sign" in record):
        raise ParseError("an oval needs a sign or a segments list, not both")
    if "segments" in record:
        return segmented_oval(*map(_sign, _list(record, "segments")))
    return whole_oval(_sign(record["sign"]))


def _surface(record) -> WittSurface:
    record = _fields(record, "a topology", ("g", "t", "s"), ("ovals", "commutative"))
    topology = KleinTopology(_int(record, "g"), _int(record, "t"), _int(record, "s"))
    records = _list(record, "ovals")
    # each segmentation point adds a vector entry (e_tau = 2): count them before any oval is read
    segments = [r.get("segments") for r in records if isinstance(r, dict)]
    _refuse_long_vector(sum(len(s) for s in segments if isinstance(s, list)))
    ovals = tuple(map(_oval, records))
    commutative = record.get("commutative", False)
    if not isinstance(commutative, bool):
        raise ParseError("commutative must be a boolean")
    return WittSurface(topology, ovals, commutative=commutative)


_POINT_CLASSES = {cls.value: cls for cls in WittPointClass} | {COMPLEX_POINT: COMPLEX_POINT}


def _weighted_point(record) -> WeightedPoint:
    record = _fields(record, "a weight placement", ("class", "p"), ("oval", "segment"))
    location = record["class"]
    if not isinstance(location, str) or location not in _POINT_CLASSES:
        raise ParseError(f"unknown point class {location!r}")
    oval, segment = _int(record, "oval", None), _int(record, "segment", None)
    return WeightedPoint(_POINT_CLASSES[location], _int(record, "p"), oval=oval, segment=segment)


def _abstract_point(index: int, record) -> AbstractPoint:
    record = _fields(record, "an override point", (), ("label", "e_tau", "f", "p"))
    label = record.get("label", f"x{index}")
    if not isinstance(label, str):
        raise ParseError("label must be a string")
    return AbstractPoint(
        label, _int(record, "e_tau", 1), _int(record, "f", 1), _int(record, "p", 1)
    )


def _abstract_base(record) -> AbstractBase:
    required, optional = ("chi_x", "s", "kappa", "epsilon"), ("points", "centre_genus")
    record = _fields(record, "the overrides", required, optional)
    points = _list(record, "points")
    _refuse_too_many_points(len(points))
    return AbstractBase(
        chi_x=_rational(record, "chi_x"),
        s=_int(record, "s"),
        kappa=_int(record, "kappa"),
        epsilon=_int(record, "epsilon"),
        points=tuple(_abstract_point(i, p) for i, p in enumerate(points)),
        centre_genus=_int(record, "centre_genus", None),
    )


def load_curve(path: str) -> WeightedCurve:
    """Build a curve from a JSON file with either a surface or abstract numerics."""
    data = _fields(_load_json(path), "a curve file", (), ("base", "weights", "overrides"))
    if ("base" in data) == ("overrides" in data):
        raise ParseError("exactly one of 'base' and 'overrides' must be present")
    if "overrides" in data:
        if data.get("weights"):
            raise ParseError("weights on abstract data go inside the override points")
        return WeightedCurve(_abstract_base(data["overrides"]), ())
    base = data["base"]
    base = catalog(base) if isinstance(base, str) else _surface(base)
    weights = _list(data, "weights")
    _refuse_too_many_weights(len(weights))
    return WeightedCurve(base, tuple(map(_weighted_point, weights)))


def _ghost_point(record) -> tuple[int, int]:
    """(e_tau, f) of a ghost point, spelt {"e_tau": e, "f": f} or [e, f]."""
    if isinstance(record, list) and len(record) == 2:
        record = dict(zip(("e_tau", "f"), record))
    record = _fields(record, "a ghost point", (), ("e_tau", "f"))
    return _int(record, "e_tau", 1), _int(record, "f", 1)


# ---------------------------------------------------------------------------
# Output shaping

def _rational_json(value) -> dict | None:
    if value is None:
        return None
    return {"num": value.numerator, "den": value.denominator}


def _slope_str(slope) -> str:
    return "inf" if slope is INFINITY else str(slope)


def _curve_payload(c: WeightedCurve) -> dict:
    profile = c.profile
    report, n = profile.report(), profile.numerics
    surface = n.chi is not None
    picard = report["picard"]
    return {
        "genus": n.genus,
        "chi": _rational_json(n.chi),
        "chi_normalized": _rational_json(n.chi_prime if surface else None),
        "chi_orb": _rational_json(report["chi_orb"]),
        "class": report["curve_class"].upper(),
        "wrv": list(report["weight_ram_vector"]),
        "tau_order": report["tau_order"],
        "cy": list(report["cy_dimension"]) if report["cy_dimension"] is not None else None,
        "constants_field": _LETTERS[n.constants.tag] if surface else None,
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

def invariants(path):
    """Full invariant report for a curve file, as JSON."""
    import json

    print(json.dumps(_curve_payload(load_curve(path)), sort_keys=True))


def classify_command(path):
    """Print the class of a curve: DOMESTIC, ELLIPTIC, TUBULAR or WILD."""
    print(classify(load_curve(path)).name)


def zoo_command(which, fmt):
    """List the curves with nonnegative orbifold characteristic."""
    chi_zero = [] if which == "domestic" else enumerate_chi_zero()
    domestic = enumerate_domestic() if which in ("domestic", "all") else []
    entries = [e for e in chi_zero + domestic if which in ("all", e.curve_class.value)]
    if fmt == "table":
        print(zoo_report(entries))
    else:
        import json

        ordered = sorted(entries, key=entry_key)
        print(json.dumps([_zoo_json(e) for e in ordered], sort_keys=True))


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
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())


def slopes(name):
    """Count the slope orbits of the mutation group for an elliptic type."""
    orbits = slope_orbits(elliptic_numerics(name))
    noun = "orbit" if orbits.count == 1 else "orbits"
    print(f"{orbits.count} {noun}")
    print("representatives: " + ", ".join(_slope_str(r) for r in orbits.representatives))


def skew_centre(algebra, twist):
    """Centre of the twisted power series ring D[[T, sigma]]."""
    kind = _ALGEBRAS[algebra]
    automorphism = complex_conjugation() if twist == "conj" else identity(kind)
    description = centre_basis(kind, automorphism, truncation=8)
    letter = _LETTERS[description.constant_subfield.tag]
    variable = "T" if description.period == 1 else f"T^{description.period}"
    dimension = dim_over_centre(kind, automorphism)
    print(f"centre = {letter}[[{variable}]], dim over centre = {dimension}")


def ghost(path):
    """Ghost group computed from a ramification data file."""
    data = _fields(_load_json(path), "a ghost file", ("points",), ("efficient",))
    points = _list(data, "points")
    if not points:
        raise ParseError("a ghost file needs at least one point")
    _refuse_too_many_points(len(points))
    pairs = [_ghost_point(item) for item in points]
    efficient = _int(data, "efficient", 0)
    group = ghost_group(pairs, efficient)
    print(f"ghost group: {group.describe()}")


# ---------------------------------------------------------------------------
# Reading argv

# Each command's run function, its positionals as (dest, choices or None)
# and its options as (flag, dest, choices or None, default, help),
# where a default of ... marks a required option. The run function's
# docstring is the command's help.
_COMMANDS = {
    "invariants": (invariants, (("path", None),), ()),
    "classify": (classify_command, (("path", None),), ()),
    "zoo": (zoo_command, (), (
        ("--class", "which", ("elliptic", "tubular", "domestic", "all"), "all", "Which part of the zoo to list."),
        ("--format", "fmt", ("table", "json"), "table", "Output format."),
    )),
    "local": (local, (("point_class", tuple(c.value for c in WittPointClass)),), ()),
    "slopes": (slopes, (("name", None),), ()),
    "skew-centre": (skew_centre, (), (
        ("--algebra", "algebra", tuple(_ALGEBRAS), ..., "The division algebra D."),
        ("--twist", "twist", ("id", "conj"), ..., "The twist sigma: the identity or complex conjugation."),
    )),
    "ghost": (ghost, (("path", None),), ()),
}


def _parse(argv: list[str]):
    """The (run, kwargs) that argv asks for, or the exit code after help (0)
    or a usage error (2). Plain argv is read here off the table: a command,
    then its positionals and its options spelt in full, each option with a
    value, no word after the command starting with "-", every value among
    its choices, and nothing missing or left over. Any other argv goes whole
    to argparse."""
    if argv and argv[0] in _COMMANDS:
        run, positionals, options = _COMMANDS[argv[0]]
        flags = {option[0]: option for option in options}
        kwargs = {dest: default for _, dest, _, default, _ in options}
        todo = list(positionals)
        words = iter(argv[1:])
        for word in words:
            if word in flags:
                _, dest, choices, _, _ = flags[word]
                word = next(words, "-")
            elif todo:
                dest, choices = todo.pop(0)
            else:
                break
            if word[:1] == "-" or choices and word not in choices:
                break
            kwargs[dest] = word
        else:
            if not todo and ... not in kwargs.values():
                return run, kwargs
    return _argparse(argv)


def _argparse(argv: list[str]):
    """_parse for any argv, read by argparse, which is built from the table
    and imported only here."""
    import argparse

    def width(formatter):
        # an unbounded width, so that no line of help or usage wraps
        return lambda prog: formatter(prog, width=sys.maxsize)

    parser = argparse.ArgumentParser(
        prog="wittcurves", description="Invariants of real smooth projective curves, commutative or not.",
        formatter_class=width(argparse.HelpFormatter),
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for name, (run, positionals, options) in _COMMANDS.items():
        command = commands.add_parser(
            name, help=run.__doc__, description=run.__doc__, allow_abbrev=False,
            formatter_class=width(argparse.ArgumentDefaultsHelpFormatter),
        )
        command.set_defaults(run=run)
        for dest, choices in positionals:
            command.add_argument(dest, choices=choices)
        for flag, dest, choices, default, text in options:
            required = default is ...
            command.add_argument(
                flag, dest=dest, choices=choices, required=required,
                default=argparse.SUPPRESS if required else default, help=text,
            )
    try:
        kwargs = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code
    return kwargs.pop("run"), kwargs


def main(argv: list[str] | None = None) -> int:
    """Run one command, argv defaulting to the process's arguments, and
    return its exit code."""
    parsed = _parse(sys.argv[1:] if argv is None else argv)
    if isinstance(parsed, int):  # the exit code after help or a usage error
        return parsed
    run, kwargs = parsed
    # CurveError is read when an error is raised, so a test may narrow it
    try:
        run(**kwargs)
    except ParseError as exc:
        return _report(exc, 1)
    except ValidationError as exc:
        return _report(exc, 2)
    except CurveError as exc:
        return _report(exc, 3)
    return 0


def _report(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _click_main(args, standalone_mode=False):
    """main(args) in the spelling of click's Command.main(args,
    standalone_mode=False), which the benchmark's trace shim
    bench/trace_cli.py calls: None on exit 0, SystemExit(code) otherwise.
    It goes once that shim calls main(argv) itself (ROADMAP item 1)."""
    code = main(args)
    if code:
        raise SystemExit(code)


main.main = _click_main


if __name__ == "__main__":
    sys.exit(main())
