"""The command line as argparse reads it: the reference for the CLI's own parser.

``parser()`` builds the argparse front end the CLI once had, with the same
commands, options, choices and defaults. ``parse(argv)`` reads argv with
it and returns the run function and its keyword arguments, or the exit
code argparse gives after help (0) or a usage error (2), together with
what argparse printed to stdout and to stderr. Help and usage lines wrap
at the width argparse reads from COLUMNS.
"""

import argparse
import contextlib
import io

from wittcurves.cli import classify_command, ghost, invariants, local, skew_centre, slopes, zoo_command
from wittcurves.local_data import WittPointClass


def parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittcurves", description="Invariants of real smooth projective curves, commutative or not."
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, run):
        """The add_argument of a new command that runs run; its docstring is the help."""
        sub = commands.add_parser(
            name, help=run.__doc__, description=run.__doc__, allow_abbrev=False,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        sub.set_defaults(run=run)
        return sub.add_argument

    command("invariants", invariants)("path")
    command("classify", classify_command)("path")
    option = command("zoo", zoo_command)
    option(
        "--class", dest="which", choices=("elliptic", "tubular", "domestic", "all"), default="all",
        help="Which part of the zoo to list.",
    )
    option("--format", dest="fmt", choices=("table", "json"), default="table", help="Output format.")
    command("local", local)("point_class", choices=[c.value for c in WittPointClass])
    command("slopes", slopes)("name")
    option = command("skew-centre", skew_centre)
    # a required option has no default to show in the help
    option("--algebra", choices=("R", "C", "H"), required=True, default=argparse.SUPPRESS, help="The division algebra D.")
    option(
        "--twist", choices=("id", "conj"), required=True, default=argparse.SUPPRESS,
        help="The twist sigma: the identity or complex conjugation.",
    )
    command("ghost", ghost)("path")
    return parser


def parse(argv: list[str]):
    """(run, kwargs) for argv, or the exit code after help or a usage error,
    then what was printed to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    return (args.pop("run"), args), out.getvalue(), err.getvalue()
