"""Run the command line in process and capture what it prints.

``invoke(argv)`` calls ``wittcurves.cli.main(argv)`` with stdout and
stderr sent to one buffer, so ``output`` holds both, interleaved in the
order they were written. ``exception`` is a ``SystemExit`` on a nonzero
exit; an exception that escapes ``main`` is kept there instead, with exit
code 1, and is not raised.
"""

import contextlib
import io
from typing import NamedTuple

from wittcurves import cli


class Result(NamedTuple):
    exit_code: int
    output: str
    exception: BaseException | None


def invoke(argv: list[str]) -> Result:
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            code = cli.main(argv)
    except Exception as exc:
        return Result(1, buffer.getvalue(), exc)
    return Result(code, buffer.getvalue(), SystemExit(code) if code else None)
