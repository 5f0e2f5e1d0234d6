"""Error types shared across the package, and the integer check of record fields.

The CLI maps these onto exit codes: parse problems exit 1, ValidationError
exits 2, everything else derived from CurveError exits 3.
"""


class CurveError(Exception):
    """Base class for all errors raised by wittcurves."""


class KindMismatchError(CurveError, TypeError):
    """Operands live in different division algebras or different series rings,
    or a coefficient is not exact (an int or a Fraction)."""


class ValidationError(CurveError, ValueError):
    """A surface or curve description violates a structural invariant.

    Carries a stable machine-readable ``code`` so callers can distinguish
    failure modes without parsing messages.
    """

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        self.code = code


class DomainError(CurveError):
    """An operation was applied outside its mathematical domain."""


class InconsistentDataError(CurveError):
    """Supplied numerical data cannot belong to any actual curve."""


class InvariantViolation(CurveError, RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


def require_ints(optional: tuple[str, ...] = (), **fields) -> None:
    """Raise ValidationError (code "not-integer") unless every field is an
    int, or None where it is named optional; a bool is not an int here."""
    for name, value in fields.items():
        if value is None and name in optional:
            continue
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{name} must be an integer, got {value!r}", code="not-integer")
