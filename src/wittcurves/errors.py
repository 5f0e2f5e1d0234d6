"""Error types shared across the package, the integer and sequence checks
of record fields and the bases of the records: the NamedTuples that check
themselves and the few immutable records that cannot be tuples.

The CLI maps these onto exit codes: parse problems exit 1, ValidationError
exits 2, everything else derived from CurveError exits 3.
"""

from operator import attrgetter


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


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a field of an immutable record."""


def require_ints(optional: tuple[str, ...] = (), **fields) -> None:
    """Raise ValidationError (code "not-integer") unless every field is an
    int, or None where it is named optional; a bool is not an int here."""
    for name, value in fields.items():
        if value is None and name in optional:
            continue
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{name} must be an integer, got {value!r}", code="not-integer")


def require_sequence(value, name: str, code: str) -> tuple:
    """value as a tuple; ValidationError with the code if it is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise ValidationError(f"{name} must be a sequence, got {type(value).__name__}", code=code) from None


class CheckedRecord:
    """Base of a NamedTuple record that checks itself on construction.

    A record is declared as ``class R(CheckedRecord, _RFields)`` with
    ``__slots__ = ()`` and a ``__post_init__`` that raises on bad fields;
    it may override ``__new__`` to normalise fields before the tuple is
    built. The constructor, ``_make`` (so ``_replace``), copying and
    unpickling all go through ``__new__``, so none of them skips the check.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    def __post_init__(self):
        """Raise on bad fields; a record that only normalises checks nothing."""

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return self.__class__, tuple(self)


class FrozenRecord:
    """Base of an immutable record that cannot be a tuple.

    A subclass names its constructor arguments in ``_fields`` and their
    defaults in ``_field_defaults``, as a NamedTuple does. Its ``__init__``
    stores them past the refusing ``__setattr__``: into slots with
    ``object.__setattr__``, or straight into the instance ``__dict__``.
    Equality, hash, repr, ``_replace`` and pickling read ``_fields``;
    anything else the instance holds is derived from them, and ``_make``,
    ``_replace``, copies and unpickling derive it again through the
    constructor, so a record that checks itself there checks them too.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _field_defaults: dict = {}

    def __init_subclass__(cls):
        # the tuple of field values, read by one C-level getter
        cls._values = property(attrgetter(*cls._fields))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        return self.__class__(**dict(zip(self._fields, self._values), **changes))

    def __reduce__(self):
        return self.__class__, self._values
