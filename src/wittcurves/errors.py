"""Error types shared across the package, the checks of record fields
(require_ints, require_positive and require_sequence), and the two bases
of the records: Record, of the plain records that only hold their fields,
and FrozenRecord, of the records that do more.

A plain record is a Record: a tuple of its fields, with empty __slots__,
built by a __new__ whose signature is the field list and that only packs
it. A record that checks, normalises or derives a field is a FrozenRecord:
a class with an explicit constructor, compared, hashed, printed, copied
and pickled by its fields. Each base reads the fields and their defaults
off its record's constructor.

The CLI maps these onto exit codes: parse problems exit 1, ValidationError
exits 2, everything else derived from CurveError exits 3.
"""

# the getter of a namedtuple field: the C type, or a property where it is missing
from collections import _tuplegetter
from operator import attrgetter

# the tuple constructor that the __new__ of every Record calls
_tuple_new = tuple.__new__


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


def _trailing_defaults(fields: tuple[str, ...], constructor) -> dict:
    """The defaults of the trailing fields, as the constructor states them."""
    defaults = constructor.__defaults__ or ()
    return dict(zip(fields[len(fields) - len(defaults):], defaults))


def require_ints(optional: tuple[str, ...] = (), **fields) -> None:
    """Raise ValidationError (code "not-integer") unless every field is an
    int, or None where it is named optional; a bool is not an int here."""
    for name, value in fields.items():
        if value is None and name in optional:
            continue
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{name} must be an integer, got {value!r}", code="not-integer")


def require_positive(**fields) -> None:
    """require_ints, then ValidationError (code "nonpositive") unless every
    field is at least 1; a field named epsilon is held to 1 or 2 (code
    "epsilon")."""
    require_ints(**fields)
    for name, value in fields.items():
        if value < 1:
            raise ValidationError(f"{name} must be a positive integer", code="nonpositive")
    if fields.get("epsilon", 1) > 2:
        raise ValidationError(f"epsilon must be 1 or 2, got {fields['epsilon']}", code="epsilon")


def require_sequence(value, name: str, code: str) -> tuple:
    """value as a tuple; ValidationError with the code if it is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise ValidationError(f"{name} must be a sequence, got {type(value).__name__}", code=code) from None


class FrozenRecord:
    """Base of an immutable record that checks, normalises or derives a field.

    A subclass declares ``__slots__ = _fields = (...)``, with a slot more
    for anything it derives, and an ``__init__`` whose signature is the
    field list; the defaults are stated there alone, and ``_field_defaults``
    is read from it, as a namedtuple holds them. ``__init__`` stores the
    fields with one call of ``_set``, or one ``object.__setattr__`` each
    where the record is built once per curve, then runs the record's checks.
    A record may instead keep its fields in normalised slots of its own,
    with ``_fields`` naming what reads them back: an AlgebraElement keeps
    its coefficients as integer numerators over one denominator, and its
    ``coeffs`` property reads them back as Fractions.
    Equality, hash and repr read ``_fields`` where the record does not
    state its own; ``_make``, ``_replace``,
    ``__replace__`` (``copy.replace``), copies and unpickling build it again
    through its constructor: none skips a check or keeps a derived value.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _field_defaults: dict

    def __init_subclass__(cls):
        # the tuple of field values, read by one C-level getter
        cls._values = property(attrgetter(*cls._fields))
        cls._field_defaults = _trailing_defaults(cls._fields, cls.__init__)

    def _set(self, *values):
        """Store the field values, in the order of _fields, past the
        refusing __setattr__."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

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

    __replace__ = _replace

    def __reduce__(self):
        return self.__class__, self._values


class Record(tuple):
    """Base of a plain record: a tuple of its fields, neither checked nor
    normalised.

    A subclass declares ``__slots__ = ()`` and a ``__new__`` whose signature
    is the field list, defaults included, and whose body is ``return
    _tuple_new(cls, (<the fields>))``. ``_fields``, ``_field_defaults``,
    ``__match_args__`` and the C getter of a namedtuple field for each field
    are read from it; ``_make``, ``_replace``, ``_asdict``, the repr, copies
    and pickling are a namedtuple's, and no code is compiled for the class.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _field_defaults: dict

    def __init_subclass__(cls):
        code = cls.__new__.__code__
        cls._fields = cls.__match_args__ = code.co_varnames[1:code.co_argcount]
        cls._field_defaults = _trailing_defaults(cls._fields, cls.__new__)
        for index, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))

    @classmethod
    def _make(cls, iterable):
        result = _tuple_new(cls, iterable)
        if len(result) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(result)}")
        return result

    def _replace(self, /, **changes):
        result = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return result

    __replace__ = _replace

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __getnewargs__(self):
        return tuple(self)

    __repr__ = FrozenRecord.__repr__
