"""Immutable value records, the package's stand-in for frozen dataclasses.

A record class derives from :class:`Value` and names its fields in
``_fields``, usually as ``__slots__ = _fields = (...)``; every field must
be a slot.  The base then provides

  * a positional constructor taking one value per field, in order;
  * equality over the field tuple between instances of exactly the same
    class (any other comparison returns ``NotImplemented``), and a hash of
    the field tuple;
  * the repr ``Name(field=value, ...)``;
  * immutability: assigning or deleting an attribute raises
    ``AttributeError``;
  * ``copy`` and ``pickle`` support, by calling the class on the field
    values again;
  * ``to_json``: a dict of the fields by name, in ``_fields`` order, with a
    ``Fraction`` as its ``"p/q"`` string, a tuple as a list and a nested
    record as its own ``to_json()``.

A class that validates or normalises its input overrides ``__init__``,
calls ``super().__init__`` and stores anything derived with
``object.__setattr__``.  A slot left out of ``_fields`` takes no part in
equality, hashing, repr, reconstruction or JSON; a class whose JSON
differs from its fields overrides ``to_json``.

The ``dataclasses`` module would do the same, but importing it loads
``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``), and each frozen
dataclass compiles its generated methods when its module is imported: most
of the start-up time of every ``ceresa-kit`` call.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **options):
        super().__init_subclass__(**options)
        get = attrgetter(*cls._fields)
        cls._astuple = staticmethod(
            get if len(cls._fields) > 1 else lambda record: (get(record),)
        )
        # The slots' own setters skip __setattr__, which refuses every write.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(
                f"{type(self).__name__}() takes {len(setters)} values "
                f"({', '.join(self._fields)}), got {len(values)}"
            )
        for set_field, value in zip(setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == self._astuple(other)

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        body = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._astuple(self))
        )
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple(self)

    def to_json(self) -> dict:
        return {name: _json(value) for name, value in zip(self._fields, self._astuple(self))}


def _json(value):
    if isinstance(value, Value):
        return value.to_json()
    if isinstance(value, tuple):
        return [_json(item) for item in value]
    return str(value) if isinstance(value, Fraction) else value
