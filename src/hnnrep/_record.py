"""Value records: constructor, equality, hash and repr from `_fields`.

The package's small value classes (words, reports, generator pairs) name
their fields once, in `_fields`, and a plain class attribute named after a
field is its default.  A class with checks runs them and assigns through
Record.__init__; a frozen one (`class Word(Record, frozen=True)`) that
keeps its own constructor assigns with object.__setattr__.
"""

from operator import attrgetter

_MISSING = object()


def _assign(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


class Record:
    """A record is equal to another of the same class with equal fields, and
    its repr is Name(field=value, ...).  A frozen record is hashed as the
    tuple of its fields and raises AttributeError on assignment and on
    deletion; any other record is mutable and unhashable."""

    __hash__ = None

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        key = attrgetter(*cls._fields)  # the bare value for one field

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__ = __eq__
        if frozen:
            if len(cls._fields) == 1:
                cls.__hash__ = lambda self: hash((key(self),))
            else:
                cls.__hash__ = lambda self: hash(key(self))
            cls.__setattr__ = _assign
            cls.__delattr__ = _delete

    def __init__(self, *values, **named):
        """Bind _fields in order to values, then to named, then to the class
        defaults; a missing, unknown, repeated or surplus argument raises
        TypeError."""
        fields = self._fields
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)
        if named or len(values) != len(fields):  # not all given positionally
            cls, rest = self.__class__, fields[len(values):]
            if len(values) > len(fields) or not named.keys() <= set(rest):
                raise TypeError(f"{cls.__qualname__}() takes the fields {fields}, not "
                                f"{len(values)} values and the names {sorted(named)}")
            for name in rest:
                value = named.get(name, getattr(cls, name, _MISSING))
                if value is _MISSING:
                    raise TypeError(f"{cls.__qualname__}() is missing the field {name!r}")
                object.__setattr__(self, name, value)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
