"""Value records: equality, hash and repr from a class's field names.

The package's small value classes (words, reports, generator pairs) name
their compared fields in `_fields` and write their own `__init__`; a
frozen one (`class Word(Record, frozen=True)`) sets its attributes with
object.__setattr__.
"""

from operator import attrgetter


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

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
