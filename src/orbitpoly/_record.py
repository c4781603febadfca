"""Plain value classes with what a dataclass would give them, without
importing ``dataclasses`` or generating methods at import time.  A record
names its fields in ``_fields`` and sets them in a straight-line
``__init__``.  ``Record`` gives ``==`` (same class, equal fields), a
``Name(field=value, ...)`` repr, ``as_dict`` and, as a mutable dataclass,
no hash (defining ``__eq__`` drops it).  ``Frozen`` holds the fields in
``__slots__``, set through ``set_field``, hashes them and refuses
assignment; copy and pickle rebuild it through ``__init__``.
"""

set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # For copy and pickle, which would otherwise set the slots one by one.
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__
