"""Immutable value records: the reports, witnesses and invariants the
library returns.

A record class's fields are the parameters of its `__init__`, which ends
with `_set(self, "_key", (...))`: the field values, in parameter order, as
one tuple (plain assignment raises AttributeError).  Each field reads as an
attribute, equality and hashing go by the value tuple, and the repr is
`Name(field=value, ...)`.
"""

_set = object.__setattr__


class Record:
    __slots__ = ("_key",)

    def __init_subclass__(cls):
        super().__init_subclass__()
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(lambda rec, i=i: rec._key[i]))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._key

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
