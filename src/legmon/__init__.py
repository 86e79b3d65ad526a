"""Braid-move calculus, framed moduli points, and Legendrian-loop
monodromy over exact fields, with a separation harness for the
induced free-product action.

`Frozen` is the base of the package's value classes.  Each subclass
names its fields in `_fields` and sets them in its own `__init__` with
`object.__setattr__`, after its checks."""

from operator import attrgetter


class Frozen:
    """A value: `==` and `hash` compare the fields `_fields` names, the
    repr shows them as keywords, and assigning or deleting an attribute
    raises `AttributeError`."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # What `==` and `hash` compare: the value of the one field, or the
        # tuple of the fields' values, read by a closure-held getter.
        key = attrgetter(*cls._fields) if cls._fields else (lambda value: ())

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
