"""``Record``, the base of the package's immutable value classes.

A record names its fields, in order, in its own class's ``__slots__`` and
defines its own ``__init__``, which runs the checks and then sets each
field with ``set_field``.  The base gives what a frozen dataclass gives:
equality and hash by field, the repr ``Name(field=value, ...)``, and
``AttributeError`` on assigning or deleting an attribute.  Pickling and
``copy`` go through the constructor, so its checks run again.

The fields are exactly the names in the ``__slots__`` of the record's own
class, since ``self.__slots__`` finds that tuple first.  A slot that is
not a field is declared on a private base class between ``Record`` and
the record, as ``claims._Priced`` does for the stored kernel result of a
``CapitalStructure``; equality, hash, repr and pickling skip it.

``dataclasses`` is not used because importing it loads ``inspect``, with
``ast``, ``dis`` and ``tokenize``.  Under ``-X importtime`` on a 2-vCPU
Xeon that was 9-12 ms of the 26-32 ms that ``import subdebt.cli`` took.
"""

# Sets a field from a record's ``__init__``, past ``Record.__setattr__``.
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
