"""Type checks for the JSON input documents, and the base of pgq's frozen
records.

Each document's `from_json` loader reads its required fields with `required`
and runs these checks on them, so a missing field or a value of the wrong
JSON type is an input error (a ValueError naming the field) at load time,
not a bare KeyError or a TypeError inside a computation.
"""

from __future__ import annotations

_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


class FrozenRecord:
    """A value whose fields are its class's `__slots__`: `__init__` takes
    them in slot order, equality and hashing compare them in that order
    between instances of one class, and assigning to an instance raises
    AttributeError."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return self.__class__, self._values()


class _Missing:
    """What `required` reads for an absent key; every check below rejects it."""

    __slots__ = ("key",)

    def __init__(self, key: str):
        self.key = key


def required(doc: dict, key: str):
    """The value of a required field, or `_Missing(key)` for the check that
    reads it, so that an absent field is reported under the check's name."""
    return doc.get(key, _Missing(key))


def _present(value, what: str) -> None:
    if isinstance(value, _Missing):
        raise ValueError(f"missing field {value.key!r} ({what})")


def want(value, kind: type, what: str):
    """`value` if it has the JSON type `kind` (true and false are not
    integers), else a ValueError naming `what`."""
    _present(value, what)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} must be {_KINDS[kind]}, got {value!r}")
    return value


def want_list(value, kind: type, what: str, length: int | None = None) -> list:
    """A list, of `length` entries if given, each of the JSON type `kind`."""
    want(value, list, what)
    if length is not None and len(value) != length:
        raise ValueError(f"{what} must have {length} entries, got {value!r}")
    return [want(v, kind, f"each entry of {what}") for v in value]


def want_int(text: str, what: str) -> int:
    """The integer written in `text`, such as a JSON object key, else a
    ValueError naming `what`."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None


def want_positive(value, what: str) -> int:
    """A positive integer; a decimal string is accepted too, since group
    orders exceed 64 bits."""
    _present(value, what)
    if isinstance(value, str) and value.isdecimal():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return value
