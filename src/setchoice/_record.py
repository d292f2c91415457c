"""Frozen value records.

:class:`Record` is the one base of setchoice's immutable value classes.
A subclass's fields are its public annotated names, in order, and a class
attribute of the same name that is not a descriptor is that field's
default (so a ``cached_property`` named like a field is no default).  A
record is built positionally or by keyword, then checked by the class's
``__post_init__`` when it has one; it refuses assignment and deletion,
compares and hashes by its tuple of field values within one class, and
prints as ``Name(field=value, ...)``.  All of it is written once here, so
importing a record class generates and compiles no code.

``Record._of(*values, **extra)`` is the one unchecked constructor: it
stores ``values`` in field order and ``extra`` attributes by name, as
given, with no argument parsing and no ``__post_init__``, for a caller
that has already checked them (the parser, and the ``alternatives`` and
``individuals`` an environment and a society build from their columns).

A subclass may define ``__init__``, ``__eq__`` or ``__hash__`` of its own;
such an ``__init__`` fills ``self.__dict__`` directly.  A
``functools.cached_property`` writes to the instance dict as well, so it
works on a record.  Equality, hash and repr read each field as an
attribute, so a field may be such a property, built on first read when an
instance's dict lacks it.
"""

from __future__ import annotations


class Record:
    """Base of a frozen record; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _post_init = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__dict__.get("__annotations__", ())
                            if not name.startswith("_"))
        cls._post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._arguments(args, kwargs)
        # for two or three fields, faster than ``update(zip(...))``
        items = self.__dict__
        for field, value in zip(fields, args):
            items[field] = value
        if self._post_init:
            self.__post_init__()

    @classmethod
    def _of(cls, *values, **extra):
        """A record of ``values`` in field order and ``extra`` attributes,
        stored as given: not parsed, not checked."""
        record = cls.__new__(cls)
        record.__dict__.update(zip(cls._fields, values), **extra)
        return record

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in field order, of a call with keywords or
        defaults; a missing, unknown or repeated argument raises
        ``TypeError``."""
        name, fields = cls.__qualname__, cls._fields
        defaults = {field: value for field, value in cls.__dict__.items()
                    if field in fields and not hasattr(type(value), "__get__")}
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but "
                            f"{len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(
                    f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [field for field in fields
                   if field not in values and field not in defaults]
        if missing:
            raise TypeError(f"{name}() missing required argument(s): "
                            + ", ".join(map(repr, missing)))
        return [values[field] if field in values else defaults[field]
                for field in fields]

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{field}={getattr(self, field)!r}"
                            for field in self._fields)
                + ")")
