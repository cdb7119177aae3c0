"""Immutable value records: the base of every value class in cf_lattice.

A subclass declares its fields as class annotations, in order, and a default
as a class attribute. `Record` gives each subclass one generated `__init__`
that takes the fields by position or keyword and then calls the class's
`__post_init__`, if it has one. The base shares the rest: equality only
between records of the same class, a hash of the field values, a
`Cls(field=value, ...)` repr, `AttributeError` on assignment and deletion,
and `replace`, which builds a new record and so validates it again.

Fields are set with `object.__setattr__`, not through `self.__dict__`: that
keeps CPython's inline attribute values, so reading a field costs what it
costs on a plain object. Instances keep a `__dict__` for `cached_property`.
"""
from operator import attrgetter

_MISSING = object()


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        defaults = [getattr(cls, f, _MISSING) for f in fields]
        first = next((i for i, d in enumerate(defaults) if d is not _MISSING), len(fields))
        if any(d is _MISSING for d in defaults[first:]):
            raise TypeError(f"{cls.__qualname__}: a field without a default follows one with")
        lines = [f"    _setattr(self, {f!r}, {f})" for f in fields]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace = {"_setattr": object.__setattr__}
        exec(f"def __init__(self, {', '.join(fields)}):\n" + "\n".join(lines), namespace)
        init = namespace["__init__"]
        init.__defaults__ = tuple(defaults[first:]) or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        cls._fields = fields
        cls._values = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes) -> "Record":
        """A copy with `changes` applied, built (and validated) by `__init__`."""
        return self.__class__(**{f: getattr(self, f) for f in self._fields} | changes)
