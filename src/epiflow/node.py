"""``Node``, the one base of epiflow's immutable records.

Syntax nodes (``lang``, ``logic``) and the value records (``Domain``,
``Program``, ``ModelConfig``, ``Verdict``, the policy records and the
others) are ``Node`` classes that name their fields in ``__slots__``, not
dataclasses: ``dataclass`` writes each class's methods as source text and
compiles it when the module is imported, which every ``epiflow`` process
paid for before its first check, and importing ``dataclasses`` pulls in
``inspect``.  A ``Node`` class gets the same behaviour from one base class
with no source text compiled, and each instance is smaller for having no
``__dict__``.  This module imports no other of epiflow's, so ``domain``,
which ``lang`` imports, can use it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable


class Node:
    """An immutable tuple of named fields.

    A subclass names its fields, in order, in a tuple ``__slots__`` (the
    annotations beside it give their types; a ``"__dict__"`` entry there is
    not a field, and makes room for cached properties) and gets what a
    frozen dataclass would give it:

    * an ``__init__`` taking each field by position or by keyword, the last
      ones optional when the class's ``_defaults`` maps them to defaults;
    * a check of each new instance by the class's ``_validate`` method, when
      it has one, as a dataclass's ``__post_init__``;
    * ``__match_args__`` for ``match`` patterns;
    * equality, hash and repr by type and field values (a hash is that of
      the field tuple, a repr reads ``Binary(op='+', lhs=..., rhs=...)``);
    * ``_replace(**changes)``, a copy with some fields changed.

    Assigning or deleting a field raises ``AttributeError``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        slots = cls.__dict__.get("__slots__")
        if type(slots) is not tuple:
            raise TypeError(f"{cls.__qualname__} must name its fields in a tuple __slots__")
        fields = tuple(name for name in slots if name != "__dict__")
        defaults = cls.__dict__.get("_defaults", {})
        if tuple(defaults) != fields[len(fields) - len(defaults):]:
            raise TypeError(f"{cls.__qualname__} may give defaults to its last fields only")
        setters = [cls.__dict__[name].__set__ for name in fields]
        validate = getattr(cls, "_validate", None)
        if validate is not None:
            setters[-1] = _validating(setters[-1], validate)
        if len(fields) < len(_INITS):
            init = _INITS[len(fields)](*setters)
            # the factory's parameters renamed to the fields, so that they
            # can be passed by keyword
            init.__code__ = init.__code__.replace(co_varnames=("self", *fields))
            init.__defaults__ = tuple(defaults.values()) or None
        else:
            init = _init_any(fields, setters, defaults)
        cls.__init__ = init
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__match_args__ = fields
        cls._values = staticmethod(_field_values(fields))
        cls._format = f"{cls.__qualname__}({', '.join(f'{name}={{!r}}' for name in fields)})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return self._format.format(*self._values(self))

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A copy of the node with the ``changes`` fields changed, checked
        as a new instance is."""
        return self.__class__(**{**dict(zip(self.__match_args__, self._values(self))), **changes})


def _field_values(fields: tuple[str, ...]) -> Callable[[Node], tuple]:
    """Reads the tuple of a node's field values."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        value = attrgetter(fields[0])
        return lambda node: (value(node),)
    return lambda node: ()


def _validating(set_last, validate):
    """The last field's setter, which then checks the new instance: cheaper
    than a second ``__init__`` wrapped around the first."""
    def set_and_validate(self, value):
        set_last(self, value)
        validate(self)
    return set_and_validate


# One ``__init__`` per field count, each storing its arguments through the
# fields' setters: as fast as a dataclass's, with no source text to compile.


def _init0():
    def __init__(self):
        pass
    return __init__


def _init1(set_a):
    def __init__(self, a):
        set_a(self, a)
    return __init__


def _init2(set_a, set_b):
    def __init__(self, a, b):
        set_a(self, a)
        set_b(self, b)
    return __init__


def _init3(set_a, set_b, set_c):
    def __init__(self, a, b, c):
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)
    return __init__


def _init4(set_a, set_b, set_c, set_d):
    def __init__(self, a, b, c, d):
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)
        set_d(self, d)
    return __init__


def _init5(set_a, set_b, set_c, set_d, set_e):
    def __init__(self, a, b, c, d, e):
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)
        set_d(self, d)
        set_e(self, e)
    return __init__


def _init6(set_a, set_b, set_c, set_d, set_e, set_f):
    def __init__(self, a, b, c, d, e, f):
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)
        set_d(self, d)
        set_e(self, e)
        set_f(self, f)
    return __init__


_INITS = (_init0, _init1, _init2, _init3, _init4, _init5, _init6)


def _init_any(fields: tuple[str, ...], setters: list, defaults: dict):
    """An ``__init__`` for more fields than ``_INITS`` covers, binding its
    arguments itself: slower, and only records made once per check or per
    fuzz case have that many fields."""
    named = dict(zip(fields, setters))

    def __init__(self, *args, **kwargs):
        given = dict(zip(fields, args))
        if len(given) < len(args) or not kwargs.keys() <= named.keys() - given.keys():
            raise TypeError(f"{type(self).__qualname__}() takes the fields {fields}, "
                            f"each once, not {args} and {kwargs}")
        values = {**defaults, **given, **kwargs}
        for name, set_ in named.items():
            if name not in values:
                raise TypeError(f"{type(self).__qualname__}() missing field {name!r}")
            set_(self, values[name])
    return __init__
