"""Finite value domains shared by programs, models and formulas."""

from __future__ import annotations

from functools import cached_property

from .node import Node


class DomainError(ValueError):
    """A value, literal or operator fell outside the configured domain."""


class Label(Node):
    """Symbolic output event distinct from every domain value.

    Covers literal outputs such as ``out "ok"`` and the optional end-of-run
    marker, keeping the event alphabet finite without reserving domain
    values for them.
    """

    __slots__ = ("text",)
    text: str

    def __str__(self) -> str:
        return f'"{self.text}"'


TERMINATION_MARK = Label("halt")


class Domain(Node):
    """The booleans, or the integers modulo ``size`` with wrap-around.

    Integer values are kept canonical in ``[0, size)``, or in
    ``[-size//2, size - size//2)`` when ``signed`` is set; comparisons act
    on the canonical representatives.  Booleans enumerate ``tt`` before
    ``ff``, and initial-store enumeration follows the value order given by
    :meth:`values`.
    """

    __slots__ = ("kind", "size", "signed", "hash_table", "__dict__")
    kind: str  # "bool" | "int"
    size: int
    signed: bool
    hash_table: tuple | None  # output value per input, in value order
    _defaults = {"signed": False, "hash_table": None}

    def _validate(self) -> None:
        if self.kind not in ("bool", "int"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.kind == "bool" and (self.size != 2 or self.signed):
            raise DomainError("boolean domain is unsigned with exactly two values")
        if self.kind == "int" and self.size < 2:
            raise DomainError("integer domain needs at least two values")
        if self.signed and self.size < 4:
            raise DomainError("signed window needs at least four values")
        if self.hash_table is not None:
            if len(self.hash_table) != self.size:
                raise DomainError("hash table must list one output per value")
            for v in self.hash_table:
                if v not in self:
                    raise DomainError(f"hash table entry {v!r} outside the domain")

    @staticmethod
    def booleans() -> "Domain":
        return Domain("bool", 2)

    @staticmethod
    def integers(size: int, signed: bool = False, hash_table=None) -> "Domain":
        table = tuple(hash_table) if hash_table is not None else None
        return Domain("int", size, signed, table)

    @cached_property
    def values(self) -> tuple:
        """Every value in order; computed once per domain (not a field, so
        equality and hashing ignore it).  The other methods do not build it,
        so a domain too large to list still answers them."""
        if self.kind == "bool":
            return (True, False)
        return tuple(range(self.least, self.least + self.size))

    @property
    def least(self) -> int:
        """The least value of an integer domain."""
        return -(self.size // 2) if self.signed else 0

    def __contains__(self, v) -> bool:
        if self.kind == "bool":
            return isinstance(v, bool)
        lo = self.least
        return isinstance(v, int) and not isinstance(v, bool) and lo <= v < lo + self.size

    def index(self, v) -> int:
        if self.kind == "bool":
            return 0 if v else 1
        return v - self.least

    def normalize(self, i: int):
        """Wrap an integer into the canonical range."""
        if self.kind != "int":
            raise DomainError("normalize applies to integer domains only")
        lo = self.least
        return (i - lo) % self.size + lo

    def truth(self, v) -> bool:
        return bool(v) if self.kind == "bool" else v != 0

    @property
    def true_value(self):
        return True if self.kind == "bool" else 1

    @property
    def false_value(self):
        return False if self.kind == "bool" else 0

    def bool_value(self, b: bool):
        return b if self.kind == "bool" else (1 if b else 0)

    def hash_value(self, v):
        if self.hash_table is not None:
            return self.hash_table[self.index(v)]
        if self.kind == "bool":
            return v
        return self.normalize(3 * v)

    def format_value(self, v) -> str:
        if isinstance(v, Label):
            return str(v)
        if self.kind == "bool":
            return "tt" if v else "ff"
        return str(v)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "size": self.size,
            "signed": self.signed,
            "hash_table": list(self.hash_table) if self.hash_table is not None else None,
        }

    def spec(self) -> str:
        """Short name for messages and labels, e.g. ``int:8`` or ``int:4 (signed)``.

        Not a ``--domain`` value: the command line spells a signed or hashed
        domain with further flags.
        """
        if self.kind == "bool":
            return "bool"
        return f"int:{self.size}" + (" (signed)" if self.signed else "")
