"""Verdicts shared by the epistemic checker and the trace-based checkers."""

from __future__ import annotations

from enum import Enum

from .node import Node


class Outcome(Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    BOUND_EXCEEDED = "BOUND_EXCEEDED"


class Witness(Node):
    """Everything needed to reproduce a failure.

    ``stores`` carries labelled initial stores (as name/value item tuples);
    a point-style witness adds the index and observed trace, a formula
    failure adds the quantifier bindings chosen along the failing path.
    """

    __slots__ = ("kind", "stores", "point_index", "trace", "bindings", "note")
    kind: str
    stores: tuple[tuple[str, tuple], ...]
    point_index: int | None
    trace: tuple | None
    bindings: tuple[tuple[str, object], ...]
    note: str
    _defaults = {"stores": (), "point_index": None, "trace": None, "bindings": (), "note": ""}

    def store(self, label: str) -> dict:
        for name, items in self.stores:
            if name == label:
                return dict(items)
        raise KeyError(label)

    @property
    def binding_map(self) -> dict:
        return dict(self.bindings)


class Stats(Node):
    """Work counts of an epistemic evaluation."""

    __slots__ = ("points_visited", "cache_hits", "formula_nodes")
    points_visited: int
    cache_hits: int
    formula_nodes: int
    _defaults = {"points_visited": 0, "cache_hits": 0, "formula_nodes": 0}


class Verdict(Node):
    """A check's outcome, with a witness when it fails."""

    __slots__ = ("outcome", "witness", "stats", "note")
    outcome: Outcome
    witness: Witness | None
    stats: Stats
    note: str
    _defaults = {"witness": None, "stats": Stats(), "note": ""}

    @property
    def holds(self) -> bool:
        return self.outcome is Outcome.HOLDS

    def __str__(self) -> str:
        return self.outcome.value
