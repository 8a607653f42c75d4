"""Verdicts shared by the epistemic checker and the trace-based checkers."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Outcome(Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    BOUND_EXCEEDED = "BOUND_EXCEEDED"


@dataclass(frozen=True)
class Witness:
    """Everything needed to reproduce a failure.

    ``stores`` carries labelled initial stores (as name/value item tuples);
    a point-style witness adds the index and observed trace, a formula
    failure adds the quantifier bindings chosen along the failing path.
    """

    kind: str
    stores: tuple[tuple[str, tuple], ...] = ()
    point_index: int | None = None
    trace: tuple | None = None
    bindings: tuple[tuple[str, object], ...] = ()
    note: str = ""

    def store(self, label: str) -> dict:
        for name, items in self.stores:
            if name == label:
                return dict(items)
        raise KeyError(label)

    @property
    def binding_map(self) -> dict:
        return dict(self.bindings)


@dataclass(frozen=True)
class Stats:
    points_visited: int = 0
    cache_hits: int = 0
    formula_nodes: int = 0


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    witness: Witness | None = None
    stats: Stats = field(default_factory=Stats)
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.outcome is Outcome.HOLDS

    def __str__(self) -> str:
        return self.outcome.value


def bound_exceeded(note: str = "model contains a non-terminated execution") -> Verdict:
    return Verdict(Outcome.BOUND_EXCEEDED, None, Stats(), note)
