"""Exhaustive execution models: every run of a program from every store.

A model holds one maximal (bounded) execution per initial store, an
interned trace table, and the epoch index grouping execution points by
the trace observed so far.  Two points with the same trace are
indistinguishable to the observer; that relation is an S5 equivalence by
construction.

Divergence is never guessed at: an execution that exceeds the step bound
is marked BOUND_EXCEEDED, and one that revisits a (program, store)
configuration is marked LASSO.  Either taints the model, and every
downstream verdict on a tainted model must refuse rather than answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from .domain import Domain, TERMINATION_MARK
from .lang import Program, step


class Status(Enum):
    TERMINATED = "terminated"
    BOUND_EXCEEDED = "bound-exceeded"
    LASSO = "lasso"


@dataclass(frozen=True)
class ModelConfig:
    domain: Domain
    bound: int = 10_000
    termination_output: bool = False

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValueError("step bound must be at least 1")


@dataclass(eq=False)
class Execution:
    """One run: stores[i] is the store after i steps, events[i] the i-th emission."""

    index: int
    stores: list[dict]
    events: list  # per step; None when the step was silent
    status: Status
    lasso_entry: int | None = None
    trace_ids: list[int] = field(default_factory=list)
    trace_id_set: frozenset[int] = frozenset()
    model: "Model | None" = None

    def __len__(self) -> int:
        return len(self.events)

    @property
    def init_store(self) -> dict:
        return self.stores[0]

    @property
    def final_store(self) -> dict:
        return self.stores[-1]


@dataclass(frozen=True)
class Point:
    execution: Execution
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index <= len(self.execution):
            raise ValueError(f"point index {self.index} outside the execution")


@dataclass(eq=False)
class Model:
    program: Program
    cfg: ModelConfig
    executions: list[Execution]
    epochs: dict[int, tuple[Point, ...]]
    epoch_exec_ids: dict[int, frozenset[int]]
    trace_parents: list[tuple[int, object]]  # trace id -> (parent id, event)
    trace_table: dict[tuple[int, object], int]
    exec_by_values: dict[tuple, Execution]  # keyed by non-flag initial values
    variables: tuple[str, ...] = ()

    @property
    def domain(self) -> Domain:
        return self.cfg.domain

    @property
    def tainted(self) -> bool:
        return any(e.status is not Status.TERMINATED for e in self.executions)

    @property
    def point_count(self) -> int:
        return sum(len(e) + 1 for e in self.executions)

    def trace_tuple(self, trace_id: int) -> tuple:
        events = []
        while trace_id != 0:
            parent, event = self.trace_parents[trace_id]
            events.append(event)
            trace_id = parent
        return tuple(reversed(events))

    def intern_lookup(self, trace: tuple) -> int | None:
        """Id of an observed trace, or None when no point ever produced it."""
        tid = 0
        for event in trace:
            tid = self.trace_table.get((tid, event))
            if tid is None:
                return None
        return tid

    def values_of(self, store: dict) -> tuple:
        return tuple(store[name] for name in self.variables)


def build_model(program: Program, cfg: ModelConfig) -> Model:
    """Run the program from every initial store and index the points.

    Initial stores range over the full domain for ordinary identifiers, in
    lexicographic value order; release flags start false.  With
    ``termination_output`` set, each terminated run emits one final marker
    event, making termination observable.
    """
    dom = cfg.domain
    names = program.variables
    flags = program.flags

    trace_parents: list[tuple[int, object]] = [(-1, None)]
    trace_table: dict[tuple[int, object], int] = {}

    def extend_trace(tid: int, event) -> int:
        key = (tid, event)
        new = trace_table.get(key)
        if new is None:
            new = len(trace_parents)
            trace_table[key] = new
            trace_parents.append(key)
        return new

    executions: list[Execution] = []
    exec_by_values: dict[tuple, Execution] = {}
    for values in itertools.product(dom.values, repeat=len(names)):
        store = dict(zip(names, values))
        store.update((f, dom.false_value) for f in flags)
        execution = _run(program, store, cfg, len(executions), extend_trace)
        executions.append(execution)
        exec_by_values[values] = execution

    epochs: dict[int, list[Point]] = {}
    epoch_execs: dict[int, set[int]] = {}
    for execution in executions:
        for i, tid in enumerate(execution.trace_ids):
            epochs.setdefault(tid, []).append(Point(execution, i))
            epoch_execs.setdefault(tid, set()).add(execution.index)

    model = Model(
        program=program,
        cfg=cfg,
        executions=executions,
        epochs={tid: tuple(points) for tid, points in epochs.items()},
        epoch_exec_ids={tid: frozenset(ids) for tid, ids in epoch_execs.items()},
        trace_parents=trace_parents,
        trace_table=trace_table,
        exec_by_values=exec_by_values,
        variables=names,
    )
    for execution in executions:
        execution.model = model
    return model


def _run(program: Program, init: dict, cfg: ModelConfig, index: int, extend_trace) -> Execution:
    dom = cfg.domain
    names = tuple(init)
    stores = [init]
    events: list = []
    trace_ids = [0]
    seen: dict[tuple, int] = {(program.body, tuple(init[n] for n in names)): 0}

    current, store = program.body, init
    lasso_entry: int | None = None
    while True:
        result = step(current, store, dom)
        if result is None:
            status = Status.TERMINATED
            break
        if len(events) >= cfg.bound:
            status = Status.BOUND_EXCEEDED
            break
        current, store, event = result
        stores.append(store)
        events.append(event)
        trace_ids.append(extend_trace(trace_ids[-1], event) if event is not None else trace_ids[-1])
        key = (current, tuple(store[n] for n in names))
        if key in seen:
            status = Status.LASSO
            lasso_entry = seen[key]
            break
        seen[key] = len(events)

    if status is Status.TERMINATED and cfg.termination_output:
        stores.append(store)
        events.append(TERMINATION_MARK)
        trace_ids.append(extend_trace(trace_ids[-1], TERMINATION_MARK))

    return Execution(
        index=index,
        stores=stores,
        events=events,
        status=status,
        lasso_entry=lasso_entry,
        trace_ids=trace_ids,
        trace_id_set=frozenset(trace_ids),
    )


def trace_of(pt: Point) -> tuple:
    """Events emitted strictly before the point, in order."""
    return tuple(ev for ev in pt.execution.events[:pt.index] if ev is not None)


def epoch_of(model: Model, trace: tuple) -> tuple[Point, ...]:
    tid = model.intern_lookup(trace)
    if tid is None:
        return ()
    return model.epochs.get(tid, ())


def accessible(p1: Point, p2: Point) -> bool:
    """Observer cannot tell the points apart: equal traces."""
    if p1.execution.model is not p2.execution.model:
        raise ValueError("points belong to different models")
    return p1.execution.trace_ids[p1.index] == p2.execution.trace_ids[p2.index]
