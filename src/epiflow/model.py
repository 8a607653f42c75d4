"""Exhaustive execution models: every run of a program from every store.

A model holds one maximal (bounded) execution per initial store and an
interned trace table.  Two points with the same trace are
indistinguishable to the observer; that relation is an S5 equivalence by
construction.  A run is its stores and the trace id at each point; its
events are read back through the trace table.  Ids never decrease along
a run, so an epoch (the points sharing one trace) meets a run in one
contiguous block of positions.  Each reading indexes runs by trace itself;
the model indexes epochs by point on demand, for ``epoch_of``.

An execution refers back to its model only weakly, so a model no longer
in use is freed by reference counting, without the cycle collector.

The builder keeps one table of the (program counter, store) configurations
reached so far.  A run that meets a configuration a terminated run reached
first, with the same trace, copies that run's rest, so a store dict may be
shared between runs: stores are read-only.

Trace-id lists are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006): runs have equal trace ids exactly when they share
one list object, read-only like the stores.  That list is the run's
behaviour, all an observer can tell of the run; runs often share one
(the loop program at int:16 has 4,096 runs and 256 behaviours).

Divergence is never guessed at: an execution that exceeds the step bound
is marked BOUND_EXCEEDED, and one that revisits a (program counter,
store) configuration is marked LASSO.  Either taints the model, and every
downstream verdict on a tainted model must refuse rather than answer.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum

from .domain import Domain, TERMINATION_MARK
from .lang import ASSIGN, BRANCH, EXIT, Code, Program, compile_program


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
    """One run: stores[i] is the store after i steps, and trace_ids[i] the
    id of the trace emitted before point i.  Runs with equal trace ids
    share one ``trace_ids`` list."""

    index: int
    stores: list[dict]
    status: Status
    lasso_entry: int | None = None
    trace_ids: list[int] = field(default_factory=list)
    model_ref: "weakref.ref[Model] | None" = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.trace_ids) - 1

    @property
    def events(self) -> list:
        """The emission of each step, None when the step was silent."""
        parents = self.model.trace_parents
        ids = self.trace_ids
        return [None if a == b else parents[b][1] for a, b in zip(ids, ids[1:])]

    @property
    def init_store(self) -> dict:
        return self.stores[0]

    @property
    def final_store(self) -> dict:
        return self.stores[-1]

    @property
    def model(self) -> "Model | None":
        return self.model_ref() if self.model_ref is not None else None


@dataclass(frozen=True, slots=True)
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
    trace_parents: list[tuple[int, object]]  # trace id -> (parent id, event)
    trace_table: dict[tuple[int, object], int]
    variables: tuple[str, ...] = ()

    @property
    def domain(self) -> Domain:
        return self.cfg.domain

    @property
    def tainted(self) -> bool:
        return self.refusal is not None

    @property
    def refusal(self) -> str | None:
        """Why the model has no verdict: the first run that did not
        terminate, by its initial store; None when every run terminated."""
        bad = next((e for e in self.executions if e.status is not Status.TERMINATED), None)
        if bad is None:
            return None
        return f"execution from {self.store_text(bad.init_store)} is {bad.status.value}"

    @property
    def point_count(self) -> int:
        return sum(len(e) + 1 for e in self.executions)

    @cached_property
    def epochs(self) -> dict[int, tuple[Point, ...]]:
        """The points of each trace id, by execution and then position."""
        epochs: dict[int, list[Point]] = {}
        for execution in self.executions:
            for i, tid in enumerate(execution.trace_ids):
                epochs.setdefault(tid, []).append(Point(execution, i))
        return {tid: tuple(points) for tid, points in epochs.items()}

    @cached_property
    def exec_by_values(self) -> dict[tuple, Execution]:
        """The run from each initial store, keyed by its non-flag values."""
        return {self.values_of(e.init_store): e for e in self.executions}

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

    def store_text(self, store: dict) -> str:
        """The store's non-flag values in signature order, as ``(x=tt, y=ff)``."""
        fmt = self.domain.format_value
        return "(" + ", ".join(f"{n}={fmt(store[n])}" for n in self.variables) + ")"


def build_model(program: Program, cfg: ModelConfig) -> Model:
    """Run the program from every initial store.

    Initial stores range over the full domain for ordinary identifiers, in
    lexicographic value order; release flags start false.  With
    ``termination_output`` set, each terminated run emits one final marker
    event, making termination observable.
    """
    dom = cfg.domain
    names = program.variables
    flags = program.flags

    code = compile_program(program, dom)
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
    states: dict[tuple, tuple[int, int, int]] = {}
    behaviours: dict[tuple, list[int]] = {}
    for values in itertools.product(dom.values, repeat=len(names)):
        store = dict(zip(names, values))
        store.update((f, dom.false_value) for f in flags)
        execution = _run(code, store, cfg, len(executions), extend_trace, states, executions,
                         behaviours)
        executions.append(execution)

    model = Model(
        program=program,
        cfg=cfg,
        executions=executions,
        trace_parents=trace_parents,
        trace_table=trace_table,
        variables=names,
    )
    ref = weakref.ref(model)
    for execution in executions:
        execution.model_ref = ref
    return model


def _run(code: Code, init: dict, cfg: ModelConfig, index: int, extend_trace,
         states: dict, executions: list[Execution], behaviours: dict) -> Execution:
    """Run the compiled program from ``init``.

    A new store is made only by assigning steps.  A configuration is the
    program counter with the store's values, in signature order; ``states``
    maps each one to the first (run, step, trace id) that reached it.
    Reaching one of this run's own configurations again closes a lasso.
    Reaching a terminated run's configuration with the same trace id
    copies that run's rest, when the joined run stays within the bound:
    runs are deterministic in their configuration, and a terminated run
    repeats none, so neither does the joined run.  Any other meeting
    runs this run again from ``init`` with a private table.

    A joined run that met the earlier run at the same step with the same
    trace ids so far takes the earlier run's trace-id list itself; any
    other run's list is interned in ``behaviours``, keyed by its contents.
    """
    instrs = code.instrs
    bound = cfg.bound
    store = init
    values = tuple(init.values())
    stores = [init]
    trace_ids = [0]
    tid = 0
    pc = code.entry
    status = Status.TERMINATED
    lasso_entry: int | None = None
    steps = 0
    while True:
        run, step, first_tid = states.setdefault((pc, values), (index, steps, tid))
        if run != index:
            earlier = executions[run]
            rest = len(earlier) - cfg.termination_output - step
            if (earlier.status is not Status.TERMINATED or first_tid != tid
                    or steps + rest > bound):
                return _run(code, init, cfg, index, extend_trace, {}, executions, behaviours)
            stores += earlier.stores[step + 1:]
            if steps == step and trace_ids == earlier.trace_ids[:step + 1]:
                return Execution(index, stores, status, None, earlier.trace_ids)
            trace_ids += earlier.trace_ids[step + 1:]
            return Execution(index, stores, status, None,
                             behaviours.setdefault(tuple(trace_ids), trace_ids))
        if step != steps:
            status = Status.LASSO
            lasso_entry = step
            break
        if pc == EXIT:
            break
        if steps >= bound:
            status = Status.BOUND_EXCEEDED
            break
        op, fn, name, nxt, other = instrs[pc]
        if op is BRANCH:
            pc = nxt if fn(store) else other
        elif op is ASSIGN:
            store = {**store, name: fn(store)}
            values = tuple(store.values())
            pc = nxt
        else:
            tid = extend_trace(tid, fn(store))
            pc = nxt
        steps += 1
        stores.append(store)
        trace_ids.append(tid)

    if status is Status.TERMINATED and cfg.termination_output:
        stores.append(store)
        trace_ids.append(extend_trace(tid, TERMINATION_MARK))
    return Execution(index, stores, status, lasso_entry,
                     behaviours.setdefault(tuple(trace_ids), trace_ids))


def trace_of(pt: Point) -> tuple:
    """Events emitted strictly before the point, in order."""
    return pt.execution.model.trace_tuple(pt.execution.trace_ids[pt.index])


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
