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

The builder simulates one run per class of live inputs
(``lang.live_inputs``): the initial stores that agree on every input some
run may read before writing it.  The first run of a class is simulated;
when it terminates, every later run of the class is a clone of it, since
a dead input's initial value is never read, so the runs take the same
steps and emit the same events, and differ only in their dead values
until each is first written; from there on a clone shares the first
run's store dicts, which are read-only.  A clone's dead values are laid
over the first run's per-point stores only where they are kept, and over
its final store only where they are never written.  A clone of a
terminated run repeats no configuration, or the run itself would repeat
one.  Only terminated runs are cloned, since where a lasso closes depends
on the dead values (``while tt do { x := 0 }`` closes at step 2 with
entry 0 from x = 0, with entry 2 from x = 1); the other runs of a class
whose first run does not terminate are simulated one by one, as is every
run of a program with no dead input.  Each simulated run keeps its own
table of the configurations it reached, to find its lasso, and drops it
when it ends.

A model keeps per point only what its readings read (a cone-of-influence
reduction: Clarke, Grumberg and Peled, "Model Checking", 1999).  Every
run holds its whole initial and final stores, since what an observer
knows depends only on initial stores and traces, and ``results_model``
reads final stores.
``build_model`` takes the identifiers to keep at every point.  A run
holds a view of each point's store with the kept identifiers, one view
shared until a kept identifier is written; given the empty set, no
per-point stores at all.  Simulation still steps whole stores, so
lassos are found as before.  A reading that reads an identifier the model
did not keep is an internal error (``Model.require``), never a verdict.

Trace-id lists are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006): runs have equal trace ids exactly when they share
one list object, read-only like the stores.  That list is the run's
behaviour, all an observer can tell of the run; runs often share one
(the loop program at int:16 has 4,096 runs and 256 behaviours).

An observer of results alone (nani's and aak's) is judged on
``results_model``: the same runs, each showing just its results.  The logic has no next operator, so
no formula tells it from the model of the program with its outputs
silenced and its results emitted at the end (stutter invariance: Peled
and Wilke, IPL 1997).

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
from .lang import (ASSIGN, BRANCH, EXIT, Code, Expr, Program, compile_expr, compile_program,
                   live_inputs)


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


class NotKeptError(RuntimeError):
    """A reading reads an identifier its model did not keep at every point:
    a bug in what the reading declared, not a usage error or a verdict."""


@dataclass(eq=False, slots=True)
class Execution:
    """One run: its whole initial and final stores, and trace_ids[i] the id
    of the trace emitted before point i.  stores[i] holds the model's kept
    identifiers after i steps (stores[0] is the whole initial store), or
    ``stores`` is None when the model keeps none.  Runs with equal trace
    ids share one ``trace_ids`` list."""

    index: int
    init_store: dict
    stores: list[dict] | None
    final_store: dict
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
    kept: frozenset[str] = frozenset()  # identifiers kept per point

    def __post_init__(self) -> None:
        ref = weakref.ref(self)
        for execution in self.executions:
            execution.model_ref = ref

    @property
    def domain(self) -> Domain:
        return self.cfg.domain

    def require(self, names: frozenset[str], reader: str) -> None:
        """Raise NotKeptError unless the model kept each of ``names`` at
        every point, which ``reader`` reads there."""
        if not names <= self.kept:
            missing = ", ".join(sorted(names - self.kept))
            raise NotKeptError(f"{reader} reads {missing}, which the model did not keep")

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

    @cached_property
    def runs_from(self) -> dict[str, dict[object, int]]:
        """Per identifier and value, the mask (bit k for run k) of the runs
        whose initial store holds that value.

        Runs are in lexicographic order of their initial values, so with d
        values and m identifiers the runs holding the j-th value of the i-th
        identifier are the j-th block of ``d ** (m - 1 - i)`` runs in each
        period of ``d ** (m - i)``: one block, repeated by doubling, and
        shifted for each value."""
        values = self.domain.values
        d, total = len(values), len(self.executions)
        runs: dict[str, dict[object, int]] = {}
        block = total
        for name in self.variables:
            period, block = block, block // d
            mask, width = (1 << block) - 1, period
            while width < total:
                mask |= mask << width
                width *= 2
            mask &= (1 << total) - 1
            runs[name] = {v: mask << (j * block) for j, v in enumerate(values)}
        return runs

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


def build_model(program: Program, cfg: ModelConfig,
                keep: frozenset[str] | None = None) -> Model:
    """Run the program from every initial store.

    Initial stores range over the full domain for ordinary identifiers, in
    lexicographic value order; release flags start false.  With
    ``termination_output`` set, each terminated run emits one final marker
    event, making termination observable.  Each run keeps the identifiers
    in ``keep`` at every point; None keeps every identifier and flag.
    """
    dom = cfg.domain
    names = program.variables
    flags = program.flags
    if keep is None:
        keep = frozenset(names + flags)

    code = compile_program(program, dom)
    trace_parents, trace_table, extend_trace = _trace_table()
    executions: list[Execution] = []
    behaviours: dict[tuple, list[int]] = {}
    live = live_inputs(program)
    dead = tuple(n for n in names if n not in live)
    is_live = [n in live for n in names]
    # per class of live values, its representative with where it first
    # wrote each kept dead input and the dead inputs it never wrote, or
    # None when the class is not cloned
    classes: dict[tuple, tuple[Execution, dict[str, int], tuple[str, ...]] | None] = {}
    unreleased = dict.fromkeys(flags, dom.false_value)
    for values in itertools.product(dom.values, repeat=len(names)):
        store = dict(zip(names, values))
        store.update(unreleased)
        index = len(executions)
        if dead:
            key = tuple(itertools.compress(values, is_live))
            rep = classes.get(key)
            if rep is not None:
                executions.append(_clone(*rep, store, index))
                continue
        execution, overlay = _run(code, store, cfg, index, extend_trace, behaviours, dead,
                                  keep)
        executions.append(execution)
        if dead:
            classes.setdefault(key, (execution, *overlay) if overlay is not None else None)

    return Model(program, cfg, executions, trace_parents, trace_table, names, keep)


def results_model(model: Model, outputs: tuple[Expr, ...]) -> Model:
    """The runs of ``model``, in order, with their initial and final stores
    and statuses: each is one silent point, then one point per expression
    of ``outputs``, emitting its value on the final store.  Nothing is kept
    per point.  Both readings of the abstract pair judge it: nani as nid,
    aak as akd, with ``rho``'s expressions as the outputs."""
    fns = [compile_expr(e, model.domain) for e in outputs]
    parents, table, extend = _trace_table()
    behaviours: dict[tuple, list[int]] = {}
    runs = []
    for ex in model.executions:
        ids = [0]
        for fn in fns:
            ids.append(extend(ids[-1], fn(ex.final_store)))
        ids = behaviours.setdefault(tuple(ids), ids)
        runs.append(Execution(ex.index, ex.init_store, None, ex.final_store, ex.status, None, ids))
    return Model(model.program, model.cfg, runs, parents, table, model.variables)


def _trace_table() -> tuple:
    """An empty trace table (each id's parent and event, and each id by
    them), and the function that interns a trace id extended by an event."""
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

    return trace_parents, trace_table, extend_trace


def _run(code: Code, init: dict, cfg: ModelConfig, index: int, extend_trace,
         behaviours: dict, dead: tuple[str, ...],
         keep: frozenset[str]
         ) -> tuple[Execution, tuple[dict[str, int], tuple[str, ...]] | None]:
    """Run the compiled program from ``init``.

    A new store is made only by assigning steps.  A configuration is the
    program counter with the store's values, in signature order; the run's
    own table maps each one it reached to the step that first reached it,
    and reaching one again closes a lasso.  The table is dropped when the
    run ends.  The run's trace-id list is interned in ``behaviours``, keyed
    by its contents.  Each point gets a view of the ``keep`` identifiers,
    made anew when one of them is written, or nothing (``keep`` empty).

    Returns the run with what its clones need: for each of the ``dead``
    inputs it keeps per point, the position of the store where the run
    first wrote it (the number of positions when it never did), and the
    dead inputs it never wrote; or with None when it did not terminate or
    there are no ``dead`` inputs.
    """
    instrs = code.instrs
    bound = cfg.bound
    store = init
    values = tuple(init.values())
    view = init
    stores = [init] if keep else None
    trace_ids = [0]
    tid = 0
    pc = code.entry
    status = Status.TERMINATED
    lasso_entry: int | None = None
    steps = 0
    seen: dict[tuple, int] = {}
    pending = set(dead)
    firsts: dict[str, int] = {}
    while True:
        step = seen.setdefault((pc, values), steps)
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
            if name in keep:
                view = {n: store[n] for n in keep}
            if name in pending:
                pending.remove(name)
                firsts[name] = steps + 1
        else:
            tid = extend_trace(tid, fn(store))
            pc = nxt
        steps += 1
        if stores is not None:
            stores.append(view)
        trace_ids.append(tid)

    if status is Status.TERMINATED and cfg.termination_output:
        if stores is not None:
            stores.append(view)
        trace_ids.append(extend_trace(tid, TERMINATION_MARK))
    execution = Execution(index, init, stores, store, status, lasso_entry,
                          behaviours.setdefault(tuple(trace_ids), trace_ids))
    if status is not Status.TERMINATED or not dead:
        return execution, None
    firsts.update(dict.fromkeys(pending, len(trace_ids)))
    laid = {n: first for n, first in firsts.items() if n in keep}
    return execution, (laid, tuple(pending))


def _clone(rep: Execution, laid: dict[str, int], unwritten: tuple[str, ...],
           init: dict, index: int) -> Execution:
    """The run from ``init``, which agrees with the terminated run ``rep`` on
    every live input, so takes the same steps and emits the same events.

    It shares ``rep``'s trace ids.  Its final store is ``rep``'s, with
    ``init``'s values of the ``unwritten`` dead inputs laid over it.  Its
    per-point stores are ``rep``'s with ``init``'s values of the kept dead
    inputs laid over them, each up to the position in ``laid`` where it is
    first written; from the last such position on they are ``rep``'s store
    objects, and with no dead input kept they are ``rep``'s list."""
    final = rep.final_store
    if unwritten:
        final = {**final, **{n: init[n] for n in unwritten}}
    stores = rep.stores
    if laid:
        cut = max(laid.values())
        made, source = [init], stores[0]
        store = init
        for k in range(1, cut):
            if stores[k] is not source:
                source = stores[k]
                store = {**source, **{n: init[n] for n, first in laid.items() if first > k}}
            made.append(store)
        made += stores[cut:]
        stores = made
    return Execution(index, init, stores, final, Status.TERMINATED, None, rep.trace_ids)


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
