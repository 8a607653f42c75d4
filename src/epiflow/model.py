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
entry 0 from x = 0, with entry 2 from x = 1).  So when the first run of
some class does not terminate, the model, which is refused, is built
again with every run simulated, as is every run of a program with no
dead input.  Runs are simulated in run order.
Each simulated run keeps its own table of the configurations it reached,
to find its lasso, and drops it when it ends.

The model records each class (``RunClass``: its first run and what a
clone lays over it), not each clone; the run order gives its runs.
The model owns this partition (the symmetry reduction of Ip and Dill,
"Better verification through symmetry", FMSD 1996), and walking it is the
one way a reading walks the runs: a reading asks for the runs split by
the dead inputs it reads (``Model.parts``) and walks the first run of
each part, so on most programs no clone is ever made.  The point count
and the refusal are taken from the classes, once per model.
``Model.executions`` lists every run in order, making every clone the
first time it is read; only what shows a whole model (``epiflow model``,
``epiflow knowledge``, ``epoch_of``) reads it.

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
``results_model``: the same runs, each showing just its results.  The
logic has no next operator, so no formula tells it from the model of the
program with its outputs silenced and its results emitted at the end
(stutter invariance: Peled and Wilke, IPL 1997).  It keeps the program
model's classes, split only by the dead inputs the results read.

Divergence is never guessed at: an execution that exceeds the step bound
is marked BOUND_EXCEEDED, and one that revisits a (program counter,
store) configuration is marked LASSO.  Either taints the model, and every
downstream verdict on a tainted model must refuse rather than answer.
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum

from .domain import Domain, TERMINATION_MARK
from .lang import (ASSIGN, BRANCH, EXIT, Code, Expr, Program, compile_expr, compile_program,
                   expr_ids, live_inputs)


class Status(Enum):
    TERMINATED = "terminated"
    BOUND_EXCEEDED = "bound-exceeded"
    LASSO = "lasso"


@dataclass(frozen=True)
class ModelConfig:
    """How to build a model: domain, step bound per run, termination marker."""

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
    """Position ``index`` of a run: the point after ``index`` steps."""

    execution: Execution
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index <= len(self.execution):
            raise ValueError(f"point index {self.index} outside the execution")


@dataclass(eq=False, slots=True)
class RunClass:
    """Runs that a reading cannot tell apart, by the first of them (a
    class's runs are ``Model.class_mask`` shifted to its first run).

    A class of live inputs is the runs that agree on every live input: its
    first run is simulated, and when it terminates every other run of the
    class is a clone of it.  For such a class ``laid`` holds, per dead
    input kept at every point, the position of the store where the first
    run first wrote it, and ``unwritten`` the dead inputs it never wrote;
    ``laid`` is None for a class of one run in a model that clones no
    run.  A part of a class (``Model.parts``) carries the class's
    ``laid`` and ``unwritten``; a class of ``results_model``, whose runs
    keep nothing per point, carries its part's ``unwritten`` and an empty
    ``laid``."""

    first: Execution
    laid: dict[str, int] | None = None
    unwritten: tuple[str, ...] = ()


@dataclass(eq=False)
class Model:
    """Every run of a program, one per initial store, and the traces they emit."""

    program: Program
    cfg: ModelConfig
    classes: list[RunClass]  # the classes of live inputs, by first run
    runs: list[Execution | None]  # every run; None for a clone not yet listed
    trace_parents: list[tuple[int, object]]  # trace id -> (parent id, event)
    trace_table: dict[tuple[int, object], int]
    variables: tuple[str, ...] = ()
    kept: frozenset[str] = frozenset()  # identifiers kept per point
    dead: tuple[str, ...] = ()  # inputs never read before written
    # why the model has no verdict: the first run that did not terminate,
    # by its initial store; None when every run terminated
    refusal: str | None = field(init=False)
    _parts: dict[frozenset[str], list[RunClass]] = field(default_factory=dict, init=False,
                                                         repr=False)

    def __post_init__(self) -> None:
        """Point the first runs back at the model, and take the refusal from
        them: only a terminated run has clones, so the first run that did
        not terminate was simulated."""
        ref = weakref.ref(self)
        bad = None
        for c in self.classes:
            c.first.model_ref = ref
            if bad is None and c.first.status is not Status.TERMINATED:
                bad = c.first
        self.refusal = None if bad is None else (
            f"execution from {self.store_text(bad.init_store)} is {bad.status.value}")

    @property
    def domain(self) -> Domain:
        return self.cfg.domain

    @cached_property
    def executions(self) -> list[Execution]:
        """Every run, in order of its initial values: the first read lists
        every clone."""
        clones = self._lays(self.dead)[1:]  # all but the first
        for c in self.classes:
            for offset, values in clones:
                self._listed(c, offset, values)
        return self.runs

    def _lays(self, names: Iterable[str]) -> list[tuple[int, dict]]:
        """Per assignment of values to the dead inputs among ``names``, in
        run order: how far from the first run of a class the run of the
        class holding them lies, and the assignment."""
        values = self.domain.values
        weights = _weights(self.variables, len(values))
        names = [n for n in self.dead if n in names]
        return list(zip(_offsets([weights[n] for n in names], len(values)),
                        (dict(zip(names, vs))
                         for vs in itertools.product(values, repeat=len(names)))))

    def _listed(self, c: RunClass, offset: int, values: dict) -> Execution:
        """The run ``offset`` runs after the first run of class ``c``, which
        holds the dead ``values``, listed now if it is a clone not yet
        listed: ``c``'s first run with ``values`` laid over it."""
        index = c.first.index + offset
        ex = self.runs[index]
        if ex is None:
            init = {**c.first.init_store, **values}
            ex = self.runs[index] = _clone(c.first, c.laid, c.unwritten, init, index)
            ex.model_ref = c.first.model_ref
        return ex

    def parts(self, names: Iterable[str]) -> list[RunClass]:
        """The runs split into the parts that a reading which reads only
        ``names`` of their initial and per-point stores cannot tell apart,
        in order of their first runs.  This is the one way a reading walks
        the runs.

        A part is a class of live inputs, split by the values of the dead
        inputs among ``names``, and carries its class's ``laid`` and
        ``unwritten``.  Its runs take the same steps, emit the same events
        and agree on ``names`` at every point, so such a reading asks the
        first run of each part only, and the first run it fails on is a
        first run of a part.  The first run of a split part is listed; with
        no dead input read the parts are the classes."""
        split = frozenset(self.dead).intersection(names) if self.dead else None
        if not split:
            return self.classes
        parts = self._parts.get(split)
        if parts is None:
            lays = self._lays(split)
            parts = [RunClass(self._listed(c, o, values), c.laid, c.unwritten)
                     for c in self.classes for o, values in lays]
            parts.sort(key=_first_index)
            self._parts[split] = parts
        return parts

    def require(self, names: frozenset[str], reader: str) -> None:
        """Raise NotKeptError unless the model kept each of ``names`` at
        every point, which ``reader`` reads there."""
        if not names <= self.kept:
            missing = ", ".join(sorted(names - self.kept))
            raise NotKeptError(f"{reader} reads {missing}, which the model did not keep")

    @property
    def tainted(self) -> bool:
        return self.refusal is not None

    @cached_property
    def class_mask(self) -> int:
        """The runs of a class relative to its first run, bit o for the run
        o runs after it: one per assignment of values to the dead inputs.
        Class ``c`` holds the runs ``class_mask << c.first.index``."""
        return sum(1 << o for o, _ in self._lays(self.dead)) if self.dead else 1

    @cached_property
    def point_count(self) -> int:
        return self.class_mask.bit_count() * sum(len(c.first.trace_ids) for c in self.classes)

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
        d, total = len(values), len(self.runs)
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


def _first_index(c: RunClass) -> int:
    return c.first.index


def _weights(names: tuple[str, ...], d: int) -> dict[str, int]:
    """Per variable, how far apart in run order two runs are that differ
    only in its value, by one step of ``d`` values."""
    return {n: d ** k for k, n in enumerate(reversed(names))}


def _offsets(weights: list[int], d: int) -> list[int]:
    """Every sum of a multiple below ``d`` of each weight, in increasing
    order: the weights are distinct powers of ``d``, largest first."""
    offsets = [0]
    for w in weights:
        offsets = [o + j * w for o in offsets for j in range(d)]
    return offsets


def build_model(program: Program, cfg: ModelConfig,
                keep: frozenset[str] | None = None) -> Model:
    """Run the program from every initial store.

    Initial stores range over the full domain for ordinary identifiers, in
    lexicographic value order; release flags start false.  With
    ``termination_output`` set, each terminated run emits one final marker
    event, making termination observable.  Each run keeps the identifiers
    in ``keep`` at every point; None keeps every identifier and flag.

    The first run of each class of live inputs is simulated, in run order,
    and its clones are listed when read.  When the first run of some class
    does not terminate, the model is refused, and it is built again with
    every run simulated, so that it lists each run's own status and lasso.
    """
    if keep is None:
        keep = frozenset(program.variables + program.flags)
    code = compile_program(program, cfg.domain)
    live = live_inputs(program)
    dead = tuple(n for n in program.variables if n not in live)
    model = _build(program, code, cfg, keep, dead)
    return model if model is not None else _build(program, code, cfg, keep, ())


def _build(program: Program, code: Code, cfg: ModelConfig, keep: frozenset[str],
           dead: tuple[str, ...]) -> Model | None:
    """The model that simulates the first run of each class of the runs
    that differ only in ``dead`` inputs, or None when some first run does
    not terminate and so has no clones."""
    dom = cfg.domain
    names = program.variables
    trace_parents, trace_table, extend_trace = _trace_table()
    behaviours: dict[tuple, list[int]] = {}
    d = len(dom.values)
    unreleased = dict.fromkeys(program.flags, dom.false_value)
    runs: list[Execution | None] = [None] * d ** len(names)
    classes: list[RunClass] = []
    # the first runs of the classes, which hold each dead input's first value
    firsts = range(len(runs))
    if dead:
        weights = _weights(names, d)
        firsts = _offsets([weights[n] for n in names if n not in dead], d)
    first_values = itertools.product(*(dom.values[:1] if n in dead else dom.values
                                       for n in names))
    for index, values in zip(firsts, first_values):
        init = dict(zip(names, values))
        init.update(unreleased)
        ex, overlay = _run(code, init, cfg, index, extend_trace, behaviours, dead, keep)
        if overlay is None and dead:
            return None
        runs[index] = ex
        classes.append(RunClass(ex, *overlay) if dead else RunClass(ex))
    return Model(program, cfg, classes, runs, trace_parents, trace_table, names, keep, dead)


def results_model(model: Model, outputs: tuple[Expr, ...]) -> Model:
    """The runs of ``model``, in order, with their initial and final stores
    and statuses: each is one silent point, then one point per expression
    of ``outputs``, emitting its value on the final store.  Nothing is kept
    per point.  Both readings of the abstract pair judge it: nani as nid,
    aak as akd, with ``rho``'s expressions as the outputs.

    Its classes are ``model``'s parts split by the identifiers the outputs
    read: the runs of a part agree on those at the end, so they have the
    same results, and a clone of ``model`` is made only where an output
    reads a dead input.  Its dead inputs are ``model``'s less those."""
    names = frozenset().union(*map(expr_ids, outputs))
    fns = [compile_expr(e, model.domain) for e in outputs]
    parents, table, extend = _trace_table()
    behaviours: dict[tuple, list[int]] = {}
    runs: list[Execution | None] = [None] * len(model.runs)
    classes = []
    for part in model.parts(names):
        ex = part.first
        ids = [0]
        for fn in fns:
            ids.append(extend(ids[-1], fn(ex.final_store)))
        ids = behaviours.setdefault(tuple(ids), ids)
        runs[ex.index] = Execution(ex.index, ex.init_store, None, ex.final_store, ex.status,
                                   None, ids)
        # nothing is kept per point, so a clone lays its dead values over
        # the final store only
        classes.append(RunClass(runs[ex.index], {}, part.unwritten))
    dead = tuple(n for n in model.dead if n not in names)
    return Model(model.program, model.cfg, classes, runs, parents, table, model.variables,
                 dead=dead)


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
