"""Linear-time epistemic logic without Next: syntax and satisfaction.

Atoms are ``e1 = e2`` (current store) and ``init_x(e)`` (the initial
value of ``x`` equals the current value of ``e``).  On top of them sit the
boolean connectives, the knowledge operator K and its dual L, the
temporal operators U, W, F and G, and quantifiers over the finite value
domain.  Their meaning:

    forall id. p  =  AND_{v in Val} p[v/id]      exists dually
    L p  =  !K !p        F p  =  tt U p          G p  =  !F !p
    p W q  =  (p U q) || G p

Satisfaction is evaluated over a fully built model, on formulas as
written: quantified variables live in an environment, their values never
written into the formula.  K quantifies over every point of the model whose trace
equals the current one; until ranges over the remaining (finite,
terminated) suffix of the current execution.  Callers must refuse tainted
models before asking for satisfaction.

Before evaluation each node is checked like a program expression
(identifiers, operators, literals) and compiled under its quantifier
scope.  Values are memoized per node, keyed as coarsely as soundness
allows -- an ``init`` atom over bound values is fixed along an execution,
a K/L formula is constant across an epoch, and a formula built from such
parts (temporal operators included) is fixed within one run's visit to
one epoch -- plus the values of the bound variables free in the node.
Only atoms that read the current store vary from point to point.  These
rules keep quantifiers, knowledge and scans cheap:

* ``forall v1 ... vk. guard -> body`` is one block.  A guard conjunct
  ``init_x(v)`` binds ``v`` to the run's own initial ``x``; conjuncts over
  bound variables only are solved once per value of their outer variables.
* A block with such binders whose other parts are fixed across an epoch
  depends on the run only through the initial values its binders read.
  It is memoized by those values, and by the trace when a part is fixed
  per epoch, so runs that differ only in values it never reads share one
  evaluation.  To the nodes around it the block is still fixed per run
  (and epoch); only its memo key is coarser.
* K and L over a body fixed along a run work on sets of runs, held as int
  bitmasks (bit k for run k).  ``have`` is the mask of the runs that visit
  a trace id, which each evaluation builds from the runs' trace ids, and
  ``sat`` the mask of the runs where the body holds.  Per
  identifier and value, ``runs_from`` is the mask of the runs starting
  with that value, so ``init`` atoms over bound values that pin every
  variable name the AND of their masks: one run, or none when two atoms
  disagree.  For any other body ``sat`` is the body at the start of every
  run, kept per value of its bound variables.  Then K is
  ``have & ~sat == 0`` and L is ``have & sat != 0``.
* A forall block with no binders and no checks whose body is such a pinned
  L asks whether every run its instances pin visits the epoch.  Its pins
  split by identifier: fixed ones read no variable the guard solves,
  varying ones do.  The instances pin ``fixed & union``, where ``union``
  is the OR of the varying pins' masks over the guard's solutions, built
  once per solved guard: per value of the variables the guard and the
  varying pins read besides the solved ones.  The block holds when
  ``fixed & union & ~have == 0``.  The model holds every initial store, so
  an instance pins no run only when the fixed side or its varying side
  contradicts itself; that makes the block false, and a guard that admits
  no instance makes it true.
* Any other K/L body is read at the current point when it is fixed across
  the epoch, else checked once per execution of the epoch when it is fixed
  per run and epoch, else at every point of the epoch.
* The logic has no Next, so no formula tells repeated states apart: it is
  stutter-invariant (Lamport, "What good is temporal logic?", 1983; Peled
  and Wilke, IPL 1997).  A temporal operator therefore scans a run from
  change to change: it visits only the positions where the trace id, or a
  store identifier its children's atoms read at the current point,
  differs from the position before.  With nothing read that is one
  position per epoch block.  A scan's first deciding position is the
  first of its stutter block, so witnesses are found where a scan of
  every position would find them.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .domain import Domain
from .lang import (Binary, Const, Expr, LangError, Unary, Var, compile_expr,
                   expr_ids, expr_to_source, validate_expr)
from .model import Execution, Model, Point
from .verdicts import Outcome, Stats, Verdict, Witness


class LogicError(ValueError):
    pass


# Memoization granularity, ordered by how much of a point's identity the
# value depends on.  EXEC and EPOCH are incomparable; their join is
# RUN_EPOCH, a value fixed over one run's positions in one epoch.  Trace
# ids never decrease along a run, so those positions are contiguous.
_CONST, _EXEC, _EPOCH, _RUN_EPOCH, _POINT = 0, 1, 2, 3, 4


def _join(a: int, b: int) -> int:
    if {a, b} == {_EXEC, _EPOCH}:
        return _RUN_EPOCH
    return max(a, b)


# The memo position of a point at each level.
_AT = (
    lambda ex, i: None,
    lambda ex, i: ex.index,
    lambda ex, i: ex.trace_ids[i],
    lambda ex, i: (ex.index, ex.trace_ids[i]),
    lambda ex, i: (ex.index, i),
)


def _changes(ex: Execution, i: int, read):
    """Position ``i``, then each later position of the run where the trace
    id or a value ``read`` takes from the store (None: no value) differs
    from the position before.

    Formulas without Next cannot tell repeated states apart (they are
    stutter-invariant), so between two such positions a formula whose
    atoms read only those values keeps the value it has at the first.
    Trace ids never decrease along a run, so an epoch's block ends where
    the next larger id starts; a step that assigns nothing keeps the very
    same store.
    """
    ids, stores = ex.trace_ids, ex.stores
    end = len(ids)
    while i < end:
        yield i
        block_end = bisect_right(ids, ids[i], i)
        if read is None:
            i = block_end
            continue
        seen = read(stores[i])
        i += 1
        while i < block_end and (stores[i] is stores[i - 1] or read(stores[i]) == seen):
            i += 1


def _init_values_at(subjects: tuple[str, ...], epoch: bool):
    """The memo position of a block fixed by the initial values of
    ``subjects``, and by the trace when ``epoch`` is set."""
    values = itemgetter(*subjects) if subjects else (lambda store: ())
    if epoch:
        return lambda ex, i: (ex.trace_ids[i], values(ex.stores[0]))
    return lambda ex, i: values(ex.stores[0])


class Formula:
    pass


@dataclass(eq=False)
class Eq(Formula):
    lhs: Expr
    rhs: Expr


@dataclass(eq=False)
class Init(Formula):
    name: str
    expr: Expr


@dataclass(eq=False)
class And(Formula):
    children: tuple[Formula, ...]


@dataclass(eq=False)
class Not(Formula):
    child: Formula


@dataclass(eq=False)
class K(Formula):
    child: Formula


@dataclass(eq=False)
class Until(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(eq=False)
class Tt(Formula):
    pass


@dataclass(eq=False)
class Ff(Formula):
    pass


@dataclass(eq=False)
class Or(Formula):
    children: tuple[Formula, ...]


@dataclass(eq=False)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(eq=False)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(eq=False)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(eq=False)
class L(Formula):
    child: Formula


@dataclass(eq=False)
class F(Formula):
    child: Formula


@dataclass(eq=False)
class G(Formula):
    child: Formula


@dataclass(eq=False)
class W(Formula):
    lhs: Formula
    rhs: Formula


def formula_size(f: Formula) -> int:
    """Distinct nodes reachable from the root (shared subtrees count once)."""
    seen: set[int] = set()

    def walk(node: Formula) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        match node:
            case And(children) | Or(children):
                for c in children:
                    walk(c)
            case Not(child) | K(child) | L(child) | F(child) | G(child):
                walk(child)
            case Until(lhs, rhs) | Implies(lhs, rhs) | W(lhs, rhs):
                walk(lhs)
                walk(rhs)
            case Forall(_, body) | Exists(_, body):
                walk(body)
            case _:
                pass

    walk(f)
    return len(seen)


def struct_eq(a: Formula, b: Formula) -> bool:
    """Structural equality; node identity is deliberately not equality."""
    if type(a) is not type(b):
        return False
    match a:
        case Eq(l1, r1):
            return (l1, r1) == (b.lhs, b.rhs)
        case Init(n1, e1):
            return n1 == b.name and e1 == b.expr
        case And(cs) | Or(cs):
            return len(cs) == len(b.children) and all(
                struct_eq(x, y) for x, y in zip(cs, b.children))
        case Not(c) | K(c) | L(c) | F(c) | G(c):
            return struct_eq(c, b.child)
        case Until(l1, r1) | Implies(l1, r1) | W(l1, r1):
            return struct_eq(l1, b.lhs) and struct_eq(r1, b.rhs)
        case Forall(v, body) | Exists(v, body):
            return v == b.var and struct_eq(body, b.body)
        case Tt() | Ff():
            return True
    return False


# --------------------------------------------------------------------------
# Construction helpers (used by the policy encoders)


def conj(children) -> Formula:
    """Conjunction that drops trivial truths; empty means tt."""
    kept = [c for c in children
            if not isinstance(c, Tt) and not (isinstance(c, And) and not c.children)]
    if len(kept) == 1:
        return kept[0]
    return And(tuple(kept))


def disj(children) -> Formula:
    kept = [c for c in children if not isinstance(c, Ff)]
    if not kept:
        return Ff()
    if len(kept) == 1:
        return kept[0]
    return Or(tuple(kept))


def implies(lhs: Formula, rhs: Formula) -> Formula:
    if isinstance(lhs, Tt) or (isinstance(lhs, And) and not lhs.children):
        return rhs
    return Implies(lhs, rhs)


def foralls(vars_: list[str], body: Formula) -> Formula:
    for v in reversed(vars_):
        body = Forall(v, body)
    return body


# --------------------------------------------------------------------------
# Satisfaction


class _Plan:
    """A formula node compiled under its quantifier scope.

    ``free`` holds the bound variables free in the node; with ``at``, the
    memo position of a point (by default the one ``level`` implies), they
    key the memo.  ``reads`` holds the store identifiers the node's atoms
    read at the current point (by default its kids' when it is ``_POINT``,
    else none).  Atoms and connectives are cheaper to recompute than to
    look up, so only the other nodes set ``memo``.  ``compute`` is a plain
    function of the evaluation, the plan and the point, so plans hold no
    reference back to their evaluation.  ``args`` holds what it needs
    besides the kids.
    """

    __slots__ = ("formula", "compute", "kids", "level", "free", "reads", "key", "memo",
                 "args", "at")

    def __init__(self, formula: Formula, compute, kids: tuple = (), level: int = _CONST,
                 free: frozenset = frozenset(), memo: bool = False, args=None, at=None,
                 reads: frozenset | None = None):
        self.formula = formula
        self.compute = compute
        self.kids = kids
        self.level = level
        self.free = free
        if reads is None:
            reads = (frozenset().union(*(kid.reads for kid in kids)) if level == _POINT
                     else frozenset())
        self.reads = reads
        self.key = _getter(free)
        self.memo = memo
        self.args = args
        self.at = at or _AT[level]


@dataclass(frozen=True, eq=False)
class _Block:
    """Consecutive quantifiers of one kind, the guard of a forall split up.

    ``binders`` pairs a variable with the identifier whose initial value it
    takes.  The other variables, ``solve``, range over the assignments that
    satisfy ``pure`` (guard conjuncts over bound variables only), solved
    once per value of the variables ``outer`` reads.  ``checks`` are the
    rest of the guard.

    A possibility block (no binders, no checks, a pinned L body) splits
    the body's pins by identifier: ``fixed`` pins identifiers none of whose
    pinned expressions reads a solved variable, ``varying`` the others.
    ``spread`` reads the values the union of the varying pins over the
    guard's solutions depends on: ``outer``'s and those of the other bound
    variables the varying expressions read.
    """

    vars: tuple[str, ...]
    binders: tuple[tuple[str, str], ...]
    solve: tuple[str, ...]
    pure: tuple[_Plan, ...]
    outer: object
    checks: tuple[_Plan, ...]
    body: _Plan
    fixed: tuple = ()
    varying: tuple = ()
    spread: object = None


def _combined(kids) -> tuple[int, frozenset]:
    """The joined level and the union of the free variables of ``kids``."""
    level, free = _CONST, frozenset()
    for kid in kids:
        level = _join(level, kid.level)
        free |= kid.free
    return level, free


def _conjuncts(f: Formula) -> tuple[Formula, ...]:
    return f.children if isinstance(f, And) else (f,)


def _getter(names: frozenset):
    """Reads the values of ``names`` from a store or an environment; None
    for no names."""
    return itemgetter(*sorted(names)) if names else None


def _split_pins(body: _Plan, solve: frozenset, outer: frozenset) -> dict:
    """The ``fixed``, ``varying`` and ``spread`` of a possibility block
    whose pinned L is ``body``, solving ``solve``."""
    atoms = _conjuncts(body.formula.child)
    varying = {a.name for a in atoms if solve & set(expr_ids(a.expr))}
    spread = outer.union(*(expr_ids(a.expr) for a in atoms if a.name in varying))
    return {"fixed": tuple(pin for pin in body.args if pin[0] not in varying),
            "varying": tuple(pin for pin in body.args if pin[0] in varying),
            "spread": _getter(spread - solve)}


class Evaluation:
    """Memoizing evaluator over a single model, with one environment."""

    def __init__(self, model: Model):
        self.model = model
        self.domain: Domain = model.domain
        self.signature = set(model.program.variables) | set(model.program.flags)
        self.env: dict[str, object] = {}
        self.memo: dict[tuple, bool] = {}
        self.solved: dict[object, list[tuple]] = {}
        self.masks: dict[object, int] = {}
        self.every_run = (1 << len(model.executions)) - 1
        self.plans: dict[tuple[int, frozenset], _Plan] = {}
        self.points_visited = 0
        self.cache_hits = 0

    def stats(self, formula_nodes: int = 0) -> Stats:
        return Stats(self.points_visited, self.cache_hits, formula_nodes)

    def holds(self, p: _Plan, ex: Execution, i: int) -> bool:
        if not p.memo:
            return p.compute(self, p, ex, i)
        at = p.at(ex, i)
        key = (p, at) if p.key is None else (p, at, p.key(self.env))
        value = self.memo.get(key)
        if value is None:
            self.points_visited += 1
            value = self.memo[key] = p.compute(self, p, ex, i)
        else:
            self.cache_hits += 1
        return value

    # -- compilation ---------------------------------------------------------

    def compile(self, f: Formula, scope: frozenset = frozenset()) -> _Plan:
        """Check the node against the model's signature and domain, and plan it."""
        key = (id(f), scope)
        plan = self.plans.get(key)
        if plan is None:
            plan = self.plans[key] = self._compile(f, scope)
        return plan

    def _compile(self, f: Formula, scope: frozenset) -> _Plan:
        match f:
            case Eq(lhs, rhs):
                return self._atom(f, (lhs, rhs), _CONST, scope)
            case Init(name, expr):
                if name not in self.signature:
                    raise LogicError(f"init names unknown identifier {name!r}")
                return self._atom(f, (expr,), _EXEC, scope)
            case Tt() | Ff():
                return _Plan(f, Evaluation._constant, args=isinstance(f, Tt))
            case Not(child):
                return self._connective(f, Evaluation._not, (child,), scope)
            case And(children):
                return self._connective(f, Evaluation._and, children, scope)
            case Or(children):
                return self._connective(f, Evaluation._or, children, scope)
            case Implies(lhs, rhs):
                return self._connective(f, Evaluation._implies, (lhs, rhs), scope)
            case K(child) | L(child):
                kid = self.compile(child, scope)
                level = _CONST if kid.level == _CONST else _EPOCH
                if kid.level == _EXEC:
                    compute = (Evaluation._knows_runs if isinstance(f, K)
                               else Evaluation._possible_runs)
                    return _Plan(f, compute, (kid,), level, kid.free,
                                 args=self._pinned_run(child, scope))
                return _Plan(f, Evaluation._knows, (kid,), level, kid.free, memo=True,
                             args=isinstance(f, K))
            case F(child) | G(child):
                return self._temporal(f, Evaluation._eventually, (child,), scope, isinstance(f, G))
            case Until(lhs, rhs) | W(lhs, rhs):
                return self._temporal(f, Evaluation._until, (lhs, rhs), scope, isinstance(f, W))
            case Forall() | Exists():
                return self._block(f, scope)
        raise TypeError(f"not a formula: {f!r}")

    def _atom(self, f: Formula, exprs: tuple, fixed_level: int, scope: frozenset) -> _Plan:
        """An atom's level is ``fixed_level`` unless it reads the current store."""
        names: set[str] = set()
        for e in exprs:
            try:
                validate_expr(e, self.domain, self.signature | scope)
            except LangError as err:
                raise LogicError(f"formula atom {expr_to_source(e)!r}: {err}") from err
            names.update(expr_ids(e))
        compute = Evaluation._eq if isinstance(f, Eq) else Evaluation._init
        reads = frozenset(names - scope)
        return _Plan(f, compute, level=_POINT if reads else fixed_level,
                     free=frozenset(names & scope), reads=reads,
                     args=tuple(compile_expr(e, self.domain) for e in exprs))

    def _connective(self, f: Formula, compute, children, scope: frozenset) -> _Plan:
        kids = tuple(self.compile(c, scope) for c in children)
        return _Plan(f, compute, kids, *_combined(kids))

    def _temporal(self, f: Formula, compute, children, scope: frozenset, flag: bool) -> _Plan:
        """The scan steps over the run with ``_changes``, reading the store
        identifiers its children read.  Children fixed per run and epoch
        make the scan so too."""
        kids = tuple(self.compile(c, scope) for c in children)
        level, free = _combined(kids)
        plan = _Plan(f, compute, kids, _RUN_EPOCH if level == _EPOCH else level, free,
                     memo=True)
        plan.args = (flag, _getter(plan.reads))
        return plan

    def _pinned_run(self, child: Formula, scope: frozenset):
        """(identifier, compiled expression) pairs of the K/L child, when it is
        a conjunction of init atoms over bound values naming every variable."""
        parts = _conjuncts(child)
        if not all(isinstance(a, Init) and set(expr_ids(a.expr)) <= scope for a in parts):
            return None
        if {a.name for a in parts} != set(self.model.variables):
            return None
        return tuple((a.name, compile_expr(a.expr, self.domain)) for a in parts)

    def _block(self, f: Formula, scope: frozenset) -> _Plan:
        kind = type(f)
        names: list[str] = []
        node = f
        while isinstance(node, kind):
            if node.var in scope or node.var in names:
                raise LogicError(f"quantifier shadows {node.var!r}; rename the inner binder")
            names.append(node.var)
            node = node.body
        inner = scope | frozenset(names)
        guard: tuple[Formula, ...] = ()
        if kind is Forall and isinstance(node, Implies):
            guard, node = _conjuncts(node.lhs), node.rhs
        binders: dict[str, str] = {}
        pure: list[_Plan] = []
        checks: list[_Plan] = []
        for g in guard:
            plan = self.compile(g, inner)
            if (isinstance(g, Init) and isinstance(g.expr, Var) and g.expr.name in names
                    and g.expr.name not in binders):
                binders[g.expr.name] = g.name
            elif plan.level == _CONST:
                pure.append(plan)
            else:
                checks.append(plan)
        body = self.compile(node, inner)
        kids = (body, *pure, *checks)
        level, free = _combined(kids)
        at = None
        if binders:
            if level in (_CONST, _EPOCH):
                # the run matters only through the initial values read
                at = _init_values_at(tuple(subject for var, subject in binders.items()
                                           if var in free), level == _EPOCH)
            level = _join(level, _EXEC)
        solve = tuple(v for v in names if v not in binders)
        outer = frozenset().union(*(plan.free for plan in pure)) - frozenset(solve)
        pins = {}
        if kind is Exists:
            compute = Evaluation._exists
        elif (not binders and not checks and body.compute is Evaluation._possible_runs
                and body.args is not None):
            compute = Evaluation._all_possible
            pins = _split_pins(body, frozenset(solve), outer)
        else:
            compute = Evaluation._forall
        block = _Block(tuple(names), tuple(binders.items()), solve, tuple(pure),
                       _getter(outer), tuple(checks), body, **pins)
        return _Plan(f, compute, kids, level, free - frozenset(names), memo=True,
                     args=block, at=at)

    # -- node semantics ------------------------------------------------------

    def _scope(self, p: _Plan, store: dict) -> dict:
        """What the atom's expressions read: the environment when they read
        no store identifier, else the store with the atom's bound variables
        laid over it."""
        if not p.reads:
            return self.env
        if not p.free:
            return store
        return {**store, **{n: self.env[n] for n in p.free}}

    def _eq(self, p: _Plan, ex: Execution, i: int) -> bool:
        scope = self._scope(p, ex.stores[i])
        lhs, rhs = p.args
        return lhs(scope) == rhs(scope)

    def _init(self, p: _Plan, ex: Execution, i: int) -> bool:
        (value,) = p.args
        return ex.stores[0][p.formula.name] == value(self._scope(p, ex.stores[i]))

    def _constant(self, p: _Plan, ex: Execution, i: int) -> bool:
        return p.args

    def _not(self, p: _Plan, ex: Execution, i: int) -> bool:
        return not self.holds(p.kids[0], ex, i)

    def _and(self, p: _Plan, ex: Execution, i: int) -> bool:
        for kid in p.kids:
            if not self.holds(kid, ex, i):
                return False
        return True

    def _or(self, p: _Plan, ex: Execution, i: int) -> bool:
        for kid in p.kids:
            if self.holds(kid, ex, i):
                return True
        return False

    def _implies(self, p: _Plan, ex: Execution, i: int) -> bool:
        lhs, rhs = p.kids
        return not self.holds(lhs, ex, i) or self.holds(rhs, ex, i)

    def _knows(self, p: _Plan, ex: Execution, i: int) -> bool:
        """K (``args`` set): every point of the epoch; L: some point.

        A child fixed across the epoch is read at the current point.
        Otherwise each execution of the epoch is visited once, in run order
        (the bits of ``have``, lowest first): at its first position in the
        epoch for a child fixed per run and epoch, else over its whole block.
        """
        child, every = p.kids[0], p.args
        level = child.level
        if level == _CONST or level == _EPOCH:
            return self.holds(child, ex, i)
        tid = ex.trace_ids[i]
        executions, runs = self.model.executions, self.have[tid]
        while runs:
            other = executions[(runs & -runs).bit_length() - 1]
            runs &= runs - 1
            ids = other.trace_ids
            first = bisect_left(ids, tid)
            positions = ((first,) if level == _RUN_EPOCH
                         else range(first, bisect_right(ids, tid, first)))
            for k in positions:
                if self.holds(child, other, k) is not every:
                    return not every
        return every

    @cached_property
    def have(self) -> list[int]:
        """Per trace id, the mask of the runs that visit it."""
        have = [0] * len(self.model.trace_parents)
        for ex in self.model.executions:
            bit = 1 << ex.index
            for tid in set(ex.trace_ids):
                have[tid] |= bit
        return have

    @cached_property
    def runs_from(self) -> dict[str, dict[object, int]]:
        """Per identifier and value, the mask of the runs whose initial
        store holds that value."""
        runs: dict[str, dict[object, int]] = {n: {} for n in self.model.variables}
        for ex in self.model.executions:
            bit = 1 << ex.index
            init = ex.stores[0]
            for name, by_value in runs.items():
                value = init[name]
                by_value[value] = by_value.get(value, 0) | bit
        return runs

    def _sat(self, p: _Plan) -> int:
        """The mask of the runs where the run-fixed child of K/L ``p`` holds,
        under the current values of its bound variables.  A pinned child's
        one bit is cheaper to find again than to key, so only the masks of
        other children, each a pass over all runs, are kept."""
        if p.args is not None:
            return self._pinned_bit(p.args)
        key = (p, p.key(self.env)) if p.key is not None else p
        sat = self.masks.get(key)
        if sat is None:
            sat = 0
            for ex in self.model.executions:
                if self.holds(p.kids[0], ex, 0):
                    sat |= 1 << ex.index
            self.masks[key] = sat
        return sat

    def _pinned_bit(self, pinned) -> int:
        """The runs whose initial values the (identifier, expression) pairs
        pin: the AND of their masks.  Pins naming every variable leave the
        bit of one run, or 0 when two of them pin one identifier to
        different values."""
        env, runs_from = self.env, self.runs_from
        runs = self.every_run
        for name, fn in pinned:
            runs &= runs_from[name].get(fn(env), 0)
        return runs

    def _knows_runs(self, p: _Plan, ex: Execution, i: int) -> bool:
        """K of a child fixed along runs: every run of the epoch satisfies it."""
        return self.have[ex.trace_ids[i]] & ~self._sat(p) == 0

    def _possible_runs(self, p: _Plan, ex: Execution, i: int) -> bool:
        """L of a child fixed along runs: some run of the epoch satisfies it."""
        return self.have[ex.trace_ids[i]] & self._sat(p) != 0

    def _all_possible(self, p: _Plan, ex: Execution, i: int) -> bool:
        """A forall block of pinned L bodies: every run the instances pin
        visits the epoch.

        An instance pins the runs of its fixed pins and of its varying
        ones, so the instances pin ``fixed & union``, where ``union`` is the
        OR of the varying pins over the guard's solutions, kept per solved
        guard.  The model holds every initial store, so an instance pins no
        run only when one side contradicts itself; that makes the block
        false, and a guard that admits no instance makes it true.
        """
        block: _Block = p.args
        key = block if block.spread is None else (block, block.spread(self.env))
        union = self.masks.get(key)
        if union is None:
            union = 0
            for _ in self._instances(p, ex, i):
                # -1 marks an instance whose varying pins contradict
                union |= self._pinned_bit(block.varying) or -1
            self.masks[key] = union
        if union <= 0:
            return union == 0
        fixed = self._pinned_bit(block.fixed)
        return fixed != 0 and fixed & union & ~self.have[ex.trace_ids[i]] == 0

    def _eventually(self, p: _Plan, ex: Execution, i: int) -> bool:
        """F, or G when ``args[0]`` is set."""
        child, (always, read) = p.kids[0], p.args
        for j in _changes(ex, i, read):
            if self.holds(child, ex, j) is not always:
                return not always
        return always

    def _until(self, p: _Plan, ex: Execution, i: int) -> bool:
        """U, or W when ``args[0]`` is set."""
        lhs, rhs = p.kids
        weak, read = p.args
        for j in _changes(ex, i, read):
            if self.holds(rhs, ex, j):
                return True
            if not self.holds(lhs, ex, j):
                return False
        return weak

    def _forall(self, p: _Plan, ex: Execution, i: int) -> bool:
        body = p.args.body
        for _ in self._instances(p, ex, i):
            if not self.holds(body, ex, i):
                return False
        return True

    def _exists(self, p: _Plan, ex: Execution, i: int) -> bool:
        body = p.args.body
        for _ in self._instances(p, ex, i):
            if self.holds(body, ex, i):
                return True
        return False

    def _instances(self, p: _Plan, ex: Execution, i: int):
        """Bind the block's variables to each assignment its guard admits."""
        block: _Block = p.args
        env = self.env
        init = ex.stores[0]
        for var, subject in block.binders:
            env[var] = init[subject]
        for values in self._solutions(block, ex, i):
            env.update(zip(block.solve, values))
            if all(self.holds(check, ex, i) for check in block.checks):
                yield

    def _solutions(self, block: _Block, ex: Execution, i: int):
        space = itertools.product(self.domain.values, repeat=len(block.solve))
        if not block.pure:
            return space
        key = block if block.outer is None else (block, block.outer(self.env))
        found = self.solved.get(key)
        if found is None:
            found = []
            for values in space:
                self.env.update(zip(block.solve, values))
                if all(self.holds(c, ex, i) for c in block.pure):
                    found.append(values)
            self.solved[key] = found
        return found


def satisfies(model: Model, pt: Point, f: Formula) -> bool:
    """Does the formula hold at the point?  The model must be clean."""
    if model.tainted:
        raise LogicError("satisfaction undefined on models with non-terminated executions")
    ev = Evaluation(model)
    return ev.holds(ev.compile(f), pt.execution, pt.index)


def model_satisfies(model: Model, f: Formula) -> Verdict:
    """Check the formula, then evaluate it at the first point of every execution.

    Fails fast with a witness; refuses tainted models.
    """
    ev = Evaluation(model)
    root = ev.compile(f)
    size = formula_size(f)
    if model.tainted:
        bad = next(e for e in model.executions if e.status.value != "terminated")
        return Verdict(
            Outcome.BOUND_EXCEEDED, None, Stats(formula_nodes=size),
            f"execution from {model.store_text(bad.init_store)} is {bad.status.value}")
    for ex in model.executions:
        if not ev.holds(root, ex, 0):
            witness = _extract_witness(ev, root, ex)
            return Verdict(Outcome.FAILS, witness, ev.stats(size))
    return Verdict(Outcome.HOLDS, None, ev.stats(size))


def _extract_witness(ev: Evaluation, root: _Plan, ex: Execution) -> Witness:
    """Chase the falsified formula to a concrete point and its bindings.

    Stops at atoms and at epistemic nodes: their failure is the whole
    epoch's.
    """
    bindings: list[tuple[str, object]] = []
    step = (root, 0, False)
    while step is not None:
        p, i, expect = step
        step = _decisive(ev, p, ex, i, expect, bindings)
    return Witness(
        kind="epistemic",
        stores=(("initial", tuple(
            (n, ex.init_store[n]) for n in ev.model.variables)),),
        point_index=i,
        trace=ev.model.trace_tuple(ex.trace_ids[i]),
        bindings=tuple(bindings),
    )


def _decisive(ev: Evaluation, p: _Plan, ex: Execution, i: int, expect: bool,
              bindings: list):
    """The child, point and value that make ``p`` evaluate to ``expect``.

    Through a quantifier block that is the first assignment deciding it,
    whose bindings are recorded; through a temporal scan, the first point.
    """
    f, holds = p.formula, ev.holds
    match f:
        case Not():
            return p.kids[0], i, not expect
        case And() | Or() if expect == isinstance(f, Or):
            return next(((k, i, expect) for k in p.kids if holds(k, ex, i) == expect), None)
        case Implies():
            lhs, rhs = p.kids
            if expect and not holds(lhs, ex, i):
                return lhs, i, False
            return rhs, i, expect
        case Forall() | Exists() if expect == isinstance(f, Exists):
            body = p.args.body
            for _ in ev._instances(p, ex, i):
                if holds(body, ex, i) == expect:
                    bindings.extend((v, ev.env[v]) for v in p.args.vars)
                    return body, i, expect
        case F() | G() if expect == isinstance(f, F):
            child = p.kids[0]
            return next(((child, j, expect) for j in _changes(ex, i, p.args[1])
                         if holds(child, ex, j) == expect), None)
        case Until() | W() if expect == isinstance(f, Until):
            lhs, rhs = p.kids
            for j in _changes(ex, i, p.args[1]):
                if holds(rhs, ex, j):
                    return rhs, j, True
                if not holds(lhs, ex, j):
                    return lhs, j, False
    return None


# --------------------------------------------------------------------------
# Concrete syntax for formulas
#
# atoms:        e1 == e2   e1 != e2   init(x, e)   true   false
# connectives:  !p   p && q   p || q   p -> q (right-assoc)
# epistemic:    K p   L p
# temporal:     F p   G p   p U q   p W q (right-assoc, bind tighter than &&)
# quantifiers:  forall v . p   exists v . p (body extends right)
#
# Comparisons other than ==/!= live at the expression level; parenthesize
# them into an atom, e.g. (x < y) == tt.  A leading ! negates the formula,
# so expression-level negation on the left of == needs parentheses.


def parse_formula(text: str) -> Formula:
    from .lang import _Parser, _tokenize

    p = _Parser(_tokenize(text, primes=True))
    f = _parse_quantified(p)
    tok = p.peek()
    if tok.kind != "eof":
        p.fail(f"trailing input {tok.value!r}")
    return f


def _at_word(p, *words: str) -> bool:
    tok = p.peek()
    return tok.kind == "id" and tok.value in words


def _parse_quantified(p) -> Formula:
    if _at_word(p, "forall", "exists"):
        word = p.next().value
        var = p.expect("id").value
        p.expect("punct", ".")
        body = _parse_quantified(p)
        return Forall(var, body) if word == "forall" else Exists(var, body)
    return _parse_implies(p)


def _parse_implies(p) -> Formula:
    lhs = _parse_or(p)
    if p.at_punct("->"):
        p.next()
        return Implies(lhs, _parse_quantified(p))
    return lhs


def _parse_or(p) -> Formula:
    parts = [_parse_and(p)]
    while p.at_punct("||"):
        p.next()
        parts.append(_parse_and(p))
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def _parse_and(p) -> Formula:
    parts = [_parse_until(p)]
    while p.at_punct("&&"):
        p.next()
        parts.append(_parse_until(p))
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def _parse_until(p) -> Formula:
    lhs = _parse_unary(p)
    if _at_word(p, "U", "W"):
        word = p.next().value
        rhs = _parse_until(p)
        return Until(lhs, rhs) if word == "U" else W(lhs, rhs)
    return lhs


def _parse_unary(p) -> Formula:
    if p.at_punct("!"):
        p.next()
        return Not(_parse_unary(p))
    if _at_word(p, "K", "L", "F", "G"):
        word = p.next().value
        child = _parse_unary(p)
        return {"K": K, "L": L, "F": F, "G": G}[word](child)
    return _parse_atom(p)


def _parse_atom(p) -> Formula:
    from .lang import ParseError

    tok = p.peek()
    if tok.kind == "kw" and tok.value in ("tt", "true"):
        p.next()
        return Tt()
    if tok.kind == "kw" and tok.value in ("ff", "false"):
        p.next()
        return Ff()
    if _at_word(p, "init"):
        p.next()
        p.expect("punct", "(")
        name = p.expect("id").value
        p.expect("punct", ",")
        expr = p.expression()
        p.expect("punct", ")")
        return Init(name, expr)
    if p.at_punct("("):
        save = p.pos
        try:
            return _comparison(p)
        except ParseError:
            p.pos = save
        p.next()
        inner = _parse_quantified(p)
        p.expect("punct", ")")
        return inner
    return _comparison(p)


def _comparison(p) -> Formula:
    lhs = p.cmp_expr()
    if isinstance(lhs, Binary) and lhs.op == "==":
        return Eq(lhs.lhs, lhs.rhs)
    if isinstance(lhs, Binary) and lhs.op == "!=":
        return Not(Eq(lhs.lhs, lhs.rhs))
    p.fail("formula atom must compare two expressions")


def formula_to_source(f: Formula, dom: Domain | None = None) -> str:
    def p(node: Formula) -> str:
        src = formula_to_source(node, dom)
        if isinstance(node, (Eq, Init, Tt, Ff, Not, K, L, F, G)):
            return src
        return f"({src})"

    match f:
        case Eq(lhs, rhs):
            return f"{_eq_side(lhs, dom, True)} == {_eq_side(rhs, dom, False)}"
        case Init(name, expr):
            return f"init({name}, {expr_to_source(expr, dom)})"
        case And(children):
            return " && ".join(p(c) for c in children) if children else "true"
        case Or(children):
            return " || ".join(p(c) for c in children) if children else "false"
        case Not(child):
            return f"!{p(child)}"
        case K(child):
            return f"K {p(child)}"
        case L(child):
            return f"L {p(child)}"
        case F(child):
            return f"F {p(child)}"
        case G(child):
            return f"G {p(child)}"
        case Until(lhs, rhs):
            return f"{p(lhs)} U {p(rhs)}"
        case W(lhs, rhs):
            return f"{p(lhs)} W {p(rhs)}"
        case Implies(lhs, rhs):
            return f"{p(lhs)} -> {p(rhs)}"
        case Forall(var, body):
            return f"forall {var} . {formula_to_source(body, dom)}"
        case Exists(var, body):
            return f"exists {var} . {formula_to_source(body, dom)}"
        case Tt():
            return "true"
        case Ff():
            return "false"
    raise TypeError(f"not a formula: {f!r}")


def _eq_side(e: Expr, dom: Domain | None, left: bool) -> str:
    """One side of ``==``, parenthesized where it would not read back: an
    operator binding looser than ``==`` (a comparison, ``&&``, ``||``), and
    on the left a ``!`` or a boolean literal, which the formula parser
    would read as a negation or a truth constant."""
    src = expr_to_source(e, dom)
    loose = isinstance(e, Binary) and e.op not in ("+", "-", "*", "mod")
    formula_word = left and (isinstance(e, Unary) and e.op == "!"
                             or isinstance(e, Const) and isinstance(e.value, bool))
    return f"({src})" if loose or formula_word else src
