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
models before asking for satisfaction.  A verdict asks the root at the
start of the first run of each part of the runs that the root cannot
tell apart (``model_satisfies``, ``Model.parts``): the classes of live
inputs, split by the dead inputs the root reads.  A dead input is left
out for a node that reads it only through variables bound under the node
that no atom but an ``init`` of that input reads, and no ``init`` of it
reads the node's free variables (``Evaluation._merge_symmetric``):
permuting its values maps the model and the node onto themselves (Ip and
Dill, "Better verification through symmetry", 1996), so the runs that
differ only in it share the node's value.  One rule serves three readers:
the root's split; K and L scanning an epoch, which likewise visit the
first run of each part of it, split by the dead inputs their child
reads but for the symmetric ones; and every memo key, which leaves them
out of the initial values it keys on.  ``have`` is built per class of
runs, so no clone of the model is made unless a split lists it.

Before evaluation each node is checked like a program expression
(identifiers, operators, literals) and compiled under its quantifier
scope, against the program before its model is built: the model then
keeps at each point only the identifiers some plan reads there
(``Evaluation.reads``).  Values are memoized per node, keyed as coarsely as soundness
allows, plus the values of the bound variables free in the node.  A node
whose atoms read no store at the current point sees of its run only the
run's behaviour (its trace ids, one list that the runs with equal trace
ids share) and the initial values its ``init`` atoms and binders read.
Its key is the trace id when it is fixed across an epoch (K and L, and
what is built from them), the behaviour when it steps along the run (a
temporal operator, or a node above one), and the initial values it reads
of all but the dead inputs symmetric for it; runs that agree on these
share one evaluation.  Only nodes that read the
current store are kept per point.  A closed node (one that reads no store,
no initial value, no bound variable, and is neither built on K or L nor a
scan) has one value everywhere, and planning folds it to that value: an
equality that reads no identifier; Not, Implies, And and Or that closed
kids decide (And and Or also drop closed kids of their neutral value and
stay themselves over the rest); U and W whose goal is closed and true.
A quantifier block is not folded; its memo asks a closed one once.  A
witness chase stops at a folded node, as at an atom: where an open kid
comes before the closed kid that decides their parent, the witness is the
parent's point, not one the open kid's scan would reach.  These rules keep
quantifiers, knowledge and scans cheap:

* ``forall v1 ... vk. guard -> body`` is one block.  A guard conjunct
  ``init_x(v)`` binds ``v`` to the run's own initial ``x``, so the block
  reads the initial ``x`` when its parts use ``v``.  Conjuncts over bound
  variables only are solved as a hash join.  An equality between a near
  side, which reads variables the block solves, and a far side, which
  reads none, is a key; any other such conjunct filters.  The product of
  the solved variables is enumerated once per value of the outer
  variables the near sides and filters read, and grouped by the near
  sides' values; an instance takes the group under its far sides' values.
  For espm's agreement guard the groups are the alternatives' classes
  under the declassified property, built once, not once per premise.  A
  folded guard conjunct is a filter.  A block whose guard only binds (espm's
  premise: nothing solved, no check) has one instance: it binds and asks
  its body, without enumerating an empty product.
* K and L over ``init`` atoms over bound values on variables (not flags)
  work on sets of runs, held as int bitmasks (bit k for run k).  ``have``
  is the mask of the runs that visit a trace id, which each evaluation
  builds once per behaviour, ORing the runs of its classes into each
  trace id it visits.  Per identifier and value, the model's
  ``runs_from`` is the mask of the runs starting with that value, so the
  atoms name the AND of their masks, ``pinned``: none when two atoms
  disagree.  Then L is ``have & pinned != 0``, K ``have & ~pinned == 0``.
* A forall block with no binders and no checks whose body is an L that
  pins every variable (one run per instance, or none) asks whether every
  run its instances pin visits the epoch.  Its pins split by identifier:
  fixed ones read no variable the guard solves, varying ones do.  The
  instances pin ``fixed & union``, where ``union`` is the OR of the
  varying pins' masks over the guard's solutions, built and kept once per
  group of solutions: per value of the far sides, of the outer variables
  the near sides and filters read, and of the variables the varying pins
  read besides the solved ones.  So a premise met again finds it at once,
  and espm's premises that agree on the declassified property share one
  union.  The block holds when ``fixed & union & ~have == 0``.  The model
  holds every initial store, so an instance pins no run only when the
  fixed side or its varying side contradicts itself; that makes the block
  false, and a guard that admits no instance makes it true.
* K and L over a body fixed across the epoch (one that reads no store, no
  initial value and no scan) are the body itself: the observer's relation
  is an equivalence, so ``K p``, ``L p`` and ``p`` agree at every point
  (Fagin, Halpern, Moses and Vardi, "Reasoning About Knowledge", 1995).
  Any other K/L body, one that reads only initial values included, is
  checked over the block in the epoch of the first run of each part of
  the runs it cannot tell apart, from change to change as a temporal
  operator scans (below): once per part when it reads no store at the
  current point.
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
from functools import cached_property, partial
from operator import itemgetter

from .domain import Domain
from .lang import (Binary, Const, Expr, LangError, Node, Program, Unary, Var, compile_expr,
                   expr_ids, expr_to_source, validate_expr)
from .model import Execution, Model, Point
from .verdicts import Outcome, Stats, Verdict, Witness


class LogicError(ValueError):
    pass


# The memo positions of a node that reads no store at the current point,
# by (fixed per epoch, scans, reads initial values): each keeps only the
# parts of a point the node depends on.
_POSITIONS = {
    (False, False, False): lambda values, ex, i: None,
    (True, False, False): lambda values, ex, i: ex.trace_ids[i],
    (False, True, False): lambda values, ex, i: id(ex.trace_ids),
    (True, True, False): lambda values, ex, i: (ex.trace_ids[i], id(ex.trace_ids)),
    (False, False, True): lambda values, ex, i: values(ex.init_store),
    (True, False, True): lambda values, ex, i: (ex.trace_ids[i], values(ex.init_store)),
    (False, True, True): lambda values, ex, i: (id(ex.trace_ids), values(ex.init_store)),
    (True, True, True): lambda values, ex, i: (ex.trace_ids[i], id(ex.trace_ids),
                                               values(ex.init_store)),
}


def _position(p: _Plan, inits: frozenset):
    """The memo position of a point for ``p``: the point itself when ``p``
    reads the store there, else the trace id when ``p`` is fixed per epoch,
    the behaviour (the trace-id list runs with equal trace ids share) when
    it scans, and the initial values of ``inits``, those of ``p.inits``
    that tell its runs apart."""
    if p.reads:
        return lambda ex, i: (ex.index, i)
    return partial(_POSITIONS[p.epoch, p.scans, bool(inits)], _getter(inits))


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


class Formula(Node):
    """A formula node: immutable, hashable, equal by type and fields (``lang.Node``)."""

    __slots__ = ()


class Eq(Formula):
    __slots__ = ("lhs", "rhs")
    lhs: Expr
    rhs: Expr


class Init(Formula):
    __slots__ = ("name", "expr")
    name: str
    expr: Expr


class And(Formula):
    __slots__ = ("children",)
    children: tuple[Formula, ...]


class Not(Formula):
    __slots__ = ("child",)
    child: Formula


class K(Formula):
    __slots__ = ("child",)
    child: Formula


class Until(Formula):
    __slots__ = ("lhs", "rhs")
    lhs: Formula
    rhs: Formula


class Tt(Formula):
    __slots__ = ()


class Ff(Formula):
    __slots__ = ()


class Or(Formula):
    __slots__ = ("children",)
    children: tuple[Formula, ...]


class Implies(Formula):
    __slots__ = ("lhs", "rhs")
    lhs: Formula
    rhs: Formula


class Forall(Formula):
    __slots__ = ("var", "body")
    var: str
    body: Formula


class Exists(Formula):
    __slots__ = ("var", "body")
    var: str
    body: Formula


class L(Formula):
    __slots__ = ("child",)
    child: Formula


class F(Formula):
    __slots__ = ("child",)
    child: Formula


class G(Formula):
    __slots__ = ("child",)
    child: Formula


class W(Formula):
    __slots__ = ("lhs", "rhs")
    lhs: Formula
    rhs: Formula


_ONE_CHILD = frozenset((Not, K, L, F, G))
_TWO_CHILDREN = frozenset((Until, Implies, W))


def formula_size(f: Formula) -> int:
    """Distinct nodes reachable from the root (shared subtrees count once),
    counted without recursion."""
    seen: set[int] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        kind = type(node)
        if kind is And or kind is Or:
            stack += node.children
        elif kind in _ONE_CHILD:
            stack.append(node.child)
        elif kind in _TWO_CHILDREN:
            stack += (node.lhs, node.rhs)
        elif kind is Forall or kind is Exists:
            stack.append(node.body)
    return len(seen)


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


_NONE: frozenset = frozenset()


class _Plan:
    """A formula node compiled under its quantifier scope.

    Five facts say what its value depends on: ``free``, the bound variables
    free in it; ``reads``, the store identifiers its atoms read at the
    current point; ``inits``, the identifiers whose initial value it reads;
    ``epoch``, whether it is built on K or L (fixed per trace id); and
    ``scans``, whether it steps along the run.  Each is the union of the
    kids' unless ``given``.  A node with none of the last four is constant,
    and closed when ``free`` is empty too: planning folds a closed node to
    its value (``_constant``, the value in ``args``) wherever its kind
    allows.  Atoms and connectives are cheaper to recompute than to look
    up, so only the other nodes are memoized: ``at`` gives the memo position of a point
    (None for the rest), ``key`` the values of ``free``.  ``compute`` is a
    plain function of the evaluation, the plan and the point, so plans hold
    no reference back to their evaluation.  ``args`` holds what it needs
    besides the kids.
    """

    __slots__ = ("formula", "compute", "kids", "args", "free", "reads", "inits", "epoch",
                 "scans", "key", "at")

    def __init__(self, formula: Formula, compute, kids: tuple = (), args=None,
                 memo: bool = False, **given):
        self.formula = formula
        self.compute = compute
        self.kids = kids
        self.args = args
        free = reads = inits = _NONE
        epoch = scans = False
        for kid in kids:
            free |= kid.free
            reads |= kid.reads
            inits |= kid.inits
            epoch = epoch or kid.epoch
            scans = scans or kid.scans
        self.free, self.reads, self.inits = free, reads, inits
        self.epoch, self.scans = epoch, scans
        for fact, value in given.items():
            setattr(self, fact, value)
        self.key = _getter(self.free)
        self.at = _position(self, self.inits) if memo else None

    @property
    def constant(self) -> bool:
        return not (self.reads or self.inits or self.epoch or self.scans)


def _folded(p: _Plan):
    """The value of ``p`` when planning folded it, else None."""
    return p.args if p.compute is Evaluation._constant else None


def _fold(f: Formula, value: bool) -> _Plan:
    return _Plan(f, Evaluation._constant, args=value)


@dataclass(frozen=True, eq=False)
class _Block:
    """Consecutive quantifiers of one kind, the guard of a forall split up.

    ``binders`` pairs a variable with the identifier whose initial value it
    takes.  The other variables, ``solve``, range over the assignments that
    satisfy ``pure`` (guard conjuncts over bound variables only).  Those
    equalities whose one side reads solved variables and other side none
    are keys: ``near`` gives the tuple of the first sides' values, ``far``
    of the second sides'.  The rest of ``pure`` are ``filters``.  Per value
    of the variables ``outer`` reads (the outer variables the near sides
    and filters read) the assignments that pass the filters are grouped by
    their ``near``; the solutions are the group under ``far``.  ``checks``
    are the rest of the guard.

    A possibility block (no binders, no checks, an L body that pins every
    variable) splits the body's pins by identifier: ``fixed`` pins
    identifiers none of whose pinned expressions reads a solved variable,
    ``varying`` the others.  The union of the varying pins over the
    guard's solutions depends on the solutions and on the other bound
    variables the varying expressions read.  ``group`` reads the values of
    ``outer``'s variables and of those other variables; with the ``far``
    values it names the same union for every premise whose solutions are
    one group.
    """

    vars: tuple[str, ...]
    binders: tuple[tuple[str, str], ...]
    solve: tuple[str, ...]
    pure: tuple[_Plan, ...]
    filters: tuple[_Plan, ...]
    near: object
    far: object
    outer: object
    checks: tuple[_Plan, ...]
    body: _Plan
    fixed: tuple = ()
    varying: tuple = ()
    group: object = None


# K and L read no store, initial value or scan of the current run, only
# its trace id
_EPISTEMIC = {"reads": _NONE, "inits": _NONE, "epoch": True, "scans": False}


def _conjuncts(f: Formula) -> tuple[Formula, ...]:
    return f.children if isinstance(f, And) else (f,)


def _getter(names: frozenset):
    """Reads the values of ``names`` from a store or an environment; None
    for no names."""
    return itemgetter(*sorted(names)) if names else None


def _values(fns: tuple):
    """Reads the tuple of the values of compiled expressions ``fns`` in an
    environment.  A possibility block reads its ``far`` at every call, so
    one value or none is read without a comprehension (a frame before 3.12)."""
    if not fns:
        return lambda env: ()
    if len(fns) == 1:
        return lambda env, fn=fns[0]: (fn(env),)
    return lambda env: tuple([fn(env) for fn in fns])


def _key_sides(plan: _Plan, solve: frozenset):
    """The (expression, compiled) pairs of the near and far side of the
    pure guard conjunct ``plan`` when it is a key: an equality whose near
    side reads a variable of ``solve`` and whose far side reads none.
    None for any other conjunct, a folded one included."""
    if plan.compute is not Evaluation._eq:
        return None
    f = plan.formula
    lhs, rhs = zip((f.lhs, f.rhs), plan.args)
    reads_solved = not solve.isdisjoint(expr_ids(f.lhs))
    if reads_solved == solve.isdisjoint(expr_ids(f.rhs)):
        return (lhs, rhs) if reads_solved else (rhs, lhs)
    return None


def _parts(p: _Plan) -> tuple[_Plan, ...]:
    """The plans of the conjuncts of ``p``: its kids when it is a
    conjunction, which planning may have thinned, else ``p`` alone."""
    return p.kids if isinstance(p.formula, And) else (p,)


def _split_pins(body: _Plan, solve: frozenset, outer: frozenset) -> dict:
    """The ``fixed``, ``varying`` and ``group`` of a possibility block whose
    pinned L is ``body``, solving ``solve``, whose near sides and filters
    read the outer variables ``outer``."""
    atoms = [a.formula for a in _parts(body.kids[0])]
    varying = {a.name for a in atoms if solve & set(expr_ids(a.expr))}
    pinning = frozenset().union(*(expr_ids(a.expr) for a in atoms if a.name in varying))
    return {"fixed": tuple(pin for pin in body.args[1] if pin[0] not in varying),
            "varying": tuple(pin for pin in body.args[1] if pin[0] in varying),
            "group": _getter((outer | pinning) - solve)}


class Evaluation:
    """Memoizing evaluator with one environment.  It plans formulas against
    a program and domain, so that the model can be built keeping what the
    plans read, then is bound to that model and evaluates over it."""

    def __init__(self, program: Program, domain: Domain):
        self.program = program
        self.domain = domain
        self.signature = set(program.variables) | set(program.flags)
        self.model: Model | None = None
        self.env: dict[str, object] = {}
        self.memo: dict[tuple, bool] = {}
        self.solved: dict[object, dict[tuple, list[tuple]]] = {}
        self.masks: dict[object, int] = {}
        self.every_run = 0
        self.plans: dict[tuple[int, frozenset], tuple[Formula, _Plan]] = {}
        # the store identifiers the plans read at the current point, which
        # the model must keep: K and L hide their kids' reads, so this is
        # the union over every plan, not the root's
        self.reads: frozenset[str] = _NONE
        # per plan, the dead inputs it reads initially whose runs share its
        # value (``_merge_symmetric``)
        self.merged: dict[_Plan, frozenset[str]] = {}
        self.points_visited = 0
        self.cache_hits = 0

    def bind(self, model: Model) -> Evaluation:
        """Evaluate over ``model``, a model of the program, from now on;
        when it has dead inputs, merge the runs that differ only in those
        symmetric for a plan (``_merge_symmetric``)."""
        model.require(self.reads, "the formula")
        self.model = model
        self.every_run = (1 << len(model.runs)) - 1
        if model.dead:
            self._merge_symmetric(frozenset(model.dead))
        return self

    def _merge_symmetric(self, dead: frozenset) -> None:
        """Find, per plan, the inputs of ``dead`` it reads initially that
        are symmetric for it (``merged``), and leave them out of its memo
        position and, for a K or L child, out of the parts its epoch walk
        visits.  A dead input ``d`` is symmetric for a plan ``p`` when
        (a) no atom under ``p``, K and L included, reads ``d`` at a point;
        (b) every ``init`` atom on ``d`` under ``p``, a guard's binder
        included, takes a bound variable; (c) no other atom reads such a
        variable that a block under ``p`` binds, and no such variable is
        taken by the ``init`` atoms of two inputs; (d) no variable free in
        ``p`` is taken by an ``init`` atom on ``d`` under ``p``.

        ``d`` is written before it is read, so permuting its values maps
        the model onto itself.  By (a)-(d) the same permutation of the
        values of the variables that ``d``'s atoms take, all bound under
        ``p``, maps ``p``'s instances onto each other and fixes every other
        atom, so ``p`` has one value at the runs that differ only in ``d``
        (Ip and Dill, "Better verification through symmetry", 1996).

        The facts are gathered bottom up, in the order the plans were
        made: per plan, the dead inputs (a)-(c) rule out, the variables
        free in it that ``init`` atoms take, with their inputs, and the
        variables free in it that other atoms read."""
        facts: dict[_Plan, tuple] = {}
        merged = self.merged = {}
        for _, p in self.plans.values():
            if p in facts:
                continue
            split, taken, other = p.reads & dead, {}, _NONE
            f = p.formula
            if p.compute is Evaluation._init and isinstance(f.expr, Var) and p.free:
                taken = {f.expr.name: frozenset((f.name,))}
            elif p.compute is Evaluation._init or p.compute is Evaluation._eq:
                other = p.free
                if isinstance(f, Init) and f.name in dead:
                    split |= {f.name}
            for kid in p.kids:
                kid_split, kid_taken, kid_other = facts[kid]
                split, other = split | kid_split, other | kid_other
                for var, inputs in kid_taken.items():
                    taken[var] = taken.get(var, _NONE) | inputs
            block = p.args
            if isinstance(block, _Block):
                for var, subject in block.binders:
                    taken[var] = taken.get(var, _NONE) | {subject}
                for var in block.vars:
                    inputs = taken.pop(var, _NONE)
                    if var in other or len(inputs) > 1:
                        split |= inputs & dead
                other -= set(block.vars)
            facts[p] = split, taken, other
            symmetric = p.inits & dead - split - frozenset().union(*taken.values())
            if symmetric:
                merged[p] = symmetric
                if p.at is not None:
                    p.at = _position(p, p.inits - symmetric)
            if p.compute is Evaluation._knows and p.kids[0] in merged:
                every, read, names = p.args
                p.args = every, read, names - merged[p.kids[0]]

    def stats(self, formula_nodes: int = 0) -> Stats:
        return Stats(self.points_visited, self.cache_hits, formula_nodes)

    def holds(self, p: _Plan, ex: Execution, i: int) -> bool:
        if p.at is None:
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
        """Check the node against the model's signature and domain, and plan
        it.  The table holds each node it keys by ``id``, so no key is reused
        while the evaluation lives (K and L may be planned as their child):
        a node shared by several parents is planned once per scope.  Each
        use of an atom checks and compiles its expressions anew, under the
        scope it is planned in."""
        key = (id(f), scope)
        entry = self.plans.get(key)
        if entry is None:
            entry = self.plans[key] = (f, self._compile(f, scope))
            self.reads |= entry[1].reads
        return entry[1]

    def _compile(self, f: Formula, scope: frozenset) -> _Plan:
        match f:
            case Eq(lhs, rhs):
                return self._atom(f, (lhs, rhs), scope)
            case Init(name, expr):
                self._subject(name)
                return self._atom(f, (expr,), scope)
            case Tt() | Ff():
                return _fold(f, isinstance(f, Tt))
            case Not(child):
                kid = self.compile(child, scope)
                value = _folded(kid)
                return _Plan(f, Evaluation._not, (kid,)) if value is None else _fold(f, not value)
            case And(children) | Or(children):
                return self._junction(f, children, scope)
            case Implies(lhs, rhs):
                kids = self._kids((lhs, rhs), scope)
                premise, conclusion = map(_folded, kids)
                if premise is False or conclusion is True:
                    return _fold(f, True)
                if premise is True and conclusion is False:
                    return _fold(f, False)
                return _Plan(f, Evaluation._implies, kids)
            case K(child) | L(child):
                kid = self.compile(child, scope)
                if not (kid.reads or kid.inits or kid.scans):
                    # fixed across the epoch, so K p = L p = p: the
                    # observer's relation is an equivalence
                    return kid
                every, pins = isinstance(f, K), self._pins(kid)
                if pins is not None:
                    return _Plan(f, Evaluation._pinned_knows, (kid,), (every, pins), **_EPISTEMIC)
                args = (every, _getter(kid.reads), kid.reads | kid.inits)
                return _Plan(f, Evaluation._knows, (kid,), args, True, **_EPISTEMIC)
            case F(child) | G(child):
                return self._temporal(f, Evaluation._eventually, (child,), scope, isinstance(f, G))
            case Until(lhs, rhs) | W(lhs, rhs):
                return self._temporal(f, Evaluation._until, (lhs, rhs), scope, isinstance(f, W))
            case Forall() | Exists():
                return self._block(f, scope)
        raise TypeError(f"not a formula: {f!r}")

    def _subject(self, name: str) -> None:
        """Refuse an ``init`` atom whose identifier the program lacks."""
        if name not in self.signature:
            raise LogicError(f"init names unknown identifier {name!r}")

    def _atom(self, f: Formula, exprs: tuple, scope: frozenset) -> _Plan:
        """An equality that reads no identifier is closed: compiled
        expressions are total on the domain, so it is folded now."""
        names: set[str] = set()
        for e in exprs:
            try:
                validate_expr(e, self.domain, self.signature | scope)
            except LangError as err:
                raise LogicError(f"formula atom {expr_to_source(e)!r}: {err}") from err
            names.update(expr_ids(e))
        if self.model is not None:  # planned after binding
            self.model.require(frozenset(names - scope), "the formula")
        fns = tuple(compile_expr(e, self.domain) for e in exprs)
        if isinstance(f, Init):
            return _Plan(f, Evaluation._init, args=fns, free=frozenset(names & scope),
                         reads=frozenset(names - scope), inits=frozenset((f.name,)))
        if not names:
            lhs, rhs = fns
            return _fold(f, lhs({}) == rhs({}))
        return _Plan(f, Evaluation._eq, args=fns, free=frozenset(names & scope),
                     reads=frozenset(names - scope))

    def _kids(self, children, scope: frozenset) -> tuple[_Plan, ...]:
        # map spends no frame of its own: a level of nesting costs compile,
        # _compile, the caller and this method
        return tuple(map(self.compile, children, itertools.repeat(scope)))

    def _junction(self, f: Formula, children, scope: frozenset) -> _Plan:
        """And or Or.  A folded kid of the absorbing value folds the node
        to it.  Folded kids of the neutral value are dropped, and a node left
        with no kid folds to that value; otherwise it stays itself over the
        kids left, so a witness chased through it takes the same path."""
        absorbing = isinstance(f, Or)
        kids = self._kids(children, scope)
        values = [_folded(kid) for kid in kids]
        if absorbing in values:
            return _fold(f, absorbing)
        kids = tuple(kid for kid, value in zip(kids, values) if value is None)
        if not kids:
            return _fold(f, not absorbing)
        return _Plan(f, Evaluation._or if absorbing else Evaluation._and, kids)

    def _temporal(self, f: Formula, compute, children, scope: frozenset, flag: bool) -> _Plan:
        """The scan steps over the run with ``_changes``, reading the store
        identifiers its children read; over constant children it is
        constant.  U and W whose goal is closed and true hold at once, so
        they are folded."""
        kids = self._kids(children, scope)
        if len(kids) == 2 and _folded(kids[1]) is True:
            return _fold(f, True)
        plan = _Plan(f, compute, kids, memo=True, scans=not all(kid.constant for kid in kids))
        plan.args = (flag, _getter(plan.reads))
        return plan

    def _pins(self, kid: _Plan):
        """(identifier, compiled expression) pairs of the K or L child
        ``kid``, taken from its atoms' plans, when it is a conjunction of
        init atoms over bound values on variables (``runs_from`` has no
        release flag); else None."""
        parts = _parts(kid)
        if not all(isinstance(a.formula, Init) and not a.reads
                   and a.formula.name in self.program.variables for a in parts):
            return None
        return tuple((a.formula.name, a.args[0]) for a in parts)

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
            if (isinstance(g, Init) and isinstance(g.expr, Var) and g.expr.name in names
                    and g.expr.name not in binders):
                # a binder reads only the run's initial value, never a plan
                self._subject(g.name)
                binders[g.expr.name] = g.name
                continue
            plan = self.compile(g, inner)
            if plan.constant:
                pure.append(plan)
            else:
                checks.append(plan)
        body = self.compile(node, inner)
        kids = (body, *pure, *checks)
        free = frozenset().union(*(kid.free for kid in kids))
        inits = frozenset().union(
            (subject for var, subject in binders.items() if var in free),
            *(kid.inits for kid in kids))
        solve = tuple(v for v in names if v not in binders)
        solved = frozenset(solve)
        keys, filters = [], []
        for plan in pure:
            sides = _key_sides(plan, solved)
            if sides is None:
                filters.append(plan)
            else:
                keys.append(sides)
        outer = frozenset().union(*(plan.free for plan in filters),
                                  *(expr_ids(near[0]) for near, _ in keys)) - solved
        pins = {}
        if kind is Exists:
            compute = Evaluation._exists
        elif (not binders and not checks and body.compute is Evaluation._pinned_knows
              and not body.args[0]
              and {n for n, _ in body.args[1]} == set(self.program.variables)):
            compute = Evaluation._all_possible
            pins = _split_pins(body, solved, outer)
        elif not solve and not pure and not checks:
            compute = Evaluation._bound
        else:
            compute = Evaluation._forall
        block = _Block(tuple(names), tuple(binders.items()), solve, tuple(pure),
                       tuple(filters), _values(tuple(near[1] for near, _ in keys)),
                       _values(tuple(far[1] for _, far in keys)), _getter(outer),
                       tuple(checks), body, **pins)
        return _Plan(f, compute, kids, block, True, free=free - frozenset(names),
                     inits=inits)

    # -- node semantics ------------------------------------------------------

    def _scope(self, p: _Plan, ex: Execution, i: int) -> dict:
        """What the atom's expressions read: the environment when they read
        no store identifier, else the store at the point with the atom's
        bound variables laid over it."""
        if not p.reads:
            return self.env
        store = ex.stores[i]
        if not p.free:
            return store
        return {**store, **{n: self.env[n] for n in p.free}}

    def _eq(self, p: _Plan, ex: Execution, i: int) -> bool:
        scope = self._scope(p, ex, i)
        lhs, rhs = p.args
        return lhs(scope) == rhs(scope)

    def _init(self, p: _Plan, ex: Execution, i: int) -> bool:
        (value,) = p.args
        return ex.init_store[p.formula.name] == value(self._scope(p, ex, i))

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
        """K (``args[0]`` set): every point of the epoch; L: some point.
        Every K and L but those over pins (``_pinned_knows``) asks this.

        Each part of the runs of the epoch, split by what the child reads
        at a point or initially but for the dead inputs symmetric for it
        (``args[2]``, ``Model.parts``, ``_merge_symmetric``), is visited
        once, in run order (the bits of ``have``, lowest first), by its
        first run, over its block in the epoch: from change to change of
        the store identifiers the child reads (``args[1]``), so only at its
        first position when it reads none, as a child that reads only
        initial values does.
        """
        child, (every, read, names) = p.kids[0], p.args
        tid = ex.trace_ids[i]
        firsts = self.masks.get(names)
        if firsts is None:
            firsts = 0
            for part in self.model.parts(names):
                firsts |= 1 << part.first.index
            self.masks[names] = firsts
        listed, runs = self.model.runs, self.have[tid] & firsts
        while runs:
            other = listed[(runs & -runs).bit_length() - 1]
            runs &= runs - 1
            ids = other.trace_ids
            for k in _changes(other, bisect_left(ids, tid), read):
                if ids[k] != tid:
                    break
                if self.holds(child, other, k) is not every:
                    return not every
        return every

    @cached_property
    def have(self) -> list[int]:
        """Per trace id, the mask of the runs that visit it: each
        behaviour's mask of runs, the OR of its classes' (``class_mask``
        shifted to each first run), ORed into each trace id it visits."""
        behaviours: dict[int, list] = {}
        mask = self.model.class_mask
        for c in self.model.classes:
            entry = behaviours.setdefault(id(c.first.trace_ids), [c.first.trace_ids, 0])
            entry[1] |= mask << c.first.index
        have = [0] * len(self.model.trace_parents)
        for ids, runs in behaviours.values():
            for tid in set(ids):
                have[tid] |= runs
        return have

    def _pinned_bit(self, pinned) -> int:
        """The runs whose initial values the (identifier, expression) pairs
        pin: the AND of their masks, 0 when two of them pin one identifier
        to different values.  Pins naming every variable leave the bit of
        one run or none."""
        env, runs_from = self.env, self.model.runs_from
        runs = self.every_run
        for name, fn in pinned:
            runs &= runs_from[name].get(fn(env), 0)
        return runs

    def _pinned_knows(self, p: _Plan, ex: Execution, i: int) -> bool:
        """K (``args[0]`` set) or L over pins (``args[1]``): every run
        that visits the epoch is pinned, or some is."""
        have, pinned = self.have[ex.trace_ids[i]], self._pinned_bit(p.args[1])
        return have & ~pinned == 0 if p.args[0] else have & pinned != 0

    def _all_possible(self, p: _Plan, ex: Execution, i: int) -> bool:
        """A forall block of pinned L bodies: every run the instances pin
        visits the epoch.

        An instance pins the run of its fixed pins and its varying ones, so
        the instances pin ``fixed & union``, where ``union`` is the OR of
        the varying pins over the guard's solutions, kept per group of
        solutions (the ``far`` values, with ``group``'s): premises whose
        guards admit the same solutions build it once.  The model holds
        every initial store, so an instance pins no run only when one side
        contradicts itself; that makes the block false, and a guard that
        admits no instance makes it true.
        """
        block: _Block = p.args
        env, masks = self.env, self.masks
        key = (block, block.far(env), block.group and block.group(env))
        union = masks.get(key)
        if union is None:
            union = 0
            for _ in self._instances(p, ex, i):
                # -1 marks an instance whose varying pins contradict
                union |= self._pinned_bit(block.varying) or -1
            masks[key] = union
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

    def _bind(self, block: _Block, ex: Execution) -> None:
        """Bind the block's binders to the run's initial values."""
        env, init = self.env, ex.init_store
        for var, subject in block.binders:
            env[var] = init[subject]

    def _bound(self, p: _Plan, ex: Execution, i: int) -> bool:
        """A forall block whose guard only binds its variables to the run's
        initial values has one instance: bind them and ask the body."""
        self._bind(p.args, ex)
        return self.holds(p.args.body, ex, i)

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
        self._bind(block, ex)
        for values in self._solutions(block, ex, i):
            env.update(zip(block.solve, values))
            if all(self.holds(check, ex, i) for check in block.checks):
                yield

    def _solutions(self, block: _Block, ex: Execution, i: int):
        """The assignments of the solved variables the pure guard admits,
        in product order.  The product passes through the filters once per
        value of ``outer``, grouped by the near sides' values; each group is
        the solutions of the far sides' values that equal them.  Domain
        values are ints and bools, whose hashes agree with ``==``."""
        space = itertools.product(self.domain.values, repeat=len(block.solve))
        if not block.pure:
            return space
        env = self.env
        key = block if block.outer is None else (block, block.outer(env))
        groups = self.solved.get(key)
        if groups is None:
            groups = {}
            for values in space:
                env.update(zip(block.solve, values))
                if all(self.holds(c, ex, i) for c in block.filters):
                    groups.setdefault(block.near(env), []).append(values)
            self.solved[key] = groups
        return groups.get(block.far(env), ())


def satisfies(model: Model, pt: Point, f: Formula) -> bool:
    """Does the formula hold at the point?  The model must be clean."""
    if model.tainted:
        raise LogicError("satisfaction undefined on models with non-terminated executions")
    ev = Evaluation(model.program, model.domain)
    root = ev.compile(f)
    return ev.bind(model).holds(root, pt.execution, pt.index)


def model_satisfies(model: Model, f: Formula, ev: Evaluation | None = None) -> Verdict:
    """Check the formula, then evaluate it at the first point of every execution.

    ``ev``, when given, planned the formula against the model's program
    before the model was built.  Fails fast with a witness; refuses tainted
    models.

    The root is asked once per part of the runs (``Model.parts``): the
    classes of live inputs, split by the dead inputs the root reads at the
    current point or initially, but for those symmetric for it
    (``Evaluation._merge_symmetric``).  The runs of a part take the same
    steps and agree on all the root reads, so they get one answer; a
    symmetric input's values can be permuted without changing the model or
    the root's value, so the runs that differ only in it get one answer
    too.  No clone is made unless such a split lists it, and asking the
    first run of each part in run order keeps the first failing run, and
    so the witness.  A part whose behaviour and the initial values its root
    keys on an earlier part shares is answered from the memo.
    """
    if ev is None:
        ev = Evaluation(model.program, model.domain)
    root = ev.compile(f)
    ev.bind(model)
    size = formula_size(f)
    note = model.refusal
    if note is not None:
        return Verdict(Outcome.BOUND_EXCEEDED, None, Stats(formula_nodes=size), note)
    for part in model.parts(root.reads | root.inits - ev.merged.get(root, _NONE)):
        if not ev.holds(root, part.first, 0):
            witness = _extract_witness(ev, root, part.first)
            return Verdict(Outcome.FAILS, witness, ev.stats(size))
    return Verdict(Outcome.HOLDS, None, ev.stats(size))


def _extract_witness(ev: Evaluation, root: _Plan, ex: Execution) -> Witness:
    """Chase the falsified formula to a concrete point and its bindings.

    Stops at atoms and at epistemic nodes, whose failure is the whole
    epoch's, and at nodes planning folded.
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
    None at an atom, an epistemic node and a node planning folded.
    """
    f, holds = p.formula, ev.holds
    if p.compute is Evaluation._constant:
        return None
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
    f = _parse_formula(p)
    tok = p.peek()
    if tok.kind != "eof":
        p.fail(f"trailing input {tok.value!r}")
    return f


# How tightly each binary connective binds, loosest first.  -> and U/W
# group right; || and && take any number of operands.
_CONNECTIVES = {"->": 1, "||": 2, "&&": 3, "U": 4, "W": 4}


def _at_word(p, *words: str) -> bool:
    tok = p.peek()
    return tok.kind == "id" and tok.value in words


def _parse_formula(p, lowest: int = 1) -> Formula:
    """The connectives binding at least as tightly as ``lowest``, by
    precedence climbing.  A quantifier, whose body extends right, starts
    only where any formula may: at the top, in parentheses, or after ->."""
    if lowest == 1 and _at_word(p, "forall", "exists"):
        p.enter()
        word = p.next().value
        var = p.expect("id").value
        p.expect("punct", ".")
        body = _parse_formula(p)
        p.depth -= 1
        return Forall(var, body) if word == "forall" else Exists(var, body)
    node = _parse_unary(p)
    while True:
        tok = p.peek()
        binding = _CONNECTIVES.get(tok.value) if tok.kind in ("punct", "id") else None
        if binding is None or binding < lowest:
            return node
        p.next()
        if tok.value in ("||", "&&"):
            parts = [node, _parse_formula(p, binding + 1)]
            while p.at_punct(tok.value):
                p.next()
                parts.append(_parse_formula(p, binding + 1))
            node = (Or if tok.value == "||" else And)(tuple(parts))
        else:
            p.enter()
            rhs = _parse_formula(p, binding)
            p.depth -= 1
            node = {"->": Implies, "U": Until, "W": W}[tok.value](node, rhs)


def _parse_unary(p) -> Formula:
    if p.at_punct("!") or _at_word(p, "K", "L", "F", "G"):
        p.enter()
        word = p.next().value
        child = _parse_unary(p)
        p.depth -= 1
        return Not(child) if word == "!" else {"K": K, "L": L, "F": F, "G": G}[word](child)
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
        save = p.pos, p.depth
        try:
            return _comparison(p)
        except ParseError:
            p.pos, p.depth = save
        p.enter()
        p.next()
        inner = _parse_formula(p)
        p.expect("punct", ")")
        p.depth -= 1
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
