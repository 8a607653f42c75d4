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
a K/L formula is constant across an epoch -- plus the values of the bound
variables free in the node.  Three rules keep quantifiers cheap:

* ``forall v1 ... vk. guard -> body`` is one block.  A guard conjunct
  ``init_x(v)`` binds ``v`` to the run's own initial ``x``; conjuncts over
  bound variables only are solved once per value of their outer variables.
* ``L`` of ``init`` atoms over bound values that pin every variable asks
  whether that one run visits the current epoch.
* A K/L formula whose body is fixed along executions is checked once per
  execution of the epoch rather than once per point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .domain import Domain
from .lang import (Expr, LangError, Var, eval_expr, expr_ids, expr_to_source,
                   validate_expr)
from .model import Execution, Model, Point
from .verdicts import Outcome, Stats, Verdict, Witness


class LogicError(ValueError):
    pass


# Memoization granularity, ordered by how much of a point's identity the
# value depends on.  EXEC and EPOCH are incomparable; their join is POINT.
_CONST, _EXEC, _EPOCH, _POINT = 0, 1, 2, 3


def _join(a: int, b: int) -> int:
    if {a, b} == {_EXEC, _EPOCH}:
        return _POINT
    return max(a, b)


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


def formula_identifiers(f: Formula) -> set[str]:
    """Free identifiers: expression variables plus init subjects."""
    names: set[str] = set()
    bound: list[str] = []

    def walk(node: Formula) -> None:
        match node:
            case Eq(lhs, rhs):
                names.update(n for n in expr_ids(lhs) + expr_ids(rhs) if n not in bound)
            case Init(name, expr):
                names.add(name)
                names.update(n for n in expr_ids(expr) if n not in bound)
            case And(children) | Or(children):
                for c in children:
                    walk(c)
            case Not(child) | K(child) | L(child) | F(child) | G(child):
                walk(child)
            case Until(lhs, rhs) | Implies(lhs, rhs) | W(lhs, rhs):
                walk(lhs)
                walk(rhs)
            case Forall(var, body) | Exists(var, body):
                bound.append(var)
                walk(body)
                bound.pop()
            case Tt() | Ff():
                pass

    walk(f)
    return names


# --------------------------------------------------------------------------
# Satisfaction


class _Plan:
    """A formula node compiled under its quantifier scope.

    ``free`` holds the bound variables free in the node; with ``level`` they
    key the memo.  Atoms and connectives are cheaper to recompute than to
    look up, so only the other nodes set ``memo``.  ``args`` holds what the
    node's ``compute`` needs besides its kids.
    """

    __slots__ = ("formula", "compute", "kids", "level", "free", "key", "memo", "args")

    def __init__(self, formula: Formula, compute, kids: tuple = (), level: int = _CONST,
                 free: frozenset = frozenset(), memo: bool = False, args=None):
        self.formula = formula
        self.compute = compute
        self.kids = kids
        self.level = level
        self.free = free
        self.key = itemgetter(*sorted(free)) if free else None
        self.memo = memo
        self.args = args


@dataclass(frozen=True, eq=False)
class _Block:
    """Consecutive quantifiers of one kind, the guard of a forall split up.

    ``binders`` pairs a variable with the identifier whose initial value it
    takes.  The other variables, ``solve``, range over the assignments that
    satisfy ``pure`` (guard conjuncts over bound variables only), solved
    once per value of the variables ``outer`` reads.  ``checks`` are the
    rest of the guard.
    """

    vars: tuple[str, ...]
    binders: tuple[tuple[str, str], ...]
    solve: tuple[str, ...]
    pure: tuple[_Plan, ...]
    outer: object
    checks: tuple[_Plan, ...]
    body: _Plan


def _conjuncts(f: Formula) -> tuple[Formula, ...]:
    return f.children if isinstance(f, And) else (f,)


class Evaluation:
    """Memoizing evaluator over a single model, with one environment."""

    def __init__(self, model: Model):
        self.model = model
        self.domain: Domain = model.domain
        self.signature = set(model.program.variables) | set(model.program.flags)
        self.env: dict[str, object] = {}
        self.memo: dict[tuple, bool] = {}
        self.solved: dict[object, list[tuple]] = {}
        self.plans: dict[tuple[int, frozenset], _Plan] = {}
        self.points_visited = 0
        self.cache_hits = 0

    def stats(self, formula_nodes: int = 0) -> Stats:
        return Stats(self.points_visited, self.cache_hits, formula_nodes)

    def holds(self, p: _Plan, ex: Execution, i: int) -> bool:
        if not p.memo:
            return p.compute(p, ex, i)
        level = p.level
        if level == _CONST:
            at = None
        elif level == _EXEC:
            at = ex.index
        elif level == _EPOCH:
            at = ex.trace_ids[i]
        else:
            at = (ex.index, i)
        key = (p, at) if p.key is None else (p, at, p.key(self.env))
        value = self.memo.get(key)
        if value is None:
            self.points_visited += 1
            value = self.memo[key] = p.compute(p, ex, i)
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
                return _Plan(f, self._constant, args=isinstance(f, Tt))
            case Not(child):
                return self._connective(f, self._not, (child,), scope)
            case And(children):
                return self._connective(f, self._and, children, scope)
            case Or(children):
                return self._connective(f, self._or, children, scope)
            case Implies(lhs, rhs):
                return self._connective(f, self._implies, (lhs, rhs), scope)
            case K(child) | L(child):
                kid = self.compile(child, scope)
                level = _CONST if kid.level == _CONST else _EPOCH
                pinned = self._pinned_run(child, scope) if isinstance(f, L) else None
                if pinned is not None:
                    return _Plan(f, self._possible_run, (kid,), level, kid.free, args=pinned)
                return _Plan(f, self._knows, (kid,), level, kid.free, memo=True,
                             args=isinstance(f, K))
            case F(child) | G(child):
                return self._temporal(f, self._eventually, (child,), scope, isinstance(f, G))
            case Until(lhs, rhs) | W(lhs, rhs):
                return self._temporal(f, self._until, (lhs, rhs), scope, isinstance(f, W))
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
        compute = self._eq if isinstance(f, Eq) else self._init
        return _Plan(f, compute, level=_POINT if names - scope else fixed_level,
                     free=frozenset(names & scope))

    def _connective(self, f: Formula, compute, children, scope: frozenset) -> _Plan:
        kids = tuple(self.compile(c, scope) for c in children)
        level, free = _CONST, frozenset()
        for kid in kids:
            level = _join(level, kid.level)
            free |= kid.free
        return _Plan(f, compute, kids, level, free)

    def _temporal(self, f: Formula, compute, children, scope: frozenset, flag: bool) -> _Plan:
        plan = self._connective(f, compute, children, scope)
        plan.level = plan.level if plan.level <= _EXEC else _POINT
        plan.memo = True
        plan.args = flag
        return plan

    def _pinned_run(self, child: Formula, scope: frozenset):
        """(identifier, expression) pairs of the L child, when it is a
        conjunction of init atoms over bound values naming every variable."""
        parts = _conjuncts(child)
        if not all(isinstance(a, Init) and set(expr_ids(a.expr)) <= scope for a in parts):
            return None
        if {a.name for a in parts} != set(self.model.variables):
            return None
        return tuple((a.name, a.expr) for a in parts)

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
        level = _EXEC if binders else _CONST
        free = frozenset()
        for plan in (body, *pure, *checks):
            level = _join(level, plan.level)
            free |= plan.free
        solve = tuple(v for v in names if v not in binders)
        outer = frozenset().union(*(plan.free for plan in pure)) - frozenset(solve)
        block = _Block(tuple(names), tuple(binders.items()), solve, tuple(pure),
                       itemgetter(*sorted(outer)) if outer else None, tuple(checks), body)
        compute = self._forall if kind is Forall else self._exists
        return _Plan(f, compute, (body, *pure, *checks), level, free - frozenset(names),
                     memo=True,
                     args=block)

    # -- node semantics ------------------------------------------------------

    def _scope(self, p: _Plan, store: dict) -> dict:
        """The store with the atom's bound variables laid over it."""
        if not p.free:
            return store
        return {**store, **{n: self.env[n] for n in p.free}}

    def _eq(self, p: _Plan, ex: Execution, i: int) -> bool:
        scope = self._scope(p, ex.stores[i])
        f = p.formula
        return eval_expr(scope, f.lhs, self.domain) == eval_expr(scope, f.rhs, self.domain)

    def _init(self, p: _Plan, ex: Execution, i: int) -> bool:
        f = p.formula
        return ex.stores[0][f.name] == eval_expr(
            self._scope(p, ex.stores[i]), f.expr, self.domain)

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
        """K (``args`` set): every point of the epoch; L: some point."""
        child, every = p.kids[0], p.args
        model = self.model
        tid = ex.trace_ids[i]
        if child.level == _CONST:
            return self.holds(child, ex, i)
        if child.level == _EXEC:
            executions = model.executions
            points = ((executions[j], 0) for j in model.epoch_exec_ids[tid])
        else:
            points = ((pt.execution, pt.index) for pt in model.epochs[tid])
        for other, k in points:
            if self.holds(child, other, k) is not every:
                return not every
        return every

    def _possible_run(self, p: _Plan, ex: Execution, i: int) -> bool:
        """L of a pinned initial store: does that run visit the current epoch?"""
        values: dict[str, object] = {}
        for name, expr in p.args:
            value = eval_expr(self.env, expr, self.domain)
            if values.setdefault(name, value) != value:
                return False
        model = self.model
        target = model.exec_by_values.get(tuple(values[n] for n in model.variables))
        return target is not None and ex.trace_ids[i] in target.trace_id_set

    def _eventually(self, p: _Plan, ex: Execution, i: int) -> bool:
        """F, or G when ``args`` is set."""
        child, always = p.kids[0], p.args
        for j in range(i, len(ex) + 1):
            if self.holds(child, ex, j) is not always:
                return not always
        return always

    def _until(self, p: _Plan, ex: Execution, i: int) -> bool:
        """U, or W when ``args`` is set."""
        lhs, rhs = p.kids
        for j in range(i, len(ex) + 1):
            if self.holds(rhs, ex, j):
                return True
            if not self.holds(lhs, ex, j):
                return False
        return p.args

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
    if model.tainted:
        bad = next(e for e in model.executions if e.status.value != "terminated")
        return Verdict(
            Outcome.BOUND_EXCEEDED, None, Stats(),
            f"execution from {_store_note(model, bad)} is {bad.status.value}")
    size = formula_size(f)
    for ex in model.executions:
        if not ev.holds(root, ex, 0):
            witness = _extract_witness(ev, root, ex)
            return Verdict(Outcome.FAILS, witness, ev.stats(size))
    return Verdict(Outcome.HOLDS, None, ev.stats(size))


def _store_note(model: Model, ex: Execution) -> str:
    dom = model.domain
    pairs = ", ".join(
        f"{n}={dom.format_value(ex.init_store[n])}" for n in model.variables)
    return f"({pairs})"


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
            return next(((child, j, expect) for j in range(i, len(ex) + 1)
                         if holds(child, ex, j) == expect), None)
        case Until() | W() if expect == isinstance(f, Until):
            lhs, rhs = p.kids
            for j in range(i, len(ex) + 1):
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

    p = _Parser(_tokenize(text))
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
    from .lang import Binary

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
            return f"{expr_to_source(lhs, dom)} == {expr_to_source(rhs, dom)}"
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
