"""Reference implementations the tests cross-check the package against.

``eval_expr`` is the expression semantics as a direct recursive
interpreter, sharing no code with the package's compiled expressions; the
other references evaluate through it.  ``run`` is a big-step interpreter
written against the language semantics directly (recursive,
trace-accumulating).  ``step`` is the AST-rewriting small-step semantics
and ``reference_runs`` the model's runs built with it, keyed by residual
program for lasso detection.  ``unshared_runs`` runs the compiled program
once per initial store with a private lasso table, cloning no run and
sharing no trace-id list, as the model's builder must agree with.
``holds`` evaluates formulas straight from the logic's definitions,
sharing nothing with the package's evaluator.
``esp`` and ``espm`` are the paper's uncertainty formulas, built anew on
each call, and ``ak_formula`` and ``akd_formula`` the paper's ak and akd:
``G`` of each.  ``akr_formula`` is akr as the paper writes it, one
implication per set of release flags under one G.  ``aktd_formula`` is
aktd with a fresh ``espm`` per set of declassifications, sharing no node
between them.  The package has one encoder, aktd over a list of
conditions with one shared ``espm`` scaffold, and these are what it is
compared with.
``guard_solutions`` solves a quantifier block's guard of equalities by
trying every assignment of the whole product in turn through
``eval_expr``, grouping and keeping nothing, for the evaluator's hash join
to be compared with.
``release_failure`` and ``temporal_failure`` judge er and nitd point by
point, at every position of every run against every low-equal partner.
None of them shares code with the package's compiled programs, so
agreement with any of them is meaningful (``unshared_runs`` excepted:
it checks only the builder's clones and shared trace-id lists).
"""

from __future__ import annotations

import itertools

from epiflow import logic as lg
from epiflow.domain import Domain, Label, TERMINATION_MARK
from epiflow.lang import (ASSIGN, BRANCH, EXIT, compile_program)
from epiflow.lang import (Assign, Binary, Const, Expr, HashCall, If, Out,
                          OutLit, Program, Release, Seq, Skip, Stmt, Unary,
                          Var, While, expr_to_source)
from epiflow.policies import InitPredicate, PolicyError


def eval_expr(store: dict, e: Expr, dom: Domain):
    """Value of ``e`` in ``store``; total on the configured domain.

    Integer results wrap into the canonical range, comparisons yield the
    domain's encoding of tt/ff, and ``x mod 0`` is defined as ``x``.
    """
    match e:
        case Const(v):
            return dom.bool_value(v) if isinstance(v, bool) else v
        case Var(name):
            return store[name]
        case Unary("!", arg):
            return dom.bool_value(not dom.truth(eval_expr(store, arg, dom)))
        case Unary("-", arg):
            return dom.normalize(-eval_expr(store, arg, dom))
        case HashCall(arg):
            return dom.hash_value(eval_expr(store, arg, dom))
        case Binary(op, lhs, rhs):
            a = eval_expr(store, lhs, dom)
            b = eval_expr(store, rhs, dom)
            match op:
                case "&&":
                    return dom.bool_value(dom.truth(a) and dom.truth(b))
                case "||":
                    return dom.bool_value(dom.truth(a) or dom.truth(b))
                case "==":
                    return dom.bool_value(a == b)
                case "!=":
                    return dom.bool_value(a != b)
                case "<":
                    return dom.bool_value(a < b)
                case "<=":
                    return dom.bool_value(a <= b)
                case ">":
                    return dom.bool_value(a > b)
                case ">=":
                    return dom.bool_value(a >= b)
                case "+":
                    return dom.normalize(a + b)
                case "-":
                    return dom.normalize(a - b)
                case "*":
                    return dom.normalize(a * b)
                case "mod":
                    return dom.normalize(a % b) if b != 0 else a
    raise TypeError(f"not an expression: {e!r}")


def step(p: Stmt, store: dict, dom: Domain):
    """One execution step, or None when the configuration is terminal.

    Returns ``(p', store', event)`` where ``event`` is the emitted output
    value, if any.  Sequencing drops finished heads so that each step
    corresponds to one base statement.
    """
    match p:
        case Skip():
            return None
        case Out(expr):
            return Skip(), store, eval_expr(store, expr, dom)
        case OutLit(text):
            return Skip(), store, Label(text)
        case Assign(name, expr):
            new = dict(store)
            new[name] = eval_expr(store, expr, dom)
            return Skip(), new, None
        case Release(flag):
            new = dict(store)
            new[flag] = dom.true_value
            return Skip(), new, None
        case If(guard, then, orelse):
            branch = then if dom.truth(eval_expr(store, guard, dom)) else orelse
            return branch, store, None
        case While(guard, body):
            if dom.truth(eval_expr(store, guard, dom)):
                return Seq(body, p), store, None
            return Skip(), store, None
        case Seq(first, second):
            head = step(first, store, dom)
            if head is None:  # first is a finished skip chain
                return step(second, store, dom)
            p1, store1, ev = head
            if isinstance(p1, Skip):
                return second, store1, ev
            return Seq(p1, second), store1, ev
    raise TypeError(f"not a statement: {p!r}")


def reference_runs(program: Program, dom: Domain, bound: int,
                   termination_output: bool = False):
    """Every run of the program by ``step``, as the model enumerates them.

    Returns ``(runs, trace_parents)``; each run is a dict with the keys
    ``stores``, ``events``, ``status``, ``lasso_entry`` and ``trace_ids``
    (status as the ``Status`` value string).  A run is a lasso when a
    (residual program, store) configuration repeats.
    """
    names, flags = program.variables, program.flags
    trace_parents: list = [(-1, None)]
    table: dict = {}

    def extend(tid, event):
        key = (tid, event)
        if key not in table:
            table[key] = len(trace_parents)
            trace_parents.append(key)
        return table[key]

    runs = []
    for values in itertools.product(dom.values, repeat=len(names)):
        store = dict(zip(names, values))
        store.update((f, dom.false_value) for f in flags)
        current = program.body
        stores, events, trace_ids = [store], [], [0]
        seen = {(current, tuple(store.values())): 0}
        status, entry = "terminated", None
        while True:
            result = step(current, store, dom)
            if result is None:
                break
            if len(events) >= bound:
                status = "bound-exceeded"
                break
            current, store, event = result
            stores.append(store)
            events.append(event)
            trace_ids.append(trace_ids[-1] if event is None else extend(trace_ids[-1], event))
            key = (current, tuple(store.values()))
            if key in seen:
                status, entry = "lasso", seen[key]
                break
            seen[key] = len(events)
        if status == "terminated" and termination_output:
            stores.append(store)
            events.append(TERMINATION_MARK)
            trace_ids.append(extend(trace_ids[-1], TERMINATION_MARK))
        runs.append({"stores": stores, "events": events, "status": status,
                     "lasso_entry": entry, "trace_ids": trace_ids})
    return runs, trace_parents


def unshared_runs(program: Program, cfg):
    """Every run of the compiled program, each from its own initial store.

    Returns ``(runs, trace_parents)``; each run is a dict with the fields
    of ``Execution`` other than the model (status as ``Status``).  A run is
    a lasso when a (program counter, store values) configuration of its
    own repeats; nothing is shared between runs.
    """
    from epiflow.model import Status

    dom = cfg.domain
    names, flags = program.variables, program.flags
    code = compile_program(program, dom)
    trace_parents: list = [(-1, None)]
    table: dict = {}

    def extend(tid, event):
        key = (tid, event)
        if key not in table:
            table[key] = len(trace_parents)
            trace_parents.append(key)
        return table[key]

    runs = []
    for index, values in enumerate(itertools.product(dom.values, repeat=len(names))):
        store = dict(zip(names, values))
        store.update((f, dom.false_value) for f in flags)
        pc, tid = code.entry, 0
        stores, events, trace_ids = [store], [], [0]
        seen = {(pc, tuple(store.values())): 0}
        status, entry = Status.TERMINATED, None
        while pc != EXIT:
            if len(events) >= cfg.bound:
                status = Status.BOUND_EXCEEDED
                break
            op, fn, name, nxt, other = code.instrs[pc]
            event = None
            if op is BRANCH:
                pc = nxt if fn(store) else other
            elif op is ASSIGN:
                store = {**store, name: fn(store)}
                pc = nxt
            else:
                event = fn(store)
                tid = extend(tid, event)
                pc = nxt
            stores.append(store)
            events.append(event)
            trace_ids.append(tid)
            first = seen.setdefault((pc, tuple(store.values())), len(events))
            if first != len(events):
                status, entry = Status.LASSO, first
                break
        if status is Status.TERMINATED and cfg.termination_output:
            stores.append(store)
            events.append(TERMINATION_MARK)
            trace_ids.append(extend(tid, TERMINATION_MARK))
        runs.append({"index": index, "stores": stores, "events": events,
                     "status": status, "lasso_entry": entry, "trace_ids": trace_ids})
    return runs, trace_parents


class Diverged(Exception):
    pass


def run(stmt: Stmt, store: dict, dom: Domain, fuel: int = 10_000):
    """Return (trace, final store); raise Diverged when fuel runs out."""
    trace: list = []
    store = dict(store)
    budget = [fuel]

    def go(s: Stmt) -> None:
        if budget[0] <= 0:
            raise Diverged
        budget[0] -= 1
        if isinstance(s, Skip):
            return
        if isinstance(s, Out):
            trace.append(eval_expr(store, s.expr, dom))
            return
        if isinstance(s, OutLit):
            trace.append(Label(s.text))
            return
        if isinstance(s, Assign):
            store[s.name] = eval_expr(store, s.expr, dom)
            return
        if isinstance(s, Release):
            store[s.flag] = dom.true_value
            return
        if isinstance(s, Seq):
            go(s.first)
            go(s.second)
            return
        if isinstance(s, If):
            go(s.then if dom.truth(eval_expr(store, s.guard, dom)) else s.orelse)
            return
        if isinstance(s, While):
            while dom.truth(eval_expr(store, s.guard, dom)):
                if budget[0] <= 0:
                    raise Diverged
                budget[0] -= 1
                go(s.body)
            return
        raise TypeError(f"not a statement: {s!r}")

    go(stmt)
    return tuple(trace), store


def holds(model, f, ex, i: int, env: dict | None = None, memo: dict | None = None) -> bool:
    """Reference satisfaction: the logic's definitions, evaluated naively.

    Quantifiers try every value, K and L scan every point of the epoch,
    temporal operators scan the rest of the run; nothing is recognized by
    shape.  Bound variables shadow program identifiers.

    Each answer is remembered in ``memo`` by (formula node, run index,
    position, bound values), so a subformula is evaluated once per point
    however deeply K and L nest.  The entry holds the node, so its id is
    not reused while the memo lives.  Pass one dict to every call over the
    same model to share answers between them; by default each call has
    its own.
    """
    env = env or {}
    memo = {} if memo is None else memo
    key = (id(f), ex.index, i, tuple(env.items()))
    if key not in memo:
        memo[key] = (f, _satisfied(model, f, ex, i, env, memo))
    return memo[key][1]


def _satisfied(model, f, ex, i: int, env: dict, memo: dict) -> bool:
    """The definition of each connective, with ``holds`` for the parts."""
    dom = model.domain

    def value(e, k):
        # on a model that keeps no store per point, atoms read bound values only
        return eval_expr({**(ex.stores[k] if ex.stores is not None else {}), **env}, e, dom)

    def epoch():
        tid = ex.trace_ids[i]
        return [(o, k) for o in model.executions
                for k in range(len(o) + 1) if o.trace_ids[k] == tid]

    def at(g, other=ex, k=i, extra=None):
        return holds(model, g, other, k, {**env, **(extra or {})}, memo)

    rest = range(i, len(ex) + 1)
    match f:
        case lg.Eq(lhs, rhs):
            return value(lhs, i) == value(rhs, i)
        case lg.Init(name, expr):
            return ex.init_store[name] == value(expr, i)
        case lg.Tt():
            return True
        case lg.Ff():
            return False
        case lg.Not(g):
            return not at(g)
        case lg.And(gs):
            return all(at(g) for g in gs)
        case lg.Or(gs):
            return any(at(g) for g in gs)
        case lg.Implies(a, b):
            return not at(a) or at(b)
        case lg.K(g):
            return all(at(g, o, k) for o, k in epoch())
        case lg.L(g):
            return any(at(g, o, k) for o, k in epoch())
        case lg.F(g):
            return any(at(g, ex, j) for j in rest)
        case lg.G(g):
            return all(at(g, ex, j) for j in rest)
        case lg.Until(a, b) | lg.W(a, b):
            for j in rest:
                if at(b, ex, j):
                    return True
                if not at(a, ex, j):
                    return False
            return isinstance(f, lg.W)
        case lg.Forall(v, g):
            return all(at(g, extra={v: x}) for x in dom.values)
        case lg.Exists(v, g):
            return any(at(g, extra={v: x}) for x in dom.values)
    raise TypeError(f"not a formula: {f!r}")


def guard_solutions(dom: Domain, guard, names, env: dict) -> list[tuple]:
    """The assignments of the bound variables ``names``, as value tuples
    in product order, under which every equality of ``guard`` (over bound
    variables only) holds, the other bound variables taken from ``env``.
    Every assignment of the product is tried; nothing is grouped by value
    or kept between calls."""
    found = []
    for values in itertools.product(dom.values, repeat=len(names)):
        bound = {**env, **dict(zip(names, values))}
        if all(eval_expr(bound, g.lhs, dom) == eval_expr(bound, g.rhs, dom) for g in guard):
            found.append(values)
    return found


def _renamed(e: Expr, names: dict) -> Expr:
    match e:
        case Const():
            return e
        case Var(name):
            return Var(names.get(name, name))
        case Unary(op, arg):
            return Unary(op, _renamed(arg, names))
        case HashCall(arg):
            return HashCall(_renamed(arg, names))
        case Binary(op, lhs, rhs):
            return Binary(op, _renamed(lhs, names), _renamed(rhs, names))
    raise TypeError(f"not an expression: {e!r}")


def _inits(names, values) -> lg.Formula:
    return lg.conj(tuple(lg.Init(n, Var(v)) for n, v in zip(names, values)))


def esp(fs, dom):
    """Every initial secret is possible, for the actual public inputs:
    forall l'. (init_l(l') -> forall h''. L(init_l(l') && init_h(h'')))."""
    low_vars = [n + "'" for n in fs.low]
    high_vars = [n + "''" for n in fs.high]
    possible = lg.L(_inits(fs.low + fs.high, low_vars + high_vars))
    return lg.foralls(low_vars, lg.implies(_inits(fs.low, low_vars),
                                           lg.foralls(high_vars, possible)))


def espm(fixed_low, high, predicates, dom):
    """Every initial secret agreeing on the predicates is possible:
    forall l' h'. init_l(l') && init_h(h') ->
        forall h''. (p[l', h'] == p[l', h''] for each p) -> L(init_l(l') && init_h(h''))."""
    names = tuple(fixed_low) + tuple(high)
    premise = {n: n + "'" for n in names}
    alternative = {**premise, **{n: n + "''" for n in high}}
    agreements = []
    for p in predicates:
        outside = [n for n in p.ids if n not in premise]
        if outside:
            raise PolicyError(f"declassification {p.label!r} mentions {outside[0]!r}, "
                              "which is neither fixed-public nor secret")
        agreements += [lg.Eq(_renamed(e, premise), _renamed(e, alternative)) for e in p.exprs]
    possible = lg.L(_inits(names, [alternative[n] for n in names]))
    return lg.foralls([premise[n] for n in names], lg.implies(
        _inits(names, [premise[n] for n in names]),
        lg.foralls([alternative[n] for n in high],
                   lg.implies(lg.conj(tuple(agreements)), possible))))


def ak_formula(fs, dom):
    """Absence of knowledge: G esp."""
    return lg.G(esp(fs, dom))


def akd_formula(fs, predicates, dom):
    """Absence of knowledge modulo the declassified predicates: G espm."""
    return lg.G(espm(fs.low, fs.high, predicates, dom))


def akr_formula(fs, rs, dom):
    """G of, for each set S of release flags, (the set flags are exactly S)
    -> espm modulo the expressions the flags in S release."""
    conjuncts = []
    for pattern in itertools.product((False, True), repeat=len(rs.items)):
        released = tuple(
            InitPredicate.from_expression(e, dom, label=f"released {expr_to_source(e, dom)}")
            for (_, e), on in zip(rs.items, pattern) if on)
        flags = lg.conj(tuple(
            lg.Eq(Var(f), Const(dom.true_value if on else dom.false_value))
            for (f, _), on in zip(rs.items, pattern)))
        conjuncts.append(lg.implies(flags, espm(fs.low, fs.high, released, dom)))
    return lg.G(lg.conj(tuple(conjuncts)))


def aktd_formula(fs, tds, dom):
    """The conjunction, over every set S of the declassifications, of
    espm(S) W (the condition of one outside S has fired), each espm and
    each condition test built anew.  The sets come in the package's order
    (bit k of the set's index for the k-th declassification), so the first
    failing conjunct, and with it the witness, is the same."""
    conjuncts = []
    for mask in range(1 << len(tds)):
        chosen = tuple(td.declassified for k, td in enumerate(tds) if mask >> k & 1)
        fired = tuple(lg.Not(lg.Eq(td.condition, Const(dom.false_value)))
                      for k, td in enumerate(tds) if not mask >> k & 1)
        conjuncts.append(lg.W(espm(fs.low, fs.high, chosen, dom), lg.disj(fired)))
    return lg.conj(tuple(conjuncts))


def release_failure(model, fs, rs):
    """The first point where epistemic release fails, or None.

    At a point, the released expressions are those whose flags are set at
    every point of the run with the point's trace.  Every low-equal run
    agreeing with the point's run on them (on initial values) must produce
    that trace.  Returns (run index, position, partner index, trace).
    """
    dom = model.domain

    def released(ex, i):
        same = [k for k, tid in enumerate(ex.trace_ids) if tid == ex.trace_ids[i]]
        return [e for flag, e in rs.items
                if all(ex.stores[k][flag] == dom.true_value for k in same)]

    return _first_failure(model, fs, released)


def temporal_failure(model, fs, tds):
    """The first point where noninterference modulo temporal
    declassifications fails, or None.

    At a point, a property is released once its condition has held at
    some position up to the point.  Every low-equal run agreeing with the
    point's run on the released properties (on initial values) must
    produce the point's trace.  Returns (run index, position, partner
    index, trace).
    """
    dom = model.domain

    def released(ex, i):
        # a model that keeps no store per point has conditions that read
        # nothing, so the initial store stands in for every point's
        stores = ex.stores or [ex.init_store] * (i + 1)
        return [e for td in tds
                if any(dom.truth(eval_expr(stores[k], td.condition, dom))
                       for k in range(i + 1))
                for e in td.declassified.exprs]

    return _first_failure(model, fs, released)


def _first_failure(model, fs, released):
    """Every position of every run, against every low-equal partner."""
    dom = model.domain
    for ex in model.executions:
        for i, tid in enumerate(ex.trace_ids):
            exprs = released(ex, i)
            for other in model.executions:
                if (all(other.init_store[n] == ex.init_store[n] for n in fs.low)
                        and all(eval_expr(other.init_store, e, dom)
                                == eval_expr(ex.init_store, e, dom) for e in exprs)
                        and tid not in other.trace_ids):
                    return ex.index, i, other.index, model.trace_tuple(tid)
    return None
