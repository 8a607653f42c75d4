"""Reference implementations the tests cross-check the package against.

``run`` is a big-step interpreter written against the language semantics
directly (recursive, trace-accumulating) and sharing no code with the
package's small-step machinery.  ``holds`` evaluates formulas straight from
the logic's definitions, sharing nothing with the package's evaluator but
expression evaluation.  Agreement with either is meaningful.
"""

from __future__ import annotations

from epiflow.domain import Domain, Label
from epiflow.lang import (Assign, If, Out, OutLit, Release, Seq, Skip, Stmt,
                          While, eval_expr)


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


def holds(model, f, ex, i: int, env: dict | None = None) -> bool:
    """Reference satisfaction: the logic's definitions, evaluated naively.

    Quantifiers try every value, K and L scan every point of the epoch,
    temporal operators scan the rest of the run; nothing is memoized or
    recognized by shape.  Bound variables shadow program identifiers.
    """
    from epiflow import logic as lg

    env = env or {}
    dom = model.domain

    def value(e, k):
        return eval_expr({**ex.stores[k], **env}, e, dom)

    def epoch():
        tid = ex.trace_ids[i]
        return [(o, k) for o in model.executions
                for k in range(len(o) + 1) if o.trace_ids[k] == tid]

    def at(g, other=ex, k=i, extra=None):
        return holds(model, g, other, k, {**env, **(extra or {})})

    rest = range(i, len(ex) + 1)
    match f:
        case lg.Eq(lhs, rhs):
            return value(lhs, i) == value(rhs, i)
        case lg.Init(name, expr):
            return ex.stores[0][name] == value(expr, i)
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
