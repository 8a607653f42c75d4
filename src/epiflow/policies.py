"""Epistemic security conditions as formulas over execution models.

The two workhorse formulas say, at a point, that the observer has not
narrowed down the initial secrets:

* ``esp``: within the current epoch, for the actual initial public values,
  every initial secret vector is still possible.
* ``espm``: the same, but only secret vectors that agree with the actual
  one on a set of declassified properties need to remain possible.

On top of them sit the five conditions: absence of knowledge (plain, and
modulo a declassified predicate, an abstraction pair, write-once release
flags, or condition-triggered temporal declassifications).

``espm`` is written as the paper writes it: for the actual initial values,
every alternative secret that agrees with the actual one on each
declassified property stays possible.  Agreement is an equality between
the property's expression over the premise values and over the
alternative ones.  Quantified initial values are named after the
identifier they constrain: ``x'`` for the premise value, ``x''`` for the
epistemic alternative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .domain import Domain
from .lang import (Binary, Const, Expr, HashCall, Out, Program, Seq, Stmt, Unary,
                   Var, compile_expr, expr_ids, expr_to_source, program_from_body,
                   validate_expr)
from .logic import (Eq, Formula, G, Init, L, Not, W, conj, disj, foralls,
                    implies)


class PolicyError(ValueError):
    pass


MAX_POWERSET = 6


def primed(name: str) -> str:
    return name + "'"


def alt_primed(name: str) -> str:
    return name + "''"


@dataclass(frozen=True)
class FlowSpec:
    """Split of the ordinary identifiers into public (low) and secret (high)."""

    low: tuple[str, ...]
    high: tuple[str, ...]

    @staticmethod
    def from_low(program: Program, low: Iterable[str]) -> "FlowSpec":
        low = tuple(low)
        names = program.variables
        unknown = [n for n in low if n not in names]
        if unknown:
            raise PolicyError(f"low identifier {unknown[0]!r} not in the program")
        if len(set(low)) != len(low):
            raise PolicyError("duplicate low identifier")
        ordered_low = tuple(n for n in names if n in low)
        high = tuple(n for n in names if n not in low)
        return FlowSpec(ordered_low, high)

    def check_against(self, program: Program) -> None:
        names = program.variables
        if set(self.low) & set(self.high):
            raise PolicyError("an identifier cannot be both low and high")
        if set(self.low) | set(self.high) != set(names):
            raise PolicyError("flow spec must cover exactly the ordinary identifiers")


@dataclass(frozen=True)
class InitPredicate:
    """Total function from an initial store to a comparable value.

    Either an expression evaluated on the initial store, or one of the
    named abstractions Id, Sign, Par applied pointwise to identifiers.
    ``exprs`` is the same function written as expressions over ``ids``, for
    the formulas; ``fn`` stays separate so the trace-based checks share no
    code with them.
    """

    label: str
    ids: tuple[str, ...]
    fn: Callable[[dict], object]
    exprs: tuple[Expr, ...]

    def __call__(self, store: dict):
        return self.fn(store)

    @staticmethod
    def from_expression(expr: Expr, dom: Domain, label: str | None = None) -> "InitPredicate":
        validate_expr(expr, dom)
        ids = expr_ids(expr)
        return InitPredicate(
            label or expr_to_source(expr, dom), ids, compile_expr(expr, dom), (expr,))

    @staticmethod
    def abstraction(name: str, ids: Iterable[str], dom: Domain) -> "InitPredicate":
        ids = tuple(ids)
        fn = abstraction_fn(name, dom)
        return InitPredicate(
            f"{name}({', '.join(ids)})", ids,
            lambda store: tuple(fn(store[i]) for i in ids),
            tuple(abstraction_expr(name, Var(i), dom) for i in ids))


ABSTRACTIONS = ("Id", "Sign", "Par")


def abstraction_fn(name: str, dom: Domain) -> Callable:
    if name == "Id":
        return lambda v: v
    if name == "Sign":
        if dom.kind != "int":
            raise PolicyError("Sign applies to integer domains only")
        return lambda v: 1 if v >= 0 else 0
    if name == "Par":
        if dom.kind != "int":
            raise PolicyError("Par applies to integer domains only")
        return lambda v: v % 2
    raise PolicyError(f"unknown abstraction {name!r}; expected one of {ABSTRACTIONS}")


def abstraction_predicate(which: str | Expr, ids: Iterable[str],
                          dom: Domain) -> InitPredicate:
    """An expression abstraction, or the named one applied to each of ``ids``."""
    if isinstance(which, Expr):
        return InitPredicate.from_expression(which, dom)
    return InitPredicate.abstraction(which, ids, dom)


def abstraction_expr(name: str, target: Expr, dom: Domain) -> Expr:
    """The abstraction as an expression over ``target`` in the domain."""
    abstraction_fn(name, dom)  # rejects unknown names and misapplied ones
    if name == "Id":
        return target
    if name == "Sign":
        return Binary(">=", target, Const(0))
    # 2 as a literal of the domain: signed int:4 wraps it to -2, int:2 to 0,
    # and x mod -2 and x mod 0 (= x) still separate even from odd there
    return Binary("mod", target, Const(dom.normalize(2)))


def _renamed(e: Expr, names: dict[str, str]) -> Expr:
    """The expression with its identifiers renamed."""
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


@dataclass(frozen=True)
class ReleaseSpec:
    """Write-once release flags paired with the expressions they disclose."""

    items: tuple[tuple[str, Expr], ...]

    def __post_init__(self) -> None:
        flags = [f for f, _ in self.items]
        if len(set(flags)) != len(flags):
            raise PolicyError("duplicate release flag")

    def check_against(self, program: Program, dom: Domain) -> None:
        flags = set(program.flags)
        names = set(program.variables)
        for flag, expr in self.items:
            if flag not in flags:
                raise PolicyError(f"release flag {flag!r} never released in the program")
            for n in expr_ids(expr):
                if n not in names:
                    raise PolicyError(
                        f"release expression for {flag!r} mentions unknown {n!r}")
            validate_expr(expr, dom)


@dataclass(frozen=True)
class TemporalDeclassification:
    """When the state condition has held, the initial property may be known."""

    condition: Expr  # over the current store
    declassified: InitPredicate


# --------------------------------------------------------------------------
# The knowledge formulas


def init_atoms(names: Iterable[str], exprs: Iterable[Expr]) -> Formula:
    return conj(tuple(Init(n, e) for n, e in zip(names, exprs)))


def esp(fs: FlowSpec, dom: Domain) -> Formula:
    """Every initial secret is possible, for the actual public inputs.

    forall l'. (init_l(l') -> forall h''. L(init_l(l') && init_h(h'')))
    """
    low_vars = [primed(n) for n in fs.low]
    high_vars = [alt_primed(n) for n in fs.high]
    premise = init_atoms(fs.low, [Var(v) for v in low_vars])
    possible = L(conj(
        tuple(Init(n, Var(v)) for n, v in zip(fs.low, low_vars))
        + tuple(Init(n, Var(v)) for n, v in zip(fs.high, high_vars))))
    return foralls(low_vars, implies(premise, foralls(high_vars, possible)))


def espm(fixed_low: Iterable[str], high: Iterable[str],
         predicates: Iterable[InitPredicate], dom: Domain) -> Formula:
    """Every initial secret agreeing on the predicates is possible.

    forall l' h'. init_l(l') && init_h(h') ->
        forall h''. (p[l', h'] == p[l', h''] for each p) -> L(init_l(l') && init_h(h''))
    """
    fixed_low = tuple(fixed_low)
    high = tuple(high)
    predicates = tuple(predicates)
    known = set(fixed_low) | set(high)
    for p in predicates:
        outside = [n for n in p.ids if n not in known]
        if outside:
            raise PolicyError(
                f"declassification {p.label!r} mentions {outside[0]!r}, "
                "which is neither fixed-public nor secret")

    names = fixed_low + high
    premise = {n: primed(n) for n in names}
    alternative = {**premise, **{n: alt_primed(n) for n in high}}
    agree = conj(tuple(Eq(_renamed(e, premise), _renamed(e, alternative))
                       for p in predicates for e in p.exprs))
    possible = L(init_atoms(names, [Var(alternative[n]) for n in names]))
    return foralls([premise[n] for n in names], implies(
        init_atoms(names, [Var(premise[n]) for n in names]),
        foralls([alternative[n] for n in high], implies(agree, possible))))


# --------------------------------------------------------------------------
# Security conditions


def encode_ak(fs: FlowSpec, dom: Domain) -> Formula:
    """Absence of knowledge: the observer never learns anything high."""
    return G(esp(fs, dom))


def _as_predicates(phi, dom: Domain) -> tuple[InitPredicate, ...]:
    if isinstance(phi, InitPredicate):
        return (phi,)
    if isinstance(phi, Expr):
        return (InitPredicate.from_expression(phi, dom),)
    return tuple(
        p if isinstance(p, InitPredicate) else InitPredicate.from_expression(p, dom)
        for p in phi)


def encode_akd(fs: FlowSpec, phi, dom: Domain) -> Formula:
    """Absence of knowledge beyond the declassified predicate(s)."""
    return G(espm(fs.low, fs.high, _as_predicates(phi, dom), dom))


def check_output_abstraction(fs: FlowSpec, rho: str | Expr) -> None:
    """Rules for ``rho`` that aak and nani share: an expression reads public
    identifiers only, and a named abstraction needs one to act on."""
    if isinstance(rho, Expr):
        for n in expr_ids(rho):
            if n not in fs.low:
                raise PolicyError(f"output abstraction mentions non-public {n!r}")
    elif not fs.low:
        raise PolicyError("abstract output needs at least one public identifier")


def encode_aak(program: Program, fs: FlowSpec, eta: str | Expr, phi: str | Expr,
               rho: str | Expr, dom: Domain) -> tuple[Program, Formula]:
    """Abstract absence of knowledge, as a transformed program plus formula.

    The program gains a final output of the ``rho``-abstracted public
    results.  No identifier is pinned exactly: public inputs vary within
    their ``eta``-class and secrets within their ``phi``-class, both
    encoded as agreement predicates.  ``eta: Id`` pins public inputs.
    """
    check_output_abstraction(fs, rho)
    body: Stmt = program.body
    for e in abstraction_predicate(rho, fs.low, dom).exprs:
        body = Seq(body, Out(e))
    transformed = program_from_body(body, program.text)

    eta_pred = abstraction_predicate(eta, fs.low, dom)
    phi_pred = abstraction_predicate(phi, fs.high, dom)
    ordered = fs.low + fs.high
    in_order = tuple(n for n in transformed.variables if n in ordered)
    return transformed, G(espm((), in_order, (eta_pred, phi_pred), dom))


def _powerset(items: tuple) -> list[tuple]:
    if len(items) > MAX_POWERSET:
        raise PolicyError(
            f"powerset construction capped at {MAX_POWERSET} elements; got {len(items)}")
    out = []
    for mask in range(1 << len(items)):
        out.append(tuple(x for i, x in enumerate(items) if mask >> i & 1))
    return out


def encode_akr(fs: FlowSpec, rs: ReleaseSpec, dom: Domain) -> Formula:
    """Absence of knowledge beyond what the set flags have released.

    Release flags are write-once booleans, so at each point exactly one
    flag pattern matches the store; under it, uncertainty must hold modulo
    the expressions released so far (evaluated on initial stores).
    """
    conjuncts = []
    for chosen in _powerset(rs.items):
        chosen_flags = {f for f, _ in chosen}
        preds = tuple(
            InitPredicate.from_expression(e, dom, label=f"released {expr_to_source(e, dom)}")
            for _, e in chosen)
        pattern = conj(tuple(
            Eq(Var(f), Const(dom.true_value if f in chosen_flags else dom.false_value))
            for f, _ in rs.items))
        conjuncts.append(implies(pattern, espm(fs.low, fs.high, preds, dom)))
    return G(conj(tuple(conjuncts)))


def encode_aktd(fs: FlowSpec, tds: Iterable[TemporalDeclassification],
                dom: Domain) -> Formula:
    """Absence of knowledge under condition-triggered declassifications.

    For every subset of the declassifications, uncertainty modulo that
    subset must hold at least until the condition of one of the remaining
    declassifications fires (an empty remainder never fires).
    """
    tds = tuple(tds)
    conjuncts = []
    for chosen in _powerset(tds):
        chosen_ids = {id(td) for td in chosen}
        body = espm(fs.low, fs.high, tuple(td.declassified for td in chosen), dom)
        # "fired" means truthy, so compare against false rather than true
        released_later = disj(tuple(
            Not(Eq(td.condition, Const(dom.false_value)))
            for td in tds if id(td) not in chosen_ids))
        conjuncts.append(W(body, released_later))
    return conj(tuple(conjuncts))
