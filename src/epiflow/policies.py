"""Epistemic security conditions as formulas over execution models.

Every condition is one formula, aktd: absence of knowledge under
condition-triggered declassifications.  The observer must stay uncertain
about the initial secrets modulo each property whose condition has held
along the run so far.  The other conditions are lists of such
declassifications, which ``policyfile.policy_pieces`` builds: ak has none,
akd's ``declassify: e`` is ``when: true ==> e``, and akr's
``release: r = e`` is ``when: r ==> e``, since a release flag, once set,
stays set.  Abstract absence of knowledge (aak) is akd over the model of
the runs' abstracted results (``model.results_model``), with nothing
public and the abstractions of the inputs, ``eta`` and ``phi``, as the
declassified predicates.

Its workhorse, ``espm``, says at a point that the observer has not
narrowed down the initial secrets beyond the declassified properties.  It
is written as the paper writes it: for the actual initial values, every
alternative secret that agrees with the actual one on each declassified
property stays possible.  Agreement is an equality between the property's
expression over the premise values and over the alternative ones.
Quantified initial values are named after the identifier they constrain:
``x'`` for the premise value, ``x''`` for the epistemic alternative.

aktd asks for one ``espm`` per subset of its declassifications.  These
share one scaffold per flow spec: the premise and the possibility are
built once, and so are each declassification's agreement and its
condition's test; only the agreement guard, their conjunction, is new per
subset.  The evaluator plans a node by identity, so it plans each shared
node once.  A condition that reads nothing and holds has fired at the
start, so its declassification joins every subset and only the others are
enumerated.  So ak is ``G`` of ``espm`` with no agreement, and akd and aak
are ``G`` of one ``espm``, as the paper writes akd, however many
properties they declassify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .domain import Domain
from .lang import (Binary, Const, Expr, HashCall, Program, Unary, Var,
                   compile_expr, expr_ids, expr_to_source, validate_expr)
from .logic import Eq, Formula, G, Init, L, Not, W, conj, disj, foralls, implies


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
            lambda store: tuple(map(fn, map(store.__getitem__, ids))),
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

    def conditions(self, dom: Domain) -> tuple[TemporalDeclassification, ...]:
        """Each flag as the condition that declassifies its expression: a
        flag, once set, stays set, so ``release: r = e`` reads as
        ``when: r ==> e``."""
        return tuple(TemporalDeclassification(Var(flag), InitPredicate.from_expression(e, dom))
                     for flag, e in self.items)


@dataclass(frozen=True)
class TemporalDeclassification:
    """When the state condition has held, the initial property may be known."""

    condition: Expr  # over the current store
    declassified: InitPredicate


def condition_ids(tds: Iterable[TemporalDeclassification]) -> frozenset[str]:
    """The identifiers the conditions read, at every point."""
    return frozenset().union(*(expr_ids(td.condition) for td in tds))


# --------------------------------------------------------------------------
# The knowledge formulas


def init_atoms(names: Iterable[str], exprs: Iterable[Expr]) -> Formula:
    return conj(tuple(Init(n, e) for n, e in zip(names, exprs)))


class _Espm:
    """``espm`` over one split of the identifiers: the premise
    ``init_l(l') && init_h(h')`` and the possibility
    ``L(init_l(l') && init_h(h''))``, built once for every agreement guard
    ``modulo`` is given."""

    def __init__(self, fixed_low: tuple[str, ...], high: tuple[str, ...]):
        names = fixed_low + high
        self.premise = {n: primed(n) for n in names}
        self.alternative = {**self.premise, **{n: alt_primed(n) for n in high}}
        self.premise_vars = [self.premise[n] for n in names]
        self.alternative_vars = [self.alternative[n] for n in high]
        self.given = init_atoms(names, [Var(self.premise[n]) for n in names])
        self.possible = L(init_atoms(names, [Var(self.alternative[n]) for n in names]))

    def agreement(self, p: InitPredicate) -> tuple[Formula, ...]:
        """The premise and the alternative agree on ``p``: one equality per
        expression of ``p``."""
        outside = [n for n in p.ids if n not in self.premise]
        if outside:
            raise PolicyError(
                f"declassification {p.label!r} mentions {outside[0]!r}, "
                "which is neither fixed-public nor secret")
        return tuple(Eq(_renamed(e, self.premise), _renamed(e, self.alternative))
                     for e in p.exprs)

    def modulo(self, agreements: Iterable[Formula]) -> Formula:
        return foralls(self.premise_vars, implies(self.given, foralls(
            self.alternative_vars, implies(conj(tuple(agreements)), self.possible))))


# --------------------------------------------------------------------------
# Security conditions


def check_abstractions(fs: FlowSpec, eta: str | Expr, phi: str | Expr,
                       rho: str | Expr) -> None:
    """Rules for the abstractions that aak and nani share: ``eta`` and
    ``rho`` read public identifiers only and ``phi`` secret ones, and a
    named output abstraction needs a public identifier to act on.  The pair
    keys on nothing public, so these rules are all that is left of the
    policy's split."""
    for which, side, what in ((eta, fs.low, "input abstraction eta mentions non-public"),
                              (phi, fs.high, "input abstraction phi mentions non-secret"),
                              (rho, fs.low, "output abstraction mentions non-public")):
        if isinstance(which, Expr):
            for n in expr_ids(which):
                if n not in side:
                    raise PolicyError(f"{what} {n!r}")
    if not isinstance(rho, Expr) and not fs.low:
        raise PolicyError("abstract output needs at least one public identifier")


def check_powerset_cap(count: int) -> None:
    """Refuse more declassifications than aktd's one conjunct per subset
    of them allows; the check path refuses them for the trace twins too."""
    if count > MAX_POWERSET:
        raise PolicyError(
            f"powerset construction capped at {MAX_POWERSET} elements; got {count}")


def _powerset(items: tuple) -> list[tuple]:
    check_powerset_cap(len(items))
    out = []
    for mask in range(1 << len(items)):
        out.append(tuple(x for i, x in enumerate(items) if mask >> i & 1))
    return out


def _fired_from_the_start(td: TemporalDeclassification, dom: Domain) -> bool:
    """Whether the condition reads nothing and holds, so holds at every point."""
    return not expr_ids(td.condition) and dom.truth(compile_expr(td.condition, dom)({}))


def encode_aktd(fs: FlowSpec, tds: Iterable[TemporalDeclassification],
                dom: Domain) -> Formula:
    """Absence of knowledge under condition-triggered declassifications.

    For every subset of the declassifications, uncertainty modulo that
    subset must hold at least until the condition of one of the remaining
    declassifications fires, and for good when none remains.  A subset
    that leaves out a declassification fired from the start holds at once,
    so those declassifications join every subset and only the others are
    enumerated, in the same order.
    """
    tds = tuple(tds)
    scaffold = _Espm(fs.low, fs.high)
    agreements = [scaffold.agreement(td.declassified) for td in tds]
    always = [_fired_from_the_start(td, dom) for td in tds]
    rest = tuple(k for k, fired in enumerate(always) if not fired)
    # "fired" means truthy, so compare against false rather than true
    fired = {k: Not(Eq(tds[k].condition, Const(dom.false_value))) for k in rest}
    conjuncts = []
    for chosen in _powerset(rest):
        body = scaffold.modulo(a for k, agreement in enumerate(agreements)
                               if always[k] or k in chosen for a in agreement)
        released_later = [fired[k] for k in rest if k not in chosen]
        conjuncts.append(W(body, disj(released_later)) if released_later else G(body))
    return conj(tuple(conjuncts))
