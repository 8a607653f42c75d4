"""Seeded random programs with dead inputs and random formulas over them,
for differential tests of the evaluator against ``oracles.holds``.

``dead_input_program`` draws a fuzzer program over ``l``, ``h`` and ``k``
and writes one or two of them before anything reads them, so they are
dead: the model records their runs as clones of one simulated run.  Some
programs also release a flag, ``r``.

``random_formula`` draws a closed formula over ``IDS``: atoms, the
boolean connectives, K and L, the temporal operators and quantifier
blocks.  Each bound variable is drawn for an input, its subject, mostly a
dead one, and ``init`` atoms on an input mostly take a variable drawn for
it, as the policy encoders' formulas do, so that many formulas read a dead
input only through bound variables that no other atom reads.  The rest
read it otherwise: through a constant, a program identifier, a variable
another atom reads or another input's atoms take, or at a point.  K and L
also pin initial values: over ``init`` atoms on any non-empty set of
inputs, some pinned twice, and on the release flag when there is one.
Guards bind (``init(x, v)``), filter and join; a block's body is often
what the observer knows over the run of its variable's input, its
initial value with its current one; and ``espm`` blocks (a premise that
binds every input, alternatives that agree on a property, and an L that
pins every input) appear as the encoders build them.
"""

from __future__ import annotations

import random

from oracles import _renamed
from epiflow.domain import Domain
from epiflow.fuzz import FuzzConfig, _gen_expr, generate_program
from epiflow.lang import Assign, Const, Expr, Out, Program, Seq, Var, program_from_body
from epiflow.logic import (And, Eq, Exists, F, Formula, G, Implies, Init, K, L, Not, Or,
                           Until, W, conj, foralls, implies)

IDS = ("l", "h", "k")


def dead_input_program(rng: random.Random, dom: Domain) -> tuple[Program, tuple[str, ...]]:
    """A terminating program over ``IDS`` that writes one or two of them
    from the others or from constants, after at most one output, before
    anything reads them; those are dead.  About three in ten release
    ``r``."""
    flags = ("r",) if rng.random() < 0.3 else ()
    program = generate_program(rng, FuzzConfig(domain=dom, ident_count=3, size=5,
                                               loops=dom.kind == "int"), flags)
    dead = tuple(sorted(rng.sample(IDS, rng.choice((1, 1, 2)))))
    live = tuple(n for n in IDS if n not in dead)
    body = program.body
    for name in dead:
        body = Seq(Assign(name, _live_expr(rng, live, dom)), body)
    if rng.random() < 0.5:
        # an output while the dead inputs still hold their initial values
        # splits the runs into epochs that K and L see apart
        body = Seq(Out(_live_expr(rng, live, dom)), body)
    return program_from_body(body), dead


def _live_expr(rng: random.Random, live: tuple[str, ...], dom: Domain) -> Expr:
    return Var(rng.choice(live)) if rng.random() < 0.7 else Const(rng.choice(dom.values))


def random_formula(rng: random.Random, dom: Domain, dead: tuple[str, ...],
                   depth: int = 4, flags: tuple[str, ...] = ()) -> Formula:
    """A closed formula over ``IDS`` and the release ``flags`` whose
    quantifiers and atoms name the ``dead`` inputs more often than the
    others."""
    return _Drawing(rng, dom, dead, flags).formula(depth, {})


class _Drawing:
    def __init__(self, rng: random.Random, dom: Domain, dead: tuple[str, ...],
                 flags: tuple[str, ...]):
        self.rng, self.dom, self.dead, self.flags = rng, dom, dead, flags

    def subject(self) -> str:
        return self.rng.choice(self.dead if self.rng.random() < 0.6 else IDS)

    def fresh(self, scope: dict) -> str:
        # unique along a path, reused by siblings
        return f"v{len(scope)}"

    def formula(self, depth: int, scope: dict) -> Formula:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.15:
            return self.atom(scope)
        kind = rng.choices(
            ("not", "and", "or", "implies", "K", "L", "F", "G", "U", "W", "forall",
             "exists", "espm", "pins"),
            (1, 2, 1, 1, 2, 2, 1, 2, 1, 2, 4, 1, 2, 2))[0]
        sub = depth - 1
        match kind:
            case "not":
                return Not(self.formula(sub, scope))
            case "and" | "or":
                kids = tuple(self.formula(sub, scope) for _ in range(rng.choice((2, 2, 3))))
                return And(kids) if kind == "and" else Or(kids)
            case "implies":
                return Implies(self.formula(sub, scope), self.formula(sub, scope))
            case "K" | "L" | "F" | "G":
                return {"K": K, "L": L, "F": F, "G": G}[kind](self.formula(sub, scope))
            case "U" | "W":
                return (Until if kind == "U" else W)(self.formula(sub, scope),
                                                     self.formula(sub, scope))
            case "forall" | "exists":
                return self.block(kind == "forall", sub, scope)
            case "espm":
                return self.espm(scope)
            case "pins":
                return self.pins(scope)
        raise AssertionError(kind)

    def atom(self, scope: dict) -> Formula:
        rng = self.rng
        if rng.random() < 0.6:
            subject = self.subject()
            own = [v for v, s in scope.items() if s == subject]
            r = rng.random()
            if own and r < 0.75:
                return Init(subject, Var(rng.choice(own)))
            if scope and r < 0.85:
                return Init(subject, Var(rng.choice(list(scope))))
            if r < 0.93:
                return Init(subject, Const(rng.choice(self.dom.values)))
            return Init(subject, Var(rng.choice(IDS)))
        if rng.random() < 0.5:
            return Eq(Var(self.subject()), Const(rng.choice(self.dom.values)))
        names = IDS + tuple(scope) if rng.random() < 0.3 else IDS
        return Eq(_gen_expr(rng, names, self.dom, 1), _gen_expr(rng, names, self.dom, 1))

    def pins(self, scope: dict) -> Formula:
        """K or L over ``init`` atoms on a non-empty set of inputs, some
        pinned twice, and on the release flag when there is one; each takes
        a variable drawn for its input, another variable or a constant."""
        rng = self.rng
        names = rng.sample(IDS, rng.randint(1, len(IDS)))
        names += rng.sample(names, rng.choice((0, 0, 1)))
        if self.flags and rng.random() < 0.5:
            names.append(rng.choice(self.flags))
        rng.shuffle(names)
        atoms = []
        for name in names:
            own = [v for v, s in scope.items() if s == name]
            r = rng.random()
            if own and r < 0.6:
                atoms.append(Init(name, Var(rng.choice(own))))
            elif scope and r < 0.8:
                atoms.append(Init(name, Var(rng.choice(list(scope)))))
            else:
                atoms.append(Init(name, Const(rng.choice(self.dom.values))))
        return rng.choice((K, L))(conj(tuple(atoms)))

    def block(self, every: bool, depth: int, scope: dict) -> Formula:
        """One or two quantifiers, each for a subject; a forall's guard
        binds, filters or joins them."""
        rng = self.rng
        inner = dict(scope)
        names = []
        for _ in range(rng.choice((1, 1, 2))):
            var = self.fresh(inner)
            inner[var] = self.subject()
            names.append(var)
        body = self.formula(depth, inner)
        if rng.random() < 0.5:
            # what the observer knows, over the run, of the variable's
            # input: its initial value, with its current one or the body
            var = rng.choice(names)
            now = Eq(Var(inner[var]), Const(rng.choice(self.dom.values)))
            known = conj((Init(inner[var], Var(var)), now if rng.random() < 0.7 else body))
            body = rng.choice((F, G))(rng.choice((K, L))(known))
        if not every:
            return _quantified(Exists, names, body)
        guard: list[Formula] = []
        for var in names:
            r = rng.random()
            if r < 0.5:
                guard.append(Init(inner[var], Var(var)))
            elif r < 0.65:
                guard.append(Init(rng.choice(IDS), Var(var)))
            elif r < 0.8:
                guard.append(Eq(Var(var), Const(rng.choice(self.dom.values))))
            elif r < 0.9 and len(inner) > 1:
                guard.append(Eq(Var(var), Var(rng.choice([v for v in inner if v != var]))))
        return foralls(names, implies(conj(tuple(guard)), body))

    def espm(self, scope: dict) -> Formula:
        """The encoders' uncertainty block: a premise binding every input,
        alternatives for some of them that agree with the premise on a
        property, and an L pinning every input."""
        rng = self.rng
        inner = dict(scope)
        premise = {}
        for name in IDS:
            premise[name] = var = self.fresh(inner)
            inner[var] = name
        alternative = dict(premise)
        for name in rng.sample(IDS, rng.choice((1, 2))):
            alternative[name] = var = self.fresh(inner)
            inner[var] = name
        chosen = [n for n in IDS if alternative[n] != premise[n]]
        agreement = []
        if rng.random() < 0.6:
            prop = _gen_expr(rng, tuple(chosen), self.dom, 1)
            agreement.append(Eq(_renamed(prop, premise), _renamed(prop, alternative)))
        possible = L(conj(tuple(Init(n, Var(alternative[n])) for n in IDS)))
        return foralls([premise[n] for n in IDS], implies(
            conj(tuple(Init(n, Var(premise[n])) for n in IDS)),
            foralls([alternative[n] for n in chosen], implies(conj(tuple(agreement)),
                                                              possible))))


def _quantified(kind, names, body: Formula) -> Formula:
    for var in reversed(names):
        body = kind(var, body)
    return body

