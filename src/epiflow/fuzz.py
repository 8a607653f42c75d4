"""Differential fuzzing of the trace-based and epistemic condition pairs.

Each iteration derives its own RNG from (seed, index), generates a random
terminating program and a random policy for the pair under test, runs both
readings, and records any verdict disagreement as a reproducible bundle.
The equivalence of the two readings is the oracle: mismatches are bugs.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .domain import Domain
from .lang import (Assign, Binary, Const, Expr, If, Out, Program, Release,
                   Seq, Skip, Stmt, Unary, Var, While, expr_to_source,
                   program_from_body, to_source)
from .logic import model_satisfies
from .model import ModelConfig, build_model
from .policies import (FlowSpec, InitPredicate, ReleaseSpec,
                       TemporalDeclassification, encode_ak, encode_akd,
                       encode_aak, encode_akr, encode_aktd)
from .semantics import (check_er, check_nani, check_nid, check_nitd, check_oni)
from .verdicts import Outcome

PAIRS = ("oni-ak", "nid-akd", "nani-aak", "akr-er", "nitd-aktd")


DEFAULT_WEIGHTS = (("assign", 2), ("out", 2), ("skip", 1), ("if", 1), ("while", 1))


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 1
    count: int = 200
    size: int = 8
    ident_count: int = 2
    domain: Domain = field(default_factory=Domain.booleans)
    pairs: tuple[str, ...] = PAIRS
    loops: bool = False
    bound: int = 2_000
    weights: tuple[tuple[str, int], ...] = DEFAULT_WEIGHTS

    def __post_init__(self) -> None:
        if not 1 <= self.ident_count <= 3:
            raise ValueError("ident_count must be between 1 and 3")
        for pair in self.pairs:
            if pair not in PAIRS:
                raise ValueError(f"unknown pair {pair!r}; choose from {PAIRS}")
        known = dict(DEFAULT_WEIGHTS)
        for kind, weight in self.weights:
            if kind not in known or weight < 0:
                raise ValueError(f"bad statement weight {kind}={weight}")


@dataclass(frozen=True)
class Mismatch:
    pair: str
    index: int
    program: str
    policy: str
    semantic: str
    epistemic: str


@dataclass
class FuzzSummary:
    """``outcomes`` counts each pair's runs by the outcome both readings
    agreed on (``None`` for a mismatch)."""

    config: FuzzConfig
    runs: int = 0
    outcomes: dict[str, Counter] = field(default_factory=dict)
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def per_pair(self) -> dict[str, int]:
        """Runs per pair."""
        return {pair: sum(split.values()) for pair, split in self.outcomes.items()}

    def render(self) -> str:
        lines = [
            f"fuzz seed={self.config.seed} domain={self.config.domain.spec()} "
            f"runs={self.runs}"
        ]
        for pair in self.config.pairs:
            split = self.outcomes.get(pair, Counter())
            lines.append(
                f"  {pair}: {sum(split.values())} runs: "
                f"{split[Outcome.HOLDS]} HOLDS, {split[Outcome.FAILS]} FAILS, "
                f"{split[Outcome.BOUND_EXCEEDED]} refused, {split[None]} mismatched")
        if self.ok:
            lines.append("no mismatches")
        else:
            lines.append(f"{len(self.mismatches)} MISMATCHES")
            for m in self.mismatches:
                lines.append(
                    f"-- {m.pair} #{m.index}: semantic={m.semantic} "
                    f"epistemic={m.epistemic}")
                lines.append(f"   program: {m.program}")
                lines.append(f"   policy:  {m.policy}")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Random programs


def _gen_expr(rng: random.Random, ids: tuple[str, ...], dom: Domain, depth: int) -> Expr:
    if depth <= 0 or rng.random() < 0.3:
        if ids and rng.random() < 0.6:
            return Var(rng.choice(ids))
        return Const(rng.choice(dom.values))
    if dom.kind == "bool":
        op = rng.choice(("&&", "||", "==", "!=", "!"))
    else:
        op = rng.choice(("+", "-", "*", "mod", "==", "!=", "<", "<=", "&&", "||", "!"))
    if op == "!":
        return Unary("!", _gen_expr(rng, ids, dom, depth - 1))
    return Binary(op, _gen_expr(rng, ids, dom, depth - 1),
                  _gen_expr(rng, ids, dom, depth - 1))


def _gen_stmt(rng: random.Random, ids: tuple[str, ...], dom: Domain,
              budget: int, allow_out: bool, loops: bool,
              frozen: frozenset[str],
              weights: tuple[tuple[str, int], ...]) -> tuple[Stmt, int]:
    targets = tuple(n for n in ids if n not in frozen)
    table = dict(weights)
    choices = ["skip"] * table.get("skip", 1)
    if targets:
        choices += ["assign"] * table.get("assign", 2)
    if allow_out:
        choices += ["out"] * table.get("out", 2)
    if budget >= 3:
        choices += ["if"] * table.get("if", 1)
    if loops and budget >= 3 and dom.kind == "int" and targets:
        choices += ["while"] * table.get("while", 1)
    match rng.choice(choices):
        case "skip":
            return Skip(), 1
        case "assign":
            return Assign(rng.choice(targets), _gen_expr(rng, ids, dom, 2)), 1
        case "out":
            return Out(_gen_expr(rng, ids, dom, 2)), 1
        case "if":
            guard = _gen_expr(rng, ids, dom, 2)
            then, c1 = _gen_block(rng, ids, dom, budget // 2, allow_out, loops,
                                  frozen, weights)
            orelse, c2 = _gen_block(rng, ids, dom, budget // 2, allow_out, loops,
                                    frozen, weights)
            return If(guard, then, orelse), 1 + c1 + c2
        case "while":
            # guard pattern x < c with the body bumping x and never otherwise
            # writing x: x climbs monotonically to c, so the loop terminates
            # in any wrap-around domain
            var = rng.choice(targets)
            limit = rng.choice(dom.values)
            inner, cost = _gen_block(rng, ids, dom, budget // 2, allow_out,
                                     False, frozen | {var}, weights)
            body = Seq(inner, Assign(var, Binary("+", Var(var), Const(1))))
            return While(Binary("<", Var(var), Const(limit)), body), 2 + cost
    raise AssertionError("unreachable")


def _gen_block(rng: random.Random, ids: tuple[str, ...], dom: Domain,
               budget: int, allow_out: bool, loops: bool,
               frozen: frozenset[str] = frozenset(),
               weights: tuple[tuple[str, int], ...] = DEFAULT_WEIGHTS
               ) -> tuple[Stmt, int]:
    stmts: list[Stmt] = []
    used = 0
    while used < budget:
        stmt, cost = _gen_stmt(rng, ids, dom, budget - used, allow_out, loops,
                               frozen, weights)
        stmts.append(stmt)
        used += cost
        if rng.random() < 0.25:
            break
    node: Stmt = stmts[-1] if stmts else Skip()
    for s in reversed(stmts[:-1]):
        node = Seq(s, node)
    return node, max(used, 1)


def generate_program(rng: random.Random, cfg: FuzzConfig, allow_out: bool = True,
                     release_flags: tuple[str, ...] = ()) -> Program:
    ids = ("l", "h", "k")[: cfg.ident_count]
    body, _ = _gen_block(rng, ids, cfg.domain, cfg.size, allow_out, cfg.loops,
                         weights=cfg.weights)
    # make sure every identifier occurs, so policies can mention any of them
    for name in reversed(ids):
        body = Seq(Assign(name, Var(name)), body)
    for flag in release_flags:
        body = _insert_release(rng, body, flag)
    return program_from_body(body)


def _insert_release(rng: random.Random, body: Stmt, flag: str) -> Stmt:
    if isinstance(body, Seq) and rng.random() < 0.7:
        if rng.random() < 0.5:
            return Seq(body.first, _insert_release(rng, body.second, flag))
        return Seq(_insert_release(rng, body.first, flag), body.second)
    if rng.random() < 0.5:
        return Seq(Release(flag), body)
    return Seq(body, Release(flag))


# --------------------------------------------------------------------------
# One differential run per pair


def _random_flowspec(rng: random.Random, program: Program) -> FlowSpec:
    names = program.variables
    low = tuple(n for n in names if rng.random() < 0.5)
    return FlowSpec.from_low(program, low)


def _abstractions_for(dom: Domain) -> tuple[str, ...]:
    if dom.kind == "bool":
        return ("Id",)
    if dom.signed:
        return ("Id", "Sign", "Par")
    return ("Id", "Par")


def run_one(pair: str, index: int, cfg: FuzzConfig) -> Mismatch | None:
    """Run both readings of one generated program and policy; the
    disagreement, if any."""
    return _compare(pair, index, cfg)[1]


def _compare(pair: str, index: int, cfg: FuzzConfig) -> tuple[Outcome | None, Mismatch | None]:
    """The outcome both readings agree on, or None and their mismatch."""
    rng = random.Random(f"{cfg.seed}:{pair}:{index}")
    dom = cfg.domain
    mcfg = ModelConfig(dom, bound=cfg.bound)

    if pair == "nani-aak":
        program = generate_program(rng, cfg, allow_out=False)
    elif pair == "akr-er":
        flags = ("r1", "r2")[: rng.randint(1, 2)]
        program = generate_program(rng, cfg, release_flags=flags)
    else:
        program = generate_program(rng, cfg)
    fs = _random_flowspec(rng, program)

    policy_desc = f"low: {', '.join(fs.low)}"
    match pair:
        case "oni-ak":
            model = build_model(program, mcfg)
            semantic = check_oni(model, fs)
            epistemic = model_satisfies(model, encode_ak(fs, dom))
        case "nid-akd":
            preds = tuple(
                InitPredicate.from_expression(_gen_expr(rng, program.variables, dom, 2), dom)
                for _ in range(rng.randint(1, 2)))
            policy_desc += "; declassify: " + "; ".join(p.label for p in preds)
            model = build_model(program, mcfg)
            semantic = check_nid(model, fs, preds)
            epistemic = model_satisfies(model, encode_akd(fs, preds, dom))
        case "nani-aak":
            names = _abstractions_for(dom)
            eta, phi, rho = (rng.choice(names) for _ in range(3))
            if not fs.low:
                fs = FlowSpec.from_low(program, program.variables[:1])
            policy_desc += f"; eta: {eta}; phi: {phi}; rho: {rho}"
            semantic = check_nani(program, fs, eta, phi, rho, mcfg)
            transformed, formula = encode_aak(program, fs, eta, phi, rho, dom)
            epistemic = model_satisfies(build_model(transformed, mcfg), formula)
        case "akr-er":
            releases = ReleaseSpec(tuple(
                (flag, _gen_expr(rng, program.variables, dom, 2))
                for flag in program.flags))
            policy_desc += "; " + "; ".join(
                f"release: {f} = {expr_to_source(e, dom)}" for f, e in releases.items)
            model = build_model(program, mcfg)
            semantic = check_er(model, fs, releases)
            epistemic = model_satisfies(model, encode_akr(fs, releases, dom))
        case "nitd-aktd":
            tds = tuple(
                TemporalDeclassification(
                    _gen_expr(rng, program.variables, dom, 1),
                    InitPredicate.from_expression(
                        _gen_expr(rng, program.variables, dom, 1), dom))
                for _ in range(rng.randint(0, 2)))
            if tds:
                policy_desc += "; " + "; ".join(
                    f"when: {expr_to_source(td.condition, dom)} ==> "
                    f"{td.declassified.label}" for td in tds)
            model = build_model(program, mcfg)
            semantic = check_nitd(model, fs, tds)
            epistemic = model_satisfies(model, encode_aktd(fs, tds, dom))
        case _:
            raise ValueError(f"unknown pair {pair!r}")

    if semantic.outcome is epistemic.outcome:
        return semantic.outcome, None
    return None, Mismatch(
        pair=pair, index=index, program=to_source(program.body, dom),
        policy=policy_desc, semantic=semantic.outcome.value,
        epistemic=epistemic.outcome.value)


def fuzz_equivalences(cfg: FuzzConfig) -> FuzzSummary:
    summary = FuzzSummary(cfg)
    for pair in cfg.pairs:
        for index in range(cfg.count):
            outcome, mismatch = _compare(pair, index, cfg)
            summary.runs += 1
            summary.outcomes.setdefault(pair, Counter())[outcome] += 1
            if mismatch is not None:
                summary.mismatches.append(mismatch)
    return summary
