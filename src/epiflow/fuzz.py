"""Differential fuzzing of the trace-based and epistemic condition pairs.

Each iteration derives its own RNG from (seed, index), generates a random
terminating program and a random policy for the pair under test, runs both
readings as ``epiflow diff`` does, and records any verdict disagreement
with the program and policy texts that replay it.  The equivalence of the
two readings is the oracle: mismatches are bugs.
"""

from __future__ import annotations

import random
from collections import Counter

from .domain import Domain
from .lang import (Assign, Binary, Const, Expr, If, Out, Program, Release,
                   Seq, Skip, Stmt, Unary, Var, While, expr_to_source,
                   program_from_body, to_source)
from .model import ModelConfig
from .node import Node
from .policyfile import ABSTRACTED, PAIRS, Policy, run_both_sides
from .verdicts import Outcome


STATEMENT_WEIGHTS = {"skip": 1, "assign": 2, "out": 2, "if": 1, "while": 1}


class FuzzConfig(Node):
    """One differential sweep: its seed, size, pairs and model settings."""

    __slots__ = ("seed", "count", "size", "ident_count", "domain", "pairs", "loops", "bound")
    seed: int
    count: int
    size: int
    ident_count: int
    domain: Domain
    pairs: tuple[str, ...]
    loops: bool
    bound: int
    _defaults = {"seed": 1, "count": 200, "size": 8, "ident_count": 2,
                 "domain": Domain.booleans(), "pairs": PAIRS, "loops": False, "bound": 2_000}

    def _validate(self) -> None:
        if self.count < 0:
            raise ValueError("count must not be negative")
        if self.size < 1:
            raise ValueError("size must be at least 1")
        if not 1 <= self.ident_count <= 3:
            raise ValueError("ident_count must be between 1 and 3")
        if not self.pairs:
            raise ValueError(f"no pairs to fuzz; choose from {PAIRS}")
        for pair in self.pairs:
            if pair not in PAIRS:
                raise ValueError(f"unknown pair {pair!r}; choose from {PAIRS}")


class Mismatch(Node):
    """A disagreement, with the texts and ``epiflow diff`` flags that replay it."""

    __slots__ = ("pair", "index", "program", "policy", "semantic", "epistemic", "flags")
    pair: str
    index: int
    program: str
    policy: str
    semantic: str
    epistemic: str
    flags: tuple[str, ...]

    def command(self, program: str = "mismatch.wout",
                policy: str = "mismatch.pol") -> list[str]:
        """``epiflow`` arguments replaying this mismatch from the saved texts."""
        return ["diff", "--program", program, "--policy", policy, *self.flags]


class FuzzSummary:
    """``outcomes`` counts each pair's runs by the outcome both readings
    agreed on (``None`` for a mismatch)."""

    __slots__ = ("config", "runs", "outcomes", "mismatches")

    def __init__(self, config: FuzzConfig):
        self.config = config
        self.runs = 0
        self.outcomes: dict[str, Counter] = {}
        self.mismatches: list[Mismatch] = []

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def per_pair(self) -> dict[str, int]:
        """Runs per pair."""
        return {pair: sum(split.values()) for pair, split in self.outcomes.items()}

    def render(self) -> str:
        lines = [
            f"fuzz seed={self.config.seed} runs={self.runs} "
            f"domain: {' '.join(_domain_flags(self.config.domain))}"
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
                lines.append("   policy:")
                lines += [f"     {line}" for line in m.policy.splitlines()]
                lines.append(f"   replay:  epiflow {' '.join(m.command())}")
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
              budget: int, loops: bool, frozen: frozenset[str]) -> tuple[Stmt, int]:
    targets = tuple(n for n in ids if n not in frozen)
    choices = ["skip"] * STATEMENT_WEIGHTS["skip"]
    if targets:
        choices += ["assign"] * STATEMENT_WEIGHTS["assign"]
    choices += ["out"] * STATEMENT_WEIGHTS["out"]
    if budget >= 3:
        choices += ["if"] * STATEMENT_WEIGHTS["if"]
    if loops and budget >= 3 and dom.kind == "int" and targets:
        choices += ["while"] * STATEMENT_WEIGHTS["while"]
    match rng.choice(choices):
        case "skip":
            return Skip(), 1
        case "assign":
            return Assign(rng.choice(targets), _gen_expr(rng, ids, dom, 2)), 1
        case "out":
            return Out(_gen_expr(rng, ids, dom, 2)), 1
        case "if":
            guard = _gen_expr(rng, ids, dom, 2)
            then, c1 = _gen_block(rng, ids, dom, budget // 2, loops, frozen)
            orelse, c2 = _gen_block(rng, ids, dom, budget // 2, loops, frozen)
            return If(guard, then, orelse), 1 + c1 + c2
        case "while":
            # guard pattern x < c with the body bumping x and never otherwise
            # writing x: x climbs monotonically to c, so the loop terminates
            # in any wrap-around domain
            var = rng.choice(targets)
            limit = rng.choice(dom.values)
            inner, cost = _gen_block(rng, ids, dom, budget // 2, False, frozen | {var})
            body = Seq(inner, Assign(var, Binary("+", Var(var), Const(1))))
            return While(Binary("<", Var(var), Const(limit)), body), 2 + cost
    raise AssertionError("unreachable")


def _gen_block(rng: random.Random, ids: tuple[str, ...], dom: Domain,
               budget: int, loops: bool,
               frozen: frozenset[str] = frozenset()) -> tuple[Stmt, int]:
    stmts: list[Stmt] = []
    used = 0
    while used < budget:
        stmt, cost = _gen_stmt(rng, ids, dom, budget - used, loops, frozen)
        stmts.append(stmt)
        used += cost
        if rng.random() < 0.25:
            break
    node: Stmt = stmts[-1] if stmts else Skip()
    for s in reversed(stmts[:-1]):
        node = Seq(s, node)
    return node, max(used, 1)


def generate_program(rng: random.Random, cfg: FuzzConfig,
                     release_flags: tuple[str, ...] = ()) -> Program:
    ids = ("l", "h", "k")[: cfg.ident_count]
    body, _ = _gen_block(rng, ids, cfg.domain, cfg.size, cfg.loops)
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


def _abstractions_for(dom: Domain) -> tuple[str, ...]:
    if dom.kind == "bool":
        return ("Id",)
    if dom.signed:
        return ("Id", "Sign", "Par")
    return ("Id", "Par")


def _domain_flags(dom: Domain) -> list[str]:
    """The command-line flags that select the domain."""
    flags = ["--domain", "bool" if dom.kind == "bool" else f"int:{dom.size}"]
    if dom.signed:
        flags.append("--signed-window")
    if dom.hash_table is not None:
        # one token, so a leading negative value is not read as an option
        flags.append("--hash=" + ",".join(dom.format_value(v) for v in dom.hash_table))
    return flags


def _replay_flags(cfg: FuzzConfig) -> tuple[str, ...]:
    return (*_domain_flags(cfg.domain), "--bound", str(cfg.bound))


def generate_case(pair: str, index: int, cfg: FuzzConfig) -> tuple[Program, Policy]:
    """The program and policy of one differential run, drawn from its own RNG."""
    if pair not in PAIRS:
        raise ValueError(f"unknown pair {pair!r}")
    rng = random.Random(f"{cfg.seed}:{pair}:{index}")
    dom = cfg.domain
    if pair == "akr-er":
        flags = ("r1", "r2")[: rng.randint(1, 2)]
        program = generate_program(rng, cfg, release_flags=flags)
    else:
        program = generate_program(rng, cfg)
    names = program.variables
    low = tuple(n for n in names if rng.random() < 0.5)

    def expr(depth: int, over: tuple[str, ...] = names) -> str:
        return expr_to_source(_gen_expr(rng, over, dom, depth), dom)

    entries = {}
    match pair:
        case "nid-akd":
            entries["declassify"] = tuple(expr(2) for _ in range(rng.randint(1, 2)))
        case "nani-aak":
            low = low or names[:1]  # a named output abstraction acts on low ones
            if dom.kind == "bool":
                # Id is the only named abstraction on booleans, and it
                # declassifies every secret; an expression over the
                # identifiers an entry abstracts can keep some secret
                over = {"eta": low, "phi": tuple(n for n in names if n not in low),
                        "rho": low}
                entries = {key: "Id" if rng.random() < 0.5 else expr(1, over[key])
                           for key in ABSTRACTED}
            else:
                choices = _abstractions_for(dom)
                entries = {key: rng.choice(choices) for key in ABSTRACTED}
        case "akr-er":
            entries["releases"] = tuple((flag, expr(2)) for flag in program.flags)
        case "nitd-aktd":
            entries["whens"] = tuple((expr(1), expr(1)) for _ in range(rng.randint(0, 2)))
    return program, Policy(pair.split("-")[0], low, **entries)


def run_one(pair: str, index: int, cfg: FuzzConfig) -> Mismatch | None:
    """Run both readings of one generated program and policy; the
    disagreement, if any."""
    return _compare(pair, index, cfg)[1]


def _compare(pair: str, index: int, cfg: FuzzConfig) -> tuple[Outcome | None, Mismatch | None]:
    """The outcome both readings agree on, or None and their mismatch."""
    program, policy = generate_case(pair, index, cfg)
    sem_run, epi_run = run_both_sides(program, policy, ModelConfig(cfg.domain, bound=cfg.bound))
    semantic, epistemic = sem_run.verdict.outcome, epi_run.verdict.outcome
    if semantic is epistemic:
        return semantic, None
    return None, Mismatch(
        pair=pair, index=index, program=to_source(program.body, cfg.domain),
        policy=policy.to_text(), semantic=semantic.value,
        epistemic=epistemic.value, flags=_replay_flags(cfg))


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
