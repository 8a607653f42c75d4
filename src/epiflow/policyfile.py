"""Line-oriented policy files and the check table every command runs through.

A policy file names one check and its parameters::

    check: akd
    low: l, max
    declassify: (0 <= h) && (h <= max)

    # other keys, by check (a check refuses the others' keys):
    #   eta: / phi: / rho:   Id | Sign | Par | <expr>     (aak, nani)
    #   release: r1 = <expr>                              (akr, er; repeatable)
    #   when: <state-expr> ==> <init-expr>                (aktd, nitd; repeatable)

``#`` starts a comment.  ``CHECKS`` has one row per check.  Epistemic
checks (ak, akd, aak, akr, aktd) go through the formula encoders; their
trace-based twins (oni, nid, nani, er, nitd) run directly on the model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .domain import Domain
from .lang import Expr, ParseError, Program, parse_expression, validate_expr
from .logic import Evaluation, Formula, model_satisfies
from .model import Model, ModelConfig, build_model, results_model
from .policies import (ABSTRACTIONS, FlowSpec, InitPredicate, PolicyError,
                       ReleaseSpec, TemporalDeclassification, abstraction_fn,
                       check_powerset_cap, condition_ids, encode_ak, encode_akd,
                       encode_aak, encode_akr, encode_aktd)
from .semantics import (check_er, check_nani, check_nid, check_nitd, check_oni)
from .verdicts import Verdict


@dataclass(frozen=True)
class Check:
    """One row of the check table: one reading of a security condition.

    An epistemic row's ``encode(program, pieces, dom)`` gives the results
    its observer sees in place of the program's outputs (aak's; None for
    the others) and the formula to evaluate; a trace-based row's
    ``judge(model, pieces)`` gives the verdict, and its ``keep(pieces)``
    the identifiers the judge reads at every point, which the model must
    keep (an epistemic row's are those its formula's plans read).  Rows
    call this module's ``encode_*``, ``check_*``, ``build_model`` and
    ``model_satisfies`` by name, so a wrapper put on one sees every call.
    """

    twin: str
    reads: tuple[str, ...] = ()  # policy entries the check reads besides low:
    needs: tuple[str, ...] = ()  # the ones it cannot run without
    encode: Callable[[Program, dict, Domain],
                     tuple[tuple[Expr, ...] | None, Formula]] | None = None
    judge: Callable[[Model, dict], Verdict] | None = None
    keep: Callable[[dict], frozenset[str]] = lambda pieces: frozenset()

    @property
    def reading(self) -> str:
        return "trace" if self.encode is None else "epistemic"


ABSTRACTED = ("eta", "phi", "rho")
DECLASSIFY = ("declassify",)
# the policy-file key of each entry a check may read besides low:
ENTRY_KEYS = {"declassify": "declassify", "eta": "eta", "phi": "phi", "rho": "rho",
              "releases": "release", "whens": "when"}

CHECKS: dict[str, Check] = {
    "ak": Check("oni", encode=lambda prog, p, dom: (None, encode_ak(p["fs"], dom))),
    "akd": Check("nid", DECLASSIFY, DECLASSIFY, encode=lambda prog, p, dom: (
        None, encode_akd(p["fs"], p["declassify"], dom))),
    "aak": Check("nani", ABSTRACTED, ABSTRACTED, encode=lambda prog, p, dom: encode_aak(
        prog, p["fs"], p["eta"], p["phi"], p["rho"], dom)),
    "akr": Check("er", ("releases",), encode=lambda prog, p, dom: (
        None, encode_akr(p["fs"], p["releases"], dom))),
    "aktd": Check("nitd", ("whens",), encode=lambda prog, p, dom: (
        None, encode_aktd(p["fs"], p["whens"], dom))),
    "oni": Check("ak", judge=lambda m, p: check_oni(m, p["fs"])),
    "nid": Check("akd", DECLASSIFY, DECLASSIFY,
                 judge=lambda m, p: check_nid(m, p["fs"], p["declassify"])),
    "nani": Check("aak", ABSTRACTED, ABSTRACTED,
                  judge=lambda m, p: check_nani(m, p["fs"], p["eta"], p["phi"], p["rho"])),
    "er": Check("akr", ("releases",), judge=lambda m, p: check_er(m, p["fs"], p["releases"]),
                keep=lambda p: p["releases"].flags),
    "nitd": Check("aktd", ("whens",), judge=lambda m, p: check_nitd(m, p["fs"], p["whens"]),
                  keep=lambda p: condition_ids(p["whens"])),
}
SEMANTIC_OF = {n: c.twin for n, c in CHECKS.items() if c.reading == "epistemic"}
EPISTEMIC_OF = {twin: n for n, twin in SEMANTIC_OF.items()}
EPISTEMIC_CHECKS, SEMANTIC_CHECKS = tuple(SEMANTIC_OF), tuple(EPISTEMIC_OF)


@dataclass(frozen=True)
class Policy:
    check: str
    low: tuple[str, ...] = ()
    declassify: tuple[str, ...] = ()
    eta: str | None = None
    phi: str | None = None
    rho: str | None = None
    releases: tuple[tuple[str, str], ...] = ()
    whens: tuple[tuple[str, str], ...] = ()

    def describe(self) -> dict:
        return {
            "check": self.check,
            "low": list(self.low),
            "declassify": list(self.declassify),
            "eta": self.eta,
            "phi": self.phi,
            "rho": self.rho,
            "release": [f"{flag} = {expr}" for flag, expr in self.releases],
            "when": [f"{cond} ==> {expr}" for cond, expr in self.whens],
        }

    def to_text(self) -> str:
        """The policy as a policy file, which ``parse_policy`` reads back."""
        lines = [f"check: {self.check}", f"low: {', '.join(self.low)}"]
        lines += [f"declassify: {text}" for text in self.declassify]
        lines += [f"{key}: {value}" for key in ABSTRACTED
                  if (value := getattr(self, key)) is not None]
        lines += [f"release: {flag} = {expr}" for flag, expr in self.releases]
        lines += [f"when: {cond} ==> {expr}" for cond, expr in self.whens]
        return "\n".join(lines) + "\n"


def _parsed(lineno: int, what: str, text: str) -> str:
    """``text`` once it parses as an expression; else a usage error naming
    the policy line.  ``policy_pieces`` checks it against the program."""
    try:
        parse_expression(text)
    except ParseError as err:
        raise PolicyError(f"policy line {lineno}: {what}: {err}") from None
    return text


def parse_policy(text: str) -> Policy:
    fields: dict = {"low": (), "declassify": [], "releases": [], "whens": [],
                    "eta": None, "phi": None, "rho": None, "check": None}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise PolicyError(f"policy line {lineno}: expected 'key: value'")
        key, value = (part.strip() for part in line.split(":", 1))
        if key in ("check", "low", *ABSTRACTED):  # the other keys repeat
            if key in seen:
                raise PolicyError(f"policy line {lineno}: repeated key {key!r}")
            seen.add(key)
        match key:
            case "check":
                if value not in CHECKS:
                    raise PolicyError(f"policy line {lineno}: unknown check {value!r}")
                fields["check"] = value
            case "low":
                names = tuple(n.strip() for n in value.split(",") if n.strip())
                fields["low"] = names
            case "declassify":
                fields["declassify"].append(_parsed(lineno, "declassification", value))
            case "eta" | "phi" | "rho":
                fields[key] = value if value in ABSTRACTIONS else _parsed(lineno, key, value)
            case "release":
                if "=" not in value:
                    raise PolicyError(
                        f"policy line {lineno}: expected 'release: flag = expr'")
                flag, expr = (part.strip() for part in value.split("=", 1))
                fields["releases"].append((flag, _parsed(lineno, f"release {flag}", expr)))
            case "when":
                if "==>" not in value:
                    raise PolicyError(
                        f"policy line {lineno}: expected 'when: cond ==> expr'")
                cond, expr = (part.strip() for part in value.split("==>", 1))
                fields["whens"].append((_parsed(lineno, "when-condition", cond),
                                        _parsed(lineno, "declassification", expr)))
            case _:
                raise PolicyError(f"policy line {lineno}: unknown key {key!r}")
    if fields["check"] is None:
        raise PolicyError("policy file names no check")
    return Policy(
        check=fields["check"],
        low=fields["low"],
        declassify=tuple(fields["declassify"]),
        eta=fields["eta"],
        phi=fields["phi"],
        rho=fields["rho"],
        releases=tuple(fields["releases"]),
        whens=tuple(fields["whens"]),
    )


def load_policy(path: str) -> Policy:
    with open(path, encoding="utf-8") as handle:
        return parse_policy(handle.read())


# --------------------------------------------------------------------------
# Dispatch


@dataclass
class CheckRun:
    """A check's verdict, the model it judged (aak's: of the results), its
    time, and the formula it evaluated (None for a trace-based check)."""

    check: str
    verdict: Verdict
    model: Model
    elapsed: float = 0.0
    formula: Formula | None = None


def _parse_checked(text: str, program: Program, dom: Domain,
                   what: str, extra: tuple[str, ...] = ()) -> Expr:
    try:
        expr = parse_expression(text)
        validate_expr(expr, dom, set(program.variables) | set(extra))
    except ValueError as err:
        raise PolicyError(f"{what} {text!r}: {err}") from err
    return expr


def policy_pieces(policy: Policy, program: Program, dom: Domain) -> dict:
    """The policy's entries, parsed and checked against the program.

    A usage error if an entry is malformed or the named check needs an
    entry the policy lacks, so both readings of a pair accept the same
    policies.  Releases and temporal declassifications default to none.
    """
    check = CHECKS.get(policy.check)
    if check is None:
        raise PolicyError(f"unknown check {policy.check!r}")
    pieces = {
        "fs": FlowSpec.from_low(program, policy.low),
        "declassify": tuple(
            InitPredicate.from_expression(
                _parse_checked(t, program, dom, "declassification"), dom)
            for t in policy.declassify),
        "releases": ReleaseSpec(tuple(
            (flag, _parse_checked(expr, program, dom, f"release {flag}"))
            for flag, expr in policy.releases)),
        "whens": tuple(
            TemporalDeclassification(
                _parse_checked(cond, program, dom, "when-condition", extra=program.flags),
                InitPredicate.from_expression(
                    _parse_checked(expr, program, dom, "declassification"), dom))
            for cond, expr in policy.whens),
    }
    for name in ABSTRACTED:
        value = getattr(policy, name)
        if value in ABSTRACTIONS:
            abstraction_fn(value, dom)  # rejects Sign and Par on booleans
            pieces[name] = value
        elif value is not None:
            pieces[name] = _parse_checked(value, program, dom, name)
    pieces["releases"].check_against(program, dom)
    missing = [k for k in check.needs if not pieces.get(k)]
    if missing:
        raise PolicyError(f"check {policy.check!r} needs a {missing[0]!r} entry")
    return pieces


def _check_pieces(policy: Policy, program: Program, dom: Domain) -> dict:
    """``policy_pieces`` for a check, which both readings of a pair refuse
    alike: an entry the named check does not read, which it would ignore,
    and more conditions than aktd's one conjunct per subset allows."""
    pieces = policy_pieces(policy, program, dom)
    reads = CHECKS[policy.check].reads
    unread = [key for entry, key in ENTRY_KEYS.items()
              if entry not in reads and getattr(policy, entry) not in (None, ())]
    if unread:
        raise PolicyError(f"check {policy.check!r} does not read the policy's {unread[0]}: entry")
    check_powerset_cap(len(policy.releases) + len(policy.whens))
    return pieces


# What a reading needs before the program's model is built: what it reads at
# every point, its judge, the results it sees in place of outputs (aak), and
# the formula it evaluates (epistemic readings).
Plan = tuple[frozenset[str], Callable[[Model], Verdict], tuple[Expr, ...] | None,
             Formula | None]


def _formula_plan(program: Program, results: tuple[Expr, ...] | None, formula: Formula,
                  dom: Domain) -> Plan:
    """Plan the formula against the program, so the model keeps what it reads."""
    ev = Evaluation(program, dom)
    ev.compile(formula)
    return ev.reads, lambda model: model_satisfies(model, formula, ev), results, formula


def _plan(name: str, program: Program, pieces: dict, dom: Domain) -> Plan:
    check = CHECKS[name]
    if check.encode is None:
        return check.keep(pieces), lambda model: check.judge(model, pieces), None, None
    return _formula_plan(program, *check.encode(program, pieces, dom), dom)


def _judged(name: str, plan: Plan, model: Model, start: float) -> CheckRun:
    """The reading's verdict on the program's ``model``, or on the model of
    its results; timed from ``start``."""
    _, judge, results, formula = plan
    if results is not None:
        model = results_model(model, results)
    return CheckRun(name, judge(model), model, time.perf_counter() - start, formula)


def run_check(program: Program, policy: Policy, cfg: ModelConfig) -> CheckRun:
    """Check the policy, build what the named check needs, run it, and time it."""
    pieces = _check_pieces(policy, program, cfg.domain)
    start = time.perf_counter()
    plan = _plan(policy.check, program, pieces, cfg.domain)
    return _judged(policy.check, plan, build_model(program, cfg, plan[0]), start)


def run_formula(program: Program, formula: Formula, cfg: ModelConfig) -> CheckRun:
    """Check the formula against the program, build its model, evaluate it, and time it."""
    start = time.perf_counter()
    plan = _formula_plan(program, None, formula, cfg.domain)
    return _judged("formula", plan, build_model(program, cfg, plan[0]), start)


def run_both_sides(program: Program, policy: Policy,
                   cfg: ModelConfig) -> tuple[CheckRun, CheckRun]:
    """Run the trace-based and the epistemic reading of the same policy.

    The policy is checked once and the program modeled once, keeping what
    either reading reads; both readings judge that model's runs.
    """
    pieces = _check_pieces(policy, program, cfg.domain)
    names = (SEMANTIC_OF.get(policy.check, policy.check),
             EPISTEMIC_OF.get(policy.check, policy.check))
    start = time.perf_counter()
    plans = [_plan(name, program, pieces, cfg.domain) for name in names]
    model = build_model(program, cfg, plans[0][0] | plans[1][0])
    sem_run = _judged(names[0], plans[0], model, start)
    return sem_run, _judged(names[1], plans[1], model, time.perf_counter())
