"""Line-oriented policy files and the check table every command runs through.

A policy file names one check and its parameters::

    check: akd
    low: l, max
    declassify: (0 <= h) && (h <= max)

    # other keys, by check:
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
from .logic import Formula, model_satisfies
from .model import Model, ModelConfig, build_model
from .policies import (ABSTRACTIONS, FlowSpec, InitPredicate, PolicyError,
                       ReleaseSpec, TemporalDeclassification, abstraction_fn,
                       encode_ak, encode_akd, encode_aak, encode_akr, encode_aktd)
from .semantics import (check_er, check_nani, check_nid, check_nitd, check_oni)
from .verdicts import Verdict


@dataclass(frozen=True)
class Check:
    """One row of the check table: one reading of a security condition.

    An epistemic row's ``encode(program, pieces, dom)`` gives the
    program to model (only aak transforms it) and the formula to evaluate;
    a trace-based row's ``judge(model, pieces)`` gives the verdict.  Rows
    call this module's ``encode_*``, ``check_*``, ``build_model`` and
    ``model_satisfies`` by name, so a wrapper put on one sees every call.
    """

    twin: str
    needs: tuple[str, ...] = ()  # policy entries the check cannot run without
    encode: Callable[[Program, dict, Domain], tuple[Program, Formula]] | None = None
    judge: Callable[[Model, dict], Verdict] | None = None

    @property
    def reading(self) -> str:
        return "trace" if self.encode is None else "epistemic"


ABSTRACTED = ("eta", "phi", "rho")

CHECKS: dict[str, Check] = {
    "ak": Check("oni", encode=lambda prog, p, dom: (prog, encode_ak(p["fs"], dom))),
    "akd": Check("nid", ("declassify",), encode=lambda prog, p, dom: (
        prog, encode_akd(p["fs"], p["declassify"], dom))),
    "aak": Check("nani", ABSTRACTED, encode=lambda prog, p, dom: encode_aak(
        prog, p["fs"], p["eta"], p["phi"], p["rho"], dom)),
    "akr": Check("er", encode=lambda prog, p, dom: (
        prog, encode_akr(p["fs"], p["releases"], dom))),
    "aktd": Check("nitd", encode=lambda prog, p, dom: (
        prog, encode_aktd(p["fs"], p["whens"], dom))),
    "oni": Check("ak", judge=lambda m, p: check_oni(m, p["fs"])),
    "nid": Check("akd", ("declassify",),
                 judge=lambda m, p: check_nid(m, p["fs"], p["declassify"])),
    "nani": Check("aak", ABSTRACTED,
                  judge=lambda m, p: check_nani(m, p["fs"], p["eta"], p["phi"], p["rho"])),
    "er": Check("akr", judge=lambda m, p: check_er(m, p["fs"], p["releases"])),
    "nitd": Check("aktd", judge=lambda m, p: check_nitd(m, p["fs"], p["whens"])),
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
    """A check's verdict, the model it judged (aak's transformed one) and its time."""

    check: str
    verdict: Verdict
    model: Model
    elapsed: float = 0.0


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


def _run(name: str, program: Program, pieces: dict, cfg: ModelConfig,
         model: Model | None = None) -> CheckRun:
    """One reading of a checked policy, timed; ``model`` is the program's, if built."""
    start = time.perf_counter()
    check = CHECKS[name]
    modeled, formula = (program, None) if check.encode is None else check.encode(
        program, pieces, cfg.domain)
    if model is None or modeled is not program:
        model = build_model(modeled, cfg)
    verdict = (check.judge(model, pieces) if formula is None
               else model_satisfies(model, formula))
    return CheckRun(name, verdict, model, time.perf_counter() - start)


def run_check(program: Program, policy: Policy, cfg: ModelConfig) -> CheckRun:
    """Check the policy, build what the named check needs, run it, and time it."""
    pieces = policy_pieces(policy, program, cfg.domain)
    return _run(policy.check, program, pieces, cfg)


def run_both_sides(program: Program, policy: Policy,
                   cfg: ModelConfig) -> tuple[CheckRun, CheckRun]:
    """Run the trace-based and the epistemic reading of the same policy.

    The policy is checked once and the program modeled once; only aak
    models a second program, the one its encoding transforms.
    """
    pieces = policy_pieces(policy, program, cfg.domain)
    semantic = SEMANTIC_OF.get(policy.check, policy.check)
    epistemic = EPISTEMIC_OF.get(policy.check, policy.check)
    sem_run = _run(semantic, program, pieces, cfg)
    epi_run = _run(epistemic, program, pieces, cfg, sem_run.model)
    return sem_run, epi_run
