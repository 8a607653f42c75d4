"""Line-oriented policy files and dispatch to the matching checker.

A policy file names one check and its parameters::

    check: akd
    low: l, max
    declassify: (0 <= h) && (h <= max)

    # other keys, by check:
    #   eta: / phi: / rho:   Id | Sign | Par | <expr>     (aak, nani)
    #   release: r1 = <expr>                              (akr, er; repeatable)
    #   when: <state-expr> ==> <init-expr>                (aktd, nitd; repeatable)

``#`` starts a comment.  Epistemic checks (ak, akd, aak, akr, aktd) go
through the formula encoders; their trace-based counterparts (oni, nid,
nani, er, nitd) run directly on the model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .domain import Domain
from .lang import Expr, Program, parse_expression, validate_expr
from .logic import Formula, formula_size, model_satisfies
from .model import Model, ModelConfig, build_model
from .policies import (ABSTRACTIONS, FlowSpec, InitPredicate, PolicyError,
                       ReleaseSpec, TemporalDeclassification, encode_ak,
                       encode_akd, encode_aak, encode_akr, encode_aktd)
from .semantics import (check_er, check_nani, check_nid, check_nitd, check_oni)
from .verdicts import Verdict

EPISTEMIC_CHECKS = ("ak", "akd", "aak", "akr", "aktd")
SEMANTIC_CHECKS = ("oni", "nid", "nani", "er", "nitd")
SEMANTIC_OF = dict(zip(EPISTEMIC_CHECKS, SEMANTIC_CHECKS))
EPISTEMIC_OF = dict(zip(SEMANTIC_CHECKS, EPISTEMIC_CHECKS))


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


def parse_policy(text: str) -> Policy:
    fields: dict = {"low": (), "declassify": [], "releases": [], "whens": [],
                    "eta": None, "phi": None, "rho": None, "check": None}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise PolicyError(f"policy line {lineno}: expected 'key: value'")
        key, value = (part.strip() for part in line.split(":", 1))
        match key:
            case "check":
                if value not in EPISTEMIC_CHECKS + SEMANTIC_CHECKS:
                    raise PolicyError(f"policy line {lineno}: unknown check {value!r}")
                fields["check"] = value
            case "low":
                names = tuple(n.strip() for n in value.split(",") if n.strip())
                fields["low"] = names
            case "declassify":
                fields["declassify"].append(value)
            case "eta" | "phi" | "rho":
                fields[key] = value
            case "release":
                if "=" not in value:
                    raise PolicyError(
                        f"policy line {lineno}: expected 'release: flag = expr'")
                flag, expr = (part.strip() for part in value.split("=", 1))
                fields["releases"].append((flag, expr))
            case "when":
                if "==>" not in value:
                    raise PolicyError(
                        f"policy line {lineno}: expected 'when: cond ==> expr'")
                cond, expr = (part.strip() for part in value.split("==>", 1))
                fields["whens"].append((cond, expr))
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
    check: str
    verdict: Verdict
    model: Model | None = None
    formula: Formula | None = None
    transformed: Program | None = None
    elapsed: float = 0.0

    @property
    def formula_nodes(self) -> int:
        return formula_size(self.formula) if self.formula is not None else 0


def _parse_checked(text: str, program: Program, dom: Domain,
                   what: str, extra: tuple[str, ...] = ()) -> Expr:
    try:
        expr = parse_expression(text)
        validate_expr(expr, dom, set(program.variables) | set(extra))
    except ValueError as err:
        raise PolicyError(f"{what} {text!r}: {err}") from err
    return expr


def _abstraction_or_expr(value: str, program: Program, dom: Domain, what: str):
    if value in ABSTRACTIONS:
        return value
    return _parse_checked(value, program, dom, what)


def _policy_pieces(policy: Policy, program: Program, dom: Domain) -> dict:
    pieces: dict = {"fs": FlowSpec.from_low(program, policy.low)}
    if policy.declassify:
        pieces["declassify"] = tuple(
            InitPredicate.from_expression(
                _parse_checked(t, program, dom, "declassification"), dom)
            for t in policy.declassify)
    if policy.releases:
        pieces["releases"] = ReleaseSpec(tuple(
            (flag, _parse_checked(expr, program, dom, f"release {flag}"))
            for flag, expr in policy.releases))
    if policy.whens:
        pieces["whens"] = tuple(
            TemporalDeclassification(
                _parse_checked(cond, program, dom, "when-condition", extra=program.flags),
                InitPredicate.from_expression(
                    _parse_checked(expr, program, dom, "declassification"), dom))
            for cond, expr in policy.whens)
    for name in ("eta", "phi", "rho"):
        value = getattr(policy, name)
        if value is not None:
            pieces[name] = _abstraction_or_expr(value, program, dom, name)
    return pieces


def _require(policy: Policy, pieces: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in pieces]
    if missing:
        raise PolicyError(f"check {policy.check!r} needs a {missing[0]!r} entry")


def run_check(program: Program, policy: Policy, cfg: ModelConfig,
              fix_low: bool = False) -> CheckRun:
    """Build what the named check needs, run it, and time it."""
    dom = cfg.domain
    start = time.perf_counter()
    pieces = _policy_pieces(policy, program, dom)
    fs: FlowSpec = pieces["fs"]
    name = policy.check
    model: Model | None = None
    formula: Formula | None = None
    transformed: Program | None = None

    if name in ("aak", "nani"):
        _require(policy, pieces, "eta", "phi", "rho")
    if name in ("akd", "nid"):
        _require(policy, pieces, "declassify")
    if name in ("akr", "er") and "releases" not in pieces:
        pieces["releases"] = ReleaseSpec(())
    if name in ("aktd", "nitd") and "whens" not in pieces:
        pieces["whens"] = ()

    match name:
        case "oni":
            model = build_model(program, cfg)
            verdict = check_oni(model, fs)
        case "nid":
            model = build_model(program, cfg)
            verdict = check_nid(model, fs, pieces["declassify"])
        case "nani":
            verdict = check_nani(program, fs, pieces["eta"], pieces["phi"],
                                 pieces["rho"], cfg)
        case "er":
            model = build_model(program, cfg)
            pieces["releases"].check_against(program, dom)
            verdict = check_er(model, fs, pieces["releases"])
        case "nitd":
            model = build_model(program, cfg)
            verdict = check_nitd(model, fs, pieces["whens"])
        case "ak":
            model = build_model(program, cfg)
            formula = encode_ak(fs, dom)
            verdict = model_satisfies(model, formula)
        case "akd":
            model = build_model(program, cfg)
            formula = encode_akd(fs, pieces["declassify"], dom)
            verdict = model_satisfies(model, formula)
        case "aak":
            transformed, formula = encode_aak(
                program, fs, pieces["eta"], pieces["phi"], pieces["rho"],
                dom, fix_low=fix_low)
            model = build_model(transformed, cfg)
            verdict = model_satisfies(model, formula)
        case "akr":
            model = build_model(program, cfg)
            pieces["releases"].check_against(program, dom)
            formula = encode_akr(fs, pieces["releases"], dom)
            verdict = model_satisfies(model, formula)
        case "aktd":
            model = build_model(program, cfg)
            formula = encode_aktd(fs, pieces["whens"], dom)
            verdict = model_satisfies(model, formula)
        case _:
            raise PolicyError(f"unknown check {name!r}")

    return CheckRun(
        check=name, verdict=verdict, model=model, formula=formula,
        transformed=transformed, elapsed=time.perf_counter() - start)


def run_both_sides(program: Program, policy: Policy, cfg: ModelConfig,
                   fix_low: bool = False) -> tuple[CheckRun, CheckRun]:
    """Run the trace-based and the epistemic reading of the same policy."""
    name = policy.check
    semantic = SEMANTIC_OF.get(name, name)
    epistemic = EPISTEMIC_OF.get(name, name)
    sem_run = run_check(program, replace(policy, check=semantic), cfg, fix_low)
    epi_run = run_check(program, replace(policy, check=epistemic), cfg, fix_low)
    return sem_run, epi_run


