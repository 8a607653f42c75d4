"""Command-line interface.

Subcommands::

    check      run one policy (or a raw formula) against a program
    model      dump the executions and the epoch table
    diff       run the trace-based and epistemic reading of one policy
    knowledge  knowledge/required set sizes after each observed output
    fuzz       differential fuzzing of the condition pairs

Each subcommand takes only the flags it reads: all but ``fuzz`` the model
flags, ``check``, ``diff`` and ``knowledge`` ``--policy`` and ``--low``, and
``check`` alone ``--formula`` (in place of ``--policy``) and ``--report``.

Exit status of ``check``: 0 the policy holds, 1 it fails, 2 the model has
a non-terminating run and the verdict is refused, 3 usage error, 4 internal
error (a crash is never reported as a verdict).
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace

from .domain import Domain, DomainError
from .fuzz import PAIRS, FuzzConfig, fuzz_equivalences
from .lang import LangError, ParseError, parse
from .logic import LogicError, formula_to_source, parse_formula
from .model import ModelConfig, build_model
from .policies import PolicyError, condition_ids
from .policyfile import (Policy, check_pieces, judged_model, load_policy,
                         run_both_sides, run_check, run_formula)
from .report import build_report, model_dump, render_text
from .semantics import knowledge_set, required_set
from .verdicts import Outcome

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_BOUND = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

_EXIT_OF = {
    Outcome.HOLDS: EXIT_HOLDS,
    Outcome.FAILS: EXIT_FAILS,
    Outcome.BOUND_EXCEEDED: EXIT_BOUND,
}


def _model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--program", required=True, help="program file (.wout)")
    parser.add_argument("--domain", default="bool", help="bool or int:N (default bool)")
    parser.add_argument("--signed-window", action="store_true",
                        help="use the signed window [-N/2, N/2) for int domains")
    parser.add_argument("--hash", dest="hash_table", default=None,
                        help="hash builtin as comma-separated outputs, in value order")
    parser.add_argument("--bound", type=int, default=10_000,
                        help="step bound per execution (default 10000)")
    parser.add_argument("--termination-output", action="store_true",
                        help="append a marker event when a run terminates")


def _low_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--low", default=None,
                        help="comma-separated low identifiers (overrides the policy)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epiflow",
        description="information-flow checks on while-programs with output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run one policy against a program")
    _model_flags(p_check)
    source = p_check.add_mutually_exclusive_group(required=True)
    source.add_argument("--policy", help="policy file (.pol)")
    source.add_argument("--formula", help="raw formula instead of a policy file")
    _low_flag(p_check)
    p_check.add_argument("--report", default=None, help="also write a JSON report here")
    p_check.set_defaults(func=cmd_check)

    p_model = sub.add_parser("model", help="dump executions and epochs")
    _model_flags(p_model)
    p_model.set_defaults(func=cmd_model)

    p_diff = sub.add_parser("diff", help="compare both readings of a policy")
    _model_flags(p_diff)
    p_diff.add_argument("--policy", required=True, help="policy file (.pol)")
    _low_flag(p_diff)
    p_diff.set_defaults(func=cmd_diff)

    p_know = sub.add_parser("knowledge",
                            help="knowledge/required sets along one run")
    _model_flags(p_know)
    p_know.add_argument("--policy", required=True,
                        help="policy carrying the low split and any declassifications")
    _low_flag(p_know)
    p_know.add_argument("--init", default=None,
                        help="initial store, e.g. 'l=tt,h1=tt,h2=ff' (default: first store)")
    p_know.set_defaults(func=cmd_knowledge)

    p_fuzz = sub.add_parser("fuzz", help="differential fuzzing of condition pairs")
    p_fuzz.add_argument("--pairs", default=",".join(PAIRS),
                        help=f"comma-separated pairs (default all: {','.join(PAIRS)})")
    p_fuzz.add_argument("--count", type=int, default=200)
    p_fuzz.add_argument("--seed", type=int, default=1)
    p_fuzz.add_argument("--ids", type=int, default=2, help="identifier count (max 3)")
    p_fuzz.add_argument("--size", type=int, default=8, help="statement budget")
    p_fuzz.add_argument("--loops", action="store_true", help="allow bounded loops")
    p_fuzz.add_argument("--domain", default="bool")
    p_fuzz.add_argument("--signed-window", action="store_true")
    p_fuzz.add_argument("--hash", dest="hash_table", default=None)
    p_fuzz.add_argument("--bound", type=int, default=2_000)
    p_fuzz.set_defaults(func=cmd_fuzz)

    return parser


_INTEGER = re.compile(r"-?[0-9]+")


def _literal(flag: str, token: str):
    """The value a program's literal ``token`` denotes: tt, ff, true, false
    or an integer with an optional minus sign."""
    if token in ("tt", "true"):
        return True
    if token in ("ff", "false"):
        return False
    if _INTEGER.fullmatch(token):
        return int(token)
    raise DomainError(f"{flag} takes tt, ff, true, false or an integer, not {token!r}")


def _domain_from(args) -> Domain:
    spec = args.domain.strip()
    table = None
    if args.hash_table:
        table = tuple(_literal("--hash", token.strip()) for token in args.hash_table.split(","))
    if spec == "bool":
        if args.signed_window:
            raise DomainError("--signed-window applies to integer domains")
        return Domain.booleans() if table is None else Domain("bool", 2, False, table)
    if spec.startswith("int:") and _INTEGER.fullmatch(spec[4:]):
        return Domain.integers(int(spec[4:]), signed=args.signed_window, hash_table=table)
    raise DomainError(f"--domain takes bool or int:N, not {spec!r}")


def _load(args) -> tuple:
    dom = _domain_from(args)
    with open(args.program, encoding="utf-8") as handle:
        text = handle.read()
    program = parse(text, dom)
    cfg = ModelConfig(dom, bound=args.bound,
                      termination_output=args.termination_output)
    return dom, text, program, cfg


def _policy_from(args) -> Policy:
    policy = load_policy(args.policy)
    if args.low is not None:
        low = tuple(n.strip() for n in args.low.split(",") if n.strip())
        policy = replace(policy, low=low)
    return policy


def cmd_check(args) -> int:
    if args.formula is not None and args.low is not None:
        raise PolicyError("--low overrides a policy file; a --formula has none")
    _, text, program, cfg = _load(args)
    if args.formula is not None:
        run = run_formula(program, parse_formula(args.formula), cfg)
        policy_payload = {"formula": args.formula}
    else:
        policy = _policy_from(args)
        run = run_check(program, policy, cfg)
        policy_payload = policy.describe()
    report = build_report(run, policy_payload, text, args.program)
    formula = None if run.formula is None else formula_to_source(run.formula, cfg.domain)
    sys.stdout.write(render_text(report, formula))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_json_text())
    return _EXIT_OF[run.verdict.outcome]


def cmd_model(args) -> int:
    _, _, program, cfg = _load(args)
    model = build_model(program, cfg, frozenset())
    sys.stdout.write(model_dump(model))
    return EXIT_HOLDS


def cmd_diff(args) -> int:
    _, _, program, cfg = _load(args)
    sem_run, epi_run = run_both_sides(program, _policy_from(args), cfg)
    agree = sem_run.verdict.outcome is epi_run.verdict.outcome
    print(f"pair {sem_run.check}/{epi_run.check}: "
          f"semantic={sem_run.verdict} epistemic={epi_run.verdict} "
          f"{'agree' if agree else 'MISMATCH'}")
    return EXIT_HOLDS if agree else EXIT_FAILS


def _parse_init(text: str, program, dom: Domain) -> dict:
    store = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise PolicyError(f"bad --init entry {item!r}; expected name=value")
        name, raw = (part.strip() for part in item.split("=", 1))
        if name not in program.variables:
            raise PolicyError(f"--init names unknown identifier {name!r}")
        if name in store:
            raise PolicyError(f"--init names {name!r} twice")
        store[name] = _literal("--init", raw)
        if store[name] not in dom:
            raise PolicyError(f"--init value {raw} outside the domain")
    missing = [n for n in program.variables if n not in store]
    if missing:
        raise PolicyError(f"--init misses {missing[0]!r}")
    return store


def cmd_knowledge(args) -> int:
    dom, _, program, cfg = _load(args)
    # the policy is read as ``check`` reads it: for nani and aak, knowledge
    # follows the prefixes of the runs' abstracted results
    pieces = check_pieces(_policy_from(args), program, dom)
    fs, conditions = pieces["fs"], pieces["conditions"]
    model = judged_model(program, cfg, condition_ids(conditions), pieces)
    if model.tainted:
        print("model contains a non-terminated execution; refusing")
        return EXIT_BOUND

    if args.init:
        store = _parse_init(args.init, program, dom)
        store.update((f, dom.false_value) for f in program.flags)
    else:
        store = dict(model.executions[0].init_store)
    execution = model.exec_by_values[tuple(store[n] for n in model.variables)]

    full = model.trace_tuple(execution.trace_ids[len(execution)])
    print("trace prefix | |K| | |R| | verdict")
    status = EXIT_HOLDS
    for cut in range(len(full) + 1):
        trace = full[:cut]
        knowledge = knowledge_set(model, fs, store, trace)
        required = required_set(model, fs, conditions, store, trace)
        secure = required <= knowledge
        if not secure:
            status = EXIT_FAILS
        shown = ", ".join(dom.format_value(e) for e in trace)
        print(f"[{shown}] | {len(knowledge)} | {len(required)} | "
              f"{'SECURE' if secure else 'INSECURE'}")
    return status


def cmd_fuzz(args) -> int:
    dom = _domain_from(args)
    pairs = tuple(p.strip() for p in args.pairs.split(",") if p.strip())
    cfg = FuzzConfig(seed=args.seed, count=args.count, size=args.size,
                     ident_count=args.ids, domain=dom, pairs=pairs,
                     loops=args.loops, bound=args.bound)
    summary = fuzz_equivalences(cfg)
    sys.stdout.write(summary.render())
    return EXIT_HOLDS if summary.ok else EXIT_FAILS


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_HOLDS if not exc.code else EXIT_USAGE
    try:
        return args.func(args)
    except (ParseError, LangError, PolicyError, LogicError, DomainError,
            OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: input nested too deeply to check", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:  # a bug, not a verdict: keep it apart from exit 1
        import traceback  # only on this path, to keep start-up short

        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
