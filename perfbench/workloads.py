"""The benchmark's workloads and the gate on their answers.

A workload is a list of ops run one at a time through epiflow's public
entry points: ``epiflow.cli.main`` for ``check`` ops and
``epiflow.fuzz.run_one`` for fuzz ops.  An op fails when it raises, exits
outside {0, 1, 2}, returns a verdict other than the hand-derived one in
``expected.json``, or disagrees with the other reading of its policy.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"
SAMPLES = ROOT / "samples"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("ladder", "loop16", "fuzz")

EXIT_OUTCOME = {0: "HOLDS", 1: "FAILS", 2: "BOUND_EXCEEDED"}

HASH8 = "0,3,6,1,4,7,2,5"  # hash(v) = 3v mod 8, as in acceptance criterion 7
INT8S = ("--domain", "int:8", "--signed-window")
INT8H = ("--domain", "int:8", "--hash", HASH8)
INT4 = ("--domain", "int:4")

# item, program, policy parameters, domain flags, (epistemic, trace-based)
LADDER = (
    ("c4-secure", INPUTS / "c4_secure.wout", INPUTS / "c4_secure.pol", INT8S, ("aak", "nani")),
    ("c4-deceptive", INPUTS / "c4_deceptive.wout", INPUTS / "c4_deceptive.pol", INT8S,
     ("aak", "nani")),
    ("c5", INPUTS / "c5.wout", INPUTS / "c5.pol", INT4, ("akd", "nid")),
    ("c7-secure", INPUTS / "c7_secure.wout", INPUTS / "c7.pol", INT8H, ("akr", "er")),
    ("c7-leaky", INPUTS / "c7_leaky.wout", INPUTS / "c7.pol", INT8H, ("akr", "er")),
    ("c8", SAMPLES / "payment.wout", SAMPLES / "payment.pol", INT4, ("aktd", "nitd")),
)
SMOKE_LADDER = ("c5",)

# at int:4 and int:8 the loop finishes in 12-350 ms, too short to be steady
LOOP_DOMAIN, SMOKE_LOOP_DOMAIN = "int:16", "int:4"
LOOP = (
    ("oni", INPUTS / "loop.wout", INPUTS / "loop_oni.pol", ("ak", "oni")),
    ("nid", INPUTS / "loop.wout", INPUTS / "loop_nid.pol", ("akd", "nid")),
)

FUZZ_COUNT, SMOKE_FUZZ_COUNT = 200, 5


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # "check" or "fuzz"
    reading: str  # "epistemic", "trace" or "both"
    call: Callable[[], object]
    judge: Callable[[object], str | None]  # failure message, or None
    item: str = ""


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def build_ops(workload: str, seed: int, smoke: bool, workdir: Path,
              expected: dict | None = None) -> list[Op]:
    """The ops of one pass, with their inputs written under ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "fuzz":
        return _fuzz_ops(seed, smoke)
    answers = (expected or load_expected())[workload]
    if workload == "ladder":
        items = [(name, program, params, flags, checks)
                 for name, program, params, flags, checks in LADDER
                 if not smoke or name in SMOKE_LADDER]
    else:
        flags = ("--domain", SMOKE_LOOP_DOMAIN if smoke else LOOP_DOMAIN)
        items = [(name, program, params, flags, checks)
                 for name, program, params, checks in LOOP]
    return [op for item in items for op in _check_ops(*item, workdir, answers)]


def _check_ops(item: str, program: Path, params: Path, flags: tuple,
               checks: tuple[str, str], workdir: Path, answers: dict) -> list[Op]:
    from epiflow.cli import main

    parameters = [line for line in params.read_text(encoding="utf-8").splitlines()
                  if not line.strip().startswith("check:")]
    ops = []
    for check, reading in zip(checks, ("epistemic", "trace")):
        name = f"{item}/{check}"
        policy = workdir / f"{item}.{check}.pol"
        policy.write_text("\n".join([f"check: {check}", *parameters]) + "\n",
                          encoding="utf-8")
        report = workdir / f"{item}.{check}.json"
        argv = ["check", "--program", str(program), "--policy", str(policy),
                *flags, "--report", str(report)]
        ops.append(Op(
            name=name, kind="check", reading=reading, item=item,
            call=partial(_run_cli, main, argv),
            judge=partial(_judge_check, name, report, answers[name]["verdict"])))
    return ops


def _run_cli(main, argv: list[str]) -> int:
    # the report text and expand's size warning go to buffers, not the terminal
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


def _judge_check(name: str, report: Path, expected: str, code: object) -> str | None:
    outcome = EXIT_OUTCOME.get(code)
    if outcome is None:
        return f"{name}: exit code {code!r}"
    reported = json.loads(report.read_text(encoding="utf-8"))["outcome"]
    if reported != outcome:
        return f"{name}: report says {reported}, exit code says {outcome}"
    if outcome != expected:
        return f"{name}: {outcome}, expected {expected}"
    return None


def _fuzz_ops(seed: int, smoke: bool) -> list[Op]:
    from epiflow.domain import Domain
    from epiflow.fuzz import FuzzConfig, run_one

    count = SMOKE_FUZZ_COUNT if smoke else FUZZ_COUNT
    # the two sweeps of acceptance criterion 9, seeded from the benchmark seed
    sweeps = (FuzzConfig(seed=seed, count=count),
              FuzzConfig(seed=seed + 1, count=count, pairs=("nani-aak",),
                         domain=Domain.integers(4, signed=True)))
    ops = []
    for cfg in sweeps:
        for pair in cfg.pairs:
            for index in range(cfg.count):
                name = f"{cfg.domain.spec()}/{pair}/{index}"
                ops.append(Op(
                    name=name, kind="fuzz", reading="both",
                    call=partial(run_one, pair, index, cfg),
                    judge=partial(_judge_fuzz, name)))
    return ops


def _judge_fuzz(name: str, mismatch: object) -> str | None:
    if mismatch is None:
        return None
    return (f"{name}: readings disagree, semantic={mismatch.semantic} "
            f"epistemic={mismatch.epistemic}")


def disagreements(ops: list[Op], results: dict[str, object]) -> dict[str, str]:
    """Failure messages for check ops whose two readings disagree."""
    by_item: dict[str, list[tuple[str, str | None]]] = {}
    for op in ops:
        if op.kind == "check" and op.name in results:
            by_item.setdefault(op.item, []).append(
                (op.name, EXIT_OUTCOME.get(results[op.name])))
    failures = {}
    for item, outcomes in by_item.items():
        if len({outcome for _, outcome in outcomes}) > 1:
            shown = ", ".join(f"{name}={outcome}" for name, outcome in outcomes)
            for name, _ in outcomes:
                failures[name] = f"{item}: readings disagree ({shown})"
    return failures
