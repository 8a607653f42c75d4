"""Check reports: human text plus a stable machine format.

The machine format is a single JSON document with fixed key order, holding
only primitives (values are rendered through the domain), so byte-for-byte
golden testing works and a report round-trips losslessly.  Wall time is
the one field expected to vary between runs.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass

from .domain import Domain
from .model import Model
from .policyfile import CheckRun
from .verdicts import Verdict, Witness

SCHEMA = "epiflow-report/1"


def program_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fmt(dom: Domain, value) -> str:
    return dom.format_value(value)


def _witness_payload(w: Witness | None, dom: Domain) -> dict | None:
    if w is None:
        return None
    return {
        "kind": w.kind,
        "stores": [
            {"label": label, "store": {n: _fmt(dom, v) for n, v in items}}
            for label, items in w.stores
        ],
        "point_index": w.point_index,
        "trace": [_fmt(dom, e) for e in w.trace] if w.trace is not None else None,
        "bindings": {n: _fmt(dom, v) for n, v in w.bindings},
        "note": w.note,
    }


@dataclass(frozen=True)
class Report:
    """The JSON report of one check."""

    check: str
    program_digest: str
    program_path: str | None
    domain: dict
    policy: dict
    bound: int
    termination_output: bool
    outcome: str
    witness: dict | None
    stats: dict
    wall_time_s: float
    note: str = ""

    def to_json_text(self) -> str:
        return json.dumps({"schema": SCHEMA, **asdict(self)}, indent=2) + "\n"

    @staticmethod
    def from_json_text(text: str) -> "Report":
        payload = json.loads(text)
        if payload.get("schema") != SCHEMA:
            raise ValueError(f"unknown report schema {payload.get('schema')!r}")
        payload.pop("schema")
        return Report(**payload)


def build_report(run: CheckRun, policy_payload: dict, program_text: str,
                 program_path: str | None) -> Report:
    verdict: Verdict = run.verdict
    cfg = run.model.cfg
    stats = {
        "executions": len(run.model.runs),
        "points": run.model.point_count,
        # every interned trace id is some point's trace: one epoch each
        "epochs": len(run.model.trace_parents),
        "formula_nodes": verdict.stats.formula_nodes,
        "points_visited": verdict.stats.points_visited,
        "cache_hits": verdict.stats.cache_hits,
    }
    note = verdict.note or ""
    bookkeeping = f"bounded exploration at {cfg.bound} steps per run"
    note = f"{note}; {bookkeeping}" if note else bookkeeping
    return Report(
        check=run.check,
        program_digest=program_digest(program_text),
        program_path=program_path,
        domain=cfg.domain.describe(),
        policy=policy_payload,
        bound=cfg.bound,
        termination_output=cfg.termination_output,
        outcome=verdict.outcome.value,
        witness=_witness_payload(verdict.witness, cfg.domain),
        stats=stats,
        wall_time_s=round(run.elapsed, 6),
        note=note,
    )


def render_text(report: Report, formula: str | None = None) -> str:
    """The report as text; ``formula``, when given, is the source of the
    formula the check evaluated, which the machine format leaves out."""
    lines = [
        f"check     {report.check}",
        *([f"evaluates {formula}"] if formula is not None else []),
        f"program   sha256:{report.program_digest[:16]}"
        + (f" ({report.program_path})" if report.program_path else ""),
        f"domain    {_domain_line(report.domain)}",
        f"verdict   {report.outcome}",
    ]
    if report.witness:
        w = report.witness
        lines.append("witness:")
        for entry in w["stores"]:
            store = ", ".join(f"{k}={v}" for k, v in entry["store"].items())
            lines.append(f"  {entry['label']}: ({store})")
        if w["point_index"] is not None:
            lines.append(f"  at step {w['point_index']}, trace [{', '.join(w['trace'])}]")
        if w["bindings"]:
            binds = ", ".join(f"{k}={v}" for k, v in w["bindings"].items())
            lines.append(f"  bindings: {binds}")
        if w["note"]:
            lines.append(f"  {w['note']}")
    s = report.stats
    lines.append(
        f"explored  {s['executions']} executions, {s['points']} points, "
        f"{s['epochs']} epochs")
    if s["formula_nodes"]:
        lines.append(
            f"formula   {s['formula_nodes']} nodes, "
            f"{s['points_visited']} evaluations, {s['cache_hits']} cache hits")
    lines.append(f"wall time {report.wall_time_s:.3f}s")
    if report.note:
        lines.append(f"note      {report.note}")
    return "\n".join(lines) + "\n"


def _domain_line(desc: dict) -> str:
    if desc["kind"] == "bool":
        return "bool"
    line = f"int:{desc['size']}"
    if desc["signed"]:
        line += " signed"
    if desc["hash_table"]:
        line += f" hash={','.join(str(v) for v in desc['hash_table'])}"
    return line


def model_dump(model: Model) -> str:
    """One line per execution plus the epoch table, in stable order."""
    dom = model.domain
    lines = []
    points = Counter()
    for ex in model.executions:
        points.update(ex.trace_ids)
        trace = ", ".join(dom.format_value(e) for e in model.trace_tuple(ex.trace_ids[len(ex)]))
        status = ex.status.value
        if ex.lasso_entry is not None:
            status += f"@{ex.lasso_entry}"
        lines.append(f"{model.store_text(ex.init_store)}  steps={len(ex)}  "
                     f"status={status}  trace=[{trace}]")
    lines.append("")
    lines.append("epochs:")
    for tid in sorted(points):
        trace = ", ".join(dom.format_value(e) for e in model.trace_tuple(tid))
        lines.append(f"  [{trace}] -> {points[tid]} points")
    return "\n".join(lines) + "\n"
