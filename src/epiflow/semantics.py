"""Trace-based security definitions, checked directly on the model.

These are the reference readings of the security conditions: quantify
over executions and traces, compare, and report the first offending pair.
They share nothing with the formula evaluator, which makes them usable as
independent oracles for the epistemic encodings (and vice versa).

Every checker refuses tainted models: a lasso or an out-of-budget
execution makes the bounded model an unsound stand-in for the real one,
so the verdict is BOUND_EXCEEDED rather than a guess.
"""

from __future__ import annotations

from typing import Iterable

from .lang import Expr, compile_expr
from .model import Execution, Model, Status
from .policies import (FlowSpec, InitPredicate, PolicyError, ReleaseSpec,
                       TemporalDeclassification, abstraction_fn,
                       check_output_abstraction)
from .verdicts import Outcome, Stats, Verdict, Witness


def _taint_verdict(m: Model) -> Verdict | None:
    if not m.tainted:
        return None
    bad = next(e for e in m.executions if e.status is not Status.TERMINATED)
    return Verdict(
        Outcome.BOUND_EXCEEDED, None, Stats(),
        f"execution {bad.index} is {bad.status.value}; refusing to judge")


def _store_items(m: Model, ex: Execution) -> tuple:
    return tuple((n, ex.init_store[n]) for n in m.variables)


def _low_key(m: Model, fs: FlowSpec, ex: Execution) -> tuple:
    return tuple(ex.init_store[n] for n in fs.low)


def _full_trace(m: Model, ex: Execution) -> int:
    return ex.trace_ids[len(ex)]


def check_oni(m: Model, fs: FlowSpec) -> Verdict:
    """Output-only noninterference: low-equal starts give equal traces."""
    refused = _taint_verdict(m)
    if refused:
        return refused
    fs.check_against(m.program)
    first_of: dict[tuple, Execution] = {}
    for ex in m.executions:
        key = _low_key(m, fs, ex)
        leader = first_of.setdefault(key, ex)
        if leader is not ex and _full_trace(m, leader) != _full_trace(m, ex):
            return Verdict(Outcome.FAILS, Witness(
                kind="trace-pair",
                stores=(("first", _store_items(m, leader)),
                        ("second", _store_items(m, ex))),
                trace=m.trace_tuple(_full_trace(m, ex)),
                note="low-equal initial stores with different traces",
            ))
    return Verdict(Outcome.HOLDS)


def check_nid(m: Model, fs: FlowSpec, phi) -> Verdict:
    """Noninterference modulo declassification of the given predicate(s)."""
    refused = _taint_verdict(m)
    if refused:
        return refused
    fs.check_against(m.program)
    preds = (phi,) if isinstance(phi, InitPredicate) else tuple(phi)
    first_of: dict[tuple, Execution] = {}
    for ex in m.executions:
        key = (_low_key(m, fs, ex), tuple(p(ex.init_store) for p in preds))
        leader = first_of.setdefault(key, ex)
        if leader is not ex and _full_trace(m, leader) != _full_trace(m, ex):
            return Verdict(Outcome.FAILS, Witness(
                kind="trace-pair",
                stores=(("first", _store_items(m, leader)),
                        ("second", _store_items(m, ex))),
                trace=m.trace_tuple(_full_trace(m, ex)),
                note="declassification-equivalent stores with different traces",
            ))
    return Verdict(Outcome.HOLDS)


def check_nani(m: Model, fs: FlowSpec, eta: str | Expr, phi: str | Expr,
               rho: str | Expr) -> Verdict:
    """Narrow abstract noninterference on final public results.

    The result of a run is its final low store; ``rho`` abstracts it,
    ``eta``/``phi`` group runs by the abstractions of their public and
    secret inputs.  Divergence anywhere refuses the verdict.
    """
    check_output_abstraction(fs, rho)
    refused = _taint_verdict(m)
    if refused:
        return refused
    fs.check_against(m.program)
    dom = m.domain

    def abstraction(which: str | Expr, ids: tuple[str, ...]):
        if isinstance(which, Expr):
            return InitPredicate.from_expression(which, dom)
        fn = abstraction_fn(which, dom)
        return lambda store: tuple(fn(store[i]) for i in ids)

    eta_fn = abstraction(eta, fs.low)
    phi_fn = abstraction(phi, fs.high)
    out_fn = abstraction(rho, fs.low)

    first_of: dict[tuple, tuple[Execution, object]] = {}
    for ex in m.executions:
        key = (eta_fn(ex.init_store), phi_fn(ex.init_store))
        result = out_fn(ex.final_store)
        leader = first_of.setdefault(key, (ex, result))
        if leader[0] is not ex and leader[1] != result:
            return Verdict(Outcome.FAILS, Witness(
                kind="result-pair",
                stores=(("first", _store_items(m, leader[0])),
                        ("second", _store_items(m, ex))),
                note="abstraction-equivalent inputs with different abstract results",
            ))
    return Verdict(Outcome.HOLDS)


# --------------------------------------------------------------------------
# Knowledge and release sets


def knowledge_set(m: Model, fs: FlowSpec, store: dict, trace: tuple) -> frozenset:
    """Initial stores compatible with observing the trace from a low-equal start."""
    tid = m.intern_lookup(trace)
    key = tuple(store[n] for n in fs.low)
    out = set()
    if tid is not None:
        for ex in m.executions:
            if _low_key(m, fs, ex) == key and tid in ex.trace_id_set:
                out.add(m.values_of(ex.init_store))
    return frozenset(out)


def _flags_at(flags: tuple[str, ...], store: dict, true) -> frozenset:
    """The flags among ``flags`` that are set in ``store``."""
    return frozenset(f for f in flags if store[f] == true)


def release_set(m: Model, fs: FlowSpec, rs: ReleaseSpec, store: dict,
                trace: tuple) -> frozenset:
    """Minimum uncertainty the release policy demands after the trace.

    Looks up the run from this very store, intersects the flag sets over
    its points with the given trace, and keeps the low-equal stores that
    agree on every expression those flags release (on initial values).
    """
    dom = m.domain
    start = m.exec_by_values.get(tuple(store[n] for n in m.variables))
    if start is None:
        raise PolicyError("store is not an initial store of the model")
    tid = m.intern_lookup(trace)
    matching = [i for i, t in enumerate(start.trace_ids) if t == tid] if tid is not None else []
    if not matching:
        raise PolicyError("trace never observed on the execution from this store")
    common: frozenset | None = None
    for i in matching:
        flags = _flags_at(m.program.flags, start.stores[i], dom.true_value)
        common = flags if common is None else common & flags
    released = [compile_expr(e, dom) for f, e in rs.items if f in common]
    expected = [fn(start.init_store) for fn in released]
    low = _low_key(m, fs, start)
    out = set()
    for ex in m.executions:
        if _low_key(m, fs, ex) != low:
            continue
        if all(fn(ex.init_store) == v for fn, v in zip(released, expected)):
            out.add(m.values_of(ex.init_store))
    return frozenset(out)


def check_er(m: Model, fs: FlowSpec, rs: ReleaseSpec) -> Verdict:
    """Epistemic release: required uncertainty within actual uncertainty.

    Quantifies over every (initial store, trace) pair realized by a point
    of that store's own run, per the equivalence argument with the flag
    encoding; for unrealized pairs the required-release set has no
    denotation.  Computes over low-equal groups, caching both sets per
    (group, trace) and per (group, released values).
    """
    refused = _taint_verdict(m)
    if refused:
        return refused
    fs.check_against(m.program)
    rs.check_against(m.program, m.domain)
    dom = m.domain

    groups: dict[tuple, list[Execution]] = {}
    for ex in m.executions:
        groups.setdefault(_low_key(m, fs, ex), []).append(ex)
    released = [compile_expr(e, dom) for _, e in rs.items]
    release_values = {
        ex.index: tuple(fn(ex.init_store) for fn in released) for ex in m.executions}

    k_cache: dict[tuple, frozenset[int]] = {}
    r_cache: dict[tuple, frozenset[int]] = {}

    def knowledge_ids(low: tuple, tid: int) -> frozenset[int]:
        key = (low, tid)
        ids = k_cache.get(key)
        if ids is None:
            ids = frozenset(e.index for e in groups[low] if tid in e.trace_id_set)
            k_cache[key] = ids
        return ids

    def required_ids(low: tuple, mask: tuple[bool, ...], expected: tuple) -> frozenset[int]:
        key = (low, mask, expected)
        ids = r_cache.get(key)
        if ids is None:
            ids = frozenset(
                e.index for e in groups[low]
                if tuple(v for v, on in zip(release_values[e.index], mask) if on)
                == expected)
            r_cache[key] = ids
        return ids

    flag_names = tuple(f for f, _ in rs.items)
    all_flags, true = m.program.flags, dom.true_value
    for ex in m.executions:
        low = _low_key(m, fs, ex)
        seen: dict[int, int] = {}
        common: dict[int, frozenset] = {}
        store = None
        for i, tid in enumerate(ex.trace_ids):
            # steps that assign nothing share their store: keep its flags
            if ex.stores[i] is not store:
                store = ex.stores[i]
                flags = _flags_at(all_flags, store, true)
            if tid in common:
                common[tid] &= flags
            else:
                common[tid] = flags
                seen[tid] = i
        for tid, released in common.items():
            mask = tuple(f in released for f in flag_names)
            expected = tuple(
                v for v, on in zip(release_values[ex.index], mask) if on)
            required = required_ids(low, mask, expected)
            knowledge = knowledge_ids(low, tid)
            if not required <= knowledge:
                extra = m.executions[min(required - knowledge)]
                return Verdict(Outcome.FAILS, Witness(
                    kind="release",
                    stores=(("start", _store_items(m, ex)),
                            ("allowed-but-excluded", _store_items(m, extra))),
                    point_index=seen[tid],
                    trace=m.trace_tuple(tid),
                    note="release policy permits a store the trace rules out",
                ))
    return Verdict(Outcome.HOLDS)


def check_nitd(m: Model, fs: FlowSpec,
               tds: Iterable[TemporalDeclassification]) -> Verdict:
    """Noninterference modulo temporal declassifications.

    At every point, any run that is low-equal at the start and agrees on
    each property whose condition has already held along the observed run
    must be able to produce the same trace.
    """
    refused = _taint_verdict(m)
    if refused:
        return refused
    fs.check_against(m.program)
    tds = tuple(tds)
    dom = m.domain

    conditions = [compile_expr(td.condition, dom) for td in tds]

    def trigger_index(ex: Execution, condition) -> int | None:
        for j, store in enumerate(ex.stores):
            if condition(store):
                return j
        return None

    triggers = {ex.index: [trigger_index(ex, c) for c in conditions]
                for ex in m.executions}
    declass_values = {
        ex.index: [td.declassified(ex.init_store) for td in tds] for ex in m.executions}

    # bucket the candidate partners by (low values, agreed declassifications)
    buckets: dict[tuple, dict[tuple, list[Execution]]] = {}

    def bucket_for(mask: tuple[bool, ...]) -> dict[tuple, list[Execution]]:
        table = buckets.get(mask)
        if table is None:
            table = {}
            for ex in m.executions:
                vals = declass_values[ex.index]
                key = (_low_key(m, fs, ex),
                       tuple(v for v, on in zip(vals, mask) if on))
                table.setdefault(key, []).append(ex)
            buckets[mask] = table
        return table

    for ex in m.executions:
        trig = triggers[ex.index]
        vals = declass_values[ex.index]
        for i, tid in enumerate(ex.trace_ids):
            mask = tuple(t is not None and t <= i for t in trig)
            key = (_low_key(m, fs, ex), tuple(v for v, on in zip(vals, mask) if on))
            for other in bucket_for(mask).get(key, ()):
                if tid not in other.trace_id_set:
                    return Verdict(Outcome.FAILS, Witness(
                        kind="temporal",
                        stores=(("observed", _store_items(m, ex)),
                                ("partner", _store_items(m, other))),
                        point_index=i,
                        trace=m.trace_tuple(tid),
                        note="agreeing run cannot reproduce the observed trace",
                    ))
    return Verdict(Outcome.HOLDS)
