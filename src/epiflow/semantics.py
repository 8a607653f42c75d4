"""Trace-based security definitions, checked directly on the model.

These are the reference readings of the security conditions: quantify
over executions and traces, compare, and report the first offending pair.
They share nothing with the formula evaluator, which makes them usable as
independent oracles for the epistemic encodings (and vice versa).

Each condition is one of two searches:

* ``_first_split`` (oni, nid, nani) groups runs by a key of their initial
  store, and finds the first run whose value differs from that of the
  first run with its key.  The value is the full trace, or for nani the
  abstracted final store.
* ``_first_unmatched`` (er, nitd) looks for a point whose trace some
  partner never produces: a low-equal run that agrees with the point's
  run on every value released at that point.  It visits only the first
  position of each epoch block on each run.  Along a run the released
  values only grow (release flags are write-once, and a condition that
  has held stays triggered), and agreeing on more values admits fewer
  partners.  So a block's first position demands the most: when a later
  position of the block fails, the first fails too, with the same
  earliest partner, and the first failure found is the one a scan of
  every position would find.

Every checker refuses tainted models: a lasso or an out-of-budget
execution makes the bounded model an unsound stand-in for the real one,
so the verdict is BOUND_EXCEEDED rather than a guess.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterable

from .lang import Expr, compile_expr
from .model import Execution, Model
from .policies import (FlowSpec, InitPredicate, PolicyError, ReleaseSpec,
                       TemporalDeclassification, abstraction_predicate,
                       check_output_abstraction)
from .verdicts import Outcome, Stats, Verdict, Witness


def _refusal(m: Model, fs: FlowSpec) -> Verdict | None:
    """BOUND_EXCEEDED naming the first non-terminated run's initial store,
    or None once the flow spec is checked against the program."""
    note = m.refusal
    if note is not None:
        return Verdict(Outcome.BOUND_EXCEEDED, None, Stats(), note)
    fs.check_against(m.program)
    return None


def _store_items(m: Model, ex: Execution) -> tuple:
    return tuple((n, ex.init_store[n]) for n in m.variables)


def _low_key(fs: FlowSpec, ex: Execution) -> tuple:
    return tuple(ex.init_store[n] for n in fs.low)


def _full_trace(ex: Execution) -> int:
    return ex.trace_ids[len(ex)]


def _produces(ex: Execution, tid: int) -> bool:
    """Whether the run ever has trace id ``tid`` (its ids never decrease)."""
    ids = ex.trace_ids
    i = bisect_left(ids, tid)
    return i < len(ids) and ids[i] == tid


def _first_split(m: Model, key: Callable[[Execution], object],
                 value: Callable[[Execution], object]
                 ) -> tuple[Execution, Execution] | None:
    """The first run of its key whose value differs from the value of that
    key's first run, as (first run, differing run); None if none does."""
    first_of: dict = {}
    for ex in m.executions:
        v = value(ex)
        leader, leader_v = first_of.setdefault(key(ex), (ex, v))
        if leader_v != v:
            return leader, ex
    return None


def check_oni(m: Model, fs: FlowSpec) -> Verdict:
    """Output-only noninterference: low-equal starts give equal traces."""
    return check_nid(m, fs, ())


def check_nid(m: Model, fs: FlowSpec, phi) -> Verdict:
    """Noninterference modulo declassification of the given predicate(s);
    with none, output-only noninterference."""
    refused = _refusal(m, fs)
    if refused:
        return refused
    preds = (phi,) if isinstance(phi, InitPredicate) else tuple(phi)
    split = _first_split(
        m, lambda ex: (_low_key(fs, ex), tuple(p(ex.init_store) for p in preds)),
        _full_trace)
    if split is None:
        return Verdict(Outcome.HOLDS)
    first, second = split
    return Verdict(Outcome.FAILS, Witness(
        kind="trace-pair",
        stores=(("first", _store_items(m, first)),
                ("second", _store_items(m, second))),
        trace=m.trace_tuple(_full_trace(second)),
        note=("declassification-equivalent stores with different traces" if preds
              else "low-equal initial stores with different traces"),
    ))


def check_nani(m: Model, fs: FlowSpec, eta: str | Expr, phi: str | Expr,
               rho: str | Expr) -> Verdict:
    """Narrow abstract noninterference on final public results.

    The result of a run is its final low store; ``rho`` abstracts it,
    ``eta``/``phi`` group runs by the abstractions of their public and
    secret inputs.  Divergence anywhere refuses the verdict.
    """
    check_output_abstraction(fs, rho)
    refused = _refusal(m, fs)
    if refused:
        return refused
    dom = m.domain
    eta_fn = abstraction_predicate(eta, fs.low, dom).fn
    phi_fn = abstraction_predicate(phi, fs.high, dom).fn
    out_fn = abstraction_predicate(rho, fs.low, dom).fn
    split = _first_split(
        m, lambda ex: (eta_fn(ex.init_store), phi_fn(ex.init_store)),
        lambda ex: out_fn(ex.final_store))
    if split is None:
        return Verdict(Outcome.HOLDS)
    first, second = split
    return Verdict(Outcome.FAILS, Witness(
        kind="result-pair",
        stores=(("first", _store_items(m, first)),
                ("second", _store_items(m, second))),
        note="abstraction-equivalent inputs with different abstract results",
    ))


# --------------------------------------------------------------------------
# Knowledge and release sets


def knowledge_set(m: Model, fs: FlowSpec, store: dict, trace: tuple) -> frozenset:
    """Initial stores compatible with observing the trace from a low-equal start."""
    tid = m.intern_lookup(trace)
    key = tuple(store[n] for n in fs.low)
    out = set()
    if tid is not None:
        for ex in m.executions:
            if _low_key(fs, ex) == key and _produces(ex, tid):
                out.add(m.values_of(ex.init_store))
    return frozenset(out)


def release_set(m: Model, fs: FlowSpec, rs: ReleaseSpec, store: dict,
                trace: tuple) -> frozenset:
    """Minimum uncertainty the release policy demands after the trace.

    Looks up the run from this very store, takes the flags set at its
    first point with the given trace (flags are write-once, so they are
    set at every later point with it too), and keeps the low-equal stores
    that agree on every expression those flags release (on initial values).
    """
    dom = m.domain
    start = m.exec_by_values.get(tuple(store[n] for n in m.variables))
    if start is None:
        raise PolicyError("store is not an initial store of the model")
    tid = m.intern_lookup(trace)
    if tid is None or not _produces(start, tid):
        raise PolicyError("trace never observed on the execution from this store")
    flags = start.stores[bisect_left(start.trace_ids, tid)]
    released = [compile_expr(e, dom) for f, e in rs.items
                if flags.get(f) == dom.true_value]
    expected = [fn(start.init_store) for fn in released]
    low = _low_key(fs, start)
    out = set()
    for ex in m.executions:
        if _low_key(fs, ex) != low:
            continue
        if all(fn(ex.init_store) == v for fn, v in zip(released, expected)):
            out.add(m.values_of(ex.init_store))
    return frozenset(out)


def _masked(values: tuple, mask: tuple[bool, ...]) -> tuple:
    return tuple(v for v, on in zip(values, mask) if on)


def _first_unmatched(m: Model, fs: FlowSpec, values: list[tuple],
                     released: Callable[[Execution, int], tuple[bool, ...]]
                     ) -> tuple[Execution, int, Execution, int] | None:
    """The first epoch-block start whose trace a partner never produces.

    ``values[r]`` holds run ``r``'s releasable values, and ``released(ex,
    i)`` marks those released at position ``i`` of ``ex``.  A partner is a
    low-equal run that agrees with ``ex`` on the released values.  Returns
    (run, position, first such partner, trace id), or None.  Each (low
    values, mask, agreed values, trace id) is checked once.
    """
    groups: dict[tuple, list[Execution]] = {}
    for ex in m.executions:
        groups.setdefault(_low_key(fs, ex), []).append(ex)
    checked: set[tuple] = set()
    for ex in m.executions:
        low = _low_key(fs, ex)
        tids = ex.trace_ids
        i = 0
        while i < len(tids):
            tid = tids[i]
            mask = released(ex, i)
            agreed = _masked(values[ex.index], mask)
            key = (low, mask, agreed, tid)
            if key not in checked:
                checked.add(key)
                for other in groups[low]:
                    if (not _produces(other, tid)
                            and _masked(values[other.index], mask) == agreed):
                        return ex, i, other, tid
            i = bisect_right(tids, tid, i)  # trace ids never decrease along a run
    return None


def check_er(m: Model, fs: FlowSpec, rs: ReleaseSpec) -> Verdict:
    """Epistemic release: required uncertainty within actual uncertainty.

    Quantifies over every (initial store, trace) pair realized by a point
    of that store's own run, per the equivalence argument with the flag
    encoding; for unrealized pairs the required-release set has no
    denotation.  A point releases the expressions whose flags are set at
    every point of its run with its trace, that is at the first one.
    """
    refused = _refusal(m, fs)
    if refused:
        return refused
    rs.check_against(m.program, m.domain)
    dom = m.domain
    exprs = [compile_expr(e, dom) for _, e in rs.items]
    values = [tuple(fn(ex.init_store) for fn in exprs) for ex in m.executions]
    flags, true = tuple(f for f, _ in rs.items), dom.true_value
    found = _first_unmatched(
        m, fs, values, lambda ex, i: tuple(ex.stores[i][f] == true for f in flags))
    if found is None:
        return Verdict(Outcome.HOLDS)
    ex, i, extra, tid = found
    return Verdict(Outcome.FAILS, Witness(
        kind="release",
        stores=(("start", _store_items(m, ex)),
                ("allowed-but-excluded", _store_items(m, extra))),
        point_index=i,
        trace=m.trace_tuple(tid),
        note="release policy permits a store the trace rules out",
    ))


def check_nitd(m: Model, fs: FlowSpec,
               tds: Iterable[TemporalDeclassification]) -> Verdict:
    """Noninterference modulo temporal declassifications.

    At every point, any run that is low-equal at the start and agrees on
    each property whose condition has already held along the observed run
    must be able to produce the same trace.
    """
    refused = _refusal(m, fs)
    if refused:
        return refused
    tds = tuple(tds)
    conditions = [compile_expr(td.condition, m.domain) for td in tds]
    # the first position at which each condition holds on each run
    triggers = [[next((j for j, store in enumerate(ex.stores) if c(store)), None)
                 for c in conditions] for ex in m.executions]
    values = [tuple(td.declassified(ex.init_store) for td in tds)
              for ex in m.executions]
    found = _first_unmatched(m, fs, values, lambda ex, i: tuple(
        t is not None and t <= i for t in triggers[ex.index]))
    if found is None:
        return Verdict(Outcome.HOLDS)
    ex, i, other, tid = found
    return Verdict(Outcome.FAILS, Witness(
        kind="temporal",
        stores=(("observed", _store_items(m, ex)),
                ("partner", _store_items(m, other))),
        point_index=i,
        trace=m.trace_tuple(tid),
        note="agreeing run cannot reproduce the observed trace",
    ))
