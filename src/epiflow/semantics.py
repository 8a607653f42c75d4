"""Trace-based security definitions, checked directly on the model.

These are the reference readings of the security conditions: quantify
over executions and traces, compare, and report the first offending pair.
They share nothing with the formula evaluator, which makes them usable as
independent oracles for the epistemic encodings (and vice versa).

Every condition is one search, ``check_nitd``: noninterference modulo
temporal declassifications.  A policy is a list of conditions, which
``policyfile.policy_pieces`` builds.  oni has none; nid's
``declassify: e`` is ``when: true ==> e``; er's ``release: r = e`` is
``when: r ==> e``, since a release flag, once set, stays set; and nani is
nid on the model of the runs' abstracted results (``model.results_model``),
with nothing public and ``eta`` and ``phi`` declassified from the start.

The search, ``_first_unmatched``, looks for a point whose trace some
partner never produces: a low-equal run that agrees with the point's run
on every value released at that point.  It visits only the first position
of each epoch block on each run.  Along a run the released values only
grow (a condition that has held stays triggered), and agreeing on more
values admits fewer partners.  So a block's first position demands the
most: when a later position of the block fails, the first fails too, with
the same earliest partner, and the first failure found is the one a scan
of every position would find.  One pass, ``_releases``, gives each run
it walks its releasable values and the first position at which each
condition holds, for ``check_nitd`` and ``required_set`` alike; a
condition that reads nothing holds from the start or never, so it is
tested once, not along each run.

The search asks the model for its runs split by the released values'
and the conditions' identifiers (``Model.parts``), and walks the first
run of each part, so no clone of the model is made unless a dead input
that decides a demand splits a class.  A dead low input does not split
one: permuting its values maps the model onto itself (the symmetry
reduction of Ip and Dill, "Better verification through symmetry", FMSD
1996), so a run fails exactly when the run that differs from it only in
holding that input's first value does.  That run comes first in run
order, so the first failing run holds the first value, and so does its
first partner, which is low-equal to it.  Every part is scanned, in run
order.  The partners of a low group are grouped by the values each
demand agrees on, once, with the trace ids they all produce (a hash
join, as in ``logic``'s agreement guard, but sharing no code with it); a
demand then passes by lookup, and only a failure looks for its first
partner in run order.

Every checker refuses tainted models: a lasso or an out-of-budget
execution makes the bounded model an unsound stand-in for the real one,
so the verdict is BOUND_EXCEEDED rather than a guess.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .lang import compile_expr, expr_ids
from .model import Execution, Model
from .policies import (FlowSpec, PolicyError, TemporalDeclassification,
                       condition_ids)
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


def _reader(names: Sequence[str]) -> Callable[[Mapping], object]:
    """A key of the values of ``names`` in a store: two stores give equal
    keys exactly when they agree on those values."""
    return itemgetter(*names) if names else lambda store: ()


def _produces(ex: Execution, tid: int) -> bool:
    """Whether the run ever has trace id ``tid`` (its ids never decrease)."""
    ids = ex.trace_ids
    i = bisect_left(ids, tid)
    return i < len(ids) and ids[i] == tid


# --------------------------------------------------------------------------
# Knowledge and required sets


def knowledge_set(m: Model, fs: FlowSpec, store: dict, trace: tuple) -> frozenset:
    """Initial stores compatible with observing the trace from a low-equal start."""
    tid = m.intern_lookup(trace)
    low = _reader(fs.low)
    key = low(store)
    out = set()
    if tid is not None:
        for ex in m.executions:
            if low(ex.init_store) == key and _produces(ex, tid):
                out.add(m.values_of(ex.init_store))
    return frozenset(out)


def required_set(m: Model, fs: FlowSpec, tds: Iterable[TemporalDeclassification],
                 store: dict, trace: tuple) -> frozenset:
    """Minimum uncertainty the conditions demand after the trace.

    Looks up the run from this very store and its first point with the
    given trace, and keeps the low-equal stores that agree with it (on
    initial values) on every property whose condition has held on the run
    by that point, as nitd's release pass finds them.  That point starts
    an epoch block, so some prefix of some run has a required set outside
    its knowledge set exactly when nitd fails on the same conditions.
    """
    start = m.exec_by_values.get(tuple(store[n] for n in m.variables))
    if start is None:
        raise PolicyError("store is not an initial store of the model")
    tid = m.intern_lookup(trace)
    if tid is None or not _produces(start, tid):
        raise PolicyError("trace never observed on the execution from this store")
    tds = tuple(tds)
    m.require(condition_ids(tds), "the required set")
    [values], [firsts] = _releases(m, [start], tds)
    point = bisect_left(start.trace_ids, tid)
    released = [(td.declassified.fn, v) for td, v, first in zip(tds, values, firsts)
                if first is not None and first <= point]
    low = _reader(fs.low)
    key = low(start.init_store)
    return frozenset(
        m.values_of(ex.init_store) for ex in m.executions
        if low(ex.init_store) == key and all(fn(ex.init_store) == v for fn, v in released))


def _releases(m: Model, runs: Sequence[Execution], tds: Sequence[TemporalDeclassification]
              ) -> tuple[list[tuple], list[tuple[int | None, ...]]]:
    """Per run of ``runs``, its releasable values (each declassified
    property of its initial store), and the first position at which each
    condition holds on it, or None.  A condition that reads nothing holds
    from the start or never, so it is tested once, and only the others are
    tested along each run."""
    stores = list(map(attrgetter("init_store"), runs))
    values = list(zip(*(map(td.declassified.fn, stores) for td in tds))) or [()] * len(runs)
    tests = [(k, compile_expr(td.condition, m.domain), expr_ids(td.condition))
             for k, td in enumerate(tds)]
    fixed = tuple(0 if not reads and test({}) else None for _, test, reads in tests)
    walked = [(k, test) for k, test, reads in tests if reads]
    if not walked:
        return values, [fixed] * len(runs)
    triggers = []
    for ex in runs:
        firsts = list(fixed)
        for k, test in walked:
            firsts[k] = _first_position(ex.stores, test)
        triggers.append(tuple(firsts))
    return values, triggers


def _first_position(stores: Sequence[dict], test: Callable[[dict], object]) -> int | None:
    """The first position whose store passes ``test``; a store object
    shared with the position before is not tested again."""
    last = None
    for j, store in enumerate(stores):
        if store is not last:
            if test(store):
                return j
            last = store
    return None


def _produced_by_all(runs: Iterable[tuple[Execution, tuple]],
                     masked: Callable[[tuple], object]) -> dict[object, set[int]]:
    """Per masked values, the trace ids that every run of ``runs`` (each
    with its releasable values) with those values produces."""
    common: dict[object, set[int]] = {}
    for ex, own in runs:
        agreed = masked(own)
        tids = common.get(agreed)
        if tids is None:
            common[agreed] = set(ex.trace_ids)
        else:
            tids.intersection_update(ex.trace_ids)
    return common


def _first_unmatched(fs: FlowSpec, runs: Sequence[Execution], values: list[tuple],
                     triggers: list[tuple[int | None, ...]]
                     ) -> tuple[Execution, int, Execution, int] | None:
    """The first epoch-block start whose trace a partner never produces.

    ``runs`` are the first runs of the parts of the model (``Model.parts``)
    by what the search reads, in run order; ``values[r]`` holds the ``r``-th
    one's releasable values, and ``triggers[r]`` the first position at
    which each is released on it, or None.  A partner is a low-equal run
    that agrees with the run on the values released at the position.
    Returns (run, position, first such partner, trace id), or None.

    The runs of a part agree on all of these and on their trace ids, so
    its first run stands for it: a later run fails only where the first
    fails, and the first partner in run order is the first run of its
    part.  Every part is scanned, in run order, so the first failure found
    is on the first failing run.  For each low group and set of released
    values, the group's first runs are grouped by those values once, with
    the trace ids all of them produce; between two releases a run then
    passes by one subset test, and only a failure looks for its first
    partner.
    """
    lows = list(map(_reader(fs.low), map(attrgetter("init_store"), runs)))
    # per low key, its runs with their values, in run order
    groups: dict[object, list[tuple[Execution, tuple]]] = {}
    for ex, low, own in zip(runs, lows, values):
        groups.setdefault(low, []).append((ex, own))
    # per set of released values, per low key, the group's common trace ids
    common: dict[tuple[int, ...], dict[object, dict[object, set[int]]]] = {}
    spans: dict[tuple, list[tuple[int, int | None, Callable, dict]]] = {}
    for ex, low, own, firsts in zip(runs, lows, values, triggers):
        tids = ex.trace_ids
        if firsts not in spans:
            # from each position where a value is released to the next,
            # with the values released there
            starts = sorted({0, *filter(None, firsts)})
            spans[firsts] = [(start, end, _reader(released), common.setdefault(released, {}))
                             for start, end in zip(starts, [*starts[1:], None])
                             for released in [tuple(k for k, t in enumerate(firsts)
                                                    if t is not None and t <= start)]]
        for start, end, masked, by_low in spans[firsts]:
            by_agreed = by_low.get(low)
            if by_agreed is None:
                by_agreed = by_low[low] = _produced_by_all(groups[low], masked)
            agreed = masked(own)
            produced = by_agreed[agreed]
            if start and tids[start] == tids[start - 1]:
                # a block that began earlier was checked at its start
                start = bisect_right(tids, tids[start], start)
            span = tids[start:end]
            if not produced.issuperset(span):
                # ids never decrease along a run, so the first position
                # whose id is not produced starts its block
                i = start + next(k for k, tid in enumerate(span) if tid not in produced)
                other = next(o for o, theirs in groups[low] if not _produces(o, tids[i])
                             and masked(theirs) == agreed)
                return ex, i, other, tids[i]
    return None


def check_nitd(m: Model, fs: FlowSpec,
               tds: Iterable[TemporalDeclassification]) -> Verdict:
    """Noninterference modulo temporal declassifications.

    At every point, any run that is low-equal at the start and agrees on
    each property whose condition has already held along the observed run
    must be able to produce the same trace.  Runs are split only by what a
    demand compares beyond low-equality: the declassified and the
    conditions' identifiers.  The witness is the first failing run in run
    order, with its first partner.
    """
    tds = tuple(tds)
    reads = condition_ids(tds)
    m.require(reads, "nitd")
    refused = _refusal(m, fs)
    if refused:
        return refused
    ids = [n for td in tds for n in td.declassified.ids]
    # a dead low input splits no class: its first value stands for all
    runs = [part.first for part in m.parts({*ids, *reads})]
    found = _first_unmatched(fs, runs, *_releases(m, runs, tds))
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
