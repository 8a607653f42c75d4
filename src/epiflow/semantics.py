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
of every position would find.  ``check_nitd`` passes the search its
releases as data: per run it walks, the releasable values, and the first
position at which each is released.  A condition that reads nothing holds
from the start or never, so when no condition reads the store no run is
walked to find them.  The search asks the model for its runs split by what it reads
(``Model.parts``: the low identifiers, the released values' and the
conditions' identifiers), and walks the first run of each part, so no
clone of the model is made unless a dead input it reads splits a class.
Parts that agree on their low values, those values, those positions and
their trace ids meet the same demands, so only the first of each such
class is scanned, and a class can fail only where its first run does.
The partners of a low group are grouped by the values each demand agrees
on, once, with the trace ids they all produce (a hash join, as in
``logic``'s agreement guard, but sharing no code with it); a demand then
passes by lookup, and only a failure looks for its first partner in run
order.

Every checker refuses tainted models: a lasso or an out-of-budget
execution makes the bounded model an unsound stand-in for the real one,
so the verdict is BOUND_EXCEEDED rather than a guess.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .lang import compile_expr
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
    by that point.  That point starts an epoch block, so some prefix of
    some run has a required set outside its knowledge set exactly when
    nitd fails on the same conditions.
    """
    start = m.exec_by_values.get(tuple(store[n] for n in m.variables))
    if start is None:
        raise PolicyError("store is not an initial store of the model")
    tid = m.intern_lookup(trace)
    if tid is None or not _produces(start, tid):
        raise PolicyError("trace never observed on the execution from this store")
    tds = tuple(tds)
    m.require(condition_ids(tds), "the required set")
    # a model that keeps no store per point has only conditions that read
    # nothing, so the initial store answers for every point
    stores = (start.stores or (start.init_store,))[:bisect_left(start.trace_ids, tid) + 1]
    released = [td.declassified.fn for td in tds
                if _first_position(stores, compile_expr(td.condition, m.domain)) is not None]
    expected = [fn(start.init_store) for fn in released]
    low = _reader(fs.low)
    key = low(start.init_store)
    return frozenset(
        m.values_of(ex.init_store) for ex in m.executions
        if low(ex.init_store) == key
        and all(fn(ex.init_store) == v for fn, v in zip(released, expected)))


def _masked(values: tuple, mask: tuple[bool, ...]) -> tuple:
    return tuple(compress(values, mask))


def _initial_values(m: Model, runs: Sequence[Execution], ids: Iterable[str],
                    fns: Sequence[Callable[[dict], object]]) -> list[tuple]:
    """Per run of ``runs``, the values of ``fns`` on its initial store, which
    read only ``ids``: computed once per distinct tuple of those initial
    values, or on every run when they read every variable of the model."""
    names = tuple(dict.fromkeys(ids))
    if not names:  # the same values on every run
        return [tuple(fn({}) for fn in fns)] * len(runs)
    stores = list(map(attrgetter("init_store"), runs))
    if set(m.variables) <= set(names):  # each run its own key
        return list(zip(*(map(fn, stores) for fn in fns)))
    read = _reader(names)
    # any one store with a key gives that key's values
    one_per_key = dict(zip(map(read, stores), stores))
    memo = dict(zip(one_per_key, zip(*(map(fn, one_per_key.values()) for fn in fns))))
    return list(map(memo.__getitem__, map(read, stores)))


def _first_positions(runs: Sequence[Execution], tests: Sequence[Callable[[dict], object]]
                     ) -> list[tuple[int | None, ...]]:
    """Per run of ``runs``, the first position at which each test holds of
    its store, or None: computed once per distinct per-point store list (a
    listed clone shares its first run's list unless it keeps a dead
    input)."""
    memo: dict[int, tuple] = {}
    out = []
    for ex in runs:
        key = id(ex.stores)
        firsts = memo.get(key)
        if firsts is None:
            firsts = memo[key] = tuple(_first_position(ex.stores, test) for test in tests)
        out.append(firsts)
    return out


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
                     mask: tuple[bool, ...]) -> dict[tuple, set[int]]:
    """Per masked values, the trace ids that every run of ``runs`` (each
    with its releasable values) with those values produces."""
    common: dict[tuple, set[int]] = {}
    for ex, own in runs:
        agreed = _masked(own, mask)
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
    part.  A class of parts is those with equal low values, releasable
    values, trigger positions and trace ids (one list per behaviour); they
    meet the same (mask, agreed values, trace id) at the same block
    starts, so only the first of them is scanned, and the witness stays
    the first failing run.  For each low group and mask, the group's
    first runs are grouped by their masked values once, with the trace
    ids all of them produce; between two releases a run then passes by
    one subset test, and only a failure looks for its first partner.
    """
    read_low = _reader(fs.low)
    # the first part of each class, by the class's key: walking the parts
    # backwards, earlier parts overwrite later ones (only a new key is kept)
    keys = zip(map(read_low, map(attrgetter("init_store"), reversed(runs))), reversed(values),
               reversed(triggers), map(id, map(attrgetter("trace_ids"), reversed(runs))))
    first = dict(zip(keys, zip(reversed(runs), reversed(values), reversed(triggers))))
    # per low key, the first run of each class of it, with its values, in run order
    classes: dict[object, list[tuple[Execution, tuple]]] = {}
    order: list[tuple[Execution, object, tuple, tuple]] = []
    for ex, own, firsts in sorted(first.values(), key=_run_index):
        low = read_low(ex.init_store)
        classes.setdefault(low, []).append((ex, own))
        order.append((ex, low, own, firsts))
    common: dict[tuple, dict[tuple, set[int]]] = {}
    spans: dict[tuple, list[tuple[int, int | None, tuple[bool, ...]]]] = {}
    for ex, low, own, firsts in order:
        tids = ex.trace_ids
        if firsts not in spans:
            # from each position where a value is released to the next,
            # with the values released there
            starts = sorted({0, *filter(None, firsts)})
            spans[firsts] = [(start, end, tuple(t is not None and t <= start for t in firsts))
                             for start, end in zip(starts, [*starts[1:], None])]
        for start, end, mask in spans[firsts]:
            by_agreed = common.get((low, mask))
            if by_agreed is None:
                by_agreed = common[low, mask] = _produced_by_all(classes[low], mask)
            agreed = _masked(own, mask)
            produced = by_agreed[agreed]
            if start and tids[start] == tids[start - 1]:
                # a block that began earlier was checked at its start
                start = bisect_right(tids, tids[start], start)
            span = tids[start:end]
            if not produced.issuperset(span):
                # ids never decrease along a run, so the first position
                # whose id is not produced starts its block
                i = start + next(k for k, tid in enumerate(span) if tid not in produced)
                other = next(o for o, values in classes[low] if not _produces(o, tids[i])
                             and _masked(values, mask) == agreed)
                return ex, i, other, tids[i]
    return None


def _run_index(entry: tuple) -> int:
    return entry[0].index


def check_nitd(m: Model, fs: FlowSpec,
               tds: Iterable[TemporalDeclassification]) -> Verdict:
    """Noninterference modulo temporal declassifications.

    At every point, any run that is low-equal at the start and agrees on
    each property whose condition has already held along the observed run
    must be able to produce the same trace.
    """
    tds = tuple(tds)
    reads = condition_ids(tds)
    m.require(reads, "nitd")
    refused = _refusal(m, fs)
    if refused:
        return refused
    ids = [n for td in tds for n in td.declassified.ids]
    runs = [part.first for part in m.parts({*fs.low, *ids, *reads})]
    values = _initial_values(m, runs, ids, [td.declassified.fn for td in tds])
    tests = [compile_expr(td.condition, m.domain) for td in tds]
    if reads:
        triggers = _first_positions(runs, tests)
    else:
        # each condition holds at every position or at none
        triggers = [tuple(0 if test({}) else None for test in tests)] * len(runs)
    found = _first_unmatched(fs, runs, values, triggers)
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
