import dataclasses
import itertools
import random
from collections import Counter

import pytest

from conftest import exec_from, garbage_after
from epiflow.domain import Domain, Label, TERMINATION_MARK
import epiflow.model as model_module
from epiflow.lang import (Assign, Const, HashCall, If, Out, OutLit, Seq, Skip, Var, While,
                          live_inputs, parse, parse_expression, program_from_body)
from epiflow.logic import Evaluation
from epiflow.model import (Execution, ModelConfig, Status, accessible,
                           build_model, epoch_of, results_model, trace_of)
from epiflow.fuzz import FuzzConfig, _gen_block, _gen_expr, _insert_release, generate_program
from oracles import reference_runs, run, unshared_runs

BOOL = Domain.booleans()
INT4 = Domain.integers(4)


class TestWarmupModel:
    def test_four_executions_of_length_two(self, copy_out_model):
        m = copy_out_model
        assert len(m.executions) == 4
        assert all(len(e) == 2 for e in m.executions)
        assert all(e.status is Status.TERMINATED for e in m.executions)

    def test_traces_echo_y(self, copy_out_model):
        m = copy_out_model
        for ex in m.executions:
            assert m.trace_tuple(ex.trace_ids[2]) == (ex.init_store["y"],)

    def test_enumeration_order_is_lexicographic(self, copy_out_model):
        inits = [copy_out_model.values_of(e.init_store)
                 for e in copy_out_model.executions]
        assert inits == [(True, True), (True, False), (False, True), (False, False)]

    def test_empty_trace_epoch_has_eight_points(self, copy_out_model):
        points = epoch_of(copy_out_model, ())
        assert len(points) == 8
        assert {p.index for p in points} == {0, 1}

    def test_tt_epoch_contains_the_two_matching_runs(self, copy_out_model):
        m = copy_out_model
        points = epoch_of(m, (True,))
        assert {(m.values_of(p.execution.init_store), p.index) for p in points} \
            == {((True, True), 2), ((False, True), 2)}

    def test_unobserved_trace_has_empty_epoch(self, copy_out_model):
        assert epoch_of(copy_out_model, (True, True)) == ()


class TestTraceOf:
    def test_initial_point_has_empty_trace(self, copy_out_model):
        from epiflow.model import Point
        ex = copy_out_model.executions[0]
        assert trace_of(Point(ex, 0)) == ()

    def test_trace_after_output(self, copy_out_model):
        from epiflow.model import Point
        ex = exec_from(copy_out_model, x=True, y=True)
        assert trace_of(Point(ex, 2)) == (True,)

    def test_two_release_final_trace(self, two_release_model):
        from epiflow.model import Point
        ex = exec_from(two_release_model, l=False, h1=True, h2=False)
        assert trace_of(Point(ex, len(ex))) == (True, False)


class TestAccessibility:
    def test_reflexive(self, copy_out_model):
        from epiflow.model import Point
        for ex in copy_out_model.executions:
            for i in range(len(ex) + 1):
                assert accessible(Point(ex, i), Point(ex, i))

    def test_matching_and_differing_traces(self, copy_out_model):
        from epiflow.model import Point
        m = copy_out_model
        tt_tt = exec_from(m, x=True, y=True)
        ff_tt = exec_from(m, x=False, y=True)
        tt_ff = exec_from(m, x=True, y=False)
        assert accessible(Point(tt_tt, 2), Point(ff_tt, 2))
        assert not accessible(Point(tt_tt, 2), Point(tt_ff, 2))

    def test_cross_model_points_rejected(self, copy_out_model, two_release_model):
        from epiflow.model import Point
        a = Point(copy_out_model.executions[0], 0)
        b = Point(two_release_model.executions[0], 0)
        with pytest.raises(ValueError):
            accessible(a, b)


class TestModelShape:
    @pytest.mark.parametrize("keep", [None, frozenset()], ids=["every", "none"])
    def test_build_leaves_no_reference_cycles(self, keep):
        # x is written first, so the runs that differ only in x are clones
        program = parse("x := 0; while x < h do { out l; x := x + 1 }; "
                        "if l > 1 then { out l + x } else { skip }", INT4)
        m, garbage = garbage_after(lambda: build_model(program, ModelConfig(INT4), keep))
        assert garbage == []
        assert len(m.executions) == 64 and m.refusal is None

    def test_skip_model(self):
        m = build_model(parse("skip", BOOL), ModelConfig(BOOL))
        assert len(m.executions) == 1
        assert len(m.executions[0]) == 0
        assert set(m.epochs) == {0}

    def test_counting_rule(self):
        program = parse("out x; release r; out y && z", BOOL)
        m = build_model(program, ModelConfig(BOOL))
        assert len(m.executions) == 2 ** 3  # flags do not enumerate

    def test_release_flags_start_false_and_stay_monotone(self, two_release_model):
        dom = two_release_model.domain
        for ex in two_release_model.executions:
            for flag in two_release_model.program.flags:
                values = [s[flag] for s in ex.stores]
                assert values[0] is False
                assert values == sorted(values)  # once true, stays true

    def test_trace_prefix_monotonicity(self, two_release_model):
        m = two_release_model
        for ex in m.executions:
            previous = ()
            for i in range(len(ex) + 1):
                current = m.trace_tuple(ex.trace_ids[i])
                assert current[: len(previous)] == previous
                previous = current

    def test_loop_emissions_match_independent_interpreter(self):
        program = parse("while x < h do { out x; x := x + 1 }", INT4)
        m = build_model(program, ModelConfig(INT4))
        assert len(m.executions) == 16
        for ex in m.executions:
            expected_trace, expected_store = run(program.body, ex.init_store, INT4)
            assert m.trace_tuple(ex.trace_ids[len(ex)]) == expected_trace
            assert ex.final_store == expected_store

    def test_epochs_partition_points(self):
        cfg = FuzzConfig(seed=11, count=1, size=6, ident_count=2)
        import random
        for index in range(25):
            program = generate_program(random.Random(f"p:{index}"), cfg)
            m = build_model(program, ModelConfig(BOOL))
            total = sum(len(points) for points in m.epochs.values())
            assert total == m.point_count
            seen = set()
            for points in m.epochs.values():
                for p in points:
                    key = (p.execution.index, p.index)
                    assert key not in seen
                    seen.add(key)


    def test_epoch_executions_match_the_epoch_points(self):
        cfg = FuzzConfig(seed=12, count=1, size=6, ident_count=2, domain=INT4, loops=True)
        for index in range(10):
            m = build_model(generate_program(random.Random(f"e:{index}"), cfg),
                            ModelConfig(INT4))
            have = Evaluation(m.program, m.domain).bind(m).have
            assert {tid for tid, runs in enumerate(have) if runs} == set(m.epochs)
            for tid, points in m.epochs.items():
                assert have[tid] == sum({1 << p.execution.index for p in points})

    def test_a_run_is_its_stores_and_trace_ids(self):
        # events and the indexes of runs are derived, never stored
        names = [f.name for f in dataclasses.fields(Execution)]
        assert names == ["index", "init_store", "stores", "final_store", "status",
                         "lasso_entry", "trace_ids", "model_ref"]
        m = build_model(parse("x := y; out y", BOOL), ModelConfig(BOOL))
        assert "exec_by_values" not in vars(m) and not hasattr(m, "epoch_executions")
        assert exec_from(m, x=True, y=False).events == [None, False]


class TestDivergence:
    def test_lasso_detected(self):
        m = build_model(parse("while tt do { skip }", BOOL), ModelConfig(BOOL))
        (ex,) = m.executions
        assert ex.status is Status.LASSO
        assert m.tainted

    def test_lasso_entry_index(self):
        m = build_model(parse("x := tt; while x do { skip }", BOOL), ModelConfig(BOOL))
        ex = exec_from(m, x=False)
        assert ex.status is Status.LASSO

    def test_bound_exceeded(self):
        program = parse("while x < 3 do { x := x + 1; out x }", INT4)
        m = build_model(program, ModelConfig(INT4, bound=2))
        assert any(e.status is Status.BOUND_EXCEEDED for e in m.executions)
        assert m.tainted

    def test_first_repeated_configuration_is_the_lasso(self):
        m = build_model(parse("while tt do { skip }", BOOL), ModelConfig(BOOL))
        (ex,) = m.executions
        assert (ex.lasso_entry, len(ex)) == (0, 1)

    def test_lasso_compares_program_counters_not_residual_programs(self):
        # both branches end in the same code; from x = tt the run meets the
        # else branch's out with the store the then branch's out had, which
        # is no repeat of a program counter: the loop head repeats later
        program = parse(
            "while tt do { if x then { x := ff; out tt } else { out tt } }", BOOL)
        ex = exec_from(build_model(program, ModelConfig(BOOL)), x=True)
        assert ex.status is Status.LASSO
        assert (ex.lasso_entry, len(ex)) == (4, 7)
        assert ex.stores[4] == ex.stores[7]

    def test_terminating_model_is_clean(self, copy_out_model):
        assert not copy_out_model.tainted


class TestTerminationOutput:
    def test_marker_appended(self):
        program = parse("out x", BOOL)
        m = build_model(program, ModelConfig(BOOL, termination_output=True))
        for ex in m.executions:
            assert ex.events[-1] == TERMINATION_MARK
            assert len(ex) == 2

    def test_marker_distinguishes_termination_time(self):
        program = parse("if x then { skip } else { x := x; x := x }", BOOL)
        m = build_model(program, ModelConfig(BOOL, termination_output=True))
        lens = {m.values_of(e.init_store): len(e) for e in m.executions}
        assert lens == {(True,): 2, (False,): 4}


def _fuzzed(dom: Domain, loops: bool, count: int):
    """Fuzzed programs, some with a release flag and a labelled output."""
    cfg = FuzzConfig(seed=3, count=count, size=8, ident_count=2, domain=dom,
                     loops=loops)
    for index in range(count):
        rng = random.Random(f"compiled:{dom.spec()}:{loops}:{index}")
        program = generate_program(rng, cfg, release_flags=("r",) * (index % 2))
        if index % 3 == 0:
            program = program_from_body(Seq(program.body, OutLit("end")))
        yield program


SINT4 = Domain.integers(4, signed=True)
DIFF_CONFIGS = [pytest.param(dom, loops, id=f"{label}-loops={loops}")
                for label, dom, loops in [("bool", BOOL, False), ("int4", INT4, False),
                                          ("int4", INT4, True), ("sint4", SINT4, False),
                                          ("sint4", SINT4, True)]]


HASHED4 = Domain.integers(4, hash_table=(1, 2, 3, 0))


def _dead_input_programs(dom: Domain, loops: bool, count: int):
    """Programs over l, h and k that write one identifier, ``dead``, before
    any read of it: first; on both branches of an if; after an output; right
    after overwriting an input it read, so that runs of two classes reach
    one store before the write; or on one branch, never read.  Or they
    write it only inside a loop, where it stays live.  Some hash, release a
    flag, or emit a label."""
    cfg = FuzzConfig(seed=5, count=count, size=6, ident_count=3, domain=dom, loops=loops)
    ids = ("l", "h", "k")
    for index in range(count):
        rng = random.Random(f"dead:{dom.spec()}:{loops}:{index}")
        dead = rng.choice(ids)
        others = tuple(n for n in ids if n != dead)
        value = _gen_expr(rng, others, dom, 2)
        if index % 5 == 0 and dom.kind == "int":
            value = HashCall(value)
        guard = _gen_expr(rng, others, dom, 1)
        write = Assign(dead, value)
        rest, _ = _gen_block(rng, ids, dom, cfg.size, loops)
        match index % 6:
            case 0:
                body = Seq(write, rest)
            case 1:
                other = _gen_expr(rng, others, dom, 1)
                body = Seq(If(guard, write, Assign(dead, other)), rest)
            case 2:
                body = Seq(Out(guard), Seq(write, rest))
            case 3:
                read = others[0]
                overwrite = Assign(read, Const(rng.choice(dom.values)))
                test = If(_gen_expr(rng, (read,), dom, 1), Skip(), Skip())
                body = Seq(test, Seq(overwrite, Seq(write, rest)))
            case 4:
                rest, _ = _gen_block(rng, others, dom, cfg.size, loops)
                body = Seq(If(guard, write, Skip()), rest)
            case 5:
                body = Seq(While(guard, write), rest)
        if index % 3 == 1:
            body = Seq(body, OutLit("end"))
        program = program_from_body(body)
        if index % 2:
            program = program_from_body(_insert_release(rng, program.body, "r"))
        yield program


class TestCompiledRuns:
    """The compiled program against the AST-rewriting reference ``step``."""

    @pytest.mark.parametrize("termination_output", [False, True])
    @pytest.mark.parametrize("dom, loops", DIFF_CONFIGS)
    def test_runs_match_the_reference(self, dom, loops, termination_output):
        cut = 0
        for index, program in enumerate(_fuzzed(dom, loops, 40)):
            bound = (6, 12, 400)[index % 3]
            m = build_model(program, ModelConfig(dom, bound, termination_output))
            runs, parents = reference_runs(program, dom, bound, termination_output)
            assert len(m.executions) == len(runs)
            for ex, ref in zip(m.executions, runs):
                assert ex.status.value == ref["status"]
                if ex.status is Status.TERMINATED:
                    assert ex.stores == ref["stores"]
                    assert ex.events == ref["events"]
                    assert ex.trace_ids == ref["trace_ids"]
                    assert ex.lasso_entry is None
                    continue
                cut += 1
                if ex.status is Status.LASSO:
                    assert ex.lasso_entry <= ref["lasso_entry"]
                n = min(len(ex), len(ref["events"]))
                assert ex.events[:n] == ref["events"][:n]
                assert ex.stores[:n + 1] == ref["stores"][:n + 1]
            if all(len(ex) == len(ref["events"]) for ex, ref in zip(m.executions, runs)):
                assert m.trace_parents == parents
        assert cut, "no run hit the bound; the bounds are too loose"

    @pytest.mark.parametrize("dom, loops", DIFF_CONFIGS[:3])
    def test_diverging_runs_are_refused_like_the_reference(self, dom, loops):
        for program in _fuzzed(dom, loops, 30):
            looping = program_from_body(While(Const(True), program.body))
            m = build_model(looping, ModelConfig(dom, bound=2_000))
            runs, _ = reference_runs(looping, dom, 2_000)
            for ex, ref in zip(m.executions, runs):
                assert ex.status is Status.LASSO and ref["status"] == "lasso"
                # a lasso closes on the store it entered with
                assert ex.stores[ex.lasso_entry] == ex.stores[-1]
                n = min(len(ex), len(ref["events"]))
                assert ex.events[:n] == ref["events"][:n]
                assert ex.stores[:n + 1] == ref["stores"][:n + 1]

    @pytest.mark.parametrize("termination_output", [False, True])
    @pytest.mark.parametrize("dom, loops", DIFF_CONFIGS)
    def test_trace_ids_never_decrease(self, dom, loops, termination_output):
        # the logic's per-run-and-epoch memo rests on this: one epoch meets
        # a run in one contiguous block of positions
        for index, program in enumerate(_fuzzed(dom, loops, 40)):
            bound = (6, 12, 400)[index % 3]
            m = build_model(program, ModelConfig(dom, bound, termination_output))
            for ex in m.executions:
                ids = ex.trace_ids
                for a, b, event in zip(ids, ids[1:], ex.events):
                    assert a < b if event is not None else a == b


def assert_behaviours_shared(m) -> int:
    """Runs have equal trace ids exactly when they share one list object;
    returns the number of such lists."""
    lists: dict[tuple, list] = {}
    for ex in m.executions:
        assert ex.trace_ids is lists.setdefault(tuple(ex.trace_ids), ex.trace_ids)
    assert len({id(ex.trace_ids) for ex in m.executions}) == len(lists)
    return len(lists)


def assert_kept(m, runs: list[dict], keep: frozenset) -> None:
    """Each run of ``m`` holds the whole initial and final stores of the
    reference run, and the ``keep`` identifiers' values at every point, in
    one view from one assignment to the next; or no per-point stores when
    ``keep`` is empty."""
    assert m.kept == keep and len(m.executions) == len(runs)
    for ex, ref in zip(m.executions, runs):
        for name in ("index", "status", "lasso_entry", "trace_ids"):
            assert getattr(ex, name) == ref[name], name
        assert (ex.init_store, ex.final_store) == (ref["stores"][0], ref["stores"][-1])
        if not keep:
            assert ex.stores is None
            continue
        assert len(ex.stores) == len(ref["stores"])
        for k, (view, store) in enumerate(zip(ex.stores, ref["stores"])):
            assert {n: view[n] for n in keep} == {n: store[n] for n in keep}, k
            if k and store is ref["stores"][k - 1]:  # the step assigned nothing
                assert view is ex.stores[k - 1], k


class TestSharedBuild:
    """Runs that differ only in dead inputs are cloned, and runs with equal
    trace ids share one list; the model must equal the one built run by
    run with private lasso tables, whichever identifiers it keeps."""

    @staticmethod
    def assert_unshared(program, cfg, trim: bool = True) -> None:
        m = build_model(program, cfg)
        runs, parents = unshared_runs(program, cfg)
        assert len(m.executions) == len(runs)
        for ex, ref in zip(m.executions, runs):
            for name in ("index", "stores", "events", "status", "lasso_entry",
                         "trace_ids"):
                assert getattr(ex, name) == ref[name], name
            assert (ex.init_store, ex.final_store) == (ref["stores"][0], ref["stores"][-1])
        assert m.trace_parents == parents
        assert_behaviours_shared(m)
        if not trim:
            return
        # nothing, the first identifier alone, and all the others: each
        # identifier, dead inputs and flags included, is kept in one build
        names = program.variables + program.flags
        for keep in (frozenset(), frozenset(names[:1]), frozenset(names[1:])):
            trimmed = build_model(program, cfg, keep)
            assert trimmed.trace_parents == parents
            assert_kept(trimmed, runs, keep)
            assert_behaviours_shared(trimmed)

    @pytest.mark.parametrize("termination_output", [False, True])
    @pytest.mark.parametrize("dom, loops", DIFF_CONFIGS)
    def test_models_match_the_unshared_build(self, dom, loops, termination_output):
        for index, program in enumerate(_fuzzed(dom, loops, 30)):
            if index % 4 == 3:
                program = program_from_body(While(Const(True), program.body))
            bound = (3, 12, 10_000)[index % 3]
            self.assert_unshared(program, ModelConfig(dom, bound, termination_output))

    @pytest.mark.parametrize("termination_output", [False, True])
    @pytest.mark.parametrize("dom, loops", DIFF_CONFIGS + [
        pytest.param(HASHED4, True, id="hashed4-loops=True")])
    def test_cloned_runs_match_the_unshared_build(self, dom, loops, termination_output,
                                                  monkeypatch):
        # runs that differ only in an input written before any read are
        # cloned from the first run of their class, not simulated
        clones = []
        clone = model_module._clone
        monkeypatch.setattr(model_module, "_clone",
                            lambda *args: clones.append(args) or clone(*args))
        with_dead = 0
        for index, program in enumerate(_dead_input_programs(dom, loops, 40)):
            if index % 4 == 3:
                program = program_from_body(While(Const(True), program.body))
            with_dead += live_inputs(program) != set(program.variables)
            bound = (3, 12, 10_000)[index // 6 % 3]  # each shape under each bound
            self.assert_unshared(program, ModelConfig(dom, bound, termination_output))
        assert with_dead >= 20 and clones

    def test_runs_that_reach_an_earlier_runs_configuration(self):
        # each run reaches a configuration an earlier run reached first: the
        # run from x = ff one step later than the x = tt run (over bound 4),
        # runs after different outputs, and a run from x = ff where the
        # lasso from x = tt passed; each must equal the run simulated alone
        late = parse("if x then { x := ff } else { x := ff; x := ff }; out l; out l", BOOL)
        relay = parse("if h then { out tt } else { out ff }; l := ff; h := ff; out l", BOOL)
        spin = parse("while tt do { x := ff }", BOOL)
        loop = parse("x := 0; while x < h do { out l; x := x + 1 }; out l + x", INT4)
        for program, dom, bound in ((late, BOOL, 4), (relay, BOOL, 50), (spin, BOOL, 50),
                                    (loop, INT4, 3), (loop, INT4, 10_000)):
            for termination_output in (False, True):
                self.assert_unshared(program, ModelConfig(dom, bound, termination_output))

    def test_a_class_that_reaches_an_earlier_runs_store_is_cloned(self, monkeypatch):
        # the l = ff run reaches the l = tt run's store before writing the
        # dead x; it is simulated alone, and the other run of its class is
        # a clone of it
        calls = Counter()
        for name in ("_run", "_clone"):
            real = getattr(model_module, name)
            monkeypatch.setattr(model_module, name,
                                lambda *args, name=name, real=real:
                                calls.update([name]) or real(*args))
        program = parse("if l then { skip } else { skip }; l := ff; x := ff; out x", BOOL)
        self.assert_unshared(program, ModelConfig(BOOL), trim=False)  # one build
        assert calls == {"_run": 2, "_clone": 2}

    @pytest.mark.parametrize("text, termination_output, behaviours", [
        # x is dead: the runs from every x are clones of the first of their class
        ("x := 0; while x < h do { out l; x := x + 1 }; out l + x", False, 16),
        ("x := 0; while x < h do { out l; x := x + 1 }; out l + x", True, 16),
        # the branches share no configuration, only their trace ids
        ("if h then { out 1 } else { out 1 }", False, 1),
        ("if h then { out 1 } else { out 1 }", True, 1),
        # l is dead, but the lassos from h = 0 and h = 1 are simulated one by one
        ("l := 0; while h < 2 do { skip }; out l", False, 2),
    ])
    def test_runs_with_equal_trace_ids_share_one_list(self, text, termination_output,
                                                      behaviours):
        m = build_model(parse(text, INT4), ModelConfig(INT4, 50, termination_output))
        assert len(m.executions) > behaviours
        assert assert_behaviours_shared(m) == behaviours

    def test_runs_that_differ_in_a_dead_value_share_their_stores(self):
        loop = parse("x := 0; while x < h do { out l; x := x + 1 }; out l + x", INT4)
        m = build_model(loop, ModelConfig(INT4))
        for h, l in itertools.product(INT4.values, repeat=2):
            runs = [exec_from(m, x=x, h=h, l=l) for x in INT4.values]
            assert all(ex.final_store is runs[0].final_store for ex in runs)
        # c7's shape: x is written at step 1, and l on both branches at step 3
        c7 = parse("x := hash(h); if (x mod 2) == in then { l := 0 } else { l := 1 }; "
                   "release rh; out l", HASHED4)
        m = build_model(c7, ModelConfig(HASHED4))
        for h, in_ in itertools.product(HASHED4.values, repeat=2):
            runs = {(x, l): exec_from(m, x=x, h=h, **{"in": in_}, l=l)
                    for x, l in itertools.product(HASHED4.values, repeat=2)}
            first = runs[0, 0]
            for (x, l), ex in runs.items():
                assert ex.trace_ids is first.trace_ids
                assert [store["l"] for store in ex.stores[:3]] == [l] * 3
                assert [store["x"] for store in ex.stores] == [x] + [first.stores[1]["x"]] * 5
                assert all(a is b for a, b in zip(ex.stores[3:], first.stores[3:]))



class TestResultsModel:
    LOOP = "x := 0; while x < h do { out l; x := x + 1 }; out l + x"

    @pytest.mark.parametrize("termination_output", [False, True])
    def test_the_same_runs_showing_their_results(self, termination_output):
        program = parse(self.LOOP, INT4)
        m = build_model(program, ModelConfig(INT4, termination_output=termination_output))
        results = (parse_expression("l + x"), parse_expression("x mod 2"))
        r, garbage = garbage_after(lambda: results_model(m, results))
        assert garbage == []
        assert (r.program, r.cfg, r.variables, r.kept) == (program, m.cfg, m.variables,
                                                          frozenset())
        for ex, rx in zip(m.executions, r.executions, strict=True):
            assert (rx.index, rx.init_store, rx.final_store, rx.status) == (
                ex.index, ex.init_store, ex.final_store, ex.status)
            final = ex.final_store
            assert rx.stores is None and rx.model is r
            assert rx.events == [INT4.normalize(final["l"] + final["x"]), final["x"] % 2]
        # 4 values of l + x by 2 parities of x, each one list shared by its runs
        assert assert_behaviours_shared(r) == 8

    def test_a_run_keeps_its_status_whatever_its_length(self):
        # the bound cuts the program's own runs, not runs with outputs added
        program = parse("out 1; out 1; out 1; out 1; l := h", INT4)
        m = build_model(program, ModelConfig(INT4, bound=4))
        r = results_model(m, (Var("l"),))
        assert [ex.status for ex in r.executions] == [Status.BOUND_EXCEEDED] * 16
        assert r.refusal == m.refusal
        r = results_model(build_model(parse("l := h", INT4), ModelConfig(INT4, bound=1)),
                          (Var("l"),))
        assert r.refusal is None
        assert [len(ex) for ex in r.executions] == [1] * 16
