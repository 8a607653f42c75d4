import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import exec_from, garbage_after
from epiflow.domain import Domain
from epiflow.fuzz import (FuzzConfig, _abstractions_for, _gen_expr, generate_case,
                          generate_program)
from epiflow.lang import (Assign, Binary, Const, Seq, Unary, Var, expr_ids, parse,
                          parse_expression, program_from_body)
from epiflow.logic import (And, Eq, Evaluation, Exists, F, Ff, Forall, G, Implies, Init,
                           K, L, LogicError, Not, Or, Tt, Until, W,
                           formula_size, formula_to_source, model_satisfies, parse_formula,
                           satisfies)
from epiflow.model import ModelConfig, Point, build_model, results_model
from epiflow.policyfile import policy_pieces
from epiflow.policies import (FlowSpec, InitPredicate, ReleaseSpec,
                              TemporalDeclassification, encode_aak, encode_ak,
                              encode_akd, encode_akr, encode_aktd)
from epiflow.verdicts import Outcome

BOOL = Domain.booleans()
INT4 = Domain.integers(4)


def random_models(count, seed=0, domain=BOOL, size=6, ident_count=2):
    cfg = FuzzConfig(seed=seed, count=1, size=size, ident_count=ident_count,
                     domain=domain)
    models = []
    for index in range(count):
        program = generate_program(random.Random(f"m:{seed}:{index}"), cfg)
        models.append(build_model(program, ModelConfig(domain)))
    return models


def all_points(model):
    for ex in model.executions:
        for i in range(len(ex) + 1):
            yield Point(ex, i)


def equivalent(f1, f2, models):
    for m in models:
        for pt in all_points(m):
            assert satisfies(m, pt, f1) == satisfies(m, pt, f2)


def loop_model():
    """The loop program at int:4, whose output count reveals h."""
    program = parse("x := 0; while x < h do { out l; x := x + 1 }; out l + x", INT4)
    return program, build_model(program, ModelConfig(INT4))


P = Eq(Var("l"), Var("h"))
Q = Init("h", Var("l"))


class TestExpand:
    """Each sugar form means its expansion into the core operators."""

    def test_forall_becomes_conjunction(self):
        def body(e):
            return Or((Init("h", e), Eq(Var("l"), e)))

        models = random_models(6, seed=11)
        equivalent(Forall("v", body(Var("v"))),
                   And(tuple(body(Const(c)) for c in BOOL.values)), models)
        equivalent(Exists("v", body(Var("v"))),
                   Or(tuple(body(Const(c)) for c in BOOL.values)), models)

    def test_possibility_is_negated_knowledge(self):
        equivalent(L(P), Not(K(Not(P))), random_models(6, seed=12))

    def test_weak_until_definition(self):
        equivalent(W(P, Q), Or((Until(P, Q), G(P))), random_models(6, seed=13))

    def test_future_and_globally(self):
        models = random_models(6, seed=14)
        equivalent(F(P), Until(Tt(), P), models)
        equivalent(G(P), Not(F(Not(P))), models)

    def test_truth_constants(self):
        models = random_models(4, seed=15)
        equivalent(Tt(), And(()), models)
        equivalent(Ff(), Not(Tt()), models)
        m = models[0]
        assert satisfies(m, Point(m.executions[0], 0), Tt())

    def test_shadowing_rejected(self, copy_out_model):
        f = Forall("v", Forall("v", Init("x", Var("v"))))
        with pytest.raises(LogicError, match="shadow"):
            model_satisfies(copy_out_model, f)


class TestFormulaSize:
    def test_shared_subtrees_count_once(self):
        shared = Eq(Var("l"), Var("h"))
        assert formula_size(And((shared, Not(shared), Until(shared, Tt())))) == 5
        assert formula_size(And((shared, Eq(Var("l"), Var("h"))))) == 3

    def test_deep_formulas_leave_no_cycles(self):
        # an explicit stack, not a recursive closure: deeper than the
        # interpreter's recursion limit, and no function left in a cycle
        f = Eq(Var("l"), Var("h"))
        for k in range(2000):
            f = (Not(f), And((f, f)), G(f), Until(f, f), Forall("v", f), W(Tt(), f))[k % 6]
        size, garbage = garbage_after(lambda: formula_size(f))
        assert size == 2001 + 2000 // 6  # each W adds its own Tt
        assert garbage == []


class TestSatisfies:
    def test_init_atom_holds_at_every_point(self, copy_out_model):
        m = copy_out_model
        ex = exec_from(m, x=False, y=True)
        f = Init("y", Const(True))
        for i in range(3):
            assert satisfies(m, Point(ex, i), f)

    def test_until_with_immediate_goal(self, copy_out_model):
        m = copy_out_model
        f = Until(Tt(), Eq(Const(True), Const(True)))
        assert satisfies(m, Point(m.executions[0], 0), f)

    def test_possibility_fails_outside_epoch(self, copy_out_model):
        # after observing ff, a tt initial y is not possible
        m = copy_out_model
        ex = exec_from(m, x=True, y=False)
        f = L(And((Init("x", Const(True)), Init("y", Const(True)))))
        assert not satisfies(m, Point(ex, 2), f)

    def test_init_atom_with_current_state_expression(self):
        # init compares the initial value against the CURRENT value of e
        m = build_model(parse("y := !y", BOOL), ModelConfig(BOOL))
        f = Init("y", Var("y"))
        for ex in m.executions:
            assert satisfies(m, Point(ex, 0), f)
            assert not satisfies(m, Point(ex, 1), f)

    def test_tainted_model_rejected(self):
        m = build_model(parse("while tt do { skip }", BOOL), ModelConfig(BOOL))
        with pytest.raises(LogicError):
            satisfies(m, Point(m.executions[0], 0), Tt())


class TestModelSatisfies:
    def test_globally_true(self):
        m = build_model(parse("skip", BOOL), ModelConfig(BOOL))
        assert model_satisfies(m, G(Tt())).outcome is Outcome.HOLDS

    def test_failure_carries_point_witness(self, copy_out_model):
        f = G(Forall("v", Implies(Init("x", Var("v")),
                                  Forall("u", L(And((Init("x", Var("v")),
                                                     Init("y", Var("u")))))))))
        verdict = model_satisfies(copy_out_model, f)
        assert verdict.outcome is Outcome.FAILS
        w = verdict.witness
        assert w.point_index == 2
        assert w.binding_map == {"v": True, "u": False}
        assert w.trace == (True,)

    def test_bound_exceeded_on_tainted_model(self):
        m = build_model(parse("while tt do { skip }", BOOL), ModelConfig(BOOL))
        verdict = model_satisfies(m, G(Tt()))
        assert verdict.outcome is Outcome.BOUND_EXCEEDED
        assert verdict.witness is None

    def test_loop_witness(self):
        # after seeing 0 then 1, the observer knows h = 1; the first
        # alternative that is no longer possible is h'' = 0
        program, m = loop_model()
        verdict = model_satisfies(m, encode_ak(FlowSpec.from_low(program, ["l"]), INT4))
        assert verdict.outcome is Outcome.FAILS
        w = verdict.witness
        assert w.stores == (("initial", (("x", 0), ("h", 1), ("l", 0))),)
        assert w.point_index == 6
        assert w.trace == (0, 1)
        assert w.bindings == (("l'", 0), ("x''", 0), ("h''", 0))


class TestLogicProperties:
    def test_knowledge_possibility_duality(self):
        for m in random_models(8, seed=1):
            phi = Init("l", Const(True))
            k_form = K(phi)
            dual = Not(L(Not(phi)))
            for pt in all_points(m):
                assert satisfies(m, pt, k_form) == satisfies(m, pt, dual)

    def test_knowledge_constant_within_epoch(self):
        for m in random_models(8, seed=2):
            phi = K(Eq(Var("l"), Const(True)))
            for points in m.epochs.values():
                values = {satisfies(m, pt, phi) for pt in points}
                assert len(values) == 1

    def test_future_equals_true_until(self):
        body = Eq(Var("l"), Const(False))
        for m in random_models(6, seed=3):
            f1 = F(body)
            f2 = Until(Tt(), body)
            for pt in all_points(m):
                assert satisfies(m, pt, f1) == satisfies(m, pt, f2)

    def test_globally_matches_direct_scan(self):
        body = Eq(Var("l"), Var("h"))
        for m in random_models(6, seed=4, ident_count=2):
            g = G(body)
            atom = body
            for ex in m.executions:
                for i in range(len(ex) + 1):
                    direct = all(satisfies(m, Point(ex, k), atom)
                                 for k in range(i, len(ex) + 1))
                    assert satisfies(m, Point(ex, i), g) == direct

    def test_initial_values_are_stable(self):
        for m in random_models(8, seed=5):
            for value in BOOL.values:
                f = Init("l", Const(value))
                for ex in m.executions:
                    if satisfies(m, Point(ex, 0), f):
                        assert all(satisfies(m, Point(ex, i), f)
                                   for i in range(len(ex) + 1))

    def test_accessibility_is_an_equivalence(self):
        from epiflow.model import accessible
        for m in random_models(5, seed=6):
            pts = list(all_points(m))
            sample = random.Random(7).sample(pts, min(len(pts), 12))
            for a in sample:
                assert accessible(a, a)
                for b in sample:
                    assert accessible(a, b) == accessible(b, a)
                    for c in sample:
                        if accessible(a, b) and accessible(b, c):
                            assert accessible(a, c)


def matches_reference(m, f, every_point=False):
    # one evaluation over the whole model, so memoized values are reused
    memo: dict = {}
    expected = all(oracles.holds(m, f, ex, 0, memo=memo) for ex in m.executions)
    assert model_satisfies(m, f).holds == expected
    if every_point:
        for pt in all_points(m):
            assert satisfies(m, pt, f) == oracles.holds(m, f, pt.execution, pt.index,
                                                        memo=memo)


def pred(text, dom):
    return InitPredicate.from_expression(parse_expression(text), dom)


class TestEvaluatorTransparency:
    """The evaluator agrees with the naive reference evaluator in oracles.py."""

    def test_verdicts_identical_without_cache_or_dispatch(self):
        for m in random_models(6, seed=8):
            fs = FlowSpec.from_low(m.program, m.variables[:1])
            matches_reference(m, encode_ak(fs, BOOL))

    def test_akd(self):
        for index, m in enumerate(random_models(4, seed=9, domain=INT4)):
            names = m.variables
            fs = FlowSpec.from_low(m.program, names[:1])
            preds = (pred(f"{names[index % len(names)]} < 2", INT4),)
            matches_reference(m, encode_akd(fs, preds, INT4))

    def test_aak_with_sign_and_parity(self):
        dom = Domain.integers(4, signed=True)
        cfg = FuzzConfig(seed=1, count=1, size=5, ident_count=2, domain=dom)
        for index in range(4):
            program = generate_program(random.Random(f"aak-ref:{index}"), cfg)
            fs = FlowSpec.from_low(program, program.variables[:1])
            eta, phi, rho = (("Sign", "Par", "Par"), ("Par", "Sign", "Sign"))[index % 2]
            results, f = encode_aak(program, fs, eta, phi, rho, dom)
            matches_reference(results_model(build_model(program, ModelConfig(dom)), results), f)

    def test_akr_with_two_flags(self):
        cfg = FuzzConfig(seed=1, count=1, size=6, ident_count=2)
        for index in range(4):
            program = generate_program(random.Random(f"akr-ref:{index}"), cfg,
                                       release_flags=("r1", "r2"))
            m = build_model(program, ModelConfig(BOOL))
            names = program.variables
            rs = ReleaseSpec((("r1", Var(names[0])), ("r2", Var(names[-1]))))
            fs = FlowSpec.from_low(program, names[:1])
            matches_reference(m, encode_akr(fs, rs, BOOL))

    # release programs, with their releases and public identifiers: flags
    # set before, after and in only some runs of the outputs they cover
    RELEASES = [
        (BOOL, "out h; release r; out h", {"r": "h"}, ()),
        (BOOL, "l := h1; out l; release r1; l := h2; release r2; out l",
         {"r1": "h1", "r2": "h2"}, ("l",)),
        (BOOL, "if h1 then { release r } else { skip }; out h1 && h2",
         {"r": "h1 && h2"}, ()),
        (BOOL, "release r1; out h1 || h2; out h2; release r2",
         {"r1": "h1 || h2", "r2": "h2"}, ()),
        (INT4, "out h mod 2; x := h; release r; out x mod 2", {"r": "h mod 2"}, ()),
    ]

    @pytest.mark.parametrize("dom, text, releases, low", RELEASES, ids=[
        "out-release-out", "two-release", "release-in-some-runs", "two-flags", "int4"])
    def test_akr_at_every_point(self, dom, text, releases, low):
        # akr is aktd over its release flags: at every point it agrees with
        # the reference evaluator, and with the paper's formula, G of
        # (flags = S -> espm(S)) over every set S of flags
        program = parse(text, dom)
        m = build_model(program, ModelConfig(dom))
        rs = ReleaseSpec(tuple((flag, parse_expression(e)) for flag, e in releases.items()))
        fs = FlowSpec.from_low(program, low)
        f = encode_akr(fs, rs, dom)
        agrees_at_every_point(m, f)
        paper, memo = oracles.akr_formula(fs, rs, dom), {}
        values = [satisfies(m, pt, f) for pt in all_points(m)]
        assert values == [oracles.holds(m, paper, pt.execution, pt.index, memo=memo)
                          for pt in all_points(m)]
        assert set(values) == {True, False}

    def test_aktd(self):
        for m in random_models(4, seed=10, ident_count=3):
            a, b, c = m.variables
            fs = FlowSpec.from_low(m.program, (a,))
            tds = (TemporalDeclassification(parse_expression(f"{a} == {b}"), pred(b, BOOL)),
                   TemporalDeclassification(parse_expression("tt"), pred(f"{b} && {c}", BOOL)))
            matches_reference(m, encode_aktd(fs, tds, BOOL))

    @pytest.mark.parametrize("dom, text, whens, low", [
        (BOOL, "out h1; l := h2; out l", [("l", "h1"), ("tt", "h2")], ("l",)),
        (BOOL, "if h1 then { l := h2 } else { skip }; out l; out h1",
         [("l == h2", "h1 && h2"), ("h1", "h2")], ()),
        (INT4, "x := 0; while x < h do { out l; x := x + 1 }; out l + x",
         [("x == 2", "h mod 2"), ("x > 2", "h")], ("l",)),
    ], ids=["bool", "two-guards", "int4-loop"])
    def test_aktd_at_every_point(self, dom, text, whens, low):
        # the conjuncts share one espm scaffold and one agreement and one
        # condition test per declassification, so a node is memoized once
        # for all the conjuncts it serves; the value stays the reference's
        program = parse(text, dom)
        m = build_model(program, ModelConfig(dom))
        tds = tuple(TemporalDeclassification(parse_expression(cond), pred(e, dom))
                    for cond, e in whens)
        f = encode_aktd(FlowSpec.from_low(program, low), tds, dom)
        agrees_at_every_point(m, f)
        assert {satisfies(m, pt, f) for pt in all_points(m)} == {True, False}

    def test_guarded_blocks(self):
        # binders, guards over bound values only, guards over the store, a
        # bound name that shadows an identifier, and a contradictory pinned L
        formulas = [
            "forall a . forall b . (init(l, a) && a == b && h == b) -> L (init(l, b) || h == a)",
            "forall a . forall b . (init(l, a) && init(h, a)) -> K (init(h, b) || a != b)",
            "exists a . exists b . init(l, a) && (a != b) && F (h == b)",
            "forall l . init(h, l) -> (l == h U !(h == l))",
            "G (forall a . a == l -> L init(h, a))",
            "forall a . init(l, a) -> (forall b . b != a -> G (L (init(l, a) && init(h, b))))",
            "forall a . forall b . a != b -> !L (init(l, a) && init(h, a) && init(l, b))",
        ]
        for m in random_models(5, seed=16):
            for text in formulas:
                matches_reference(m, parse_formula(text), every_point=True)


def agrees_at_every_point(m, f, seed=0):
    """One evaluation visits every point in shuffled order, so values
    memoized at one point are reused at the others; the reference shares
    one memo across the points too."""
    ev = evaluation(m)
    root = ev.compile(f)
    points = list(all_points(m))
    random.Random(seed).shuffle(points)
    memo: dict = {}
    for pt in points:
        expected = oracles.holds(m, f, pt.execution, pt.index, memo=memo)
        assert ev.holds(root, pt.execution, pt.index) == expected, formula_to_source(f)


C4 = "if h >= 0 then { l := 2*l*h } else { l := 2*l*h + 1 }"
LOOP = "x := 0; while x < h do { out l; x := x + 1 }; out l + x"


class TestKeyedGuards:
    """A pure guard conjunct equating a side that reads solved variables
    with one that reads none is a key: the solutions are grouped by the
    first side's values and looked up under the second's."""

    @pytest.mark.parametrize("text, dom, params", [
        (C4, Domain.integers(8, signed=True), ("Id", "Sign", "Par")),
        ("if h >= 0 then { l := l + h } else { l := l - h }", Domain.integers(4, signed=True),
         ("Sign", "Par", "Par")),
    ], ids=["c4-signed-int8", "sign-eta-signed-int4"])
    def test_aak_at_every_point(self, text, dom, params):
        # the alternatives are grouped by their classes under eta and phi
        # once, and each premise looks up its own class
        program = parse(text, dom)
        results, f = encode_aak(program, FlowSpec.from_low(program, ("l",)), *params, dom)
        m = results_model(build_model(program, ModelConfig(dom)), results)
        agrees_at_every_point(m, f)

    @pytest.mark.parametrize("text, declassified", [
        ("if h < l then { out l } else { out h mod 2 }", "h < l"),
        ("out (l + h) mod 2; if l == 0 then { out h } else { skip }", "(l + h) mod 2"),
    ], ids=["less-then-parity", "sum-parity-then-all"])
    def test_akd_declassifying_low_and_high(self, text, declassified):
        # the agreement's near side reads the premise's public value as
        # well as the alternative secret, so it is grouped per public value
        program = parse(text, INT4)
        m = build_model(program, ModelConfig(INT4))
        f = encode_akd(FlowSpec.from_low(program, ("l",)), (pred(declassified, INT4),), INT4)
        agrees_at_every_point(m, f)
        assert {satisfies(m, pt, f) for pt in all_points(m)} == {True, False}

    @pytest.mark.parametrize("text", [
        # the far side on the right, in a possibility block and in a block
        # with a check on the store
        "forall a . init(l, a) -> (forall b . b mod 2 == a mod 2 -> L (init(l, a) && init(h, b)))",
        "forall a . init(h, a) -> (forall b . (b + 1 == a && l == b) -> K init(h, a))",
        # both sides read solved variables: a filter beside a key
        "forall a . init(l, a) -> (forall b . forall c . (b == c && c mod 2 == a mod 2)"
        " -> L (init(l, b) && init(h, c)))",
        "forall a . init(h, a) -> (forall b . forall c . (b * c == b + c && a == c) -> F l == b)",
        # no assignment satisfies the guard: two keys the far sides
        # contradict, and a filter
        "forall a . init(h, a) -> (forall b . (a == b && a + 1 == b)"
        " -> L (init(l, b) && init(h, b)))",
        "G (forall a . init(h, a) -> (forall b . (b == a && b != b) -> l == b))",
    ], ids=["far-right", "far-right-check", "filter-and-key", "filter-product",
            "contradicting-keys", "empty-filter"])
    def test_hand_written_guards(self, text):
        for m in random_models(3, seed=41, domain=INT4):
            agrees_at_every_point(m, parse_formula(text))

    def test_aak_solves_the_guard_once(self):
        # aak on c4 fixes no identifier, so the agreement's near side reads
        # the alternative only: one grouping serves every premise
        dom = Domain.integers(16, signed=True)
        program = parse(C4, dom)
        results, f = encode_aak(program, FlowSpec.from_low(program, ("l",)),
                                "Id", "Sign", "Par", dom)
        ev = Evaluation(program, dom)
        m = results_model(build_model(program, ModelConfig(dom)), results)
        verdict = model_satisfies(m, f, ev)
        assert verdict.outcome is Outcome.HOLDS
        assert len(ev.solved) == 1
        (groups,) = ev.solved.values()
        assert len(groups) == 16 * 2  # each l'' (eta: Id) by the Sign of h''

    def test_akd_solves_the_guard_once_per_public_value(self):
        dom = Domain.integers(16)
        program = parse(LOOP, dom)
        f = encode_akd(FlowSpec.from_low(program, ("l",)), (pred("l + h", dom),), dom)
        ev = Evaluation(program, dom)
        verdict = model_satisfies(build_model(program, ModelConfig(dom)), f, ev)
        assert verdict.outcome is Outcome.HOLDS
        assert len(ev.solved) == 16
        assert {key[1] for key in ev.solved} == set(dom.values)


# one child per kind of dependence, over the bound variable v
AT_POINT = Eq(Var("l"), Var("h"))  # reads the current store
AT_EXEC = Init("h", Var("v"))  # fixed along a run
AT_EPOCH = K(Or((Eq(Var("l"), Var("v")), Init("l", Var("v")))))  # fixed across an epoch
AT_RUN_EPOCH = And((AT_EXEC, AT_EPOCH))  # fixed within one run's visit to an epoch
# each with what it depends on: the store identifiers read at the current
# point, the initial values read, fixed per epoch, scans
LEVELS = [(AT_POINT, ({"l", "h"}, set(), False, False)),
          (AT_EXEC, (set(), {"h"}, False, False)),
          (AT_EPOCH, (set(), set(), True, False)),
          (AT_RUN_EPOCH, (set(), {"h"}, True, False))]


def facts(plan):
    return plan.reads, plan.inits, plan.epoch, plan.scans


def level_models():
    return random_models(4, seed=21) + random_models(2, seed=22, domain=INT4, size=4)


def binder_block(body):
    """A block binding v to the run's initial h and w to its initial l."""
    return Forall("v", Forall("w", Implies(And((Init("h", Var("v")), Init("l", Var("w")))),
                                           body)))


# blocks whose other parts are fixed across an epoch, reading v but not w
# (and the outer u): memoized by the initial h and, for the second, the trace
AT_INIT_H = binder_block(Eq(Var("v"), Var("u")))
AT_TRACE_AND_INIT_H = binder_block(K(Or((Eq(Var("l"), Var("v")), Init("l", Var("v"))))))


# forall blocks over init atoms pinning l and h: possibility blocks (no
# binders, no checks, and a pinned L as the body), covering pure guards, a
# guard no assignment satisfies and contradictory pins, then other blocks
POSSIBILITY_BLOCKS = [
    "forall a . forall b . L (init(l, a) && init(h, b))",
    "forall a . forall b . a != b -> L (init(l, a) && init(h, b))",
    "forall u . init(l, u) -> forall b . b != u -> L (init(l, u) && init(h, b))",
    "G (forall a . a != a -> L (init(l, a) && init(h, a)))",
    "forall a . forall b . L (init(l, a) && init(h, b) && init(l, b))",
    "forall a . forall b . a == b -> L (init(l, a) && init(h, b) && init(l, b))",
    "G (forall u . init(h, u) -> forall a . a != u -> L (init(l, a) && init(h, u) && init(h, a)))",
]
OTHER_BLOCKS = [
    "exists a . exists b . L (init(l, a) && init(h, b))",
    "forall a . a == l -> L (init(l, a) && init(h, a))",
    "forall a . init(h, a) -> L (init(l, a) && init(h, a))",
    "forall a . forall b . !L (init(l, a) && init(h, b))",
    "forall a . forall b . K (init(l, a) && init(h, b))",
]

# possibility blocks inside a block binding u to the run's initial l and w
# to its initial h, each with the identifiers of its fixed pins (reading no
# solved variable) and of its varying pins.  The fixed side contradicts
# itself on runs where l != h; the varying side does there; a guard admits
# no instance while the fixed side contradicts; varying pins read outer u.
SPLIT_BLOCKS = [
    ("forall b . b != u -> L (init(l, u) && init(l, w) && init(h, b))", "l l", "h"),
    ("forall a . a == w -> L (init(l, u) && init(h, a) && init(h, u))", "l", "h h"),
    ("forall b . b != b -> L (init(l, u) && init(l, w) && init(h, b))", "l l", "h"),
    ("forall a . a != u -> L (init(l, u) && init(h, a + u))", "l", "h"),
    ("forall a . L (init(l, a) && init(h, a + u))", "", "l h"),
]


class TestMemoLevels:
    """K, L and the temporal operators over children at every memo level,
    against the reference evaluator at every point of random models."""

    def test_children_have_the_intended_levels(self):
        ev = evaluation(random_models(1, seed=21)[0])
        scope = frozenset({"v"})
        for child, depends in LEVELS:
            assert facts(ev.compile(child, scope)) == depends
        for temporal in (G(AT_RUN_EPOCH), F(AT_RUN_EPOCH), Until(AT_EPOCH, AT_RUN_EPOCH),
                         W(AT_RUN_EPOCH, AT_EXEC)):
            assert facts(ev.compile(temporal, scope)) == (set(), {"h"}, True, True)
        assert facts(ev.compile(Until(AT_RUN_EPOCH, AT_POINT), scope)) == (
            {"l", "h"}, {"h"}, True, True)

    @pytest.mark.parametrize("child", [c for c, _ in LEVELS],
                             ids=["point", "exec", "epoch", "run-epoch"])
    def test_knowledge_and_possibility(self, child):
        formulas = [
            Forall("v", K(child)),
            Exists("v", K(child)),
            Forall("v", L(child)),
            Forall("v", Implies(Init("l", Var("v")), L(child))),
            G(Exists("v", Not(K(child)))),
        ]
        for index, m in enumerate(level_models()):
            for f in formulas:
                agrees_at_every_point(m, f, seed=index)

    def test_temporal_over_the_run_epoch_conjunction(self):
        conj = AT_RUN_EPOCH
        bodies = [G(conj), F(conj), Until(conj, AT_POINT), Until(AT_POINT, conj),
                  W(conj, AT_EPOCH), W(AT_EXEC, conj), Until(AT_EPOCH, conj)]
        formulas = [Forall("v", L(G(conj))), Forall("v", L(Until(conj, AT_POINT)))]
        for body in bodies:
            formulas += [Forall("v", body), Exists("v", body), Exists("v", K(body))]
        for index, m in enumerate(level_models()):
            for f in formulas:
                agrees_at_every_point(m, f, seed=index)


    def test_initial_value_blocks_keep_their_levels(self):
        ev = evaluation(random_models(1, seed=21)[0])
        scope = frozenset({"u"})
        assert facts(ev.compile(AT_INIT_H, scope)) == (set(), {"h"}, False, False)
        assert facts(ev.compile(AT_TRACE_AND_INIT_H, scope)) == (set(), {"h"}, True, False)

    @pytest.mark.parametrize("block", [AT_INIT_H, AT_TRACE_AND_INIT_H],
                             ids=["const-body", "epoch-body"])
    def test_initial_value_blocks(self, block):
        formulas = [
            Forall("u", K(block)),
            Exists("u", L(block)),
            Forall("u", L(Not(block))),
            G(Exists("u", block)),
            Forall("u", W(block, AT_POINT)),
            Exists("u", W(AT_POINT, Not(block))),
            Forall("u", G(Implies(Init("l", Var("u")), block))),
        ]
        for index, m in enumerate(level_models()):
            for f in formulas:
                agrees_at_every_point(m, f, seed=index)


    def test_knowledge_of_run_fixed_children_uses_masks(self):
        ev = evaluation(random_models(1, seed=21)[0])
        scope = frozenset({"v"})
        assert ev.compile(K(AT_EXEC), scope).compute is Evaluation._knows_runs
        assert ev.compile(L(AT_EXEC), scope).compute is Evaluation._possible_runs
        for child in (AT_POINT, AT_RUN_EPOCH):
            assert ev.compile(K(child), scope).compute is Evaluation._knows

    def test_knowledge_of_epoch_fixed_children_is_the_child(self):
        # K p = L p = p when p is fixed across the epoch: a constant, or a
        # node built on K and L that reads no store, initial value or scan
        models = level_models()
        ev = evaluation(models[0])
        scope = frozenset({"v"})
        fixed = [AT_EPOCH, Not(AT_EPOCH), L(AT_EPOCH), Eq(Var("v"), Var("v")),
                 G(Eq(Var("v"), Var("v")))]
        for child in fixed:
            plan = ev.compile(child, scope)
            assert ev.compile(K(child), scope) is plan is ev.compile(L(child), scope)
        formulas = [f(child) for child in fixed for f in (
            lambda c: Forall("v", K(c)), lambda c: Exists("v", L(Not(c))),
            lambda c: G(Forall("v", K(L(c)))))]
        for index, m in enumerate(models):
            for f in formulas:
                agrees_at_every_point(m, f, seed=index)

    @pytest.mark.parametrize("text", POSSIBILITY_BLOCKS + OTHER_BLOCKS)
    def test_possibility_blocks(self, text):
        f = parse_formula(text)
        fused = text in POSSIBILITY_BLOCKS
        models = level_models()
        ev = evaluation(models[0])
        ev.compile(f)
        assert fused == any(p.compute is Evaluation._all_possible for _, p in ev.plans.values())
        for index, m in enumerate(models):
            agrees_at_every_point(m, f, seed=index)

    @pytest.mark.parametrize("inner, fixed, varying", SPLIT_BLOCKS)
    def test_possibility_blocks_split_their_pins(self, inner, fixed, varying):
        f = parse_formula(f"forall u . forall w . (init(l, u) && init(h, w)) -> {inner}")
        # a + u needs integers
        models = [m for m in level_models() if "+" not in inner or m.domain == INT4]
        ev = evaluation(models[0])
        ev.compile(f)
        (block,) = [p.args for _, p in ev.plans.values()
                    if p.compute is Evaluation._all_possible]
        assert " ".join(name for name, _ in block.fixed) == fixed
        assert " ".join(name for name, _ in block.varying) == varying
        for index, m in enumerate(models):
            agrees_at_every_point(m, f, seed=index)

    def test_knowledge_over_run_masks(self):
        formulas = [
            "forall a . forall b . K (init(l, a) && init(h, b))",
            "exists a . exists b . K (init(l, a) && init(h, b) && init(l, b))",
            "forall a . K (init(h, a) || init(l, a)) -> L init(l, a)",
            "G (exists a . !K (init(h, a) -> init(l, a)))",
            "forall a . L (init(l, a) && init(h, a))",
            "exists a . L (init(l, a) && init(h, l))",
        ]
        for index, m in enumerate(level_models()):
            for text in formulas:
                agrees_at_every_point(m, parse_formula(text), seed=index)

    @pytest.mark.parametrize("lhs", [c for c, _ in LEVELS],
                             ids=["point", "exec", "epoch", "run-epoch"])
    @pytest.mark.parametrize("rhs", [c for c, _ in LEVELS],
                             ids=["point", "exec", "epoch", "run-epoch"])
    def test_temporal_over_every_pair_of_levels(self, lhs, rhs):
        formulas = [Exists("v", Until(lhs, rhs)), Forall("v", W(lhs, rhs)),
                    Exists("v", And((F(lhs), G(rhs)))), Forall("v", L(W(lhs, Not(rhs))))]
        for index, m in enumerate(level_models()[::2]):
            for f in formulas:
                agrees_at_every_point(m, f, seed=index)

    def test_masks_wider_than_a_machine_word(self):
        # 125 runs, so run masks span several machine words
        dom = Domain.integers(5)
        m = build_model(parse("if h < 2 then { out l } else { out h + k }", dom), ModelConfig(dom))
        assert len(m.executions) > 64
        formulas = [
            "forall a . L (init(l, a) && init(h, a) && init(k, a))",
            "exists a . K (init(k, a) || init(h, a))",
            "F (forall a . forall b . (a == b) -> L (init(l, a) && init(h, 1) && init(k, b)))",
        ]
        for text in formulas:
            agrees_at_every_point(m, parse_formula(text))

    def test_scans_visit_each_epoch_block_once(self):
        program, m = loop_model()
        f = encode_akd(FlowSpec.from_low(program, ["l"]), (pred("h", INT4),), INT4)
        ev = evaluation(m, CountingEvaluation)
        root = ev.compile(f)
        ev.counted = root.kids[0]
        assert isinstance(f, G) and not ev.counted.reads
        assert all(ev.holds(root, ex, 0) for ex in m.executions)
        # one scan per behaviour and initial h and l, the values G's block reads
        scans = {(id(ex.trace_ids), ex.init_store["h"], ex.init_store["l"]): ex.trace_ids
                 for ex in m.executions}
        assert ev.calls == sum(len(set(ids)) for ids in scans.values())

    def test_scans_step_from_change_to_change(self):
        # the G child of the paper's akr formula reads the release flag,
        # which changes only at the release step: its scans visit each
        # position where the flag or the trace changes, and no other
        m, f = c7_akr(encode=oracles.akr_formula)
        ev = evaluation(m, CountingEvaluation)
        root = ev.compile(f)
        ev.counted = root.kids[0]
        assert isinstance(f, G) and ev.counted.reads == {"rh"}
        assert all(ev.holds(root, ex, 0) for ex in m.executions)
        changes = sum(1 for ex in m.executions for j in range(len(ex) + 1)
                      if j == 0 or ex.trace_ids[j] != ex.trace_ids[j - 1]
                      or ex.stores[j]["rh"] != ex.stores[j - 1]["rh"])
        assert ev.calls == changes < m.point_count

    def test_release_witness(self):
        # the extra output x mod 3 tells h = 0 from h'' = 4, which agree on
        # the released hashed check
        m, f = c7_akr(leaky=True)
        verdict = model_satisfies(m, f)
        assert verdict.outcome is Outcome.FAILS
        w = verdict.witness
        assert w.stores == (("initial", (("x", 0), ("h", 0), ("in", 0), ("l", 0))),)
        assert w.point_index == 6
        assert w.trace == (0, 0)
        assert w.bindings == (("in'", 0), ("l'", 0), ("x'", 0), ("h'", 0),
                              ("x''", 0), ("h''", 4))


def c7_akr(leaky=False, encode=encode_akr):
    """Acceptance item 7: the hashed-check program under akr, with its
    check released; the leaky variant also outputs x mod 3.  ``encode``
    gives the akr formula."""
    dom = Domain.integers(8, hash_table=tuple(3 * v % 8 for v in range(8)))
    text = ("x := hash(h); if (x mod 2) == in then { l := 0 } else { l := 1 };"
            " release rh; out l" + ("; out (x mod 3)" if leaky else ""))
    program = parse(text, dom)
    releases = ReleaseSpec((("rh", parse_expression("(hash(h) mod 2) == in")),))
    f = encode(FlowSpec.from_low(program, ["in", "l"]), releases, dom)
    return build_model(program, ModelConfig(dom)), f


def store_reads(f, bound=frozenset()):
    """The store identifiers the formula's atoms read at the current point;
    atoms under K or L read other points."""
    match f:
        case Eq(lhs, rhs):
            return (set(expr_ids(lhs)) | set(expr_ids(rhs))) - bound
        case Init(_, expr):
            return set(expr_ids(expr)) - bound
        case K() | L() | Tt() | Ff():
            return set()
        case Forall(var, body) | Exists(var, body):
            return store_reads(body, bound | {var})
        case Not(child) | F(child) | G(child):
            return store_reads(child, bound)
        case And(children) | Or(children):
            return set().union(*(store_reads(c, bound) for c in children))
        case Until(lhs, rhs) | W(lhs, rhs) | Implies(lhs, rhs):
            return store_reads(lhs, bound) | store_reads(rhs, bound)
    raise TypeError(f"not a formula: {f!r}")


TERMS = st.sampled_from([Var("l"), Var("h"), Var("v")])
ATOMS = st.one_of(st.builds(Eq, TERMS, TERMS),
                  st.builds(Init, st.sampled_from(["l", "h"]), TERMS))
FORMULAS = st.recursive(ATOMS, lambda sub: st.one_of(
    st.builds(Not, sub), st.builds(K, sub), st.builds(L, sub),
    st.builds(F, sub), st.builds(G, sub),
    st.builds(lambda a, b: And((a, b)), sub, sub),
    st.builds(lambda a, b: Or((a, b)), sub, sub),
    st.builds(Until, sub, sub), st.builds(W, sub, sub),
    st.builds(Forall, st.just("v"), sub), st.builds(Exists, st.just("v"), sub),
), max_leaves=6)
STUTTER_MODELS = random_models(3, seed=31, size=8) + level_models()


class TestStutterInvariance:
    """The logic has no Next, so it cannot tell repeated states apart:
    the premise of scans that step from change to change."""

    @settings(max_examples=200, deadline=None)
    @given(FORMULAS, st.integers(0, len(STUTTER_MODELS) - 1))
    def test_repeated_states_agree(self, body, index):
        # v is the run's initial h
        m = STUTTER_MODELS[index]
        f = Forall("v", Implies(Init("h", Var("v")), body))
        reads = sorted(store_reads(f))
        memo: dict = {}
        for ex in m.executions:
            values = [oracles.holds(m, f, ex, j, memo=memo) for j in range(len(ex) + 1)]
            for j in range(len(ex)):
                if ex.trace_ids[j] == ex.trace_ids[j + 1] and all(
                        ex.stores[j][n] == ex.stores[j + 1][n] for n in reads):
                    assert values[j] == values[j + 1], formula_to_source(f)


def shared_behaviour_models():
    """Models where many runs share one behaviour: the loop program, whose
    runs differ only in the dead initial x, and a program whose trace
    tells only l and whether h < 2."""
    shared = parse("out l; x := h; if x < 2 then { x := 0 } else { out l }; out l", INT4)
    return [loop_model()[1], build_model(shared, ModelConfig(INT4))]


class TestBehaviourKeys:
    """Memos keyed by behaviour and the initial values read tell apart runs
    that share a behaviour but differ in the initial values a node reads."""

    FORMULAS = [
        # scans that read an initial value outside any binder
        "F (init(x, 0) && K (l == 1))",
        "G (init(h, 1) -> L init(l, 0))",
        "init(x, 1) U K (l == 0)",
        "(init(h, 0) || K (l != 1)) W init(x, 2)",
        "L F init(x, 1)",
        # binder blocks under temporal operators
        "G (forall v . init(x, v) -> L (init(x, v) && init(l, 0)))",
        "F (forall v . init(h, v) -> K (init(h, v) || l == v))",
        "G (forall v . forall w . (init(x, v) && init(h, w)) -> (v == w || L init(l, v)))",
        # binder blocks whose other parts read initial values or scan
        "forall v . init(x, v) -> F (init(h, v) && L (l == v))",
        "forall v . init(l, v) -> (init(h, 0) && G L (x == v))",
        "forall v . init(h, v) -> (init(x, v) U K (l == v))",
        # K and L over children that read the store
        "K (x == 0 U l == 1)",
        "G L (x == h)",
        "forall v . init(x, v) -> K (x == v || F (l == v))",
    ]

    def test_models_share_behaviours(self):
        for m in shared_behaviour_models():
            assert len({id(ex.trace_ids) for ex in m.executions}) < len(m.executions)

    @pytest.mark.parametrize("text", FORMULAS)
    def test_agrees_with_the_reference(self, text):
        f = parse_formula(text)
        for index, m in enumerate(shared_behaviour_models()):
            agrees_at_every_point(m, f, seed=index)

    def test_knowledge_steps_from_change_to_change(self):
        # K's child reads x, which changes within the first epoch block:
        # each run of the epoch is visited where the trace or x changes
        m = build_model(parse("x := 0; while x < h do { x := x + 1 }; out l", INT4),
                        ModelConfig(INT4))
        f = G(K(Or((Eq(Var("x"), Var("x")), Eq(Var("l"), Var("h"))))))
        ev = evaluation(m, CountingEvaluation)
        root = ev.compile(f)
        ev.counted = root.kids[0].kids[0]
        assert ev.counted.reads == {"x", "l", "h"}
        assert all(ev.holds(root, ex, 0) for ex in m.executions)
        changes = sum(1 for ex in m.executions for j in range(len(ex) + 1)
                      if j == 0 or ex.trace_ids[j] != ex.trace_ids[j - 1]
                      or ex.stores[j]["x"] != ex.stores[j - 1]["x"])
        assert ev.calls == changes < m.point_count


MASK_DOMAINS = [pytest.param(dom, id=dom.spec()) for dom in
                (Domain.booleans(), Domain.integers(3), Domain.integers(4, signed=True))]


class TestRunMasks:
    """The model's run masks, built from the enumeration order, and
    ``have``, built per behaviour, equal the ones ORed in run by run."""

    PROGRAMS = ["out l == h", "l := h; release r; out l; out k",
                "release r; if l == h then { release s } else { skip }; out l"]

    @pytest.mark.parametrize("text", PROGRAMS)
    @pytest.mark.parametrize("dom", MASK_DOMAINS)
    def test_masks_match_the_per_run_construction(self, dom, text):
        m = build_model(parse(text, dom), ModelConfig(dom))
        runs_from = {n: {} for n in m.variables}
        have = [0] * len(m.trace_parents)
        for ex in m.executions:
            bit = 1 << ex.index
            for name, by_value in runs_from.items():
                value = ex.stores[0][name]
                by_value[value] = by_value.get(value, 0) | bit
            for tid in ex.trace_ids:
                have[tid] |= bit
        ev = evaluation(m)
        assert m.runs_from == runs_from
        assert ev.have == have


def evaluation(m, kind=Evaluation):
    """An evaluation bound to the model ``m``."""
    return kind(m.program, m.domain).bind(m)


class CountingEvaluation(Evaluation):
    """Counts the evaluations of one plan."""

    counted = None
    calls = 0

    def holds(self, p, ex, i):
        if p is self.counted:
            self.calls += 1
        return super().holds(p, ex, i)


def first_failing_run(m, f):
    """The first run, in run order, at whose start the reference says the
    formula fails; None when it holds at every run."""
    memo: dict = {}
    return next((ex for ex in m.executions if not oracles.holds(m, f, ex, 0, memo=memo)), None)


class TestClassesAndClosedParts:
    """The root is asked once per class of runs, closed subformulas are
    folded while planning, and a forall block whose guard only binds asks
    its body once: the answers stay the reference's, at every point and in
    the verdict and witness."""

    # closed parts of every kind: goals, a folded atom beside an open one,
    # a constant guard conjunct, and ones that fold the whole formula
    CLOSED = [
        "l == h W true",
        "l == h U false",
        "(tt == ff) || l == h",
        "(tt == tt) && F init(h, l)",
        "G (false -> K (l == h)) && (init(l, h) U (tt == tt))",
        "!(l == h -> true) || L (l == h W (tt == ff))",
        "(tt == ff) U false",
        "(tt == tt) U false || (tt == tt) W (tt == ff) && F (l == h)",
        "G (forall v . (init(h, v) && (tt == tt)) -> L (l == v))",
        "forall v . ((tt == ff) && init(h, v)) -> K (l == v)",
        "forall a . forall b . (a == b && (tt) == tt) -> L (init(l, a) && init(h, b))",
        "exists v . F (l == v) && (true U init(h, v))",
    ]

    @pytest.mark.parametrize("text", CLOSED)
    def test_closed_parts_agree_with_the_reference(self, text):
        f = parse_formula(text)
        models = random_models(2, seed=51) + random_models(2, seed=52, domain=INT4, size=4)
        for index, m in enumerate(models + shared_behaviour_models()):
            agrees_at_every_point(m, f, seed=index)
            verdict = model_satisfies(m, f)
            failing = first_failing_run(m, f)
            assert verdict.holds == (failing is None)
            if failing is not None:
                assert dict(verdict.witness.stores[0][1]) == failing.init_store

    def test_closed_parts_fold_while_planning(self):
        m = random_models(1, seed=51)[0]
        ev = evaluation(m)
        folded = [ev.compile(parse_formula(text)) for text in (
            "l == h W true", "(tt == ff) U (tt == tt)", "!(l == h -> true)",
            "(tt == ff) && K (l == h)", "L ((tt == ff) || true)")]
        assert [p.args for p in folded] == [True, True, False, False, True]
        assert all(p.compute is Evaluation._constant for p in folded)
        # a scan is folded only for its goal: the others stay constant scans
        for text in ("(tt == tt) U false", "true W false", "G (tt) == tt"):
            p = ev.compile(parse_formula(text))
            assert p.constant and p.compute is not Evaluation._constant
        # an open kid keeps its node, over the kids left
        p = ev.compile(parse_formula("(tt == ff) || l == h || (tt == ff)"))
        assert p.compute is Evaluation._or and len(p.kids) == 1
        # a closed atom in a guard is a filter, never a key
        p = ev.compile(parse_formula("forall a . ((tt) == ff && a == l) -> L init(l, a)"))
        assert len(p.args.filters) == 1 and p.args.filters[0].compute is Evaluation._constant

    def test_witness_stops_at_a_folded_node(self):
        # false decides the conjunction wherever G's scan would fail, so the
        # witness is the run's first point, where the conjunction is false
        dom = Domain.integers(4)
        m = build_model(parse("x := 0; x := 1; out x", dom), ModelConfig(dom))
        for text in ("G (x == 0) && false", "!(F (x == 1) || true)"):
            verdict = model_satisfies(m, parse_formula(text))
            assert verdict.outcome is Outcome.FAILS
            assert verdict.witness.stores == (("initial", (("x", 0),)),)
            assert verdict.witness.point_index == 0

    def test_payment_policy_drops_the_goals_that_always_fire(self):
        # when: true ==> cost > max fires at once, so every W whose goal
        # waits for it holds: four of the eight conjuncts fold away
        dom = Domain.integers(4)
        program = parse((Path(__file__).parents[1] / "samples" / "payment.wout").read_text(), dom)
        fs = FlowSpec.from_low(program, ("paid", "note", "max"))
        tds = [TemporalDeclassification(parse_expression(c), pred(e, dom)) for c, e in
               (("true", "cost > max"), ("cost <= max", "cost"), ("paid >= cost", "data"))]
        f = encode_aktd(fs, tds, dom)
        root = evaluation(build_model(program, ModelConfig(dom))).compile(f)
        assert len(f.children) == 8 and len(root.kids) == 4

    def test_binder_only_blocks_ask_their_body_once(self):
        program, m = loop_model()
        f = encode_akd(FlowSpec.from_low(program, ["l"]), (pred("h", INT4),), INT4)
        ev = evaluation(m)
        premise = ev.compile(f).kids[0]
        assert premise.compute is Evaluation._bound
        assert premise.args.binders == (("l'", "l"), ("x'", "x"), ("h'", "h"))
        for text in ("forall v . init(h, v) -> F (l == v)",
                     "G (forall v . forall w . (init(h, v) && init(l, w)) -> K (v == w || l == v))"):
            plan = ev.compile(parse_formula(text))
            assert (plan.kids[0] if isinstance(plan.formula, G) else plan).compute \
                is Evaluation._bound
            agrees_at_every_point(m, parse_formula(text))

    def test_the_root_is_asked_once_per_class(self):
        # c7-secure at int:8 with hash 3v mod 8: 4,096 runs, but the root
        # reads the flag rh at the start, which clones of the dead x share,
        # and the initial in, l and h: 512 classes
        full, f = c7_akr()
        ev = CountingEvaluation(full.program, full.domain)
        ev.counted = root = ev.compile(f)
        m = build_model(full.program, full.cfg, ev.reads)
        assert model_satisfies(m, f, ev).outcome is Outcome.HOLDS
        assert root.reads == {"rh"} and root.inits == {"in", "l", "h"}
        classes = {(id(ex.trace_ids), id(ex.stores), ex.init_store["in"], ex.init_store["l"],
                    ex.init_store["h"]) for ex in m.executions}
        assert len(m.executions) == 4096 and ev.calls == len(classes) == 512

    # roots that read the store at the start, and the dead k's initial value
    STORE_ROOTS = [
        "l == h W K (l == h)",
        "init(k, 1) || G (l != h || L init(h, l))",
        "(l == h || init(k, 0)) U (forall v . init(h, v) -> L (init(h, v) && l == h))",
    ]

    @pytest.mark.parametrize("keep_all", [False, True], ids=["shared-lists", "laid-lists"])
    def test_store_reading_roots_over_clones(self, keep_all):
        # k is written first, so it is dead: its clones share their first
        # run's store list when the model keeps only what the formula
        # reads, and lay k over it when the model keeps everything
        cfg = FuzzConfig(seed=7, domain=INT4, loops=True, ident_count=3)
        outcomes = set()
        for index in range(6):
            program, _ = generate_case("nitd-aktd", index, cfg)
            program = program_from_body(Seq(Assign("k", Const(0)), program.body))
            for text in self.STORE_ROOTS:
                f = parse_formula(text)
                ev = Evaluation(program, cfg.domain)
                assert ev.compile(f).reads
                m = build_model(program, ModelConfig(cfg.domain, bound=cfg.bound),
                                None if keep_all else ev.reads)
                lists = len({id(ex.stores) for ex in m.executions})
                assert (lists == len(m.executions)) == keep_all
                verdict = model_satisfies(m, f, ev)
                failing = first_failing_run(m, f)
                outcomes.add(verdict.outcome)
                assert verdict.holds == (failing is None), (index, text)
                if failing is not None:
                    assert dict(verdict.witness.stores[0][1]) == failing.init_store
        assert outcomes == {Outcome.HOLDS, Outcome.FAILS}


class TestFormulaChecks:
    """Formulas get the identifier, operator and literal checks programs get."""

    def test_unknown_identifier(self, copy_out_model):
        with pytest.raises(LogicError, match="unknown identifier 'z'"):
            model_satisfies(copy_out_model, G(Eq(Var("z"), Const(True))))

    def test_unknown_init_subject(self, copy_out_model):
        with pytest.raises(LogicError, match="'z'"):
            model_satisfies(copy_out_model, Forall("v", Init("z", Var("v"))))

    def test_domain_of_literals_and_operators(self, copy_out_model):
        for text in ("G (y == 7)", "(x < tt) == tt"):
            with pytest.raises(LogicError):
                model_satisfies(copy_out_model, parse_formula(text))

    def test_binder_naming_an_unknown_identifier(self, copy_out_model):
        # a guard's binder is not planned, but its identifier is checked
        f = Forall("v", Implies(Init("z", Var("v")), Tt()))
        with pytest.raises(LogicError) as err:
            model_satisfies(copy_out_model, f)
        assert str(err.value) == "init names unknown identifier 'z'"

    def test_one_expression_at_two_scopes(self):
        # v == y is valid under a binder of v, and names an unknown v outside
        # it: whichever use is planned first, the one outside is refused
        program = parse("x := y; out y", INT4)
        m = build_model(program, ModelConfig(INT4))
        inside = Forall("v", Implies(Init("x", Var("v")), Eq(Var("v"), Var("y"))))
        for f in (And((inside, G(Eq(Var("v"), Var("y"))))),
                  And((G(Eq(Var("v"), Var("y"))), inside))):
            with pytest.raises(LogicError) as err:
                model_satisfies(m, f)
            assert str(err.value) == "formula atom 'v': unknown identifier 'v'"
        assert model_satisfies(m, And((inside, G(Eq(Var("x"), Var("y")))))).outcome \
            is Outcome.FAILS

    def test_bound_names_are_known(self, copy_out_model):
        f = Forall("v", Implies(Init("y", Var("v")), Eq(Var("v"), Var("y"))))
        verdict = model_satisfies(copy_out_model, f)
        assert verdict.outcome is Outcome.HOLDS


class TestFormulaSyntax:
    def test_parse_spec_surface(self):
        f = parse_formula("G (forall v . init(y, v) -> L init(y, v))")
        assert f == G(Forall("v", Implies(Init("y", Var("v")), L(Init("y", Var("v"))))))

    def test_until_and_weak_until(self):
        f = parse_formula("x == 0 U y == 1")
        assert isinstance(f, Until)
        f = parse_formula("x == 0 W y == 1")
        assert isinstance(f, W)

    def test_comparison_atom_via_parentheses(self):
        f = parse_formula("(x < y) == tt")
        assert isinstance(f, Eq)

    def test_inequality_atom(self):
        f = parse_formula("x != y")
        assert f == Not(Eq(Var("x"), Var("y")))

    def test_precedence_of_connectives(self):
        f = parse_formula("x == 0 && y == 0 || z == 0")
        assert isinstance(f, Or)
        assert isinstance(f.children[0], And)

    def test_roundtrip_through_source(self):
        text = "forall v . init(x, v) -> (L (init(x, v) && init(y, v)) U x == y)"
        f = parse_formula(text)
        again = parse_formula(formula_to_source(f))
        assert f == again

    def test_primed_names(self):
        f = parse_formula("forall h' . forall h'' . init(h, h') -> L init(h, h'')")
        assert f == Forall("h'", Forall("h''", Implies(Init("h", Var("h'")),
                                                       L(Init("h", Var("h''"))))))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["ak", "akd", "aak", "akr", "aktd"]), st.integers(0, 2**32),
           st.sampled_from([BOOL, INT4, Domain.integers(4, signed=True)]))
    def test_encoded_formulas_read_back(self, encoder, seed, dom):
        f = encoded(encoder, random.Random(seed), dom)
        assert parse_formula(formula_to_source(f, dom)) == f, formula_to_source(f, dom)

    def test_comparison_sides_round_trip(self):
        ge = Binary(">=", Var("h"), Const(0))
        lt = Binary("<", Var("l"), Var("h"))
        formulas = [
            Eq(ge, Binary(">=", Var("l"), Const(0))),
            Not(Eq(lt, Const(True))),
            Eq(Var("x"), Binary("!=", Var("l"), Var("h"))),
            Eq(Binary("&&", Var("x"), Var("y")), Binary("||", Var("y"), lt)),
            Eq(Unary("!", Var("x")), Var("y")),
            Forall("v", Implies(Eq(Binary("<", Var("v"), Var("h")), Var("b")),
                                K(Eq(lt, Binary("==", Var("v"), Const(1)))))),
            G(Until(Eq(ge, Const(True)), L(Eq(Const(False), Binary("<=", Var("h"), Var("l")))))),
        ]
        for f in formulas:
            assert parse_formula(formula_to_source(f)) == f, formula_to_source(f)


def encoded(encoder, rng, dom):
    """The encoder's formula for a generated program and policy."""
    flags = ("r1", "r2")[:rng.randint(1, 2)] if encoder == "akr" else ()
    cfg = FuzzConfig(count=1, size=6, ident_count=rng.randint(1, 3), domain=dom)
    program = generate_program(rng, cfg, release_flags=flags)
    names = program.variables
    fs = FlowSpec.from_low(program, [n for n in names if rng.random() < 0.5])

    def expr(depth):
        return _gen_expr(rng, names, dom, depth)

    def predicate(depth):
        return InitPredicate.from_expression(expr(depth), dom)

    match encoder:
        case "ak":
            return encode_ak(fs, dom)
        case "akd":
            return encode_akd(fs, [predicate(2) for _ in range(rng.randint(1, 2))], dom)
        case "aak":
            fs = FlowSpec.from_low(program, fs.low or names[:1])
            eta, phi, rho = (rng.choice(_abstractions_for(dom)) for _ in range(3))
            return encode_aak(program, fs, eta, phi, rho, dom)[1]
        case "akr":
            return encode_akr(fs, ReleaseSpec(tuple((f, expr(2)) for f in program.flags)), dom)
        case "aktd":
            return encode_aktd(fs, [TemporalDeclassification(expr(1), predicate(1))
                                    for _ in range(rng.randint(0, 2))], dom)
