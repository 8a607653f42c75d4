import random

import pytest

import oracles
from conftest import exec_from
from epiflow.domain import Domain
from epiflow.fuzz import FuzzConfig, generate_program
from epiflow.lang import Const, Var, parse, parse_expression
from epiflow.logic import (And, Eq, Exists, F, Ff, Forall, G, Implies, Init,
                           K, L, LogicError, Not, Or, Tt, Until, W,
                           formula_identifiers, formula_to_source,
                           model_satisfies, parse_formula, satisfies,
                           struct_eq)
from epiflow.model import ModelConfig, Point, build_model
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
    expected = all(oracles.holds(m, f, ex, 0) for ex in m.executions)
    assert model_satisfies(m, f).holds == expected
    if every_point:
        for pt in all_points(m):
            assert satisfies(m, pt, f) == oracles.holds(m, f, pt.execution, pt.index)


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
            program = generate_program(random.Random(f"aak-ref:{index}"), cfg,
                                       allow_out=False)
            fs = FlowSpec.from_low(program, program.variables[:1])
            eta, phi, rho = (("Sign", "Par", "Par"), ("Par", "Sign", "Sign"))[index % 2]
            transformed, f = encode_aak(program, fs, eta, phi, rho, dom)
            matches_reference(build_model(transformed, ModelConfig(dom)), f)

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

    def test_aktd(self):
        for m in random_models(4, seed=10, ident_count=3):
            a, b, c = m.variables
            fs = FlowSpec.from_low(m.program, (a,))
            tds = (TemporalDeclassification(parse_expression(f"{a} == {b}"), pred(b, BOOL)),
                   TemporalDeclassification(parse_expression("tt"), pred(f"{b} && {c}", BOOL)))
            matches_reference(m, encode_aktd(fs, tds, BOOL))

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

    def test_bound_names_are_known(self, copy_out_model):
        f = Forall("v", Implies(Init("y", Var("v")), Eq(Var("v"), Var("y"))))
        verdict = model_satisfies(copy_out_model, f)
        assert verdict.outcome is Outcome.HOLDS


class TestFormulaSyntax:
    def test_parse_spec_surface(self):
        f = parse_formula("G (forall v . init(y, v) -> L init(y, v))")
        assert struct_eq(
            f, G(Forall("v", Implies(Init("y", Var("v")), L(Init("y", Var("v")))))))

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
        assert struct_eq(f, Not(Eq(Var("x"), Var("y"))))

    def test_precedence_of_connectives(self):
        f = parse_formula("x == 0 && y == 0 || z == 0")
        assert isinstance(f, Or)
        assert isinstance(f.children[0], And)

    def test_roundtrip_through_source(self):
        text = "forall v . init(x, v) -> (L (init(x, v) && init(y, v)) U x == y)"
        f = parse_formula(text)
        again = parse_formula(formula_to_source(f))
        assert struct_eq(f, again)

    def test_free_identifiers(self):
        f = parse_formula("forall v . init(x, v) && y == v")
        assert formula_identifiers(f) == {"x", "y"}
