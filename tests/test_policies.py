import random

import pytest

from epiflow.domain import Domain
from epiflow.fuzz import FuzzConfig, generate_program
from epiflow.lang import Binary, Const, Out, Seq, Var, parse, parse_expression
from epiflow.logic import (And, Eq, Forall, G, Implies, Init, K, L, Not, W,
                           model_satisfies, satisfies)
from epiflow.model import ModelConfig, Point, build_model
from epiflow.policies import (FlowSpec, InitPredicate, PolicyError,
                              ReleaseSpec, TemporalDeclassification,
                              encode_ak, encode_akd, encode_aak, encode_akr,
                              encode_aktd, esp, espm)
from epiflow.semantics import check_nani, check_nitd, check_oni
from epiflow.verdicts import Outcome

BOOL = Domain.booleans()
INT4 = Domain.integers(4)


def models_for(count, seed, domain=BOOL, ident_count=2, size=6):
    cfg = FuzzConfig(seed=seed, count=1, size=size, ident_count=ident_count,
                     domain=domain)
    out = []
    for index in range(count):
        program = generate_program(random.Random(f"pol:{seed}:{index}"), cfg)
        out.append(build_model(program, ModelConfig(domain)))
    return out


def points_of(model):
    for ex in model.executions:
        for i in range(len(ex) + 1):
            yield Point(ex, i)


def pred(text, dom):
    return InitPredicate.from_expression(parse_expression(text), dom)


class TestFlowSpec:
    def test_split_follows_signature_order(self):
        program = parse("x := y; out z")
        fs = FlowSpec.from_low(program, ["z", "x"])
        assert fs.low == ("x", "z")
        assert fs.high == ("y",)

    def test_unknown_low_identifier(self):
        program = parse("x := y")
        with pytest.raises(PolicyError):
            FlowSpec.from_low(program, ["w"])

    def test_flags_never_in_the_split(self):
        program = parse("release r; out x")
        fs = FlowSpec.from_low(program, ["x"])
        assert fs.high == ()


class TestEspShape:
    def test_warmup_formula_shape(self):
        program = parse("x := y; out y")
        fs = FlowSpec.from_low(program, ["y"])
        f = esp(fs, BOOL)
        expected = Forall("y'", Implies(
            Init("y", Var("y'")),
            Forall("x''", L(And((Init("y", Var("y'")), Init("x", Var("x''"))))))))
        assert f == expected

    def test_warmup_two_by_two_expansion(self, copy_out_model):
        fs = FlowSpec.from_low(copy_out_model.program, ["y"])

        def arm(v):
            possible = And(tuple(
                Not(K(Not(And((Init("y", Const(v)), Init("x", Const(u)))))))
                for u in (True, False)))
            return Not(And((Init("y", Const(v)), Not(possible))))

        expanded = And((arm(True), arm(False)))
        for pt in points_of(copy_out_model):
            assert satisfies(copy_out_model, pt, esp(fs, BOOL)) == \
                satisfies(copy_out_model, pt, expanded)

    def test_empty_high_side(self):
        program = parse("out l")
        fs = FlowSpec.from_low(program, ["l"])
        f = esp(fs, BOOL)
        expected = Forall("l'", Implies(Init("l", Var("l'")),
                                        L(Init("l", Var("l'")))))
        assert f == expected
        # a possibility at the very same point: tautological on any model
        for m in models_for(4, seed=21, ident_count=1):
            fs_m = FlowSpec.from_low(m.program, m.variables)
            assert model_satisfies(m, G(esp(fs_m, BOOL))).outcome is Outcome.HOLDS

    def test_empty_low_side(self):
        program = parse("out h")
        fs = FlowSpec.from_low(program, [])
        f = esp(fs, BOOL)
        expected = Forall("h''", L(Init("h", Var("h''"))))
        assert f == expected


class TestEspmProperties:
    def test_empty_predicate_set_matches_esp(self):
        for m in models_for(10, seed=22):
            names = m.variables
            fs = FlowSpec.from_low(m.program, names[:1])
            plain = esp(fs, BOOL)
            modulo = espm(fs.low, fs.high, (), BOOL)
            for pt in points_of(m):
                assert satisfies(m, pt, plain) == satisfies(m, pt, modulo)

    def test_monotone_in_the_predicate_set(self):
        rng = random.Random(23)
        for m in models_for(10, seed=23):
            names = m.variables
            fs = FlowSpec.from_low(m.program, names[:1])
            base = [pred(f"{rng.choice(names)} == tt", BOOL)]
            extra = base + [pred(f"{rng.choice(names)} != tt", BOOL)]
            small = espm(fs.low, fs.high, base, BOOL)
            large = espm(fs.low, fs.high, extra, BOOL)
            for pt in points_of(m):
                if satisfies(m, pt, small):
                    assert satisfies(m, pt, large)

    def test_esp_subsumes_espm(self):
        for m in models_for(8, seed=24):
            fs = FlowSpec.from_low(m.program, m.variables[:1])
            plain = esp(fs, BOOL)
            modulo = espm(fs.low, fs.high, (pred("h == tt", BOOL),), BOOL)
            for pt in points_of(m):
                if satisfies(m, pt, plain):
                    assert satisfies(m, pt, modulo)

    def test_alternatives_grouped_by_agreement_class(self):
        # the alternatives h'' that must stay possible agree with h' on h == 0
        dom = Domain.integers(2)
        f = espm(("l",), ("h",), (pred("h == 0", dom),), dom)

        def zero(name):
            return Binary("==", Var(name), Const(0))

        expected = Forall("l'", Forall("h'", Implies(
            And((Init("l", Var("l'")), Init("h", Var("h'")))),
            Forall("h''", Implies(
                Eq(zero("h'"), zero("h''")),
                L(And((Init("l", Var("l'")), Init("h", Var("h''"))))))))))
        assert f == expected

    def test_predicate_over_unknown_identifier(self):
        with pytest.raises(PolicyError, match="neither"):
            espm(("l",), ("h",), (pred("k == 0", INT4),), INT4)


class TestAbsenceOfKnowledge:
    def test_warmup_holds_with_x_high(self, copy_out_model):
        fs = FlowSpec.from_low(copy_out_model.program, ["y"])
        v = model_satisfies(copy_out_model, encode_ak(fs, BOOL))
        assert v.outcome is Outcome.HOLDS

    def test_implicit_flow_fails(self):
        m = build_model(parse("if h == 0 then { out 1 } else { out 2 }", INT4),
                        ModelConfig(INT4))
        fs = FlowSpec.from_low(m.program, [])
        assert model_satisfies(m, encode_ak(fs, INT4)).outcome is Outcome.FAILS

    def test_silent_program_holds(self):
        m = build_model(parse("skip", BOOL), ModelConfig(BOOL))
        fs = FlowSpec.from_low(m.program, [])
        assert model_satisfies(m, encode_ak(fs, BOOL)).outcome is Outcome.HOLDS


@pytest.fixture(scope="module")
def zero_test_model():
    return build_model(parse("if h == 0 then { out 1 } else { out 2 }", INT4),
                       ModelConfig(INT4))


class TestDeclassification:

    def test_declassifying_the_branch_predicate(self, zero_test_model):
        fs = FlowSpec.from_low(zero_test_model.program, [])
        f = encode_akd(fs, pred("h == 0", INT4), INT4)
        assert model_satisfies(zero_test_model, f).outcome is Outcome.HOLDS

    def test_weaker_declassification_fails_with_witness(self, zero_test_model):
        fs = FlowSpec.from_low(zero_test_model.program, [])
        f = encode_akd(fs, pred("h >= 0", INT4), INT4)
        verdict = model_satisfies(zero_test_model, f)
        assert verdict.outcome is Outcome.FAILS
        assert verdict.witness.binding_map == {"h'": 0, "h''": 1}

    def test_true_predicate_collapses_to_plain_ak(self):
        for m in models_for(8, seed=25):
            fs = FlowSpec.from_low(m.program, m.variables[:1])
            with_true = model_satisfies(m, encode_akd(fs, pred("tt", BOOL), BOOL))
            plain = model_satisfies(m, encode_ak(fs, BOOL))
            assert with_true.outcome is plain.outcome


class TestAbstractKnowledge:
    INT8S = Domain.integers(8, signed=True)

    def test_sign_parity_program_secure(self):
        program = parse("if h >= 0 then { l := 2*l*h } else { l := 2*l*h + 1 }",
                        self.INT8S)
        fs = FlowSpec.from_low(program, ["l"])
        transformed, f = encode_aak(program, fs, "Id", "Sign", "Par", self.INT8S)
        m = build_model(transformed, ModelConfig(self.INT8S))
        assert model_satisfies(m, f).outcome is Outcome.HOLDS
        # the appended output is the parity of the public result
        assert transformed.body != program.body

    def test_deceptive_flow_fails(self):
        program = parse("l := 2*l*h*h", self.INT8S)
        fs = FlowSpec.from_low(program, ["l"])
        transformed, f = encode_aak(program, fs, "Par", "Id", "Sign", self.INT8S)
        m = build_model(transformed, ModelConfig(self.INT8S))
        assert model_satisfies(m, f).outcome is Outcome.FAILS

    def test_identity_abstractions_match_nani(self):
        dom = Domain.integers(4, signed=True)
        cfg = ModelConfig(dom)
        for seed in range(6):
            program = generate_program(
                random.Random(f"aak:{seed}"),
                FuzzConfig(seed=1, count=1, size=5, ident_count=2, domain=dom),
                allow_out=False)
            fs = FlowSpec.from_low(program, program.variables[:1])
            nani = check_nani(build_model(program, cfg), fs, "Id", "Id", "Id")
            transformed, f = encode_aak(program, fs, "Id", "Id", "Id", dom)
            aak = model_satisfies(build_model(transformed, cfg), f)
            assert nani.outcome is aak.outcome

    def test_eta_id_pins_public_inputs(self):
        # with public inputs pinned exactly, the deceptive flow is invisible
        program = parse("l := 2*l*h*h", self.INT8S)
        fs = FlowSpec.from_low(program, ["l"])
        transformed, f = encode_aak(program, fs, "Id", "Id", "Sign", self.INT8S)
        m = build_model(transformed, ModelConfig(self.INT8S))
        assert model_satisfies(m, f).outcome is Outcome.HOLDS


class TestRelease:
    def test_two_release_program_holds(self, two_release_model):
        m = two_release_model
        fs = FlowSpec.from_low(m.program, ["l"])
        rs = ReleaseSpec((("r1", Var("h1")), ("r2", Var("h2"))))
        assert model_satisfies(m, encode_akr(fs, rs, BOOL)).outcome is Outcome.HOLDS

    def test_missing_first_release_fails(self):
        program = parse("l := h1; out l; l := h2; release r2; out l", BOOL)
        m = build_model(program, ModelConfig(BOOL))
        fs = FlowSpec.from_low(program, ["l"])
        rs = ReleaseSpec((("r2", Var("h2")),))
        verdict = model_satisfies(m, encode_akr(fs, rs, BOOL))
        assert verdict.outcome is Outcome.FAILS
        assert verdict.witness.trace == (True,) or verdict.witness.trace == (False,)

    def test_empty_release_spec_equals_plain_ak(self):
        for m in models_for(8, seed=26):
            fs = FlowSpec.from_low(m.program, m.variables[:1])
            empty = model_satisfies(m, encode_akr(fs, ReleaseSpec(()), BOOL))
            plain = model_satisfies(m, encode_ak(fs, BOOL))
            assert empty.outcome is plain.outcome

    def test_powerset_cap(self):
        items = tuple((f"r{i}", Var("h")) for i in range(7))
        with pytest.raises(PolicyError, match="capped"):
            encode_akr(FlowSpec(("l",), ("h",)), ReleaseSpec(items), BOOL)


class TestTemporal:
    def test_always_declassified_secret_output(self):
        program = parse("out h", BOOL)
        m = build_model(program, ModelConfig(BOOL))
        fs = FlowSpec.from_low(program, [])
        always = TemporalDeclassification(Const(True), pred("h", BOOL))
        f = encode_aktd(fs, (always,), BOOL)
        assert model_satisfies(m, f).outcome is Outcome.HOLDS
        # independent route: the trace-based definition agrees
        assert check_nitd(m, fs, (always,)).outcome is Outcome.HOLDS

    def test_condition_never_met_fails(self):
        program = parse("out h", INT4)
        m = build_model(program, ModelConfig(INT4))
        fs = FlowSpec.from_low(program, [])
        gated = TemporalDeclassification(parse_expression("h == 0"),
                                         pred("h", INT4))
        assert model_satisfies(m, encode_aktd(fs, (gated,), INT4)).outcome \
            is Outcome.FAILS
        assert check_nitd(m, fs, (gated,)).outcome is Outcome.FAILS

    def test_empty_set_equals_plain_ak(self):
        for m in models_for(6, seed=27):
            fs = FlowSpec.from_low(m.program, m.variables[:1])
            empty = model_satisfies(m, encode_aktd(fs, (), BOOL))
            plain = model_satisfies(m, encode_ak(fs, BOOL))
            assert empty.outcome is plain.outcome

    def test_weak_until_shape(self):
        fs = FlowSpec(("l",), ("h",))
        td = TemporalDeclassification(Const(True), pred("h", BOOL))
        f = encode_aktd(fs, (td,), BOOL)
        assert isinstance(f, And) and len(f.children) == 2
        assert all(isinstance(c, W) for c in f.children)
