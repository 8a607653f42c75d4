import itertools
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import oracles
from conftest import SWEEP_IDS, SWEEPS, abstract_pair, declassified
from epiflow.domain import Domain
from epiflow.fuzz import FuzzConfig, generate_case, generate_program
from epiflow.lang import Binary, Const, Out, Seq, Var, parse, parse_expression
from epiflow.logic import (And, Eq, Evaluation, Forall, G, Implies, Init, K, L, Not, W,
                           model_satisfies, satisfies)
from epiflow.model import ModelConfig, Point, build_model
from epiflow.policyfile import (Policy, judged_model, load_policy, policy_pieces,
                                run_both_sides)
from epiflow.policies import (FlowSpec, InitPredicate, PolicyError,
                              ReleaseSpec, TemporalDeclassification, condition_ids,
                              encode_aktd, primed)
from epiflow.semantics import check_nitd
from oracles import esp, espm
from epiflow.verdicts import Outcome

BOOL = Domain.booleans()
INT4 = Domain.integers(4)
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


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
    """The paper's esp, which ``oracles`` builds for the encoder to be
    compared with."""

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
    """The paper's espm, as ``oracles`` builds it, and the production
    encoder's espm for one declassification."""

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
        # the alternatives h'' that must stay possible agree with h' on h == 0;
        # declassified from the start, it is one espm, for good
        dom = Domain.integers(2)
        f = encode_aktd(FlowSpec(("l",), ("h",)), declassified(pred("h == 0", dom)), dom)

        def zero(name):
            return Binary("==", Var(name), Const(0))

        expected = Forall("l'", Forall("h'", Implies(
            And((Init("l", Var("l'")), Init("h", Var("h'")))),
            Forall("h''", Implies(
                Eq(zero("h'"), zero("h''")),
                L(And((Init("l", Var("l'")), Init("h", Var("h''"))))))))))
        assert f == G(expected)
        assert expected == espm(("l",), ("h",), (pred("h == 0", dom),), dom)

    def test_predicate_over_unknown_identifier(self):
        with pytest.raises(PolicyError, match="neither"):
            encode_aktd(FlowSpec(("l",), ("h",)), declassified(pred("k == 0", INT4)), INT4)


class UngroupedEvaluation(Evaluation):
    """Solves every guard with ``oracles.guard_solutions``: the whole
    product, grouped by nothing, once per value of every other bound
    variable."""

    def _solutions(self, block, ex, i):
        others = tuple((v, x) for v, x in self.env.items() if v not in block.vars)
        found = self.solved.get((block, others))
        if found is None:
            found = self.solved[block, others] = oracles.guard_solutions(
                self.domain, [plan.formula for plan in block.pure], block.solve, self.env)
        return found


class TestAgreementGuard:
    @pytest.mark.parametrize("cfg", SWEEPS, ids=SWEEP_IDS)
    def test_same_verdicts_and_witnesses_as_the_whole_product(self, cfg):
        # espm's agreement guard, solved by grouping the alternatives by
        # their declassified values, admits the alternatives, in the order,
        # that trying every one of them does, on the fuzzer's aak and akd
        # cases
        outcomes = set()
        for pair, index in itertools.product(("nani-aak", "nid-akd"), range(cfg.count)):
            program, policy = generate_case(pair, index, cfg)
            pieces = policy_pieces(policy, program, cfg.domain)
            f = encode_aktd(pieces["fs"], pieces["conditions"], cfg.domain)
            ev = Evaluation(program, cfg.domain)
            ev.compile(f)
            m = judged_model(program, ModelConfig(cfg.domain, bound=cfg.bound), ev.reads, pieces)
            hashed = model_satisfies(m, f, ev)
            whole = model_satisfies(m, f, UngroupedEvaluation(program, cfg.domain))
            assert (hashed.outcome, hashed.witness) == (whole.outcome, whole.witness), \
                (pair, index)
            outcomes.add(hashed.outcome)
        assert {Outcome.HOLDS, Outcome.FAILS} <= outcomes


class TestAbsenceOfKnowledge:
    """ak is aktd with no condition."""

    def test_warmup_holds_with_x_high(self, copy_out_model):
        fs = FlowSpec.from_low(copy_out_model.program, ["y"])
        v = model_satisfies(copy_out_model, encode_aktd(fs, (), BOOL))
        assert v.outcome is Outcome.HOLDS

    def test_implicit_flow_fails(self):
        m = build_model(parse("if h == 0 then { out 1 } else { out 2 }", INT4),
                        ModelConfig(INT4))
        fs = FlowSpec.from_low(m.program, [])
        assert model_satisfies(m, encode_aktd(fs, (), INT4)).outcome is Outcome.FAILS

    def test_silent_program_holds(self):
        m = build_model(parse("skip", BOOL), ModelConfig(BOOL))
        fs = FlowSpec.from_low(m.program, [])
        assert model_satisfies(m, encode_aktd(fs, (), BOOL)).outcome is Outcome.HOLDS

    @pytest.mark.parametrize("cfg", SWEEPS, ids=SWEEP_IDS)
    def test_same_verdicts_and_witnesses_as_the_papers_formula(self, cfg):
        # G esp, which quantifies only the public premise: the witness
        # names the same run, point and alternative, and the encoder's
        # bindings add the secret premise values
        outcomes = set()
        for index in range(100):
            program, policy = generate_case("oni-ak", index, cfg)
            fs = policy_pieces(policy, program, cfg.domain)["fs"]
            m = build_model(program, ModelConfig(cfg.domain, bound=cfg.bound))
            got = model_satisfies(m, encode_aktd(fs, (), cfg.domain))
            paper = model_satisfies(m, oracles.ak_formula(fs, cfg.domain))
            assert got.outcome is paper.outcome, index
            if paper.witness is not None:
                assert replace(got.witness, bindings=()) == replace(paper.witness, bindings=())
                assert set(paper.witness.bindings) <= set(got.witness.bindings), index
                assert {v for v, _ in got.witness.bindings} \
                    - {v for v, _ in paper.witness.bindings} == {primed(n) for n in fs.high}
            outcomes.add(got.outcome)
        assert outcomes == {Outcome.HOLDS, Outcome.FAILS}


@pytest.fixture(scope="module")
def zero_test_model():
    return build_model(parse("if h == 0 then { out 1 } else { out 2 }", INT4),
                       ModelConfig(INT4))


class TestDeclassification:

    def test_declassifying_the_branch_predicate(self, zero_test_model):
        fs = FlowSpec.from_low(zero_test_model.program, [])
        f = encode_aktd(fs, declassified(pred("h == 0", INT4)), INT4)
        assert model_satisfies(zero_test_model, f).outcome is Outcome.HOLDS

    def test_weaker_declassification_fails_with_witness(self, zero_test_model):
        fs = FlowSpec.from_low(zero_test_model.program, [])
        f = encode_aktd(fs, declassified(pred("h >= 0", INT4)), INT4)
        verdict = model_satisfies(zero_test_model, f)
        assert verdict.outcome is Outcome.FAILS
        assert verdict.witness.binding_map == {"h'": 0, "h''": 1}

    def test_true_predicate_collapses_to_plain_ak(self):
        for m in models_for(8, seed=25):
            fs = FlowSpec.from_low(m.program, m.variables[:1])
            with_true = model_satisfies(m, encode_aktd(fs, declassified(pred("tt", BOOL)), BOOL))
            plain = model_satisfies(m, encode_aktd(fs, (), BOOL))
            assert with_true.outcome is plain.outcome

    @pytest.mark.parametrize("cfg", SWEEPS, ids=SWEEP_IDS)
    def test_same_verdicts_and_witnesses_as_the_papers_formula(self, cfg):
        # each declassify: entry is when: true ==> e, which has fired from
        # the start: the encoder asks one espm, as the paper's G espm does
        outcomes = set()
        for index in range(100):
            program, policy = generate_case("nid-akd", index, cfg)
            pieces = policy_pieces(policy, program, cfg.domain)
            fs, conditions = pieces["fs"], pieces["conditions"]
            m = build_model(program, ModelConfig(cfg.domain, bound=cfg.bound))
            got = model_satisfies(m, encode_aktd(fs, conditions, cfg.domain))
            paper = model_satisfies(m, oracles.akd_formula(
                fs, [td.declassified for td in conditions], cfg.domain))
            assert (got.outcome, got.witness) == (paper.outcome, paper.witness), index
            outcomes.add(got.outcome)
        assert outcomes == {Outcome.HOLDS, Outcome.FAILS}


class TestAbstractKnowledge:
    INT8S = Domain.integers(8, signed=True)

    def test_sign_parity_program_secure(self):
        program = parse("if h >= 0 then { l := 2*l*h } else { l := 2*l*h + 1 }",
                        self.INT8S)
        f, m = abstract_pair(program, self.INT8S, ("l",), "Id", "Sign", "Par")
        assert model_satisfies(m, f).outcome is Outcome.HOLDS
        # each run shows one silent point, then the parity of its public result
        assert {len(ex) for ex in m.executions} == {1}
        assert {e for ex in m.executions for e in ex.events} == {0, 1}

    def test_deceptive_flow_fails(self):
        program = parse("l := 2*l*h*h", self.INT8S)
        f, m = abstract_pair(program, self.INT8S, ("l",), "Par", "Id", "Sign")
        assert model_satisfies(m, f).outcome is Outcome.FAILS

    def test_identity_abstractions_match_nani(self):
        dom = Domain.integers(4, signed=True)
        cfg = ModelConfig(dom)
        for seed in range(6):
            program = generate_program(
                random.Random(f"aak:{seed}"),
                FuzzConfig(seed=1, count=1, size=5, ident_count=2, domain=dom))
            policy = Policy("nani", program.variables[:1], eta="Id", phi="Id", rho="Id")
            nani, aak = run_both_sides(program, policy, cfg)
            assert nani.verdict.outcome is aak.verdict.outcome

    def test_eta_id_pins_public_inputs(self):
        # with public inputs pinned exactly, the deceptive flow is invisible
        program = parse("l := 2*l*h*h", self.INT8S)
        f, m = abstract_pair(program, self.INT8S, ("l",), "Id", "Id", "Sign")
        assert model_satisfies(m, f).outcome is Outcome.HOLDS


class TestRelease:
    def test_two_release_program_holds(self, two_release_model):
        m = two_release_model
        fs = FlowSpec.from_low(m.program, ["l"])
        rs = ReleaseSpec((("r1", Var("h1")), ("r2", Var("h2"))))
        assert model_satisfies(m, encode_aktd(fs, rs.conditions(BOOL), BOOL)).outcome is Outcome.HOLDS

    def test_missing_first_release_fails(self):
        program = parse("l := h1; out l; l := h2; release r2; out l", BOOL)
        m = build_model(program, ModelConfig(BOOL))
        fs = FlowSpec.from_low(program, ["l"])
        rs = ReleaseSpec((("r2", Var("h2")),))
        verdict = model_satisfies(m, encode_aktd(fs, rs.conditions(BOOL), BOOL))
        assert verdict.outcome is Outcome.FAILS
        assert verdict.witness.trace == (True,) or verdict.witness.trace == (False,)

    def test_empty_release_spec_equals_plain_ak(self):
        for m in models_for(8, seed=26):
            fs = FlowSpec.from_low(m.program, m.variables[:1])
            empty = model_satisfies(m, encode_aktd(fs, ReleaseSpec(()).conditions(BOOL), BOOL))
            plain = model_satisfies(m, oracles.ak_formula(fs, BOOL))
            assert empty.outcome is plain.outcome

    @pytest.mark.parametrize("cfg", SWEEPS, ids=SWEEP_IDS)
    def test_same_verdicts_and_witnesses_as_the_papers_formula(self, cfg):
        # akr is aktd with its release flags as the conditions; on the
        # fuzzer's akr-er cases it gives the verdict and witness of the
        # paper's G of (flags = S -> espm(S)) over every set S of flags
        outcomes = set()
        for index in range(cfg.count):
            program, policy = generate_case("akr-er", index, cfg)
            pieces = policy_pieces(policy, program, cfg.domain)
            fs, conditions = pieces["fs"], pieces["conditions"]
            rs = ReleaseSpec(tuple((flag, parse_expression(e)) for flag, e in policy.releases))
            m = build_model(program, ModelConfig(cfg.domain, bound=cfg.bound),
                            condition_ids(conditions))
            got = model_satisfies(m, encode_aktd(fs, conditions, cfg.domain))
            paper = model_satisfies(m, oracles.akr_formula(fs, rs, cfg.domain))
            assert (got.outcome, got.witness) == (paper.outcome, paper.witness), index
            outcomes.add(got.outcome)
        assert outcomes == {Outcome.HOLDS, Outcome.FAILS}

    def test_powerset_cap(self):
        items = tuple((f"r{i}", Var("h")) for i in range(7))
        with pytest.raises(PolicyError, match="capped"):
            encode_aktd(FlowSpec(("l",), ("h",)), ReleaseSpec(items).conditions(BOOL), BOOL)


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
            plain = model_satisfies(m, oracles.ak_formula(fs, BOOL))
            assert empty.outcome is plain.outcome

    def test_weak_until_shape(self):
        fs = FlowSpec(("l",), ("h",))
        td = TemporalDeclassification(Var("l"), pred("h", BOOL))
        f = encode_aktd(fs, (td,), BOOL)
        # espm until l fires, and espm modulo h for good
        assert isinstance(f, And) and len(f.children) == 2
        assert isinstance(f.children[0], W) and isinstance(f.children[1], G)

    def test_a_condition_fired_from_the_start_joins_every_subset(self):
        # when: true ==> e leaves one espm, modulo e, for good; a subset
        # without it would hold at once
        fs = FlowSpec(("l",), ("h",))
        always = TemporalDeclassification(Const(True), pred("h", BOOL))
        assert encode_aktd(fs, (always,), BOOL) == G(espm(("l",), ("h",), (always.declassified,),
                                                          BOOL))
        # seven of them are not capped: nid and akd read any number of
        # declassify: entries
        f = encode_aktd(fs, (always,) * 7, BOOL)
        assert isinstance(f, G)

    def test_conjuncts_share_one_espm_scaffold(self):
        # payment's three declassifications, the first on ``true``, give 4
        # conjuncts, one per subset of the other two, whose espm instances
        # differ only in their agreement guards: one premise and one
        # possibility serve them all, the first declassification's
        # agreement joins every guard, an evaluation plans the possibility
        # and its atoms once, and the premise's atoms, which only bind
        # quantified values, never
        program = parse((SAMPLES / "payment.wout").read_text(), INT4)
        pieces = policy_pieces(load_policy(SAMPLES / "payment.pol"), program, INT4)
        f = encode_aktd(pieces["fs"], pieces["conditions"], INT4)
        parts = [espm_parts(c.lhs if isinstance(c, W) else c.child) for c in f.children]
        assert len(parts) == 4
        (premise,) = {id(p): p for p, _, _ in parts}.values()
        (possible,) = {id(p): p for _, _, p in parts}.values()
        guards = [agree for _, agree, _ in parts]
        assert isinstance(guards[0], Eq) and len({id(g) for g in guards}) == 4
        assert all(any(a is guards[0] for a in g.children) for g in guards[1:])
        ev = Evaluation(program, INT4)
        ev.compile(f)
        planned = Counter(id(node) for node, _ in ev.plans.values())
        assert planned[id(possible)] == 1
        assert all(planned[id(a)] == 1 for a in possible.child.children)
        assert not any(planned[id(a)] for a in premise.children)

    @pytest.mark.parametrize("cfg", SWEEPS, ids=SWEEP_IDS)
    def test_same_verdicts_and_witnesses_as_an_unshared_encoding(self, cfg):
        # aktd with one espm scaffold and one agreement per declassification
        # judges the fuzzer's nitd-aktd cases as aktd with a fresh espm per
        # subset (akr, aktd over its release flags, is compared with the
        # paper's formula above)
        outcomes = set()
        for index in range(cfg.count):
            program, policy = generate_case("nitd-aktd", index, cfg)
            pieces = policy_pieces(policy, program, cfg.domain)
            tds = pieces["conditions"]
            m = build_model(program, ModelConfig(cfg.domain, bound=cfg.bound), condition_ids(tds))
            shared = model_satisfies(m, encode_aktd(pieces["fs"], tds, cfg.domain))
            fresh = model_satisfies(m, oracles.aktd_formula(pieces["fs"], tds, cfg.domain))
            assert (shared.outcome, shared.witness) == (fresh.outcome, fresh.witness), index
            outcomes.add(shared.outcome)
        assert {Outcome.HOLDS, Outcome.FAILS} <= outcomes


def espm_parts(f):
    """The premise, the agreement guard (None when there is none) and the
    possibility of an espm formula."""
    while isinstance(f, Forall):
        f = f.body
    premise, f = f.lhs, f.rhs
    while isinstance(f, Forall):
        f = f.body
    if isinstance(f, Implies):
        return premise, f.lhs, f.rhs
    return premise, None, f
