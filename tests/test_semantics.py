import ast
import random
from pathlib import Path

import pytest

from conftest import exec_from
from oracles import release_failure, temporal_failure
import epiflow
from epiflow.domain import Domain
from epiflow.fuzz import FuzzConfig, generate_case, generate_program
from epiflow.lang import (Const, Var, While, parse, parse_expression,
                          program_from_body)
from epiflow.model import ModelConfig, Status, build_model
from epiflow.policyfile import policy_pieces
from epiflow.policies import (FlowSpec, InitPredicate, PolicyError,
                              ReleaseSpec, TemporalDeclassification)
from epiflow.semantics import (_produces, check_er, check_nani, check_nid,
                               check_nitd, check_oni, knowledge_set, release_set)
from epiflow.verdicts import Outcome

BOOL = Domain.booleans()
INT4 = Domain.integers(4)


def pred(text, dom):
    return InitPredicate.from_expression(parse_expression(text), dom)


def stores(values):
    return frozenset(values)


def imported(module: str) -> set[str]:
    """The parts of every module name ``module`` imports, anywhere in its
    source (function-level imports included)."""
    tree = ast.parse(Path(epiflow.__file__).with_name(f"{module}.py").read_text())
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # from .x import y imports x, or x.y when y is a module
            names.add(node.module or "")
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    return {part for name in names for part in name.split(".")}


class TestIndependentReadings:
    """The trace reading is an oracle for the epistemic one only while
    neither reading uses the other's code."""

    @pytest.mark.parametrize("module, other", [("semantics", "logic"),
                                               ("logic", "semantics")])
    def test_neither_reading_imports_the_other(self, module, other):
        assert "model" in imported(module)  # the walk sees the imports
        assert other not in imported(module)


class TestOni:
    def test_echoing_a_public_value_holds(self, copy_out_model):
        fs = FlowSpec.from_low(copy_out_model.program, ["y"])
        assert check_oni(copy_out_model, fs).outcome is Outcome.HOLDS

    def test_echoing_a_secret_fails_with_pair(self, copy_out_model):
        fs = FlowSpec.from_low(copy_out_model.program, ["x"])
        verdict = check_oni(copy_out_model, fs)
        assert verdict.outcome is Outcome.FAILS
        first = verdict.witness.store("first")
        second = verdict.witness.store("second")
        assert first == {"x": True, "y": True}
        assert second == {"x": True, "y": False}

    def test_silent_program_holds(self):
        m = build_model(parse("skip", BOOL), ModelConfig(BOOL))
        assert check_oni(m, FlowSpec((), ())).outcome is Outcome.HOLDS

    def test_diverging_model_refused(self):
        m = build_model(parse("while tt do { skip }", BOOL), ModelConfig(BOOL))
        assert check_oni(m, FlowSpec((), ())).outcome is Outcome.BOUND_EXCEEDED


@pytest.fixture(scope="module")
def zero_model():
    return build_model(
        parse("if h == 0 then { out 1 } else { out 2 }", INT4),
        ModelConfig(INT4))


class TestNid:

    def test_matching_declassification_holds(self, zero_model):
        fs = FlowSpec.from_low(zero_model.program, [])
        assert check_nid(zero_model, fs, pred("h == 0", INT4)).outcome \
            is Outcome.HOLDS

    def test_coarser_declassification_fails(self, zero_model):
        fs = FlowSpec.from_low(zero_model.program, [])
        assert check_nid(zero_model, fs, pred("h >= 0", INT4)).outcome \
            is Outcome.FAILS

    def test_true_declassification_reduces_to_oni(self, copy_out_model):
        fs = FlowSpec.from_low(copy_out_model.program, ["x"])
        nid = check_nid(copy_out_model, fs, pred("tt", BOOL))
        oni = check_oni(copy_out_model, fs)
        assert nid.outcome is oni.outcome is Outcome.FAILS

    def test_equality_of_secrets(self):
        m = build_model(
            parse("if h1 then { out !h2 } else { out h2 }", BOOL),
            ModelConfig(BOOL))
        fs = FlowSpec.from_low(m.program, [])
        assert check_nid(m, fs, pred("h1 == h2", BOOL)).outcome is Outcome.HOLDS


class TestNani:
    INT8S = Domain.integers(8, signed=True)

    def test_parity_of_result_is_stable_within_sign_class(self):
        program = parse("if h >= 0 then { l := 2*l*h } else { l := 2*l*h + 1 }",
                        self.INT8S)
        fs = FlowSpec.from_low(program, ["l"])
        verdict = check_nani(build_model(program, ModelConfig(self.INT8S)), fs,
                             "Id", "Sign", "Par")
        assert verdict.outcome is Outcome.HOLDS

    def test_deceptive_flow_detected(self):
        program = parse("l := 2*l*h*h", self.INT8S)
        fs = FlowSpec.from_low(program, ["l"])
        verdict = check_nani(build_model(program, ModelConfig(self.INT8S)), fs,
                             "Par", "Id", "Sign")
        assert verdict.outcome is Outcome.FAILS

    def test_identity_abstractions_trivially_hold(self):
        program = parse("l := l * h + 1; k := l", INT4)
        fs = FlowSpec.from_low(program, ["l", "k"])
        verdict = check_nani(build_model(program, ModelConfig(INT4)), fs, "Id", "Id", "Id")
        assert verdict.outcome is Outcome.HOLDS

    def test_expression_abstraction(self):
        program = parse("l := h", INT4)
        fs = FlowSpec.from_low(program, ["l"])
        rho = parse_expression("l mod 2")
        verdict = check_nani(build_model(program, ModelConfig(INT4)), fs, "Id",
                             parse_expression("h mod 2"), rho)
        assert verdict.outcome is Outcome.HOLDS


class TestKnowledgeSets:
    def test_empty_trace_gives_all_low_equal_stores(self, two_release_model):
        m = two_release_model
        fs = FlowSpec.from_low(m.program, ["l"])
        s0 = {"l": True, "h1": True, "h2": False}
        knowledge = knowledge_set(m, fs, s0, ())
        assert knowledge == stores({(True, a, b)
                                    for a in (True, False) for b in (True, False)})

    def test_first_output_narrows_to_released_secret(self, two_release_model):
        m = two_release_model
        fs = FlowSpec.from_low(m.program, ["l"])
        s0 = {"l": True, "h1": True, "h2": False}
        knowledge = knowledge_set(m, fs, s0, (True,))
        assert knowledge == stores({(True, True, True), (True, True, False)})

    def test_unrealizable_trace_is_empty(self, two_release_model):
        m = two_release_model
        fs = FlowSpec.from_low(m.program, ["l"])
        s0 = {"l": True, "h1": True, "h2": False}
        assert knowledge_set(m, fs, s0, (True, True, True)) == frozenset()

    def test_knowledge_never_grows_along_a_run(self, two_release_model):
        m = two_release_model
        fs = FlowSpec.from_low(m.program, ["l"])
        for ex in m.executions:
            s0 = ex.init_store
            full = m.trace_tuple(ex.trace_ids[len(ex)])
            previous = None
            for cut in range(len(full) + 1):
                current = knowledge_set(m, fs, s0, full[:cut])
                if previous is not None:
                    assert current <= previous
                previous = current


class TestReleaseSets:
    RS = ReleaseSpec((("r1", Var("h1")), ("r2", Var("h2"))))

    def test_before_any_release(self, two_release_model):
        m = two_release_model
        fs = FlowSpec.from_low(m.program, ["l"])
        s0 = {"l": True, "h1": True, "h2": False}
        required = release_set(m, fs, self.RS, s0, ())
        assert required == knowledge_set(m, fs, s0, ())

    def test_after_first_output(self, two_release_model):
        m = two_release_model
        fs = FlowSpec.from_low(m.program, ["l"])
        s0 = {"l": True, "h1": True, "h2": False}
        required = release_set(m, fs, self.RS, s0, (True,))
        assert required == stores({(True, True, True), (True, True, False)})

    def test_without_the_first_release(self):
        program = parse("l := h1; out l; l := h2; release r2; out l", BOOL)
        m = build_model(program, ModelConfig(BOOL))
        fs = FlowSpec.from_low(program, ["l"])
        rs = ReleaseSpec((("r2", Var("h2")),))
        s0 = {"l": True, "h1": True, "h2": False}
        required = release_set(m, fs, rs, s0, (True,))
        assert required == stores({(True, a, b)
                                   for a in (True, False) for b in (True, False)})

    def test_trace_not_from_this_store_rejected(self, two_release_model):
        m = two_release_model
        fs = FlowSpec.from_low(m.program, ["l"])
        s0 = {"l": True, "h1": False, "h2": False}
        with pytest.raises(PolicyError, match="never observed"):
            release_set(m, fs, self.RS, s0, (True,))


class TestEpistemicRelease:
    def test_release_before_each_output_is_secure(self, two_release_model):
        fs = FlowSpec.from_low(two_release_model.program, ["l"])
        rs = ReleaseSpec((("r1", Var("h1")), ("r2", Var("h2"))))
        assert check_er(two_release_model, fs, rs).outcome is Outcome.HOLDS

    def test_missing_release_detected_at_first_output(self):
        program = parse("l := h1; out l; l := h2; release r2; out l", BOOL)
        m = build_model(program, ModelConfig(BOOL))
        fs = FlowSpec.from_low(program, ["l"])
        rs = ReleaseSpec((("r2", Var("h2")),))
        verdict = check_er(m, fs, rs)
        assert verdict.outcome is Outcome.FAILS
        assert len(verdict.witness.trace) == 1

    def test_hash_check_released_but_not_its_remainder(self):
        dom = Domain.integers(8)
        base = ("x := hash(h); if (x mod 2) == in then { l := 0 } "
                "else { l := 1 }; release rh; out l")
        fs_low = ["in", "l"]
        rs = ReleaseSpec((("rh", parse_expression("(hash(h) mod 2) == in")),))
        secure = parse(base, dom)
        m = build_model(secure, ModelConfig(dom))
        assert check_er(m, FlowSpec.from_low(secure, fs_low), rs).outcome \
            is Outcome.HOLDS
        leaky = parse(base + "; out (x mod 3)", dom)
        m2 = build_model(leaky, ModelConfig(dom))
        assert check_er(m2, FlowSpec.from_low(leaky, fs_low), rs).outcome \
            is Outcome.FAILS


class TestNitd:
    def test_payment_example(self):
        dom = INT4
        program = parse(
            'paid := 0;'
            'note := 2 * (note mod 2) + 1;'
            'while paid < cost do { paid := paid + note };'
            'if cost > max then { out "ok" } else { out paid };'
            'out data', dom)
        m = build_model(program, ModelConfig(dom))
        fs = FlowSpec.from_low(program, ["paid", "note", "max"])
        tds = (
            TemporalDeclassification(parse_expression("true"),
                                     pred("cost > max", dom)),
            TemporalDeclassification(parse_expression("cost <= max"),
                                     pred("cost", dom)),
            TemporalDeclassification(parse_expression("paid >= cost"),
                                     pred("data", dom)),
        )
        assert check_nitd(m, fs, tds).outcome is Outcome.HOLDS

    def test_no_declassifications_reduce_to_oni(self):
        m = build_model(parse("if h == 0 then { out 1 } else { out 2 }", INT4),
                        ModelConfig(INT4))
        fs = FlowSpec.from_low(m.program, [])
        nitd = check_nitd(m, fs, ())
        oni = check_oni(m, fs)
        assert nitd.outcome is oni.outcome is Outcome.FAILS

    def test_unconditional_declassification_of_the_output(self):
        m = build_model(parse("out h", BOOL), ModelConfig(BOOL))
        fs = FlowSpec.from_low(m.program, [])
        td = TemporalDeclassification(parse_expression("tt"), pred("h", BOOL))
        assert check_nitd(m, fs, (td,)).outcome is Outcome.HOLDS


class TestRunMembership:
    @pytest.mark.parametrize("dom", [BOOL, INT4], ids=["bool", "int4"])
    def test_bisection_agrees_with_the_set_of_trace_ids(self, dom):
        cfg = FuzzConfig(seed=17, count=1, size=8, ident_count=2, domain=dom,
                         loops=True)
        statuses = set()
        for index in range(24):
            program = generate_program(random.Random(f"member:{index}"), cfg)
            if index % 4 == 3:
                program = program_from_body(While(Const(True), program.body))
            m = build_model(program, ModelConfig(dom, (3, 12, 10_000)[index % 3],
                                                 termination_output=index % 2 == 0))
            for ex in m.executions:
                statuses.add(ex.status)
                visited = set(ex.trace_ids)
                for tid in range(len(m.trace_parents)):
                    assert _produces(ex, tid) == (tid in visited)
        assert statuses == set(Status)


class TestAgainstPerPointReferences:
    """er and nitd visit only epoch-block starts; the references visit every
    position of every run and every low-equal partner."""

    CONFIGS = (
        FuzzConfig(seed=11),
        FuzzConfig(seed=29, domain=INT4, loops=True),
        FuzzConfig(seed=5, domain=Domain.integers(4, signed=True), loops=True,
                   ident_count=3),
    )

    @pytest.mark.parametrize("cfg", CONFIGS, ids=("bool", "int4-loops", "signed-3ids"))
    @pytest.mark.parametrize("pair", ("akr-er", "nitd-aktd"))
    def test_outcome_and_witness_match_the_reference(self, cfg, pair):
        outcomes = set()
        for index in range(40):
            program, policy = generate_case(pair, index, cfg)
            pieces = policy_pieces(policy, program, cfg.domain)
            m = build_model(program, ModelConfig(cfg.domain, bound=cfg.bound))
            if pair == "akr-er":
                verdict = check_er(m, pieces["fs"], pieces["releases"])
                expected = release_failure(m, pieces["fs"], pieces["releases"])
            else:
                verdict = check_nitd(m, pieces["fs"], pieces["whens"])
                expected = temporal_failure(m, pieces["fs"], pieces["whens"])
            outcomes.add(verdict.outcome)
            if expected is None:
                assert verdict.outcome is Outcome.HOLDS, index
                continue
            assert verdict.outcome is Outcome.FAILS, index
            w = verdict.witness
            run, partner = (m.exec_by_values[m.values_of(dict(items))].index
                            for _, items in w.stores)
            assert (run, w.point_index, partner, w.trace) == expected, index
        assert outcomes == {Outcome.HOLDS, Outcome.FAILS}
