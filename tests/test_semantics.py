import ast
import random
from pathlib import Path

import pytest

from conftest import SWEEP_IDS, SWEEPS, declassified, exec_from
from oracles import release_failure, temporal_failure
import epiflow
from epiflow.domain import Domain
from epiflow.fuzz import FuzzConfig, generate_case, generate_program
from epiflow.lang import (Assign, Const, Seq, Var, While, parse, parse_expression,
                          program_from_body)
from epiflow.model import ModelConfig, Status, build_model
from epiflow.policyfile import Policy, judged_model, policy_pieces, run_check
from epiflow.policies import (FlowSpec, InitPredicate, PolicyError,
                              ReleaseSpec, TemporalDeclassification, condition_ids)
from epiflow.semantics import _produces, check_nitd, knowledge_set, required_set
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
    """oni is nitd with no condition."""

    def test_echoing_a_public_value_holds(self, copy_out_model):
        fs = FlowSpec.from_low(copy_out_model.program, ["y"])
        assert check_nitd(copy_out_model, fs, ()).outcome is Outcome.HOLDS

    def test_echoing_a_secret_fails_with_pair(self, copy_out_model):
        fs = FlowSpec.from_low(copy_out_model.program, ["x"])
        verdict = check_nitd(copy_out_model, fs, ())
        assert verdict.outcome is Outcome.FAILS
        # the run from (tt, tt) outputs tt at point 2; (tt, ff) never does
        assert verdict.witness.kind == "temporal"
        assert verdict.witness.store("observed") == {"x": True, "y": True}
        assert verdict.witness.store("partner") == {"x": True, "y": False}
        assert (verdict.witness.point_index, verdict.witness.trace) == (2, (True,))

    def test_silent_program_holds(self):
        m = build_model(parse("skip", BOOL), ModelConfig(BOOL))
        assert check_nitd(m, FlowSpec((), ()), ()).outcome is Outcome.HOLDS

    def test_diverging_model_refused(self):
        m = build_model(parse("while tt do { skip }", BOOL), ModelConfig(BOOL))
        assert check_nitd(m, FlowSpec((), ()), ()).outcome is Outcome.BOUND_EXCEEDED


@pytest.fixture(scope="module")
def zero_model():
    return build_model(
        parse("if h == 0 then { out 1 } else { out 2 }", INT4),
        ModelConfig(INT4))


class TestNid:
    """nid is nitd with ``when: true ==> e`` for each ``declassify: e``."""

    def test_matching_declassification_holds(self, zero_model):
        fs = FlowSpec.from_low(zero_model.program, [])
        assert check_nitd(zero_model, fs, declassified(pred("h == 0", INT4))).outcome \
            is Outcome.HOLDS

    def test_coarser_declassification_fails(self, zero_model):
        fs = FlowSpec.from_low(zero_model.program, [])
        assert check_nitd(zero_model, fs, declassified(pred("h >= 0", INT4))).outcome \
            is Outcome.FAILS

    def test_true_declassification_reduces_to_oni(self, copy_out_model):
        fs = FlowSpec.from_low(copy_out_model.program, ["x"])
        nid = check_nitd(copy_out_model, fs, declassified(pred("tt", BOOL)))
        oni = check_nitd(copy_out_model, fs, ())
        assert nid.outcome is oni.outcome is Outcome.FAILS
        assert nid.witness == oni.witness

    def test_equality_of_secrets(self):
        m = build_model(
            parse("if h1 then { out !h2 } else { out h2 }", BOOL),
            ModelConfig(BOOL))
        fs = FlowSpec.from_low(m.program, [])
        assert check_nitd(m, fs, declassified(pred("h1 == h2", BOOL))).outcome \
            is Outcome.HOLDS


class TestNani:
    """nani is nid over the model of the runs' abstracted results, with
    nothing public and eta and phi as the declassified predicates."""

    INT8S = Domain.integers(8, signed=True)

    @staticmethod
    def nani(text, dom, low, eta, phi, rho):
        policy = Policy("nani", low=low, eta=eta, phi=phi, rho=rho)
        return run_check(parse(text, dom), policy, ModelConfig(dom)).verdict

    def test_parity_of_result_is_stable_within_sign_class(self):
        verdict = self.nani("if h >= 0 then { l := 2*l*h } else { l := 2*l*h + 1 }",
                            self.INT8S, ("l",), "Id", "Sign", "Par")
        assert verdict.outcome is Outcome.HOLDS

    def test_deceptive_flow_detected(self):
        verdict = self.nani("l := 2*l*h*h", self.INT8S, ("l",), "Par", "Id", "Sign")
        assert verdict.outcome is Outcome.FAILS
        # the first run whose result's sign another run with equal parity
        # of l and equal h never gives: its trace is that one result
        assert verdict.witness.kind == "temporal"
        assert verdict.witness.stores == (("observed", (("l", -4), ("h", -3))),
                                          ("partner", (("l", -2), ("h", -3))))
        assert (verdict.witness.point_index, verdict.witness.trace) == (1, (1,))

    def test_identity_abstractions_trivially_hold(self):
        verdict = self.nani("l := l * h + 1; k := l", INT4, ("l", "k"), "Id", "Id", "Id")
        assert verdict.outcome is Outcome.HOLDS

    def test_expression_abstraction(self):
        verdict = self.nani("l := h", INT4, ("l",), "Id", "h mod 2", "l mod 2")
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
    """The required set of ``release: r = e`` entries, each read as the
    condition ``when: r ==> e``."""

    RS = ReleaseSpec((("r1", Var("h1")), ("r2", Var("h2"))))

    def test_before_any_release(self, two_release_model):
        m = two_release_model
        fs = FlowSpec.from_low(m.program, ["l"])
        s0 = {"l": True, "h1": True, "h2": False}
        required = required_set(m, fs, self.RS.conditions(BOOL), s0, ())
        assert required == knowledge_set(m, fs, s0, ())

    def test_after_first_output(self, two_release_model):
        m = two_release_model
        fs = FlowSpec.from_low(m.program, ["l"])
        s0 = {"l": True, "h1": True, "h2": False}
        required = required_set(m, fs, self.RS.conditions(BOOL), s0, (True,))
        assert required == stores({(True, True, True), (True, True, False)})

    def test_without_the_first_release(self):
        program = parse("l := h1; out l; l := h2; release r2; out l", BOOL)
        m = build_model(program, ModelConfig(BOOL))
        fs = FlowSpec.from_low(program, ["l"])
        rs = ReleaseSpec((("r2", Var("h2")),))
        s0 = {"l": True, "h1": True, "h2": False}
        required = required_set(m, fs, rs.conditions(BOOL), s0, (True,))
        assert required == stores({(True, a, b)
                                   for a in (True, False) for b in (True, False)})

    def test_no_releases_on_a_model_that_keeps_nothing(self):
        # with nothing released the release set is every low-equal store,
        # and no per-point store is read
        program = parse("l := h1; out l; l := h2; release r2; out l", BOOL)
        m = build_model(program, ModelConfig(BOOL), frozenset())
        fs = FlowSpec.from_low(program, ["l"])
        s0 = {"l": True, "h1": True, "h2": False}
        required = required_set(m, fs, (), s0, (True,))
        assert required == stores({(True, a, b)
                                   for a in (True, False) for b in (True, False)})

    def test_trace_not_from_this_store_rejected(self, two_release_model):
        m = two_release_model
        fs = FlowSpec.from_low(m.program, ["l"])
        s0 = {"l": True, "h1": False, "h2": False}
        with pytest.raises(PolicyError, match="never observed"):
            required_set(m, fs, self.RS.conditions(BOOL), s0, (True,))


class TestRequiredSets:
    """``knowledge`` reads every condition of a policy.  Every prefix of a
    run's trace starts an epoch block, the points nitd's search visits, so
    some run has a prefix whose required set is not within its knowledge
    set exactly when the trace check fails."""

    @pytest.mark.parametrize("cfg", SWEEPS, ids=SWEEP_IDS)
    @pytest.mark.parametrize("pair", ["oni-ak", "nid-akd", "nani-aak", "nitd-aktd", "akr-er"])
    def test_some_prefix_is_insecure_exactly_when_the_check_fails(self, pair, cfg):
        outcomes = set()
        for index in range(min(cfg.count, 50)):
            program, policy = generate_case(pair, index, cfg)
            pieces = policy_pieces(policy, program, cfg.domain)
            fs, conditions = pieces["fs"], pieces["conditions"]
            # nani's: the model of the runs' results
            m = judged_model(program, ModelConfig(cfg.domain, bound=cfg.bound),
                             condition_ids(conditions), pieces)
            outcome = check_nitd(m, fs, conditions).outcome
            outcomes.add(outcome)
            insecure = any(
                not required_set(m, fs, conditions, ex.init_store, trace)
                <= knowledge_set(m, fs, ex.init_store, trace)
                for ex in m.executions
                for full in [m.trace_tuple(ex.trace_ids[len(ex)])]
                for trace in (full[:cut] for cut in range(len(full) + 1)))
            assert insecure == (outcome is Outcome.FAILS), index
        assert outcomes == {Outcome.HOLDS, Outcome.FAILS}

    def test_an_unconditional_declassification_releases_from_the_start(self):
        # ``when: true ==> h`` on a model that keeps nothing per point
        m = build_model(parse("out h", BOOL), ModelConfig(BOOL), frozenset())
        fs = FlowSpec.from_low(m.program, [])
        td = TemporalDeclassification(Const(True), pred("h", BOOL))
        s0 = {"h": True}
        assert required_set(m, fs, (td,), s0, ()) == stores({(True,)})
        assert required_set(m, fs, (), s0, ()) == stores({(True,), (False,)})


class TestEpistemicRelease:
    """er is nitd with ``when: r ==> e`` for each ``release: r = e``."""

    def test_release_before_each_output_is_secure(self, two_release_model):
        fs = FlowSpec.from_low(two_release_model.program, ["l"])
        rs = ReleaseSpec((("r1", Var("h1")), ("r2", Var("h2"))))
        assert check_nitd(two_release_model, fs, rs.conditions(BOOL)).outcome is Outcome.HOLDS

    def test_missing_release_detected_at_first_output(self):
        program = parse("l := h1; out l; l := h2; release r2; out l", BOOL)
        m = build_model(program, ModelConfig(BOOL))
        fs = FlowSpec.from_low(program, ["l"])
        rs = ReleaseSpec((("r2", Var("h2")),))
        verdict = check_nitd(m, fs, rs.conditions(BOOL))
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
        assert check_nitd(m, FlowSpec.from_low(secure, fs_low), rs.conditions(dom)).outcome \
            is Outcome.HOLDS
        leaky = parse(base + "; out (x mod 3)", dom)
        m2 = build_model(leaky, ModelConfig(dom))
        assert check_nitd(m2, FlowSpec.from_low(leaky, fs_low), rs.conditions(dom)).outcome \
            is Outcome.FAILS

    WITNESS_CASES = {
        "two-release-r1": ("l := h1; release r1; out l; l := h2; release r2; out l",
                           BOOL, ("l",), (("r1", "h1"),)),
        "two-release-r2": ("l := h1; release r1; out l; l := h2; release r2; out l",
                           BOOL, ("l",), (("r2", "h2"),)),
        "c7-leaky": ("x := hash(h); if (x mod 2) == in then { l := 0 } "
                     "else { l := 1 }; release rh; out l; out (x mod 3)",
                     Domain.integers(8, hash_table=tuple(3 * v % 8 for v in range(8))),
                     ("in", "l"), (("rh", "(hash(h) mod 2) == in"),)),
    }

    @pytest.mark.parametrize("case", WITNESS_CASES)
    def test_witness_is_nitds_on_the_same_flags(self, case):
        # er is nitd with ``when: r ==> e`` for each ``release: r = e``
        text, dom, low, items = self.WITNESS_CASES[case]
        program = parse(text, dom)
        er, nitd = (run_check(program, Policy(check, low, **{key: items}),
                              ModelConfig(dom)).verdict
                    for check, key in (("er", "releases"), ("nitd", "whens")))
        assert er.outcome is Outcome.FAILS
        assert er.witness == nitd.witness


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
        # the first run whose output another low-equal run never gives
        m = build_model(parse("if h == 0 then { out 1 } else { out 2 }", INT4),
                        ModelConfig(INT4))
        fs = FlowSpec.from_low(m.program, [])
        nitd = check_nitd(m, fs, ())
        assert nitd.outcome is Outcome.FAILS
        w = nitd.witness
        assert (w.store("observed"), w.point_index, w.store("partner"), w.trace) \
            == ({"h": 0}, 2, {"h": 1}, (1,))
        assert temporal_failure(m, fs, ()) == (0, 2, 1, (1,))

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
    """Every trace check is nitd over the policy's conditions, which scans
    the first run of each class of runs, at its epoch-block starts only;
    the references visit every position of every run and every low-equal
    partner.  er's reference reads the release flags themselves."""

    INT4_3IDS = FuzzConfig(seed=7, domain=INT4, loops=True, ident_count=3)
    # a fuzzed program reads each identifier first, so has no dead input;
    # ``dead`` names one written before anything else runs
    CASES = {
        "bool": (FuzzConfig(seed=11), None),
        "int4-loops": (FuzzConfig(seed=29, domain=INT4, loops=True), None),
        "signed-3ids": (FuzzConfig(seed=5, domain=Domain.integers(4, signed=True),
                                   loops=True, ident_count=3), None),
        "int4-3ids-loops": (INT4_3IDS, None),
        "int4-3ids-loops-dead-k": (INT4_3IDS, "k"),
    }
    PAIRS = ("akr-er", "nitd-aktd")

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("pair", PAIRS)
    def test_outcome_and_witness_match_the_reference(self, case, pair):
        # every identifier kept at every point, so a clone's store list is
        # its own: its dead value is laid over its first run's stores
        self.compare(*self.CASES[case], pair, lambda pieces: None)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("pair", PAIRS + ("oni-ak", "nid-akd"))
    def test_on_models_that_keep_what_the_check_reads(self, case, pair):
        # as ``run_check`` builds them: a clone that keeps no dead input
        # shares its first run's store list, and oni's and nid's models
        # keep no store per point
        cfg, dead = self.CASES[case]
        models = self.compare(cfg, dead, pair,
                              lambda pieces: condition_ids(pieces["conditions"]))
        if dead and pair in self.PAIRS:
            assert any(len({id(ex.stores) for ex in m.executions}) < len(m.executions)
                       for m in models if m.kept)

    @staticmethod
    def compare(cfg, dead, pair, keep) -> list:
        outcomes, models = set(), []
        for index in range(40):
            program, policy = generate_case(pair, index, cfg)
            if dead:
                program = program_from_body(Seq(Assign(dead, Const(0)), program.body))
            pieces = policy_pieces(policy, program, cfg.domain)
            m = build_model(program, ModelConfig(cfg.domain, bound=cfg.bound), keep(pieces))
            models.append(m)
            verdict = check_nitd(m, pieces["fs"], pieces["conditions"])
            if pair == "akr-er":
                expected = release_failure(m, pieces["fs"], ReleaseSpec(tuple(
                    (flag, parse_expression(e)) for flag, e in policy.releases)))
            else:
                expected = temporal_failure(m, pieces["fs"], pieces["conditions"])
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
        return models
