import gc
import weakref

import pytest

from epiflow.domain import Domain
from epiflow.fuzz import PAIRS
from epiflow.lang import parse
from epiflow.logic import model_satisfies, parse_formula
from epiflow.model import ModelConfig, build_model
from epiflow.policies import PolicyError
from epiflow.policyfile import (CHECKS, EPISTEMIC_CHECKS, SEMANTIC_CHECKS, CheckRun,
                                Policy, parse_policy, run_both_sides, run_check)
from epiflow.verdicts import Outcome

BOOL = Domain.booleans()
INT4 = Domain.integers(4)


class TestParsePolicy:
    def test_minimal(self):
        policy = parse_policy("check: ak\nlow: y\n")
        assert policy.check == "ak"
        assert policy.low == ("y",)

    def test_all_keys(self):
        text = """
        # demo policy
        check: aktd
        low: a, b
        declassify: h == 0
        eta: Id
        phi: Sign
        rho: Par
        release: r1 = h1   # released expression
        when: paid >= cost ==> data
        """
        policy = parse_policy(text)
        assert policy.declassify == ("h == 0",)
        assert policy.releases == (("r1", "h1"),)
        assert policy.whens == (("paid >= cost", "data"),)
        assert (policy.eta, policy.phi, policy.rho) == ("Id", "Sign", "Par")

    def test_unknown_check(self):
        with pytest.raises(PolicyError, match="unknown check"):
            parse_policy("check: nonsense")

    def test_unknown_key(self):
        with pytest.raises(PolicyError, match="unknown key"):
            parse_policy("check: ak\ncolor: blue")

    @pytest.mark.parametrize("key, value", [
        ("check", "ak"), ("low", "h"), ("eta", "Par"), ("phi", "Par"), ("rho", "Par")])
    def test_repeated_key(self, key, value):
        # a second line used to override the first: low became (h,)
        text = f"check: oni\nlow: x\neta: Id\nphi: Id\nrho: Id\n\n{key}: {value}\n"
        with pytest.raises(PolicyError, match=f"policy line 7: repeated key '{key}'"):
            parse_policy(text)

    @pytest.mark.parametrize("line, what", [
        ("declassify: {}", "declassification"),
        ("eta: {}", "eta"),
        ("release: r1 = {}", "release r1"),
        ("when: {} ==> h", "when-condition"),
        ("when: h ==> {}", "declassification"),
    ])
    def test_expression_errors_name_the_line(self, line, what):
        # the entry is not echoed: 201 nested parentheses would fill a screen;
        # the position is within the expression
        deep = "(" * 201 + "h" + ")" * 201
        with pytest.raises(PolicyError) as caught:
            parse_policy("check: akd\nlow: l\n\n" + line.format(deep))
        assert str(caught.value) == (
            f"policy line 4: {what}: 1:201: input nested more than 200 deep")
        with pytest.raises(PolicyError, match=f"^policy line 2: {what}: 1:"):
            parse_policy("check: akd\n" + line.format("h +"))

    def test_missing_check(self):
        with pytest.raises(PolicyError, match="names no check"):
            parse_policy("low: x")

    def test_describe_round_trips_the_surface(self):
        policy = parse_policy("check: akr\nlow: l\nrelease: r1 = h1")
        desc = policy.describe()
        assert desc["check"] == "akr"
        assert desc["release"] == ["r1 = h1"]


class TestCheckTable:
    def test_rows_pair_up(self):
        for name, check in CHECKS.items():
            twin = CHECKS[check.twin]
            assert twin.twin == name
            assert twin.reading != check.reading
            assert twin.needs == check.needs  # both readings accept the same policies
        assert len(PAIRS) == 5
        assert ({frozenset(pair.split("-")) for pair in PAIRS}
                == {frozenset((name, check.twin)) for name, check in CHECKS.items()})

    def test_policy_files_name_exactly_the_table_checks(self):
        assert sorted(EPISTEMIC_CHECKS + SEMANTIC_CHECKS) == sorted(CHECKS)
        for name in CHECKS:
            assert parse_policy(f"check: {name}").check == name
        for name in ("esp", "espm", "AK", "formula", "oni-ak", "ak nid"):
            with pytest.raises(PolicyError, match="unknown check"):
                parse_policy(f"check: {name}")


class TestRunCheck:
    def test_epistemic_and_semantic_dispatch(self):
        program = parse("x := y; out y", BOOL)
        cfg = ModelConfig(BOOL)
        for check in ("ak", "oni"):
            run = run_check(program, Policy(check, low=("y",)), cfg)
            assert run.verdict.outcome is Outcome.HOLDS
        for check in ("ak", "oni"):
            run = run_check(program, Policy(check, low=("x",)), cfg)
            assert run.verdict.outcome is Outcome.FAILS

    def test_akd_requires_declassification(self):
        program = parse("out h", INT4)
        with pytest.raises(PolicyError, match="declassify"):
            run_check(program, Policy("akd"), ModelConfig(INT4))

    def test_aak_requires_abstractions(self):
        program = parse("l := h", INT4)
        with pytest.raises(PolicyError, match="eta"):
            run_check(program, Policy("aak", low=("l",)), ModelConfig(INT4))

    def test_policy_identifier_must_exist(self):
        program = parse("out h", INT4)
        policy = Policy("akd", declassify=("w == 0",))
        with pytest.raises(PolicyError, match="unknown"):
            run_check(program, policy, ModelConfig(INT4))

    def test_release_flag_must_be_released(self):
        program = parse("out h", BOOL)
        policy = Policy("akr", releases=(("r1", "h"),))
        with pytest.raises(PolicyError, match="never released"):
            run_check(program, policy, ModelConfig(BOOL))

    def test_aak_reports_transformed_program(self):
        program = parse("l := h", INT4)
        policy = Policy("aak", low=("l",), eta="Id", phi="Par", rho="Par")
        run = run_check(program, policy, ModelConfig(INT4))
        assert run.model.program is not program
        assert run.verdict.outcome is Outcome.HOLDS

    def test_bound_exceeded_propagates(self):
        program = parse("while tt do { skip }", BOOL)
        run = run_check(program, Policy("ak"), ModelConfig(BOOL))
        assert run.verdict.outcome is Outcome.BOUND_EXCEEDED

    def test_both_sides_agree_on_the_release_example(self):
        program = parse(
            "l := h1; release r1; out l; l := h2; release r2; out l", BOOL)
        policy = Policy("akr", low=("l",),
                        releases=(("r1", "h1"), ("r2", "h2")))
        sem, epi = run_both_sides(program, policy, ModelConfig(BOOL))
        assert sem.check == "er" and epi.check == "akr"
        assert sem.verdict.outcome is epi.verdict.outcome is Outcome.HOLDS


class TestBothSides:
    # valid for every check: every entry is checked whichever check is named
    POLICY = dict(low=("l",), declassify=("h",), eta="Id", phi="Id", rho="Id",
                  releases=(("r1", "h"),), whens=(("l", "h"),))

    @pytest.mark.parametrize("check", EPISTEMIC_CHECKS + SEMANTIC_CHECKS)
    def test_one_model_per_program(self, check, monkeypatch):
        import epiflow.policyfile

        built = []

        def counting(program, cfg):
            built.append(program)
            return build_model(program, cfg)

        monkeypatch.setattr(epiflow.policyfile, "build_model", counting)
        program = parse("l := h; release r1; out l", BOOL)
        sem, epi = run_both_sides(program, Policy(check, **self.POLICY), ModelConfig(BOOL))
        assert sem.verdict.outcome is epi.verdict.outcome
        assert sem.model.program is program
        if check in ("aak", "nani"):
            assert built == [program, epi.model.program]
            assert epi.model.program is not program
        else:
            assert built == [program]
            assert epi.model is sem.model


class TestModelLifetime:
    """A finished check's model is freed by reference counting alone."""

    LOOP = "x := 0; while x < h do { out l; x := x + 1 }; out l + x"

    @pytest.fixture
    def no_cycle_collector(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_models_free_themselves(self, no_cycle_collector):
        program = parse(self.LOOP, INT4)
        cfg = ModelConfig(INT4)

        def policy_check(check):
            return run_check(program, Policy(check, low=("l",), declassify=("h < 2",)), cfg)

        def user_formula():
            # K over an atom that reads the current store
            model = build_model(program, cfg)
            formula = parse_formula("G K (l == x) || F (x == h)")
            return CheckRun("formula", model_satisfies(model, formula), model)

        for make in (lambda: policy_check("akd"), lambda: policy_check("nid"), user_formula):
            run = make()
            model = weakref.ref(run.model)
            del run
            assert model() is None
