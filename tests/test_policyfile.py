import gc
import re
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from epiflow.cli import main
from epiflow.domain import Domain
from epiflow.fuzz import PAIRS, FuzzConfig, generate_case
from epiflow.lang import Assign, Const, LangError, Seq, Var, parse, program_from_body
from epiflow.logic import Evaluation, model_satisfies, parse_formula
from epiflow.model import ModelConfig, NotKeptError, build_model, results_model
from epiflow.policies import (FlowSpec, InitPredicate, PolicyError, ReleaseSpec,
                              TemporalDeclassification)
from epiflow.policyfile import (CHECKS, ENTRY_KEYS, EPISTEMIC_CHECKS, EPISTEMIC_OF,
                                SEMANTIC_CHECKS, SEMANTIC_OF, CheckRun, Policy, parse_policy,
                                run_both_sides, run_check)
from epiflow.semantics import check_nitd
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

    def test_aak_reports_the_model_of_its_results(self):
        program = parse("l := h", INT4)
        policy = Policy("aak", low=("l",), eta="Id", phi="Par", rho="Par")
        run = run_check(program, policy, ModelConfig(INT4))
        assert run.model.program is program
        # each run, from (l, h), is one silent point and then the parity of l
        assert [ex.events for ex in run.model.executions] == [
            [h % 2] for _ in INT4.values for h in INT4.values]
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
    # one policy per pair, by its epistemic check, with the entries it reads
    POLICIES = {"ak": dict(low=("l",)),
                "akd": dict(low=("l",), declassify=("h",)),
                "aak": dict(low=("l",), eta="Id", phi="Id", rho="Id"),
                "akr": dict(low=("l",), releases=(("r1", "h"),)),
                "aktd": dict(low=("l",), whens=(("l", "h"),))}

    def test_both_readings_of_a_pair_read_the_same_entries(self):
        for name, check in CHECKS.items():
            twin = CHECKS[check.twin]
            assert (check.reads, check.needs) == (twin.reads, twin.needs), name
            assert set(check.needs) <= set(check.reads) <= set(ENTRY_KEYS), name

    @pytest.mark.parametrize("check", EPISTEMIC_CHECKS + SEMANTIC_CHECKS)
    def test_one_model_per_program(self, check, monkeypatch):
        import epiflow.policyfile

        built, derived = [], []

        def counting(program, cfg, *keep):
            built.append(program)
            return build_model(program, cfg, *keep)

        def counting_results(model, outputs):
            derived.append(model)
            return results_model(model, outputs)

        monkeypatch.setattr(epiflow.policyfile, "build_model", counting)
        monkeypatch.setattr(epiflow.policyfile, "results_model", counting_results)
        program = parse("l := h; release r1; out l", BOOL)
        policy = Policy(check, **self.POLICIES[EPISTEMIC_OF.get(check, check)])
        sem, epi = run_both_sides(program, policy, ModelConfig(BOOL))
        assert sem.verdict.outcome is epi.verdict.outcome
        assert built == [program]
        assert epi.model is sem.model
        assert sem.model.program is program
        # nani and aak judge the runs of the one model through their results
        abstract = check in ("aak", "nani")
        assert len(derived) == abstract
        run_check(program, policy, ModelConfig(BOOL))
        assert built == [program, program]
        assert len(derived) == 2 * abstract


    # the differential sweeps of the CI workflow, every pair in each
    CI_SWEEPS = {
        "bool": FuzzConfig(seed=11),
        "int4-loops": FuzzConfig(seed=29, domain=INT4, loops=True),
        "signed-int4-3ids": FuzzConfig(seed=5, domain=Domain.integers(4, signed=True),
                                       ident_count=3),
        "int4-loops-bound6": FuzzConfig(seed=13, domain=INT4, loops=True, bound=6),
    }

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("sweep", CI_SWEEPS)
    def test_both_witnesses_name_the_same_run_and_point(self, sweep, pair):
        # both readings search the runs in order for the first point that
        # breaks the same conditions, so a failure's trace witness observes
        # the run and point the epistemic witness starts from
        cfg = self.CI_SWEEPS[sweep]
        failed = 0
        for index in range(40):
            program, policy = generate_case(pair, index, cfg)
            sem, epi = run_both_sides(program, policy, ModelConfig(cfg.domain, bound=cfg.bound))
            assert sem.verdict.outcome is epi.verdict.outcome, index
            if sem.verdict.outcome is Outcome.FAILS:
                failed += 1
                trace, epistemic = sem.verdict.witness, epi.verdict.witness
                assert trace.kind == "temporal", index
                assert trace.store("observed") == epistemic.store("initial"), index
                assert trace.point_index == epistemic.point_index, index
                assert trace.trace == epistemic.trace, index
        assert failed, pair


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


class TestClones:
    """Runs that differ only in an input written before it is read are
    recorded once per class, and a clone is listed only when a reading
    reads it: every reading must answer as on the model that simulates
    every run."""

    # the differential sweeps of the tier-1 workflow
    SWEEPS = (
        FuzzConfig(seed=11),
        FuzzConfig(seed=29, domain=INT4, loops=True),
        FuzzConfig(seed=5, pairs=("nani-aak",), domain=Domain.integers(4, signed=True),
                   ident_count=3),
        FuzzConfig(seed=7, pairs=("akr-er", "nitd-aktd"), domain=INT4, ident_count=3,
                   loops=True),
        FuzzConfig(seed=17, pairs=("oni-ak", "nid-akd"), domain=INT4, ident_count=3,
                   loops=True),
        FuzzConfig(seed=13, domain=INT4, loops=True, bound=6),
    )
    LOOP = "x := 0; while x < h do { out l; x := x + 1 }; out l + x"

    @pytest.fixture
    def simulate_every_run(self, monkeypatch):
        """A switch that, while set, makes every input live, so that the
        model builder clones no run."""
        import epiflow.model

        switch, live = [False], epiflow.model.live_inputs
        monkeypatch.setattr(epiflow.model, "live_inputs", lambda program: (
            frozenset(program.variables) if switch[0] else live(program)))
        return switch

    @staticmethod
    def answers(program, policy, cfg) -> list:
        """Each reading's outcome, note, witness and report stats but
        ``points_visited`` and ``cache_hits``, alone and side by side."""
        runs = [run_check(program, replace(policy, check=name), cfg) for name in (
            SEMANTIC_OF.get(policy.check, policy.check),
            EPISTEMIC_OF.get(policy.check, policy.check))]
        runs += run_both_sides(program, policy, cfg)
        return [(run.check, run.verdict.outcome, run.verdict.note, run.verdict.witness,
                 run.verdict.stats.formula_nodes, len(run.model.executions),
                 run.model.point_count, len(run.model.trace_parents)) for run in runs]

    @pytest.mark.parametrize("keep_every_identifier", [False, True], ids=["kept", "all"])
    def test_readings_answer_as_with_every_run_simulated(self, keep_every_identifier,
                                                         simulate_every_run, monkeypatch):
        import epiflow.policyfile

        if keep_every_identifier:
            # a clone's per-point stores are its first run's with its dead
            # value laid over them
            monkeypatch.setattr(epiflow.policyfile, "build_model",
                                lambda program, cfg, keep: build_model(program, cfg))
        built = []
        monkeypatch.setattr(epiflow.policyfile, "build_model", lambda *args, build=(
            epiflow.policyfile.build_model): built.append(build(*args)) or built[-1])
        for cfg in self.SWEEPS:
            model_cfg = ModelConfig(cfg.domain, bound=cfg.bound)
            for pair in cfg.pairs:
                for index in range(8):
                    fuzzed, policy = generate_case(pair, index, cfg)
                    value = Const(cfg.domain.values[index % len(cfg.domain.values)])
                    # a fuzzed program reads every input first: write one
                    # before anything else runs, so that it is dead
                    for name in fuzzed.variables:
                        program = program_from_body(Seq(Assign(name, value), fuzzed.body))
                        simulate_every_run[0] = False
                        answers = self.answers(program, policy, model_cfg)
                        simulate_every_run[0] = True
                        assert self.answers(program, policy, model_cfg) == answers, (
                            pair, index, name)
        # half the builds simulate every run; of the others, all but those
        # with a run cut by the bound clone some run
        cloned = [m for m in built if len(m.classes) < len(m.runs)]
        assert len(cloned) > len(built) // 3
        # some reading left a clone unlisted, and some listed one
        assert any(None in m.runs for m in cloned)
        assert any(len(m.runs) - m.runs.count(None) > len(m.classes) for m in cloned)

    @pytest.mark.parametrize("check, declassify", [("ak", ()), ("oni", ()), ("akd", ("h",)),
                                                    ("nid", ("h",))])
    def test_the_loop_program_lists_no_clone(self, check, declassify, simulate_every_run):
        # x is dead, and no reading reads it: each of the 16 classes of
        # (h, l) has 4 runs, 3 of them clones never listed
        program = parse(self.LOOP, INT4)
        policy = Policy(check, low=("l",), declassify=declassify)
        m = run_check(program, policy, ModelConfig(INT4)).model
        assert (len(m.classes), m.runs.count(None)) == (16, 48)
        simulate_every_run[0] = True
        every = run_check(program, policy, ModelConfig(INT4)).model
        assert (len(every.classes), every.runs.count(None)) == (64, 0)
        assert (len(m.executions), m.point_count) == (len(every.executions), every.point_count)
        assert m.runs.count(None) == 48

    C7 = "x := hash(h); if (x mod 2) == in then { l := 0 } else { l := 1 }; release rh; out l"
    HASHED4 = Domain.integers(4, hash_table=(1, 2, 3, 0))

    @pytest.mark.parametrize("leak", ["", "; out (x mod 3)"], ids=["secure", "leaky"])
    @pytest.mark.parametrize("policy", [
        Policy("er", ("in", "l"), releases=(("rh", "(hash(h) mod 2) == in"),)),
        Policy("nitd", ("in", "l"), whens=(("rh", "(hash(h) mod 2) == in"),)),
        Policy("nid", ("in", "l"), declassify=("(hash(h) mod 2) == in",)),
        Policy("oni", ("in", "l")),
    ], ids=lambda policy: policy.check)
    def test_a_dead_low_input_makes_no_clone_in_the_trace_reading(self, policy, leak,
                                                                  simulate_every_run):
        # acceptance criterion 7's shape: l is dead, and the trace reading
        # reads it only to compare runs for low-equality, so it does not
        # split the 16 classes of (h, in) by it and lists none of their
        # 240 clones
        program = parse(self.C7 + leak, self.HASHED4)
        run = run_check(program, policy, ModelConfig(self.HASHED4))
        assert (len(run.model.classes), run.model.runs.count(None)) == (16, 240)
        simulate_every_run[0] = True
        every = run_check(program, policy, ModelConfig(self.HASHED4))
        assert every.model.runs.count(None) == 0
        assert (run.verdict.outcome, run.verdict.witness) == (every.verdict.outcome,
                                                              every.verdict.witness)


ROOT = Path(__file__).resolve().parents[1]
PROGRAMS = sorted((ROOT / "samples").glob("*.wout")) + sorted(
    (ROOT / "perfbench" / "inputs").glob("*.wout"))
DOMAIN_FLAGS = {"bool": ("--domain", "bool", "--hash", "ff,tt"),
                "int:4": ("--domain", "int:4", "--hash", "1,2,3,0")}


def _policy_text(program, check: str, dom: Domain) -> str:
    """A policy over the program's identifiers with the entries the check
    reads, with when-conditions that read the current store: the last
    identifier is secret.  Over integers the secret's parity is
    declassified, since aak over payment takes seconds to hold with
    ``phi: Id``."""
    low, first, last = program.variables[:-1], program.variables[0], program.variables[-1]
    cond, pred = (first, last) if dom.kind == "bool" else (f"{first} < 2", f"{last} < 2")
    phi = "Id" if dom.kind == "bool" else "Par"
    entries = {"declassify": [f"declassify: {pred}"], "eta": ["eta: Id"], "phi": [f"phi: {phi}"],
               "rho": ["rho: Id"], "whens": [f"when: {cond} ==> {pred}"],
               "releases": [f"release: {flag} = {pred}" for flag in program.flags]}
    if dom.kind == "bool":
        entries["whens"] += [f"when: {flag} ==> {first}" for flag in program.flags]
    lines = [f"check: {check}", f"low: {', '.join(low)}"]
    lines += [line for entry in CHECKS[check].reads for line in entries[entry]]
    return "\n".join(lines) + "\n"


def _formula_text(program, dom: Domain) -> str:
    """K over an atom that reads the store, and a scan that reads it."""
    first, last = program.variables[0], program.variables[-1]
    value = "ff" if dom.kind == "bool" else "0"
    return f"G (K ({first} == {last}) || F ({last} == {value}))"


class TestKeptIdentifiers:
    """Each reading's model keeps only what the reading reads; a model
    that keeps less is an internal error, and one that keeps every store
    gives the same answers."""

    @staticmethod
    def _check(argv: list, tmp_path, capsys) -> tuple:
        """Exit code, text and report of one ``check``, without its times."""
        report = tmp_path / "report.json"
        report.unlink(missing_ok=True)
        code = main([*argv, "--report", str(report)])
        text = capsys.readouterr().out
        json_text = report.read_text() if report.exists() else None
        return (code, re.sub(r"wall time .*", "", text),
                json_text and re.sub(r'"wall_time_s": [^,}\n]+', "", json_text))

    @pytest.mark.parametrize("termination", [False, True])
    @pytest.mark.parametrize("spec", DOMAIN_FLAGS)
    def test_trimmed_and_whole_models_give_the_same_reports(self, spec, termination,
                                                            tmp_path, monkeypatch, capsys):
        import epiflow.policyfile

        dom = Domain.booleans() if spec == "bool" else INT4
        kept = []

        def recording(program, cfg, keep=None):
            kept.append(keep)
            return build_model(program, cfg, keep)

        def whole(program, cfg, keep=None):
            return build_model(program, cfg)

        flags = [*DOMAIN_FLAGS[spec], *(("--termination-output",) if termination else ())]
        for path in PROGRAMS:
            try:
                program = parse(path.read_text(), dom)
            except LangError:  # an integer literal outside bool
                continue
            base = ["check", "--program", str(path), *flags]
            sources = [["--formula", _formula_text(program, dom)]]
            for check in CHECKS:
                policy = tmp_path / f"{path.stem}.{check}.pol"
                policy.write_text(_policy_text(program, check, dom))
                sources.append(["--policy", str(policy)])
            for source in sources:
                monkeypatch.setattr(epiflow.policyfile, "build_model", recording)
                trimmed = self._check(base + source, tmp_path, capsys)
                monkeypatch.setattr(epiflow.policyfile, "build_model", whole)
                assert self._check(base + source, tmp_path, capsys) == trimmed, source
                assert trimmed[0] in (0, 1, 2), (path.name, source, trimmed)
        assert None not in kept and frozenset() in kept and any(kept)

    def test_readings_keep_what_they_read(self, monkeypatch):
        import epiflow.policyfile

        kept = []

        def recording(program, cfg, keep=None):
            kept.append(keep)
            return build_model(program, cfg, keep)

        monkeypatch.setattr(epiflow.policyfile, "build_model", recording)
        loop = parse("x := 0; while x < h do { out l; x := x + 1 }; out l + x", INT4)
        release = parse("l := h1; release r1; out l; l := h2; release r2; out l", BOOL)
        payment = parse((ROOT / "samples" / "payment.wout").read_text(), INT4)
        pay = dict(low=("paid", "note", "max"),
                   whens=(("true", "cost > max"), ("cost <= max", "cost"),
                          ("paid >= cost", "data")))
        cases = [
            (loop, INT4, Policy("ak", low=("l",)), set()),
            (loop, INT4, Policy("akd", low=("l",), declassify=("h",)), set()),
            (loop, INT4, Policy("aak", low=("l",), eta="Id", phi="Id", rho="Id"), set()),
            (release, BOOL, Policy("akr", low=("l",), releases=(("r1", "h1"), ("r2", "h2"))),
             {"r1", "r2"}),
            (payment, INT4, Policy("aktd", **pay), {"cost", "max", "paid"}),
        ]
        for program, dom, policy, reads in cases:
            twin = CHECKS[policy.check].twin
            for check in (policy.check, twin):
                kept.clear()
                run_check(program, replace(policy, check=check), ModelConfig(dom))
                assert kept == [reads], check
            kept.clear()
            run_both_sides(program, policy, ModelConfig(dom))
            assert kept == [reads]

    @pytest.mark.parametrize("program, policy, dom", [
        ("two-release.wout", "release.pol", "bool"),
        ("payment.wout", "payment.pol", "int:4"),
    ])
    @pytest.mark.parametrize("twin", [False, True])
    def test_a_model_that_keeps_too_little_is_an_internal_error(
            self, program, policy, dom, twin, tmp_path, monkeypatch, capsys):
        import epiflow.policyfile

        def short(program, cfg, keep=None):
            assert keep
            return build_model(program, cfg, keep - {min(keep)})

        monkeypatch.setattr(epiflow.policyfile, "build_model", short)
        text = (ROOT / "samples" / policy).read_text()
        if twin:
            check = parse_policy(text).check
            text = text.replace(f"check: {check}", f"check: {CHECKS[check].twin}")
        (tmp_path / policy).write_text(text)
        argv = ["check", "--program", str(ROOT / "samples" / program),
                "--policy", str(tmp_path / policy), "--domain", dom]
        assert main(argv) == 4
        assert "NotKeptError" in capsys.readouterr().err
        argv[-4:-2] = ["--formula", "F (l == h2)" if dom == "bool" else "G (paid == 0)"]
        assert main(argv) == 4
        assert "NotKeptError" in capsys.readouterr().err

    def test_every_reading_of_stores_checks_the_model(self):
        program = parse("l := h1; release r1; out l; l := h2; release r2; out l", BOOL)
        cfg = ModelConfig(BOOL)
        fs = FlowSpec.from_low(program, ("l",))
        rs = ReleaseSpec((("r1", Var("h1")),))
        when = TemporalDeclassification(Var("r2"), InitPredicate.from_expression(Var("h2"), BOOL))
        for keep in (frozenset(), frozenset({"l"})):
            m = build_model(program, cfg, keep)
            with pytest.raises(NotKeptError, match="nitd reads r1"):
                check_nitd(m, fs, rs.conditions(BOOL))
            with pytest.raises(NotKeptError, match="nitd reads r2"):
                check_nitd(m, fs, (when,))
            with pytest.raises(NotKeptError, match="formula reads h1, h2"):
                model_satisfies(m, parse_formula("G (K (h2 == h1))"))
            with pytest.raises(NotKeptError, match="formula reads h2"):  # planned once bound
                Evaluation(program, BOOL).bind(m).compile(parse_formula("F (h2 == l)"))
        m = build_model(program, cfg, frozenset({"r1", "r2", "h1", "h2"}))
        assert check_nitd(m, fs, rs.conditions(BOOL)).outcome \
            is check_nitd(m, fs, (when,)).outcome
        assert model_satisfies(m, parse_formula("G (K (h2 == h1))")).outcome is Outcome.FAILS
