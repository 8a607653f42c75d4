import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import epiflow.policyfile
from epiflow.cli import _domain_from, build_parser, main
from epiflow.domain import Domain
from epiflow.fuzz import (PAIRS, FuzzConfig, FuzzSummary, fuzz_equivalences,
                          generate_case, generate_program, run_one)
from epiflow.lang import Out, Skip, Stmt, Seq, While, to_source
from epiflow.model import ModelConfig, Status, build_model
from epiflow.policyfile import parse_policy
from epiflow.verdicts import Outcome

DOMAINS = (Domain.booleans(), Domain.integers(4), Domain.integers(4, signed=True))


def walk(stmt):
    yield stmt
    for attr in ("first", "second", "then", "orelse", "body"):
        child = getattr(stmt, attr, None)
        if isinstance(child, Stmt):
            yield from walk(child)


class TestGenerator:
    def test_deterministic_per_seed(self):
        cfg = FuzzConfig(seed=5, count=1)
        a = generate_program(random.Random("k:1"), cfg)
        b = generate_program(random.Random("k:1"), cfg)
        assert to_source(a.body) == to_source(b.body)
        c = generate_program(random.Random("k:2"), cfg)
        assert to_source(a.body) != to_source(c.body) or a.body == c.body

    def test_respects_identifier_budget(self):
        cfg = FuzzConfig(seed=1, count=1, ident_count=3)
        program = generate_program(random.Random("ids"), cfg)
        assert set(program.variables) <= {"l", "h", "k"}

    def test_release_insertion(self):
        cfg = FuzzConfig(seed=1, count=1)
        program = generate_program(random.Random("rel"), cfg,
                                   release_flags=("r1", "r2"))
        assert set(program.flags) == {"r1", "r2"}

    def test_loop_programs_terminate(self):
        cfg = FuzzConfig(seed=1, count=1, domain=Domain.integers(4),
                         loops=True, size=10)
        for i in range(20):
            program = generate_program(random.Random(f"loop:{i}"), cfg)
            model = build_model(program, ModelConfig(cfg.domain, bound=2000))
            assert all(e.status is Status.TERMINATED for e in model.executions)

    def test_cases_keep_their_draws(self):
        # each (seed, pair, index) draws the same program and policy texts;
        # nani-aak's were drawn anew once aak observed what nani observes
        # (programs with outputs) and booleans got expression abstractions
        digest = hashlib.sha256()
        for cfg in (FuzzConfig(seed=11),
                    FuzzConfig(seed=29, domain=Domain.integers(4), loops=True)):
            for pair in PAIRS:
                for index in range(20):
                    program, policy = generate_case(pair, index, cfg)
                    digest.update(to_source(program.body, cfg.domain).encode())
                    digest.update(policy.to_text().encode())
        assert digest.hexdigest() == (
            "55561627605da9b04823cf96c58aa7233de3417e27589ff93d0511fee979edfd")

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            FuzzConfig(ident_count=4)
        with pytest.raises(ValueError):
            FuzzConfig(pairs=("oni-esp",))
        with pytest.raises(ValueError, match="no pairs"):
            FuzzConfig(pairs=())
        with pytest.raises(ValueError):
            FuzzConfig(count=-1)
        for size in (0, -3):
            with pytest.raises(ValueError):
                FuzzConfig(size=size)


class TestHarness:
    def test_zero_iterations_energy(self):
        summary = fuzz_equivalences(FuzzConfig(seed=1, count=0))
        assert summary.runs == 0 and summary.ok

    def test_single_runs_reproducible(self):
        cfg = FuzzConfig(seed=4, count=1)
        assert run_one("oni-ak", 7, cfg) == run_one("oni-ak", 7, cfg)

    def test_small_sweep_has_no_mismatches(self):
        for cfg in (FuzzConfig(seed=6, count=10),
                    FuzzConfig(seed=6, count=10, domain=Domain.integers(4), loops=True)):
            summary = fuzz_equivalences(cfg)
            assert summary.ok, summary.render()
            assert summary.runs == 50

    def test_nani_aak_cases_output_and_fail_on_booleans(self):
        # aak's observer sees only the abstracted final result, as nani
        # judges it, so the cases keep their outputs; on booleans an
        # expression abstraction can keep a secret, so some cases fail
        cfg = FuzzConfig(seed=11, count=40, pairs=("nani-aak",))
        programs = [generate_case("nani-aak", i, cfg)[0] for i in range(cfg.count)]
        assert any(isinstance(s, Out) for p in programs for s in walk(p.body))
        summary = fuzz_equivalences(cfg)
        assert summary.ok, summary.render()
        assert summary.outcomes["nani-aak"][Outcome.FAILS]

    def test_render_reports_counts(self):
        summary = fuzz_equivalences(
            FuzzConfig(seed=6, count=2, pairs=("oni-ak",)))
        text = summary.render()
        assert "oni-ak: 2 runs" in text and "no mismatches" in text

    def test_render_splits_each_pair_by_outcome(self):
        cfg = FuzzConfig(seed=6, count=12, pairs=("oni-ak", "nid-akd"))
        summary = fuzz_equivalences(cfg)
        for pair in cfg.pairs:
            split = summary.outcomes[pair]
            assert sum(split.values()) == summary.per_pair[pair] == 12
            assert split[Outcome.HOLDS] and split[Outcome.FAILS]
            assert (f"  {pair}: 12 runs: {split[Outcome.HOLDS]} HOLDS, "
                    f"{split[Outcome.FAILS]} FAILS, 0 refused, 0 mismatched"
                    in summary.render())


class TestReplay:
    @pytest.mark.parametrize("dom", DOMAINS + (
        Domain.integers(8, hash_table=(0, 3, 6, 1, 4, 7, 2, 5)),
        Domain.integers(4, signed=True, hash_table=(-2, 1, 0, -1))))
    def test_header_flags_read_back_to_the_domain(self, dom):
        header = FuzzSummary(FuzzConfig(domain=dom)).render().splitlines()[0]
        flags = header.split("domain: ", 1)[1].split()
        assert _domain_from(build_parser().parse_args(["fuzz", *flags])) == dom

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PAIRS), st.sampled_from(DOMAINS), st.booleans(),
           st.integers(0, 10**6), st.integers(0, 10**4))
    def test_policies_read_back_from_their_text(self, pair, dom, loops, seed, index):
        cfg = FuzzConfig(seed=seed, domain=dom, loops=loops)
        _, policy = generate_case(pair, index, cfg)
        assert parse_policy(policy.to_text()) == policy

    def test_mismatch_replays_with_diff(self, tmp_path, monkeypatch, capsys):
        real = epiflow.policyfile.model_satisfies
        flip = {Outcome.HOLDS: Outcome.FAILS, Outcome.FAILS: Outcome.HOLDS}

        def flipped(model, formula, *planned):
            verdict = real(model, formula, *planned)
            return verdict._replace(outcome=flip[verdict.outcome])

        monkeypatch.setattr(epiflow.policyfile, "model_satisfies", flipped)
        cfg = FuzzConfig(seed=2, count=1, domain=Domain.integers(4, signed=True),
                         loops=True, bound=500)
        summary = fuzz_equivalences(cfg)
        assert len(summary.mismatches) == len(PAIRS)
        text = summary.render()
        replays = []
        for m in summary.mismatches:
            assert m.command()[-5:] == ["--domain", "int:4", "--signed-window",
                                        "--bound", "500"]
            assert f"epiflow {' '.join(m.command())}" in text
            assert f"   program: {m.program}" in text
            assert all(f"     {line}" in text for line in m.policy.splitlines())
            program, policy = tmp_path / f"{m.pair}.wout", tmp_path / f"{m.pair}.pol"
            program.write_text(m.program)
            policy.write_text(m.policy)
            replays.append(m.command(str(program), str(policy)))
            assert main(replays[-1]) == 1, m
        monkeypatch.undo()
        for argv in replays:
            assert main(argv) == 0, argv
        capsys.readouterr()
