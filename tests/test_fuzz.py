import random

import pytest

from epiflow.domain import Domain
from epiflow.fuzz import (FuzzConfig, fuzz_equivalences, generate_program,
                          run_one)
from epiflow.lang import Out, Skip, Stmt, Seq, While, to_source
from epiflow.model import ModelConfig, Status, build_model


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

    def test_output_free_mode(self):
        cfg = FuzzConfig(seed=1, count=1)
        for i in range(20):
            program = generate_program(random.Random(f"of:{i}"), cfg,
                                       allow_out=False)
            assert not any(isinstance(s, Out) for s in walk(program.body))

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

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            FuzzConfig(ident_count=4)
        with pytest.raises(ValueError):
            FuzzConfig(pairs=("oni-esp",))


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

    def test_render_reports_counts(self):
        summary = fuzz_equivalences(
            FuzzConfig(seed=6, count=2, pairs=("oni-ak",)))
        text = summary.render()
        assert "oni-ak: 2 runs" in text and "no mismatches" in text
