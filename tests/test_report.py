import json
import random

from epiflow.domain import Domain
from epiflow.fuzz import FuzzConfig, generate_program
from epiflow.lang import parse
from epiflow.model import ModelConfig, Point, build_model, trace_of
from epiflow.policyfile import Policy, run_check
from epiflow.report import Report, build_report, model_dump, render_text

BOOL = Domain.booleans()


def make_report(check="ak", low=("x",)):
    text = "x := y; out y"
    program = parse(text, BOOL)
    policy = Policy(check, low=low)
    run = run_check(program, policy, ModelConfig(BOOL))
    return build_report(run, policy.describe(), text, "demo.wout")


class TestReportFormat:
    def test_round_trip_is_lossless(self):
        report = make_report()
        again = Report.from_json_text(report.to_json_text())
        assert again == report

    def test_key_order_is_stable(self):
        keys = list(json.loads(make_report().to_json_text()))
        assert keys == ["schema", "check", "program_digest", "program_path",
                        "domain", "policy", "bound", "termination_output",
                        "outcome", "witness", "stats", "wall_time_s", "note"]

    def test_determinism_modulo_wall_time(self):
        a = json.loads(make_report().to_json_text())
        b = json.loads(make_report().to_json_text())
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_witness_payload_is_rendered_through_the_domain(self):
        report = make_report()
        assert report.outcome == "FAILS"
        assert report.witness["stores"][0]["store"] == {"x": "tt", "y": "tt"}
        assert report.witness["bindings"] == {"x'": "tt", "y'": "tt", "y''": "ff"}
        assert report.witness["trace"] == ["tt"]

    def test_epoch_count_is_the_number_of_epochs(self):
        cfg = FuzzConfig(seed=4, count=1, size=6, ident_count=2, domain=Domain.integers(4),
                         loops=True)
        for index in range(25):
            program = generate_program(random.Random(f"r:{index}"), cfg)
            policy = Policy("ak", low=program.variables[:1])
            run = run_check(program, policy, ModelConfig(cfg.domain, 200, index % 2 == 1))
            report = build_report(run, policy.describe(), "", None)
            assert report.stats["epochs"] == len(run.model.epochs)

    def test_text_rendering_mentions_the_verdict(self):
        text = render_text(make_report(low=("y",)))
        assert "HOLDS" in text
        assert "4 executions" in text


class TestModelDump:
    def test_lists_runs_in_value_order_then_epochs(self):
        m = build_model(parse("x := y; out y", BOOL), ModelConfig(BOOL))
        dump = model_dump(m)
        lines = dump.splitlines()
        assert lines[0].startswith("(x=tt, y=tt)")
        assert "status=terminated" in lines[0]
        assert "epochs:" in dump
        assert "[] -> 8 points" in dump

    def test_lasso_is_visible(self):
        m = build_model(parse("while tt do { skip }", BOOL), ModelConfig(BOOL))
        assert "lasso" in model_dump(m)

    def test_epoch_table_groups_points_by_trace(self):
        # traces are interned in order of first occurrence, runs in value order
        m = build_model(parse("out x; if y then { out x } else { skip }", BOOL),
                        ModelConfig(BOOL))
        counts: dict = {}
        for ex in m.executions:
            for i in range(len(ex) + 1):
                trace = trace_of(Point(ex, i))
                counts[trace] = counts.get(trace, 0) + 1
        expected = [f"  [{', '.join(BOOL.format_value(e) for e in trace)}] -> {n} points"
                    for trace, n in counts.items()]
        assert model_dump(m).split("epochs:\n")[1].splitlines() == expected
        assert expected[:2] == ["  [] -> 4 points", "  [tt] -> 4 points"]
