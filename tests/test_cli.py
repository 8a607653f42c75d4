import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import usage_cases
from epiflow import cli
from epiflow.cli import build_parser, main
from epiflow.domain import Domain
from epiflow.fuzz import FuzzConfig, _abstractions_for, _gen_expr, generate_program
from epiflow.lang import MAX_DEPTH, expr_to_source, to_source
from epiflow.model import build_model
from epiflow.policyfile import CHECKS, EPISTEMIC_CHECKS, EPISTEMIC_OF, SEMANTIC_CHECKS
from epiflow.report import Report


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "copy.wout").write_text("x := y; out y\n")
    (tmp_path / "low-y.pol").write_text("check: ak\nlow: y\n")
    (tmp_path / "low-x.pol").write_text("check: ak\nlow: x\n")
    (tmp_path / "release.wout").write_text(
        "l := h1; release r1; out l; l := h2; release r2; out l\n")
    (tmp_path / "release.pol").write_text(
        "check: akr\nlow: l\nrelease: r1 = h1\nrelease: r2 = h2\n")
    (tmp_path / "diverge.wout").write_text("while tt do { skip }\n")
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestCheckCommand:
    def test_holding_policy_exits_zero(self, workdir, capsys):
        code = run(["check", "--program", workdir / "copy.wout",
                    "--policy", workdir / "low-y.pol"])
        assert code == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_failing_policy_exits_one(self, workdir, capsys):
        code = run(["check", "--program", workdir / "copy.wout",
                    "--policy", workdir / "low-x.pol"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILS" in out and "witness" in out

    def test_divergence_exits_two(self, workdir):
        code = run(["check", "--program", workdir / "diverge.wout",
                    "--policy", workdir / "low-y.pol", "--low", ""])
        assert code == 2

    def test_both_readings_word_a_refusal_alike(self, tmp_path):
        (tmp_path / "spin.wout").write_text("while h do { skip }; out l\n")
        notes = []
        for check in ("oni", "ak"):
            (tmp_path / f"{check}.pol").write_text(f"check: {check}\nlow: l\n")
            report = tmp_path / f"{check}.json"
            assert run(["check", "--program", tmp_path / "spin.wout",
                        "--policy", tmp_path / f"{check}.pol", "--report", report]) == 2
            notes.append(Report.from_json_text(report.read_text()).note)
        assert notes[0] == notes[1]
        assert notes[0].startswith("execution from (h=tt, l=tt) is lasso; ")

    def test_usage_error_exits_three(self, workdir):
        assert run(["check", "--program", workdir / "copy.wout"]) == 3
        assert run(["check", "--program", "missing.wout",
                    "--policy", workdir / "low-y.pol"]) == 3
        assert run(["nonsense"]) == 3

    def test_report_file_round_trips(self, workdir):
        path = workdir / "out.json"
        run(["check", "--program", workdir / "copy.wout",
             "--policy", workdir / "low-x.pol", "--report", path])
        report = Report.from_json_text(path.read_text())
        assert report.outcome == "FAILS"
        assert report.policy["low"] == ["x"]

    def test_raw_formula(self, workdir, capsys):
        code = run(["check", "--program", workdir / "copy.wout",
                    "--formula", "G (forall v . init(y, v) -> L init(y, v))"])
        assert code == 0

    # formulas that planning folds whole: the exit code and witness are the
    # ones the evaluation of every node gave, and the text names the formula
    @pytest.mark.parametrize("formula, code, source", [
        ("!(true)", 1, "!true"), ("false", 1, "false"), ("l == h W true", 0, "l == h W true"),
    ])
    def test_folded_formulas_keep_their_verdict_and_witness(self, tmp_path, capsys, formula,
                                                             code, source):
        (tmp_path / "leak.wout").write_text("l := h; out l\n")
        path = tmp_path / "report.json"
        assert run(["check", "--program", tmp_path / "leak.wout", "--formula", formula,
                    "--domain", "int:4", "--report", path]) == code
        assert f"\nevaluates {source}\n" in capsys.readouterr().out
        report = Report.from_json_text(path.read_text())
        assert report.policy == {"formula": formula}
        expected = {"kind": "epistemic",
                    "stores": [{"label": "initial", "store": {"l": "0", "h": "0"}}],
                    "point_index": 0, "trace": [], "bindings": {}, "note": ""}
        assert report.witness == (expected if code else None)

    def test_text_report_names_the_evaluated_formula(self, workdir, capsys):
        # the policy's encoding, read back through formula_to_source: ak is
        # aktd with no condition, so G of espm with no agreement; a
        # trace-based check evaluates none
        assert run(["check", "--program", workdir / "copy.wout",
                    "--policy", workdir / "low-y.pol"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == ("evaluates G (forall y' . forall x' . (init(y, y') && init(x, x')) -> "
                            "(forall x'' . L (init(y, y') && init(x, x''))))")
        labels = [line.split()[0] for line in lines if not line.startswith(" ")]
        assert len(labels) == len(set(labels))
        (workdir / "oni.pol").write_text("check: oni\nlow: y\n")
        assert run(["check", "--program", workdir / "copy.wout",
                    "--policy", workdir / "oni.pol"]) == 0
        assert not capsys.readouterr().out.splitlines()[1].startswith("evaluates")

    def test_primed_names_in_formulas_not_programs(self, workdir, tmp_path):
        code = run(["check", "--program", workdir / "copy.wout",
                    "--formula", "G (forall y' . init(y, y') -> L init(y, y'))"])
        assert code == 0
        (tmp_path / "primed.wout").write_text("x' := y; out y\n")
        assert run(["check", "--program", tmp_path / "primed.wout",
                    "--policy", workdir / "low-y.pol"]) == 3

    def test_formula_checked_against_the_domain(self, workdir, capsys):
        code = run(["check", "--program", workdir / "copy.wout",
                    "--formula", "G (y == 7)"])
        assert code == 3
        assert "outside the bool domain" in capsys.readouterr().err

    # each atom expression is checked once per evaluation and looked up
    # after; the messages are the ones a check of every use gives: the
    # first fault in the expression, and an identifier valid only under
    # a binder is unknown outside it, whichever use comes first
    @pytest.mark.parametrize("domain, formula, message", [
        ("bool", "(x < tt) == tt", "formula atom 'x < tt': operator '<' is not boolean"),
        ("bool", "-x == x", "formula atom '-x': arithmetic negation is not boolean"),
        ("bool", "(x == tt) && (x == 1)", "formula atom '1': literal 1 outside the bool domain"),
        ("int:4", "(z + 9) == x", "formula atom 'z + 9': unknown identifier 'z'"),
        ("int:4", "(9 + z) == x", "formula atom '9 + z': literal 9 outside the int:4 domain"),
        ("int:4", "x == hash(x) + 5",
         "formula atom 'hash(x) + 5': literal 5 outside the int:4 domain"),
        ("int:4", "(forall v . init(x, v) -> v == x) && G (v == x)",
         "formula atom 'v': unknown identifier 'v'"),
        ("int:4", "G (v == x) && (forall v . init(x, v) -> v == x)",
         "formula atom 'v': unknown identifier 'v'"),
        ("int:4", "forall v . init(z, v) -> true", "init names unknown identifier 'z'"),
    ])
    def test_formula_errors_name_the_first_fault(self, workdir, capsys, domain, formula,
                                                 message):
        assert run(["check", "--program", workdir / "copy.wout", "--domain", domain,
                    "--formula", formula]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_low_override(self, workdir):
        code = run(["check", "--program", workdir / "copy.wout",
                    "--policy", workdir / "low-y.pol", "--low", "x"])
        assert code == 1

    def test_int_domain_flag(self, workdir, tmp_path):
        (tmp_path / "h0.wout").write_text(
            "if h == 0 then { out 1 } else { out 2 }\n")
        (tmp_path / "h0.pol").write_text("check: akd\ndeclassify: h == 0\n")
        code = run(["check", "--program", tmp_path / "h0.wout",
                    "--policy", tmp_path / "h0.pol", "--domain", "int:4"])
        assert code == 0


class TestOtherCommands:
    def test_model_dump(self, workdir, capsys):
        assert run(["model", "--program", workdir / "copy.wout"]) == 0
        out = capsys.readouterr().out
        assert "(x=tt, y=tt)" in out and "epochs:" in out

    def test_model_keeps_no_store_per_point(self, workdir, monkeypatch):
        # the dump reads initial stores, lengths and trace ids only
        built = []
        monkeypatch.setattr(cli, "build_model",
                            lambda *args: built.append(build_model(*args)) or built[-1])
        assert run(["model", "--program", workdir / "copy.wout"]) == 0
        assert [ex.stores for ex in built[0].executions] == [None] * 4

    @pytest.mark.parametrize("domain, table", [("int:4", "tt,ff,tt,ff"), ("bool", "1,0")])
    def test_hash_table_of_the_wrong_kind_exits_three(self, workdir, domain, table, capsys):
        code = run(["model", "--program", workdir / "copy.wout", "--domain", domain,
                    "--hash", table])
        assert code == 3
        assert "outside the domain" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, same, first", [
        (("--hash", "false,true"), ("--hash", "ff,tt"),
         "(y=tt)  steps=1  status=terminated  trace=[ff]"),
        (("--domain", "int:4", "--signed-window", "--hash=1,0,-1,-2"),
         ("--domain", "int:4", "--signed-window", "--hash=1,-0,-1,-2"),
         "(y=-2)  steps=1  status=terminated  trace=[1]"),
    ])
    def test_hash_reads_the_literals_programs_read(self, tmp_path, capsys, flags, same, first):
        (tmp_path / "h.wout").write_text("out hash(y)\n")
        assert run(["model", "--program", tmp_path / "h.wout", *flags]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == first
        assert run(["model", "--program", tmp_path / "h.wout", *same]) == 0
        assert capsys.readouterr().out == out

    def test_init_reads_the_literals_programs_read(self, workdir, capsys):
        rows = []
        for init in ("l=tt,h1=tt,h2=ff", "l=true,h1=true,h2=false"):
            assert run(["knowledge", "--program", workdir / "release.wout",
                        "--policy", workdir / "release.pol", "--init", init]) == 0
            rows.append(capsys.readouterr().out)
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("command, flags, message", [
        ("model", ("--hash", "true,yes"),
         "--hash takes tt, ff, true, false or an integer, not 'yes'"),
        ("model", ("--domain", "int:4", "--hash", "1,2,+3,0"),
         "--hash takes tt, ff, true, false or an integer, not '+3'"),
        ("model", ("--domain", "int:4", "--hash", "1,2,3,"),
         "--hash takes tt, ff, true, false or an integer, not ''"),
        ("fuzz", ("--domain", "int:4", "--hash", "0x1,2,3,0"),
         "--hash takes tt, ff, true, false or an integer, not '0x1'"),
        ("model", ("--domain", "int:x"), "--domain takes bool or int:N, not 'int:x'"),
        ("model", ("--domain", "int:4.0"), "--domain takes bool or int:N, not 'int:4.0'"),
        ("fuzz", ("--domain", "int:"), "--domain takes bool or int:N, not 'int:'"),
        ("knowledge", ("--domain", "int:4", "--init", "l=0,h=+1"),
         "--init takes tt, ff, true, false or an integer, not '+1'"),
        ("knowledge", ("--init", "l=yes,h=tt"),
         "--init takes tt, ff, true, false or an integer, not 'yes'"),
        ("knowledge", ("--init", "l=1,h=tt"), "--init value 1 outside the domain"),
    ])
    def test_a_bad_value_is_a_usage_error_naming_flag_and_token(self, tmp_path, capsys,
                                                                 command, flags, message):
        (tmp_path / "p.wout").write_text("l := h; out l\n")
        (tmp_path / "p.pol").write_text("check: oni\nlow: l\n")
        args = {"model": ["--program", tmp_path / "p.wout"], "fuzz": ["--count", "1"],
                "knowledge": ["--program", tmp_path / "p.wout", "--policy", tmp_path / "p.pol"]}
        assert run([command, *args[command], *flags]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_diff_agrees(self, workdir, capsys):
        code = run(["diff", "--program", workdir / "release.wout",
                    "--policy", workdir / "release.pol"])
        assert code == 0
        assert "agree" in capsys.readouterr().out

    def test_diff_agrees_on_a_wide_declassification(self, tmp_path, capsys):
        # four identifiers at int:8: up to 8^7 possibility pairs to consider
        (tmp_path / "wide.wout").write_text(
            "out l; if h1 < 4 then { out 1 } else { out 0 }; h2 := h3\n")
        (tmp_path / "wide.pol").write_text("check: nid\nlow: l\ndeclassify: h1 < 4\n")
        code = run(["diff", "--program", tmp_path / "wide.wout",
                    "--policy", tmp_path / "wide.pol", "--domain", "int:8"])
        assert code == 0
        assert "semantic=HOLDS epistemic=HOLDS agree" in capsys.readouterr().out

    @pytest.mark.parametrize("program, policy, flags", [
        ("copy-then-out.wout", "low-x-ak.pol", ()),
        ("copy-then-out.wout", "low-y-ak.pol", ()),
        ("two-release.wout", "release.pol", ()),
        ("payment.wout", "payment.pol", ("--domain", "int:4")),
    ])
    def test_diff_agrees_on_the_samples(self, program, policy, flags, capsys):
        samples = Path(__file__).resolve().parent.parent / "samples"
        code = run(["diff", "--program", samples / program,
                    "--policy", samples / policy, *flags])
        assert code == 0
        assert capsys.readouterr().out.rstrip().endswith(" agree")

    @pytest.mark.parametrize("policy, message", [
        ("low:\neta: Id\nphi: Id\nrho: Id\n",
         "abstract output needs at least one public identifier"),
        ("low: l\neta: Id\nphi: Id\nrho: h\n",
         "output abstraction mentions non-public 'h'"),
        ("low: l\neta: h\nphi: Id\nrho: Id\n",
         "input abstraction eta mentions non-public 'h'"),
        ("low: l\neta: Id\nphi: l\nrho: Id\n",
         "input abstraction phi mentions non-secret 'l'"),
    ])
    def test_both_readings_refuse_the_same_output_abstractions(
            self, tmp_path, capsys, policy, message):
        (tmp_path / "p.wout").write_text("l := h; out l\n")
        for command, check in (("check", "aak"), ("check", "nani"), ("diff", "nani")):
            (tmp_path / "p.pol").write_text(f"check: {check}\n{policy}")
            code = run([command, "--program", tmp_path / "p.wout",
                        "--policy", tmp_path / "p.pol"])
            assert code == 3, (command, check)
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_knowledge_rows(self, workdir, capsys):
        code = run(["knowledge", "--program", workdir / "release.wout",
                    "--policy", workdir / "release.pol",
                    "--init", "l=tt,h1=tt,h2=ff"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].endswith("4 | 4 | SECURE")
        assert out[2].endswith("2 | 2 | SECURE")
        assert out[3].endswith("1 | 1 | SECURE")

    def test_knowledge_flags_insecure_release(self, workdir, tmp_path, capsys):
        (tmp_path / "leak.wout").write_text(
            "l := h1; out l; l := h2; release r2; out l\n")
        (tmp_path / "leak.pol").write_text(
            "check: er\nlow: l\nrelease: r2 = h2\n")
        code = run(["knowledge", "--program", tmp_path / "leak.wout",
                    "--policy", tmp_path / "leak.pol",
                    "--init", "l=tt,h1=tt,h2=ff"])
        assert code == 1
        assert "INSECURE" in capsys.readouterr().out

    @pytest.mark.parametrize("policy, code, rows", [
        ("low-y.pol", 0, ["[] | 2 | 2 | SECURE", "[tt] | 2 | 2 | SECURE"]),
        ("low-x.pol", 1, ["[] | 2 | 2 | SECURE", "[tt] | 1 | 2 | INSECURE"]),
    ])
    def test_knowledge_without_releases(self, workdir, capsys, policy, code, rows):
        # with no release entry the release set is every low-equal store
        assert run(["knowledge", "--program", workdir / "copy.wout",
                    "--policy", workdir / policy, "--init", "x=tt,y=tt"]) == code
        assert capsys.readouterr().out.splitlines()[1:] == rows

    @pytest.mark.parametrize("entry", ["eta: Id", "phi: Id", "rho: Id"])
    def test_knowledge_refuses_entries_it_does_not_read(self, workdir, capsys, entry):
        # eta:, phi: and rho: are nani's and aak's own entries, which a
        # policy for another check does not carry; knowledge refuses them
        # as check does
        (workdir / "other.pol").write_text(f"check: akr\nlow: l\nrelease: r1 = h1\n{entry}\n")
        assert run(["knowledge", "--program", workdir / "release.wout",
                    "--policy", workdir / "other.pol"]) == 3
        key = entry.split(":")[0]
        assert capsys.readouterr().err == (
            f"error: check 'akr' does not read the policy's {key}: entry\n")

    @pytest.mark.parametrize("command", ["check", "knowledge"])
    def test_knowledge_reads_a_policy_as_check_does(self, tmp_path, capsys, command):
        # oni does not read declassify:, so neither command may drop it and
        # call the leak secure
        (tmp_path / "leak.wout").write_text("l := h; out l\n")
        (tmp_path / "oni.pol").write_text("check: oni\nlow: l\ndeclassify: h\n")
        assert run([command, "--program", tmp_path / "leak.wout", "--policy",
                    tmp_path / "oni.pol", "--domain", "int:4"]) == 3
        assert capsys.readouterr().err == (
            "error: check 'oni' does not read the policy's declassify: entry\n")

    @pytest.mark.parametrize("program, params, init, code, rows", [
        ("if h >= 0 then { l := 2*l*h } else { l := 2*l*h + 1 }",
         "eta: Id\nphi: Sign\nrho: Par", (), 0,
         ["[] | 64 | 4 | SECURE", "[1] | 32 | 4 | SECURE"]),
        ("l := 2*l*h*h", "eta: Par\nphi: Id\nrho: Sign", ("--init", "l=-4,h=-3"), 1,
         ["[] | 64 | 4 | SECURE", "[1] | 48 | 4 | INSECURE"]),
    ], ids=["c4-secure", "c4-deceptive"])
    def test_knowledge_follows_the_abstracted_results(
            self, tmp_path, capsys, program, params, init, code, rows):
        # nothing is public, and eta and phi are declassified from the start
        (tmp_path / "c4.wout").write_text(program + "\n")
        for check in ("nani", "aak"):
            (tmp_path / "c4.pol").write_text(f"check: {check}\nlow: l\n{params}\n")
            assert run(["knowledge", "--program", tmp_path / "c4.wout",
                        "--policy", tmp_path / "c4.pol", "--domain", "int:8",
                        "--signed-window", *init]) == code
            assert capsys.readouterr().out.splitlines()[1:] == rows

    @pytest.mark.parametrize("entry", ["declassify: h1", "release: r1 = h1", "when: tt ==> h1"])
    def test_knowledge_refuses_other_entries_of_an_abstract_policy(self, workdir, capsys, entry):
        (workdir / "nani.pol").write_text(
            f"check: nani\nlow: l\neta: Id\nphi: Id\nrho: Id\n{entry}\n")
        assert run(["knowledge", "--program", workdir / "release.wout",
                    "--policy", workdir / "nani.pol"]) == 3
        key = entry.split(":")[0]
        assert capsys.readouterr().err == (
            f"error: check 'nani' does not read the policy's {key}: entry\n")

    def test_knowledge_reads_the_payment_policy(self, capsys):
        samples = Path(__file__).resolve().parent.parent / "samples"
        assert run(["knowledge", "--program", samples / "payment.wout",
                    "--policy", samples / "payment.pol", "--domain", "int:4"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "[] | 16 | 1 | SECURE", "[0] | 4 | 1 | SECURE", "[0, 0] | 1 | 1 | SECURE"]

    def test_knowledge_rejects_a_repeated_init(self, workdir, capsys):
        code = run(["knowledge", "--program", workdir / "release.wout",
                    "--policy", workdir / "release.pol",
                    "--init", "l=tt,l=ff,h1=tt,h2=ff"])
        assert code == 3
        assert capsys.readouterr().err == "error: --init names 'l' twice\n"

    def test_diff_agrees_on_the_deceptive_flow_with_public_inputs_pinned(
            self, tmp_path, capsys):
        # eta: Id pins public inputs exactly; both readings then miss the flow
        (tmp_path / "c4.wout").write_text("l := 2*l*h*h\n")
        (tmp_path / "c4.pol").write_text("check: nani\nlow: l\neta: Id\nphi: Id\nrho: Sign\n")
        code = run(["diff", "--program", tmp_path / "c4.wout", "--policy", tmp_path / "c4.pol",
                    "--domain", "int:8", "--signed-window"])
        assert code == 0
        assert "semantic=HOLDS epistemic=HOLDS agree" in capsys.readouterr().out

    def test_diff_agrees_on_a_program_with_outputs(self, tmp_path, capsys):
        # aak's observer sees only the abstracted final result, which is
        # what nani judges; the loop's own outputs are not observed
        (tmp_path / "loop.wout").write_text(
            "x := 0; while x < h do { out l; x := x + 1 }; out l + x\n")
        (tmp_path / "loop.pol").write_text(
            "check: nani\nlow: x, h\neta: Id\nphi: Par\nrho: Id\n")
        code = run(["diff", "--program", tmp_path / "loop.wout",
                    "--policy", tmp_path / "loop.pol", "--domain", "int:4"])
        assert code == 0
        assert capsys.readouterr().out.rstrip().endswith(" agree")

    @pytest.mark.parametrize("program, bound, outcome", [
        ("out 1; out 1; out 1; out 1; l := h", 4, "BOUND_EXCEEDED"),
        ("l := h", 1, "HOLDS"),
    ])
    def test_diff_agrees_on_runs_that_end_at_the_bound(self, tmp_path, capsys, program,
                                                      bound, outcome):
        # aak judges the program's own runs, so the bound cuts both readings alike
        (tmp_path / "p.wout").write_text(program + "\n")
        (tmp_path / "p.pol").write_text("check: aak\nlow: l\neta: Id\nphi: Id\nrho: Id\n")
        code = run(["diff", "--program", tmp_path / "p.wout", "--policy", tmp_path / "p.pol",
                    "--domain", "int:4", "--bound", bound])
        assert code == 0
        assert capsys.readouterr().out == (
            f"pair nani/aak: semantic={outcome} epistemic={outcome} agree\n")

    def test_fuzz_reaches_refusal_with_no_mismatch(self, capsys):
        code = run(["fuzz", "--count", "40", "--seed", "13", "--pairs", "nani-aak",
                    "--domain", "int:4", "--loops", "--bound", "6"])
        out = capsys.readouterr().out
        assert code == 0, out
        refused = re.search(r"nani-aak: 40 runs: .* (\d+) refused, 0 mismatched", out)
        assert refused and int(refused[1]) > 0, out

    # for each pair, by its epistemic check, the entries it cannot run without
    NEEDED = {"ak": "", "akd": "declassify: h\n", "aak": "eta: Id\nphi: Id\nrho: Id\n",
              "akr": "", "aktd": ""}
    FOREIGN = {"declassify": "declassify: h", "eta": "eta: Id", "phi": "phi: Id",
               "rho": "rho: Id", "releases": "release: r1 = h", "whens": "when: l ==> h"}

    @pytest.mark.parametrize("check", EPISTEMIC_CHECKS + SEMANTIC_CHECKS)
    def test_check_and_diff_refuse_entries_the_check_does_not_read(self, tmp_path, capsys,
                                                                   check):
        (tmp_path / "p.wout").write_text("l := h; release r1; out l\n")
        base = f"check: {check}\nlow: l\n{self.NEEDED[EPISTEMIC_OF.get(check, check)]}"
        args = ["--program", tmp_path / "p.wout", "--policy", tmp_path / "p.pol"]
        unread = [line for entry, line in self.FOREIGN.items()
                  if entry not in CHECKS[check].reads]
        assert len(unread) == 6 - len(CHECKS[check].reads)
        for line in unread:
            (tmp_path / "p.pol").write_text(f"{base}{line}\n")
            for command in ("check", "diff"):
                assert run([command, *args]) == 3, (command, line)
                assert capsys.readouterr().err == (
                    f"error: check {check!r} does not read the policy's "
                    f"{line.split(':')[0]}: entry\n")
        (tmp_path / "p.pol").write_text(base)
        assert run(["diff", *args]) == 0

    @pytest.mark.parametrize("pair, program, entry", [
        (("nitd", "aktd"), "l := h; out l", "when: l ==> h"),
        (("er", "akr"), "l := h; " + "; ".join(f"release r{i}" for i in range(1, 8)) + "; out l",
         "release: r{} = h"),
    ], ids=["nitd-aktd", "er-akr"])
    def test_both_readings_refuse_more_conditions_than_the_cap(self, tmp_path, capsys, pair,
                                                               program, entry):
        (tmp_path / "p.wout").write_text(program + "\n")
        args = ["--program", tmp_path / "p.wout", "--policy", tmp_path / "p.pol"]
        for count, code in ((7, 3), (6, 0)):
            entries = "".join(entry.format(i) + "\n" for i in range(1, count + 1))
            for check in pair:
                (tmp_path / "p.pol").write_text(f"check: {check}\nlow: l\n{entries}")
                assert run(["diff", *args]) == code, (check, count)
                if count == 7:
                    assert run(["check", *args]) == 3, check
                    assert capsys.readouterr().err == (
                        "error: powerset construction capped at 6 elements; got 7\n" * 2)

    def test_declassify_entries_are_not_capped(self, tmp_path, capsys):
        # each declassify: entry is when: true ==> e, fired from the start,
        # so it is not one of the conditions aktd enumerates subsets of
        (tmp_path / "p.wout").write_text("if h > 1 then { out l } else { out l + 1 }\n")
        args = ["--program", tmp_path / "p.wout", "--policy", tmp_path / "p.pol",
                "--domain", "int:8"]
        entries = "".join(f"declassify: h + {i}\n" for i in range(7))
        codes = {}
        for check in ("akd", "nid"):
            (tmp_path / "p.pol").write_text(f"check: {check}\nlow: l\n{entries}")
            codes[check] = run(["check", *args])
            assert run(["diff", *args]) == 0, check
        assert codes == {"akd": 0, "nid": 0}
        (tmp_path / "p.pol").write_text("check: akd\nlow: l\ndeclassify: h > 2\n"
                                        "declassify: h == 0\n")
        assert run(["check", *args]) == 1
        assert "FAILS" in capsys.readouterr().out

    def test_fuzz_smoke(self, capsys):
        code = run(["fuzz", "--count", "5", "--seed", "3"])
        assert code == 0
        assert "no mismatches" in capsys.readouterr().out

    @pytest.mark.parametrize("pairs", ["", ",,", " , "])
    def test_fuzz_with_no_pairs_exits_three(self, pairs, capsys):
        assert run(["fuzz", "--pairs", pairs, "--count", "5"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: no pairs to fuzz")


class TestStartUp:
    def test_only_the_fuzz_command_imports_the_fuzzer(self):
        # a fresh interpreter, so that no other test's import counts
        code = "import sys, epiflow.cli; print('epiflow.fuzz' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert done.stdout == "False\n"

    def test_the_fuzzer_keeps_its_pairs(self):
        import epiflow.fuzz
        import epiflow.policyfile

        assert epiflow.fuzz.PAIRS is epiflow.policyfile.PAIRS


class TestFlags:
    MODEL = ["--program", "--domain", "--signed-window", "--hash", "--bound",
             "--termination-output"]

    def test_each_command_takes_only_the_flags_it_reads(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        taken = {name: [a.option_strings[-1] for a in parser._actions
                        if a.option_strings and a.dest != "help"]
                 for name, parser in commands.items()}
        assert taken == {
            "check": self.MODEL + ["--policy", "--formula", "--low", "--report"],
            "model": self.MODEL,
            "diff": self.MODEL + ["--policy", "--low"],
            "knowledge": self.MODEL + ["--policy", "--low", "--init"],
            "fuzz": ["--pairs", "--count", "--seed", "--ids", "--size", "--loops",
                     "--domain", "--signed-window", "--hash", "--bound"],
        }
        assert sum(map(len, taken.values())) == 43

    @pytest.mark.parametrize("args", [
        ["check", "--policy", "low-y.pol", "--aak-fix-low"],
        ["diff", "--policy", "low-y.pol", "--aak-fix-low"],
        ["model", "--report", "out.json"],
        ["model", "--low", "zz"],
        ["diff", "--policy", "low-y.pol", "--report", "out.json"],
        ["knowledge", "--policy", "low-y.pol", "--report", "out.json"],
        ["check", "--policy", "low-y.pol", "--formula", "tt"],
        ["check"],
        ["check", "--formula", "tt", "--low", "y"],
    ], ids=" ".join)
    def test_a_flag_the_command_does_not_read_exits_three(self, workdir, args):
        command, *rest = args
        rest = [workdir / a if a.endswith((".pol", ".json")) else a for a in rest]
        assert run([command, "--program", workdir / "copy.wout", *rest]) == 3
        assert not (workdir / "out.json").exists()


class TestOneParser:
    """``main`` builds the parser of the command its first argument names,
    and no other: help and usage errors read as with every command's."""

    @pytest.mark.parametrize("argv", usage_cases.ARGVS,
                             ids=lambda argv: " ".join(["epiflow", *argv]))
    def test_status_and_output_are_those_of_every_parser(self, argv):
        assert usage_cases.outputs(argv) == usage_cases.outputs(argv, every=True)

    def test_check_adds_no_flag_to_another_command(self, workdir, monkeypatch, capsys):
        def refuse(parser):
            raise AssertionError("a check call built another command's flags")

        for name, (help_text, _, handler) in cli.COMMANDS.items():
            if name != "check":
                monkeypatch.setitem(cli.COMMANDS, name, (help_text, refuse, handler))
        args = ["check", "--program", workdir / "copy.wout", "--policy", workdir / "low-y.pol"]
        assert run(args) == 0
        assert run([*args, "--bogus"]) == 3
        assert capsys.readouterr().err.startswith(
            "usage: epiflow [-h] {check,model,diff,knowledge,fuzz} ...\n")


class TestRobustness:
    def test_internal_error_exits_four(self, workdir, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("epiflow.cli.run_check", broken)
        code = run(["check", "--program", workdir / "copy.wout",
                    "--policy", workdir / "low-y.pol"])
        assert code == 4
        assert "internal error: RuntimeError: boom" in capsys.readouterr().err

    @pytest.mark.parametrize("check", ["ak", "oni"])
    @pytest.mark.parametrize("shape", ["long", "deep"])
    def test_long_and_deep_programs_get_a_verdict(self, tmp_path, shape, check, capsys):
        if shape == "long":  # 5,000 statements
            text = "l := l;\n" * 4_998 + "out h; out l\n"
        else:  # if and while alternately, nested 200 deep
            text = "out h"
            for depth in range(200):
                if depth % 2:
                    text = f"while l do {{ {text}; l := ff }}"
                else:
                    text = f"if h then {{ {text} }} else {{ skip }}"
        (tmp_path / "p.wout").write_text(text)
        (tmp_path / "p.pol").write_text(f"check: {check}\nlow: l\n")
        code = run(["check", "--program", tmp_path / "p.wout",
                    "--policy", tmp_path / "p.pol"])
        assert code == 1
        assert "FAILS" in capsys.readouterr().out

    @pytest.mark.parametrize("shape", ["formula", "declassify", "parentheses"])
    def test_too_deeply_nested_inputs_exit_three(self, tmp_path, shape, capsys):
        program, policy = "out l; out h", "check: ak\nlow: l\n"
        args = []
        if shape == "formula":  # 400 nested F
            args = ["--formula", "F " * 400 + "tt"]
        elif shape == "declassify":  # 3,000 conjuncts
            policy = "check: akd\nlow: l\ndeclassify: " + " && ".join(["h"] * 3_000) + "\n"
        else:  # an output under 1,200 parentheses
            program = "out " + "(" * 1_200 + "h" + ")" * 1_200
        (tmp_path / "p.wout").write_text(program)
        (tmp_path / "p.pol").write_text(policy)
        code = run(["check", "--program", tmp_path / "p.wout",
                    *(args or ["--policy", tmp_path / "p.pol"])])
        err = capsys.readouterr().err
        assert code == 3
        # the parser refuses nesting past MAX_DEPTH where it starts; in a
        # chain of operators each after the first is a level, so the 202nd
        # && is one too many
        expected = {"formula": "1:401: input nested more than 200 deep",
                    "declassify": "policy line 3: declassification: 1:1008: "
                                  "input nested more than 200 deep",
                    "parentheses": "1:205: input nested more than 200 deep"}[shape]
        assert err == f"error: {expected}\n"

    @pytest.mark.parametrize("part", ["program", "policy", "formula", "chain"])
    def test_nesting_to_the_limit_is_checked_and_past_it_refused(self, tmp_path, part,
                                                                 capsys):
        # parentheses in an output on line 2 of the program, and in a
        # declassified expression; F nested on line 2 of a formula; a chain
        # of operators in an output on line 2, each after the first a level
        def check(depth):
            program, declassified, args = "h := h;\nout l + h", "h", []
            if part == "program":
                program = "h := h;\nout " + "(" * depth + "l" + ")" * depth
            elif part == "chain":
                program = "h := h;\nout " + " + ".join(["l"] * (depth + 2))
            elif part == "policy":
                declassified = "(" * depth + "h" + ")" * depth
            else:
                args = ["--formula", "G tt\n&& " + "F " * depth + "l == l"]
            (tmp_path / "p.wout").write_text(program)
            (tmp_path / "p.pol").write_text(f"check: akd\nlow: l\ndeclassify: {declassified}\n")
            code = run(["check", "--program", tmp_path / "p.wout", "--domain", "int:4",
                        *(args or ["--policy", tmp_path / "p.pol"])])
            return code, capsys.readouterr().err

        assert check(MAX_DEPTH) == (0, "")
        code, err = check(MAX_DEPTH + 1)
        # where the level past the limit starts
        where = {"program": f"2:{5 + MAX_DEPTH}", "policy": f"1:{1 + MAX_DEPTH}",
                 "formula": f"2:{4 + 2 * MAX_DEPTH}", "chain": f"2:{11 + 4 * MAX_DEPTH}"}[part]
        assert code == 3
        assert err.endswith(f"{where}: input nested more than {MAX_DEPTH} deep\n"), err


# --domain flags and the domain they select
DOMAINS = [(("--domain", "bool"), Domain.booleans()),
           (("--domain", "int:4"), Domain.integers(4)),
           (("--domain", "int:4", "--signed-window"), Domain.integers(4, signed=True))]


def nested(text: str, depth: int) -> str:
    """``text`` under ``depth`` alternating ifs and loops that run once."""
    for level in range(depth):
        if level % 2:
            text = f"c := tt; while c do {{ {text}; c := ff }}"
        else:
            text = f"if h == h then {{ {text} }} else {{ skip }}"
    return text


@st.composite
def check_inputs(draw):
    """A generated program (plain, long or deep) and a policy for any check."""
    check = draw(st.sampled_from(EPISTEMIC_CHECKS + SEMANTIC_CHECKS))
    flags, dom = draw(st.sampled_from(DOMAINS))
    shape = draw(st.sampled_from(["plain", "long", "deep"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    # the deep shape's guards read h, the second identifier
    cfg = FuzzConfig(size=draw(st.integers(1, 8)), domain=dom, loops=draw(st.booleans()),
                     ident_count=draw(st.integers(1, 3)) if shape == "plain" else 2)
    releases = ("r1", "r2")[:draw(st.integers(0, 2))] if check in ("akr", "er") else ()
    program = generate_program(rng, cfg, release_flags=releases)
    text = to_source(program.body, dom)
    if shape == "long":
        text = "l := l;\n" * draw(st.integers(1_000, 5_000)) + text
    elif shape == "deep":
        text = nested(text, draw(st.integers(50, 250)))
    names = program.variables + (("c",) if shape == "deep" else ())
    low = [n for n in names if draw(st.booleans())]
    if check in ("aak", "nani") and not low:  # the output abstraction needs one
        low = names[:1]
    lines = [f"check: {check}", "low: " + ", ".join(low)]

    def expr(depth=2):
        return expr_to_source(_gen_expr(rng, names, dom, depth), dom)

    if check in ("akd", "nid"):
        lines += [f"declassify: {expr()}" for _ in range(draw(st.integers(0, 2)))]
    elif check in ("aak", "nani"):
        lines += [f"{key}: {rng.choice(_abstractions_for(dom))}" for key in ("eta", "phi", "rho")]
    elif check in ("akr", "er"):
        lines += [f"release: {flag} = {expr()}" for flag in releases]
    elif check in ("aktd", "nitd"):
        lines += [f"when: {expr(1)} ==> {expr(1)}" for _ in range(draw(st.integers(0, 2)))]
    return text, "\n".join(lines) + "\n", flags


class TestWellFormedInputs:
    @settings(max_examples=100, deadline=None)
    @given(check_inputs())
    def test_exit_code_is_a_verdict_or_a_usage_error(self, tmp_path_factory, inputs):
        # exit 4 is an internal error: never the answer to a well-formed input
        text, policy, flags = inputs
        tmp = tmp_path_factory.mktemp("check")
        (tmp / "p.wout").write_text(text)
        (tmp / "p.pol").write_text(policy)
        code = run(["check", "--program", tmp / "p.wout", "--policy", tmp / "p.pol", *flags])
        assert code in (0, 1, 2, 3), (text[-400:], policy)
