import json

import pytest

from epiflow.cli import main
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

    def test_formula_checked_against_the_domain(self, workdir, capsys):
        code = run(["check", "--program", workdir / "copy.wout",
                    "--formula", "G (y == 7)"])
        assert code == 3
        assert "outside the bool domain" in capsys.readouterr().err

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

    def test_fuzz_smoke(self, capsys):
        code = run(["fuzz", "--count", "5", "--seed", "3"])
        assert code == 0
        assert "no mismatches" in capsys.readouterr().out
