import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridsynth as gs
from gridsynth.agents import write_script
from gridsynth.cli import main

from conftest import (
    MALFORMED_TABLE_EDITS,
    bicycle_spec_text,
    correct_response,
    malformed_table,
)


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "spec.json"
    p.write_text(bicycle_spec_text())
    return p


@pytest.fixture(scope="module")
def controller_file(tmp_path_factory, spec_file):
    out = tmp_path_factory.mktemp("cli") / "controller.txt"
    assert main(["synth", str(spec_file), "-o", str(out)]) == 0
    return out


class TestSynth:
    def test_success_and_determinism(self, tmp_path, spec_file, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert main(["synth", str(spec_file), "-o", str(a)]) == 0
        assert main(["synth", str(spec_file), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_svg_output(self, tmp_path, spec_file):
        out = tmp_path / "c.txt"
        svg = tmp_path / "c.svg"
        assert main(["synth", str(spec_file), "-o", str(out),
                     "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<?xml")

    def test_bad_spec_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"system": "bicycle"}')
        out = tmp_path / "x.txt"
        assert main(["synth", str(bad), "-o", str(out)]) == 1
        assert "missing keys" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["synth", str(tmp_path / "nope.json"),
                     "-o", str(tmp_path / "x.txt")]) == 2

    def test_usage_error_exits_2(self):
        assert main(["synth"]) == 2
        assert main(["no-such-command"]) == 2
        assert main([]) == 2


class TestSimulate:
    def test_simulate_from_spec_initial(self, tmp_path, spec_file,
                                         controller_file, capsys):
        csv = tmp_path / "traj.csv"
        code = main(["simulate", str(spec_file), str(controller_file),
                     "-o", str(csv)])
        assert code == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0].startswith("time,")
        assert len(lines) > 2

    def test_simulate_stdout_and_svg(self, tmp_path, spec_file,
                                     controller_file, capsys):
        svg = tmp_path / "traj.svg"
        code = main(["simulate", str(spec_file), str(controller_file),
                     "--x0", "0.5,0.5,0.0", "--svg", str(svg)])
        assert code == 0
        assert "time," in capsys.readouterr().out
        assert 'class="trajectory"' in svg.read_text()

    def test_losing_start_exits_1(self, tmp_path, spec_file, controller_file):
        # the obstacle interior is never winning
        assert main(["simulate", str(spec_file), str(controller_file),
                     "--x0", "2.0,2.0,0.0"]) == 1

    def test_malformed_table_is_an_error_not_a_traceback(
        self, tmp_path, spec_file, controller_file
    ):
        src = str(Path(gs.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        for case in sorted(MALFORMED_TABLE_EDITS):
            lineno, bad = malformed_table(controller_file.read_text(), case)
            table = tmp_path / f"{case}.txt"
            table.write_text(bad)
            proc = subprocess.run(
                [sys.executable, "-m", "gridsynth.cli", "simulate",
                 str(spec_file), str(table)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 1, (case, proc.stderr)
            assert f"error: controller line {lineno}: " in proc.stderr, case
            assert "Traceback" not in proc.stderr, case

    def test_determinism(self, tmp_path, spec_file, controller_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["simulate", str(spec_file), str(controller_file),
                         "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestNl2Spec:
    def make_nl(self, tmp_path):
        nl = tmp_path / "task.txt"
        nl.write_text("Drive to the top-right pad avoiding the crate.\n")
        return nl

    def test_mock_accept(self, tmp_path, bicycle_spec, capsys):
        nl = self.make_nl(tmp_path)
        script = tmp_path / "script.txt"
        write_script([correct_response(bicycle_spec), "True"], script)
        out = tmp_path / "spec.json"
        code = main(["nl2spec", "--nl", str(nl), "--mock", str(script),
                     "-o", str(out)])
        assert code == 0
        parsed = gs.parse_spec(out.read_text())
        assert gs.semantic_diff(bicycle_spec, gs.canonicalize(parsed)).ok

    def test_mock_blocked_exits_1(self, tmp_path, bicycle_spec, capsys):
        nl = self.make_nl(tmp_path)
        script = tmp_path / "script.txt"
        write_script([
            correct_response(bicycle_spec), "the obstacle looks wrong",
            correct_response(bicycle_spec), "still looks wrong",
        ], script)
        code = main(["nl2spec", "--nl", str(nl), "--mock", str(script)])
        assert code == 1
        assert "still looks wrong" in capsys.readouterr().err

    def test_exhausted_script_exits_3(self, tmp_path, bicycle_spec):
        nl = self.make_nl(tmp_path)
        script = tmp_path / "script.txt"
        write_script([correct_response(bicycle_spec)], script)
        assert main(["nl2spec", "--nl", str(nl), "--mock", str(script)]) == 3

    def test_needs_a_client(self, tmp_path):
        nl = self.make_nl(tmp_path)
        assert main(["nl2spec", "--nl", str(nl)]) == 2


class TestEval:
    def test_all_correct_run(self, tmp_path):
        from gridsynth.bench import fixtures_dir, load_cases

        cases = load_cases(fixtures_dir())
        responses = []
        for case in cases:
            for _ in range(3):
                responses += [correct_response(case.ground_truth), "True"]
        script = tmp_path / "script.txt"
        write_script(responses, script)
        out = tmp_path / "report"
        code = main(["eval", "--strategy", "full_pipeline",
                     "--mock", str(script), "-o", str(out)])
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "robust/solved/incorrect: 20/20/0" in summary
        csv = (out / "report.csv").read_text().strip().split("\n")
        assert len(csv) == 61

    def test_eval_determinism(self, tmp_path):
        from gridsynth.bench import fixtures_dir, load_cases

        cases = load_cases(fixtures_dir())[:3]
        case_dir = tmp_path / "cases"
        for c in cases:
            d = case_dir / c.id
            d.mkdir(parents=True)
            (d / "spec.json").write_text(gs.serialize_spec(c.ground_truth))
            for i, p in enumerate(c.paraphrases, start=1):
                (d / f"paraphrase_{i}.txt").write_text(p)
        responses = []
        for case in cases:
            for _ in range(3):
                responses += [correct_response(case.ground_truth), "True"]
        script = tmp_path / "script.txt"
        write_script(responses, script)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["eval", "--strategy", "full_pipeline",
                         "--cases", str(case_dir),
                         "--mock", str(script), "-o", str(out)]) == 0
            outs.append((out / "report.csv").read_bytes()
                        + (out / "summary.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_strategy_is_usage_error(self, tmp_path):
        assert main(["eval", "-o", str(tmp_path / "r")]) == 2
