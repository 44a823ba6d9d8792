import json
import math
import os
import shutil
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import gridsynth as gs
from gridsynth import abstraction
from gridsynth.agents import write_script
from gridsynth.bench import fixtures_dir
from gridsynth.cli import main

from conftest import (
    MALFORMED_TABLE_EDITS,
    bicycle_spec_text,
    correct_response,
    fenced,
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


def fixture_spec(case):
    return fixtures_dir() / case / "spec.json"


@pytest.fixture(scope="module")
def case01_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "case01.txt"
    assert main(["synth", str(fixture_spec("case01_warehouse_crate")), "-o", str(out)]) == 0
    return out


def run_python(*argv, stdin=None):
    """A fresh interpreter that imports this checkout's gridsynth."""
    src = str(Path(gs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=env, timeout=120, stdin=stdin,
    )


def run_cli(*argv, stdin=None):
    """The CLI in a fresh interpreter, so a traceback would reach stderr."""
    return run_python("-m", "gridsynth.cli", *argv, stdin=stdin)


def test_import_loads_numpy_and_the_standard_library_only():
    done = run_python("-c", (
        "import sys; before = set(sys.modules); import gridsynth, gridsynth.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'requests'))); "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before} "
        "- set(sys.stdlib_module_names)))"
    ))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "['gridsynth', 'numpy']"]


class TestSynth:
    def test_success_and_determinism(self, tmp_path, spec_file, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert main(["synth", str(spec_file), "-o", str(a)]) == 0
        assert main(["synth", str(spec_file), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_summary_names_the_relation_store(self, tmp_path, spec_file, capsys, monkeypatch):
        out = tmp_path / "r.txt"
        assert main(["synth", str(spec_file), "-o", str(out)]) == 0
        err = capsys.readouterr().err
        assert "\nrelation: stencil\n" in err
        # spec_file is case01's spec, 12,400 cells x 49 inputs; both stores
        # count the same pairs
        blocked = "\nblocked pairs: 90964 of 607600, non-finite: 0\n"
        assert blocked in err
        eta = gs.parse_spec(spec_file.read_text()).build_grid().eta
        real = abstraction.integrate_path

        def moved(f, x0, u, tau):
            # the first diagonal row lands a cell further in heading, so the
            # cells of its class disagree on their box; the (S, n) batch of
            # the per-cell build that follows passes through unchanged
            path = real(f, x0, u, tau)
            if path.ndim == 4:
                path[-1, 0, 0, 2] += eta[2]
            return path

        monkeypatch.setattr(abstraction, "integrate_path", moved)
        main(["synth", str(spec_file), "-o", str(out)])
        err = capsys.readouterr().err
        assert (
            "\nrelation: csr (fallback: input 0, class 0: its cells' successor boxes differ)\n"
            in err
        )
        assert blocked in err

    def test_svg_output(self, tmp_path, spec_file):
        out = tmp_path / "c.txt"
        svg = tmp_path / "c.svg"
        assert main(["synth", str(spec_file), "-o", str(out),
                     "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<?xml")

    def test_warnings_are_printed_on_stderr(self, tmp_path):
        spec = fixtures_dir() / "case14_river_crossing" / "spec.json"
        proc = run_cli("synth", str(spec), "-o", str(tmp_path / "c14.txt"))
        assert proc.returncode == 1, proc.stderr
        assert ("warning: no initial cell is winning for stage 0 (EmptyWinningSet)\n"
                in proc.stderr)

    def test_bad_spec_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"system": "bicycle"}')
        out = tmp_path / "x.txt"
        assert main(["synth", str(bad), "-o", str(out)]) == 1
        assert "missing keys" in capsys.readouterr().err

    def test_initial_point_in_no_cell_exits_1(self, tmp_path, capsys):
        doc = json.loads((fixtures_dir() / "case07_open_field" / "spec.json").read_text())
        doc["initial"] = {"point": [4.0, 0.5, 0.0]}
        bad = tmp_path / "edge.json"
        bad.write_text(json.dumps(doc))
        assert main(["synth", str(bad), "-o", str(tmp_path / "x.txt")]) == 1
        assert "initial point in no grid cell" in capsys.readouterr().err
        assert not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize("override, message", [
        # 40,000 x 40,000 x 31 cells: no per-cell array is made
        ({"eta_x": [1e-4, 1e-4, 0.2]},
         "spec needs 49600000000 cells x 49 inputs = 2.43e+12 entries, "
         "over the size budget of 16777216"),
        # 2,000,001 x 2,000,001 inputs: the input grid is not made
        ({"eta_u": [1e-6, 1e-6]},
         "spec needs 12400 cells x 4000004000001 inputs = 4.96e+16 entries"),
        ({"eta_u": [1e-309, 0.3]}, "eta_u 1e-309 is too small for its input bounds"),
    ])
    def test_spec_past_the_size_budget_exits_1(self, tmp_path, capsys, override, message):
        big = tmp_path / "big.json"
        big.write_text(bicycle_spec_text(**override))
        assert main(["synth", str(big), "-o", str(tmp_path / "x.txt")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize("key, i, value, axis", [
        ("state_bounds", 0, 1e308, 0),  # an inf ratio on a bounded axis
        ("eta_x", 2, 1e-308, 2),  # and on the periodic heading
    ])
    def test_cells_per_axis_past_int64_exits_1(self, tmp_path, key, i, value, axis):
        doc = json.loads(fixture_spec("case01_warehouse_crate").read_text())
        (doc[key]["upper"] if key == "state_bounds" else doc[key])[i] = value
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("synth", str(bad), "-o", str(tmp_path / "x.txt"))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"error: axis {axis}: "), proc.stderr
        assert "warning:" not in proc.stderr and "Traceback" not in proc.stderr

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
        for case in sorted(MALFORMED_TABLE_EDITS):
            lineno, bad = malformed_table(controller_file.read_text(), case)
            table = tmp_path / f"{case}.txt"
            table.write_text(bad)
            proc = run_cli("simulate", str(spec_file), str(table))
            assert proc.returncode == 1, (case, proc.stderr)
            assert f"error: controller line {lineno}: " in proc.stderr, case
            assert "Traceback" not in proc.stderr, case

    def test_table_for_another_system_is_an_error_not_a_traceback(
        self, tmp_path, spec_file, controller_file
    ):
        # the same table rewritten for one input: header and every row
        lines = [
            "# input_dim: 1" if line.startswith("# input_dim:")
            else line if line.startswith("#") else " ".join(line.split()[:-1])
            for line in controller_file.read_text().splitlines()
        ]
        table = tmp_path / "one_input.txt"
        table.write_text("\n".join(lines) + "\n")
        proc = run_cli("simulate", str(spec_file), str(table))
        assert proc.returncode == 1, proc.stderr
        assert ("error: controller has state dimension 3 and input dimension 1; "
                "field 'bicycle' has 3 and 2") in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_table_for_another_grid_is_an_error_not_a_traceback(self, case01_table):
        # case01's 4 x 4 m table replayed on case11's 5 x 5 m task
        proc = run_cli("simulate", str(fixture_spec("case11_clearance_corridor")),
                       str(case01_table))
        assert proc.returncode == 1, proc.stderr
        assert ("error: controller table was built for another grid: its state_upper is "
                "[4.0, 4.0, 3.141592653589793], the spec's grid has "
                "[5.0, 5.0, 3.141592653589793]\n") in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_table_past_the_size_budget_is_an_error_not_a_traceback(
        self, tmp_path, case01_table
    ):
        # the header claims 4,000 x 4,000 x 2,000 cells; no per-cell array is made
        lines = case01_table.read_text().splitlines()
        assert lines[3].startswith("# eta:")
        lines[3] = f"# eta: 0.001 0.001 {2 * math.pi / 2000!r}"
        table = tmp_path / "huge.txt"
        table.write_text("\n".join(lines) + "\n")
        proc = run_cli("simulate", str(fixture_spec("case01_warehouse_crate")), str(table))
        assert proc.returncode == 1, proc.stderr
        assert ("error: controller table needs 32000000000 cells x 1 stages x 4 numbers "
                "= 1.28e+11 entries, over the size budget of 16777216\n") in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_x0_or_steps_is_a_usage_error_not_a_traceback(
        self, spec_file, controller_file
    ):
        for flags in (["--x0", "a,b,c"], ["--x0", "1,2"], ["--x0", "1,2,3,4"],
                      ["--x0", "nan,0.5,0"], ["--x0", "0.5,inf,0"],
                      ["--steps", "-3"]):
            proc = run_cli("simulate", str(spec_file), str(controller_file), *flags)
            assert proc.returncode == 2, (flags, proc.stderr)
            assert "usage error: " in proc.stderr, flags
            assert "Traceback" not in proc.stderr, flags

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
        assert gs.semantic_diff(bicycle_spec, parsed)

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

    def test_failing_endpoint_exits_3(self, tmp_path, monkeypatch, capsys):
        calls = []

        def refuse(request, timeout=None):
            calls.append(request.full_url)
            raise urllib.error.URLError("connection refused")

        monkeypatch.setenv("GRIDSYNTH_LLM_KEY", "sk-test")
        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        nl = self.make_nl(tmp_path)
        code = main(["nl2spec", "--nl", str(nl), "--base-url", "http://llm.test/v1",
                     "--model", "model-x"])
        assert code == 3
        assert calls == ["http://llm.test/v1/chat/completions"] * 3
        assert "client error" in capsys.readouterr().err

    def test_log_raw_is_gone(self, tmp_path, capsys):
        nl = self.make_nl(tmp_path)
        assert main(["nl2spec", "--nl", str(nl), "--mock", str(nl), "--log-raw"]) == 2


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

    @pytest.mark.parametrize("reply", [
        '{"trajectory": [[0.0, "a", 1.0]]}',
        '{"trajectory": [1, 2]}',
        '{"trajectory": [[0.0, 1.0], [1.0, 1.0, 2.0]]}',
        "[1, 2]",
        '{"trajectory": [[0.0], [1.0]]}',
        '{"trajectory": [[0.0, 3.4], [1.0, 3.4]]}',
    ], ids=["string-entry", "number-rows", "ragged-rows", "top-level-list", "time-only",
            "one-coordinate"])
    def test_malformed_direct_plan_is_incorrect_execution(self, tmp_path, reply):
        case_dir = tmp_path / "cases"
        shutil.copytree(fixtures_dir() / "case01_warehouse_crate",
                        case_dir / "case01_warehouse_crate")
        script = tmp_path / "script.txt"
        write_script([fenced(reply)] * 3, script)
        out = tmp_path / "report"
        assert main(["eval", "--strategy", "direct_llm", "--cases", str(case_dir),
                     "--mock", str(script), "-o", str(out)]) == 0
        rows = (out / "report.csv").read_text().strip().split("\n")[1:]
        assert [r.split(",")[-1] for r in rows] == ["IncorrectExecution"] * 3

    def test_direct_plan_without_heading_for_a_heading_target(self, tmp_path):
        case_dir = tmp_path / "cases" / "case01_warehouse_crate"
        shutil.copytree(fixtures_dir() / case_dir.name, case_dir)
        doc = json.loads((case_dir / "spec.json").read_text())
        doc["targets"] = [{"kind": "diagonal", "points": [[3, 3, -1], [3.8, 3.8, 1]]}]
        (case_dir / "spec.json").write_text(json.dumps(doc))
        script = tmp_path / "script.txt"
        plan = '{"trajectory": [[0, 0.5, 0.5], [1, 3.4, 3.4]]}'
        write_script([fenced(plan)] * 3, script)
        out = tmp_path / "report"
        proc = run_cli("eval", "--strategy", "direct_llm", "--cases", str(tmp_path / "cases"),
                       "--mock", str(script), "-o", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        rows = (out / "report.csv").read_text().strip().split("\n")[1:]
        assert [r.split(",")[-1] for r in rows] == ["IncorrectExecution"] * 3


class TestUnreadableFiles:
    def test_unreadable_file_is_a_usage_error_not_a_traceback(
        self, tmp_path, spec_file, controller_file
    ):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(b"caf\xe9 au lait\n")
        nl = tmp_path / "task.txt"
        nl.write_text("Drive to the pad.\n")
        missing = tmp_path / "missing.txt"
        for bad, argv in (
            (latin1, ["synth", str(latin1), "-o", str(tmp_path / "x.txt")]),
            (tmp_path, ["synth", str(tmp_path), "-o", str(tmp_path / "x.txt")]),
            (missing, ["simulate", str(missing), str(controller_file)]),
            (latin1, ["simulate", str(spec_file), str(latin1)]),
            (latin1, ["nl2spec", "--nl", str(latin1), "--mock", str(nl)]),
            (latin1, ["nl2spec", "--nl", str(nl), "--mock", str(latin1)]),
        ):
            proc = run_cli(*argv)
            assert proc.returncode == 2, (argv, proc.stderr)
            assert "usage error: " in proc.stderr, argv
            assert str(bad) in proc.stderr, argv
            assert "Traceback" not in proc.stderr, argv

    def test_case_without_spec_is_an_error_not_a_traceback(self, tmp_path):
        case_dir = tmp_path / "cases" / "case01"
        case_dir.mkdir(parents=True)
        script = tmp_path / "script.txt"
        write_script(["unused"], script)
        proc = run_cli("eval", "--strategy", "code_agent_only",
                       "--cases", str(tmp_path / "cases"), "--mock", str(script),
                       "-o", str(tmp_path / "report"))
        assert proc.returncode == 1, proc.stderr
        assert f"error: cannot read case file {case_dir / 'spec.json'}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_utf8_stdin_is_a_usage_error_not_a_traceback(self, tmp_path):
        raw = tmp_path / "raw.bin"
        raw.write_bytes(b"\xff\xfe")
        script = tmp_path / "script.txt"
        write_script(["unused"], script)
        with raw.open("rb") as stdin:
            proc = run_cli("nl2spec", "--nl", "-", "--mock", str(script), stdin=stdin)
        assert proc.returncode == 2, proc.stderr
        assert "usage error: standard input is not UTF-8 text" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_invalid_case_spec_names_its_file(self, tmp_path):
        case_dir = tmp_path / "cases" / "case01_warehouse_crate"
        shutil.copytree(fixtures_dir() / case_dir.name, case_dir)
        doc = json.loads((case_dir / "spec.json").read_text())
        doc["tau"] = -1
        (case_dir / "spec.json").write_text(json.dumps(doc))
        script = tmp_path / "script.txt"
        write_script(["unused"], script)
        proc = run_cli("eval", "--strategy", "code_agent_only",
                       "--cases", str(tmp_path / "cases"), "--mock", str(script),
                       "-o", str(tmp_path / "report"))
        assert proc.returncode == 1, proc.stderr
        assert f"error: {case_dir / 'spec.json'}: " in proc.stderr
        assert "tau" in proc.stderr
        assert "Traceback" not in proc.stderr
