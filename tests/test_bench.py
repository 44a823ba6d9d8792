import dataclasses
import json

import pytest

import gridsynth as gs
from gridsynth.agents import MockClient
from gridsynth.bench import (
    CODE_AGENT_ONLY,
    CORRECT_CHECKED,
    CORRECT_NOT_CHECKED,
    DIRECT_LLM,
    FULL_PIPELINE,
    INCORRECT_BLOCKED,
    INCORRECT_EXECUTION,
    categorize,
    fixtures_dir,
    load_cases,
    robustness,
    run_benchmark,
    run_paraphrase,
)
from gridsynth.errors import GridSynthError
from gridsynth.geometry import TwoDiagonalVertices

from conftest import correct_response, fenced, perturbed_response


@pytest.fixture(scope="module")
def cases():
    return load_cases(fixtures_dir())


class TestFixtures:
    def test_twenty_cases(self, cases):
        assert len(cases) == 20
        assert all(len(c.paraphrases) == 3 for c in cases)
        assert [c.id for c in cases] == sorted(c.id for c in cases)

    def test_ground_truths_canonical_and_distinct(self, cases):
        for c in cases:
            assert len(c.ground_truth.target_rects) == len(c.ground_truth.targets)
        ids = {c.id for c in cases}
        assert len(ids) == 20

    def test_paraphrases_are_distinct_text(self, cases):
        for c in cases:
            assert len(set(c.paraphrases)) == 3


class TestCategorize:
    def test_code_agent_correct(self, cases):
        case = cases[0]
        client = MockClient([correct_response(case.ground_truth)])
        result = run_paraphrase(CODE_AGENT_ONLY, client, case.paraphrases[0])
        cat, fb = categorize(CODE_AGENT_ONLY, result, case.ground_truth)
        assert cat == CORRECT_NOT_CHECKED and not fb

    def test_code_agent_wrong_spec(self, cases):
        case = cases[0]
        client = MockClient([perturbed_response(case.ground_truth)])
        result = run_paraphrase(CODE_AGENT_ONLY, client, case.paraphrases[0])
        cat, _ = categorize(CODE_AGENT_ONLY, result, case.ground_truth)
        assert cat == INCORRECT_EXECUTION

    def test_pipeline_accepted_correct(self, cases):
        case = cases[0]
        client = MockClient([correct_response(case.ground_truth), "True"])
        result = run_paraphrase(FULL_PIPELINE, client, case.paraphrases[0])
        cat, fb = categorize(FULL_PIPELINE, result, case.ground_truth)
        assert cat == CORRECT_CHECKED and not fb

    def test_pipeline_accepted_wrong_is_incorrect_execution(self, cases):
        case = cases[0]
        client = MockClient([perturbed_response(case.ground_truth), "True"])
        result = run_paraphrase(FULL_PIPELINE, client, case.paraphrases[0])
        cat, _ = categorize(FULL_PIPELINE, result, case.ground_truth)
        assert cat == INCORRECT_EXECUTION

    def test_pipeline_blocked(self, cases):
        case = cases[0]
        bad = perturbed_response(case.ground_truth)
        client = MockClient([bad, "wrong", bad, "still wrong"])
        result = run_paraphrase(FULL_PIPELINE, client, case.paraphrases[0])
        cat, fb = categorize(FULL_PIPELINE, result, case.ground_truth)
        assert cat == INCORRECT_BLOCKED and not fb

    def test_pipeline_false_block_flagged(self, cases):
        case = cases[0]
        good = correct_response(case.ground_truth)
        client = MockClient([good, "reject", good, "reject again"])
        result = run_paraphrase(FULL_PIPELINE, client, case.paraphrases[0])
        cat, fb = categorize(FULL_PIPELINE, result, case.ground_truth)
        assert cat == INCORRECT_BLOCKED and fb

    def test_direct_llm_good_path(self, cases):
        case = cases[0]
        gt = case.ground_truth
        tgt = gt.target_rects[-1]
        goal = (tgt.lower + tgt.upper) / 2
        start = gt.initial_point[:2]
        plan = {"trajectory": [
            [0.0, float(start[0]), float(start[1])],
            [1.0, float(goal[0]), float(start[1])],
            [2.0, float(goal[0]), float(goal[1])],
        ]}
        client = MockClient([fenced(json.dumps(plan))])
        result = run_paraphrase(DIRECT_LLM, client, case.paraphrases[0])
        cat, _ = categorize(DIRECT_LLM, result, gt)
        assert cat == CORRECT_NOT_CHECKED

    def test_direct_llm_stationary_fails(self, cases):
        case = cases[0]
        start = case.ground_truth.initial_point[:2]
        plan = {"trajectory": [
            [0.0, float(start[0]), float(start[1])],
            [1.0, float(start[0]) + 0.01, float(start[1])],
        ]}
        client = MockClient([fenced(json.dumps(plan))])
        result = run_paraphrase(DIRECT_LLM, client, case.paraphrases[0])
        cat, _ = categorize(DIRECT_LLM, result, case.ground_truth)
        assert cat == INCORRECT_EXECUTION

    def test_direct_llm_plan_without_heading_for_a_heading_target(self, cases):
        # a 3-D target constrains the heading, which an [t, x, y] plan does
        # not give: the plan cannot be certified, and is recorded as such
        case = cases[0]
        target = TwoDiagonalVertices((3.0, 3.0, -1.0), (3.8, 3.8, 1.0))
        gt = dataclasses.replace(case.ground_truth, targets=(target,))
        plan = {"trajectory": [[0.0, 0.5, 0.5], [1.0, 3.4, 3.4]]}
        client = MockClient([fenced(json.dumps(plan))] * 3)
        report = run_benchmark([dataclasses.replace(case, ground_truth=gt)], DIRECT_LLM, client)
        assert report.rows == [(case.id, i, INCORRECT_EXECUTION, False) for i in (1, 2, 3)]
        assert list(report.errors.values()) == [
            "target 0 has 3 dimensions, the trajectory's states 2"
        ] * 3


class TestRobustness:
    def test_all_correct_is_robust(self):
        assert robustness([CORRECT_CHECKED] * 3) == "robust"

    def test_mixed_is_solved(self):
        assert robustness(
            [CORRECT_CHECKED, INCORRECT_BLOCKED, INCORRECT_EXECUTION]
        ) == "solved"

    def test_none_is_incorrect(self):
        assert robustness([INCORRECT_EXECUTION, INCORRECT_BLOCKED,
                           INCORRECT_EXECUTION]) == "incorrect"

    def test_requires_three(self):
        with pytest.raises(GridSynthError):
            robustness([CORRECT_CHECKED])


class TestRunBenchmark:
    def test_all_correct_counts(self, cases):
        responses = []
        for case in cases:
            for _ in range(3):
                responses += [correct_response(case.ground_truth), "True"]
        report = run_benchmark(cases, FULL_PIPELINE, MockClient(responses))
        assert len(report.rows) == 60
        assert report.category_counts[CORRECT_CHECKED] == 60
        assert report.verdict_counts == {
            "robust": 20, "solved": 20, "incorrect": 0,
        }

    def test_category_partition(self, cases):
        # a mixed script still yields exactly one category per paraphrase
        responses = []
        for i, case in enumerate(cases):
            for p in range(3):
                if (i + p) % 4 == 0:
                    bad = perturbed_response(case.ground_truth)
                    responses += [bad, "reject", bad, "reject"]
                else:
                    responses += [correct_response(case.ground_truth), "True"]
        report = run_benchmark(cases, FULL_PIPELINE, MockClient(responses))
        assert sum(report.category_counts.values()) == 60

    def test_deterministic(self, cases):
        def make():
            responses = []
            for case in cases:
                for _ in range(3):
                    responses += [correct_response(case.ground_truth), "True"]
            return run_benchmark(cases, FULL_PIPELINE, MockClient(responses))

        a, b = make(), make()
        assert a.rows == b.rows
        assert a.to_csv() == b.to_csv()
        assert a.summary_text() == b.summary_text()

    def test_client_error_recorded_not_fatal(self, cases):
        # starve the script: every paraphrase after the first errors out
        subset = cases[:2]
        responses = [correct_response(subset[0].ground_truth), "True"]
        report = run_benchmark(subset, FULL_PIPELINE, MockClient(responses))
        assert len(report.rows) == 6
        assert report.category_counts[CORRECT_CHECKED] == 1
        assert len(report.errors) == 5

    def test_csv_layout(self, cases):
        subset = cases[:1]
        responses = [correct_response(subset[0].ground_truth), "True"] * 3
        report = run_benchmark(subset, FULL_PIPELINE, MockClient(responses))
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "case,paraphrase,strategy,category"
        assert len(lines) == 4
        assert lines[1].split(",")[1] == "1"
