"""Tests of the benchmark's own pieces.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gridsynth import agents, bench, dynamics, pipeline, simulator  # noqa: E402

import casegen  # noqa: E402
import checks  # noqa: E402
import drift  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def fixtures():
    return {c.id: c for c in bench.load_cases(bench.fixtures_dir())}


def test_drift_jacobian_within_growth_bound():
    """Central differences, sampled over the operating box, never exceed GROWTH.

    A central difference is a mean of the derivative over [x - h, x + h], so
    by the mean value theorem it cannot exceed a true bound of |df_i/dx_j|.
    """
    rng = np.random.default_rng(0)
    n = 20000
    x = np.column_stack(
        [rng.uniform(0.0, 12.0, n), rng.uniform(0.0, 12.0, n), rng.uniform(-np.pi, np.pi, n)]
    )
    u = np.column_stack(
        [rng.uniform(-drift.V_MAX, drift.V_MAX, n), rng.uniform(-drift.OMEGA_MAX, drift.OMEGA_MAX, n)]
    )
    h = 1e-6
    worst = np.zeros((3, 3))
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        jac = (drift.drift_f(x + step, u) - drift.drift_f(x - step, u)) / (2 * h)
        worst[:, j] = np.abs(jac).max(axis=0)
    assert np.all(worst <= drift.GROWTH + 1e-6), worst
    # the bound is attained up to sampling: it is not loose by a factor
    assert np.all(worst >= 0.95 * drift.GROWTH)


def test_segment_test_catches_the_case01_crate_crossing(fixtures):
    gt = fixtures["case01_warehouse_crate"].ground_truth
    plan = np.array(casegen.SKIP_PLANS[("case01_warehouse_crate", 1)])
    assert checks.reach_avoid_points(plan, gt)
    assert not checks.reach_avoid_segments(plan, gt)
    traj = simulator.Trajectory.from_waypoints(np.arange(len(plan), dtype=float), plan)
    # the program's sample-point check accepts the plan; this is the fault
    # that makes these plans failed operations in every workload
    assert simulator.check_reach_avoid(traj, gt).satisfied


def test_segments_hit_box_edges():
    lo, hi = np.array([1.0, 1.0]), np.array([2.0, 2.0])
    p = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 3.0], [1.5, 1.5], [2.5, 0.0]])
    q = np.array([[3.0, 3.0], [0.9, 1.0], [3.0, 2.0000001], [1.5, 1.5], [2.0, 0.5]])
    assert segments_hit(p, q, lo, hi) == [True, False, False, True, False]
    assert checks.segments_hit_box(np.array([[0.0, 1.0]]), np.array([[1.0, 1.0]]), lo, hi)[0]


def segments_hit(p, q, lo, hi):
    return checks.segments_hit_box(p, q, lo, hi).tolist()


@pytest.mark.parametrize("seed", [0, 1])
def test_scripts_give_the_expected_categories(fixtures, seed):
    cases = list(fixtures.values())
    script = casegen.build_script(cases, np.random.default_rng(seed), must_accept=workloads.FIXTURE_SYNTH)
    for strategy in bench.STRATEGIES:
        client = agents.MockClient(responses=script.responses[strategy])
        report = bench.run_benchmark(cases, strategy, client)
        assert client._cursor == len(client.responses)
        wrong = [
            (cid, p)
            for cid, p, cat, fb in report.rows
            if (cat, fb) != script.expected[(strategy, cid, p)]
        ]
        assert wrong == (sorted(casegen.SKIP_PLANS) if strategy == bench.DIRECT_LLM else [])


def test_persona_mix_does_not_depend_on_the_seed(fixtures):
    cases = sorted(fixtures.values(), key=lambda c: c.id)

    def mix(seed):
        spec_b, plan_b = casegen.deal(cases, np.random.default_rng(seed), workloads.FIXTURE_SYNTH)
        accepting = {
            cid: any(spec_b[(cid, p)] in casegen.ACCEPTING for p in (1, 2, 3))
            for cid in workloads.FIXTURE_SYNTH
        }
        assert all(accepting.values())
        return sorted(spec_b.values())

    assert mix(0) == mix(1) == mix(7)


@pytest.mark.parametrize("slot", [workloads.REPLAY_SLOTS[1], workloads.FRESH_SYNTH_SLOTS[1]])
def test_generated_cases_parse_and_have_plans(slot):
    rng = np.random.default_rng(3)
    for k in range(5):
        case = casegen.generate_case(rng, f"g{k}", "bicycle", slot)
        gt = case.ground_truth
        assert len(gt.target_rects) == slot["targets"]
        assert gt.build_grid().shape == tuple(slot["shape"])
        assert checks.reach_avoid_segments(np.array(casegen.plan_waypoints(gt)), gt)


def test_synthesis_checks_pass_real_output_and_catch_a_broken_value():
    case = casegen.generate_case(np.random.default_rng(5), "g", "bicycle", workloads.REPLAY_SLOTS[1])
    res = pipeline.synthesize(case.ground_truth)
    checks.check_fixed_point(res)
    checks.check_sampled_soundness(res, dynamics.bicycle_f, np.random.default_rng(0), pairs=8)
    stage = res.controller.stages[0]
    stage.value[np.flatnonzero(stage.winning & (stage.value > 1))[0]] = 1
    with pytest.raises(checks.CheckFailed, match="value not smaller"):
        checks.check_fixed_point(res)
