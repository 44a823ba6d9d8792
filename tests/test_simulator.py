import numpy as np
import pytest

import gridsynth as gs
from gridsynth.dynamics import BICYCLE
from gridsynth.errors import NonFinite
from gridsynth.simulator import (
    Termination,
    Trajectory,
    check_reach_avoid,
    render_svg,
    simulate_closed_loop,
    trajectory_to_csv,
)
from gridsynth.synthesis import StagePolicy


def traj_through(points, dt=0.1):
    times = [i * dt for i in range(len(points))]
    return Trajectory.from_waypoints(times, np.asarray(points, dtype=float))


def line_controller(winning, goal, u):
    """One-stage controller on ten unit cells over [0, 10] with one input."""
    pol = StagePolicy(
        winning=np.asarray(winning, dtype=bool),
        choice=np.zeros(10, dtype=np.int64),
        value=np.ones(10, dtype=np.int64),
        goal=frozenset(goal),
    )
    ctrl = gs.SymbolicController(stages=[pol], inputs=np.array([[u]]))
    return gs.ConcreteController(ctrl, gs.UniformGrid(gs.HyperRect([0.0], [10.0]), [1.0]))


SHIFT = gs.VectorField("shift", 1, 1, lambda x, u: np.broadcast_to(u, x.shape))


class TestClosedLoop:
    def test_reaches_target(self, bicycle_spec, bicycle_result):
        ctrl = bicycle_result.concrete_controller()
        traj = simulate_closed_loop(
            BICYCLE, ctrl, [0.5, 0.5, 0.0], bicycle_spec.tau, max_steps=200
        )
        assert traj.termination.kind == "ReachedTarget"
        verdict = check_reach_avoid(traj, bicycle_spec)
        assert verdict.satisfied
        assert verdict.first_violation is None
        assert verdict.t_f == pytest.approx(traj.termination.time)

    def test_fine_states_are_substep_resolution(self, bicycle_spec, bicycle_result):
        ctrl = bicycle_result.concrete_controller()
        traj = simulate_closed_loop(
            BICYCLE, ctrl, [0.5, 0.5, 0.0], bicycle_spec.tau, max_steps=200
        )
        steps = len(traj.samples) - 1
        assert traj.fine_states.shape == (steps * 5 + 1, 3)
        # every tau sample appears among the fine states
        for i, (t, x, _) in enumerate(traj.samples):
            assert np.allclose(traj.fine_states[i * 5], x)

    def test_outside_winning_terminates(self, bicycle_spec, bicycle_result):
        ctrl = bicycle_result.concrete_controller()
        # start inside an obstacle cell: never winning
        cell = next(iter(bicycle_result.labels.obstacle_cells))
        x0 = bicycle_result.grid.center_of(cell)
        traj = simulate_closed_loop(BICYCLE, ctrl, x0, bicycle_spec.tau, 50)
        assert traj.termination.kind == "LeftWinningSet"
        assert not check_reach_avoid(traj, bicycle_spec).satisfied

    def test_step_limit(self, bicycle_spec, bicycle_result):
        ctrl = bicycle_result.concrete_controller()
        traj = simulate_closed_loop(
            BICYCLE, ctrl, [0.5, 0.5, 0.0], bicycle_spec.tau, max_steps=2
        )
        assert traj.termination.kind == "StepLimit"

    def test_refused_last_sample_is_step_limit(self):
        # only cell 0 is winning; one step moves the state into cell 1
        winning = np.arange(10) == 0
        for max_steps, kind in ((1, "StepLimit"), (2, "LeftWinningSet")):
            ctrl = line_controller(winning, {9}, 1.0)
            traj = simulate_closed_loop(SHIFT, ctrl, [0.5], 1.0, max_steps)
            assert traj.termination == Termination(kind, 1.0)
            assert len(traj.samples) == 2

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nonfinite_step_raises(self):
        blowup = gs.VectorField("blowup", 1, 1, lambda x, u: x * x * 1e3)
        ctrl = line_controller(np.ones(10), {9}, 0.0)
        with pytest.raises(NonFinite):
            simulate_closed_loop(blowup, ctrl, [5.5], 10.0, max_steps=5)

    def test_one_cell_lookup_per_sample(self, bicycle_spec, bicycle_result,
                                        monkeypatch):
        calls = []
        cell_of = gs.UniformGrid.cell_of

        def counted(grid, x):
            calls.append(x)
            return cell_of(grid, x)

        monkeypatch.setattr(gs.UniformGrid, "cell_of", counted)
        traj = simulate_closed_loop(
            BICYCLE, bicycle_result.concrete_controller(), [0.5, 0.5, 0.0],
            bicycle_spec.tau, max_steps=200,
        )
        assert traj.termination.kind == "ReachedTarget"
        assert len(traj.samples) > 2
        assert len(calls) == len(traj.samples)

    def test_start_in_target(self, bicycle_spec, bicycle_result):
        ctrl = bicycle_result.concrete_controller()
        traj = simulate_closed_loop(
            BICYCLE, ctrl, [3.4, 3.4, 0.0], bicycle_spec.tau, max_steps=10
        )
        assert traj.termination.kind == "ReachedTarget"
        assert traj.termination.time == 0.0


class TestCheckReachAvoid:
    def test_straight_line_hit(self, bicycle_spec):
        traj = traj_through([[0.5, 0.5, 0.0], [3.4, 0.5, 0.0],
                             [3.4, 3.4, 0.0]])
        assert check_reach_avoid(traj, bicycle_spec).satisfied

    def test_never_reaches(self, bicycle_spec):
        traj = traj_through([[0.5, 0.5, 0.0], [0.6, 0.5, 0.0]])
        v = check_reach_avoid(traj, bicycle_spec)
        assert not v.satisfied
        assert v.t_f is None

    def test_through_obstacle(self, bicycle_spec):
        traj = traj_through([[0.5, 0.5, 0.0], [2.0, 2.0, 0.0],
                             [3.4, 3.4, 0.0]])
        v = check_reach_avoid(traj, bicycle_spec)
        assert not v.satisfied
        assert v.first_violation is not None
        assert v.first_violation[1] == 0

    def test_obstacle_after_target_ignored(self, bicycle_spec):
        traj = traj_through([[0.5, 0.5, 0.0], [3.4, 0.5, 0.0],
                             [3.4, 3.4, 0.0], [2.0, 2.0, 0.0]])
        assert check_reach_avoid(traj, bicycle_spec).satisfied

    def test_sequential_requires_order(self):
        from conftest import bicycle_spec_doc
        import json

        doc = bicycle_spec_doc()
        doc["targets"] = [
            {"kind": "diagonal", "points": [[3.0, 3.0], [3.8, 3.8]]},
            {"kind": "diagonal", "points": [[0.2, 3.0], [0.8, 3.8]]},
        ]
        spec = gs.parse_spec(json.dumps(doc))
        in_order = traj_through([[0.5, 0.5, 0.0], [3.4, 0.5, 0.0],
                                 [3.4, 3.4, 0.0], [0.5, 3.4, 0.0]])
        wrong_order = traj_through([[0.5, 0.5, 0.0], [0.5, 3.4, 0.0],
                                    [3.4, 3.4, 0.0]])
        assert check_reach_avoid(in_order, spec).satisfied
        assert not check_reach_avoid(wrong_order, spec).satisfied
        # second-target-only never counts even if visited repeatedly
        only_last = traj_through([[0.5, 0.5, 0.0], [0.5, 3.4, 0.0],
                                  [0.5, 3.4, 0.0]])
        assert not check_reach_avoid(only_last, spec).satisfied

    def test_empty_trajectory_unsatisfied(self, bicycle_spec):
        traj = Trajectory.from_waypoints([], np.zeros((0, 3)))
        assert not check_reach_avoid(traj, bicycle_spec).satisfied


class TestOutputs:
    def test_csv_shape(self, bicycle_spec, bicycle_result):
        ctrl = bicycle_result.concrete_controller()
        traj = simulate_closed_loop(
            BICYCLE, ctrl, [0.5, 0.5, 0.0], bicycle_spec.tau, max_steps=200
        )
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "time,x1,x2,x3,u1,u2"
        assert len(lines) == len(traj.samples) + 1
        assert len(lines[1].split(",")) == 1 + 3 + 2

    def test_csv_deterministic(self, bicycle_spec, bicycle_result):
        ctrl = bicycle_result.concrete_controller()

        def run():
            c = bicycle_result.concrete_controller()
            return trajectory_to_csv(simulate_closed_loop(
                BICYCLE, c, [0.5, 0.5, 0.0], bicycle_spec.tau, max_steps=200
            ))

        assert run() == run()

    def test_svg_deterministic(self, bicycle_spec):
        traj = traj_through([[0.5, 0.5, 0.0], [3.4, 0.5, 0.0],
                             [3.4, 3.4, 0.0]])
        assert render_svg(bicycle_spec, traj) == render_svg(bicycle_spec, traj)

    def test_svg_element_counts(self, bicycle_spec):
        svg = render_svg(bicycle_spec)
        assert svg.startswith("<?xml")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count('class="obstacle"') == len(bicycle_spec.obstacle_rects)
        assert svg.count('class="target"') == len(bicycle_spec.target_rects)

    def test_svg_with_trajectory_and_winning(self, bicycle_spec, bicycle_result):
        traj = traj_through([[0.5, 0.5, 0.0], [3.4, 3.4, 0.0]])
        grid = bicycle_result.grid
        cells = list(bicycle_result.labels.target_stages[0])[:5]
        rects = [grid.cell_box(c) for c in cells]
        svg = render_svg(bicycle_spec, traj, winning_rects=rects)
        assert 'class="trajectory"' in svg
        assert svg.count('class="winning"') == len(rects)

    def test_svg_no_scientific_notation(self, bicycle_spec):
        traj = traj_through([[1e-7, 1e-7, 0.0], [3.4, 3.4, 0.0]])
        svg = render_svg(bicycle_spec, traj)
        import re
        assert not re.search(r"\de[+-]\d", svg)
