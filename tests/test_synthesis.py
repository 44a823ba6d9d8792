import hashlib

import numpy as np
import pytest

import gridsynth as gs
from gridsynth.abstraction import FiniteTransitionSystem, LabeledCells
from gridsynth.bench import fixtures_dir
from gridsynth.dynamics import BICYCLE
from gridsynth.errors import GridSynthError, OutsideWinningSet
from gridsynth.simulator import simulate_closed_loop, trajectory_to_csv
from gridsynth.synthesis import (
    _mask,
    _solve_stage,
    export_controller,
    load_controller,
    solve_sequential,
)

from conftest import (
    MALFORMED_TABLE_EDITS,
    brute_force_reach_avoid,
    input_table,
    make_random_fts,
    malformed_table,
)


def fts_from_dict(num_states, num_inputs, table):
    """Build an FTS from {(state, input): [successors]}."""
    indptr = [0]
    succ = []
    for u in range(num_inputs):
        for s in range(num_states):
            d = sorted(table.get((s, u), []))
            succ.extend(d)
            indptr.append(len(succ))
    return FiniteTransitionSystem(
        num_states=num_states,
        num_inputs=num_inputs,
        indptr=np.array(indptr, dtype=np.int64),
        succ=np.array(succ, dtype=np.int64),
        blocked=np.array(
            [not table.get((s, u), []) for u in range(num_inputs)
             for s in range(num_states)]
        ),
    )


def labels(target, obstacles=(), initial=(), stages=None):
    return LabeledCells(
        obstacle_cells=frozenset(obstacles),
        target_stages=tuple(frozenset(t) for t in (stages or [target])),
        initial_cells=frozenset(initial),
    )


class TestSolveReachAvoid:
    def test_three_state_chain(self):
        # 0 -> 1 -> 2 -> 2 under the only input; target {2}
        fts = fts_from_dict(3, 1, {(0, 0): [1], (1, 0): [2], (2, 0): [2]})
        pol = solve_sequential(fts, labels({2}), input_table(fts)).stages[0]
        assert pol.winning.tolist() == [True, True, True]
        assert pol.value.tolist() == [2, 1, 0]
        assert pol.choice[0] == 0 and pol.choice[1] == 0
        assert pol.choice[2] == -1  # in-goal cells hold no choice

    def test_worst_case_semantics(self):
        # input 0 from state 0 may land in the trap: not certified
        fts = fts_from_dict(
            4, 2,
            {(0, 0): [2, 3], (0, 1): [2], (2, 0): [2], (2, 1): [2],
             (3, 0): [3], (3, 1): [3]},
        )
        pol = solve_sequential(fts, labels({2}), input_table(fts)).stages[0]
        assert pol.winning[0]
        assert pol.choice[0] == 1
        assert not pol.winning[3]

    def test_obstacle_excluded(self):
        fts = fts_from_dict(3, 1, {(0, 0): [1], (1, 0): [2], (2, 0): [2]})
        pol = solve_sequential(fts, labels({2}, obstacles={1}), input_table(fts)).stages[0]
        assert not pol.winning[0]
        assert not pol.winning[1]
        assert pol.winning[2]

    def test_obstacle_target_overlap_obstacle_wins(self):
        fts = fts_from_dict(2, 1, {(0, 0): [1], (1, 0): [1]})
        pol = solve_sequential(fts, labels({0, 1}, obstacles={0}), input_table(fts)).stages[0]
        assert not pol.winning[0]
        assert pol.winning[1]

    def test_tie_break_smallest_input(self):
        fts = fts_from_dict(2, 3, {(0, 1): [1], (0, 2): [1], (1, 0): [1]})
        pol = solve_sequential(fts, labels({1}), input_table(fts)).stages[0]
        assert pol.choice[0] == 1

    def test_empty_winning_warns(self):
        fts = fts_from_dict(2, 1, {(0, 0): [0], (1, 0): [1]})
        with pytest.warns(UserWarning, match="EmptyWinningSet"):
            solve_sequential(fts, labels({1}, initial={0}), input_table(fts))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            fts = make_random_fts(rng)
            S = fts.num_states
            obstacle = set(rng.choice(S, size=max(1, S // 10),
                                      replace=False).tolist())
            target = set(rng.choice(S, size=max(1, S // 8),
                                    replace=False).tolist()) - obstacle
            if not target:
                continue
            ctrl = solve_sequential(fts, labels(target, obstacles=obstacle), input_table(fts))
            pol = ctrl.stages[0]
            win_ref, val_ref = brute_force_reach_avoid(fts, obstacle, target)
            assert set(np.flatnonzero(pol.winning).tolist()) == win_ref
            for s in win_ref:
                assert pol.value[s] == val_ref[s]

    def test_maximality_spot_check(self):
        # any state outside the computed set has, for every input, either no
        # successor or a successor outside the set (so it cannot be added)
        rng = np.random.default_rng(7)
        fts = make_random_fts(rng)
        target = {0, 1}
        pol = solve_sequential(fts, labels(target), input_table(fts)).stages[0]
        win = set(np.flatnonzero(pol.winning).tolist())
        for s in range(fts.num_states):
            if s in win:
                continue
            for u in range(fts.num_inputs):
                d = fts.successors(np.array([u * fts.num_states + s]))[1]
                assert d.size == 0 or any(int(t) not in win for t in d)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        fts = make_random_fts(rng)
        a = solve_sequential(fts, labels({0}), input_table(fts)).stages[0]
        b = solve_sequential(fts, labels({0}), input_table(fts)).stages[0]
        assert np.array_equal(a.winning, b.winning)
        assert np.array_equal(a.choice, b.choice)
        assert np.array_equal(a.value, b.value)

    def test_certified_input_keeps_winning(self):
        # policy soundness: every chosen input's successors are all winning
        rng = np.random.default_rng(13)
        for _ in range(10):
            fts = make_random_fts(rng)
            target = {0}
            pol = solve_sequential(fts, labels(target), input_table(fts)).stages[0]
            for s in np.flatnonzero(pol.winning):
                if int(s) in target:
                    continue
                d = fts.successors(np.array([pol.choice[s] * fts.num_states + s]))[1]
                assert d.size > 0
                assert all(pol.winning[int(t)] for t in d)


class TestSolveSequential:
    def make_line(self):
        # 0 -> 1 -> 2 -> 3 -> 4, plus self loops; a second input goes back
        table = {}
        for s in range(5):
            table[(s, 0)] = [min(s + 1, 4)]
            table[(s, 1)] = [max(s - 1, 0)]
        return fts_from_dict(5, 2, table)

    def test_two_targets_in_order(self):
        fts = self.make_line()
        ctrl = solve_sequential(fts, labels(None, stages=[{2}, {4}]), input_table(fts))
        assert ctrl.num_stages == 2
        assert ctrl.stages[0].winning.all()
        assert ctrl.stages[1].winning.all()
        assert ctrl.stages[0].value[0] == 2
        assert ctrl.stages[1].value[2] == 2

    def test_goal_shrinks_to_next_stage_winning(self):
        # state 2 is in target 0 but is a dead end for stage 1: goal shrinks
        table = {
            (0, 0): [1], (1, 0): [1], (2, 0): [2],
            (1, 1): [3], (3, 0): [3], (3, 1): [3], (0, 1): [2],
        }
        fts = fts_from_dict(4, 2, table)
        ctrl = solve_sequential(fts, labels(None, stages=[{1, 2}, {3}]), input_table(fts))
        assert 1 in ctrl.stages[0].goal
        assert 2 not in ctrl.stages[0].goal
        assert not ctrl.stages[0].winning[2]

    def test_int32_relation_gives_the_same_policy(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            wide = make_random_fts(rng)
            narrow = FiniteTransitionSystem(
                num_states=wide.num_states,
                num_inputs=wide.num_inputs,
                indptr=wide.indptr,
                succ=wide.succ.astype(np.int32),
                blocked=wide.blocked,
            )
            assert wide.succ.dtype == np.int64
            goal = set(rng.choice(wide.num_states, size=3, replace=False).tolist())
            S = wide.num_states
            obstacle, goal = _mask(frozenset({0}) - goal, S), _mask(goal, S)
            a = _solve_stage(wide, obstacle, goal)
            b = _solve_stage(narrow, obstacle, goal)
            assert np.array_equal(a.winning, b.winning)
            assert np.array_equal(a.value, b.value)
            assert np.array_equal(a.choice, b.choice)

    def test_single_stage_equals_plain_solver(self):
        rng = np.random.default_rng(3)
        fts = make_random_fts(rng)
        S = fts.num_states
        a = _solve_stage(fts, _mask((), S), _mask({0, 1}, S))
        b = solve_sequential(fts, labels({0, 1}), input_table(fts)).stages[0]
        assert np.array_equal(a.winning, b.winning)
        assert np.array_equal(a.choice, b.choice)


class TestConcrete:
    def test_concretize_contract(self, bicycle_result):
        ctrl = bicycle_result.concrete_controller()
        grid = bicycle_result.grid
        cell = next(iter(bicycle_result.labels.initial_cells))
        x = grid.all_centers()[cell]
        u = ctrl(x)
        assert u.shape == (2,)
        # the returned input is the certified table entry for that cell
        uid = int(bicycle_result.controller.stages[ctrl.stage].choice[cell])
        assert np.allclose(u, bicycle_result.inputs[uid])

    def test_outside_winning_raises(self, bicycle_spec, bicycle_result):
        ctrl = bicycle_result.concrete_controller()
        grid = bicycle_result.grid
        # an obstacle cell is never winning
        cell = next(iter(bicycle_result.labels.obstacle_cells))
        with pytest.raises(OutsideWinningSet):
            ctrl(grid.all_centers()[cell])

    def test_stage_advances_on_goal_entry(self):
        table = {}
        for s in range(5):
            table[(s, 0)] = [min(s + 1, 4)]
            table[(s, 1)] = [max(s - 1, 0)]
        fts = fts_from_dict(5, 2, table)
        ctrl = solve_sequential(fts, labels(None, stages=[{2}, {4}]), np.array([[1.0], [-1.0]]))
        grid = gs.UniformGrid(gs.HyperRect([0.0], [5.0]), [1.0])
        cc = gs.ConcreteController(ctrl, grid)
        assert cc.stage == 0
        assert cc([0.5]) == pytest.approx([1.0])
        assert cc.stage == 0
        cc([2.5])  # inside stage-0 goal: advance
        assert cc.stage == 1
        assert cc([3.5]) is not None
        assert cc([4.5]) is None  # final goal reached: done


class TestExport:
    def test_round_trip(self, bicycle_result):
        text = export_controller(bicycle_result.controller, bicycle_result.grid)
        ctrl2, grid2 = load_controller(text)
        grid = bicycle_result.grid
        assert np.array_equal(grid2.shape, grid.shape)
        assert np.allclose(grid2.eta, grid.eta)
        src = bicycle_result.controller
        for i, pol in enumerate(ctrl2.stages):
            ref = src.stages[i]
            assert np.array_equal(pol.winning, ref.winning)
            assert np.array_equal(pol.value, ref.value)
            assert pol.goal == ref.goal
            for cell in np.flatnonzero(ref.winning):
                assert np.allclose(
                    pol.input_vec[cell], src.input_for(i, int(cell))
                )

    def test_export_deterministic(self, bicycle_result):
        a = export_controller(bicycle_result.controller, bicycle_result.grid)
        b = export_controller(bicycle_result.controller, bicycle_result.grid)
        assert a == b

    def test_reexport_of_loaded_table_is_identical(self, bicycle_result):
        text = export_controller(bicycle_result.controller, bicycle_result.grid)
        assert export_controller(*load_controller(text)) == text

    def test_loaded_table_replays_the_closed_loop_of_the_solved_one(self):
        # case04 has two stages, so the loop hands over from stage 0 to stage 1
        doc = (fixtures_dir() / "case04_loading_dock_sequence" / "spec.json").read_text()
        spec = gs.parse_spec(doc)
        result = gs.synthesize(spec)
        text = export_controller(result.controller, result.grid)
        solved = result.concrete_controller()
        loaded = gs.ConcreteController(*load_controller(text))
        runs = [
            simulate_closed_loop(BICYCLE, ctrl, spec.initial_point, spec.tau, max_steps=500)
            for ctrl in (solved, loaded)
        ]
        assert runs[1].termination.kind == "ReachedTarget"
        assert loaded.stage == 1
        assert trajectory_to_csv(runs[1]) == trajectory_to_csv(runs[0])

    @pytest.mark.parametrize("case", sorted(MALFORMED_TABLE_EDITS))
    def test_malformed_table_names_line(self, bicycle_result, case):
        text = export_controller(bicycle_result.controller, bicycle_result.grid)
        assert text.splitlines()[3].startswith("# eta:")
        lineno, bad = malformed_table(text, case)
        with pytest.raises(GridSynthError, match=f"controller line {lineno}: "):
            load_controller(bad)

    def test_missing_header_field(self, bicycle_result):
        text = export_controller(bicycle_result.controller, bicycle_result.grid)
        bad = "".join(ln for ln in text.splitlines(True) if not ln.startswith("# stages:"))
        with pytest.raises(GridSynthError, match="missing header field 'stages'"):
            load_controller(bad)


# sha256 of the exported controller tables of four shipped fixtures: one
# stage, two stages, and an obstacle clearance on the 20x20x31 grid, and the
# largest fixture (case12, 30x30x31, two stages).  A change to the
# abstraction, the solver or the export that alters any table byte turns
# this red.
GOLDEN_TABLE_SHA256 = {
    "case01_warehouse_crate": "b7f428ed6040dbf0e92032a7899e6990771c1a57cf2c7a8b3ae34d4dbcc6feb3",
    "case04_loading_dock_sequence": "2c9fe536a2fa4a6a6ab11cb990965065fcefb52f93e470f9b0edec883b32b049",
    "case05_clearance_tank": "c7b228b1a095684aba01b73544b85995227d13594d57f505d9d32f1076b782d0",
    "case12_figure_eight": "c489bf4760d80db9fa19c9cb4db1a47087ff1c3223427b6858c4af57f1aa3132",
}


@pytest.mark.parametrize("case_id", sorted(GOLDEN_TABLE_SHA256))
def test_golden_table_digest(case_id):
    doc = (fixtures_dir() / case_id / "spec.json").read_text()
    result = gs.synthesize(gs.parse_spec(doc))
    text = export_controller(result.controller, result.grid)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_TABLE_SHA256[case_id]
