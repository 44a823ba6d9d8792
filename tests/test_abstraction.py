import math

import numpy as np
import pytest

import gridsynth as gs
from gridsynth.abstraction import (
    FiniteTransitionSystem,
    build_abstraction,
    build_input_grid,
    label_cells,
)
from gridsynth.errors import EmptyInputSet, EmptyTarget
from gridsynth.geometry import HyperRect, UniformGrid


def pairs(fts, state, inp):
    q = inp * fts.num_states + state
    return set(fts.succ[fts.indptr[q] : fts.indptr[q + 1]].tolist())


class TestInputGrid:
    def test_symmetric_lattice(self):
        U = build_input_grid(HyperRect([-1.0], [1.0]), np.array([0.4]))
        assert U.tolist() == [[-0.8], [-0.4], [0.0], [0.4], [0.8]]

    def test_bicycle_input_count(self):
        U = build_input_grid(HyperRect([-1, -1], [1, 1]), np.array([0.3, 0.3]))
        assert U.shape == (49, 2)  # 7 x 7 lattice

    def test_row_major_order(self):
        U = build_input_grid(HyperRect([-1, -1], [1, 1]), np.array([1.0, 1.0]))
        assert U.tolist() == [
            [-1, -1], [-1, 0], [-1, 1],
            [0, -1], [0, 0], [0, 1],
            [1, -1], [1, 0], [1, 1],
        ]

    def test_empty_raises(self):
        with pytest.raises(EmptyInputSet):
            build_input_grid(HyperRect([0.3], [0.7]), np.array([1.0]))


def integrator_field():
    return gs.VectorField(
        "shift", 1, 1,
        lambda x, u: np.broadcast_to(u, x.shape),
        growth_matrix=np.zeros((1, 1)),
    )


class TestBuildAbstraction:
    def test_integrator_oracle(self):
        # dx/dt = u with u in {-1, 0, 1}, tau = 1, eta = 1 on [0, 10]: the
        # exact successor of cell s is s + u.  The abstraction must contain
        # it (soundness) and may add only the boundary-touching neighbours.
        grid = UniformGrid(HyperRect([0.0], [10.0]), np.array([1.0]), [False])
        U = np.array([[-1.0], [0.0], [1.0]])
        fts = build_abstraction(grid, U, integrator_field(), 1.0)
        for s in range(10):
            for uidx, shift in ((0, -1), (1, 0), (2, 1)):
                t = s + shift
                if not 0 <= t <= 9:
                    continue
                got = pairs(fts, s, uidx)
                assert t in got
                assert got <= {t - 1, t, t + 1}

    def test_boundary_exit_blocked(self):
        grid = UniformGrid(HyperRect([0.0], [10.0]), np.array([1.0]), [False])
        U = np.array([[-1.0], [1.0]])
        fts = build_abstraction(grid, U, integrator_field(), 1.0)
        assert fts.blocked[0 * fts.num_states + 0]  # leftmost cell, u = -1
        assert fts.blocked[1 * fts.num_states + 9]  # rightmost cell, u = +1
        assert pairs(fts, 0, 0) == set()

    def test_periodic_wraps_instead_of_blocking(self):
        grid = UniformGrid(HyperRect([0.0], [10.0]), np.array([1.0]), [True])
        U = np.array([[-1.0], [1.0]])
        fts = build_abstraction(grid, U, integrator_field(), 1.0)
        assert not fts.blocked.any()
        assert 9 in pairs(fts, 0, 0) and pairs(fts, 0, 0) <= {8, 9, 0}
        assert 0 in pairs(fts, 9, 1) and pairs(fts, 9, 1) <= {9, 0, 1}

    def test_overapproximation_with_growth(self):
        # nonzero growth row widens the box to cover neighbours
        field = gs.VectorField(
            "shift-g", 1, 1,
            lambda x, u: np.broadcast_to(u, x.shape),
            growth_matrix=np.array([[1.0]]),
        )
        grid = UniformGrid(HyperRect([0.0], [10.0]), np.array([1.0]), [False])
        fts = build_abstraction(grid, np.array([[0.0]]), field, 1.0)
        # radius 0.5 grows by e: cells within +-e/2 of center overlap
        assert pairs(fts, 5, 0) >= {4, 5, 6}

    def test_nonfinite_pairs_blocked_and_counted(self):
        # at rest left of x = 5, infinite speed right of it: exactly the
        # pairs of cells 5..9 are non-finite, and those alone are blocked
        field = gs.VectorField(
            "inf-right", 1, 1, lambda x, u: np.where(x > 5.0, np.inf, 0.0)
        )
        grid = UniformGrid(HyperRect([0.0], [10.0]), np.array([1.0]), [False])
        fts = build_abstraction(grid, np.array([[-1.0], [1.0]]), field, 1.0)
        assert np.array_equal(fts.blocked, np.tile(np.arange(10) >= 5, 2))
        assert fts.nonfinite_pairs == 10
        assert pairs(fts, 7, 1) == set()
        assert 4 in pairs(fts, 4, 1)

    def test_bicycle_fixture_shape(self, bicycle_result):
        fts = bicycle_result.fts
        assert fts.num_states == 20 * 20 * 31
        assert fts.num_inputs == 49
        assert fts.indptr[-1] == len(fts.succ)
        assert len(fts.indptr) == fts.num_states * fts.num_inputs + 1

    def test_reverse_is_transpose(self):
        rng = np.random.default_rng(3)
        grid = UniformGrid(HyperRect([0.0], [10.0]), np.array([1.0]), [True])
        fts = build_abstraction(
            grid, np.array([[-1.0], [0.0], [1.0]]), integrator_field(), 1.0
        )
        rptr, rpairs = fts.reverse()
        fwd = set()
        for u in range(fts.num_inputs):
            for s in range(fts.num_states):
                for t in pairs(fts, s, u):
                    fwd.add((u * fts.num_states + s, t))
        bwd = set()
        for t in range(fts.num_states):
            for q in rpairs[rptr[t] : rptr[t + 1]]:
                bwd.add((int(q), t))
        assert fwd == bwd


class TestLabelCells:
    def test_bicycle_fixture_labels(self, bicycle_spec, bicycle_result):
        labels = bicycle_result.labels
        grid = bicycle_result.grid
        # obstacle occupies all heading layers over its footprint
        n3 = grid.shape[2]
        footprint = len(labels.obstacle_cells) // n3
        assert len(labels.obstacle_cells) == footprint * n3
        # target cells are contained in the target rect and disjoint from obstacles
        assert labels.obstacle_cells.isdisjoint(labels.target_stages[0])
        tgt = bicycle_spec.target_rects[0]
        for c in labels.target_stages[0]:
            center = grid.center_of(c)
            assert tgt.contains(center[:2])

    def test_initial_point_single_cell(self, bicycle_result):
        assert len(bicycle_result.labels.initial_cells) == 1

    @staticmethod
    def _stub(obstacles, targets, initial_point):
        class Stub:
            inflated_obstacle_rects = tuple(obstacles)
            target_rects = tuple(targets)

        Stub.initial_point = np.asarray(initial_point, dtype=float)
        Stub.initial_rect = None
        return Stub()

    def test_empty_target_raises(self):
        grid = UniformGrid(HyperRect([0.0, 0.0], [4.0, 4.0]), np.array([1.0, 1.0]),
                           [False, False])
        tiny = HyperRect(np.array([0.1, 0.1]), np.array([0.2, 0.2]))
        with pytest.raises(EmptyTarget):
            label_cells(grid, self._stub([], [tiny], [0.5, 0.5]))

    def test_obstacle_inflation_applied(self):
        grid = UniformGrid(HyperRect([0.0, 0.0], [4.0, 4.0]),
                           np.array([0.5, 0.5]), [False, False])
        obs = HyperRect(np.array([1.9, 1.9]), np.array([2.1, 2.1]))
        big = HyperRect(np.array([3.0, 3.0]), np.array([4.0, 4.0]))
        bare = label_cells(grid, self._stub([obs], [big], [0.25, 0.25]))
        inflated = label_cells(
            grid, self._stub([obs.inflate(0.5)], [big], [0.25, 0.25])
        )
        assert len(inflated.obstacle_cells) > len(bare.obstacle_cells)
        assert bare.obstacle_cells < inflated.obstacle_cells

