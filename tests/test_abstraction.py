import dataclasses
import itertools
import math
import threading

import numpy as np
import pytest

import gridsynth as gs
from gridsynth import abstraction, dynamics
from gridsynth.abstraction import (
    FiniteTransitionSystem,
    StencilStore,
    _index_dtype,
    build_abstraction,
    build_input_grid,
    label_cells,
)
from gridsynth.errors import EmptyInputSet, EmptyTarget
from gridsynth.geometry import SNAP_TOL, HyperRect, UniformGrid
from gridsynth.pipeline import synthesize
from gridsynth.synthesis import _mask, _solve_stage

from conftest import case01_spec, make_random_fts


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


def inf_right_field():
    """At rest left of x = 5, infinite speed right of it."""
    return gs.VectorField(
        "inf-right", 1, 1, lambda x, u: np.where(x > 5.0, np.inf, 0.0)
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
        # exactly the pairs of cells 5..9 are non-finite, and those alone
        # are blocked
        grid = UniformGrid(HyperRect([0.0], [10.0]), np.array([1.0]), [False])
        fts = build_abstraction(grid, np.array([[-1.0], [1.0]]), inf_right_field(), 1.0)
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
        centers = grid.all_centers()
        for c in labels.target_stages[0]:
            assert tgt.contains(centers[c][:2])

    def test_initial_point_single_cell(self, bicycle_result):
        assert len(bicycle_result.labels.initial_cells) == 1

    def test_2d_initial_point_takes_every_heading(self, bicycle_result):
        grid = bicycle_result.grid
        lower = grid.all_centers()[:, :2] - grid.eta[:2] / 2
        rng = np.random.default_rng(5)
        for point in rng.uniform(grid.bounds.lower[:2], grid.bounds.upper[:2], (20, 2)):
            got = label_cells(grid, self._stub([], [], point)).initial_cells
            inside = np.all((lower <= point) & (point < lower + grid.eta[:2]), axis=1)
            assert got == set(np.flatnonzero(inside).tolist())
            assert len(got) == grid.shape[2]

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
        grown = HyperRect(obs.lower - 0.5, obs.upper + 0.5)
        inflated = label_cells(grid, self._stub([grown], [big], [0.25, 0.25]))
        assert len(inflated.obstacle_cells) > len(bare.obstacle_cells)
        assert bare.obstacle_cells < inflated.obstacle_cells


def shift_field(growth):
    """dx/dt = u in 3-D with a diagonal growth bound (widens the boxes)."""
    return gs.VectorField(
        "shift3", 3, 3,
        lambda x, u: np.broadcast_to(u, x.shape),
        growth_matrix=np.diag(growth),
    )


# 3-D grid whose first dimension is periodic (6 cells); the shifts and radii
# keep every box edge away from cell boundaries, so the reference needs no
# snapping.
WRAP_GRID = UniformGrid(
    HyperRect([0.0, 0.0, 0.0], [6.0, 4.0, 5.0]), np.ones(3), [True, False, False]
)
WRAP_INPUTS = np.array([[1.25, 0.0, 0.0], [-2.5, 0.25, 0.0], [0.0, 0.0, -0.25]])


def reference_successors(grid, field, u_vec, s):
    """Sorted successors of one pair by Python integer arithmetic: the cells
    the propagated box touches, taken with % in periodic dimensions and
    clamped in the others; None when the box leaves the grid (blocked)."""
    endc = dynamics.integrate_path(field, grid.all_centers()[s : s + 1], u_vec, 1.0, 5)[-1]
    radius = dynamics.image_radius(field, grid.eta / 2.0, 1.0)
    axes = []
    for i in range(grid.n):
        lo = (endc[0, i] - radius[i] - grid.bounds.lower[i]) / grid.eta[i]
        hi = (endc[0, i] + radius[i] - grid.bounds.lower[i]) / grid.eta[i]
        ks = range(math.ceil(lo - 1.0), math.floor(hi) + 1)
        if grid.periodic[i]:
            axes.append({k % grid.shape[i] for k in ks})
        elif lo < 0 or hi > grid.shape[i]:
            return None
        else:
            axes.append(set(ks))
    strides = [int(st) for st in grid._strides]
    return sorted(
        sum(k * st for k, st in zip(multi, strides))
        for multi in itertools.product(*axes)
    )


def transpose_by_stable_argsort(fts):
    """Reference reverse relation: a global stable sort of the edges by target."""
    pair_of_edge = np.repeat(
        np.arange(fts.num_states * fts.num_inputs), np.diff(fts.indptr)
    )
    rev_pairs = pair_of_edge[np.argsort(fts.succ, kind="stable")]
    counts = np.bincount(fts.succ, minlength=fts.num_states)
    return np.concatenate([[0], np.cumsum(counts)]), rev_pairs


class TestIndexPaths:
    @pytest.mark.parametrize("growth0", [0.5, 1.5])
    def test_wrapped_successors_sorted_and_exact(self, growth0):
        field = shift_field([growth0, 0.5, 0.5])
        fts = build_abstraction(WRAP_GRID, WRAP_INPUTS, field, 1.0)
        assert fts.succ.dtype == np.int32
        wrapped = 0
        for u, u_vec in enumerate(WRAP_INPUTS):
            for s in range(fts.num_states):
                got = fts.successors(np.array([u * fts.num_states + s]))[1]
                want = reference_successors(WRAP_GRID, field, u_vec, s)
                if want is None:
                    assert fts.blocked[u * fts.num_states + s] and got.size == 0, (s, u)
                    continue
                assert np.all(np.diff(got) > 0), (s, u)
                assert got.tolist() == want, (s, u)
                layers = {t // int(WRAP_GRID._strides[0]) for t in want}
                wrapped += {0, 5} <= layers and len(layers) < 6
        assert wrapped > 0  # some boxes really cross the periodic seam

    def test_reverse_matches_stable_argsort(self):
        wrap = build_abstraction(WRAP_GRID, WRAP_INPUTS, shift_field([1.5, 0.5, 0.5]), 1.0)
        rng = np.random.default_rng(5)
        hand = make_random_fts(rng)
        assert hand.succ.dtype == np.int64
        for fts in (wrap, hand):
            rptr, rpairs = fts.reverse()
            want_ptr, want_pairs = transpose_by_stable_argsort(fts)
            assert np.array_equal(rptr, want_ptr)
            assert np.array_equal(rpairs.astype(np.int64), want_pairs)

    def test_index_dtype_widens_at_2_pow_31(self):
        assert _index_dtype(0) is np.int32
        assert _index_dtype(2**31 - 1) is np.int32
        assert _index_dtype(2**31) is np.int64
        assert _index_dtype(50_000 * 50_000) is np.int64


def pool_case(name):
    """(grid, inputs, field, tau) of a build that exercises one index path."""
    if name == "periodic-wrap":
        return WRAP_GRID, WRAP_INPUTS, shift_field([1.5, 0.5, 0.5]), 1.0
    if name == "invariant-dims":
        spec = case01_spec()
        inputs = build_input_grid(spec.input_bounds, spec.eta_u)
        return spec.build_grid(), inputs, gs.BICYCLE, spec.tau
    grid = UniformGrid(HyperRect([0.0], [10.0]), np.array([1.0]), [False])
    return grid, np.array([[-1.0], [0.0], [1.0]]), inf_right_field(), 1.0


class TestPool:
    @pytest.mark.parametrize("name", ["periodic-wrap", "invariant-dims", "non-finite"])
    def test_same_relation_for_any_pool_size(self, name, monkeypatch):
        case = pool_case(name)
        built = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(abstraction, "_cpu_count", lambda: cpus)
            built.append(build_abstraction(*case))
        first = built[0]
        assert (first.nonfinite_pairs > 0) == (name == "non-finite")
        every = np.arange(first.num_states * first.num_inputs)
        for fts in built[1:]:
            for got, want in zip(fts.successors(every), first.successors(every)):
                assert np.array_equal(got, want)
            assert np.array_equal(fts.blocked, first.blocked)
            assert fts.nonfinite_pairs == first.nonfinite_pairs
            for got, want in zip(fts.reverse(), first.reverse()):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["periodic-wrap", "invariant-dims"])
    def test_image_radius_computed_once_per_build(self, name, monkeypatch):
        monkeypatch.setattr(abstraction, "_cpu_count", lambda: 2)
        calls = []
        real = dynamics.growth_factor

        def counted(vf, tau):
            calls.append(tau)
            return real(vf, tau)

        monkeypatch.setattr(dynamics, "growth_factor", counted)
        case = pool_case(name)
        build_abstraction(*case)
        assert len(case[1]) > 1 and calls == [case[3]]

    def test_fields_are_evaluated_on_several_threads(self, monkeypatch):
        monkeypatch.setattr(abstraction, "_cpu_count", lambda: 2)
        seen = set()
        first_call = threading.Lock()  # taken by the first call, never released
        second = threading.Event()

        def f(x, u):
            seen.add(threading.get_ident())
            if len(seen) > 1:
                second.set()
            # the first call waits for a second thread, so one thread cannot
            # take both inputs before the pool starts another
            if first_call.acquire(blocking=False):
                second.wait(timeout=10)
            return np.broadcast_to(u, x.shape)

        field = gs.VectorField("recording", 1, 1, f)
        grid = UniformGrid(HyperRect([0.0], [10.0]), np.array([1.0]), [False])
        build_abstraction(grid, np.array([[-1.0], [1.0]]), field, 1.0)
        assert len(seen) >= 2


def lifted_inf_right_field():
    """inf-right in x with y moved by the input; f never reads y."""
    return gs.VectorField(
        "inf-right-2d", 2, 1,
        lambda x, u: np.stack(
            [np.where(x[..., 0] > 5.0, np.inf, 0.0), np.broadcast_to(u[0], x[..., 1].shape)],
            axis=-1,
        ),
        growth_matrix=np.zeros((2, 2)),
        invariant_dims=(1,),
    )


def stencil_case(name, dims):
    """((grid, inputs, declared field, tau), undeclared twin) for a pool case."""
    if name == "non-finite":  # inf-right reads its one dimension: lift it to 2-D
        grid = UniformGrid(HyperRect([0.0, 0.0], [10.0, 6.0]), np.ones(2), [False, False])
        case = grid, np.array([[-1.0], [0.0], [1.0]]), lifted_inf_right_field(), 1.0
    else:
        grid, inputs, field, tau = pool_case(name)
        case = grid, inputs, dataclasses.replace(field, invariant_dims=dims), tau
    return case, dataclasses.replace(case[2], invariant_dims=())


def policies(fts, grid):
    """Solved stage of a fixed goal and obstacle layer, as comparable arrays."""
    goal = set(range(0, grid.num_cells, 7))
    obstacles = frozenset(range(3, grid.num_cells, 11)) - goal
    pol = _solve_stage(fts, _mask(obstacles, grid.num_cells), _mask(goal, grid.num_cells))
    return pol.winning, pol.value, pol.choice


def assert_same_relation(got, want, grid, pairs=None):
    # a stencil store is read through the same queries as the CSR store
    assert isinstance(got, FiniteTransitionSystem) and isinstance(want, FiniteTransitionSystem)
    every = np.arange(got.num_states * got.num_inputs)
    for a, b in zip(got.successors(every), want.successors(every)):
        assert np.array_equal(a, b) and a.dtype == b.dtype
    assert np.array_equal(got.blocked, want.blocked)
    assert np.array_equal(got.counts, want.counts)
    assert got.nonfinite_pairs == want.nonfinite_pairs
    assert got.num_transitions == want.num_transitions
    for q in every if pairs is None else pairs:
        one = np.array([q])
        assert np.array_equal(got.successors(one)[1], want.successors(one)[1]), q
    for a, b in zip(policies(got, grid), policies(want, grid)):
        assert np.array_equal(a, b)


STENCIL_CASES = [
    ("periodic-wrap", (0, 2)),  # a periodic invariant dim, the kept dim in the middle
    ("periodic-wrap", (0, 1, 2)),  # every dim invariant: one class per input
    ("invariant-dims", (0, 1)),  # case01's bicycle
    ("non-finite", (1,)),
]


class TestStencilStore:
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("name,dims", STENCIL_CASES)
    def test_stencil_equals_csr_twin(self, name, dims, cpus, monkeypatch):
        monkeypatch.setattr(abstraction, "_cpu_count", lambda: cpus)
        case, twin_field = stencil_case(name, dims)
        grid = case[0]
        fts = build_abstraction(*case)
        twin = build_abstraction(grid, case[1], twin_field, case[3])
        assert isinstance(fts, StencilStore) and fts.fallback is None
        assert not isinstance(twin, StencilStore) and twin.fallback is None
        assert (fts.nonfinite_pairs > 0) == (name == "non-finite")
        # case01 has 607,600 pairs: every one goes through one batch, a
        # sample through one-pair batches
        size = fts.num_states * fts.num_inputs
        pairs = None if size < 10_000 else np.random.default_rng(1).choice(size, 3000)
        assert_same_relation(fts, twin, grid, pairs)

    def test_disagreeing_class_falls_back_to_csr(self, monkeypatch):
        case, twin_field = stencil_case("periodic-wrap", (0, 2))
        grid, inputs = case[0], case[1]
        centers = grid.axis_centers()
        real = abstraction.integrate_path

        def moved(f, x0, u, tau):
            # under input 1 the start states of class 1 (index 1 in dim 1)
            # with index 2 in dim 2 land a cell further in dim 2, whichever
            # batch holds them: the stencil build's (C, J, n) diagonal or
            # the (S, n) cells
            path = real(f, x0, u, tau)
            if np.array_equal(u, inputs[1]):
                rows = (x0[..., 1] == centers[1][1]) & (x0[..., 2] == centers[2][2])
                assert rows.sum() == (1 if x0.ndim == 3 else 6)
                path[-1, rows, 2] += grid.eta[2]
            return path

        plain = build_abstraction(grid, inputs, twin_field, case[3])
        monkeypatch.setattr(abstraction, "integrate_path", moved)
        fts = build_abstraction(*case)
        twin = build_abstraction(grid, inputs, twin_field, case[3])
        assert not isinstance(fts, StencilStore)
        assert fts.fallback.startswith("input 1, class ")
        assert twin.fallback is None
        assert not np.array_equal(twin.succ, plain.succ)  # the shift shows
        assert_same_relation(fts, twin, grid)

    def test_rounding_at_a_box_edge_falls_back_to_csr(self):
        # dx/dt = (u, 0) moves every cell by (m + SNAP_TOL) cells in dim 0,
        # so each box edge lies at the snapping threshold: the rounding of
        # each cell's own center decides whether its edge snaps to the
        # lattice line, and the one class's cells disagree on their box
        rng = np.random.default_rng(0)
        eta, tau, m = rng.uniform(0.05, 0.2), rng.uniform(0.2, 1.0), rng.integers(1, 4)
        grid = UniformGrid(
            HyperRect([0.0, 0.0], [64 * eta, 1.0]), np.array([eta, 1.0]), [True, False]
        )
        inputs = np.array([[(m + SNAP_TOL) * eta / tau]])
        field = gs.VectorField(
            "shift-x", 2, 1,
            lambda x, u: np.stack([np.broadcast_to(u[0], x[..., 0].shape), 0.0 * x[..., 1]], -1),
            invariant_dims=(0,),
        )
        fts = build_abstraction(grid, inputs, field, tau)
        twin = build_abstraction(grid, inputs, dataclasses.replace(field, invariant_dims=()), tau)
        assert not isinstance(fts, StencilStore)
        assert fts.fallback == "input 0, class 0: its cells' successor boxes differ"
        assert set(np.diff(twin.indptr).tolist()) == {2, 3}  # per cell, by rounding
        assert_same_relation(fts, twin, grid)

    def test_stencil_build_integrates_only_the_diagonal(self, monkeypatch):
        # every batch handed to integrate_path is the (C, J, n) diagonal,
        # and f sees one row per class; all cells (S rows) never go in
        monkeypatch.setattr(abstraction, "_cpu_count", lambda: 2)
        rows, batches = [], []

        def counted(x, u):
            rows.append(len(x))
            return dynamics.bicycle_f(x, u)

        real = abstraction.integrate_path

        def recorded(f, x0, u, tau):
            batches.append(x0.shape)
            return real(f, x0, u, tau)

        monkeypatch.setattr(abstraction, "integrate_path", recorded)
        spec = case01_spec()
        grid = spec.build_grid()
        inputs = build_input_grid(spec.input_bounds, spec.eta_u)
        field = dataclasses.replace(gs.BICYCLE, eval_fn=counted)
        fts = build_abstraction(grid, inputs, field, spec.tau)
        C, J = grid.shape[2], max(grid.shape[:2])
        U = len(inputs)
        assert isinstance(fts, StencilStore)
        assert batches == [(C, J, 3)] * U
        assert max(rows) <= C
        # four RK4 stages per substep, and the invariance check's first k1
        assert sum(rows) <= U * (4 * dynamics.SUBSTEPS + 2) * C
        assert C * J < grid.num_cells

    @pytest.mark.parametrize("name,dims", STENCIL_CASES + [("fallback", (0, 2))])
    def test_successors_of_a_mixed_batch(self, name, dims, monkeypatch):
        # inputs mixed, blocked pairs and repeated ids in one batch, against
        # the per-cell twin's CSR rows
        if name == "fallback":
            monkeypatch.setattr(abstraction.StencilStore, "factors", lambda self, *r: "forced")
        case, twin_field = stencil_case("periodic-wrap" if name == "fallback" else name, dims)
        fts = build_abstraction(*case)
        twin = build_abstraction(case[0], case[1], twin_field, case[3])
        assert (not isinstance(fts, StencilStore)) == (name == "fallback") and not isinstance(
            twin, StencilStore
        )
        S, U = fts.num_states, fts.num_inputs
        rng = np.random.default_rng(4)
        blocked = rng.choice(np.flatnonzero(fts.blocked), 5)
        batch = np.concatenate([rng.integers(0, S * U, 60), blocked, [0, 0, S * U - 1]])
        batch = np.concatenate([batch, batch[::7]])
        rng.shuffle(batch)
        assert len(np.unique(batch // S)) > 1
        for store in fts, twin:
            ptr, succ = store.successors(batch)
            assert ptr.dtype == np.int64 and succ.dtype == _index_dtype(S)
            rows = np.split(succ, ptr[1:-1])
            assert len(rows) == len(batch) and ptr[0] == 0 and ptr[-1] == len(succ)
            for q, row in zip(batch, rows):
                assert np.array_equal(row, twin.succ[twin.indptr[q] : twin.indptr[q + 1]]), q
            assert (np.diff(ptr)[fts.blocked[batch]] == 0).all()
            ptr, succ = store.successors(np.zeros(0, dtype=np.int64))
            assert ptr.tolist() == [0] and succ.size == 0
            assert ptr.dtype == np.int64 and succ.dtype == _index_dtype(S)

    def test_synthesis_builds_no_csr_view(self):
        result = synthesize(case01_spec())
        fts, S = result.fts, result.fts.num_states
        assert isinstance(fts, StencilStore) and fts.fallback is None
        assert fts.num_transitions > 0
        for pol in result.controller.stages:
            cells = np.flatnonzero(pol.choice >= 0)
            ptr, succ = fts.successors(pol.choice[cells] * S + cells)
            assert cells.size and (np.diff(ptr) > 0).all() and pol.winning[succ].all()
        # counts, successors and the solver read the stencils
        assert fts._csr is None
        assert fts.succ.size == fts.num_transitions
        assert fts._csr is not None
        every = fts.successors(np.arange(S * fts.num_inputs))
        assert np.array_equal(fts.indptr, every[0]) and np.array_equal(fts.succ, every[1])


class TestExtremes:
    @pytest.mark.parametrize("dims", [(), (0, 1)])
    @pytest.mark.parametrize("a", [40.0, 45.0, 1000.0])
    def test_huge_radius_reaches_the_whole_periodic_ring(self, a, dims):
        # growth a = 45 gives a radius of 1.7e19 cells and a = 1000 an
        # infinite one; both must reach all 16 cells, like a = 40 (1.2e17)
        field = gs.VectorField(
            "still", 2, 1, lambda x, u: 0.0 * x,
            growth_matrix=np.array([[0.0, a], [a, 0.0]]),
            invariant_dims=dims,
        )
        grid = UniformGrid(HyperRect([0.0, 0.0], [4.0, 4.0]), np.ones(2), [True, True])
        fts = build_abstraction(grid, np.array([[0.0], [1.0]]), field, 1.0)
        assert fts.num_transitions == 512
        assert not fts.blocked.any()
        assert fts.successors(np.array([16 + 5]))[1].tolist() == list(range(16))
        # a full-ring box is one box for every cell: no fallback to CSR
        assert fts.fallback is None
        assert isinstance(fts, StencilStore) == bool(dims)

    @pytest.mark.parametrize("dims", [(), (0,)])
    def test_position_past_the_lattice_limit_is_the_whole_ring(self, dims):
        # dx/dt = u = 1e17 on an 8-cell ring with tau = 1: 1e17 = 0 (mod 8),
        # so cell s reaches s, but past 2**53 cells a float no longer places
        # the box on the ring (clamped, both ends gave {0, 7})
        field = gs.VectorField(
            "shift", 1, 1, lambda x, u: np.broadcast_to(u, x.shape), invariant_dims=dims
        )
        grid = UniformGrid(HyperRect([0.0], [8.0]), np.ones(1), [True])
        fts = build_abstraction(grid, np.array([[1e17]]), field, 1.0)
        assert fts.fallback is None
        assert isinstance(fts, StencilStore) == bool(dims)
        for s in range(8):
            assert fts.successors(np.array([s]))[1].tolist() == list(range(8))
