import dataclasses
import math

import numpy as np
import pytest

import gridsynth as gs
from gridsynth.abstraction import build_abstraction, build_input_grid
from gridsynth.dynamics import (
    ALPHA_MAX,
    BICYCLE,
    BICYCLE_GROWTH_C,
    growth_factor,
    integrate_path,
)
from gridsynth.errors import GeometryError, NonFinite
from gridsynth.geometry import HyperRect, UniformGrid

from conftest import case01_spec


class TestBicycleField:
    def test_straight_ahead(self):
        assert np.allclose(gs.bicycle_f([0, 0, 0], [1, 0]), [1, 0, 0])

    def test_zero_speed_is_stationary(self):
        assert np.allclose(gs.bicycle_f([1.0, -2.0, 0.7], [0, 0.5]), [0, 0, 0])

    def test_full_steer(self):
        f = gs.bicycle_f([0, 0, 0], [1, 1])
        # at zero heading: f2 = tan(alpha) = tan(u2)/2, f3 = tan(u2)
        assert f[1] == pytest.approx(math.tan(1.0) / 2, rel=1e-12)
        assert f[2] == pytest.approx(math.tan(1.0), rel=1e-12)

    def test_heading_identity(self):
        # f2 / f1 = tan(alpha + x3) whenever f1 != 0
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.uniform([-2, -2, -math.pi], [2, 2, math.pi])
            u = rng.uniform([-1, -1], [1, 1])
            f = gs.bicycle_f(x, u)
            if abs(f[0]) < 1e-9:
                continue
            alpha = math.atan(math.tan(u[1]) / 2)
            assert f[1] / f[0] == pytest.approx(math.tan(alpha + x[2]), rel=1e-9)

    def test_batch_broadcast(self):
        xs = np.random.default_rng(1).uniform(-1, 1, size=(50, 3))
        u = np.array([0.7, -0.3])
        batch = gs.bicycle_f(xs, u)
        for i in range(50):
            assert np.allclose(batch[i], gs.bicycle_f(xs[i], u))

    def test_growth_constant_vs_sampled_jacobian(self):
        # df_{1,2}/dx3 magnitude never exceeds the declared bound, and the
        # bound is attained (within sampling resolution) at extreme steering
        rng = np.random.default_rng(9)
        eps = 1e-6
        worst = 0.0
        for _ in range(2000):
            x = rng.uniform([-2, -2, -math.pi], [2, 2, math.pi])
            u = rng.uniform([-1, -1], [1, 1])
            d = (gs.bicycle_f(x + [0, 0, eps], u) - gs.bicycle_f(x, u)) / eps
            worst = max(worst, abs(d[0]), abs(d[1]))
            assert abs(d[0]) <= BICYCLE_GROWTH_C + 1e-5
            assert abs(d[1]) <= BICYCLE_GROWTH_C + 1e-5
        # tight: attained at |u1| = 1, alpha + x3 = pi/2
        x = np.array([0.0, 0.0, math.pi / 2 - ALPHA_MAX])
        u = np.array([1.0, 1.0])
        d = (gs.bicycle_f(x + [0, 0, eps], u) - gs.bicycle_f(x, u)) / eps
        assert abs(d[0]) == pytest.approx(BICYCLE_GROWTH_C, rel=1e-4)
        assert worst <= BICYCLE_GROWTH_C + 1e-5


def test_bicycle_matches_high_precision_oracle():
    # independent 50-digit evaluation of the vector field
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(77)
    for _ in range(300):
        x = rng.uniform([-3, -3, -math.pi], [3, 3, math.pi])
        u = rng.uniform([-1, -1], [1, 1])
        a = mp.atan(mp.tan(mp.mpf(u[1])) / 2)
        ref = [
            mp.mpf(u[0]) * mp.cos(a + mp.mpf(x[2])) / mp.cos(a),
            mp.mpf(u[0]) * mp.sin(a + mp.mpf(x[2])) / mp.cos(a),
            mp.mpf(u[0]) * mp.tan(mp.mpf(u[1])),
        ]
        f = gs.bicycle_f(x, u)
        for i in range(3):
            assert abs(f[i] - float(ref[i])) < 1e-12


class TestIntegrate:
    def test_stationary(self):
        x0 = [0.4, 1.2, -0.3]
        assert np.allclose(gs.integrate(BICYCLE, x0, [0, 0.9], 0.7), x0)

    def test_linear_flow_exact(self):
        integ = gs.VectorField("integrator", 1, 1, lambda x, u: np.broadcast_to(u, x.shape))
        assert gs.integrate(integ, [0.5], [1.0], 1.0) == pytest.approx([1.5])

    def test_straight_bicycle(self):
        assert np.allclose(gs.integrate(BICYCLE, [0, 0, 0], [1, 0], 0.3), [0.3, 0, 0])

    def test_fourth_order_convergence(self):
        # halving the step reduces error by >= 8x against a fine reference
        x0 = np.array([0.2, 0.1, 0.4])
        u = np.array([0.9, 0.8])
        tau = 1.0
        ref = gs.integrate(BICYCLE, x0, u, tau, substeps=1000)
        errs = [
            np.max(np.abs(gs.integrate(BICYCLE, x0, u, tau, substeps=k) - ref))
            for k in (2, 4, 8, 16)
        ]
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine >= 8.0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_raises(self):
        blowup = gs.VectorField("blowup", 1, 1, lambda x, u: x * x * 1e3)
        with pytest.raises(NonFinite):
            gs.integrate(blowup, [10.0], [0.0], 10.0, substeps=50)

    def test_path_endpoints(self):
        path = integrate_path(BICYCLE, [0, 0, 0], [1, 0], 0.3, substeps=5)
        assert path.shape == (6, 3)
        assert np.allclose(path[0], [0, 0, 0])
        assert np.array_equal(path[-1], gs.integrate(BICYCLE, [0, 0, 0], [1, 0], 0.3))
        # a batch keeps its leading axis behind the substep axis
        batch = integrate_path(BICYCLE, np.zeros((4, 3)), [1, 0], 0.3, substeps=5)
        assert batch.shape == (6, 4, 3)
        assert np.array_equal(batch[:, 2], path)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_path_returns_blowup_unjudged(self):
        blowup = gs.VectorField("blowup", 1, 1, lambda x, u: x * x * 1e3)
        path = integrate_path(blowup, [10.0], [0.0], 10.0, substeps=50)
        assert path.shape == (51, 1)
        assert not np.isfinite(path[-1]).all()


class TestPropagateBox:
    def test_point_propagation(self):
        c, r = gs.propagate_box(BICYCLE, [0, 0, 0], [0, 0, 0], [1, 0], 0.3)
        assert np.allclose(c, [0.3, 0, 0])
        assert np.all(r <= 1e-300)

    def test_translation_preserves_radius(self):
        integ = gs.VectorField(
            "integrator2", 1, 1, lambda x, u: np.broadcast_to(u, x.shape)
        )
        c, r = gs.propagate_box(integ, [0.0], [0.5], [1.0], 1.0)
        assert c == pytest.approx([1.0])
        assert r == pytest.approx([0.5], rel=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_batch_centers_keep_nonfinite_rows(self):
        blowup = gs.VectorField("blowup", 1, 1, lambda x, u: x * x * 1e3)
        c, r = gs.propagate_box(blowup, [[0.0], [10.0]], [0.5], [0.0], 10.0, substeps=50)
        assert c.shape == (2, 1)
        assert c[0] == pytest.approx([0.0])
        assert not np.isfinite(c[1]).any()
        assert r == pytest.approx([0.5], rel=1e-12)

    def test_bicycle_radius_grows(self):
        _, r = gs.propagate_box(BICYCLE, [0, 0, 0], [0.1, 0.1, 0.1], [1, 0], 0.3)
        assert np.all(r >= [0.1, 0.1, 0.1])

    def test_containment_sampling(self):
        # oracle: dense sampling of initial boxes, fine RK4, endpoints inside box
        rng = np.random.default_rng(23)
        for _ in range(25):
            center = rng.uniform([-1, -1, -2], [1, 1, 2])
            radius = rng.uniform(0.01, 0.2, size=3)
            u = rng.uniform([-1, -1], [1, 1])
            c2, r2 = gs.propagate_box(BICYCLE, center, radius, u, 0.3, substeps=20)
            pts = rng.uniform(center - radius, center + radius, size=(400, 3))
            ends = gs.integrate(BICYCLE, pts, u, 0.3, substeps=100)
            assert np.all(np.abs(ends - c2) <= r2 + 1e-9)


class TestGrowthFactor:
    @pytest.mark.parametrize("tau", [0.3, 0.25, 1.0])
    def test_bicycle_factor_is_exactly_affine(self, tau):
        # L is nilpotent for the bicycle: exp(L tau) = I + L tau, with no rounding
        assert np.array_equal(
            growth_factor(BICYCLE, tau), np.eye(3) + BICYCLE.growth_matrix * tau
        )

    def test_upper_bound_within_64_ulps_of_exact(self):
        # exact: exp of the float matrix L * tau at 50 digits
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(200):
            n = int(rng.integers(1, 5))
            L = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.6)
            L *= rng.choice([1.0, 1e-3, 1e-8])
            cases.append((L, float(rng.choice([0.1, 0.3, 1.0, 2.5]))))
        # perfbench's drift field: current amplitude 0.12, wave number 1.2, |v| <= 1
        drift = np.array([[0.0, 0.12 * 1.2, 1.0], [0.12 * 1.2, 0.0, 1.0], [0.0, 0.0, 0.0]])
        cases += [(drift, tau) for tau in (0.2, 0.3, 0.45, 0.6, 1.0)]
        with mp.workdps(50):
            for L, tau in cases:
                n = len(L)
                A = L * tau
                G = growth_factor(gs.VectorField("t", n, 1, None, L), tau)
                exact = mp.expm(mp.matrix([[mp.mpf(float(v)) for v in row] for row in A]))
                for i in range(n):
                    for j in range(n):
                        e = exact[i, j]
                        assert mp.mpf(float(G[i, j])) >= e, (A, i, j)
                        assert G[i, j] - float(e) <= 64 * np.spacing(float(e)), (A, i, j)

    def test_overflow_is_infinite_where_the_value_overflows(self):
        def factor(L):
            return growth_factor(gs.VectorField("t", len(L), 1, None, np.array(L)), 1.0)

        assert np.array_equal(factor([[1000.0, 0.0], [0.0, 0.0]]), [[np.inf, 0.0], [0.0, 1.0]])
        assert np.array_equal(factor([[1000.0, 1.0], [0.0, 0.0]]), [[np.inf, np.inf], [0.0, 1.0]])
        assert np.all(np.isinf(factor([[0.0, 1000.0], [1000.0, 0.0]])))
        assert np.array_equal(factor([[np.inf, 0.0], [0.0, 0.0]]), [[np.inf, 0.0], [0.0, 1.0]])
        # e^709 is finite: 8.218407461554972e307 rounded to nearest
        big = factor([[709.0]])[0, 0]
        assert np.isfinite(big) and big >= 8.218407461554972e307

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_overflowing_radius_blocks_every_pair(self):
        # an infinite image radius leaves the grid, so every pair is blocked
        field = gs.VectorField(
            "t", 2, 1, lambda x, u: np.zeros_like(x) + u[0], np.array([[1000.0, 0.0], [0.0, 0.0]])
        )
        grid = UniformGrid(HyperRect([0.0, 0.0], [4.0, 4.0]), np.array([1.0, 1.0]), [False, False])
        fts = build_abstraction(grid, np.array([[0.0], [0.5]]), field, 1.0)
        assert np.all(fts.blocked)
        assert len(fts.succ) == 0
        assert fts.nonfinite_pairs == 0

    def test_nan_growth_matrix_rejected(self):
        with pytest.raises(GeometryError, match="non-negative"):
            gs.VectorField("t", 1, 1, None, np.array([[np.nan]]))


# --- declared invariant dimensions ----------------------------------------------

PLAIN_BICYCLE = dataclasses.replace(BICYCLE, invariant_dims=())


def drift_like(invariant_dims):
    """A unicycle in a current that depends on position (x, y)."""

    def f(x, u):
        return np.stack(
            [
                u[0] * np.cos(x[..., 2]) + 0.1 * np.sin(x[..., 1]),
                u[0] * np.sin(x[..., 2]) + 0.1 * np.sin(x[..., 0]),
                u[1] * np.ones_like(x[..., 2]),
            ],
            axis=-1,
        )

    return gs.VectorField("drift-like", 3, 2, f, invariant_dims=invariant_dims)


class TestInvariantDims:
    def test_declaration_is_sorted(self):
        assert BICYCLE.invariant_dims == (0, 1)
        assert drift_like((1, 0)).invariant_dims == (0, 1)
        assert drift_like(()).invariant_dims == ()

    @pytest.mark.parametrize("dims", [(3,), (-1,), (0, 0), (2, 1, 2)])
    def test_bad_declaration_raises(self, dims):
        with pytest.raises(GeometryError, match="drift-like"):
            drift_like(dims)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_wrong_declaration_is_caught(self, cpus, monkeypatch):
        # the current reads x and y, so declaring them invariant is a lie;
        # with two inputs and two CPUs the error comes from a pool thread
        monkeypatch.setattr("gridsynth.abstraction._cpu_count", lambda: cpus)
        spec = case01_spec()
        centers = spec.build_grid().all_centers()
        with pytest.raises(GeometryError, match="drift-like"):
            integrate_path(drift_like((0, 1)), centers, [1.0, 0.0], spec.tau)
        with pytest.raises(GeometryError, match="drift-like"):
            build_abstraction(
                spec.build_grid(),
                np.array([[1.0, 0.0], [0.5, 0.0]]),
                drift_like((0, 1)),
                spec.tau,
            )
        # the same field without the declaration integrates on the plain path
        honest = integrate_path(drift_like(()), centers, [1.0, 0.0], spec.tau)
        assert np.isfinite(honest).all()

    # (0, 1) groups by heading alone, (1,) by (x, heading) pairs
    @pytest.mark.parametrize("dims", [(0, 1), (1,)])
    def test_reduced_path_equals_full_path_on_case01_grid(self, dims):
        spec = case01_spec()
        centers = spec.build_grid().all_centers()
        inputs = build_input_grid(spec.input_bounds, spec.eta_u)
        full_steer = [[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
        chosen = np.vstack([inputs[[0, 6, 24, 42, 48]], full_steer])
        declared = dataclasses.replace(BICYCLE, invariant_dims=dims)
        for u in chosen:
            reduced = integrate_path(declared, centers, u, spec.tau)
            full = integrate_path(PLAIN_BICYCLE, centers, u, spec.tau)
            assert reduced.shape == (6, 20 * 20 * 31, 3)
            assert np.array_equal(reduced, full)

    def test_one_eval_row_per_heading(self):
        spec = case01_spec()
        centers = spec.build_grid().all_centers()
        rows = []

        def counting(x, u):
            rows.append(x.shape[0])
            return gs.bicycle_f(x, u)

        counted = dataclasses.replace(BICYCLE, eval_fn=counting)
        integrate_path(counted, centers, [0.9, 0.9], spec.tau)
        # four stages per substep, plus the declaration check on the first
        assert rows == [31] * (4 * 5 + 1)

    def test_field_that_reads_no_state(self):
        # every row forms one group; the shift is still added row by row
        shift = gs.VectorField(
            "shift", 1, 1, lambda x, u: np.broadcast_to(u, x.shape), invariant_dims=(0,)
        )
        plain = dataclasses.replace(shift, invariant_dims=())
        x0 = np.linspace(0.0, 1.0, 7)[:, None]
        path = integrate_path(shift, x0, [0.3], 1.0)
        assert np.array_equal(path, integrate_path(plain, x0, [0.3], 1.0))

    def test_single_state_matches_batch_row(self):
        # the closed loop integrates one state at a time on the plain path
        rng = np.random.default_rng(11)
        batch = rng.uniform([0, 0, -3], [4, 4, 3], size=(40, 3))
        batch[20:, 2] = batch[:20, 2]  # every heading appears twice
        for u in ([1.0, 1.0], [-0.6, 0.3]):
            together = integrate_path(BICYCLE, batch, u, 0.3)
            for i in (0, 7, 20, 39):
                alone = integrate_path(BICYCLE, batch[i], u, 0.3)
                assert np.array_equal(alone, integrate_path(PLAIN_BICYCLE, batch[i], u, 0.3))
                assert np.array_equal(alone, together[:, i])

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nonfinite_rate_on_kept_coordinate(self):
        # x0 is never read; the rate is infinite where x1 > 3, so whole
        # groups of cells blow up and must be blocked exactly as without
        # the declaration
        def f(x, u):
            return np.stack(
                [np.where(x[..., 1] > 3.0, np.inf, u[0]) * np.ones_like(x[..., 0]),
                 u[0] * np.cos(x[..., 1])],
                axis=-1,
            )

        declared = gs.VectorField(
            "inf-upper", 2, 1, f, growth_matrix=np.ones((2, 2)), invariant_dims=(0,)
        )
        twin = dataclasses.replace(declared, invariant_dims=())
        grid = UniformGrid(
            HyperRect([0.0, 0.0], [6.0, 6.0]), np.array([0.5, 0.5]), [False, False]
        )
        inputs = np.array([[-0.5], [0.0], [0.5]])
        a = build_abstraction(grid, inputs, declared, 0.5)
        b = build_abstraction(grid, inputs, twin, 0.5)
        assert 0 < a.nonfinite_pairs == b.nonfinite_pairs < a.blocked.sum() < a.blocked.size
        assert np.array_equal(a.blocked, b.blocked)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.succ, b.succ)
