import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridsynth as gs
from gridsynth.errors import (
    EmptyInputSet,
    GeometryError,
    NegativeSide,
    NonAxisAligned,
    OutOfBounds,
)
from gridsynth.geometry import _strides, snap_eta_periodic


def grid1d(width=4.0, eta=1.0, periodic=False):
    return gs.UniformGrid(gs.HyperRect([0.0], [width]), [eta], [periodic])


class TestHyperRect:
    def test_inverted_rejected(self):
        with pytest.raises(GeometryError):
            gs.HyperRect([1.0, 0.0], [0.0, 1.0])

    def test_closed_intersection(self):
        # cell (0, 0) is the closed box [0, 1]^2: a corner touch meets it
        g = gs.UniformGrid(gs.HyperRect([0, 0], [4, 4]), [1.0, 1.0])
        assert 0 in g.cells_overlapping(gs.HyperRect([1, 1], [2, 2]))
        assert 0 not in g.cells_overlapping(gs.HyperRect([1.1, 1.1], [2, 2]))


class TestCellOf:
    def test_lower_corner(self):
        g = grid1d()
        assert g.cell_of([0.0]).flat_id == 0
        assert np.allclose(g.all_centers()[0], [0.5])

    def test_half_open_boundary(self):
        # x exactly on an interior cell boundary belongs to the upper cell
        g = grid1d()
        assert g.cell_of([1.0]).flat_id == 1

    def test_2d_example(self):
        g = gs.UniformGrid(gs.HyperRect([0, 0], [4, 4]), [0.5, 0.5])
        c = g.cell_of([1.3, 3.9])
        # oracle: floor((x - lower) / eta)
        assert c.multi_index == (2, 7)

    def test_out_of_bounds(self):
        g = grid1d()
        with pytest.raises(OutOfBounds):
            g.cell_of([4.5])
        with pytest.raises(OutOfBounds):
            g.cell_of([4.0])  # upper face is outside the half-open tiling

    def test_periodic_wraps(self):
        g = grid1d(periodic=True)
        assert g.cell_of([4.5]).flat_id == g.cell_of([0.5]).flat_id
        assert g.cell_of([-0.5]).flat_id == g.cell_of([3.5]).flat_id


class TestCenterOf:
    def test_simple(self):
        g = grid1d()
        assert np.allclose(g.all_centers(), [[0.5], [1.5], [2.5], [3.5]])

    def test_periodic_high_precision(self):
        g = gs.UniformGrid(
            gs.HyperRect([-math.pi], [math.pi]), [math.pi / 2], [True]
        )
        # lower + (k + 0.5) * eta for k = 3
        assert g.all_centers()[3] == pytest.approx([3 * math.pi / 4], abs=1e-15)

    def test_round_trip_random_cells(self):
        g = gs.UniformGrid(gs.HyperRect([0, 0, -1], [4, 4, 1]), [0.5, 0.25, 0.5])
        centers = g.all_centers()
        assert centers.shape == (g.num_cells, 3)
        rng = np.random.default_rng(7)
        for flat in rng.integers(0, g.num_cells, size=1000):
            assert g.cell_of(centers[flat]).flat_id == int(flat)


class TestCellsOverlapping:
    @staticmethod
    def brute_force(g, r, mode="overlap"):
        """Cells whose closed box, moved by any whole revolution in the
        periodic dimensions, meets r (overlap) or lies inside it (contain)."""
        width = np.where(g.periodic, g.bounds.upper - g.bounds.lower, 0.0)
        shifts = [
            np.array(k) * width
            for k in itertools.product(*[(-1, 0, 1) if p else (0,) for p in g.periodic])
        ]
        box_lo = g.all_centers() - g.eta / 2
        box_hi = g.all_centers() + g.eta / 2
        hit = np.zeros(g.num_cells, dtype=bool)
        for shift in shifts:
            lo, hi = box_lo + shift, box_hi + shift
            if mode == "overlap":
                hit |= np.all((lo <= r.upper + 1e-12) & (r.lower <= hi + 1e-12), axis=1)
            else:
                hit |= np.all((lo >= r.lower - 1e-12) & (hi <= r.upper + 1e-12), axis=1)
        return set(np.flatnonzero(hit).tolist())

    def test_one_cell_box_includes_touching_neighbors(self):
        g = gs.UniformGrid(gs.HyperRect([0, 0], [4, 4]), [1.0, 1.0])
        c = g.all_centers()[5]  # interior cell
        r = gs.HyperRect(c - g.eta / 2, c + g.eta / 2)
        assert g.cells_overlapping(r) == self.brute_force(g, r)

    def test_full_bounds_gives_all_cells(self):
        g = gs.UniformGrid(gs.HyperRect([0, 0], [4, 4]), [1.0, 1.0])
        assert g.cells_overlapping(g.bounds) == set(range(g.num_cells))

    def test_point_at_center_gives_one_cell(self):
        g = gs.UniformGrid(gs.HyperRect([0, 0], [4, 4]), [1.0, 1.0])
        center = g.all_centers()[7]
        r = gs.HyperRect(center, center)
        assert g.cells_overlapping(r) == {7}

    def test_disjoint_rect_empty_not_error(self):
        g = grid1d()
        assert g.cells_overlapping(gs.HyperRect([10.0], [11.0])) == set()

    def test_random_rects_match_brute_force(self):
        grids = [
            gs.UniformGrid(gs.HyperRect([0, 0], [4, 4]), [0.5, 0.5]),
            gs.UniformGrid(
                gs.HyperRect([0, 0, -math.pi], [2, 1.5, math.pi]),
                [0.5, 0.25, math.pi / 4], [False, False, True],
            ),
            gs.UniformGrid(
                gs.HyperRect([0, -1, 0], [1.5, 1, 2]), [0.5, 0.4, 0.25], [True, True, True]
            ),
        ]
        rng = np.random.default_rng(3)
        for g, aligned in itertools.product(grids, (False, True)):
            lo, hi = g.bounds.lower, g.bounds.upper
            for _ in range(40):
                if aligned:  # corners on lattice lines, k * eta from the lower corner
                    a, b = lo + rng.integers(0, np.array(g.shape) + 1, size=(2, g.n)) * g.eta
                else:
                    a, b = rng.uniform(lo, hi, size=(2, g.n))
                r = gs.HyperRect(np.minimum(a, b), np.maximum(a, b))
                assert g.cells_overlapping(r) == self.brute_force(g, r)
                assert g.cells_contained(r) == self.brute_force(g, r, "contain")


class TestRectFromEncoding:
    def test_diagonal_canonicalizes(self):
        r = gs.rect_from_encoding(gs.TwoDiagonalVertices((3, 1), (1, 4)))
        assert tuple(r.lower) == (1, 1)
        assert tuple(r.upper) == (3, 4)

    def test_center_sides(self):
        r = gs.rect_from_encoding(gs.CenterAndSides((2, 2), (2, 4)))
        assert tuple(r.lower) == (1, 0)
        assert tuple(r.upper) == (3, 4)

    def test_cross_encoding_equivalence(self):
        four = gs.rect_from_encoding(
            gs.FourVertices(((1, 1), (3, 1), (3, 4), (1, 4)))
        )
        diag = gs.rect_from_encoding(gs.TwoDiagonalVertices((3, 1), (1, 4)))
        assert np.array_equal(four.lower, diag.lower)
        assert np.array_equal(four.upper, diag.upper)

    def test_non_axis_aligned_rejected(self):
        with pytest.raises(NonAxisAligned):
            gs.rect_from_encoding(gs.FourVertices(((0, 0), (2, 1), (3, 3), (1, 2))))

    def test_negative_side_rejected(self):
        with pytest.raises(NegativeSide):
            gs.rect_from_encoding(gs.CenterAndSides((0, 0), (-1, 1)))


class TestGridValidation:
    def test_indivisible_bounds_rejected(self):
        with pytest.raises(GeometryError):
            gs.UniformGrid(gs.HyperRect([0.0], [4.0]), [0.3])

    def test_periodic_eta_snap(self):
        bounds = gs.HyperRect([0, 0, -math.pi], [4, 4, math.pi])
        eta = snap_eta_periodic(bounds, [0.2, 0.2, 0.2], [False, False, True])
        assert eta[0] == 0.2 and eta[1] == 0.2
        assert eta[2] == pytest.approx(2 * math.pi / 31)
        gs.UniformGrid(bounds, eta, [False, False, True])  # divisible now

    def test_cell_count_is_exact_past_int64(self):
        # 1e8 cells per axis, 1e24 in all: only the grid is built, no array
        g = gs.UniformGrid(gs.HyperRect([0, 0, 0], [4, 4, 4]), [4e-8] * 3)
        assert g.shape == (10**8,) * 3
        assert g.num_cells == 10**24
        assert g._strides.tolist() == [10**16, 10**8, 1]
        with pytest.raises(OverflowError):  # a stride of 1e24 does not fit int64
            _strides((10**8,) * 4)

    @pytest.mark.parametrize("far", [1e17, 1e19, 1e300, math.inf])
    def test_huge_box_covers_the_periodic_ring(self, far):
        g = grid1d(periodic=True)
        assert g.cells_overlapping(gs.HyperRect([-far], [far])) == {0, 1, 2, 3}
        assert g.cells_overlapping(gs.HyperRect([-far], [0.5])) == {0, 1, 2, 3}


# --- property-style invariants ---------------------------------------------------


@given(
    x=st.lists(st.floats(min_value=0.0, max_value=3.999), min_size=2, max_size=2)
)
@settings(max_examples=200)
def test_quantization_soundness_hypothesis(x):
    g = gs.UniformGrid(gs.HyperRect([0, 0], [4, 4]), [0.25, 0.5])
    c = g.cell_of(x)
    assert np.all(np.abs(np.asarray(x) - g.all_centers()[c.flat_id]) <= g.eta / 2 + 1e-12)


def test_quantization_soundness_bulk():
    g = gs.UniformGrid(gs.HyperRect([0, 0, -1], [4, 4, 1]), [0.2, 0.4, 0.5])
    rng = np.random.default_rng(11)
    pts = rng.uniform(g.bounds.lower, g.bounds.upper - 1e-12, size=(10_000, 3))
    centers = g.all_centers()
    for p in pts:
        assert np.all(np.abs(p - centers[g.cell_of(p).flat_id]) <= g.eta / 2 + 1e-12)


def test_partition_no_overlap_no_gap():
    # every point maps to exactly one cell and that cell's half-open box holds it
    g = gs.UniformGrid(gs.HyperRect([0, 0], [4, 4]), [0.5, 0.5])
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 4 - 1e-12, size=(10_000, 2))
    centers = g.all_centers()
    for p in pts:
        c = centers[g.cell_of(p).flat_id]
        lo = c - g.eta / 2
        hi = c + g.eta / 2
        assert np.all(p >= lo - 1e-12) and np.all(p < hi + 1e-12)


def test_encoding_invariance_random():
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        a = rng.uniform(-5, 5, size=2)
        b = rng.uniform(-5, 5, size=2)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        r1 = gs.rect_from_encoding(gs.TwoDiagonalVertices(tuple(lo), tuple(hi)))
        r2 = gs.rect_from_encoding(
            gs.CenterAndSides(tuple((lo + hi) / 2), tuple(hi - lo))
        )
        r3 = gs.rect_from_encoding(
            gs.FourVertices(
                ((lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1]))
            )
        )
        assert r1.approx_equal(r2, tol=1e-12)
        assert r1.approx_equal(r3, tol=0.0)


def test_periodic_wrap_invariance():
    g = gs.UniformGrid(gs.HyperRect([-math.pi], [math.pi]), [math.pi / 8], [True])
    rng = np.random.default_rng(19)
    width = 2 * math.pi
    for _ in range(10_000):
        x = rng.uniform(-math.pi, math.pi)
        k = rng.integers(-3, 4)
        assert g.cell_of([x]).flat_id == g.cell_of([x + k * width]).flat_id
