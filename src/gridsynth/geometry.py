"""Hyperrectangle arithmetic, uniform lattices, and state quantization.

The grid partitions its bounding box into half-open cells
``[center - eta/2, center + eta/2)`` per dimension, so every point of the
(half-open) box maps to exactly one cell.  Obstacle marking uses closed
intersection instead, which keeps the abstraction conservative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GeometryError,
    InvalidIndex,
    NegativeSide,
    NonAxisAligned,
    OutOfBounds,
)

# Tolerance for "is this float an exact lattice multiple" decisions.
SNAP_TOL = 1e-9


def _as_vector(v, name="vector"):
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise GeometryError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


def snap(v):
    """Round v to the nearest integer when it is within SNAP_TOL of one."""
    r = np.round(v)
    return np.where(np.abs(v - r) <= SNAP_TOL, r, v)


@dataclass(frozen=True)
class HyperRect:
    """Axis-aligned box given by componentwise lower/upper corners."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _as_vector(self.lower, "lower")
        hi = _as_vector(self.upper, "upper")
        if lo.shape != hi.shape:
            raise GeometryError("lower/upper dimension mismatch")
        if np.any(lo > hi):
            raise GeometryError(f"inverted rectangle: lower {lo} > upper {hi}")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self):
        return self.lower.size

    @property
    def center(self):
        return 0.5 * (self.lower + self.upper)

    @property
    def sides(self):
        return self.upper - self.lower

    def contains(self, x, tol=0.0):
        """Closed membership test; accepts a single point or an (N, dim) batch."""
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lower - tol) & (x <= self.upper + tol), axis=-1)

    def intersects(self, other: "HyperRect", tol=0.0):
        """Closed-box intersection test (boundary touching counts)."""
        return bool(
            np.all(self.lower <= other.upper + tol)
            and np.all(other.lower <= self.upper + tol)
        )

    def inflate(self, margin):
        """Minkowski sum with the inf-norm ball of the given radius."""
        m = np.broadcast_to(np.asarray(margin, dtype=float), self.lower.shape)
        if np.any(m < 0):
            raise GeometryError("inflation margin must be non-negative")
        return HyperRect(self.lower - m, self.upper + m)

    def extend(self, tail: "HyperRect"):
        """Append further dimensions taken from tail (e.g. full orientation range)."""
        return HyperRect(
            np.concatenate([self.lower, tail.lower]),
            np.concatenate([self.upper, tail.upper]),
        )

    def approx_equal(self, other: "HyperRect", tol=1e-9):
        return (
            self.dim == other.dim
            and np.all(np.abs(self.lower - other.lower) <= tol)
            and np.all(np.abs(self.upper - other.upper) <= tol)
        )


# --- rectangle encodings (the three NL obstacle description variants) -------


@dataclass(frozen=True)
class FourVertices:
    """All four corners of an axis-aligned 2-D rectangle, any order."""

    vertices: tuple  # four (x, y) pairs


@dataclass(frozen=True)
class TwoDiagonalVertices:
    """Two opposite corners, any order, any dimension."""

    a: tuple
    b: tuple


@dataclass(frozen=True)
class CenterAndSides:
    """Center point plus full side length per dimension."""

    center: tuple
    sides: tuple


RectEncoding = FourVertices | TwoDiagonalVertices | CenterAndSides


def rect_from_encoding(encoding: RectEncoding) -> HyperRect:
    """Canonicalize any of the three encodings to a lower/upper HyperRect.

    All encodings of the same region produce bit-identical corners because
    canonicalization is a plain min/max per coordinate.
    """
    if isinstance(encoding, TwoDiagonalVertices):
        a = _as_vector(encoding.a, "diagonal vertex")
        b = _as_vector(encoding.b, "diagonal vertex")
        if a.shape != b.shape:
            raise GeometryError("diagonal vertices dimension mismatch")
        return HyperRect(np.minimum(a, b), np.maximum(a, b))

    if isinstance(encoding, CenterAndSides):
        c = _as_vector(encoding.center, "center")
        s = _as_vector(encoding.sides, "sides")
        if c.shape != s.shape:
            raise GeometryError("center/sides dimension mismatch")
        if np.any(s < 0):
            raise NegativeSide(f"negative side length in {tuple(s)}")
        return HyperRect(c - s / 2.0, c + s / 2.0)

    if isinstance(encoding, FourVertices):
        vs = np.asarray(encoding.vertices, dtype=float)
        if vs.shape != (4, 2):
            raise NonAxisAligned("four-vertex encoding requires four 2-D points")
        lo = vs.min(axis=0)
        hi = vs.max(axis=0)
        corners = {
            (lo[0], lo[1]),
            (lo[0], hi[1]),
            (hi[0], lo[1]),
            (hi[0], hi[1]),
        }
        for v in vs:
            if not any(
                abs(v[0] - c[0]) <= SNAP_TOL and abs(v[1] - c[1]) <= SNAP_TOL
                for c in corners
            ):
                raise NonAxisAligned(f"vertex {tuple(v)} is not a box corner")
        # every corner must be hit, otherwise two vertices coincide
        for c in corners:
            if not any(
                abs(v[0] - c[0]) <= SNAP_TOL and abs(v[1] - c[1]) <= SNAP_TOL
                for v in vs
            ):
                raise NonAxisAligned("vertices do not cover all four corners")
        return HyperRect(lo, hi)

    raise GeometryError(f"unknown rectangle encoding {type(encoding).__name__}")


# --- the uniform grid --------------------------------------------------------


@dataclass(frozen=True)
class CellIndex:
    multi_index: tuple
    flat_id: int


def snap_eta_periodic(bounds: HyperRect, eta, periodic):
    """Adjust eta on periodic dimensions to the nearest exact divisor of the width.

    Periodic wrapping needs an integer cell count; non-periodic dimensions are
    left untouched (and rejected later if not divisible).
    """
    eta = _as_vector(eta, "eta").copy()
    for i, per in enumerate(periodic):
        if per:
            width = bounds.upper[i] - bounds.lower[i]
            k = max(1, int(round(width / eta[i])))
            eta[i] = width / k
    return eta


class UniformGrid:
    """Uniform axis-aligned lattice over a bounding box.

    Cell k (per dimension) covers ``[lower + k*eta, lower + (k+1)*eta)`` with
    center ``lower + (k + 0.5) * eta``.  Flat ids are the row-major flattening
    of the per-dimension multi-index.
    """

    def __init__(self, bounds: HyperRect, eta, periodic=None):
        eta = _as_vector(eta, "eta")
        if eta.shape != bounds.lower.shape:
            raise GeometryError("eta dimension mismatch with bounds")
        if np.any(eta <= 0):
            raise GeometryError("eta must be positive componentwise")
        if periodic is None:
            periodic = [False] * bounds.dim
        periodic = tuple(bool(p) for p in periodic)
        if len(periodic) != bounds.dim:
            raise GeometryError("periodic flags dimension mismatch")

        ratio = (bounds.upper - bounds.lower) / eta
        shape = np.round(ratio).astype(int)
        if np.any(np.abs(ratio - shape) > SNAP_TOL) or np.any(shape < 1):
            raise GeometryError(
                f"bounds not an integer multiple of eta (ratio {ratio})"
            )

        self.bounds = bounds
        self.eta = eta
        self.eta.setflags(write=False)
        self.periodic = periodic
        self.shape = tuple(int(s) for s in shape)
        self.n = bounds.dim
        self.num_cells = int(np.prod(shape))
        self._strides = np.array(
            [int(np.prod(self.shape[i + 1 :])) for i in range(self.n)], dtype=np.int64
        )

    # -- coordinate <-> index maps -------------------------------------------

    def wrap(self, x):
        """Wrap periodic coordinates back into bounds. Works on (..., n) arrays."""
        x = np.array(x, dtype=float)
        for i, per in enumerate(self.periodic):
            if per:
                lo = self.bounds.lower[i]
                width = self.bounds.upper[i] - lo
                x[..., i] = lo + np.mod(x[..., i] - lo, width)
        return x

    def cell_of(self, x) -> CellIndex:
        """Quantize a continuous state to its (half-open) cell."""
        x = self.wrap(np.asarray(x, dtype=float))
        if x.shape != (self.n,):
            raise GeometryError(f"point dimension {x.shape} != grid dimension {self.n}")
        multi = []
        for i in range(self.n):
            k = int(math.floor((x[i] - self.bounds.lower[i]) / self.eta[i]))
            if self.periodic[i]:
                k %= self.shape[i]
            elif not 0 <= k < self.shape[i]:
                raise OutOfBounds(
                    f"coordinate {x[i]} outside [{self.bounds.lower[i]}, "
                    f"{self.bounds.upper[i]}) in dimension {i}"
                )
            multi.append(k)
        return CellIndex(tuple(multi), int(np.dot(multi, self._strides)))

    def cells_of(self, x):
        """Vectorized flat-id quantization for an (N, n) batch of in-bounds points."""
        x = self.wrap(np.asarray(x, dtype=float))
        k = np.floor((x - self.bounds.lower) / self.eta).astype(np.int64)
        for i, per in enumerate(self.periodic):
            if per:
                k[:, i] %= self.shape[i]
        if np.any(k < 0) or np.any(k >= np.array(self.shape)):
            raise OutOfBounds("batch quantization hit an out-of-bounds point")
        return k @ self._strides

    def index(self, flat_id: int) -> CellIndex:
        if not 0 <= flat_id < self.num_cells:
            raise InvalidIndex(f"flat id {flat_id} out of range")
        multi = []
        rem = int(flat_id)
        for s in self._strides:
            multi.append(rem // int(s))
            rem %= int(s)
        return CellIndex(tuple(multi), int(flat_id))

    def center_of(self, c) -> np.ndarray:
        """Center point of a cell (CellIndex or flat id)."""
        if isinstance(c, CellIndex):
            multi = np.asarray(c.multi_index)
            if len(multi) != self.n or np.any(multi < 0) or np.any(
                multi >= np.array(self.shape)
            ):
                raise InvalidIndex(f"multi index {c.multi_index} out of range")
        else:
            multi = np.asarray(self.index(int(c)).multi_index)
        return self.bounds.lower + (multi + 0.5) * self.eta

    def all_centers(self) -> np.ndarray:
        """(num_cells, n) array of cell centers in flat-id order."""
        axes = [
            self.bounds.lower[i] + (np.arange(s) + 0.5) * self.eta[i]
            for i, s in enumerate(self.shape)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def cell_box(self, flat_id) -> HyperRect:
        center = self.center_of(flat_id)
        return HyperRect(center - self.eta / 2.0, center + self.eta / 2.0)

    # -- set operations --------------------------------------------------------

    def _axis_range(self, i, lo_val, hi_val, mode):
        """Per-dimension index list for a [lo_val, hi_val] slab.

        mode 'overlap': cells whose closed box intersects the slab.
        mode 'contain': cells whose closed box lies inside the slab.
        """
        v_lo = float(snap((lo_val - self.bounds.lower[i]) / self.eta[i]))
        v_hi = float(snap((hi_val - self.bounds.lower[i]) / self.eta[i]))
        if mode == "overlap":
            k_min = math.ceil(v_lo - 1.0)
            k_max = math.floor(v_hi)
        else:
            k_min = math.ceil(v_lo)
            k_max = math.floor(v_hi - 1.0)
        size = self.shape[i]
        if self.periodic[i]:
            if k_max - k_min + 1 >= size:
                return list(range(size))
            return sorted({k % size for k in range(k_min, k_max + 1)})
        k_min = max(k_min, 0)
        k_max = min(k_max, size - 1)
        return list(range(k_min, k_max + 1))

    def _cells_by_ranges(self, r: HyperRect, mode):
        if r.dim != self.n:
            raise GeometryError("rectangle dimension mismatch with grid")
        per_dim = [
            self._axis_range(i, r.lower[i], r.upper[i], mode) for i in range(self.n)
        ]
        if any(len(axis) == 0 for axis in per_dim):
            return set()
        out = set()
        for multi in itertools.product(*per_dim):
            out.add(int(np.dot(multi, self._strides)))
        return out

    def cells_overlapping(self, r: HyperRect):
        """Flat ids of all cells whose closed box intersects the closed rect r.

        Boundary touching counts, which is the conservative direction for
        obstacle marking.  An empty intersection yields an empty set.
        """
        return self._cells_by_ranges(r, "overlap")

    def cells_contained(self, r: HyperRect):
        """Flat ids of cells whose closed box is entirely inside r (target labeling)."""
        return self._cells_by_ranges(r, "contain")

