"""Hyperrectangle arithmetic, uniform lattices, and state quantization.

The grid partitions its bounding box into half-open cells
``[center - eta/2, center + eta/2)`` per dimension, so every point of the
(half-open) box maps to exactly one cell.  Obstacle marking uses closed
intersection instead, which keeps the abstraction conservative.

This module owns the lattice code: every map from boxes to cells goes
through UniformGrid.overlap_range (or the containment rounding of
cells_contained) to per-dimension index ranges, and through _clip and
_expand to flat ids.  The abstraction's successor boxes and the spec
labels share that path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import (
    GeometryError,
    NegativeSide,
    NonAxisAligned,
    OutOfBounds,
    SchemaError,
)

# Tolerance for "is this float an exact lattice multiple" decisions.
SNAP_TOL = 1e-9

# Bound on lattice coordinates, in cells, before they are cast to int64
# indices.  From 2**53 on a float has no fractional digit left, and with
# indices within +-(2**53 + 1) no difference of two of them wraps in int64.
LATTICE_LIMIT = 2.0**53

# Most per-cell array entries a run may ask for: cells x inputs for a spec,
# cells x stages x row numbers (value, choice, inputs) for a controller table.
# The per-cell build of case12 (27,900 cells x 49 inputs = 1.37 M pairs, the
# largest fixture) peaks near 128 B per pair under tracemalloc: 2**24 is 12
# times case12, so a build stays near 2 GB and a table near 134 MB.
SIZE_BUDGET = 2**24


def check_size(what: str, **counts) -> None:
    """SchemaError naming the estimate when the product of counts passes SIZE_BUDGET."""
    if (total := math.prod(counts.values())) > SIZE_BUDGET:
        terms = " x ".join(f"{n} {name}" for name, n in counts.items())
        raise SchemaError(f"{what} needs {terms} = {Decimal(total):.3g} entries, "
                          f"over the size budget of {SIZE_BUDGET}")


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

    def contains(self, x, tol=0.0):
        """Closed membership test; accepts a single point or an (N, dim) batch."""
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lower - tol) & (x <= self.upper + tol), axis=-1)

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


# --- lattice index arithmetic ---------------------------------------------------


def _strides(shape) -> np.ndarray:
    """Row-major strides of a lattice: flat id = multi-index @ strides.

    Taken over Python ints, so a lattice whose strides pass int64 raises
    OverflowError instead of wrapping.
    """
    shape = [int(s) for s in shape]
    return np.array([math.prod(shape[i + 1 :]) for i in range(len(shape))], dtype=np.int64)


def _clip(k_min, k_max, blocked, shape, periodic):
    """Clip index ranges to a lattice: (first index, span, cell count) per row.

    Periodic dimensions wrap (the span is clipped to a full revolution), the
    others clamp; a blocked row counts no cells.
    """
    first = np.where(periodic, k_min, np.maximum(k_min, 0))
    last = np.minimum(k_max, np.where(periodic, k_min, 0) + (shape - 1))
    span = np.maximum(last - first + 1, 0)
    counts = np.where(blocked, 0, np.prod(span, axis=1))
    return first, span, counts


def _expand(k_min, span, counts, shape, periodic, dtype):
    """Flat ids of the clipped boxes of _clip, row after row, each row sorted."""
    n = len(shape)
    strides = _strides(shape)
    offsets = np.cumsum(counts) - counts
    flat = np.empty(int(counts.sum()), dtype=dtype)

    # A periodic dimension lists its cyclic interval a, a+1, ... (mod N) in
    # ascending order: the w values that wrap past N come first as
    # 0..w-1, then a..N-1.  So the d-th value is a + d - (a if d < w else
    # w), and the row-major product of the per-dimension lists is sorted.
    a = np.where(periodic, k_min % shape, k_min)
    w = np.where(periodic, np.maximum(a + span - shape, 0), 0)
    base = a @ strides
    # rows with the same span share one offset stencil
    live = np.flatnonzero(counts)
    keys, group = np.unique(
        np.ravel_multi_index(span[live].T, shape + 1), return_inverse=True
    )
    for g, key in enumerate(keys):
        rows = live[group == g]
        digits = np.indices(np.unravel_index(key, shape + 1)).reshape(n, -1)
        block = (base[rows, None] + (strides @ digits)[None, :]).astype(dtype)
        for i in np.flatnonzero(periodic):
            wrap = np.flatnonzero(w[rows, i])
            if wrap.size:
                ai = a[rows[wrap], i, None]
                wi = w[rows[wrap], i, None]
                block[wrap] -= np.where(digits[i] < wi, ai, wi) * strides[i]
        flat[offsets[rows, None] + np.arange(digits.shape[1])] = block
    return flat


# --- the uniform grid --------------------------------------------------------


@dataclass(frozen=True)
class CellIndex:
    multi_index: tuple
    flat_id: int


def _cells_per_axis(bounds: HyperRect, eta) -> np.ndarray:
    """Per axis, the bounds' width over eta; GeometryError naming the first
    axis where that is not finite and below 2**63, i.e. not an int64 count."""
    with np.errstate(all="ignore"):
        width = bounds.upper - bounds.lower
        ratio = width / eta
    for i, r in enumerate(ratio):
        if not r < 2.0**63:
            raise GeometryError(
                f"axis {i}: width {width[i]} over eta {eta[i]} is {r} cells, "
                "not a finite count below 2**63"
            )
    return ratio


def snap_eta_periodic(bounds: HyperRect, eta, periodic):
    """Adjust eta on periodic dimensions to the nearest exact divisor of the width.

    Periodic wrapping needs an integer cell count; non-periodic dimensions are
    left untouched (and rejected later if not divisible).
    """
    eta = _as_vector(eta, "eta").copy()
    ratio = _cells_per_axis(bounds, eta)
    for i, per in enumerate(periodic):
        if per:
            k = max(1, int(round(ratio[i])))
            eta[i] = (bounds.upper[i] - bounds.lower[i]) / k
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

        ratio = _cells_per_axis(bounds, eta)
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
        self.num_cells = math.prod(self.shape)  # a Python int: never wraps
        self._strides = _strides(self.shape)

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

    def axis_centers(self) -> list:
        """Per dimension, the center coordinate of each cell index along it."""
        return [
            self.bounds.lower[i] + (np.arange(s) + 0.5) * self.eta[i]
            for i, s in enumerate(self.shape)
        ]

    def all_centers(self) -> np.ndarray:
        """(num_cells, n) array of cell centers in flat-id order."""
        mesh = np.meshgrid(*self.axis_centers(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    # -- set operations --------------------------------------------------------

    def _lattice(self, x):
        """Coordinates of x in cells from the lower corner, snapped to lattice lines.

        Clamped to +-LATTICE_LIMIT, so that an infinite or huge coordinate
        still casts to an index beyond every cell: a box from -inf to inf
        spans the whole ring of a periodic dimension, not one cell.
        """
        return snap(np.clip((x - self.bounds.lower) / self.eta, -LATTICE_LIMIT, LATTICE_LIMIT))

    def overlap_range(self, lo, hi):
        """(k_min, k_max): per dimension the first and last cell index whose
        closed box meets the closed box [lo, hi], before any clipping.

        lo and hi may be (n,) corners or (..., n) batches of them.  Where
        either end of a periodic dimension reaches +-LATTICE_LIMIT, the float
        has lost the box's place on the ring, and the range is the whole
        ring from k_min.
        """
        v_lo, v_hi = self._lattice(lo), self._lattice(hi)
        k_min = np.ceil(v_lo - 1.0).astype(np.int64)
        k_max = np.floor(v_hi).astype(np.int64)
        lost = np.array(self.periodic) & (
            (np.abs(v_lo) >= LATTICE_LIMIT) | (np.abs(v_hi) >= LATTICE_LIMIT)
        )
        k_max = np.where(lost, k_min + (np.array(self.shape) - 1), k_max)
        return k_min, k_max

    def cells_between(self, k_min, k_max):
        """Flat ids of the cells k_min..k_max (inclusive, per dimension).

        Periodic dimensions wrap, the others clamp to the grid.
        """
        shape = np.array(self.shape, dtype=np.int64)
        periodic = np.array(self.periodic, dtype=bool)
        first, span, counts = _clip(
            np.atleast_2d(k_min), np.atleast_2d(k_max), False, shape, periodic
        )
        return set(_expand(first, span, counts, shape, periodic, np.int64).tolist())

    def cells_overlapping(self, r: HyperRect):
        """Flat ids of all cells whose closed box intersects the closed rect r.

        Boundary touching counts, which is the conservative direction for
        obstacle marking.  An empty intersection yields an empty set.
        """
        if r.dim != self.n:
            raise GeometryError("rectangle dimension mismatch with grid")
        return self.cells_between(*self.overlap_range(r.lower, r.upper))

    def cells_contained(self, r: HyperRect):
        """Flat ids of cells whose closed box is entirely inside r (target labeling)."""
        if r.dim != self.n:
            raise GeometryError("rectangle dimension mismatch with grid")
        k_min = np.ceil(self._lattice(r.lower)).astype(np.int64)
        k_max = np.floor(self._lattice(r.upper) - 1.0).astype(np.int64)
        return self.cells_between(k_min, k_max)
