"""Finite transition system construction over a uniform grid.

For every (cell, input) pair the one-period reachable set is over-approximated
by propagating the cell box through the sampled dynamics (growth-bound
inflation), and the successor set is every grid cell the propagated box
touches.  Pairs whose box exits the gridded domain in a non-periodic
dimension are marked blocked: no transition is claimed, which is the
conservative choice.

The relation is stored CSR-style (flat successor array + offsets) so that
construction order, memory layout, and iteration order are all deterministic.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import VectorField, propagate_box
from .errors import EmptyInputSet, EmptyTarget, GeometryError
from .geometry import SNAP_TOL, HyperRect, UniformGrid, snap


def build_input_grid(input_bounds: HyperRect, eta_u) -> np.ndarray:
    """Quantized input set: lattice points k*eta_u inside the closed input box.

    Enumerated row-major; returns an (num_inputs, m) array.
    """
    eta_u = np.asarray(eta_u, dtype=float)
    if eta_u.shape != input_bounds.lower.shape:
        raise GeometryError("eta_u dimension mismatch with input bounds")
    if np.any(eta_u <= 0):
        raise GeometryError("eta_u must be positive componentwise")
    axes = []
    for i in range(input_bounds.dim):
        k_min = int(np.ceil(snap(input_bounds.lower[i] / eta_u[i])))
        k_max = int(np.floor(snap(input_bounds.upper[i] / eta_u[i])))
        if k_min > k_max:
            raise EmptyInputSet(
                f"no multiple of {eta_u[i]} inside "
                f"[{input_bounds.lower[i]}, {input_bounds.upper[i]}]"
            )
        axes.append(np.arange(k_min, k_max + 1) * eta_u[i])
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


# Each task in flight holds one input block's temporaries, the RK4 path the
# largest.  Up to 4 tasks the tracemalloc peak of synthesis + export stayed
# within 0.01 MB of a one-thread build on case12 and the generated perfbench
# specs; at 8 it rose by up to 17 % (fresh002: 47.1 -> 50.5-55.1 MB over
# three runs, the spread set by how many tasks happen to overlap).
MAX_WORKERS = 4


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _index_dtype(max_value: int):
    """Narrowest index dtype for values up to max_value: int32 below 2**31."""
    return np.int32 if max_value < 2**31 else np.int64


@dataclass
class FiniteTransitionSystem:
    """Sparse transition relation over abstract states and inputs.

    Pair (state s, input u) lives at index u * num_states + s; its successor
    list is succ[indptr[q]:indptr[q+1]], sorted and duplicate-free.  Index
    arrays take _index_dtype of their largest value: succ holds state ids
    (int32 unless num_states reaches 2**31), the reverse relation holds pair
    ids; indptr is always int64.
    """

    num_states: int
    num_inputs: int
    indptr: np.ndarray  # int64, length num_states * num_inputs + 1
    succ: np.ndarray  # _index_dtype(num_states)
    blocked: np.ndarray  # bool, length num_states * num_inputs
    eta: np.ndarray = None
    tau: float = 0.0
    nonfinite_pairs: int = 0
    _reverse: tuple = field(default=None, repr=False, compare=False)

    def pair_id(self, s: int, u: int) -> int:
        return u * self.num_states + s

    def delta(self, s: int, u: int) -> np.ndarray:
        q = self.pair_id(s, u)
        return self.succ[self.indptr[q] : self.indptr[q + 1]]

    def is_blocked(self, s: int, u: int) -> bool:
        return bool(self.blocked[self.pair_id(s, u)])

    @property
    def num_transitions(self) -> int:
        return int(self.succ.size)

    def reverse(self):
        """Predecessor map: for each state s', the pair ids q with s' in succ(q).

        Returns (rev_indptr, rev_pairs) CSR over states, pair ids ascending
        within each state; built once, cached.  Filled one input block at a
        time: block u holds pair ids above every earlier block's, so sorting
        each block's edges by (target, pair id) and appending them to their
        targets' rows gives the order of a global stable sort by target
        without any relation-sized temporary.
        """
        if self._reverse is None:
            S, U = self.num_states, self.num_inputs
            blocks = [self.succ[self.indptr[u * S] : self.indptr[(u + 1) * S]] for u in range(U)]
            # per-block counts: a bincount of all of succ would copy it to intp
            hits = np.array([np.bincount(b, minlength=S) for b in blocks])
            rev_indptr = np.zeros(S + 1, dtype=np.int64)
            np.cumsum(hits.sum(axis=0), out=rev_indptr[1:])
            rev_pairs = np.empty(self.succ.size, dtype=_index_dtype(S * U))
            filled = rev_indptr[:-1].copy()  # next free slot of each state's row
            # key target * S + state is unique within a block, so a plain sort
            # orders the block's edges by target, then by pair id; the key
            # later holds pair ids, hence the max(S, U)
            key_dtype = _index_dtype(S * max(S, U))
            states = np.arange(S, dtype=key_dtype)
            for u, targets in enumerate(blocks):
                key = np.repeat(states, np.diff(self.indptr[u * S : (u + 1) * S + 1]))
                key += targets * key_dtype(S)
                key.sort()
                key %= key_dtype(S)
                key += key_dtype(u * S)  # now the pair ids, grouped by target
                # the block's edges into t go to filled[t], filled[t] + 1, ...
                slot = np.repeat(filled - (np.cumsum(hits[u]) - hits[u]), hits[u])
                slot += np.arange(key.size)
                rev_pairs[slot] = key
                filled += hits[u]
            self._reverse = (rev_indptr, rev_pairs)
        return self._reverse


def build_abstraction(
    grid: UniformGrid,
    inputs: np.ndarray,
    f: VectorField,
    tau: float,
    substeps: int = 5,
) -> FiniteTransitionSystem:
    """Construct the transition relation for every (cell, input) pair.

    Each input is one task that handles all cells as one vectorized batch;
    no task depends on another.  The tasks run on a thread pool (numpy
    releases the GIL inside its large array operations) of one thread per
    CPU the process may run on, at most MAX_WORKERS and at most one per
    input.  Their blocks merge in input order, i.e. pair-id order, so the
    relation is the same bytes for any pool size.  Every task in flight
    holds one input block's temporaries (the RK4 path of all cells is the
    largest), which bounds the pool.  Each input's box images come from
    propagate_box; a pair whose image is non-finite is blocked and counted
    in nonfinite_pairs.
    For a field that declares invariant_dims, integrate_path evaluates f
    once per distinct remaining coordinate of the cell centers (once per
    heading for the bicycle) with every image unchanged to the last bit, so
    the relation is the same as without the declaration.
    """
    if grid.n != f.dim_state:
        raise GeometryError("grid/state dimension mismatch")
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != f.dim_input:
        raise GeometryError("inputs must be a (num_inputs, m) array")

    S = grid.num_cells
    index = _index_dtype(S)
    n = grid.n
    centers = grid.all_centers()
    shape = np.array(grid.shape, dtype=np.int64)
    strides = grid._strides
    periodic = np.array(grid.periodic, dtype=bool)
    lower = grid.bounds.lower
    upper = grid.bounds.upper

    def expand(u_vec):
        """One input block: (successors, counts, blocked, non-finite pairs)."""
        endc, new_radius = propagate_box(f, centers, grid.eta / 2.0, u_vec, tau, substeps)
        finite = np.all(np.isfinite(endc), axis=1)
        nonfinite = int(np.sum(~finite))
        endc = np.where(finite[:, None], endc, 0.0)

        box_lo = endc - new_radius
        box_hi = endc + new_radius
        exits = np.any(
            (~periodic)
            & ((box_lo < lower - SNAP_TOL) | (box_hi > upper + SNAP_TOL)),
            axis=1,
        )
        blocked = exits | ~finite

        v_lo = snap((box_lo - lower) / grid.eta)
        v_hi = snap((box_hi - lower) / grid.eta)
        k_min = np.ceil(v_lo - 1.0).astype(np.int64)
        k_max = np.floor(v_hi).astype(np.int64)
        # periodic dims wrap (span clipped to a full revolution); others clamp
        span = k_max - k_min + 1
        span = np.where(periodic, np.minimum(span, shape), span)
        k_min = np.where(~periodic, np.maximum(k_min, 0), k_min)
        k_max_c = np.where(~periodic, np.minimum(k_max, shape - 1), k_min + span - 1)
        span = np.where(~periodic, k_max_c - k_min + 1, span)
        span = np.maximum(span, 0)

        counts = np.where(blocked, 0, np.prod(span, axis=1))
        offsets = np.cumsum(counts) - counts
        flat = np.empty(int(counts.sum()), dtype=index)

        # A periodic dimension lists its cyclic interval a, a+1, ... (mod N) in
        # ascending order: the w values that wrap past N come first as
        # 0..w-1, then a..N-1.  So the d-th value is a + d - (a if d < w else
        # w), and the row-major product of the per-dimension lists is sorted.
        a = np.where(periodic, k_min % shape, k_min)
        w = np.where(periodic, np.maximum(a + span - shape, 0), 0)
        base = a @ strides
        # pairs with the same span share one offset stencil
        live = np.flatnonzero(counts)
        keys, group = np.unique(
            np.ravel_multi_index(span[live].T, shape + 1), return_inverse=True
        )
        for g, key in enumerate(keys):
            rows = live[group == g]
            digits = np.indices(np.unravel_index(key, shape + 1)).reshape(n, -1)
            block = (base[rows, None] + (strides @ digits)[None, :]).astype(index)
            for i in np.flatnonzero(periodic):
                wrap = np.flatnonzero(w[rows, i])
                if wrap.size:
                    ai = a[rows[wrap], i, None]
                    wi = w[rows[wrap], i, None]
                    block[wrap] -= np.where(digits[i] < wi, ai, wi) * strides[i]
            flat[offsets[rows, None] + np.arange(digits.shape[1])] = block
        return flat, counts, blocked, nonfinite

    U = inputs.shape[0]
    succ_blocks = []
    indptr = np.zeros(S * U + 1, dtype=np.int64)  # counts until the cumsum below
    blocked_all = np.empty(S * U, dtype=bool)
    nonfinite_pairs = 0
    workers = max(1, min(_cpu_count(), U, MAX_WORKERS))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # map yields in input order, so the merge is the same for any pool size
        for u, (flat, counts, blocked, nonfinite) in enumerate(pool.map(expand, inputs)):
            succ_blocks.append(flat)
            indptr[1 + u * S : 1 + (u + 1) * S] = counts
            blocked_all[u * S : (u + 1) * S] = blocked
            nonfinite_pairs += nonfinite

    np.cumsum(indptr, out=indptr)
    return FiniteTransitionSystem(
        num_states=S,
        num_inputs=U,
        indptr=indptr,
        succ=np.concatenate(succ_blocks) if succ_blocks else np.zeros(0, index),
        blocked=blocked_all,
        eta=grid.eta,
        tau=float(tau),
        nonfinite_pairs=nonfinite_pairs,
    )


# --- cell labeling -------------------------------------------------------------


@dataclass(frozen=True)
class LabeledCells:
    obstacle_cells: frozenset
    target_stages: tuple  # one frozenset per sequential stage
    initial_cells: frozenset


def extend_rect(rect: HyperRect, grid: UniformGrid) -> HyperRect:
    """Extend a low-dimensional rect over the full range of remaining dimensions."""
    if rect.dim == grid.n:
        return rect
    if rect.dim > grid.n:
        raise GeometryError("rectangle has more dimensions than the grid")
    tail = HyperRect(grid.bounds.lower[rect.dim :], grid.bounds.upper[rect.dim :])
    return rect.extend(tail)


def _point_cells(grid: UniformGrid, point: np.ndarray):
    """Cells of a possibly low-dimensional point (all layers of free dimensions)."""
    point = np.asarray(point, dtype=float)
    d = point.size
    if d == grid.n:
        return {grid.cell_of(point).flat_id}
    partial = grid.cell_of(
        np.concatenate([point, grid.bounds.lower[d:] + grid.eta[d:] / 2])
    ).multi_index[:d]
    free_axes = [range(grid.shape[i]) for i in range(d, grid.n)]
    return {
        int(np.dot(partial + rest, grid._strides))
        for rest in itertools.product(*free_axes)
    }


def label_cells(grid: UniformGrid, spec) -> LabeledCells:
    """Mark obstacle, target, and initial cells of a canonicalized ProblemSpec.

    Obstacles (clearance-inflated) are marked by closed intersection,
    conservative outward; targets by full-cell containment, conservative
    inward; where the two collide the obstacle wins.
    """
    obstacle_cells = set()
    for rect in spec.inflated_obstacle_rects:
        obstacle_cells |= grid.cells_overlapping(extend_rect(rect, grid))

    target_stages = []
    for i, rect in enumerate(spec.target_rects):
        cells = grid.cells_contained(extend_rect(rect, grid)) - obstacle_cells
        if not cells:
            raise EmptyTarget(
                f"target stage {i} covers no full grid cell (grid too coarse)"
            )
        target_stages.append(frozenset(cells))

    if spec.initial_point is not None:
        initial = _point_cells(grid, spec.initial_point)
    else:
        initial = grid.cells_overlapping(extend_rect(spec.initial_rect, grid))

    return LabeledCells(
        obstacle_cells=frozenset(obstacle_cells),
        target_stages=tuple(target_stages),
        initial_cells=frozenset(initial),
    )
