"""Finite transition system construction over a uniform grid.

For every (cell, input) pair the one-period reachable set is over-approximated
by propagating the cell box through the sampled dynamics (growth-bound
inflation), and the successor set is every grid cell the propagated box
touches.  Pairs whose box exits the gridded domain in a non-periodic
dimension are marked blocked: no transition is claimed, which is the
conservative choice.

The relation is a FiniteTransitionSystem, which holds every pair's successor
list as CSR (flat successor array + offsets).  A field that declares
invariant_dims gets its subclass StencilStore instead: there a pair's
successor box, taken relative to the pair's own cell in the invariant
dimensions, depends only on its class (the grid index of the other
dimensions, together with the input), so one box per class and each pair's
blocked flag and successor count describe the whole relation.  Both answer
successors, predecessors and counts with the same sets in the same order.

That store is built from per-dimension factors.  Every value the per-cell
build computes, a center coordinate after RK4, its exit flag and its cell
index range, depends on one dimension at a time: on the cell's class and,
in an invariant dimension d, on the cell's index along d alone.  So each
input integrates one "diagonal" row per class and index, C * max N_d rows
instead of all S cells, and the pairs' blocked flags and counts are ORs and
products of those factors; the values are the per-cell ones bit for bit,
with no rounding margin to certify.  The build checks that every cell of
every class agrees on its box; if one does not, it builds the CSR store
the per-cell way, as for a field without the declaration, and records why.

Boxes become cell ranges and flat ids through the lattice code of geometry
(UniformGrid.overlap_range, _clip, _expand), the same path that labels the
spec's obstacles, targets and initial set.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import VectorField, image_radius, integrate_path
from .errors import EmptyInputSet, EmptyTarget, GeometryError
from .geometry import SNAP_TOL, HyperRect, UniformGrid, _clip, _expand, _strides, snap


def input_index_ranges(input_bounds: HyperRect, eta_u) -> list:
    """Per input axis, the first and last k with k*eta_u inside the closed box."""
    eta_u = np.asarray(eta_u, dtype=float)
    if eta_u.shape != input_bounds.lower.shape:
        raise GeometryError("eta_u dimension mismatch with input bounds")
    if np.any(eta_u <= 0):
        raise GeometryError("eta_u must be positive componentwise")
    ranges = []
    for i in range(input_bounds.dim):
        lo = snap(input_bounds.lower[i] / eta_u[i])
        hi = snap(input_bounds.upper[i] / eta_u[i])
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise GeometryError(f"eta_u {eta_u[i]} is too small for its input bounds")
        k_min, k_max = int(np.ceil(lo)), int(np.floor(hi))
        if k_min > k_max:
            raise EmptyInputSet(
                f"no multiple of {eta_u[i]} inside "
                f"[{input_bounds.lower[i]}, {input_bounds.upper[i]}]"
            )
        ranges.append((k_min, k_max))
    return ranges


def build_input_grid(input_bounds: HyperRect, eta_u) -> np.ndarray:
    """Quantized input set: lattice points k*eta_u inside the closed input box.

    Enumerated row-major; returns an (num_inputs, m) array.
    """
    axes = [
        np.arange(k_min, k_max + 1) * float(eta)
        for (k_min, k_max), eta in zip(input_index_ranges(input_bounds, eta_u), eta_u)
    ]
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


def _map_inputs(fn, items):
    """fn over items on a thread pool, yielding the results in item order.

    One thread per CPU the process may run on, at most MAX_WORKERS and at
    most one per item; numpy releases the GIL inside its large array
    operations.
    """
    workers = max(1, min(_cpu_count(), len(items), MAX_WORKERS))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)


def _index_dtype(max_value: int):
    """Narrowest index dtype for values up to max_value: int32 below 2**31."""
    return np.int32 if max_value < 2**31 else np.int64


def _rows(indptr, data, rows):
    """(ptr, data) of the CSR rows listed in rows, one after another."""
    lo = indptr[rows]
    lens = indptr[rows + 1] - lo
    ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lens, out=ptr[1:])
    return ptr, data[np.repeat(lo - ptr[:-1], lens) + np.arange(ptr[-1])]


# --- successor boxes -------------------------------------------------------------


def _cell_ranges(grid: UniformGrid, endc, radius):
    """Per-dimension cell index ranges of a batch of box images, before clipping.

    Returns (nonfinite, exits, k_min, k_max), each shaped like endc (..., n):
    per row and dimension whether the center coordinate is non-finite,
    whether the closed box center +- radius leaves the grid there (only in
    a non-periodic dimension), and the first and last cell index the box
    touches.  A row is blocked where either flag is set in any dimension.
    Every value depends on its own dimension alone, which the stencil build
    relies on.
    """
    nonfinite = ~np.isfinite(endc)
    endc = np.where(nonfinite, 0.0, endc)
    box_lo = endc - radius
    box_hi = endc + radius
    exits = ~np.array(grid.periodic) & (
        (box_lo < grid.bounds.lower - SNAP_TOL) | (box_hi > grid.bounds.upper + SNAP_TOL)
    )
    k_min, k_max = grid.overlap_range(box_lo, box_hi)
    return nonfinite, exits, k_min, k_max


class FiniteTransitionSystem:
    """Transition relation over abstract states and inputs, held as CSR.

    Pair (state s, input u) lives at index u * num_states + s.
    succ[indptr[q]:indptr[q+1]] lists pair q's successors, sorted and
    duplicate-free, and blocked[q] marks the pairs that claim no transition.
    The solver reads the relation through successors, predecessors and
    counts only; StencilStore, built for a field that declares
    invariant_dims, answers the same three from one successor box per
    class.

    fallback says why a field that declares invariant_dims got this store
    anyway (None when it did not).  Index arrays take _index_dtype of their
    largest value: succ holds state ids (int32 unless num_states reaches
    2**31), the reverse relation holds pair ids; indptr is always int64.
    """

    def __init__(
        self,
        num_states: int,
        num_inputs: int,
        indptr: np.ndarray,  # int64, length num_states * num_inputs + 1
        succ: np.ndarray,  # _index_dtype(num_states)
        blocked: np.ndarray,  # bool, length num_states * num_inputs
        nonfinite_pairs: int = 0,
        fallback: str = None,
    ):
        self.num_states = num_states
        self.num_inputs = num_inputs
        self.indptr = indptr
        self.succ = succ
        self.blocked = blocked
        self.nonfinite_pairs = nonfinite_pairs
        self.fallback = fallback
        self._reverse = None

    @property
    def counts(self) -> np.ndarray:
        """Each pair's successor count, 0 for a blocked pair."""
        return np.diff(self.indptr)

    @property
    def num_transitions(self) -> int:
        return int(self.counts.sum())

    def successors(self, pairs):
        """(ptr, succ) for an int64 array of pair ids: succ[ptr[i]:ptr[i+1]]
        lists pair i's successors, sorted, and is empty for a blocked pair."""
        return _rows(self.indptr, self.succ, pairs)

    def predecessors(self, frontier) -> np.ndarray:
        """Pair ids q with a state of frontier in succ(q), once per such edge.

        A fresh array in no particular order.  A StencilStore also lists
        blocked pairs.
        """
        return _rows(*self.reverse(), frontier)[1]

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


class StencilStore(FiniteTransitionSystem):
    """The relation of a field with invariant dimensions, one box per class.

    A class is the grid index of the dimensions the field reads, together
    with an input.  Its box is lo (the first cell index touched, relative to
    the pair's own cell in an invariant dimension and absolute in the
    others) and width (last index minus first) per dimension, before any
    clipping to the grid; a pair's successors are that box moved to its cell
    and clipped as the CSR build clips it.  Beside the boxes the store keeps
    each pair's blocked flag and successor count (counts, an array here).
    successors, predecessors and counts are its own; indptr and succ are a
    CSR view built from successors on first read, for perfbench's checks
    and reverse().

    The build integrates only the diagonal: row (c, j) of starts, a (C, J, n)
    batch with J the largest grid size of an invariant dimension, holds
    class c's center coordinates and, in every invariant dimension d, the
    center of index min(j, N_d - 1).  Every per-dimension value of
    _cell_ranges for a cell then sits in the diagonal row of its class and
    its own index along that dimension (see build_abstraction).
    """

    counts = None  # int32 per pair, set by build_abstraction

    def __init__(self, grid: UniformGrid, invariant_dims, num_inputs: int):
        self.num_states, self.num_inputs = grid.num_cells, num_inputs
        self.nonfinite_pairs, self.fallback = 0, None
        self._csr = self._reverse = self._tables = None
        self.grid = grid
        self.shape = np.array(grid.shape, dtype=np.int64)
        self.periodic = np.array(grid.periodic, dtype=bool)
        self.strides = grid._strides
        self.inv = np.array(invariant_dims, dtype=np.int64)
        self.keep = np.setdiff1d(np.arange(grid.n), self.inv)
        self.multi = np.stack(np.unravel_index(np.arange(grid.num_cells), grid.shape), axis=1)
        self.cls = self.multi[:, self.keep] @ _strides(self.shape[self.keep])
        self.num_classes = C = math.prod(int(s) for s in self.shape[self.keep])
        J = int(self.shape[self.inv].max())
        is_inv = np.isin(np.arange(grid.n), self.inv)
        # flat id of each class's cell with index 0 in every invariant dimension
        self._base = np.zeros(C, dtype=np.int64)
        self._base[self.cls] = self.multi[:, self.keep] @ self.strides[self.keep]
        # index along each dimension of diagonal row j: 0 in the kept ones
        self._row_index = np.where(is_inv, np.minimum.outer(np.arange(J), self.shape - 1), 0)
        cell = self.multi[self._base][:, None, :] + self._row_index  # (C, J, n) multi-indices
        axes = grid.axis_centers()
        self.starts = np.stack([axes[d][cell[..., d]] for d in range(grid.n)], axis=-1)
        # open indices that place a (C, J, n) factor's dimension d on the
        # grid, broadcastable to grid.shape: a gather of C * N_d values, not
        # one per cell
        self._open_cls = np.arange(C).reshape(np.where(is_inv, 1, self.shape))
        self._open_index = [
            np.arange(N).reshape(np.where(np.arange(grid.n) == d, N, 1)) if is_inv[d] else 0
            for d, N in enumerate(grid.shape)
        ]
        # set by build_abstraction: (U, C, n) boxes, (U, C) whether a class
        # has an unblocked cell, and per pair the blocked flags
        self.lo = self.width = self.has = self.blocked = None

    @property
    def indptr(self) -> np.ndarray:
        return self._view()[0]

    @property
    def succ(self) -> np.ndarray:
        return self._view()[1]

    def _view(self):
        if self._csr is None:
            S, U = self.num_states, self.num_inputs
            blocks = _map_inputs(
                lambda u: self.successors(np.arange(u * S, (u + 1) * S))[1], range(U)
            )
            indptr = np.zeros(S * U + 1, dtype=np.int64)
            np.cumsum(self.counts, dtype=np.int64, out=indptr[1:])
            self._csr = indptr, np.concatenate(list(blocks))
        return self._csr

    def _on_grid(self, factor):
        """Per dimension, factor (C, J, n) as an array broadcastable to grid.shape."""
        return [factor[self._open_cls, self._open_index[d], d] for d in range(self.grid.n)]

    def factors(self, nonfinite, exits, k_min, k_max):
        """One input's ((lo, width, has), counts, blocked, non-finite pairs)
        from its diagonal ranges, or why its classes have no one box each.

        A class's unblocked cells are the product of each dimension's
        unblocked indices, so they all give one box exactly when, in every
        dimension, the unblocked indices give one (k_min relative to the
        index, width).  A span of N_d cells or more in a periodic dimension
        covers the whole ring wherever it starts, so it is taken as the one
        box (0, N_d - 1).  Otherwise returns a string naming the first class
        that breaks this.  A cell is blocked when any dimension's value is
        non-finite or exits; its count is the product of each dimension's
        clipped span.
        """
        live = ~(nonfinite | exits)
        has = live.any(axis=1).all(axis=1)
        ring = self.periodic & (k_max - k_min >= self.shape - 1)
        lo = np.where(ring, 0, k_min - self._row_index)
        width = np.where(ring, self.shape - 1, k_max - k_min)
        key = np.stack([lo, width], axis=-1)
        C, n = self.num_classes, self.grid.n
        first = key[np.arange(C)[:, None], live.argmax(axis=1), np.arange(n)]
        agree = ((key == first[:, None]).all(axis=-1) | ~live).all(axis=(1, 2))
        bad = np.flatnonzero(has & ~agree)
        if bad.size:
            return f"class {bad[0]}: its cells' successor boxes differ"
        nonfinite_cells = functools.reduce(np.logical_or, self._on_grid(nonfinite))
        blocked = functools.reduce(np.logical_or, self._on_grid(exits), nonfinite_cells)
        _, span, _ = _clip(
            k_min.reshape(-1, n), k_max.reshape(-1, n), False, self.shape, self.periodic
        )
        counts = functools.reduce(np.multiply, self._on_grid(span.reshape(k_min.shape)))
        counts = np.where(blocked, 0, counts).ravel()
        nonfinite_pairs = int(np.broadcast_to(nonfinite_cells, self.grid.shape).sum())
        return (first[..., 0], first[..., 1], has), counts, blocked.ravel(), nonfinite_pairs

    def successors(self, pairs):
        """Each pair's box moved to its cell and clipped, then listed in order."""
        S, n = self.grid.num_cells, self.grid.n
        cells = pairs % S
        box = pairs // S * self.num_classes + self.cls[cells]
        k_min = self.lo.reshape(-1, n)[box]
        k_min[:, self.inv] += self.multi[cells][:, self.inv]
        k_max = k_min + self.width.reshape(-1, n)[box]
        k_lo, span, counts = _clip(k_min, k_max, self.blocked[pairs], self.shape, self.periodic)
        ptr = np.zeros(len(pairs) + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        return ptr, _expand(k_lo, span, counts, self.shape, self.periodic, _index_dtype(S))

    def _predecessor_tables(self):
        """Per target class, every (source class, box cell) that reaches it.

        Returns (ptr, pair, delta, d_lo, d_hi).  Entries ptr[c]:ptr[c+1]
        belong to target class c: a target cell t of that class has the
        predecessor pair id t + pair when its invariant index minus delta
        (one row per invariant dimension) lies on the grid, or wraps in a
        periodic dimension.  d_lo and d_hi hold each target class's
        smallest and largest delta.
        """
        S = self.grid.num_cells
        C, inv, keep = self.num_classes, self.inv, self.keep
        u, c = np.nonzero(self.has)
        lo, width = self.lo[u, c], self.width[u, c]
        if keep.size:  # the kept dimensions clip exactly as in a CSR build
            k_lo, span, heads_n = _clip(
                lo[:, keep], lo[:, keep] + width[:, keep], False,
                self.shape[keep], self.periodic[keep],
            )
            heads = _expand(k_lo, span, heads_n, self.shape[keep], self.periodic[keep], np.int64)
        else:
            heads_n, heads = np.ones(len(u), np.int64), np.zeros(len(u), np.int64)
        # the invariant box is left unclipped: bounds are checked per target
        # cell.  Listed as the cells of a box shifted onto a lattice that
        # holds every box.
        span = width[:, inv] + 1
        span = np.where(self.periodic[inv], np.minimum(span, self.shape[inv]), span)
        deltas_n = np.prod(span, axis=1)
        shift = lo[:, inv].min(axis=0, initial=0)
        ext = (lo[:, inv] - shift + span).max(axis=0, initial=1)
        flat = _expand(lo[:, inv] - shift, span, deltas_n, ext, np.zeros(inv.size, bool), np.int64)
        deltas = np.stack(np.unravel_index(flat, ext), axis=1) + shift
        # every (target class, delta) of every source class
        n_e = heads_n * deltas_n
        row = np.repeat(np.arange(len(u)), n_e)
        j = np.arange(n_e.sum()) - np.repeat(np.cumsum(n_e) - n_e, n_e)
        head = heads[(np.cumsum(heads_n) - heads_n)[row] + j // deltas_n[row]]
        delta = deltas[(np.cumsum(deltas_n) - deltas_n)[row] + j % deltas_n[row]]
        base = self._base  # flat-id share of each class's kept index
        pair = u[row] * S + base[c[row]] - base[head] - delta @ self.strides[inv]
        order = np.argsort(head, kind="stable")
        ptr = np.zeros(C + 1, dtype=np.int64)
        np.cumsum(np.bincount(head, minlength=C), out=ptr[1:])
        delta = delta[order]
        d_lo = np.zeros((C, inv.size), dtype=np.int64)
        d_hi = np.zeros((C, inv.size), dtype=np.int64)
        live = np.flatnonzero(np.diff(ptr))
        d_lo[live] = np.minimum.reduceat(delta, ptr[live], axis=0)
        d_hi[live] = np.maximum.reduceat(delta, ptr[live], axis=0)
        index = _index_dtype(S * (self.num_inputs + 2))  # |pair| < S * U + 2 S
        return ptr, pair[order].astype(index), delta.T.copy(), d_lo, d_hi

    def predecessors(self, frontier):
        """Pair ids with a successor in frontier, once per such edge, unordered.

        Blocked pairs are included; their count of 0 keeps the solver from
        certifying them.  The cells of each target class are
        broadcast against its table; only cells near the grid's edge in an
        invariant dimension need the bounds check (or the wrap, in a
        periodic dimension).
        """
        if self._tables is None:
            self._tables = self._predecessor_tables()
        ptr, pair, delta, d_lo, d_hi = self._tables
        frontier = frontier[np.argsort(self.cls[frontier], kind="stable")]
        classes = self.cls[frontier]
        p = self.multi[frontier][:, self.inv]
        inner = np.all((p >= d_hi[classes]) & (p < self.shape[self.inv] + d_lo[classes]), axis=1)
        bounds = np.flatnonzero(np.diff(classes, prepend=-1, append=-1))
        out = [np.zeros(0, dtype=pair.dtype)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            c = classes[lo]
            e = slice(ptr[c], ptr[c + 1])
            t, ins = frontier[lo:hi], inner[lo:hi]
            out.append((t[ins].astype(pair.dtype)[:, None] + pair[e]).ravel())
            if not ins.all():
                out.append(self._edge_predecessors(t[~ins], p[lo:hi][~ins], pair[e], delta[:, e]))
        return np.concatenate(out)

    def _edge_predecessors(self, t, p, pair, delta):
        """predecessors of cells t (invariant indices p) with bounds checks."""
        q = t[:, None].astype(np.int64) + pair
        on_grid = np.ones(q.shape, dtype=bool)
        inv = self.inv
        for i, n, stride, per in zip(
            range(inv.size), self.shape[inv], self.strides[inv], self.periodic[inv]
        ):
            src = p[:, i, None] - delta[i]
            if per:
                q += (src % n - src) * stride
            else:
                on_grid &= (src >= 0) & (src < n)
        return q[on_grid].astype(pair.dtype)

def build_abstraction(
    grid: UniformGrid,
    inputs: np.ndarray,
    f: VectorField,
    tau: float,
) -> FiniteTransitionSystem:
    """Construct the transition relation for every (cell, input) pair.

    Each input is one task, and no task depends on another.  The tasks run
    on the _map_inputs pool and merge in input order, i.e. pair-id order,
    so the relation is the same bytes for any pool size.  The image radius
    of a cell box is the same for every pair, so it is computed once, before
    the pool; each task integrates its input's start states, and a pair's
    image is the box of that radius around its cell center's RK4 endpoint
    (image_radius).  A pair whose image is non-finite is blocked and
    counted in nonfinite_pairs.

    Without invariant_dims a task integrates all cell centers as one batch
    and expands every pair's successor list; its RK4 path, (SUBSTEPS + 1,
    S, n) floats, is the largest temporary and bounds the pool.

    For a field that declares invariant_dims a task integrates only the
    store's diagonal, the (C, J, n) batch StencilStore.starts, and derives
    every pair from per-dimension factors.  This is exact, not an estimate:
    the J rows of a class differ only in invariant dimensions, so
    integrate_path evaluates f once per class and adds its steps to every
    row one component at a time.  f reads no invariant dimension, so the
    plain per-cell RK4 of any cell of the class takes the same steps, and a
    diagonal row's coordinate in dimension d is bit for bit that of every
    cell of its class with its index along d.  _cell_ranges, overlap_range
    and _clip then work per dimension, so every flag and index range is
    too.  A pair's blocked flag is the OR, and its count the product, of its
    dimensions' factors, broadcast over the grid.  Each task returns its
    input's factors (StencilStore.factors), or why a class's cells disagree
    on their box; then the relation is built again by the per-cell path
    above, and fallback names the first such input and class.  Either way
    the successor sets are those of the same field without the declaration.
    """
    if grid.n != f.dim_state:
        raise GeometryError("grid/state dimension mismatch")
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != f.dim_input:
        raise GeometryError("inputs must be a (num_inputs, m) array")

    S, U = grid.num_cells, inputs.shape[0]
    radius = image_radius(f, grid.eta / 2.0, tau)

    def merged(task):
        """task over the inputs, merged in input order: (forms, counts, blocked,
        non-finite pairs), or the first reason string a task returns."""
        forms = []
        counts_all = np.empty(S * U, dtype=np.int32)
        blocked_all = np.empty(S * U, dtype=bool)
        nonfinite_pairs = 0
        for u, result in enumerate(_map_inputs(task, list(enumerate(inputs)))):
            if isinstance(result, str):
                return result
            form, counts, blocked, nonfinite = result
            forms.append(form)
            counts_all[u * S : (u + 1) * S] = counts
            blocked_all[u * S : (u + 1) * S] = blocked
            nonfinite_pairs += nonfinite
        return forms, counts_all, blocked_all, nonfinite_pairs

    fallback = None
    if f.invariant_dims and U:
        store = StencilStore(grid, f.invariant_dims, U)

        def stencil_task(item):
            """One input's factors, or why not."""
            u, u_vec = item
            endc = integrate_path(f, store.starts, u_vec, tau)[-1]
            factors = store.factors(*_cell_ranges(grid, endc, radius))
            return f"input {u}, {factors}" if isinstance(factors, str) else factors

        built = merged(stencil_task)
        if not isinstance(built, str):
            boxes, store.counts, store.blocked, store.nonfinite_pairs = built
            store.lo, store.width, store.has = (np.stack(x) for x in zip(*boxes))
            return store
        fallback = built

    shape = np.array(grid.shape, dtype=np.int64)
    periodic = np.array(grid.periodic, dtype=bool)
    centers = grid.all_centers()

    def task(item):
        """One input: (successors, counts, blocked, non-finite pairs)."""
        _, u_vec = item
        endc = integrate_path(f, centers, u_vec, tau)[-1]
        nonfinite, exits, k_min, k_max = _cell_ranges(grid, endc, radius)
        blocked = (nonfinite | exits).any(axis=1)
        k_lo, span, counts = _clip(k_min, k_max, blocked, shape, periodic)
        succ = _expand(k_lo, span, counts, shape, periodic, _index_dtype(S))
        return succ, counts, blocked, int(nonfinite.any(axis=1).sum())

    succ_blocks, counts, blocked, nonfinite_pairs = merged(task)
    indptr = np.zeros(S * U + 1, dtype=np.int64)
    np.cumsum(counts, dtype=np.int64, out=indptr[1:])
    del counts  # not held through the concatenation
    succ = np.concatenate(succ_blocks) if succ_blocks else np.zeros(0, _index_dtype(S))
    return FiniteTransitionSystem(
        S, U, indptr, succ, blocked, nonfinite_pairs=nonfinite_pairs, fallback=fallback
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
    k = grid.cell_of(np.concatenate([point, grid.bounds.lower[d:]])).multi_index
    return grid.cells_between(k, k[:d] + tuple(s - 1 for s in grid.shape[d:]))


def label_cells(grid: UniformGrid, spec) -> LabeledCells:
    """Mark obstacle, target, and initial cells of a ProblemSpec.

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
