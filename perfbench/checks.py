"""Output checks computed apart from the program.

Nothing here calls into gridsynth's checking or quantization code: reach-avoid
is re-judged on segments between consecutive states, cells are computed with
plain floor arithmetic, and flows are re-integrated with a much finer RK4.
Each check raises CheckFailed with a message naming what went wrong.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# --- reach-avoid on segments --------------------------------------------------


def segments_hit_box(starts, ends, lower, upper):
    """Per segment: does the closed segment meet the closed box? (slab test)"""
    d = ends - starts
    inside = (starts >= lower) & (starts <= upper)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (lower - starts) / d
        b = (upper - starts) / d
    moving = d != 0
    t_lo = np.where(moving, np.minimum(a, b), np.where(inside, -np.inf, np.inf))
    t_hi = np.where(moving, np.maximum(a, b), np.where(inside, np.inf, -np.inf))
    return np.maximum(t_lo.max(axis=1), 0.0) <= np.minimum(t_hi.min(axis=1), 1.0)


def reach_avoid_segments(states, spec) -> bool:
    """Targets entered in order at the given states; no obstacle met on any
    segment between consecutive states up to the final entry."""
    states = np.asarray(states, dtype=float)
    stage, final = 0, None
    targets = spec.target_rects
    for i, x in enumerate(states):
        while stage < len(targets) and _in(x, targets[stage]):
            stage += 1
        if stage == len(targets):
            final = i
            break
    if final is None:
        return False
    path = states[: final + 1]
    if final == 0:
        path = np.vstack([path, path])
    for rect in spec.obstacle_rects:
        d = rect.dim
        if segments_hit_box(path[:-1, :d], path[1:, :d], rect.lower, rect.upper).any():
            return False
    return True


def _in(x, rect):
    d = rect.dim
    return bool(np.all((x[:d] >= rect.lower) & (x[:d] <= rect.upper)))


def reach_avoid_points(states, spec) -> bool:
    """The sample-point reading of reach-avoid (obstacles tested at states only)."""
    states = np.asarray(states, dtype=float)
    stage = 0
    for x in states:
        if any(_in(x, r) for r in spec.obstacle_rects):
            return False
        while stage < len(spec.target_rects) and _in(x, spec.target_rects[stage]):
            stage += 1
        if stage == len(spec.target_rects):
            return True
    return False


# --- synthesis output ---------------------------------------------------------


def check_fixed_point(result):
    """Every winning non-goal cell's chosen input is unblocked, and all of its
    successors are winning, obstacle-free and of strictly smaller value."""
    fts, ctrl, labels = result.fts, result.controller, result.labels
    S = fts.num_states
    obstacle = np.zeros(S, dtype=bool)
    if labels.obstacle_cells:
        obstacle[np.fromiter(labels.obstacle_cells, dtype=np.int64)] = True
    for k, pol in enumerate(ctrl.stages):
        goal = np.zeros(S, dtype=bool)
        if pol.goal:
            goal[np.fromiter(pol.goal, dtype=np.int64)] = True
        _require(not (goal & obstacle).any(), f"stage {k}: goal cell is an obstacle")
        _require(
            np.array_equal(goal, pol.winning & (pol.value == 0)),
            f"stage {k}: value-0 cells differ from the goal",
        )
        cells = np.flatnonzero(pol.winning & ~goal)
        _require(not obstacle[cells].any(), f"stage {k}: winning obstacle cell")
        u = pol.choice[cells]
        _require((u >= 0).all(), f"stage {k}: winning cell without an input")
        q = u * S + cells
        _require(not fts.blocked[q].any(), f"stage {k}: chosen input is blocked")
        counts = fts.indptr[q + 1] - fts.indptr[q]
        _require((counts > 0).all(), f"stage {k}: chosen pair has no successor")
        owner = np.repeat(cells, counts)
        edge = np.repeat(fts.indptr[q] - np.cumsum(counts) + counts, counts)
        succ = fts.succ[edge + np.arange(counts.sum())]
        _require(pol.winning[succ].all(), f"stage {k}: successor not winning")
        _require(not obstacle[succ].any(), f"stage {k}: successor is an obstacle")
        _require(
            (pol.value[succ] < pol.value[owner]).all(),
            f"stage {k}: successor value not smaller",
        )


def _strides(shape):
    """Row-major strides: flat id = multi-index @ strides."""
    return np.cumprod((list(shape[1:]) + [1])[::-1])[::-1]


def multi_index(flat, shape):
    """Per-dimension cell indices of flat cell ids (row-major)."""
    return (np.asarray(flat)[..., None] // _strides(shape)) % np.asarray(shape)


def _cells_of(points, lower, eta, shape, periodic):
    k = np.floor((points - lower) / eta).astype(np.int64)
    ok = np.ones(len(points), dtype=bool)
    for i, per in enumerate(periodic):
        if per:
            k[:, i] %= shape[i]
        else:
            ok &= (k[:, i] >= 0) & (k[:, i] < shape[i])
    return k @ _strides(shape), ok


def check_sampled_soundness(result, eval_fn, rng, pairs=48, points=16, substeps=100):
    """Integrate random points of sampled (cell, chosen input) pairs with a
    fine RK4 and require each endpoint cell among that pair's successors."""
    fts, grid = result.fts, result.grid
    pol = result.controller.stages[0]
    cells = np.flatnonzero(pol.winning & (pol.choice >= 0))
    _require(cells.size > 0, "no winning non-goal cell to sample")
    cells = rng.choice(cells, size=min(pairs, cells.size), replace=False)
    lower = grid.bounds.lower
    eta = np.asarray(grid.eta)
    tau = result.spec.tau
    h = tau / substeps
    for s in cells:
        u = result.inputs[pol.choice[s]]
        multi = multi_index(s, grid.shape)
        x = lower + (multi + rng.random((points, grid.n))) * eta
        for _ in range(substeps):
            k1 = eval_fn(x, u)
            k2 = eval_fn(x + 0.5 * h * k1, u)
            k3 = eval_fn(x + 0.5 * h * k2, u)
            k4 = eval_fn(x + h * k3, u)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for i, per in enumerate(grid.periodic):
            if per:
                x[:, i] = lower[i] + np.mod(x[:, i] - lower[i], grid.bounds.upper[i] - lower[i])
        ends, inside = _cells_of(x, lower, eta, grid.shape, grid.periodic)
        _require(inside.all(), f"cell {s}: fine flow leaves the grid")
        q = int(pol.choice[s]) * fts.num_states + int(s)
        succ = fts.succ[fts.indptr[q] : fts.indptr[q + 1]]
        _require(
            np.isin(ends, succ).all(),
            f"cell {s}: fine-flow endpoint outside the abstract successors",
        )


def check_round_trip(ctrl, loaded, loaded_grid, grid):
    """The loaded table gives back the winning sets, values and inputs."""
    _require(loaded_grid.shape == grid.shape, "loaded grid shape differs")
    _require(np.array_equal(loaded_grid.eta, grid.eta), "loaded eta differs")
    _require(loaded.num_stages == ctrl.num_stages, "stage count differs")
    for k, (a, b) in enumerate(zip(ctrl.stages, loaded.stages)):
        _require(np.array_equal(a.winning, b.winning), f"stage {k}: winning set differs")
        _require(np.array_equal(a.value, b.value), f"stage {k}: values differ")
        cells = np.flatnonzero(a.winning)
        choice = a.choice[cells]
        want = np.zeros((cells.size, ctrl.input_dim))
        want[choice >= 0] = ctrl.inputs[choice[choice >= 0]]
        _require(np.array_equal(want, b.input_vec[cells]), f"stage {k}: inputs differ")
        _require(a.goal == b.goal, f"stage {k}: goal differs")


def check_closed_loop(traj, verdict, spec):
    _require(
        traj.termination.kind == "ReachedTarget",
        f"closed loop ended with {traj.termination.kind}",
    )
    _require(verdict.satisfied, "check_reach_avoid rejects a closed loop")
    _require(
        reach_avoid_segments(traj.fine_states, spec),
        "a closed-loop segment meets an obstacle",
    )
