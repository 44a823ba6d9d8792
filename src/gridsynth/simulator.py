"""Closed-loop execution, trajectory certification, and SVG rendering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SUBSTEPS, VectorField, integrate_path
from .errors import NonFinite, OutsideWinningSet, SchemaError, UnsupportedDimension
from .geometry import HyperRect
from .specformat import ProblemSpec
from .synthesis import ConcreteController


@dataclass(frozen=True)
class Termination:
    kind: str  # ReachedTarget | LeftWinningSet | StepLimit | ObstacleHit
    time: float = None


@dataclass
class Trajectory:
    """Sampled closed-loop run.

    samples holds the tau-spaced feedback samples (time, state, applied
    input or None for the first sample); fine_times/fine_states carry the
    integrator's substep resolution for collision certification.
    """

    samples: list
    fine_times: np.ndarray
    fine_states: np.ndarray
    termination: Termination

    @classmethod
    def from_waypoints(cls, times, states):
        """Wrap an externally produced trajectory (e.g. an LLM plan)."""
        times = np.asarray(times, dtype=float)
        states = np.asarray(states, dtype=float)
        samples = [(float(t), states[i], None) for i, t in enumerate(times)]
        return cls(
            samples=samples,
            fine_times=times,
            fine_states=states,
            termination=Termination("StepLimit"),
        )


def simulate_closed_loop(
    f: VectorField,
    ctrl: ConcreteController,
    x0,
    tau: float,
    max_steps: int,
) -> Trajectory:
    """Run the concretized controller from x0 until target entry or failure.

    The controller is asked once per sample.  The run ends ReachedTarget when
    it reports the task done, LeftWinningSet when it refuses the state, and
    StepLimit after max_steps steps (a refused last sample is still a
    StepLimit).  Each step integrates with RK4, wraps the endpoint's periodic
    coordinates, and raises NonFinite if the endpoint blew up.  A controller
    whose grid or inputs have other dimensions than f raises SchemaError.
    """
    grid, m = ctrl.grid, ctrl.controller.input_dim
    if (grid.n, m) != (f.dim_state, f.dim_input):
        raise SchemaError(f"controller has state dimension {grid.n} and input dimension {m}; "
                          f"field '{f.name}' has {f.dim_state} and {f.dim_input}")
    x = grid.wrap(np.asarray(x0, dtype=float))
    t = 0.0
    samples = [(0.0, x.copy(), None)]
    fine_times = [0.0]
    fine_states = [x.copy()]
    h = tau / SUBSTEPS
    kind = "StepLimit"

    for step in range(max_steps + 1):
        try:
            u = ctrl(x)
        except OutsideWinningSet:
            if step < max_steps:
                kind = "LeftWinningSet"
            break
        if u is None:
            kind = "ReachedTarget"
            break
        if step == max_steps:
            break
        path = integrate_path(f, x, u, tau)
        if not np.all(np.isfinite(path[-1])):
            raise NonFinite("integration produced non-finite state")
        path[-1] = grid.wrap(path[-1])
        for k in range(1, SUBSTEPS + 1):
            fine_times.append(t + k * h)
            fine_states.append(path[k])
        x = path[-1]
        t += tau
        samples.append((t, x.copy(), np.asarray(u, dtype=float)))
    return Trajectory(
        samples, np.array(fine_times), np.array(fine_states), Termination(kind, t)
    )


@dataclass(frozen=True)
class ReachAvoidVerdict:
    satisfied: bool
    t_f: float = None
    first_violation: tuple = None  # (time, obstacle index)


def _in_rect(states_2d, rect: HyperRect):
    d = rect.dim
    return rect.contains(states_2d[:, :d])


def check_reach_avoid(traj: Trajectory, spec: ProblemSpec) -> ReachAvoidVerdict:
    """Certify a trajectory against the original (non-inflated) obstacles.

    Satisfied iff the last target stage is entered after visiting every
    earlier stage in order, with no obstacle contact strictly before that
    time.  Checked at the trajectory's fine (substep) resolution; clearance
    is a synthesis-side constraint and is deliberately not re-checked here.
    """
    times = traj.fine_times
    states = traj.fine_states
    if states.ndim != 2 or states.shape[0] == 0:
        return ReachAvoidVerdict(satisfied=False)

    # first stage-ordered entry into the final target
    stage = 0
    t_f = None
    t_f_idx = None
    stage_hits = [
        _in_rect(states, rect) for rect in spec.target_rects
    ]
    for i in range(states.shape[0]):
        while stage < len(spec.target_rects) and stage_hits[stage][i]:
            stage += 1
        if stage == len(spec.target_rects):
            t_f = float(times[i])
            t_f_idx = i
            break

    # obstacle contact before t_f
    first_violation = None
    limit = t_f_idx if t_f_idx is not None else states.shape[0] - 1
    for oi, rect in enumerate(spec.obstacle_rects):
        hits = _in_rect(states[: limit + 1], rect)
        idx = np.flatnonzero(hits)
        if idx.size:
            t_hit = float(times[idx[0]])
            if first_violation is None or t_hit < first_violation[0]:
                first_violation = (t_hit, oi)

    satisfied = t_f is not None and (
        first_violation is None or first_violation[0] >= t_f
    )
    return ReachAvoidVerdict(
        satisfied=satisfied, t_f=t_f, first_violation=first_violation
    )


# --- output -------------------------------------------------------------------


def trajectory_to_csv(traj: Trajectory) -> str:
    """Tau-sampled dump: time, state components, input components."""
    n = traj.samples[0][1].size
    first_u = next((u for _, _, u in traj.samples if u is not None), None)
    m = 0 if first_u is None else first_u.size
    header = (
        ["time"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"u{i + 1}" for i in range(m)]
    )
    lines = [",".join(header)]
    for t, x, u in traj.samples:
        vals = [f"{t:.6f}"] + [f"{v:.10g}" for v in x]
        if m:
            vals += [f"{v:.10g}" for v in (u if u is not None else np.zeros(m))]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def winning_columns(grid, winning) -> list:
    """Position-plane (x, y) boxes of the grid columns holding a winning cell.

    One box per distinct (x, y) column, in ascending column order, for
    render_svg's winning_rects.
    """
    multi = np.unravel_index(np.flatnonzero(winning), grid.shape)
    columns = np.unique(np.stack(multi[:2], axis=-1), axis=0)
    centers = grid.bounds.lower[:2] + (columns + 0.5) * grid.eta[:2]
    half = grid.eta[:2] / 2.0
    return [HyperRect(c - half, c + half) for c in centers]


_SVG_SCALE = 100.0  # pixels per state unit
_SVG_MARGIN = 20.0


def render_svg(spec: ProblemSpec, traj: Trajectory = None, winning_rects=None) -> str:
    """Deterministic SVG picture of the environment (position dimensions).

    Draws the bounds frame, filled obstacles, outlined numbered targets, the
    initial marker, the trajectory polyline, and optional winning-set cell
    shading.  Coordinates are emitted with 6 decimals so identical input
    yields a byte-identical document.
    """
    if spec.state_bounds.dim < 2:
        raise UnsupportedDimension("rendering needs at least 2 state dimensions")
    lo = spec.state_bounds.lower[:2]
    hi = spec.state_bounds.upper[:2]

    def px(x):
        return _SVG_MARGIN + (x - lo[0]) * _SVG_SCALE

    def py(y):
        # SVG y axis points down
        return _SVG_MARGIN + (hi[1] - y) * _SVG_SCALE

    def f(v):
        return f"{v:.6f}"

    width = (hi[0] - lo[0]) * _SVG_SCALE + 2 * _SVG_MARGIN
    height = (hi[1] - lo[1]) * _SVG_SCALE + 2 * _SVG_MARGIN
    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{f(width)}" '
        f'height="{f(height)}" viewBox="0 0 {f(width)} {f(height)}">'
    )

    def rect_elem(r: HyperRect, cls, extra=""):
        x, y = px(r.lower[0]), py(r.upper[1])
        w = (r.upper[0] - r.lower[0]) * _SVG_SCALE
        h = (r.upper[1] - r.lower[1]) * _SVG_SCALE
        return (
            f'<rect class="{cls}" x="{f(x)}" y="{f(y)}" width="{f(w)}" '
            f'height="{f(h)}"{extra}/>'
        )

    out.append(
        "<style>.frame{fill:none;stroke:#333;stroke-width:2}"
        ".obstacle{fill:#c0392b;stroke:none}"
        ".target{fill:none;stroke:#27ae60;stroke-width:2}"
        ".winning{fill:#d6eaf8;stroke:none}"
        ".stage-label{font-family:monospace;font-size:18px;fill:#27ae60}"
        ".trajectory{fill:none;stroke:#2c3e50;stroke-width:2}"
        ".start{fill:#f39c12;stroke:#333;stroke-width:1}</style>"
    )
    if winning_rects:
        for r in winning_rects:
            out.append(rect_elem(r, "winning"))
    out.append(rect_elem(HyperRect(lo, hi), "frame"))
    for r in spec.obstacle_rects:
        out.append(rect_elem(r, "obstacle"))
    for i, r in enumerate(spec.target_rects):
        out.append(rect_elem(r, "target"))
        out.append(
            f'<text class="stage-label" x="{f(px(r.lower[0]) + 4)}" '
            f'y="{f(py(r.upper[1]) + 20)}">{i + 1}</text>'
        )
    start = (
        spec.initial_point[:2]
        if spec.initial_point is not None
        else spec.initial_rect.center[:2]
    )
    out.append(
        f'<circle class="start" cx="{f(px(start[0]))}" cy="{f(py(start[1]))}" r="6"/>'
    )
    if traj is not None and traj.fine_states.shape[0] >= 2:
        pts = " ".join(
            f"{f(px(s[0]))},{f(py(s[1]))}" for s in traj.fine_states
        )
        out.append(f'<polyline class="trajectory" points="{pts}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
