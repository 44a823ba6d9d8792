"""Reach-avoid game solving on the finite abstraction.

The winning set is the least fixed point of the controllable-predecessor
operator under worst-case nondeterminism: an input certifies a state only
when every abstract successor is already winning.  The solver runs a
backward breadth-first sweep with per-(state, input) outstanding-successor
counters.  Each level gathers the predecessor edges into the frontier
(FiniteTransitionSystem.predecessors: the reverse relation of a CSR store,
or each target class's stencil offsets added to its frontier cells in a
stencil store), sorts their pair ids and counts each run, and takes the
counts off the counters; a pair whose counter reaches zero certifies its
state.  Every edge is gathered once per stage, so a stage costs one gather
and one sort of the relation's edges in level-sized pieces.  Ties between
certifying inputs break toward the smallest input id, making the extracted
controller deterministic.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .abstraction import FiniteTransitionSystem, LabeledCells
from .errors import GeometryError, OutsideWinningSet, SchemaError
from .geometry import HyperRect, UniformGrid


@dataclass
class StagePolicy:
    """Winning set, certified input choice, and step-to-goal value for one stage."""

    winning: np.ndarray  # bool per state
    choice: np.ndarray  # input id per state, -1 where none (goal or losing)
    value: np.ndarray  # worst-case steps to goal, -1 where losing
    goal: frozenset  # the (possibly shrunk) goal cells of this stage
    input_vec: np.ndarray = field(default=None)  # per-cell inputs, set on import


@dataclass
class SymbolicController:
    """Ordered stage policies plus the quantized input table."""

    stages: list
    inputs: np.ndarray  # (num_inputs, m); may be empty on import
    input_dim: int = 0

    def __post_init__(self):
        if self.inputs is not None and self.inputs.size:
            self.input_dim = self.inputs.shape[1]

    @property
    def num_stages(self):
        return len(self.stages)

    def input_for(self, stage: int, cell: int) -> np.ndarray:
        pol = self.stages[stage]
        if pol.input_vec is not None:
            return pol.input_vec[cell]
        cid = int(pol.choice[cell])
        if cid < 0:
            return np.zeros(self.input_dim)
        return self.inputs[cid]


def _solve_stage(fts: FiniteTransitionSystem, obstacle_set, goal_set) -> StagePolicy:
    """Backward fixed point for a single reach-avoid stage."""
    S, U = fts.num_states, fts.num_inputs
    obstacle = np.zeros(S, dtype=bool)
    if obstacle_set:
        obstacle[np.fromiter(obstacle_set, dtype=np.int64)] = True

    winning = np.zeros(S, dtype=bool)
    value = np.full(S, -1, dtype=np.int64)
    choice = np.full(S, -1, dtype=np.int64)

    goal = np.fromiter(goal_set, dtype=np.int64) if goal_set else np.zeros(0, np.int64)
    goal = goal[~obstacle[goal]]
    winning[goal] = True
    value[goal] = 0

    frontier = np.sort(goal)
    outstanding = None
    level = 0
    while frontier.size:
        level += 1
        # every predecessor edge into the frontier takes one off its pair's
        # outstanding-successor count
        qs = fts.predecessors(frontier)
        total = qs.size
        if total == 0:
            break
        if outstanding is None:
            # made after the first gather, so the counters are not held
            # while a CSR store builds its reverse relation
            outstanding = fts.outstanding()
        qs.sort()
        starts = np.flatnonzero(np.concatenate([[True], qs[1:] != qs[:-1]]))
        cand = qs[starts]
        outstanding[cand] -= np.diff(np.append(starts, total)).astype(np.int32)
        cand = cand[outstanding[cand] == 0]
        s = cand % S
        u = cand // S
        keep = ~winning[s] & ~obstacle[s]
        s, u = s[keep], u[keep]
        if s.size == 0:
            frontier = np.zeros(0, np.int64)
            continue
        # smallest certifying input id per newly winning state
        order = np.lexsort((u, s))
        s, u = s[order], u[order]
        first = np.concatenate([[True], s[1:] != s[:-1]])
        s, u = s[first], u[first]
        winning[s] = True
        value[s] = level
        choice[s] = u
        frontier = s
    return StagePolicy(
        winning=winning, choice=choice, value=value, goal=frozenset(int(g) for g in goal)
    )


def solve_sequential(fts: FiniteTransitionSystem, labels: LabeledCells) -> SymbolicController:
    """Solve all target stages last-to-first.

    Stage i's goal is shrunk to the part of its target that is winning for
    stage i+1, so a runtime stage handover always lands in the next stage's
    winning set.
    """
    stages = [None] * len(labels.target_stages)
    next_pol = None
    for i in range(len(labels.target_stages) - 1, -1, -1):
        goal = set(labels.target_stages[i])
        if next_pol is not None:
            goal = {c for c in goal if next_pol.winning[c]}
        pol = _solve_stage(fts, labels.obstacle_cells, goal)
        if labels.initial_cells and i == 0:
            if not any(pol.winning[c] for c in labels.initial_cells):
                warnings.warn(
                    "no initial cell is winning for stage 0 (EmptyWinningSet)",
                    stacklevel=2,
                )
        stages[i] = pol
        next_pol = pol
    return SymbolicController(stages=stages, inputs=None)


class ConcreteController:
    """Feedback concretization of a symbolic controller.

    One instance per execution: the stage counter is its only mutable state.
    """

    def __init__(self, controller: SymbolicController, grid: UniformGrid):
        self.controller = controller
        self.grid = grid
        self.stage = 0

    def __call__(self, x) -> np.ndarray | None:
        """Certified input for the continuous state x, or None when done.

        Quantizes x once, advances the stage counter while the cell lies in
        the current stage's goal, and returns None once the cell is in the
        last stage's goal.  Raises OutsideWinningSet when the cell is not
        winning at the current stage (halting is then required).
        """
        cell = self.grid.cell_of(x).flat_id
        stages = self.controller.stages
        last = len(stages) - 1
        while self.stage < last and cell in stages[self.stage].goal:
            self.stage += 1
        if self.stage == last and cell in stages[last].goal:
            return None
        if not stages[self.stage].winning[cell]:
            raise OutsideWinningSet(
                f"cell {cell} is not winning at stage {self.stage}; halting is required"
            )
        return self.controller.input_for(self.stage, cell)


# --- portable controller table ---------------------------------------------------


def export_controller(ctrl: SymbolicController, grid: UniformGrid) -> str:
    """Self-describing text table: one line per winning cell and stage.

    Columns: flat_id stage value input-components.  The header records the
    grid so the file can be replayed without the original spec object.
    """
    buf = io.StringIO()
    fmt = lambda v: " ".join(repr(float(x)) for x in v)  # noqa: E731
    buf.write("# gridsynth controller v1\n")
    buf.write(f"# state_lower: {fmt(grid.bounds.lower)}\n")
    buf.write(f"# state_upper: {fmt(grid.bounds.upper)}\n")
    buf.write(f"# eta: {fmt(grid.eta)}\n")
    buf.write(f"# periodic: {' '.join(str(int(p)) for p in grid.periodic)}\n")
    buf.write(f"# stages: {ctrl.num_stages}\n")
    buf.write(f"# input_dim: {ctrl.input_dim}\n")
    buf.write("# columns: flat_id stage value inputs...\n")
    for stage_i, pol in enumerate(ctrl.stages):
        cells = np.flatnonzero(pol.winning)
        if pol.input_vec is not None:  # imported table: one input row per cell
            table, ids = pol.input_vec[cells], np.arange(cells.size)
        else:  # choice -1 (a goal cell) picks the zero vector appended last
            table = np.vstack([ctrl.inputs, np.zeros((1, ctrl.input_dim))])
            ids = pol.choice[cells]
        labels = [fmt(u) for u in table]
        buf.writelines(
            f"{c} {stage_i} {v} {labels[k]}\n"
            for c, v, k in zip(cells.tolist(), pol.value[cells].tolist(), ids.tolist())
        )
    return buf.getvalue()


def load_controller(text: str):
    """Parse an exported controller table. Returns (SymbolicController, UniformGrid).

    The header (the leading '#' lines) and every row are validated; a
    malformed field or row raises SchemaError naming its line.
    """
    lines = text.splitlines()
    header = {}
    start = len(lines)
    for i, line in enumerate(lines):
        body = line.strip()
        if body and not body.startswith("#"):
            start = i
            break
        key, sep, val = body[1:].partition(":")
        if sep:
            header[key.strip()] = (i + 1, val.strip())

    def field(key, parse, ok):
        if key not in header:
            raise SchemaError(f"controller table is missing header field '{key}'")
        lineno, val = header[key]
        try:
            v = parse(val)
            if ok(v):
                return v
        except ValueError:
            pass
        raise SchemaError(f"malformed {key} {val!r}", path=f"controller line {lineno}")

    floats = lambda val: np.array([float(v) for v in val.split()])  # noqa: E731
    finite = lambda v: bool(np.all(np.isfinite(v)))  # noqa: E731
    lower = field("state_lower", floats, finite)
    upper = field("state_upper", floats, finite)
    eta = field("eta", floats, finite)
    periodic = field(
        "periodic", lambda val: [int(v) for v in val.split()], lambda v: set(v) <= {0, 1}
    )
    num_stages = field("stages", int, lambda k: k >= 1)
    input_dim = field("input_dim", int, lambda k: k >= 0)
    try:
        grid = UniformGrid(HyperRect(lower, upper), eta, periodic)
    except GeometryError as exc:
        raise SchemaError(f"controller table header: {exc}") from None
    S = grid.num_cells
    stages = []
    for _ in range(num_stages):
        stages.append(
            StagePolicy(
                winning=np.zeros(S, dtype=bool),
                choice=np.full(S, -1, dtype=np.int64),
                value=np.full(S, -1, dtype=np.int64),
                goal=frozenset(),
                input_vec=np.zeros((S, input_dim)),
            )
        )
    goals = [set() for _ in range(num_stages)]
    width = 3 + input_dim
    for lineno, line in enumerate(lines[start:], start=start + 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            cell, stage_i, val = map(int, parts[:3])
            u = [float(v) for v in parts[3:]]
            if not (len(parts) == width and 0 <= cell < S and 0 <= stage_i < num_stages
                    and val >= 0 and all(map(math.isfinite, u))):
                raise ValueError
        except ValueError:
            raise SchemaError(
                f"malformed row {line.strip()!r}: want flat_id in [0, {S}), "
                f"stage in [0, {num_stages}), value >= 0 and {input_dim} finite inputs",
                path=f"controller line {lineno}",
            ) from None
        pol = stages[stage_i]
        if pol.winning[cell]:
            raise SchemaError(
                f"repeated row for cell {cell} at stage {stage_i}",
                path=f"controller line {lineno}",
            )
        pol.winning[cell] = True
        pol.value[cell] = val
        pol.input_vec[cell] = u
        if val == 0:
            goals[stage_i].add(cell)
    for pol, goal in zip(stages, goals):
        pol.goal = frozenset(goal)
    ctrl = SymbolicController(stages=stages, inputs=None, input_dim=input_dim)
    return ctrl, grid
