"""Reach-avoid game solving on the finite abstraction.

The winning set is the least fixed point of the controllable-predecessor
operator under worst-case nondeterminism: an input certifies a state only
when every abstract successor is already winning.  The solver runs a
backward breadth-first sweep with per-(state, input) outstanding-successor
counters, which start at FiniteTransitionSystem.counts.  Each level gathers
the predecessor edges into the frontier (FiniteTransitionSystem.predecessors:
the reverse relation of the CSR store, or each target class's offsets added
to its frontier cells in a StencilStore), sorts their pair ids and counts
each run, and takes the counts off the counters; a pair whose counter
reaches zero certifies its state.  Every edge is gathered once per stage,
so a stage costs one gather and one sort of the relation's edges in
level-sized pieces.  Ties between certifying inputs break toward the
smallest input id, making the extracted controller deterministic.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .abstraction import FiniteTransitionSystem, LabeledCells
from .errors import GeometryError, OutsideWinningSet, SchemaError
from .geometry import HyperRect, UniformGrid, check_size

@dataclass
class StagePolicy:
    """One stage of a controller: a value and an input choice per cell.

    value[s] is the worst-case number of steps from cell s into the stage's
    goal: 0 on a goal cell, -1 where s is losing.  choice[s] is the row of the
    controller's inputs certified at s, -1 on goal and losing cells (a goal
    cell's input is never applied).  winning (value >= 0) and goal (value == 0)
    are read-only views that build a new array or set on each access: read
    them once per function, not once per cell.
    """

    value: np.ndarray  # int64 per cell
    choice: np.ndarray  # int64 per cell
    # per-cell input rows, filled by load_controller only (zeros on goal cells);
    # perfbench's round-trip check is its only reader
    input_vec: np.ndarray = None

    @property
    def winning(self) -> np.ndarray:
        return self.value >= 0

    @property
    def goal(self) -> frozenset:
        return frozenset(np.flatnonzero(self.value == 0).tolist())


@dataclass
class SymbolicController:
    """Ordered stage policies plus the input table their choices index.

    A solved controller's table is the quantized input grid; a loaded one's is
    the file's non-goal input rows, in row order.  Goal-row inputs are not
    kept, so export writes zeros there, as every exported table has.
    """

    stages: list
    inputs: np.ndarray  # (num_inputs, m)

    @property
    def num_stages(self):
        return len(self.stages)

    @property
    def input_dim(self):
        return self.inputs.shape[1]

    def input_for(self, stage: int, cell: int) -> np.ndarray:
        cid = self.stages[stage].choice[cell]
        return self.inputs[cid] if cid >= 0 else np.zeros(self.input_dim)


def _solve_stage(fts: FiniteTransitionSystem, obstacle, goal) -> StagePolicy:
    """Backward fixed point for a single reach-avoid stage (cell masks in)."""
    S = fts.num_states
    value = np.full(S, -1, dtype=np.int64)
    choice = np.full(S, -1, dtype=np.int64)
    frontier = np.flatnonzero(goal & ~obstacle)
    value[frontier] = 0
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
            # each pair's successor count, made after the first gather so
            # the counters are not held while the CSR store builds its
            # reverse relation; a blocked pair counts 0 and is never
            # certified, even where a StencilStore lists it as a predecessor
            outstanding = fts.counts.astype(np.int32)
        qs.sort()
        starts = np.flatnonzero(np.concatenate([[True], qs[1:] != qs[:-1]]))
        cand = qs[starts]
        outstanding[cand] -= np.diff(np.append(starts, total)).astype(np.int32)
        cand = cand[outstanding[cand] == 0]
        u, s = np.divmod(cand, S)
        keep = (value[s] < 0) & ~obstacle[s]
        s, u = s[keep], u[keep]
        if s.size == 0:
            break
        # smallest certifying input id per newly winning state
        order = np.lexsort((u, s))
        s, u = s[order], u[order]
        first = np.concatenate([[True], s[1:] != s[:-1]])
        s, u = s[first], u[first]
        value[s] = level
        choice[s] = u
        frontier = s
    return StagePolicy(value=value, choice=choice)


def _mask(cells, size) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    mask[np.fromiter(cells, dtype=np.int64, count=len(cells))] = True
    return mask


def solve_sequential(
    fts: FiniteTransitionSystem, labels: LabeledCells, inputs: np.ndarray
) -> SymbolicController:
    """Solve all target stages last-to-first; choices index the rows of inputs.

    Stage i's goal is its target cells that are winning for stage i+1, so a
    runtime stage handover always lands in the next stage's winning set.
    """
    S = fts.num_states
    obstacle, initial = _mask(labels.obstacle_cells, S), _mask(labels.initial_cells, S)
    stages = []
    next_winning = np.ones(S, dtype=bool)
    for target in reversed(labels.target_stages):
        pol = _solve_stage(fts, obstacle, _mask(target, S) & next_winning)
        next_winning = pol.winning
        stages.insert(0, pol)
    if initial.any() and not (next_winning & initial).any():
        warnings.warn("no initial cell is winning for stage 0 (EmptyWinningSet)", stacklevel=2)
    return SymbolicController(stages=stages, inputs=inputs)


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
        while self.stage < last and stages[self.stage].value[cell] == 0:
            self.stage += 1
        value = stages[self.stage].value[cell]
        if value == 0:
            return None
        if value < 0:
            raise OutsideWinningSet(
                f"cell {cell} is not winning at stage {self.stage}; halting is required"
            )
        return self.controller.input_for(self.stage, cell)


# --- portable controller table ---------------------------------------------------


def export_controller(ctrl: SymbolicController, grid: UniformGrid) -> str:
    """Self-describing text table: one line per winning cell and stage.

    Columns: flat_id stage value input-components; a goal row (value 0)
    writes zero inputs.  The header records the grid so the file can be
    replayed without the original spec object.
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
    # choice -1 (a goal cell) picks the zero vector appended last
    table = np.vstack([ctrl.inputs, np.zeros((1, ctrl.input_dim))])
    labels = [fmt(u) for u in table]
    for stage_i, pol in enumerate(ctrl.stages):
        cells = np.flatnonzero(pol.winning)
        rows = zip(cells.tolist(), pol.value[cells].tolist(), pol.choice[cells].tolist())
        buf.writelines(f"{c} {stage_i} {v} {labels[k]}\n" for c, v, k in rows)
    return buf.getvalue()


def load_controller(text: str):
    """Parse an exported controller table. Returns (SymbolicController, UniformGrid).

    The controller has the solved form: its inputs are the non-goal rows'
    inputs in row order, and choice[cell] is the index of that cell's row.
    Goal rows (value 0) keep choice -1: their input is never applied and not
    kept, so a re-export writes zeros there, as export always does.  The
    header (the leading '#' lines) and every row are validated; a malformed
    field or row raises SchemaError naming its line.  A header whose cells x
    stages x row numbers pass geometry.SIZE_BUDGET raises SchemaError before
    any per-cell array is made.
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
    check_size("controller table", cells=S, stages=num_stages, numbers=2 + input_dim)
    row_value = {}  # stage * S + cell -> value, in row order
    flat_inputs = []  # the non-goal rows' inputs, in row order
    width = 3 + input_dim
    for lineno, line in enumerate(lines[start:], start=start + 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            cell, stage_i, val = map(int, parts[:3])
            u = [float(v) for v in parts[3:]]
            if not (len(parts) == width and 0 <= cell < S and 0 <= stage_i < num_stages
                    and 0 <= val < S and all(map(math.isfinite, u))):
                raise ValueError
        except ValueError:
            raise SchemaError(
                f"malformed row {line.strip()!r}: want flat_id in [0, {S}), "
                f"stage in [0, {num_stages}), value in [0, {S}) and {input_dim} finite inputs",
                path=f"controller line {lineno}",
            ) from None
        if (key := stage_i * S + cell) in row_value:
            raise SchemaError(f"repeated row for cell {cell} at stage {stage_i}",
                              path=f"controller line {lineno}")
        row_value[key] = val
        if val:
            flat_inputs.extend(u)
    keys = np.fromiter(row_value, dtype=np.int64, count=len(row_value))
    vals = np.fromiter(row_value.values(), dtype=np.int64, count=len(row_value))
    nongoal = vals > 0
    inputs = np.array(flat_inputs, dtype=float).reshape(int(nongoal.sum()), input_dim)
    value = np.full((num_stages, S), -1, dtype=np.int64)
    value.flat[keys] = vals
    choice = np.full((num_stages, S), -1, dtype=np.int64)
    choice.flat[keys[nongoal]] = np.arange(inputs.shape[0])
    padded = np.vstack([inputs, np.zeros((1, input_dim))])
    stages = [StagePolicy(value=v, choice=c, input_vec=padded[c]) for v, c in zip(value, choice)]
    return SymbolicController(stages=stages, inputs=inputs), grid
