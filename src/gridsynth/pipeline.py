"""End-to-end synthesis driver: spec in, concretizable controller out."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .abstraction import build_abstraction, build_input_grid, input_index_ranges, label_cells
from .dynamics import get_field
from .geometry import check_size
from .specformat import ProblemSpec
from .synthesis import ConcreteController, solve_sequential


@dataclass
class SynthesisResult:
    spec: ProblemSpec
    grid: object
    inputs: object
    fts: object
    labels: object
    controller: object
    build_seconds: float
    solve_seconds: float

    @property
    def winning_fraction(self) -> float:
        pol = self.controller.stages[0]
        return float(pol.winning.sum()) / self.grid.num_cells

    @property
    def initial_winning(self) -> bool:
        pol = self.controller.stages[0]
        return bool(pol.winning[list(self.labels.initial_cells)].all())

    def concrete_controller(self) -> ConcreteController:
        return ConcreteController(self.controller, self.grid)


def synthesize(spec: ProblemSpec) -> SynthesisResult:
    """Abstract the system, label the spec geometry, and solve the game."""
    field = get_field(spec.system_name)
    grid = spec.build_grid()
    ranges = input_index_ranges(spec.input_bounds, spec.eta_u)
    check_size("spec", cells=grid.num_cells, inputs=math.prod(b - a + 1 for a, b in ranges))
    inputs = build_input_grid(spec.input_bounds, spec.eta_u)

    t0 = time.perf_counter()
    fts = build_abstraction(grid, inputs, field, spec.tau)
    t1 = time.perf_counter()
    labels = label_cells(grid, spec)
    t2 = time.perf_counter()
    controller = solve_sequential(fts, labels, inputs)
    t3 = time.perf_counter()

    return SynthesisResult(
        spec=spec,
        grid=grid,
        inputs=inputs,
        fts=fts,
        labels=labels,
        controller=controller,
        build_seconds=t1 - t0,
        solve_seconds=t3 - t2,
    )
