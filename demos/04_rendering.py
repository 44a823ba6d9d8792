"""
Deterministic SVG rendering
===========================

Draws a fixture environment, the stage-0 winning set, and a closed-loop
trajectory.  The renderer emits coordinates with fixed precision, so two
renders of the same scene are byte-identical — handy for golden-file tests.

    python3 demos/04_rendering.py
"""

from pathlib import Path

import numpy as np

import gridsynth as gs
from gridsynth.bench import fixtures_dir, load_cases
from gridsynth.dynamics import BICYCLE
from gridsynth.pipeline import synthesize

case = load_cases(fixtures_dir())[0]
spec = case.ground_truth
print(f"rendering {case.id}")

result = synthesize(spec)
ctrl = result.concrete_controller()
x0 = np.concatenate([spec.initial_point,
                     np.zeros(3 - len(spec.initial_point))])
traj = gs.simulate_closed_loop(BICYCLE, ctrl, x0, spec.tau, max_steps=300)
print(f"closed loop: {traj.termination.kind} at t = {traj.termination.time}")

# shade the stage-0 winning set, projected onto the position plane
rects = gs.winning_columns(result.grid, result.controller.stages[0].winning)

svg = gs.render_svg(spec, traj, winning_rects=rects)
assert svg == gs.render_svg(spec, traj, winning_rects=rects)  # byte-identical

out = Path("demo_rendering.svg")
out.write_text(svg)
print(f"{len(rects)} winning columns shaded; picture written to {out}")
