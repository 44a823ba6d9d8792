"""
End-to-end controller synthesis
===============================

Builds a finite abstraction of the kinematic bicycle on a 4x4 workspace,
solves the reach-avoid game, and drives the closed loop from the initial
point to the target pad.

Run from the repository root::

    python3 demos/01_synthesis_end_to_end.py
"""

import json
import math
from pathlib import Path

import gridsynth as gs
from gridsynth.dynamics import BICYCLE
from gridsynth.pipeline import synthesize

# ---------------------------------------------------------------------------
# The problem spec is a plain JSON document: workspace bounds, a square
# crate in the middle, a target pad in the north-east corner.

spec_doc = {
    "system": "bicycle",
    "state_bounds": {"lower": [0.0, 0.0, -math.pi], "upper": [4.0, 4.0, math.pi]},
    "periodic": [False, False, True],
    "input_bounds": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    "eta_x": [0.2, 0.2, 0.2],
    "eta_u": [0.3, 0.3],
    "tau": 0.3,
    "obstacles": [{"kind": "diagonal", "points": [[1.6, 1.6], [2.4, 2.4]]}],
    "targets": [{"kind": "diagonal", "points": [[3.0, 3.0], [3.8, 3.8]]}],
    "initial": {"point": [0.5, 0.5, 0.0]},
    "clearance": 0.0,
}

spec = gs.parse_spec(json.dumps(spec_doc))

# ---------------------------------------------------------------------------
# Abstraction + game solving in one call.  The heading axis is periodic and
# 2*pi is not an integer multiple of 0.2, so the grid quietly snaps the
# heading step to 2*pi/31.

result = synthesize(spec)
print(f"abstract states:    {result.fts.num_states}")
print(f"quantized inputs:   {result.fts.num_inputs}")
print(f"transitions:        {len(result.fts.succ)}")
print(f"winning fraction:   {result.winning_fraction:.4f}")
print(f"build / solve time: {result.build_seconds:.2f}s / {result.solve_seconds:.2f}s")

# ---------------------------------------------------------------------------
# Close the loop.  The concrete controller quantizes the measured state and
# looks up the certified input for its cell; the guarantee transfers to the
# continuous system.

ctrl = result.concrete_controller()
traj = gs.simulate_closed_loop(
    BICYCLE, ctrl, [0.5, 0.5, 0.0], spec.tau, max_steps=200
)
print(f"termination:        {traj.termination.kind} at t = {traj.termination.time:.1f}s")

verdict = gs.check_reach_avoid(traj, spec)
print(f"reach-avoid check:  satisfied = {verdict.satisfied}, t_f = {verdict.t_f}")

out = Path("demo_synthesis.svg")
out.write_text(gs.render_svg(spec, traj))
print(f"picture written to  {out}")
