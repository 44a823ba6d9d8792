#!/bin/sh
# Write the program's deterministic outputs into the directory OUT:
#   <case>.txt        the controller table of each of the 20 shipped fixtures,
#                     which must export to itself again after load_controller
#   <case>.counts     the count lines of the fixture's synth summary (abstract
#                     states, inputs, transitions, relation store, winning
#                     fraction)
#   <case>.labels     the sorted obstacle, per-stage target and initial cell
#                     ids that label_cells gives the fixture
#   <case>.csv       a closed loop from the fixture's initial state
#   exit_codes.txt    the exit code of each synth and simulate command
#   case06.svg        case06's scene with its winning set
#   <case>.twin.sha256, <case>.twin.txt
#                     for case01 and case05, built with the bicycle twin that
#                     declares no invariant_dims (the per-cell build, which
#                     is also the stencil build's fallback): the sha256 of
#                     the relation's indptr, succ and blocked arrays, and the
#                     controller table, which must equal <case>.txt; the
#                     declared (stencil) field's successors of every pair
#                     must equal the twin's indptr and succ (no file)
#   demo03.txt        the harness demo's report, without its first line
#                     (that line names the checkout's fixture directory)
#   grader.txt        the code_agent_only category that bench.categorize
#                     gives drafts made from each fixture's ground truth:
#                     serialized as is, re-encoded as center_sides, obstacles
#                     reversed, first obstacle shifted by DIFF_TOL/2 and by
#                     2*DIFF_TOL, clearance + 0.25, first two targets swapped
#
# A change that should keep behaviour is checked by running this script in
# two checkouts and comparing the directories with `diff -r`.
#
#   tools/refactor_outputs.sh OUT
set -u
if [ $# -ne 1 ]; then
  echo "usage: $0 OUT" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$root" || exit 2
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"

: > "$out/exit_codes.txt"
for d in src/gridsynth/fixtures/cases/*/; do
  c=$(basename "$d")
  python3 -m gridsynth.cli synth "$d/spec.json" -o "$out/$c.txt" 2> "$out/$c.err"
  synth=$?
  cat "$out/$c.err" >&2
  grep -E '^(abstract states|inputs|transitions|relation|winning fraction)' "$out/$c.err" \
    > "$out/$c.counts"
  rm "$out/$c.err"
  python3 - "$d/spec.json" > "$out/$c.labels" <<'PY'
import sys
from pathlib import Path

from gridsynth.abstraction import label_cells
from gridsynth.specformat import parse_spec

spec = parse_spec(Path(sys.argv[1]).read_text())
labels = label_cells(spec.build_grid(), spec)
rows = [("obstacle", labels.obstacle_cells)]
rows += [(f"target {i}", cells) for i, cells in enumerate(labels.target_stages)]
rows += [("initial", labels.initial_cells)]
for name, cells in rows:
    print(f"{name}:", *sorted(cells))
PY
  python3 -m gridsynth.cli simulate "$d/spec.json" "$out/$c.txt" -o "$out/$c.csv"
  echo "$c synth $synth simulate $?" >> "$out/exit_codes.txt"
  python3 - "$out/$c.txt" <<'PY' || exit 1
import sys
from pathlib import Path

from gridsynth.synthesis import export_controller, load_controller

text = Path(sys.argv[1]).read_text()
if export_controller(*load_controller(text)) != text:
    sys.exit(f"{sys.argv[1]}: the loaded table re-exports differently")
PY
done
for c in case01_warehouse_crate case05_clearance_tank; do
  python3 - "src/gridsynth/fixtures/cases/$c/spec.json" "$out/$c.twin.txt" \
    > "$out/$c.twin.sha256" <<'PY' || exit 1
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

from gridsynth.abstraction import StencilStore, build_abstraction
from gridsynth.dynamics import BICYCLE, register_field
from gridsynth.pipeline import synthesize
from gridsynth.specformat import parse_spec
from gridsynth.synthesis import export_controller

register_field(dataclasses.replace(BICYCLE, invariant_dims=()))
spec = parse_spec(Path(sys.argv[1]).read_text())
result = synthesize(spec)
fts = result.fts
assert not isinstance(fts, StencilStore)
for name in ("indptr", "succ", "blocked"):
    print(name, hashlib.sha256(getattr(fts, name).tobytes()).hexdigest())
Path(sys.argv[2]).write_text(export_controller(result.controller, result.grid))
declared = build_abstraction(result.grid, result.inputs, BICYCLE, spec.tau)
assert isinstance(declared, StencilStore)
ptr, succ = declared.successors(np.arange(fts.num_states * fts.num_inputs))
same = [np.array_equal(a, b) and a.dtype == b.dtype for a, b in ((ptr, fts.indptr), (succ, fts.succ))]
if not all(same):
    sys.exit(f"{sys.argv[1]}: the stencil store's successors differ from the per-cell twin's")
PY
  cmp "$out/$c.txt" "$out/$c.twin.txt" || exit 1
done
python3 -m gridsynth.cli synth src/gridsynth/fixtures/cases/case06_city_block/spec.json \
  -o "$out/case06_svg.txt" --svg "$out/case06.svg" || exit 1
python3 demos/03_benchmark.py > "$out/demo03.full" || exit 1
tail -n +2 "$out/demo03.full" > "$out/demo03.txt"
rm "$out/demo03.full"
python3 - > "$out/grader.txt" <<'PY' || exit 1
import dataclasses

import numpy as np

from gridsynth import agents, bench
from gridsynth.geometry import CenterAndSides, TwoDiagonalVertices
from gridsynth.specformat import DIFF_TOL, parse_spec, serialize_spec


def center_sides(rects):
    return tuple(
        CenterAndSides(tuple((r.lower + r.upper) / 2), tuple(r.upper - r.lower))
        for r in rects
    )


def shifted(gt, delta):
    """gt with its first obstacle moved along x by delta, inward."""
    rects = gt.obstacle_rects
    step = np.zeros(rects[0].dim)
    step[0] = delta if rects[0].upper[0] + delta <= gt.state_bounds.upper[0] else -delta
    boxes = [(r.lower, r.upper) for r in rects]
    boxes[0] = (rects[0].lower + step, rects[0].upper + step)
    return dataclasses.replace(
        gt, obstacles=tuple(TwoDiagonalVertices(tuple(a), tuple(b)) for a, b in boxes)
    )


for case in bench.load_cases(bench.fixtures_dir()):
    gt = case.ground_truth
    drafts = {
        "serialized": parse_spec(serialize_spec(gt)),
        "center_sides": dataclasses.replace(
            gt,
            obstacles=center_sides(gt.obstacle_rects),
            targets=center_sides(gt.target_rects),
        ),
        "obstacles_reversed": dataclasses.replace(gt, obstacles=gt.obstacles[::-1]),
    }
    if gt.obstacles:
        drafts["shift_half_tol"] = shifted(gt, DIFF_TOL / 2)
        drafts["shift_twice_tol"] = shifted(gt, 2 * DIFF_TOL)
    drafts["clearance_plus_0.25"] = dataclasses.replace(gt, clearance=gt.clearance + 0.25)
    if len(gt.targets) >= 2:
        drafts["targets_swapped"] = dataclasses.replace(
            gt, targets=(gt.targets[1], gt.targets[0], *gt.targets[2:])
        )
    for kind, draft in drafts.items():
        iteration = agents.Iteration("", "", parsed_spec=draft)
        category, _ = bench.categorize(bench.CODE_AGENT_ONLY, iteration, gt)
        print(case.id, kind, category)
PY
