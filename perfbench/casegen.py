"""Seeded benchmark cases, scripted model personas and their expected outcomes.

A persona is a scripted model: a fixed mix of Code/Checker Agent behaviours
and of direct-LLM waypoint plans.  Cases are dealt to personas and
paraphrases to behaviours by the seed, but the mix itself never changes, so
every seed asks the harness for the same amount of work.  The expected
outcome category of every (strategy, case, paraphrase) is known here by
construction; direct-LLM plans are judged by this benchmark's own
segment-vs-box test, not by the program.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gridsynth.bench import (
    CODE_AGENT_ONLY,
    CORRECT_CHECKED,
    CORRECT_NOT_CHECKED,
    DIRECT_LLM,
    FULL_PIPELINE,
    INCORRECT_BLOCKED,
    INCORRECT_EXECUTION,
    BenchCase,
)
from gridsynth.specformat import canonicalize, parse_spec, serialize_spec

from checks import reach_avoid_points, reach_avoid_segments

# Plans that pass between two waypoints straight through an obstacle.  The
# program's sample-point test accepts them; they are fixed, whatever the seed,
# and are counted as failed operations while that fault stands.
SKIP_PLANS = {
    ("case01_warehouse_crate", 1): [(0.5, 0.5), (1.5, 1.5), (3.4, 3.4)],
    ("case02_parking_garage", 1): [(0.4, 2.4), (1.5, 1.5), (3.5, 1.5), (4.4, 2.5)],
}
SKIP_CASES = sorted({cid for cid, _ in SKIP_PLANS})

# Full-pipeline replies per behaviour: G correct draft, W/W2 wrong drafts,
# U/U2 unparseable drafts, T checker approval, F checker feedback.
SPEC_BEHAVIOURS = {
    "accept": (("G", "T"), CORRECT_CHECKED, False),
    "fix": (("W", "F", "G", "T"), CORRECT_CHECKED, False),
    "false_block": (("W", "F", "G", "F"), INCORRECT_BLOCKED, True),
    "false_block_all": (("G", "F", "G", "F"), INCORRECT_BLOCKED, True),
    "blocked": (("W", "F", "W2", "F"), INCORRECT_BLOCKED, False),
    "unparseable": (("U", "U2"), INCORRECT_BLOCKED, False),
    "unparseable_fix": (("U", "G", "T"), CORRECT_CHECKED, False),
    "approved_wrong": (("W", "T"), INCORRECT_EXECUTION, False),
}
ACCEPTING = ("accept", "fix", "unparseable_fix")

PERSONAS = {
    "careful": (
        ("accept", "accept", "fix", "accept", "false_block_all", "unparseable_fix"),
        ("plan", "plan", "short"),
    ),
    "hasty": (
        ("approved_wrong", "accept", "fix", "unparseable", "accept", "blocked"),
        ("plan", "hit", "garbled"),
    ),
    "stubborn": (
        ("false_block", "blocked", "accept", "fix", "unparseable", "accept"),
        ("hit", "plan", "short"),
    ),
}

FEEDBACK = (
    "The obstacle placement does not match the description.",
    "Mismatch: check the target region and the start position.",
    "The clearance and the visit order must follow the task text.",
)
UNPARSEABLE = (
    "I need more details about the workspace before I can write the spec.",
    '```json\n{"system": "bicycle", "tau": 0.3,\n```',
)


# --- direct-LLM plans -----------------------------------------------------------


def _bfs_path(free, goal, src):
    """Shortest 4-connected path of free cells from src to any goal cell."""
    dist = np.full(free.shape, -1, dtype=np.int64)
    front = goal & free
    dist[front] = 0
    d = 0
    while dist[src] < 0:
        grow = np.zeros_like(front)
        grow[1:] |= front[:-1]
        grow[:-1] |= front[1:]
        grow[:, 1:] |= front[:, :-1]
        grow[:, :-1] |= front[:, 1:]
        grow &= free & (dist < 0)
        if not grow.any():
            return None
        d += 1
        dist[grow] = d
        front = grow
    path = [src]
    while dist[path[-1]] > 0:
        i, j = path[-1]
        for a, b in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if 0 <= a < free.shape[0] and 0 <= b < free.shape[1] and dist[a, b] == dist[i, j] - 1:
                path.append((a, b))
                break
    return path


PLAN_CELL = 0.1  # occupancy-grid step of planned waypoints
PLAN_MARGIN = 0.02  # clearance of planned cells from obstacles


def plan_waypoints(spec):
    """Obstacle-free 2-D waypoints through every target in order, or None.

    Waypoints are centers of free cells of a fine occupancy grid, so every
    segment between two of them stays inside free cells.
    """
    h, margin = PLAN_CELL, PLAN_MARGIN
    lo, hi = spec.state_bounds.lower[:2], spec.state_bounds.upper[:2]
    n = np.maximum(np.floor((hi - lo) / h + 1e-9).astype(int), 1)
    size = (hi - lo) / n
    edges = [lo[i] + np.arange(n[i] + 1) * size[i] for i in range(2)]
    centers = [0.5 * (e[1:] + e[:-1]) for e in edges]
    free = np.ones(tuple(n), dtype=bool)
    for r in spec.obstacle_rects:
        rl, ru = r.lower[:2] - margin, r.upper[:2] + margin
        hit = [(edges[i][:-1] <= ru[i]) & (edges[i][1:] >= rl[i]) for i in range(2)]
        free[np.ix_(hit[0], hit[1])] = False
    start = (
        spec.initial_point[:2] if spec.initial_point is not None else spec.initial_rect.center[:2]
    )
    cur = tuple(int(v) for v in np.clip(np.floor((start - lo) / size), 0, n - 1))
    if not free[cur]:
        return None
    cells, keep = [cur], set()
    for t in spec.target_rects:
        inside = [
            (centers[i] > t.lower[i] + margin) & (centers[i] < t.upper[i] - margin)
            for i in range(2)
        ]
        path = _bfs_path(free, np.outer(inside[0], inside[1]), cur)
        if path is None:
            return None
        cells.extend(path[1:])
        keep.add(len(cells) - 1)
        cur = path[-1]
    # drop interior points of straight runs
    kept = [cells[0]]
    for k in range(1, len(cells) - 1):
        d_in = np.subtract(cells[k], cells[k - 1])
        d_out = np.subtract(cells[k + 1], cells[k])
        if k in keep or not np.array_equal(d_in, d_out):
            kept.append(cells[k])
    if len(cells) > 1:
        kept.append(cells[-1])
    pts = [tuple(float(v) for v in start)]
    for i, j in kept:
        c = (float(centers[0][i]), float(centers[1][j]))
        if math.dist(c, pts[-1]) > 1e-9:
            pts.append(c)
    return pts


def plan_text(points) -> str:
    t, rows = 0.0, []
    for k, p in enumerate(points):
        if k:
            t += math.dist(points[k - 1], p)
        rows.append([t, *p])
    return "```json\n" + json.dumps({"trajectory": rows}) + "\n```"


# --- wrong drafts ------------------------------------------------------------------


def _diag(lo, hi):
    return {"kind": "diagonal", "points": [list(map(float, lo)), list(map(float, hi))]}


def _shift(rect, box_lo, box_hi, delta=0.3):
    lo, hi = np.array(rect.lower, dtype=float), np.array(rect.upper, dtype=float)
    for s in (delta, -delta):
        if lo[0] + s >= box_lo[0] and hi[0] + s <= box_hi[0]:
            lo[0] += s
            hi[0] += s
            return lo, hi
    return None


def wrong_draft(gt, rng, avoid=None):
    """A parseable spec that differs from the ground truth by construction.

    Returns (text, kind); kind != avoid.
    """
    doc = json.loads(serialize_spec(gt))
    box_lo, box_hi = gt.state_bounds.lower, gt.state_bounds.upper
    options = {"clearance": True}
    options["initial"] = gt.initial_point is not None and gt.initial_point.size == 3
    options["target"] = _shift(gt.target_rects[0], box_lo, box_hi) is not None
    options["obstacle"] = bool(gt.obstacle_rects) and (
        _shift(gt.obstacle_rects[0], box_lo, box_hi) is not None
    )
    options["drop"] = bool(gt.obstacle_rects)
    options["order"] = len(gt.target_rects) > 1 and not gt.target_rects[0].approx_equal(
        gt.target_rects[1]
    )
    kinds = [k for k, ok in options.items() if ok and k != avoid]
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "clearance":
        doc["clearance"] = gt.clearance + 0.25
    elif kind == "initial":
        p = list(map(float, gt.initial_point))
        p[2] = p[2] + 0.5 if p[2] < 2.5 else p[2] - 0.5
        doc["initial"] = {"point": p}
    elif kind == "target":
        doc["targets"][0] = _diag(*_shift(gt.target_rects[0], box_lo, box_hi))
    elif kind == "obstacle":
        rects = list(gt.obstacle_rects)
        doc["obstacles"] = [_diag(*_shift(rects[0], box_lo, box_hi))] + [
            _diag(r.lower, r.upper) for r in rects[1:]
        ]
    elif kind == "drop":
        doc["obstacles"] = [_diag(r.lower, r.upper) for r in gt.obstacle_rects[1:]]
    else:
        doc["targets"][0], doc["targets"][1] = doc["targets"][1], doc["targets"][0]
    return "```json\n" + json.dumps(doc, indent=2) + "\n```", kind


# --- personas -> scripts ------------------------------------------------------------


class Script:
    """Mock replies per strategy, in harness order, with expected outcomes."""

    def __init__(self):
        self.responses = {FULL_PIPELINE: [], CODE_AGENT_ONLY: [], DIRECT_LLM: []}
        self.expected = {}  # (strategy, case id, paraphrase) -> (category, false block)


def deal(cases, rng, must_accept=()):
    """Deal personas to cases and behaviours to paraphrases.

    Returns two dicts keyed by (case id, paraphrase): the spec behaviour and
    the plan behaviour (none for the fixed obstacle-skipping plans).
    """
    names = sorted(PERSONAS)
    order = rng.permutation(len(cases))
    persona = {cases[i].id: names[r % len(names)] for r, i in enumerate(order)}
    spec_b, plan_b = {}, {}
    for name in names:
        spec_mix, plan_mix = PERSONAS[name]
        slots = [(c.id, p) for c in cases if persona[c.id] == name for p in (1, 2, 3)]
        slots = [slots[i] for i in rng.permutation(len(slots))]
        for k, slot in enumerate(slots):
            spec_b[slot] = spec_mix[k % len(spec_mix)]
        open_slots = [s for s in slots if s not in SKIP_PLANS]
        for k, slot in enumerate(open_slots):
            plan_b[slot] = plan_mix[k % len(plan_mix)]
    # cases whose accepted spec is synthesized need one accepting paraphrase;
    # swapping behaviours keeps the mix unchanged
    donors = [s for s in sorted(spec_b) if s[0] not in must_accept and spec_b[s] in ACCEPTING]
    for cid in must_accept:
        if not any(spec_b[(cid, p)] in ACCEPTING for p in (1, 2, 3)):
            donor = donors.pop(int(rng.integers(len(donors))))
            spec_b[(cid, 1)], spec_b[donor] = spec_b[donor], spec_b[(cid, 1)]
    return spec_b, plan_b


def build_script(cases, rng, must_accept=()) -> Script:
    cases = sorted(cases, key=lambda c: c.id)
    spec_b, plan_b = deal(cases, rng, must_accept)
    script = Script()
    fp, cao, direct = (script.responses[s] for s in (FULL_PIPELINE, CODE_AGENT_ONLY, DIRECT_LLM))
    for case in cases:
        gt = case.ground_truth
        good = "Here is the specification.\n```json\n" + serialize_spec(gt) + "\n```\n"
        waypoints = None
        for p in (1, 2, 3):
            beh = spec_b[(case.id, p)]
            replies, category, false_block = SPEC_BEHAVIOURS[beh]
            w, kind = wrong_draft(gt, rng)
            drafts = {
                "G": good,
                "W": w,
                "W2": wrong_draft(gt, rng, avoid=kind)[0],
                "U": UNPARSEABLE[0],
                "U2": UNPARSEABLE[1],
                "T": "True",
                "F": FEEDBACK[int(rng.integers(len(FEEDBACK)))],
            }
            fp.extend(drafts[r] for r in replies)
            script.expected[(FULL_PIPELINE, case.id, p)] = (category, false_block)
            cao.append(drafts[replies[0]])
            script.expected[(CODE_AGENT_ONLY, case.id, p)] = (
                CORRECT_NOT_CHECKED if replies[0] == "G" else INCORRECT_EXECUTION,
                False,
            )
            if (case.id, p) in SKIP_PLANS:
                points = SKIP_PLANS[(case.id, p)]
            else:
                if waypoints is None:
                    waypoints = plan_waypoints(gt)
                    if waypoints is None:
                        raise ValueError(f"{case.id}: no obstacle-free plan exists")
                points = _plan_variant(plan_b[(case.id, p)], waypoints, gt)
            if points is None:
                direct.append('```json\n{"path": [[0.0, 0.0, 0.0]]}\n```')
                ok = False
            else:
                direct.append(plan_text(points))
                ok = reach_avoid_segments(np.array(points), gt)
                if (case.id, p) not in SKIP_PLANS and ok != reach_avoid_points(
                    np.array(points), gt
                ):
                    raise ValueError(f"{case.id}/{p}: plan depends on segment checking")
            script.expected[(DIRECT_LLM, case.id, p)] = (
                CORRECT_NOT_CHECKED if ok else INCORRECT_EXECUTION,
                False,
            )
    return script


def _plan_variant(behaviour, waypoints, gt):
    if behaviour == "garbled":
        return None
    if behaviour == "hit" and gt.obstacle_rects:
        return [waypoints[0], tuple(float(v) for v in gt.obstacle_rects[0].center[:2])] + waypoints[1:]
    if behaviour in ("hit", "short"):
        return waypoints[:-1] if len(waypoints) > 2 else waypoints[:1]
    return waypoints


# --- generated environments ----------------------------------------------------------


ENCODINGS = ("diagonal", "center_sides", "vertices4")


def _encode(lo, hi, kind):
    lo, hi = [float(v) for v in lo], [float(v) for v in hi]
    if kind == "diagonal":
        return {"kind": "diagonal", "points": [hi, lo]}
    if kind == "center_sides":
        return {
            "kind": "center_sides",
            "center": [(a + b) / 2 for a, b in zip(lo, hi)],
            "sides": [b - a for a, b in zip(lo, hi)],
        }
    return {"kind": "vertices4", "vertices": [lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]]}


def _place(rng, taken, nx, ny, w, h, margin, border=1):
    """Reserve a free w x h block at least `margin` cells from taken ones."""
    for _ in range(60):
        i = int(rng.integers(border, nx - w - border + 1))
        j = int(rng.integers(border, ny - h - border + 1))
        if not taken[max(i - margin, 0) : i + w + margin, max(j - margin, 0) : j + h + margin].any():
            taken[i : i + w, j : j + h] = True
            return i, j
    return None


def generate_case(rng, case_id, system, slot) -> BenchCase:
    """One seeded reach-avoid environment on the slot's lattice, with three paraphrases.

    slot: shape (nx, ny, n_theta), inputs (kv, kw) giving (2kv+1)(2kw+1) inputs,
    targets, obstacles, and ranges eta, origin, vb, wb, with rho = v tau / eta.
    """
    nx, ny, nth = slot["shape"]
    eta = round(float(rng.uniform(*slot["eta"])), 3)
    ox, oy = (round(float(rng.uniform(*slot["origin"])), 1) for _ in range(2))
    vb = round(float(rng.uniform(*slot["vb"])), 2)
    wb = round(float(rng.uniform(*slot["wb"])), 2)
    kv, kw = slot["inputs"]
    corner = lambda i, j: (ox + i * eta, oy + j * eta)  # noqa: E731
    for _ in range(100):
        taken = np.zeros((nx, ny), dtype=bool)
        targets, target_cells = [], []
        for _t in range(slot["targets"]):
            size = (int(rng.integers(4, 6)), int(rng.integers(4, 6)))
            at = _place(rng, taken, nx, ny, *size, margin=2, border=slot.get("border", 3))
            if at is None:
                break
            targets.append((corner(*at), corner(at[0] + size[0], at[1] + size[1])))
            target_cells.append((at[0] + size[0] // 2, at[1] + size[1] // 2))
        start = _place(rng, taken, nx, ny, 1, 1, margin=3, border=2)
        if len(targets) < slot["targets"] or start is None:
            continue
        # keep the box between consecutive target centers free of obstacles,
        # so that each stage's goal can reach the next stage's target
        for a, b in zip(target_cells, target_cells[1:]):
            (i0, j0), (i1, j1) = np.minimum(a, b), np.maximum(a, b)
            taken[i0 : i1 + 1, j0 : j1 + 1] = True
        obstacles = []
        for _o in range(int(rng.integers(*slot["obstacles"]))):
            size = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            at = _place(rng, taken, nx, ny, *size, margin=2)
            if at is not None:
                obstacles.append((corner(*at), corner(at[0] + size[0], at[1] + size[1])))
        cx, cy = (np.array(corner(*start)) + eta / 2).tolist()
        shape_kind = int(rng.integers(3))
        if shape_kind == 0:
            initial = {"point": [cx, cy, round(float(rng.uniform(-3.0, 3.0)), 2)]}
        elif shape_kind == 1:
            initial = {"point": [cx, cy]}
        else:
            initial = {"rect": _encode(corner(*start), corner(start[0] + 1, start[1] + 1), "diagonal")}
        doc = {
            "system": system,
            "state_bounds": {"lower": [ox, oy, -math.pi], "upper": [ox + nx * eta, oy + ny * eta, math.pi]},
            "periodic": [False, False, True],
            "input_bounds": {"lower": [-vb, -wb], "upper": [vb, wb]},
            "eta_x": [eta, eta, 2 * math.pi / nth],
            "eta_u": [vb / kv, wb / kw],
            "tau": round(slot["rho"] * eta, 4),
            "obstacles": [_encode(a, b, ENCODINGS[int(rng.integers(3))]) for a, b in obstacles],
            "targets": [_encode(a, b, ENCODINGS[int(rng.integers(3))]) for a, b in targets],
            "initial": initial,
            "clearance": eta / 2 if rng.random() < slot.get("clearance_p", 0.3) else 0.0,
        }
        gt = canonicalize(parse_spec(json.dumps(doc)))
        if plan_waypoints(gt) is not None:
            return BenchCase(id=case_id, ground_truth=gt, paraphrases=_paraphrases(gt))
    raise ValueError(f"{case_id}: could not place a solvable environment")


def _box(r):
    return f"({r.lower[0]:.3f}, {r.lower[1]:.3f}) to ({r.upper[0]:.3f}, {r.upper[1]:.3f})"


def _paraphrases(gt):
    b = gt.state_bounds
    start = gt.initial_point[:2] if gt.initial_point is not None else gt.initial_rect.center[:2]
    obs = "; ".join(_box(r) for r in gt.obstacle_rects) or "none"
    goals = ", then ".join(_box(r) for r in gt.target_rects)
    area = f"({b.lower[0]:.3f}, {b.lower[1]:.3f}) to ({b.upper[0]:.3f}, {b.upper[1]:.3f})"
    return (
        f"The vehicle works in the area from {area}. Obstacles: {obs}. "
        f"Starting near ({start[0]:.3f}, {start[1]:.3f}), visit {goals}.",
        f"Drive from ({start[0]:.3f}, {start[1]:.3f}) through {goals} inside {area}, "
        f"keeping {gt.clearance:g} clear of these blocks: {obs}.",
        f"Workspace {area}; blocked boxes {obs}; goals in order {goals}; "
        f"start ({start[0]:.3f}, {start[1]:.3f}); clearance {gt.clearance:g}.",
    )
