import json
import math

import numpy as np
import pytest

import gridsynth as gs
from gridsynth.bench import fixtures_dir
from gridsynth.pipeline import synthesize

PI = math.pi


def bicycle_spec_doc(**overrides):
    """Desk-scale bicycle reach-avoid problem used throughout the suite."""
    doc = {
        "system": "bicycle",
        "state_bounds": {"lower": [0.0, 0.0, -PI], "upper": [4.0, 4.0, PI]},
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
    doc.update(overrides)
    return doc


def bicycle_spec_text(**overrides):
    return json.dumps(bicycle_spec_doc(**overrides))


@pytest.fixture(scope="session")
def bicycle_spec():
    return gs.canonicalize(gs.parse_spec(bicycle_spec_text()))


@pytest.fixture(scope="session")
def bicycle_result(bicycle_spec):
    """Full abstraction + synthesis on the desk-scale fixture (built once)."""
    return synthesize(bicycle_spec)


def case01_spec():
    doc = (fixtures_dir() / "case01_warehouse_crate" / "spec.json").read_text()
    return gs.canonicalize(gs.parse_spec(doc))


def fenced(text):
    return f"```json\n{text}\n```"


def correct_response(spec):
    """A Code Agent response carrying the ground-truth spec verbatim."""
    return fenced(gs.serialize_spec(spec))


def perturbed_response(spec):
    """A parseable but semantically wrong spec (first obstacle shifted,
    or a shrunk target when there is no obstacle)."""
    doc = json.loads(gs.serialize_spec(spec))
    if doc["obstacles"]:
        ob = doc["obstacles"][0]
        if ob["kind"] == "diagonal":
            ob["points"][0][0] += 0.5
            ob["points"][1][0] += 0.5
        elif ob["kind"] == "center_sides":
            ob["center"][0] += 0.5
        else:
            ob["vertices"] = [[v[0] + 0.5, v[1]] for v in ob["vertices"]]
    else:
        t = doc["targets"][0]
        t["points"][0][0] += 0.1
    return fenced(json.dumps(doc))


def make_random_fts(rng, max_states=200, max_inputs=5):
    """Random sparse FTS for solver oracle comparisons."""
    S = int(rng.integers(5, max_states + 1))
    U = int(rng.integers(1, max_inputs + 1))
    density = rng.uniform(0.1, 0.5)
    indptr = [0]
    succ = []
    blocked = []
    for u in range(U):
        for s in range(S):
            if rng.random() < 0.05:
                blocked.append(True)
                indptr.append(len(succ))
                continue
            blocked.append(False)
            k = rng.binomial(max(1, int(density * 10)), 0.5)
            if k == 0:
                indptr.append(len(succ))
                continue
            nxt = np.unique(rng.integers(0, S, size=k))
            succ.extend(int(v) for v in nxt)
            indptr.append(len(succ))
    return gs.FiniteTransitionSystem(
        num_states=S,
        num_inputs=U,
        indptr=np.array(indptr, dtype=np.int64),
        succ=np.array(succ, dtype=np.int64),
        blocked=np.array(blocked, dtype=bool),
    )


def brute_force_reach_avoid(fts, obstacle_set, target_set):
    """Reference game solver: repeated predecessor sweeps until stable."""
    S, U = fts.num_states, fts.num_inputs
    winning = set(t for t in target_set if t not in obstacle_set)
    value = {s: 0 for s in winning}
    level = 0
    while True:
        level += 1
        added = set()
        for s in range(S):
            if s in winning or s in obstacle_set or s in target_set:
                continue
            for u in range(U):
                d = fts.delta(s, u)
                if d.size and all(int(x) in winning for x in d):
                    added.add(s)
                    break
        if not added:
            break
        for s in added:
            winning.add(s)
            value[s] = level
    return winning, value


def _edit_line(text, lineno, edit):
    lines = text.splitlines()
    lines[lineno - 1] = edit(lines[lineno - 1].split(), lines[lineno - 2].split())
    return "\n".join(lines) + "\n"


# Damaged controller tables: id -> (line the damage is on, edit of that line's
# and the line before's whitespace-split fields).  Line 9 is the first row
# after the 8 header lines.
MALFORMED_TABLE_EDITS = {
    "cell-too-large": (9, lambda p, _: " ".join(["999999"] + p[1:])),
    "cell-negative": (9, lambda p, _: " ".join(["-5"] + p[1:])),
    "stage-out-of-range": (9, lambda p, _: " ".join(p[:1] + ["7"] + p[2:])),
    "value-not-integer": (9, lambda p, _: " ".join(p[:2] + ["x"] + p[3:])),
    "short-row": (9, lambda p, _: " ".join(p[:-1])),
    "input-not-finite": (9, lambda p, _: " ".join(p[:-1] + ["nan"])),
    "eta-not-a-number": (4, lambda p, _: "# eta: abc"),
    # the second row names the first row's (cell, stage) again
    "repeated-cell-stage": (10, lambda p, prev: " ".join(prev[:2] + p[2:])),
}


def malformed_table(text, case):
    """(line number, damaged copy of the exported table text) for one case."""
    lineno, edit = MALFORMED_TABLE_EDITS[case]
    return lineno, _edit_line(text, lineno, edit)
