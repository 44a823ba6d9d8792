"""Acceptance gate: the eight headline guarantees, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest

import gridsynth as gs
from gridsynth.agents import (
    AcceptedSpec,
    BlockedWithFeedback,
    MockClient,
    pipeline_run,
    write_script,
)
from gridsynth.bench import (
    CODE_AGENT_ONLY,
    CORRECT_CATEGORIES,
    DIRECT_LLM,
    FULL_PIPELINE,
    fixtures_dir,
    load_cases,
    run_benchmark,
)
from gridsynth.cli import main as cli_main
from gridsynth.dynamics import BICYCLE
from gridsynth.simulator import Trajectory, check_reach_avoid, render_svg
from gridsynth.synthesis import solve_sequential

from conftest import (
    bicycle_spec_text,
    brute_force_reach_avoid,
    correct_response,
    fenced,
    make_random_fts,
    perturbed_response,
)
import test_geometry


def report(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


# --- 1: correct-by-construction certification -----------------------------------------


def test_criterion_1_closed_loop_certification(bicycle_spec, bicycle_result):
    runtime = bicycle_result.build_seconds + bicycle_result.solve_seconds
    ctrl = bicycle_result.controller
    grid = bicycle_result.grid
    winning = np.flatnonzero(ctrl.winning)
    rng = np.random.default_rng(2024)
    cells = rng.choice(winning, size=100, replace=False)
    satisfied = 0
    contacts = 0
    for cell in cells:
        cc = bicycle_result.concrete_controller()
        traj = gs.simulate_closed_loop(
            BICYCLE, cc, grid.center_of(int(cell)), bicycle_spec.tau, max_steps=300
        )
        verdict = check_reach_avoid(traj, bicycle_spec)
        satisfied += verdict.satisfied
        contacts += verdict.first_violation is not None
    report(
        1,
        satisfied == 100 and contacts == 0 and runtime < 300.0,
        f"closed-loop runs satisfied {satisfied}/100, obstacle contacts "
        f"{contacts}, synthesis {runtime:.1f}s (< 300s)",
    )


# --- 2: game-solver oracle equivalence ------------------------------------------------


def test_criterion_2_solver_oracle_equivalence():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        fts = make_random_fts(rng)
        S = fts.num_states
        obstacle = set(rng.choice(S, size=max(1, S // 10), replace=False).tolist())
        target = (
            set(rng.choice(S, size=max(1, S // 8), replace=False).tolist()) - obstacle
        )
        if not target:
            target = {next(iter(set(range(S)) - obstacle))}
        labels = gs.LabeledCells(
            obstacle_cells=frozenset(obstacle),
            target_stages=(frozenset(target),),
            initial_cells=frozenset(),
        )
        ctrl = solve_sequential(fts, labels)
        win_ref, val_ref = brute_force_reach_avoid(fts, obstacle, target)
        if set(np.flatnonzero(ctrl.winning).tolist()) != win_ref:
            mismatches += 1
            continue
        if any(ctrl.value[s] != val_ref[s] for s in win_ref):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(
        2,
        mismatches == 0 and elapsed < 10.0,
        f"100 random FTSs, {mismatches} mismatches vs brute force, "
        f"{elapsed:.2f}s (< 10s)",
    )


# --- 3: abstraction soundness sampling ------------------------------------------------


def test_criterion_3_abstraction_soundness(bicycle_spec, bicycle_result):
    fts = bicycle_result.fts
    grid = bicycle_result.grid
    inputs = bicycle_result.inputs
    rng = np.random.default_rng(99)
    misses = 0
    checked = 0
    while checked < 100:
        s = int(rng.integers(0, fts.num_states))
        u = int(rng.integers(0, fts.num_inputs))
        if fts.is_blocked(s, u):
            continue
        checked += 1
        succ = set(fts.delta(s, u).tolist())
        center = grid.center_of(s)
        pts = rng.uniform(center - grid.eta / 2, center + grid.eta / 2,
                          size=(1000, 3))
        ends = gs.integrate(BICYCLE, pts, inputs[u], bicycle_spec.tau,
                            substeps=5)
        landed = grid.cells_of(grid.wrap(ends))
        misses += int(np.sum(~np.isin(landed, list(succ))))
    report(
        3,
        misses == 0,
        f"100 (cell, input) pairs x 10^3 sampled successors, {misses} outside delta",
    )


# --- 4: quantization properties -------------------------------------------------------


def test_criterion_4_quantization_invariants():
    test_geometry.test_quantization_soundness_bulk()
    test_geometry.test_partition_no_overlap_no_gap()
    test_geometry.test_encoding_invariance_random()
    test_geometry.test_periodic_wrap_invariance()
    report(
        4,
        True,
        "soundness / partition / encoding invariance / periodic wrap, "
        "10^4 draws each",
    )


# --- 5: pipeline control flow ---------------------------------------------------------


def test_criterion_5_pipeline_scenarios(bicycle_spec):
    nl = "Reach the pad at the top right; keep clear of the crate."
    good = correct_response(bicycle_spec)
    bad = perturbed_response(bicycle_spec)

    a = pipeline_run(MockClient([good, "True"]), nl)
    accept_1 = isinstance(a.outcome, AcceptedSpec) and len(a.iterations) == 1

    fb = "the obstacle x-range is shifted by 0.5"
    b = pipeline_run(MockClient([bad, fb, good, "True"]), nl)
    accept_2 = (
        isinstance(b.outcome, AcceptedSpec)
        and len(b.iterations) == 2
        and fb in b.iterations[1].code_agent_prompt
    )

    fb2 = "the target is still wrong"
    c = pipeline_run(MockClient([bad, "wrong target", bad, fb2]), nl)
    block_2 = (
        isinstance(c.outcome, BlockedWithFeedback)
        and c.outcome.feedback == fb2
        and len(c.iterations) == 2
    )
    report(
        5,
        accept_1 and accept_2 and block_2,
        f"accept@1 {accept_1}, accept@2 with feedback forwarded {accept_2}, "
        f"block@2 {block_2}",
    )


# --- 6: harness arithmetic ------------------------------------------------------------


def _case_start(gt):
    if gt.initial_point is not None:
        return np.asarray(gt.initial_point[:2], dtype=float)
    r = gt.initial_rect
    return (r.lower[:2] + r.upper[:2]) / 2


def _dense(points, per_segment=200):
    pts = np.asarray(points, dtype=float)
    out = [pts[0]]
    for a, b in zip(pts, pts[1:]):
        for k in range(1, per_segment + 1):
            out.append(a + (b - a) * k / per_segment)
    states = np.array(out)
    times = np.arange(len(states), dtype=float) * 0.01
    return times, states


def _direct_route(gt):
    """A densely sampled waypoint plan satisfying gt, or None."""
    start = _case_start(gt)
    centers = [(t.lower + t.upper) / 2 for t in gt.target_rects]
    options = []
    for mask in range(2 ** len(centers)):
        pts = [start]
        for i, c in enumerate(centers):
            prev = pts[-1]
            corner = (
                np.array([c[0], prev[1]]) if (mask >> i) & 1
                else np.array([prev[0], c[1]])
            )
            pts += [corner, c]
        options.append(pts)
    for pts in options:
        times, states = _dense(pts)
        traj = Trajectory.from_waypoints(times, states)
        if check_reach_avoid(traj, gt).satisfied:
            return times, states
    return None


def _direct_response(route):
    times, states = route
    rows = [[float(t), float(x), float(y)] for t, (x, y) in zip(times, states)]
    return fenced(json.dumps({"trajectory": rows}))


def _stationary_response(gt):
    s = _case_start(gt)
    rows = [[0.0, float(s[0]), float(s[1])],
            [1.0, float(s[0]) + 0.01, float(s[1])]]
    return fenced(json.dumps({"trajectory": rows}))


def _run_strategy(cases, strategy, hits_by_case):
    responses = []
    for case in cases:
        hits = hits_by_case.get(case.id, 0)
        for p in range(3):
            correct = p < hits
            if strategy == DIRECT_LLM:
                if correct:
                    responses.append(_direct_response(_direct_route(case.ground_truth)))
                else:
                    responses.append(_stationary_response(case.ground_truth))
            elif strategy == CODE_AGENT_ONLY:
                responses.append(
                    correct_response(case.ground_truth) if correct
                    else perturbed_response(case.ground_truth)
                )
            else:
                if correct:
                    responses += [correct_response(case.ground_truth), "True"]
                else:
                    bad = perturbed_response(case.ground_truth)
                    responses += [bad, "the geometry is wrong", bad,
                                  "the geometry is still wrong"]
    return run_benchmark(cases, strategy, MockClient(responses))


def _assign_hits(case_ids, pattern):
    return dict(zip(case_ids, pattern))


def test_criterion_6_harness_arithmetic():
    cases = sorted(load_cases(fixtures_dir()), key=lambda c: c.id)
    assert len(cases) == 20
    ids = [c.id for c in cases]

    # direct LLM: 7 correct over 4 solved cases, none robust
    routable = [c.id for c in cases if _direct_route(c.ground_truth) is not None]
    assert len(routable) >= 4, "need at least 4 plannable fixtures"
    direct_hits = _assign_hits(routable[:4], [2, 2, 2, 1])

    # code agent only: 34 correct; 9 robust, 5 partially solved (2+2+1+1+1)
    code_hits = _assign_hits(ids, [3] * 9 + [2, 2, 1, 1, 1] + [0] * 6)

    # full pipeline: 39 correct; 10 robust, 6 partially solved (2+2+2+1+1+1)
    pipe_hits = _assign_hits(ids, [3] * 10 + [2, 2, 2, 1, 1, 1] + [0] * 4)

    expected = {
        DIRECT_LLM: (direct_hits, 7, {"robust": 0, "solved": 4, "incorrect": 16}),
        CODE_AGENT_ONLY: (code_hits, 34, {"robust": 9, "solved": 14, "incorrect": 6}),
        FULL_PIPELINE: (pipe_hits, 39, {"robust": 10, "solved": 16, "incorrect": 4}),
    }
    ok = True
    got = {}
    for strategy, (hits, n_correct, verdicts) in expected.items():
        rep = _run_strategy(cases, strategy, hits)
        counts = rep.category_counts
        correct = sum(counts[c] for c in CORRECT_CATEGORIES)
        got[strategy] = (correct, rep.verdict_counts)
        ok = ok and correct == n_correct and rep.verdict_counts == verdicts
    report(
        6,
        ok,
        "correct 7/34/39 of 60 and robust/solved 0/4, 9/14, 10/16 -> "
        + "; ".join(
            f"{s}: {c} correct, {v}" for s, (c, v) in got.items()
        ),
    )


# --- 7: dynamics unit oracle ----------------------------------------------------------


def test_criterion_7_dynamics_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform([-3, -3, -math.pi], [3, 3, math.pi])
        u = rng.uniform([-1, -1], [1, 1])
        a = mp.atan(mp.tan(mp.mpf(u[1])) / 2)
        ref = np.array([
            float(mp.mpf(u[0]) * mp.cos(a + mp.mpf(x[2])) / mp.cos(a)),
            float(mp.mpf(u[0]) * mp.sin(a + mp.mpf(x[2])) / mp.cos(a)),
            float(mp.mpf(u[0]) * mp.tan(mp.mpf(u[1]))),
        ])
        f = gs.bicycle_f(x, u)
        scale = np.maximum(np.abs(ref), 1.0)
        worst = max(worst, float(np.max(np.abs(f - ref) / scale)))
    # alpha identity at x3 = 0: f2 = tan(u2)/2 * f1 (both over cos(alpha))
    identity_ok = True
    for _ in range(100):
        u = rng.uniform([-1, -1], [1, 1])
        f = gs.bicycle_f([0.0, 0.0, 0.0], u)
        if abs(f[1] - math.tan(u[1]) / 2 * f[0] / math.cos(0.0)) > 1e-12:
            identity_ok = False
    report(
        7,
        worst < 1e-12 and identity_ok,
        f"10^3 draws vs 50-digit oracle, worst rel err {worst:.2e} (< 1e-12), "
        f"alpha identity at x3=0 {identity_ok}",
    )


# --- 8: determinism -------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path, bicycle_spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(bicycle_spec_text())

    synth_outs = []
    for name in ("c1.txt", "c2.txt"):
        out = tmp_path / name
        assert cli_main(["synth", str(spec_path), "-o", str(out)]) == 0
        synth_outs.append(out.read_bytes())
    synth_ok = synth_outs[0] == synth_outs[1]

    cases = load_cases(fixtures_dir())[:3]
    case_dir = tmp_path / "cases"
    for c in cases:
        d = case_dir / c.id
        d.mkdir(parents=True)
        (d / "spec.json").write_text(gs.serialize_spec(c.ground_truth))
        for i, p in enumerate(c.paraphrases, start=1):
            (d / f"paraphrase_{i}.txt").write_text(p)
    responses = []
    for c in cases:
        for _ in range(3):
            responses += [correct_response(c.ground_truth), "True"]
    script = tmp_path / "script.txt"
    write_script(responses, script)
    eval_outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["eval", "--strategy", "full_pipeline",
                         "--cases", str(case_dir),
                         "--mock", str(script), "-o", str(out)]) == 0
        eval_outs.append((out / "report.csv").read_bytes()
                         + (out / "summary.txt").read_bytes())
    eval_ok = eval_outs[0] == eval_outs[1]

    times, states = _dense([[0.5, 0.5], [3.4, 0.5], [3.4, 3.4]], per_segment=20)
    states3 = np.hstack([states, np.zeros((len(states), 1))])
    traj = Trajectory.from_waypoints(times, states3)
    svg_ok = render_svg(bicycle_spec, traj) == render_svg(bicycle_spec, traj)

    report(
        8,
        synth_ok and eval_ok and svg_ok,
        f"byte-identical outputs: synth {synth_ok}, eval {eval_ok}, svg {svg_ok}",
    )
