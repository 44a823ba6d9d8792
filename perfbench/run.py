"""Benchmark of the NL -> spec -> certified-controller chain.

    python3 perfbench/run.py --workload fixture_suite --seed 1 --seconds 5 --trace 0

Run from the repository root.  Set-up builds the workload's inputs from the
seed; then whole rounds of the chain run until --seconds have passed (at least
one round).  Every output is checked (see checks.py).  The last line of
standard output is one JSON object: correct, attempted, failed and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).  Details
go to perfbench/out/.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import warnings  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gridsynth  # noqa: E402

if Path(gridsynth.__file__).resolve().parent != ROOT / "src" / "gridsynth":
    sys.exit(f"gridsynth was imported from {gridsynth.__file__}, not from this checkout")

from gridsynth import agents, bench, dynamics, pipeline, simulator, synthesis  # noqa: E402
from gridsynth.abstraction import build_input_grid  # noqa: E402
from gridsynth.specformat import canonicalize  # noqa: E402

import casegen  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
OUT_DIR = HERE / "out"
MB = 1e6

# A spec whose initial set is not winning is a valid input; the solver's
# warning about it is not a benchmark event.
warnings.filterwarnings("ignore", message=".*EmptyWinningSet.*")


class Meter:
    """What the untimed checks found and what the timed operations cost."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.synth = {}  # case id -> [seconds per round]
        self.pass_rates = []  # paraphrases per second of each harness pass
        self.load_log = []  # (table, seconds, MB) of each load
        self.loop_log = []  # (steps, seconds) of each piece of closed loops
        self.paraphrases = 0

    def check(self, fn, *args):
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.problems.append(f"{fn.__name__}: {exc}")


def _span(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


def run_pass(state, meter, tracer):
    """One harness pass under all three strategies, checked against the script.

    Returns the accepted correct spec of each synthesized case.
    """
    accepted = {}
    rows = 0
    elapsed = 0.0
    for strategy in bench.STRATEGIES:
        client = agents.MockClient(responses=state.script.responses[strategy])
        with _span(tracer, "bench.run_benchmark"):
            t0 = time.perf_counter()
            report = bench.run_benchmark(state.cases, strategy, client)
            elapsed += time.perf_counter() - t0
        rows += len(report.rows)
        for case_id, para, category, false_block in report.rows:
            want = state.script.expected[(strategy, case_id, para)]
            if (category, false_block) == want:
                continue
            if (
                strategy == bench.DIRECT_LLM
                and (case_id, para) in casegen.SKIP_PLANS
                and category == bench.CORRECT_NOT_CHECKED
            ):
                meter.failed += 1  # obstacle between waypoints, scored correct
                continue
            meter.problems.append(
                f"{strategy} {case_id}/{para}: got {category, false_block}, expected {want}"
            )
        if strategy == bench.FULL_PIPELINE:
            for (case_id, para), tr in sorted(report.transcripts.items()):
                if case_id in state.synth_ids and isinstance(tr.outcome, agents.AcceptedSpec):
                    if state.script.expected[(strategy, case_id, para)][0] == bench.CORRECT_CHECKED:
                        accepted.setdefault(case_id, tr.outcome.spec)
        if tracer:
            tracer.count["agents.llm_calls"] += len(client.prompts)
            tracer.count["bench.paraphrases"] += len(report.rows)
            for tr in report.transcripts.values():
                if strategy == bench.FULL_PIPELINE:
                    tracer.count["agents.iterations"] += len(tr.iterations)
                    tracer.count["agents.accepted"] += isinstance(tr.outcome, agents.AcceptedSpec)
                elif strategy == bench.CODE_AGENT_ONLY:
                    tracer.count["agents.iterations"] += 1
    meter.paraphrases += rows
    meter.attempted += rows
    meter.pass_rates.append(rows / elapsed)
    return accepted


def synthesize(state, meter, tracer, case_id, spec, seed):
    """Synthesize and export one accepted spec, check it, and load it once.

    Returns the table and its loaded (controller, grid).
    """
    if tracer:
        tracemalloc.start()  # the build and solve spans read its peak
    t0 = time.perf_counter()
    res = pipeline.synthesize(spec)
    if tracer:
        tracemalloc.stop()
    with _span(tracer, "synthesis.export"):
        text = synthesis.export_controller(res.controller, res.grid)
    meter.synth.setdefault(case_id, []).append(time.perf_counter() - t0)
    meter.attempted += 1
    if tracer:
        tracer.count["synthesis.table_bytes"] += len(text)
        tracer.note_peak("abstraction.index_mb", tracing.index_bytes(tracer, res.fts))
    meter.check(checks.check_fixed_point, res)
    rng = np.random.default_rng([seed, state.synth_ids.index(case_id)])
    eval_fn = next(f.eval_fn for f in state.fields if f.name == res.spec.system_name)
    meter.check(checks.check_sampled_soundness, res, eval_fn, rng)
    table = workloads.Table(case_id, res.spec, text)
    loaded = load_table(table, meter, tracer)
    meter.check(checks.check_round_trip, res.controller, *loaded, res.grid)
    return table, loaded


def load_table(table, meter, tracer):
    with _span(tracer, "synthesis.load"):
        t0 = time.perf_counter()
        loaded = synthesis.load_controller(table.text)
        dt = time.perf_counter() - t0
    meter.load_log.append((table.name, dt, len(table.text) / MB))
    meter.attempted += 1
    return loaded


def loop_starts(state, loaded, seed, k):
    """Seeded closed-loop starts in the stage-0 winning set, and a step limit
    that covers the worst-case value of every stage."""
    ctrl, grid = loaded
    winning = np.flatnonzero(ctrl.stages[0].winning)
    if winning.size == 0:
        return np.zeros((0, grid.n)), 0
    rng = np.random.default_rng([seed, 1000 + k])
    cells = rng.choice(winning, size=state.loops)
    multi = checks.multi_index(cells, grid.shape)
    starts = grid.bounds.lower + (multi + rng.uniform(0.05, 0.95, multi.shape)) * grid.eta
    return starts, sum(int(p.value.max()) for p in ctrl.stages) + 2


def run_loops(meter, tracer, table, loaded, starts, max_steps):
    """Closed loops with re-certification, each checked on its segments."""
    ctrl, grid = loaded
    spec = table.spec
    f = dynamics.get_field(spec.system_name)
    steps, elapsed = 0, 0.0
    for x0 in starts:
        t0 = time.perf_counter()
        with _span(tracer, "simulator.sim"):
            traj = simulator.simulate_closed_loop(
                f, synthesis.ConcreteController(ctrl, grid), x0, spec.tau, max_steps
            )
        with _span(tracer, "simulator.check"):
            verdict = simulator.check_reach_avoid(traj, spec)
        elapsed += time.perf_counter() - t0
        steps += len(traj.samples) - 1
        meter.attempted += 1
        if tracer:
            tracer.count["simulator.steps"] += len(traj.samples) - 1
            tracer.count["simulator.checked_samples"] += len(traj.fine_states)
        meter.check(checks.check_closed_loop, traj, verdict, spec)
    meter.loop_log.append((steps, elapsed))


def run_round(state, meter, tracer, seed):
    """One round of the chain; returns the accepted specs.

    After each table step (a set-up table, or the synthesis of an accepted
    spec) the table's loads and closed loops are cut into pieces with a
    harness pass before each.  On a shared machine the speed drifts over
    seconds, and this way every metric samples the whole round.
    """
    accepted = run_pass(state, meter, tracer)
    for k, step in enumerate(state.tables + state.synth_ids):
        if isinstance(step, workloads.Table):
            table, loaded = step, load_table(step, meter, tracer)
        elif step in accepted:
            table, loaded = synthesize(state, meter, tracer, step, accepted[step], seed)
        else:
            meter.problems.append(f"{step}: no accepted correct spec to synthesize")
            continue
        starts, max_steps = loop_starts(state, loaded, seed, k)
        if len(starts) == 0:
            meter.problems.append(f"{table.name}: empty winning set, no closed loop possible")
        pieces = state.passes_per_step
        loads = np.array_split(np.arange(state.loads - 1), pieces)
        for n_loads, part in zip(map(len, loads), np.array_split(starts, pieces)):
            run_pass(state, meter, tracer)
            for _ in range(n_loads):
                load_table(table, meter, tracer)
            run_loops(meter, tracer, table, loaded, part, max_steps)
    return accepted


def memory_pass(state, accepted):
    """tracemalloc peak of synthesizing the workload's largest accepted spec."""

    def size(spec):
        spec = canonicalize(spec)
        return spec.build_grid().num_cells * len(build_input_grid(spec.input_bounds, spec.eta_u))

    spec = max((accepted[c] for c in state.synth_ids if c in accepted), key=size)
    tracemalloc.start()
    res = pipeline.synthesize(spec)
    synthesis.export_controller(res.controller, res.grid)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / MB


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup = workloads.WORKLOADS[args.workload]
    imports_s = time.perf_counter() - T_START
    reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = setup(args.seed)
        reps.append(time.perf_counter() - t0)
    setup_s = imports_s + statistics.median(reps)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer, state.fields)
    meter = Meter()
    rounds = 0
    start = time.perf_counter()
    try:
        while True:
            accepted = run_round(state, meter, tracer, args.seed)
            rounds += 1
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        if tracer:
            tracer.restore()
    measured_s = time.perf_counter() - start

    per_spec = [t for ts in meter.synth.values() for t in ts]
    steps = sum(n for n, _ in meter.loop_log)
    if tracer:
        metrics = tracing.per_layer_metrics(tracer, rounds)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "synth_wall_s": (sum(statistics.median(ts) for ts in meter.synth.values()), "s"),
            "synth_s_p50": (statistics.median(per_spec), "s"),
            "peak_mem_mb": (memory_pass(state, accepted), "MB"),
            "table_load_s_per_mb": (
                sum(dt for _, dt, _ in meter.load_log) / sum(mb for _, _, mb in meter.load_log),
                "s/MB",
            ),
            "sim_steps_per_s": (steps / sum(dt for _, dt in meter.loop_log), "1/s"),
            "paraphrases_per_s": (statistics.median(meter.pass_rates), "1/s"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "measured_s": measured_s,
        "setup_reps_s": reps,
        "imports_s": imports_s,
        "synth_s": meter.synth,
        "synth_samples": len(per_spec),
        "closed_loop_steps": steps,
        "paraphrases": meter.paraphrases,
        "pass_rates": meter.pass_rates,
        "load_log": meter.load_log,
        "loop_log": meter.loop_log,
        "problems": meter.problems,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer:
        (OUT_DIR / f"{stem}.spans.json").write_text(json.dumps(tracer.spans))
    for p in meter.problems[:20]:
        print("CHECK FAILED:", p, file=sys.stderr)
    print(
        f"{args.workload}: {rounds} round(s) in {measured_s:.1f} s; "
        f"synth_s_p50 over {len(per_spec)} spec syntheses; {steps} closed-loop steps; "
        f"{meter.paraphrases} paraphrases"
    )
    result = {
        "correct": not meter.problems,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
