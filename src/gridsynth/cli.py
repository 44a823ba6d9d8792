"""Command-line surface.

Exit codes: 0 success, 1 specification/verification failure, 2 usage error,
3 external-service (LLM client) error.  Human-readable summaries go to
stderr; machine artifacts go to files or stdout only.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import bench
from .agents import (
    AcceptedSpec,
    BlockedWithFeedback,
    HttpClient,
    MockClient,
    ParseFailure,
    pipeline_run,
)
from .dynamics import get_field
from .errors import ClientError, GridSynthError
from .geometry import HyperRect
from .pipeline import synthesize
from .simulator import (
    check_reach_avoid,
    render_svg,
    simulate_closed_loop,
    trajectory_to_csv,
)
from .specformat import canonicalize, parse_spec, serialize_spec
from .synthesis import export_controller, load_controller, ConcreteController

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_SERVICE = 3


def _read_spec(path: str):
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"spec file not found: {path}")
    return canonicalize(parse_spec(p.read_text(encoding="utf-8")))


class UsageError(Exception):
    pass


def cmd_synth(args) -> int:
    spec = _read_spec(args.spec)
    result = synthesize(spec)
    Path(args.output).write_text(
        export_controller(result.controller, result.grid), encoding="utf-8"
    )
    pol = result.controller.stages[0]
    print(
        f"abstract states: {result.grid.num_cells}\n"
        f"inputs: {result.inputs.shape[0]}\n"
        f"transitions: {result.fts.num_transitions}\n"
        f"winning fraction (stage 0): {result.winning_fraction:.4f}\n"
        f"abstraction build: {result.build_seconds:.2f}s, solve: "
        f"{result.solve_seconds:.2f}s",
        file=sys.stderr,
    )
    if args.svg:
        # shade each position-plane (x, y) column holding a winning cell once
        grid = result.grid
        multi = np.unravel_index(np.flatnonzero(pol.winning), grid.shape)
        columns = np.unique(np.stack(multi[:2], axis=-1), axis=0)
        centers = grid.bounds.lower[:2] + (columns + 0.5) * grid.eta[:2]
        half = grid.eta[:2] / 2.0
        winning_rects = [HyperRect(c - half, c + half) for c in centers]
        Path(args.svg).write_text(render_svg(spec, winning_rects=winning_rects))
    if not result.initial_winning:
        print("initial cells are not all winning", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = _read_spec(args.spec)
    ctrl_path = Path(args.controller)
    if not ctrl_path.is_file():
        raise UsageError(f"controller file not found: {args.controller}")
    controller, grid = load_controller(ctrl_path.read_text(encoding="utf-8"))
    field = get_field(spec.system_name)

    if args.x0:
        x0 = np.array([float(v) for v in args.x0.split(",")])
    elif spec.initial_point is not None:
        x0 = np.array(spec.initial_point, dtype=float)
        if x0.size < grid.n:
            x0 = np.concatenate([x0, grid.bounds.center[x0.size :]])
    else:
        x0 = spec.initial_rect.center
        if x0.size < grid.n:
            x0 = np.concatenate([x0, grid.bounds.center[x0.size :]])

    traj = simulate_closed_loop(
        field, ConcreteController(controller, grid), x0, spec.tau, args.steps
    )
    csv_text = trajectory_to_csv(traj)
    if args.output:
        Path(args.output).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.svg:
        Path(args.svg).write_text(render_svg(spec, traj=traj))
    verdict = check_reach_avoid(traj, spec)
    print(
        f"termination: {traj.termination.kind} at t={traj.termination.time}\n"
        f"reach-avoid satisfied: {verdict.satisfied}",
        file=sys.stderr,
    )
    return EXIT_OK if verdict.satisfied else EXIT_FAILURE


def _make_client(args):
    if args.mock:
        if not Path(args.mock).is_file():
            raise UsageError(f"mock script not found: {args.mock}")
        return MockClient.from_script(args.mock)
    if args.base_url and args.model:
        try:
            return HttpClient(base_url=args.base_url, model=args.model)
        except ClientError as exc:
            raise UsageError(str(exc)) from None
    raise UsageError("configure a client: --mock SCRIPT or --base-url/--model")


def cmd_nl2spec(args) -> int:
    if args.nl == "-":
        nl = sys.stdin.read()
    else:
        p = Path(args.nl)
        if not p.is_file():
            raise UsageError(f"NL file not found: {args.nl}")
        nl = p.read_text(encoding="utf-8")
    client = _make_client(args)
    transcript = pipeline_run(client, nl.strip(), k_max=args.k_max)
    outcome = transcript.outcome
    if isinstance(outcome, AcceptedSpec):
        text = serialize_spec(outcome.spec)
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text + "\n")
        print(f"accepted after {len(transcript.iterations)} iteration(s)", file=sys.stderr)
        return EXIT_OK
    if isinstance(outcome, BlockedWithFeedback):
        print(outcome.feedback, file=sys.stderr)
    elif isinstance(outcome, ParseFailure):
        print(f"specification did not parse: {outcome.error}", file=sys.stderr)
    return EXIT_FAILURE


def cmd_eval(args) -> int:
    cases_dir = Path(args.cases) if args.cases else bench.fixtures_dir()
    if not cases_dir.is_dir():
        raise UsageError(f"cases directory not found: {cases_dir}")
    if args.strategy not in bench.STRATEGIES:
        raise UsageError(f"strategy must be one of {bench.STRATEGIES}")
    client = _make_client(args)
    cases = bench.load_cases(cases_dir)
    report = bench.run_benchmark(cases, args.strategy, client, k_max=args.k_max)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.csv").write_text(report.to_csv())
    (outdir / "summary.txt").write_text(report.summary_text())
    print(report.summary_text(), file=sys.stderr, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridsynth",
        description="Reach-avoid controller synthesis on uniform grid abstractions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a controller from a spec file")
    p.add_argument("spec")
    p.add_argument("-o", "--output", required=True, help="controller table output")
    p.add_argument("--svg", help="write an environment/winning-set picture")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="closed-loop simulation of a controller")
    p.add_argument("spec")
    p.add_argument("controller")
    p.add_argument("--x0", help="comma-separated initial state")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("-o", "--output", help="trajectory CSV (stdout when omitted)")
    p.add_argument("--svg", help="write a trajectory picture")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("nl2spec", help="natural language to spec via the agent pipeline")
    p.add_argument("--nl", required=True, help="NL description file, or - for stdin")
    p.add_argument("--mock", help="mock script file (deterministic replay)")
    p.add_argument("--base-url", help="remote chat-completion endpoint")
    p.add_argument("--model", help="remote model name")
    p.add_argument("--k-max", type=int, default=2)
    p.add_argument("-o", "--output", help="accepted spec output file")
    p.add_argument("--log-raw", action="store_true")
    p.set_defaults(func=cmd_nl2spec)

    p = sub.add_parser("eval", help="run the benchmark harness")
    p.add_argument("--cases", help="cases directory (shipped fixtures by default)")
    p.add_argument("--strategy", required=True, choices=bench.STRATEGIES)
    p.add_argument("--mock", help="mock script file")
    p.add_argument("--base-url")
    p.add_argument("--model")
    p.add_argument("--k-max", type=int, default=2)
    p.add_argument("-o", "--output", required=True, help="report output directory")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ClientError as exc:
        print(f"client error: {exc}", file=sys.stderr)
        return EXIT_SERVICE
    except GridSynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
