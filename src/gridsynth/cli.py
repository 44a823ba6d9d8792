"""Command-line surface.

Exit codes: 0 success, 1 specification/verification failure, 2 usage error,
3 external-service (LLM client) error.  Human-readable summaries go to
stderr, each warning as one 'warning: <message>' line; machine artifacts go
to files or stdout only.
"""

from __future__ import annotations

import argparse
import io
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
from .pipeline import synthesize
from .simulator import (
    check_reach_avoid,
    render_svg,
    simulate_closed_loop,
    trajectory_to_csv,
    winning_columns,
)
from .specformat import parse_spec, serialize_spec
from .synthesis import export_controller, load_controller, ConcreteController

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_SERVICE = 3


class UsageError(Exception):
    pass


def _read_text(path: str, what: str) -> str:
    """Contents of a UTF-8 text file; UsageError naming the path otherwise."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc.strerror}") from None
    return _decode(data, f"{what} {path}")


def _decode(data: bytes, source: str) -> str:
    """Strict UTF-8 text of data, newlines translated as a text-mode read does."""
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{source} is not UTF-8 text: {exc.reason}") from None


def cmd_synth(args) -> int:
    spec = parse_spec(_read_text(args.spec, "spec file"))
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
        winning_rects = winning_columns(result.grid, pol.winning)
        Path(args.svg).write_text(render_svg(spec, winning_rects=winning_rects))
    if not result.initial_winning:
        print("initial cells are not all winning", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _parse_x0(text: str, n: int) -> np.ndarray:
    try:
        x0 = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise UsageError(f"--x0 must be comma-separated numbers: {text!r}") from None
    if not np.all(np.isfinite(x0)):
        raise UsageError(f"--x0 must be finite: {text!r}")
    if x0.size != n:
        raise UsageError(f"--x0 needs {n} components, got {x0.size}: {text!r}")
    return x0


def cmd_simulate(args) -> int:
    if args.steps < 0:
        raise UsageError(f"--steps must be non-negative, got {args.steps}")
    spec = parse_spec(_read_text(args.spec, "spec file"))
    controller, grid = load_controller(_read_text(args.controller, "controller file"))
    field = get_field(spec.system_name)

    if args.x0:
        x0 = _parse_x0(args.x0, grid.n)
    else:
        # a position-only start takes the grid's center on the other dimensions
        start = spec.initial_point if spec.initial_point is not None else spec.initial_rect.center
        x0 = np.concatenate([start, grid.bounds.center[len(start) :]])

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
        return MockClient.from_script_text(_read_text(args.mock, "mock script"))
    if args.base_url and args.model:
        try:
            return HttpClient(base_url=args.base_url, model=args.model)
        except ClientError as exc:
            raise UsageError(str(exc)) from None
    raise UsageError("configure a client: --mock SCRIPT or --base-url/--model")


def cmd_nl2spec(args) -> int:
    if args.nl == "-":
        nl = _decode(sys.stdin.buffer.read(), "standard input")
    else:
        nl = _read_text(args.nl, "NL file")
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


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
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
