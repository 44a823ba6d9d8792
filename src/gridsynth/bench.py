"""Benchmark harness: fixture environments, strategy runs, outcome categories.

Each benchmark case is one environment with a ground-truth spec and three
semantically equivalent natural-language paraphrases.  A strategy run maps
every (case, paraphrase) to one of four outcome categories; per-case results
aggregate into the robustly-solved / solved / incorrect verdicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .agents import (
    DEFAULT_K_MAX,
    AcceptedSpec,
    build_direct_prompt,
    code_agent_generate,
    extract_code_block,
    pipeline_run,
)
from .errors import GridSynthError
from .simulator import Trajectory, check_reach_avoid
from .specformat import _finite_number, parse_spec, semantic_diff

DIRECT_LLM = "direct_llm"
CODE_AGENT_ONLY = "code_agent_only"
FULL_PIPELINE = "full_pipeline"
STRATEGIES = (DIRECT_LLM, CODE_AGENT_ONLY, FULL_PIPELINE)

INCORRECT_EXECUTION = "IncorrectExecution"
CORRECT_NOT_CHECKED = "CorrectNotChecked"
INCORRECT_BLOCKED = "IncorrectBlocked"
CORRECT_CHECKED = "CorrectChecked"
CATEGORIES = (
    INCORRECT_EXECUTION,
    CORRECT_NOT_CHECKED,
    INCORRECT_BLOCKED,
    CORRECT_CHECKED,
)
CORRECT_CATEGORIES = {CORRECT_NOT_CHECKED, CORRECT_CHECKED}

PARAPHRASES_PER_CASE = 3


@dataclass(frozen=True)
class BenchCase:
    id: str
    ground_truth: object  # ProblemSpec
    paraphrases: tuple  # exactly 3 NL strings

    def __post_init__(self):
        if len(self.paraphrases) != PARAPHRASES_PER_CASE:
            raise GridSynthError(
                f"case {self.id}: need {PARAPHRASES_PER_CASE} paraphrases"
            )


def fixtures_dir() -> Path:
    """Location of the shipped benchmark environments."""
    return Path(resources.files("gridsynth") / "fixtures" / "cases")


def _read_case_file(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GridSynthError(f"cannot read case file {path}: {exc}") from None


def load_cases(cases_dir) -> list:
    """Load cases/<id>/spec.json + paraphrase_{1,2,3}.txt, sorted by id."""
    cases_dir = Path(cases_dir)
    cases = []
    for case_dir in sorted(p for p in cases_dir.iterdir() if p.is_dir()):
        spec_path = case_dir / "spec.json"
        text = _read_case_file(spec_path)
        try:
            spec = parse_spec(text)
        except GridSynthError as exc:
            raise GridSynthError(f"{spec_path}: {exc}") from None
        paraphrases = tuple(
            _read_case_file(case_dir / f"paraphrase_{i}.txt").strip()
            for i in (1, 2, 3)
        )
        cases.append(BenchCase(id=case_dir.name, ground_truth=spec, paraphrases=paraphrases))
    if not cases:
        raise GridSynthError(f"no benchmark cases under {cases_dir}")
    return cases


# --- strategy execution -------------------------------------------------------------


def _parse_direct_trajectory(raw: str):
    """The plan {"trajectory": [[t, x, y, ...], ...]} of a direct-LLM reply.

    Anything else raises GridSynthError: JSON that does not decode, a top
    level that is not an object, a missing, empty or non-list trajectory,
    rows that are not lists of at least three finite numbers all of one
    length, or times that do not strictly increase.
    """
    block = extract_code_block(raw)
    if block is None:
        block = raw
    try:
        doc = json.loads(block)
    except json.JSONDecodeError as exc:
        raise GridSynthError(f"plan is not JSON: {exc}") from None
    rows = doc.get("trajectory") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not rows:
        raise GridSynthError('plan needs a non-empty "trajectory" list')
    width = len(rows[0]) if isinstance(rows[0], list) else 0
    if width < 3 or not all(
        isinstance(r, list) and len(r) == width and all(map(_finite_number, r))
        for r in rows
    ):
        raise GridSynthError(
            "trajectory rows must be [t, x, y, ...] lists of finite numbers, all of one length"
        )
    times = [r[0] for r in rows]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise GridSynthError("trajectory times must be strictly increasing")
    return Trajectory.from_waypoints(times, [r[1:] for r in rows])


def run_paraphrase(strategy: str, client, nl: str, k_max: int = DEFAULT_K_MAX):
    """Raw per-paraphrase result: transcript, iteration, or trajectory."""
    if strategy == FULL_PIPELINE:
        return pipeline_run(client, nl, k_max=k_max)
    if strategy == CODE_AGENT_ONLY:
        return code_agent_generate(client, nl)
    if strategy == DIRECT_LLM:
        raw = client.complete(build_direct_prompt(nl))
        return _parse_direct_trajectory(raw)
    raise GridSynthError(f"unknown strategy {strategy!r}")


def categorize(strategy: str, result, ground_truth):
    """Map a per-paraphrase result to its outcome category.

    Returns (category, false_block): false_block flags the sub-case where
    the checker blocked a spec that was actually correct.
    """
    if strategy == CODE_AGENT_ONLY:
        ok = result.parsed_spec is not None and semantic_diff(ground_truth, result.parsed_spec)
        return (CORRECT_NOT_CHECKED if ok else INCORRECT_EXECUTION), False

    if strategy == FULL_PIPELINE:
        outcome = result.outcome
        if isinstance(outcome, AcceptedSpec):
            ok = semantic_diff(ground_truth, outcome.spec)
            return (CORRECT_CHECKED if ok else INCORRECT_EXECUTION), False
        last = result.iterations[-1] if result.iterations else None
        false_block = (
            last is not None
            and last.parsed_spec is not None
            and semantic_diff(ground_truth, last.parsed_spec)
        )
        return INCORRECT_BLOCKED, false_block

    if strategy == DIRECT_LLM:
        verdict = check_reach_avoid(result, ground_truth)
        return (CORRECT_NOT_CHECKED if verdict.satisfied else INCORRECT_EXECUTION), False

    raise GridSynthError(f"unknown strategy {strategy!r}")


def robustness(categories) -> str:
    """Per-case verdict from its three paraphrase categories."""
    if len(categories) != PARAPHRASES_PER_CASE:
        raise GridSynthError("robustness needs all three paraphrase outcomes")
    hits = sum(c in CORRECT_CATEGORIES for c in categories)
    if hits == PARAPHRASES_PER_CASE:
        return "robust"
    if hits >= 1:
        return "solved"
    return "incorrect"


# --- reporting ------------------------------------------------------------------------


@dataclass
class BenchReport:
    strategy: str
    rows: list = field(default_factory=list)  # (case_id, paraphrase, category, false_block)
    transcripts: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    @property
    def category_counts(self):
        counts = {c: 0 for c in CATEGORIES}
        for _, _, cat, _ in self.rows:
            counts[cat] += 1
        return counts

    @property
    def case_verdicts(self):
        by_case = {}
        for case_id, _, cat, _ in self.rows:
            by_case.setdefault(case_id, []).append(cat)
        return {cid: robustness(cats) for cid, cats in sorted(by_case.items())}

    @property
    def verdict_counts(self):
        counts = {"robust": 0, "solved": 0, "incorrect": 0}
        for v in self.case_verdicts.values():
            counts[v] += 1
        # robust cases are also solved
        counts["solved"] += counts["robust"]
        return counts

    def to_csv(self) -> str:
        lines = ["case,paraphrase,strategy,category"]
        for case_id, para, cat, _ in self.rows:
            lines.append(f"{case_id},{para},{self.strategy},{cat}")
        return "\n".join(lines) + "\n"

    def summary_text(self) -> str:
        counts = self.category_counts
        verdicts = self.verdict_counts
        total = len(self.rows)
        correct = counts[CORRECT_NOT_CHECKED] + counts[CORRECT_CHECKED]
        lines = [
            f"strategy: {self.strategy}",
            f"paraphrases evaluated: {total}",
            f"correct: {correct}",
        ]
        for c in CATEGORIES:
            lines.append(f"  {c}: {counts[c]}")
        lines.append(
            f"cases robust/solved/incorrect: {verdicts['robust']}/"
            f"{verdicts['solved']}/{verdicts['incorrect']}"
        )
        false_blocks = sum(1 for _, _, _, fb in self.rows if fb)
        lines.append(f"false blocks: {false_blocks}")
        return "\n".join(lines) + "\n"


def run_benchmark(cases, strategy: str, client, k_max: int = DEFAULT_K_MAX) -> BenchReport:
    """Evaluate every (case, paraphrase) under one strategy.

    Deterministic under a scripted mock: cases in sorted id order,
    paraphrases 1..3.  A per-paraphrase GridSynthError (a ClientError, or a
    direct-LLM plan that does not parse) is recorded and the paraphrase
    counts as not correct.
    """
    report = BenchReport(strategy=strategy)
    for case in sorted(cases, key=lambda c: c.id):
        for para_i, nl in enumerate(case.paraphrases, start=1):
            try:
                result = run_paraphrase(strategy, client, nl, k_max=k_max)
                category, false_block = categorize(
                    strategy, result, case.ground_truth
                )
                report.transcripts[(case.id, para_i)] = result
            except GridSynthError as exc:
                report.errors[(case.id, para_i)] = str(exc)
                category = (
                    INCORRECT_BLOCKED
                    if strategy == FULL_PIPELINE
                    else INCORRECT_EXECUTION
                )
                false_block = False
            report.rows.append((case.id, para_i, category, false_block))
    return report
