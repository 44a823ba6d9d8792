"""The two-agent NL-to-spec pipeline and its LLM client boundary.

A Code Agent turns a natural-language task description into a formal spec
draft; a Checker Agent compares the draft against the description and either
approves it (the exact string "True") or returns mismatch feedback, which is
fed back to the Code Agent for a bounded number of iterations.  If no draft
is approved within k_max rounds the pipeline halts and forwards the final
feedback instead of executing an unvalidated spec.

The model itself sits behind a tiny client protocol: a remote HTTP
chat-completion client for real runs, and a deterministic mock that replays
scripted responses for tests and benchmarks.
"""

from __future__ import annotations

import functools
import http.client
import json
import os
import re
import urllib.request
from dataclasses import dataclass, field
from importlib import resources

from .errors import ClientError, GridSynthError
from .specformat import ProblemSpec, parse_spec

API_KEY_ENV = "GRIDSYNTH_LLM_KEY"
SCRIPT_SEPARATOR = "---RESPONSE---"
DEFAULT_K_MAX = 2

# HttpClient's request settings: greedy decoding with a fixed seed, to keep
# replies as repeatable as the server allows, and bounded retries
TEMPERATURE = 0.0
SEED = 0
MAX_RETRIES = 2
TIMEOUT_S = 120.0

_FENCE_RE = re.compile(r"```[a-zA-Z0-9_-]*\n(.*?)```", re.DOTALL)


@functools.cache
def _load_template(name: str) -> str:
    return (resources.files("gridsynth") / "prompts" / name).read_text(encoding="utf-8")


def build_code_prompt(nl: str, feedback: str | None = None) -> str:
    """Deterministic Code Agent prompt: task + schema contract + few-shot examples."""
    if not nl:
        raise GridSynthError("natural-language description must be non-empty")
    feedback_block = ""
    if feedback:
        feedback_block = (
            "\nYour previous attempt was rejected with this feedback; fix every "
            f"point:\n{feedback}\n"
        )
    template = _load_template("code_agent_v1.txt")
    return template.replace("{nl}", nl).replace("{feedback_block}", feedback_block)


def build_checker_prompt(nl: str, spec_text: str) -> str:
    template = _load_template("checker_agent_v1.txt")
    return template.replace("{nl}", nl).replace("{spec_text}", spec_text)


def build_direct_prompt(nl: str) -> str:
    return _load_template("direct_llm_v1.txt").replace("{nl}", nl)


def extract_code_block(response: str) -> str | None:
    """First fenced code block of a response, or None."""
    m = _FENCE_RE.search(response)
    return m.group(1).strip() if m else None


# --- clients -------------------------------------------------------------------------


class MockClient:
    """Deterministic replay client.

    Responses are consumed in order from a scripted list.  Exhausting the
    script raises ClientError; nothing here is random.
    """

    def __init__(self, responses=None):
        self.responses = list(responses or [])
        self.prompts = []
        self._cursor = 0

    @classmethod
    def from_script_text(cls, text):
        """Client replaying the responses of a mock script (see write_script)."""
        parts = [p.strip("\n") for p in text.split(SCRIPT_SEPARATOR + "\n")]
        # trailing separator leaves an empty tail
        if parts and parts[-1].strip() == "":
            parts = parts[:-1]
        return cls(responses=parts)

    def complete(self, prompt: str) -> str:
        self.prompts.append(prompt)
        if self._cursor >= len(self.responses):
            raise ClientError("mock script exhausted")
        out = self.responses[self._cursor]
        self._cursor += 1
        return out


def write_script(responses, path):
    """Write a mock script file: responses separated by the marker line."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in responses:
            fh.write(r)
            if not r.endswith("\n"):
                fh.write("\n")
            fh.write(SCRIPT_SEPARATOR + "\n")


class HttpClient:
    """Chat-completion client over HTTPS (urllib, no third-party transport).

    Every request asks for TEMPERATURE and SEED to minimize output variance;
    retries are bounded and never silent: an HTTP error status, a transport
    error or a TIMEOUT_S timeout, a body that is not JSON and a reply
    without a choice are each retried, and after MAX_RETRIES + 1 attempts
    raise ClientError.
    """

    def __init__(self, base_url: str, model: str, api_key: str | None = None):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if not self.api_key:
            raise ClientError(f"no API key: set {API_KEY_ENV} or pass api_key")

    def complete(self, prompt: str) -> str:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": TEMPERATURE,
            "seed": SEED,
        }
        request = urllib.request.Request(
            f"{self.base_url}/chat/completions",
            data=json.dumps(body).encode("utf-8"),
            headers={
                "Authorization": f"Bearer {self.api_key}",
                "Content-Type": "application/json",
            },
            method="POST",
        )
        last_err = None
        for _ in range(MAX_RETRIES + 1):
            try:
                with urllib.request.urlopen(request, timeout=TIMEOUT_S) as resp:
                    payload = json.loads(resp.read())
                return payload["choices"][0]["message"]["content"]
            except (OSError, http.client.HTTPException, ValueError, LookupError, TypeError) as exc:
                last_err = exc
        raise ClientError(f"chat completion failed after retries: {last_err}")


# --- pipeline ----------------------------------------------------------------------


@dataclass(frozen=True)
class CheckerVerdict:
    ok: bool
    feedback: str = ""

    def __post_init__(self):
        if self.ok != (self.feedback == ""):
            raise GridSynthError("verdict ok must coincide with empty feedback")


@dataclass
class Iteration:
    code_agent_prompt: str
    code_agent_raw_output: str
    parsed_spec: ProblemSpec | None = None
    parse_error: str | None = None
    checker_prompt: str | None = None
    checker_raw_output: str | None = None
    verdict: CheckerVerdict | None = None


@dataclass(frozen=True)
class AcceptedSpec:
    spec: ProblemSpec
    spec_text: str


@dataclass(frozen=True)
class BlockedWithFeedback:
    feedback: str


@dataclass(frozen=True)
class ParseFailure:
    error: str


@dataclass
class AgentTranscript:
    nl_description: str
    iterations: list = field(default_factory=list)
    outcome: object = None


def code_agent_generate(client, nl: str, prior_feedback: str | None = None):
    """One Code Agent call: prompt, extract the first fenced block, parse it.

    Returns the populated Iteration record.
    """
    prompt = build_code_prompt(nl, prior_feedback)
    raw = client.complete(prompt)
    it = Iteration(code_agent_prompt=prompt, code_agent_raw_output=raw)
    block = extract_code_block(raw)
    if block is None:
        it.parse_error = "response contains no fenced code block"
        return it
    try:
        it.parsed_spec = parse_spec(block)
    except GridSynthError as exc:
        it.parse_error = str(exc)
    return it


def checker_agent_validate(client, nl: str, spec_text: str) -> tuple:
    """Checker Agent call. 'True' (after trimming) approves; anything else is feedback."""
    prompt = build_checker_prompt(nl, spec_text)
    raw = client.complete(prompt)
    if raw.strip() == "True":
        verdict = CheckerVerdict(ok=True)
    else:
        verdict = CheckerVerdict(ok=False, feedback=raw)
    return prompt, raw, verdict


def pipeline_run(client, nl: str, k_max: int = DEFAULT_K_MAX) -> AgentTranscript:
    """Bounded generate-validate loop (Code Agent + Checker Agent).

    Accepts only a spec that both parsed and was approved by the checker;
    after k_max failed iterations the final feedback is forwarded instead.
    A transport failure raises ClientError carrying the transcript so far.
    """
    if k_max < 1:
        raise GridSynthError("k_max must be >= 1")
    transcript = AgentTranscript(nl_description=nl)
    feedback = None
    for _ in range(k_max):
        try:
            it = code_agent_generate(client, nl, prior_feedback=feedback)
        except ClientError as exc:
            raise ClientError(str(exc), transcript=transcript) from None
        transcript.iterations.append(it)
        if it.parsed_spec is None:
            feedback = f"The specification failed to parse: {it.parse_error}"
            continue
        spec_text = extract_code_block(it.code_agent_raw_output)
        try:
            it.checker_prompt, it.checker_raw_output, it.verdict = (
                checker_agent_validate(client, nl, spec_text)
            )
        except ClientError as exc:
            raise ClientError(str(exc), transcript=transcript) from None
        if it.verdict.ok:
            transcript.outcome = AcceptedSpec(spec=it.parsed_spec, spec_text=spec_text)
            return transcript
        feedback = it.verdict.feedback
    last = transcript.iterations[-1]
    if last.parsed_spec is None:
        transcript.outcome = ParseFailure(error=last.parse_error)
    else:
        transcript.outcome = BlockedWithFeedback(feedback=last.verdict.feedback)
    return transcript
