import io
import json
import urllib.error
import urllib.request

import pytest

import gridsynth as gs
from gridsynth.agents import (
    API_KEY_ENV,
    DEFAULT_K_MAX,
    SCRIPT_SEPARATOR,
    AcceptedSpec,
    BlockedWithFeedback,
    HttpClient,
    MockClient,
    ParseFailure,
    build_checker_prompt,
    build_code_prompt,
    build_direct_prompt,
    extract_code_block,
    pipeline_run,
    template_hash,
    write_script,
)
from gridsynth.errors import ClientError

from conftest import bicycle_spec_text, correct_response, fenced


NL = "Drive the cart to the top-right pad while avoiding the crate."


class TestPrompts:
    def test_deterministic(self):
        assert build_code_prompt(NL) == build_code_prompt(NL)
        assert build_checker_prompt(NL, "{}") == build_checker_prompt(NL, "{}")
        assert build_direct_prompt(NL) == build_direct_prompt(NL)

    def test_nl_embedded(self):
        assert NL in build_code_prompt(NL)
        assert NL in build_checker_prompt(NL, "{}")
        assert NL in build_direct_prompt(NL)

    def test_feedback_embedded(self):
        fb = "obstacle is 0.5 too far right"
        with_fb = build_code_prompt(NL, feedback=fb)
        assert fb in with_fb
        assert fb not in build_code_prompt(NL)

    def test_checker_includes_spec_text(self):
        spec_text = bicycle_spec_text()
        assert spec_text in build_checker_prompt(NL, spec_text)

    def test_templates_pinned(self):
        # guard against silent prompt drift; update when templates change
        hashes = {
            name: template_hash(name)
            for name in (
                "code_agent_v1.txt", "checker_agent_v1.txt", "direct_llm_v1.txt"
            )
        }
        assert all(len(h) == 64 for h in hashes.values())
        assert len(set(hashes.values())) == 3

    def test_code_prompt_shows_all_encodings(self):
        p = build_code_prompt(NL)
        for kind in ("vertices4", "diagonal", "center_sides"):
            assert kind in p


class TestExtract:
    def test_plain_fence(self):
        assert extract_code_block("```\n{\"a\": 1}\n```") == '{"a": 1}'

    def test_json_language_tag(self):
        assert extract_code_block("```json\n{}\n```") == "{}"

    def test_prose_around_fence(self):
        text = "Sure.\n```json\n{}\n```\nDone."
        assert extract_code_block(text) == "{}"

    def test_first_of_many(self):
        text = "```json\nfirst\n```\n```json\nsecond\n```"
        assert extract_code_block(text) == "first"

    def test_no_fence(self):
        assert extract_code_block("no block here") is None


class TestMockClient:
    def test_ordered_replay(self):
        c = MockClient(["a", "b"])
        assert c.complete("p1") == "a"
        assert c.complete("p2") == "b"

    def test_exhausted_raises(self):
        c = MockClient(["only"])
        c.complete("p")
        with pytest.raises(ClientError):
            c.complete("p")

    def test_records_prompts(self):
        c = MockClient(["a"])
        c.complete("the prompt")
        assert c.prompts == ["the prompt"]

    def test_script_round_trip(self, tmp_path):
        p = tmp_path / "script.txt"
        responses = ["first\nline two", "True"]
        write_script(responses, p)
        assert SCRIPT_SEPARATOR in p.read_text()
        c = MockClient.from_script_text(p.read_text(encoding="utf-8"))
        assert c.complete("x") == "first\nline two"
        assert c.complete("y") == "True"

    def test_determinism(self, bicycle_spec):
        responses = [correct_response(bicycle_spec), "True"]
        a = pipeline_run(MockClient(list(responses)), NL)
        b = pipeline_run(MockClient(list(responses)), NL)
        assert isinstance(a.outcome, AcceptedSpec)
        assert a.outcome.spec_text == b.outcome.spec_text
        assert [i.code_agent_prompt for i in a.iterations] == \
            [i.code_agent_prompt for i in b.iterations]


def reply(content="the answer"):
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode()


class FakeEndpoint:
    """Stands in for urllib.request.urlopen: records each request and
    answers from a list of bodies (bytes) or exceptions, the last repeating."""

    def __init__(self, *answers):
        self.answers = list(answers)
        self.calls = []

    def __call__(self, request, timeout=None):
        self.calls.append((request, timeout))
        answer = self.answers[min(len(self.calls), len(self.answers)) - 1]
        if isinstance(answer, Exception):
            raise answer
        return io.BytesIO(answer)


HTTP_FAILURES = {
    "http-error": urllib.error.HTTPError("http://llm.test", 503, "unavailable", {}, None),
    "url-error": urllib.error.URLError("connection refused"),
    "timeout": TimeoutError("timed out"),
    "os-error": OSError("network unreachable"),
    "invalid-json": b"<html>not json</html>",
    "no-choices": b'{"error": "overloaded"}',
    "empty-choices": b'{"choices": []}',
    "not-an-object": b"[1, 2]",
}


class TestHttpClient:
    def client(self, monkeypatch, *answers, **kwargs):
        endpoint = FakeEndpoint(*answers)
        monkeypatch.setattr(urllib.request, "urlopen", endpoint)
        kwargs.setdefault("api_key", "sk-test")
        return HttpClient("http://llm.test/v1/", "model-x", **kwargs), endpoint

    def test_request_url_body_header_and_timeout(self, monkeypatch):
        client, endpoint = self.client(monkeypatch, reply(), timeout=7.5)
        assert client.complete("the prompt") == "the answer"
        [(request, timeout)] = endpoint.calls
        assert request.full_url == "http://llm.test/v1/chat/completions"
        assert request.get_method() == "POST"
        assert request.get_header("Authorization") == "Bearer sk-test"
        assert request.get_header("Content-type") == "application/json"
        assert timeout == 7.5
        assert json.loads(request.data) == {
            "model": "model-x",
            "messages": [{"role": "user", "content": "the prompt"}],
            "temperature": 0.0,
            "seed": 0,
        }

    def test_per_call_temperature_and_seed(self, monkeypatch):
        client, endpoint = self.client(monkeypatch, reply())
        client.complete("p", temperature=0.7, seed=11)
        body = json.loads(endpoint.calls[0][0].data)
        assert (body["temperature"], body["seed"]) == (0.7, 11)

    def test_seed_none_is_left_out(self, monkeypatch):
        client, endpoint = self.client(monkeypatch, reply(), seed=None)
        client.complete("p")
        assert "seed" not in json.loads(endpoint.calls[0][0].data)

    def test_api_key_from_environment(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-env")
        client, endpoint = self.client(monkeypatch, reply(), api_key=None)
        client.complete("p")
        assert endpoint.calls[0][0].get_header("Authorization") == "Bearer sk-env"

    def test_missing_api_key_raises(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        with pytest.raises(ClientError, match=API_KEY_ENV):
            HttpClient("http://llm.test", "m")

    def test_a_failed_attempt_is_retried(self, monkeypatch):
        client, endpoint = self.client(monkeypatch, urllib.error.URLError("reset"), reply("late"))
        assert client.complete("p") == "late"
        assert len(endpoint.calls) == 2

    @pytest.mark.parametrize("kind", sorted(HTTP_FAILURES))
    @pytest.mark.parametrize("max_retries", [0, 2])
    def test_every_failure_kind_is_a_client_error_after_all_attempts(
        self, monkeypatch, kind, max_retries
    ):
        client, endpoint = self.client(monkeypatch, HTTP_FAILURES[kind], max_retries=max_retries)
        with pytest.raises(ClientError, match="after retries"):
            client.complete("p")
        assert len(endpoint.calls) == max_retries + 1


class TestPipeline:
    def test_accept_first_iteration(self, bicycle_spec):
        client = MockClient([correct_response(bicycle_spec), "True"])
        t = pipeline_run(client, NL)
        assert isinstance(t.outcome, AcceptedSpec)
        assert len(t.iterations) == 1
        assert gs.semantic_diff(
            bicycle_spec, t.outcome.spec
        ).ok

    def test_accept_after_feedback(self, bicycle_spec):
        fb = "The obstacle should span x from 1.6 to 2.4, not 2.0 to 2.8."
        bad = json.loads(bicycle_spec_text())
        bad["obstacles"][0]["points"] = [[2.0, 1.6], [2.8, 2.4]]
        client = MockClient([
            fenced(json.dumps(bad)),
            fb,
            correct_response(bicycle_spec),
            "True",
        ])
        t = pipeline_run(client, NL)
        assert isinstance(t.outcome, AcceptedSpec)
        assert len(t.iterations) == 2
        # feedback is forwarded verbatim into the second code prompt
        assert fb in t.iterations[1].code_agent_prompt
        assert fb not in t.iterations[0].code_agent_prompt

    def test_blocked_after_k_max(self, bicycle_spec):
        fb2 = "still wrong: the target is in the south-west corner"
        client = MockClient([
            correct_response(bicycle_spec), "wrong target",
            correct_response(bicycle_spec), fb2,
        ])
        t = pipeline_run(client, NL)
        assert isinstance(t.outcome, BlockedWithFeedback)
        assert t.outcome.feedback == fb2
        assert len(t.iterations) == DEFAULT_K_MAX

    def test_whitespace_around_true_accepted(self, bicycle_spec):
        client = MockClient([correct_response(bicycle_spec), "  True \n"])
        t = pipeline_run(client, NL)
        assert isinstance(t.outcome, AcceptedSpec)

    def test_almost_true_is_feedback(self, bicycle_spec):
        client = MockClient([
            correct_response(bicycle_spec), "True, but check the obstacle.",
            correct_response(bicycle_spec), "True!",
        ])
        t = pipeline_run(client, NL)
        assert isinstance(t.outcome, BlockedWithFeedback)

    def test_unparseable_output_is_parse_failure(self):
        client = MockClient(["no json here at all", "still nothing"])
        t = pipeline_run(client, NL)
        assert isinstance(t.outcome, ParseFailure)
        # checker is never consulted for unparseable output
        assert all(i.verdict is None for i in t.iterations)

    def test_parse_error_becomes_feedback(self, bicycle_spec):
        client = MockClient([
            fenced('{"system": "bicycle"}'),  # missing keys
            correct_response(bicycle_spec),
            "True",
        ])
        t = pipeline_run(client, NL)
        assert isinstance(t.outcome, AcceptedSpec)
        assert "failed to parse" in t.iterations[1].code_agent_prompt

    def test_client_error_carries_transcript(self, bicycle_spec):
        client = MockClient([correct_response(bicycle_spec)])  # checker starves
        with pytest.raises(ClientError) as exc:
            pipeline_run(client, NL)
        assert exc.value.transcript is not None
        assert len(exc.value.transcript.iterations) == 1

    def test_k_max_bound_respected(self, bicycle_spec):
        responses = [correct_response(bicycle_spec), "nope"] * 5
        t = pipeline_run(MockClient(responses), NL, k_max=3)
        assert len(t.iterations) == 3

    def test_invalid_k_max(self):
        with pytest.raises(gs.GridSynthError):
            pipeline_run(MockClient([]), NL, k_max=0)
