"""
Natural language to spec with the agent pipeline
================================================

The pipeline pairs a Code Agent (writes the JSON spec) with a Checker Agent
(approves with the single token "True" or returns feedback).  Up to k_max = 2
iterations; rejected feedback is forwarded verbatim into the next attempt.

Everything here runs against a scripted mock client, so the demo is fully
deterministic and needs no network access.

    python3 demos/02_agent_pipeline.py
"""

import json

import gridsynth as gs
from gridsynth.agents import AcceptedSpec, MockClient, pipeline_run

NL = (
    "A delivery cart starts near the south-west corner of a 4 m square "
    "room, heading east. Drive it onto the charging pad in the north-east "
    "corner without touching the crate in the middle of the room."
)

# The "LLM responses" below are scripted.  The first attempt misplaces the
# crate; the checker catches it; the second attempt is correct.

correct = {
    "system": "bicycle",
    "state_bounds": {"lower": [0.0, 0.0, -3.141592653589793],
                     "upper": [4.0, 4.0, 3.141592653589793]},
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
wrong = json.loads(json.dumps(correct))
wrong["obstacles"][0]["points"] = [[2.1, 1.6], [2.9, 2.4]]

client = MockClient([
    f"```json\n{json.dumps(wrong, indent=2)}\n```",
    "The crate is centred in the room, so its x-range should be 1.6 to 2.4, "
    "not 2.1 to 2.9.",
    f"```json\n{json.dumps(correct, indent=2)}\n```",
    "True",
])

transcript = pipeline_run(client, NL)

for i, it in enumerate(transcript.iterations, start=1):
    status = "accepted" if (it.verdict and it.verdict.ok) else "rejected"
    print(f"iteration {i}: parse ok = {it.parsed_spec is not None}, "
          f"checker: {status}")
    if it.verdict and not it.verdict.ok:
        print(f"  feedback: {it.verdict.feedback}")

assert isinstance(transcript.outcome, AcceptedSpec)
spec = transcript.outcome.spec
print(f"\naccepted spec: {len(spec.obstacle_rects)} obstacle(s), "
      f"{len(spec.target_rects)} target(s), tau = {spec.tau}")
