"""Fuzzed readers: a damaged spec file, controller table or mock script ends
every CLI run with an exit code in 0-3, never with an exception, and with no
'warning:' line on stderr.

The inputs are case01's spec, its exported controller table and a mock script
that answers with the spec and then approves it.  Each example damages one of
them: a truncation, a byte flip, a number replaced by an extreme, or two of
its first lines swapped.  No example runs synthesis.
"""

import contextlib
import io
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridsynth.agents import write_script
from gridsynth.bench import fixtures_dir
from gridsynth.cli import main
from gridsynth.pipeline import synthesize
from gridsynth.specformat import parse_spec
from gridsynth.synthesis import export_controller

from conftest import correct_response

EXTREMES = ["0", "-0", "1e308", "-1e308", "1e-308", "99999999999999999999999", "nan", "inf"]
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
HEAD_LINES = 12  # swaps stay among the first lines: a table's header, a spec's bounds

MUTATIONS = st.tuples(
    st.sampled_from(["truncate", "flip", "extreme", "swap"]),
    st.integers(0, 2**16),  # where: a byte, a number or a line, modulo the file's count
    st.integers(1, 255),  # the flip's XOR mask, or the swap partner's distance
    st.sampled_from(EXTREMES),
)
FUZZ = settings(derandomize=True, database=None, deadline=None)
# numbers 3 and 12 of the spec (also in the script) are state_upper's x and
# eta_x's heading: 1e308 and 1e-308 there made cells-per-axis ratios of inf,
# which gave numpy warnings and the wrong error, or an OverflowError
UPPER_X_1E308 = ("extreme", 3, 1, "1e308")
ETA_HEADING_1E_308 = ("extreme", 12, 1, "1e-308")


def mutate(data: bytes, mutation) -> bytes:
    kind, where, k, extreme = mutation
    if kind == "truncate":
        return data[: where % len(data)]
    if kind == "flip":
        i = where % len(data)
        return data[:i] + bytes([data[i] ^ k]) + data[i + 1 :]
    if kind == "extreme":
        spans = [m.span() for m in NUMBER.finditer(data)]
        a, b = spans[where % len(spans)]
        return data[:a] + extreme.encode() + data[b:]
    lines = data.splitlines(keepends=True)
    head = min(len(lines), HEAD_LINES)
    i, j = where % head, (where + k) % head
    lines[i], lines[j] = lines[j], lines[i]
    return b"".join(lines)


def run(argv):
    """main(argv)'s exit code; it must print no 'warning:' line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert not re.search(r"^warning:", err.getvalue(), re.MULTILINE), err.getvalue()
    return code


@pytest.fixture(scope="module")
def case01_files(tmp_path_factory):
    """Directory holding case01's spec, table, NL text and mock script, as bytes too."""
    spec_text = (fixtures_dir() / "case01_warehouse_crate" / "spec.json").read_text()
    spec = parse_spec(spec_text)
    result = synthesize(spec)
    d = tmp_path_factory.mktemp("fuzz")
    (d / "spec.json").write_text(spec_text)
    (d / "table.txt").write_text(export_controller(result.controller, result.grid))
    (d / "nl.txt").write_text("Drive to the pad in the top-right corner, around the crate.\n")
    write_script([correct_response(spec), "True"], d / "script.txt")
    return d, {name: (d / name).read_bytes() for name in ("spec.json", "table.txt", "script.txt")}


@settings(FUZZ, max_examples=45)
@given(target=st.sampled_from(["spec.json", "table.txt"]), mutation=MUTATIONS)
# number 17 is the first row's value: past int64 it ended in an OverflowError
@example(target="table.txt", mutation=("extreme", 17, 1, "99999999999999999999999"))
@example(target="spec.json", mutation=UPPER_X_1E308)
@example(target="spec.json", mutation=ETA_HEADING_1E_308)
def test_simulate_on_a_damaged_spec_or_table_exits_with_a_code(case01_files, target, mutation):
    d, original = case01_files
    for name, data in original.items():
        (d / name).write_bytes(mutate(data, mutation) if name == target else data)
    argv = ["simulate", str(d / "spec.json"), str(d / "table.txt"), "--steps", "3",
            "-o", str(d / "out.csv")]
    assert run(argv) in (0, 1, 2, 3)


@settings(FUZZ, max_examples=80)
@given(mutation=MUTATIONS)
@example(mutation=UPPER_X_1E308)
@example(mutation=ETA_HEADING_1E_308)
def test_nl2spec_on_a_damaged_mock_script_exits_with_a_code(case01_files, mutation):
    d, original = case01_files
    (d / "script.txt").write_bytes(mutate(original["script.txt"], mutation))
    argv = ["nl2spec", "--nl", str(d / "nl.txt"), "--mock", str(d / "script.txt"),
            "-o", str(d / "out.json")]
    assert run(argv) in (0, 1, 2, 3)
