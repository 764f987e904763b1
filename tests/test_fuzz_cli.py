"""Mutated scenario documents never crash the command line.

Each example takes a bundled text scenario or a JSON scenario, applies a few
random edits to its text and runs `dsmfuse fuse` (plain, --compare, --decide,
--format json or --rule dempster) or `dsmfuse lattice --model` on it. Whatever the damage,
the run ends with an exit code of the CLI's contract and no exception but a
DsmError leaves cli.main.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dsmfuse import cli
from dsmfuse.errors import DsmError

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

JSON_SCENARIO = json.dumps({
    "frame": ["th1", "th2", "th3"],
    "model": {"kind": "hybrid", "constraints": ["th1&th3", "th2&th3"]},
    "sources": [
        {"name": "m1", "mass": {"th1": 0.4, "th2|th3": 0.35, "th1&th2": 0.25}},
        {"name": "m2", "mass": {"th2": 0.5, "th1|(th2&th3)": 0.2, "th3": 0.3}},
    ],
    "tasks": [{"rule": "dsm_hybrid", "decide": True}, {"compare": True}],
}, indent=2)

DOCUMENTS = [(p.name, p.read_text(encoding="utf-8")) for p in sorted(SCENARIO_DIR.glob("*.dsm"))]
DOCUMENTS.append(("scenario.json", JSON_SCENARIO))

# characters that mean something to one of the grammars, plus a label
ALPHABET = "&|()[]{},:=#.0123456789-+eu\n \"th1∩∪"

COMMANDS = [
    ["fuse"],
    ["fuse", "--compare"],
    ["fuse", "--decide"],
    ["fuse", "--format", "json"],
    ["fuse", "--rule", "dempster"],
    ["lattice", "--model"],
]


@st.composite
def mutated(draw):
    name, text = draw(st.sampled_from(DOCUMENTS))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        op = draw(st.sampled_from(["delete", "insert", "replace", "repeat"]))
        if op == "delete":
            text = text[:i] + text[j:]
        elif op == "repeat":
            text = text[:j] + text[i:j] * draw(st.integers(1, 3)) + text[j:]
        else:
            new = draw(st.text(alphabet=ALPHABET, min_size=1, max_size=6))
            text = text[:i] + new + (text[j:] if op == "replace" else text[i:])
    return name, text


@given(mutated(), st.sampled_from(COMMANDS))
@settings(max_examples=150, deadline=None)
def test_mutated_scenarios_keep_the_exit_code_contract(document, command):
    name, text = document
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = command + [path] if command[-1] == "--model" else command + ["--scenario", path]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = cli.main(argv)
            except DsmError:
                return
    assert code in (0, 2, 3, 4)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
