"""Replay the recorded command-line envelopes byte for byte.

`golden/cases.json` lists argv vectors and their exit codes (0 when
omitted).  For every case that does not exit 2, `golden/<name>.out` holds
its stdout with the wall-clock `timings` member removed; exit-2 cases are
pinned by exit code alone.  Re-record deliberately with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from qdominance.cli import ENV_ORDER, EXIT_USAGE, main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
_TIMINGS = re.compile(r', "timings": \{[^{}]*\}\}$', re.MULTILINE)


def run_case(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, _TIMINGS.sub("}", out.getvalue())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_envelope(case, monkeypatch):
    monkeypatch.delenv(ENV_ORDER, raising=False)
    code, out = run_case(case["argv"])
    assert code == case.get("exit", 0)
    if code != EXIT_USAGE:
        assert out.encode() == (GOLDEN / f"{case['name']}.out").read_bytes()


def record() -> None:
    os.environ.pop(ENV_ORDER, None)
    for case in CASES:
        code, out = run_case(case["argv"])
        if code != case.get("exit", 0):
            raise SystemExit(f"{case['name']}: exit {code}, expected {case.get('exit', 0)}")
        if code != EXIT_USAGE:
            (GOLDEN / f"{case['name']}.out").write_bytes(out.encode())

if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
