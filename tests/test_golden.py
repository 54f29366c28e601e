"""Replay the recorded command-line envelopes and the parser surface byte for byte.

`golden/cases.json` lists argv vectors and their exit codes (0 when
omitted).  For every case that does not exit 2, `golden/<name>.out` holds
its stdout with the wall-clock `timings` member removed; for every exit-2
case, `golden/<name>.err` holds its stderr, category and message.
`golden/parser.json` lists every subcommand's options, read from the
parser's actions: strings, default, choices, required flag and help.
Re-record deliberately with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import argparse
import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from qdominance.cli import EXIT_USAGE, build_parser, main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
PARSER = GOLDEN / "parser.json"
_TIMINGS = re.compile(r', "timings": \{[^{}]*\}\}$', re.MULTILINE)


def run_case(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, _TIMINGS.sub("}", out.getvalue()), err.getvalue()


def golden_path(case, code: int) -> Path:
    """The file a case's replay is compared with: stderr for exit 2, stdout otherwise."""
    return GOLDEN / f"{case['name']}.{'err' if code == EXIT_USAGE else 'out'}"


def parser_surface() -> str:
    """One JSON line per subcommand and per option, argparse's own -h left out."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {choice.dest: choice.help for choice in commands._choices_actions}
    rows = []
    for name, sub in commands.choices.items():
        rows.append({"command": name, "help": helps[name]})
        rows.extend(
            {
                "command": name,
                "strings": action.option_strings,
                "type": getattr(action.type, "__name__", None),
                "default": action.default,
                "choices": None if action.choices is None else list(action.choices),
                "required": action.required,
                "help": action.help,
            }
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        )
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_envelope(case):
    code, out, err = run_case(case["argv"])
    assert code == case.get("exit", 0)
    replayed = err if code == EXIT_USAGE else out
    assert replayed.encode() == golden_path(case, code).read_bytes()


def test_parser_surface():
    assert parser_surface().encode() == PARSER.read_bytes()


def record() -> None:
    for case in CASES:
        code, out, err = run_case(case["argv"])
        if code != case.get("exit", 0):
            raise SystemExit(f"{case['name']}: exit {code}, expected {case.get('exit', 0)}")
        golden_path(case, code).write_bytes((err if code == EXIT_USAGE else out).encode())
    PARSER.write_bytes(parser_surface().encode())


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record()
