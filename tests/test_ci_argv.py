"""Every `qdominance` command line in the CI workflow parses with the command-line parser.

`.github/workflows/tier1.yml` runs the console script with fixed argvs.  A
flag the parser no longer registers makes such a step exit 2, which only
the remote CI run would show.  Each step's `run:` script is split into
simple commands at the shell's control operators; every command that
runs `qdominance` must parse, except in a step that asserts exit 2
(`test "$code" -eq 2`) for a bad request, whose command must not.  A step
that asserts exit 2 with a `qdominance: resource:` line is refused by a
work bound after parsing, so its command must parse.  The `"$cmd" --help`
loop names no subcommand and is skipped.  This test only reads the
workflow.
"""

import shlex
from pathlib import Path

import pytest

from qdominance.cli import build_parser

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
CONTROL = set("();<>|&")
REDIRECTIONS = {"<", ">", ">>", ">|", "<&", ">&", "&>", "&>>"}


def run_scripts() -> list[str]:
    """The `run:` value of every step; a `run: |` block is kept line by line."""
    scripts, block, indent = [], None, 0
    for line in WORKFLOW.read_text().splitlines():
        stripped = line.lstrip()
        depth = len(line) - len(stripped)
        if block is not None:
            if not stripped or depth > indent:
                block.append(stripped)
                continue
            scripts.append("\n".join(block))
            block = None
        if stripped.startswith("run:"):
            value = stripped[len("run:") :].strip()
            if value == "|":
                block, indent = [], depth
            else:
                scripts.append(value)
    if block is not None:
        scripts.append("\n".join(block))
    return scripts


def simple_commands(script: str) -> list[list[str]]:
    """The script's words, split at control operators, one command line at a time.

    A redirection is dropped with its target (`> out.txt`, `2>&1`) and with
    its fd, a number written right against the operator (`2> err.txt`);
    `2 > out.txt` keeps 2 as a word, as the shell does.
    """
    commands = []
    for line in script.splitlines():
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        command: list[str] = []
        fd = target = False
        for token in lexer:
            if target:
                target = fd = False
            elif token in REDIRECTIONS:
                if fd:
                    command.pop()
                target, fd = True, False
            elif set(token) <= CONTROL:
                commands.append(command)
                command, fd = [], False
            else:
                command.append(token)
                # the lexer has just read the character that ended the word
                fd = token.isdigit() and line[lexer.instream.tell() - 1] in "<>"
        commands.append(command)
    return commands


def qdominance_lines() -> list[tuple[tuple[str, ...], bool]]:
    """(argv after `qdominance`, whether it must parse) for every CI command line."""
    lines = []
    for script in run_scripts():
        must_parse = '"$code" -eq 2' not in script or "qdominance: resource:" in script
        for command in simple_commands(script):
            if "qdominance" not in command:
                continue
            argv = tuple(command[command.index("qdominance") + 1 :])
            if not any("$" in word for word in argv):
                lines.append((argv, must_parse))
    return lines


LINES = qdominance_lines()


def test_the_workflow_has_lines_of_both_kinds():
    assert sum(must for _, must in LINES) >= 10
    assert [argv for argv, must in LINES if not must] == [
        ("check", "--ineq", "RR", "--order", "10", "--bounds", "0,1,1")
    ]


@pytest.mark.parametrize(
    "line, commands",
    [
        ("qdominance sweep --jobs 2 2> err.txt", [["qdominance", "sweep", "--jobs", "2"]]),
        ("qdominance sweep --jobs 2 > out.txt 2>&1", [["qdominance", "sweep", "--jobs", "2"]]),
        ("qdominance sweep --jobs 2 > out.txt", [["qdominance", "sweep", "--jobs", "2"]]),
        ("qdominance sweep --jobs 2>err.txt || code=$?", [["qdominance", "sweep", "--jobs"], ["code=$?"]]),
    ],
    ids=["fd-2-to-file", "stdout-and-fd-2-to-stdout", "argument-then-stdout", "fd-against-its-word"],
)
def test_redirections_are_not_words(line, commands):
    assert simple_commands(line) == commands


@pytest.mark.parametrize("argv, must_parse", LINES, ids=[" ".join(argv) for argv, _ in LINES])
def test_every_ci_line_parses_as_its_step_expects(argv, must_parse, capsys):
    try:
        build_parser().parse_args(list(argv))
        parsed = True
    except SystemExit:
        parsed = False
    assert parsed == must_parse, capsys.readouterr().err
