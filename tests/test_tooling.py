"""The test tools that CI installs are the ones the package's `test` extra pins.

CI installs the package with its `test` extra, so the pins are written
once, in `pyproject.toml`, and must be exact.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def extra_pins() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text()
    (entries,) = re.findall(r"^test = \[(.*)\]$", text, re.MULTILINE)
    return set(re.findall(r'"([^"]+)"', entries))


def workflow_installs() -> list[str]:
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    (line,) = re.findall(r"pip install (.+)$", text, re.MULTILINE)
    return line.split()


def test_test_extra_pins_what_ci_installs():
    pins = extra_pins()
    assert pins and all(re.fullmatch(r"[A-Za-z0-9_.-]+==[0-9][0-9A-Za-z.]*", pin) for pin in pins)
    assert workflow_installs() == ['".[test]"']
