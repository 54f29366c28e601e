"""Every public function and class in the package has a caller.

A top-level `def` or `class` whose name does not start with `_` must be
read, as a name or an attribute, by some other top-level statement of the
package, or be imported by the README's library quick start.  Code that
only the tests call belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qdominance"


def quick_start_imports() -> set[str]:
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def names_read(statement: ast.stmt) -> set[str]:
    read = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def uncalled_names() -> list[str]:
    statements = [
        (path.stem, statement)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for statement in ast.parse(path.read_text()).body
    ]
    reads = [names_read(statement) for _, statement in statements]
    imported = quick_start_imports()
    uncalled = []
    for i, (module, statement) in enumerate(statements):
        if not isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = statement.name
        if name.startswith("_") or name in imported:
            continue
        if not any(name in read for j, read in enumerate(reads) if j != i):
            uncalled.append(f"{module}.{name}")
    return uncalled


def test_every_public_name_has_a_caller():
    uncalled = uncalled_names()
    assert not uncalled, "public names without a caller: " + ", ".join(uncalled)
