"""Every function, class, public method and public constant in the package has a caller.

A top-level `def` or `class` whose name does not start with `_` must be
read, as a name or an attribute, by some other top-level statement of the
package, or be imported by the README's library quick start.  So must an
UPPER_CASE module constant.  A top-level `def` or `class` whose name
starts with `_` must be read by some other top-level statement of the
package; the quick start does not count for it.  A method of a top-level class whose name does
not start with `_` must be read by some other statement of the package,
another method of its class included, or by the quick start.  Code that
only the tests call belongs in the tests.  The dict polynomial arithmetic
that the tests keep as an oracle (`mono`, `mp_*`) is neither defined nor
called in the package.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qdominance"


def quick_start() -> ast.Module:
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    return ast.parse(block)


def quick_start_imports() -> set[str]:
    return {
        alias.asname or alias.name
        for node in ast.walk(quick_start())
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


def private_names(statement: ast.stmt) -> list[str]:
    """The private def or class a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) and statement.name.startswith("_"):
        return [statement.name]
    return []


def defined_names(statement: ast.stmt) -> list[str]:
    """The public def or class, or the UPPER_CASE constants, a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [] if statement.name.startswith("_") else [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else []
    if isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    return [t.id for t in targets if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)]


def package_statements() -> list[tuple[str, ast.stmt]]:
    return [
        (path.stem, statement)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for statement in ast.parse(path.read_text()).body
    ]


def uncalled_names(defined=defined_names, imported=None) -> list[str]:
    statements = package_statements()
    reads = [names_read(statement) for _, statement in statements]
    imported = quick_start_imports() if imported is None else imported
    uncalled = []
    for i, (module, statement) in enumerate(statements):
        for name in defined(statement):
            if name in imported:
                continue
            if not any(name in read for j, read in enumerate(reads) if j != i):
                uncalled.append(f"{module}.{name}")
    return uncalled


def uncalled_methods() -> list[str]:
    """Public methods of top-level classes that no other statement reads."""
    units = []
    for module, statement in package_statements():
        if isinstance(statement, ast.ClassDef):
            units += [(module, statement.name, member) for member in statement.body]
        else:
            units.append((module, None, statement))
    reads = [names_read(member) for _, _, member in units]
    in_quick_start = names_read(quick_start())
    uncalled = []
    for i, (module, cls, member) in enumerate(units):
        if cls is None or not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
            continue
        if member.name in in_quick_start:
            continue
        if not any(member.name in read for j, read in enumerate(reads) if j != i):
            uncalled.append(f"{module}.{cls}.{member.name}")
    return uncalled


def test_every_public_name_has_a_caller():
    uncalled = uncalled_names()
    assert not uncalled, "public names without a caller: " + ", ".join(uncalled)


def test_every_private_name_has_a_caller():
    uncalled = uncalled_names(private_names, imported=set())
    assert not uncalled, "private names without a caller in the package: " + ", ".join(uncalled)


def test_every_public_method_has_a_caller():
    uncalled = uncalled_methods()
    assert not uncalled, "public methods without a caller: " + ", ".join(uncalled)


# The dict polynomial arithmetic, and the private builders that used it, are
# the tests' oracle now: `polyring.from_pieces` is the package's one polynomial
# builder.
ORACLE_ONLY = {
    "mono",
    "mp_add",
    "mp_sub",
    "mp_mul",
    "_same_variables",
    "_expand",
    "_xy_mono",
    "_txy_mono",
    "_txy_binomial",
}


def test_polynomial_arithmetic_lives_in_the_tests():
    used = []
    for module, statement in package_statements():
        names = names_read(statement)
        for node in ast.walk(statement):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        used += [f"{module}.{name}" for name in sorted(names & ORACLE_ONLY)]
    assert not used, "oracle-only polynomial names in the package: " + ", ".join(used)


def test_only_series_and_cli_import_fractions():
    """The engines compute over Z: `series.ratio` forms the package's rationals and `cli` prints them."""
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.partition(".")[0] == "fractions" for module in modules):
                importers.add(path.stem)
    assert not importers - {"series", "cli"}, "modules that import fractions: " + ", ".join(sorted(importers))


def test_series_forms_a_fraction_only_in_ratio():
    builders = []
    for statement in ast.parse((PACKAGE / "series.py").read_text()).body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction":
                builders.append(getattr(statement, "name", type(statement).__name__))
    assert builders == ["ratio"]


def test_no_class_subclasses_resource_error():
    """Every work bound raises `series.ResourceError` itself, so `cli.main` and the sweep workers catch one class."""
    subclasses = [
        f"{module}.{node.name}"
        for module, statement in package_statements()
        for node in ast.walk(statement)
        if isinstance(node, ast.ClassDef) and "ResourceError" in set().union(*map(names_read, node.bases))
    ]
    assert not subclasses, "subclasses of ResourceError: " + ", ".join(subclasses)


def read_outside_series(wanted: set[str]) -> list[str]:
    """module.name for each name of `wanted` that a package module other than `series` reads or imports."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "series":
            continue
        tree = ast.parse(path.read_text())
        names = names_read(tree) | {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
        readers += [f"{path.stem}.{name}" for name in sorted(names & wanted)]
    return readers


def test_only_series_reads_the_slot_format():
    """`series._Signed` is the one reader of packed slots, so no other module reads its byte format."""
    readers = read_outside_series({"_slots", "_CAST_FORMATS"})
    assert not readers, "modules that read the slot format: " + ", ".join(readers)


def test_only_series_turns_ints_into_bytes():
    """`series._Signed` packs and reads slots, so no other module turns a packed int into bytes or back."""
    callers = read_outside_series({"to_bytes", "from_bytes"})
    assert not callers, "modules that call to_bytes or from_bytes: " + ", ".join(callers)
