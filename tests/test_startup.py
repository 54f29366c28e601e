"""What `import qdominance.cli` loads, checked in fresh interpreters.

The CLI imports `series` and `dominance`; the other compute layers are
registered with the stdlib LazyLoader and run on first attribute access,
the process pool is imported by the one sweep branch that uses it, and
`csv` and `traceback` by the output and fault paths that use them.
Each check runs in its own interpreter, so no earlier test's imports leak
into it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEFERRED = ("antitelescope", "lemma", "partitions", "polyring", "proposal")

# True when the module's body has not run: its namespace still holds only the
# dunder attributes the import system sets.  `object.__getattribute__` reads
# the namespace without the lazy module's hook, which would load it.
NOT_RUN = (
    "import sys\n"
    "def not_run(name):\n"
    "    module = sys.modules['qdominance.' + name]\n"
    "    return all(key.startswith('__') for key in object.__getattribute__(module, '__dict__'))\n"
)


def run_fresh(code: str) -> None:
    """Run `code` in a new interpreter with the package on its path; it must exit 0."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", NOT_RUN + code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_the_parser_runs_no_deferred_layer_and_no_process_pool():
    run_fresh(
        "import qdominance.cli\n"
        "qdominance.cli.build_parser()\n"
        f"assert all(not_run(name) for name in {DEFERRED!r})\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert 'csv' not in sys.modules and 'traceback' not in sys.modules\n"
    )


def test_a_command_runs_only_its_own_layers():
    run_fresh(
        "import contextlib, io, qdominance.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert qdominance.cli.main(['check', '--ineq', 'RR', '--order', '20']) == 0\n"
        f"assert all(not_run(name) for name in {DEFERRED!r})\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert qdominance.cli.main(['lemma', '--r', '2', '--R', '3', '--bounds', '2,5,5']) == 0\n"
        "assert not not_run('lemma') and not not_run('polyring')\n"
        "assert not_run('antitelescope') and not_run('partitions') and not_run('proposal')\n"
    )


def test_an_import_binds_the_package_attribute():
    run_fresh(
        "import qdominance.cli\n"
        "import qdominance.lemma\n"
        "assert qdominance.lemma is sys.modules['qdominance.lemma'] is qdominance.cli.lemma\n"
        "assert callable(qdominance.lemma.certify_lemma)\n"
    )


@pytest.mark.parametrize("name", DEFERRED)
def test_a_layer_imported_first_keeps_its_identity(name):
    run_fresh(
        f"import qdominance.{name} as first\n"
        "import qdominance.cli\n"
        f"assert sys.modules['qdominance.{name}'] is first is qdominance.cli.{name}\n"
        f"assert not not_run({name!r})\n"
    )


def test_vars_loads_a_deferred_layer():
    """The benchmark's tracer reads each layer's functions with `vars`."""
    run_fresh(
        "import types, qdominance.cli\n"
        "module = sys.modules['qdominance.lemma']\n"
        "assert not_run('lemma')\n"
        "assert 'certify_lemma' in vars(module)\n"
        "assert type(module) is types.ModuleType and not not_run('lemma')\n"
    )
