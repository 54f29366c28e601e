"""Every command line the benchmark's workloads send parses with the command-line parser.

`perfbench/run.py` calls `qdominance.cli.main` with the argvs that
`perfbench/workloads.make_round` builds.  An option the parser does not
register makes such a request exit 2, which the benchmark counts as a
failed request.  This test only reads `perfbench/`.
"""

import sys
from pathlib import Path

import pytest

from qdominance.cli import build_parser

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is not a package)

SEED = 12
ROUNDS = range(3)


@pytest.mark.parametrize("toy", [False, True], ids=["full", "toy"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_workload_argv_parses(workload, toy, capsys):
    argvs = [req.argv for k in ROUNDS for req in workloads.make_round(workload, SEED, k, toy) if req.argv]
    assert argvs
    for argv in argvs:
        try:
            build_parser().parse_args(list(argv))
        except SystemExit:
            pytest.fail(f"{' '.join(argv)} does not parse: {capsys.readouterr().err}")
