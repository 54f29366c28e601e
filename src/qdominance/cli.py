"""Command-line surface binding the checks into reproducible runs.

Every subcommand prints a single JSON envelope

    {command, config, params, status, witness?, result?, timings}

to stdout and exits 0 when every check passed, 1 when a mathematical
check failed (the envelope carries a witness), and 2 on usage or
resource errors; the console script (`console`) exits 3 on an internal
fault, with its traceback on stderr.  ``interpret-check`` and ``sweep``
can emit CSV instead; a terse text rendering is available everywhere.
Each subcommand registers only the run flags (RUN_FLAGS) it reads, and
``config`` echoes exactly those, defaults included; each command echoes
its own options into ``params``, so a published number can be reproduced
from the report alone.  Importing this module runs only `series` and
`dominance`; the other compute layers, and the process pool, load on a
command's first use of them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib.util
import json
import os
import random
import re
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

from . import dominance
from .series import ParameterError, ResourceError, positive_ints, serialize


def _deferred(name: str):
    """The package's module `name`, whose body runs on its first attribute access.

    The stdlib LazyLoader recipe: the module is put in sys.modules and bound
    on the package as an import would, so `import qdominance.<name>` and
    anything that reads sys.modules (`perfbench/tracing.py`) see it.  A
    module already imported is kept as it is.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# The compute layers that only some commands run are compiled on first use.
antitelescope, lemma, partitions, polyring, proposal = map(
    _deferred, ("antitelescope", "lemma", "partitions", "polyring", "proposal")
)

# Largest interpret-check --max-n.  The count tables are packed ints, so
# memory stays small; time is the cost.  count_profile((1, 1, 1, n, n, n), n)
# takes 2.6 s at n = 40 (17 MB peak) and 11.5 s at n = 60 (18 MB peak) on
# a 2-vCPU VM, about n^3.7, so this bound admits requests of over a minute.
# The time bound is open in ROADMAP item 5 (run contract).
MAX_INTERPRET_N = 100
# Most assignments, partial ones included, that one sweep box walk may make.
# The [1, 4]^8 Thm2 box makes 87,380 of them for its 65,536 points.
MAX_BOX_ASSIGNMENTS = 10**5
FORMATS = ("json", "csv", "text")
CSV_COMMANDS = ("interpret-check", "sweep")
SWEEP_KINDS = ("dominance", "split", "lemma")

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class BoxCapError(ResourceError, ValueError):
    """Raised when a sweep box walk would make more than MAX_BOX_ASSIGNMENTS assignments."""


# The run flags, in the order `config` echoes them; each subcommand registers
# only those it reads (see `build_parser`), and each default is stated here once.
RUN_FLAGS = {
    "order": {"type": int, "default": 100, "help": "truncation order"},
    "bounds": {"default": "10,40,40", "help": "Nt,Nx,Ny kernel bounds"},
    "seed": {"type": int, "default": 0, "help": "seed for sweep --sample points"},
    "jobs": {"type": int, "default": 1, "help": "parallel workers for sweep"},
    "format": {"choices": FORMATS, "default": "json", "help": "output format"},
}


def _csv_ints(text: str, label: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ParameterError(f"{label} must be comma-separated integers, got {text!r}") from None
    if not values:
        raise ParameterError(f"{label} must not be empty")
    return values


def config_from_args(args: argparse.Namespace) -> dict:
    """The command's own run flags, in RUN_FLAGS order, with --bounds read as three ints.

    Only the run flags the command reads (``args.reads``) are checked.  Of
    --bounds only the form is checked here; its range and lattice size are
    `lemma`'s to check.
    """
    config = {name: getattr(args, name) for name in RUN_FLAGS if hasattr(args, name)}
    for name in ("order", "jobs"):
        if name in args.reads:
            positive_ints((config[name],), name, 1)
    if "bounds" in args.reads:
        config["bounds"] = _csv_ints(args.bounds, "--bounds")
        if len(config["bounds"]) != 3:
            raise ParameterError(f"--bounds needs exactly three integers, got {args.bounds!r}")
    return config


# --- report plumbing --------------------------------------------------------


def _json_default(value):
    """`json.dumps` hook: exact rationals print as strings such as '1/2'."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"cannot serialize {value!r}")


def _to_json(value) -> str:
    # every envelope is a tree built for one request, so no value can hold itself
    return json.dumps(value, default=_json_default, check_circular=False)


@dataclass(frozen=True)
class Outcome:
    """What one command found; `main` turns it into output and an exit code.

    ``ok`` is the verdict, ``params`` the echoed request, ``witness`` the
    first failure (or None) and ``result`` the report body (or None).
    ``table`` holds the CSV rows, header first, for the commands that have
    a CSV form, and None for the others.
    """

    ok: bool
    params: dict
    witness: object
    result: object
    table: list | None


def _write(stream, command: str, config: dict, outcome: Outcome, started: float) -> None:
    status = "pass" if outcome.ok else "fail"
    if config["format"] == "csv":
        csv.writer(stream).writerows(outcome.table)
        return
    if config["format"] == "text":
        stream.write(f"{command}: {status}\n")
        if outcome.witness is not None:
            stream.write(f"witness: {_to_json(outcome.witness)}\n")
        return
    env = {"command": command, "config": config, "params": outcome.params, "status": status}
    if outcome.witness is not None:
        env["witness"] = outcome.witness
    if outcome.result is not None:
        env["result"] = outcome.result
    env["timings"] = {"seconds": round(time.perf_counter() - started, 6)}
    # two writes, so the envelope text is not copied once more to append the newline
    stream.write(_to_json(env))
    stream.write("\n")


# --- parameter parsing ------------------------------------------------------

_ID_BY_LOWER = {name.lower(): name for name in dominance.INEQUALITY_IDS}


def inequality_id(text: str) -> str:
    try:
        return _ID_BY_LOWER[text.lower()]
    except KeyError:
        known = ", ".join(dominance.INEQUALITY_IDS)
        raise ParameterError(f"unknown inequality {text!r}; known: {known}") from None


def parse_inequality_params(ineq_id: str, text: str | None) -> dict:
    """Comma-separated integers in the declared parameter order.

    The generalized family takes ``L,m,x1..xn,r1..rn`` with the two
    groups of equal length.
    """
    required = dominance.REQUIRED_PARAMETERS[ineq_id]
    values = _csv_ints(text, "--params") if text else ()
    if ineq_id == "Proposal":
        if len(values) < 4 or (len(values) - 2) % 2 != 0:
            raise ParameterError(
                "Proposal takes L,m,x1..xn,r1..rn with equally many sizes and multipliers"
            )
        half = (len(values) - 2) // 2
        return {
            "L": values[0],
            "m": values[1],
            "xs": values[2 : 2 + half],
            "rs": values[2 + half :],
        }
    if len(values) != len(required):
        names = ",".join(required) if required else "(none)"
        raise ParameterError(f"{ineq_id} takes parameters {names}; got {len(values)} values")
    return dict(zip(required, values))


# --- check ------------------------------------------------------------------


def _dominance_witness(report: dominance.DominanceReport):
    if report.failure is None:
        return None
    return {"exponent": report.failure[0], "deficit": report.failure[1]}


def _cmd_check(args, config) -> Outcome:
    ineq_id = inequality_id(args.ineq)
    parameters = parse_inequality_params(ineq_id, args.params)
    report = dominance.check_named(dominance.NamedInequality(ineq_id, parameters), config["order"])
    result = dominance.report_dict(report, inequality=ineq_id, parameters=parameters)
    if args.dump_series:
        result["difference"] = serialize(report.difference)
    params = {"ineq": ineq_id, "params": parameters}
    return Outcome(report.holds, params, _dominance_witness(report), result, None)


# --- antitelescope ----------------------------------------------------------


def _scan_witness(rows):
    for row in rows:
        if row["addend"] is not None:
            n, c = row["addend"]
            return {"i": row["i"], "location": "addend", "exponent": n, "coefficient": c}
        for name, neg in row["groups"].items():
            if neg is not None:
                return {"i": row["i"], "location": name, "exponent": neg[0], "coefficient": neg[1]}
    return None


def _cmd_antitelescope(args, config) -> Outcome:
    ineq_id = inequality_id(args.ineq)
    if ineq_id == "RR":
        raise ParameterError("RR is an infinite-product statement; antitelescope its finite cousin finiteRR")
    parameters = parse_inequality_params(ineq_id, args.params)
    split = args.split
    if split != "none" and ineq_id not in ("Thm1", "Thm2"):
        raise ParameterError(f"--split {split} is only available for Thm1/Thm2 products")
    P, Q = dominance.build_specs(dominance.NamedInequality(ineq_id, parameters))
    scan = antitelescope.positivity_scan(P, Q, config["order"], split, args.dump_series)
    params = {"ineq": ineq_id, "params": parameters, "split": split}
    return Outcome(scan["all_nonnegative"], params, _scan_witness(scan["rows"]), scan, None)


# --- lemma ------------------------------------------------------------------


def _cmd_lemma(args, config) -> Outcome:
    report = lemma.certify_lemma(args.r, args.R, config["bounds"])
    result = {k: v for k, v in report.items() if k != "witness"}
    if args.dump_poly:
        term = lemma.kernel_term(args.r, args.R)
        result["kernel"] = {
            "numerator": polyring.to_text(term.numerator),
            "denominator": [polyring.to_text(f) for f in term.denominator_factors],
        }
    params = {"r": args.r, "R": args.R, "bounds": list(config["bounds"])}
    return Outcome(report["ok"], params, report["witness"], result, None)


# --- enumerate / interpret-check -------------------------------------------


def _partition_params(text: str) -> partitions.PartitionParams:
    values = _csv_ints(text, "--params")
    if len(values) != 6:
        raise ParameterError(f"--params takes m,x,y,r,R,L (six integers), got {len(values)}")
    return partitions.PartitionParams(*values)


def _cmd_enumerate(args, config) -> Outcome:
    params = _partition_params(args.params)
    listed = partitions.enumerate_partitions(args.n, params)
    result = {"n": args.n, "count": len(listed), "partitions": listed}
    return Outcome(True, {"params": list(params.as_tuple()), "n": args.n}, None, result, None)


_INTERPRET_COLUMNS = ["n", "V_count", "W_count", "series_V", "series_W", "match"]


def _cmd_interpret_check(args, config) -> Outcome:
    params = _partition_params(args.params)
    if args.max_n > MAX_INTERPRET_N:
        raise partitions.EnumerationCapError(
            f"--max-n {args.max_n} exceeds the interpret-check bound {MAX_INTERPRET_N}"
        )
    check = partitions.interpretation_check(params, args.max_n)
    table = [_INTERPRET_COLUMNS] + [
        [row[c] for c in _INTERPRET_COLUMNS[:-1]] + ["true" if row["match"] else "false"]
        for row in check["rows"]
    ]
    return Outcome(
        check["ok"],
        {"params": list(params.as_tuple()), "max_n": args.max_n},
        check["witness"],
        {"rows": check["rows"], "ok": check["ok"]},
        table,
    )


# --- proposal ---------------------------------------------------------------


def _cmd_proposal(args, config) -> Outcome:
    sizes = _csv_ints(args.x, "--x")
    multipliers = _csv_ints(args.r, "--r")
    params = proposal.proposal_params(sizes, multipliers)
    outcome = proposal.check_proposal(params, args.m, args.L, config["order"])
    witness = None
    if not outcome["holds"]:
        report = outcome["report"]
        witness = {"exponent": report["failure_exponent"], "deficit": report["deficit"]}
    params = {"x": list(sizes), "r": list(multipliers), "m": args.m, "L": args.L}
    return Outcome(outcome["holds"], params, witness, outcome, None)


# --- identities -------------------------------------------------------------


def _cmd_identities(args, config) -> Outcome:
    entries = [
        {"name": name, "equal": antitelescope.split_identity(split).equal}
        for name, split in (("three-factor-difference", "thm1"), ("four-factor-difference", "thm2"))
    ]
    # slice n's identity covers every r and R, so it certifies the n <= 4,
    # r, R <= 3 grid the entry reports on; the first slice that fails is
    # named with the first grid point it fails at, if any
    grid = [(r, R) for r in range(1, 4) for R in range(1, 4)]
    first_failure = None
    n = next((n for n in range(5) if not lemma.slice_identity(n).equal), None)
    if n is not None:
        r, R = next((p for p in grid if not lemma.check_eqone_eqthree(n, *p).equal), (None, None))
        first_failure = {"n": n, "r": r, "R": R}
    entries.append(
        {
            "name": "slice-closed-forms",
            "equal": first_failure is None,
            "checked": 5 * len(grid),
            "first_failure": first_failure,
        }
    )
    entries.append({"name": "four-variable-splitting", "equal": proposal.fourvar_identity().equal})
    ok = all(e["equal"] for e in entries)
    witness = None
    if not ok:
        witness = {"name": next(e["name"] for e in entries if not e["equal"])}
    return Outcome(ok, {}, witness, {"checks": entries}, None)


# --- sweep ------------------------------------------------------------------

_BOUND = re.compile(r"^([A-Za-z]+)(?:([+-])(\d+))?$")


def parse_box(text: str) -> list[tuple[str, str, str]]:
    """'m=3:8,r=1:m-1' -> ordered (name, low, high) entries."""
    entries = []
    for piece in text.split(","):
        name, eq, span = piece.partition("=")
        low, colon, high = span.partition(":")
        name, low, high = name.strip(), low.strip(), high.strip()
        if not name or not eq or not colon or not low or not high:
            raise ParameterError(f"box entries look like name=low:high, got {piece!r}")
        if any(name == seen for seen, _, _ in entries):
            raise ParameterError(f"box repeats variable {name!r}")
        entries.append((name, low, high))
    if not entries:
        raise ParameterError("box must bind at least one variable")
    return entries


def _resolve_bound(expr: str, assignment: dict) -> int:
    try:
        return int(expr)
    except ValueError:
        pass
    match = _BOUND.match(expr)
    if match is None or match.group(1) not in assignment:
        known = ", ".join(assignment) or "(none)"
        raise ParameterError(f"bound {expr!r} must be an integer or refer to an earlier variable ({known})")
    value = assignment[match.group(1)]
    if match.group(2):
        shift = int(match.group(3))
        value = value + shift if match.group(2) == "+" else value - shift
    return value


def expand_box(entries: list[tuple[str, str, str]]) -> list[dict]:
    """All assignments, nested in declaration order with the last variable fastest.

    Every value the walk assigns, to a partial assignment too, counts; a walk
    above MAX_BOX_ASSIGNMENTS raises BoxCapError before the range that
    crosses the bound is entered.
    """
    tuples: list[dict] = []
    assignment: dict = {}
    assigned = 0

    def descend(k: int) -> None:
        nonlocal assigned
        if k == len(entries):
            tuples.append(dict(assignment))
            return
        name, low, high = entries[k]
        lo = _resolve_bound(low, assignment)
        hi = _resolve_bound(high, assignment)
        assigned += max(0, hi + 1 - lo)
        if assigned > MAX_BOX_ASSIGNMENTS:
            raise BoxCapError(
                f"the box walk makes more than {MAX_BOX_ASSIGNMENTS} assignments, partial ones included"
            )
        for value in range(lo, hi + 1):
            assignment[name] = value
            descend(k + 1)
        assignment.pop(name, None)

    descend(0)
    return tuples


def _sweep_job(job: tuple) -> dict:
    """One box point; top-level so process pools can pickle it.

    A point out of its family's domain (ParameterError) is reported
    skipped; a point over a work bound raises its ResourceError, which
    refuses the sweep, and any other error propagates.
    """
    kind, ineq_id, parameters, order, bounds = job
    try:
        if kind == "lemma":
            report = lemma.certify_lemma(parameters["r"], parameters["R"], bounds)
            return {"status": "pass" if report["ok"] else "fail", "witness": report["witness"]}
        ineq = dominance.NamedInequality(ineq_id, parameters)
        if kind == "split":
            P, Q = dominance.build_specs(ineq)
            outcome = antitelescope.certify_split(P, Q, order, ineq_id.lower())
            return {"status": "pass" if outcome["ok"] else "fail", "witness": outcome["witness"]}
        report = dominance.check_named(ineq, order)
        row = {"status": "pass" if report.holds else "fail", "witness": _dominance_witness(report)}
        if ineq_id == "BGa" and dominance.bga_degenerate(parameters["m"], parameters["r"]):
            row["degenerate"] = True
        return row
    except ParameterError as exc:
        return {"status": "skipped", "witness": None, "reason": str(exc)}


def _sweep_points(args, config, ineq_id: str | None) -> tuple[list[tuple[str, str, str]], list[dict]]:
    entries = parse_box(args.box)
    names = [name for name, _, _ in entries]
    if args.kind == "lemma":
        if args.ineq is not None:
            raise ParameterError("--kind lemma takes no --ineq")
        lemma.check_lattice(config["bounds"])
        expected = {"r", "R"}
    else:
        if ineq_id is None:
            raise ParameterError(f"--kind {args.kind} needs --ineq")
        if ineq_id == "Proposal":
            raise ParameterError("sweep cannot express the variable-arity Proposal box; use check/proposal")
        if args.kind == "split" and ineq_id not in ("Thm1", "Thm2"):
            raise ParameterError("--kind split is only available for Thm1/Thm2")
        expected = set(dominance.REQUIRED_PARAMETERS[ineq_id])
    if set(names) != expected:
        raise ParameterError(f"box must bind exactly {sorted(expected)}, got {sorted(names)}")
    points = expand_box(entries)
    if args.sample is not None:
        positive_ints((args.sample,), "--sample", 1)
        if args.sample > len(points):
            raise ParameterError(f"--sample {args.sample} exceeds the box size {len(points)}")
        rng = random.Random(config["seed"])
        points = rng.sample(points, args.sample)
        points.sort(key=lambda p: tuple(p[name] for name in names))
    return entries, points


def pool_size(jobs: int, points: int) -> int:
    """Sweep worker processes: no more than requested, points to check, or CPUs."""
    return min(jobs, points, os.cpu_count() or 1)


def _cmd_sweep(args, config) -> Outcome:
    ineq_id = inequality_id(args.ineq) if args.ineq else None
    entries, points = _sweep_points(args, config, ineq_id)
    names = [name for name, _, _ in entries]
    jobs = [(args.kind, ineq_id, point, config["order"], config["bounds"]) for point in points]
    workers = pool_size(config["jobs"], len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_job, jobs, chunksize=16))
    else:
        rows = [_sweep_job(job) for job in jobs]
    passed = sum(1 for row in rows if row["status"] == "pass")
    failed = sum(1 for row in rows if row["status"] == "fail")
    skipped = sum(1 for row in rows if row["status"] == "skipped")
    if passed + failed == 0:
        reason = next((row["reason"] for row in rows), "the box is empty")
        raise ParameterError(f"no point of the box could be checked ({reason})")
    degenerate = sum(1 for row in rows if row.get("degenerate"))
    failures = [
        {"params": point, "witness": row["witness"]}
        for point, row in zip(points, rows)
        if row["status"] == "fail"
    ]
    table = [names + ["status", "witness"]] + [
        [point[name] for name in names]
        + [row["status"], "" if row["witness"] is None else _to_json(row["witness"])]
        for point, row in zip(points, rows)
    ]
    result = {
        "total": len(rows),
        "passed": passed,
        "failed": failed,
        "skipped": skipped,
        "degenerate": degenerate,
        "failures": failures,
    }
    params = {"kind": args.kind, "ineq": ineq_id, "box": args.box, "sample": args.sample}
    return Outcome(failed == 0, params, None, result, table)


# --- entry point ------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="qdominance",
        description="Exact truncated-series checks for q-product dominance and its certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler, flags) -> argparse.ArgumentParser:
        """A subcommand that registers the run flags it reads."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, reads=flags)
        for flag in flags:
            spec = RUN_FLAGS[flag]
            p.add_argument(f"--{flag}", **{**spec, "help": f"{spec['help']} (default {spec['default']})"})
        return p

    p = add("check", "coefficientwise dominance for one named inequality", _cmd_check, ("order", "format"))
    p.add_argument("--ineq", required=True, help="inequality id (case-insensitive)")
    p.add_argument("--params", help="comma-separated parameters in declared order")
    p.add_argument("--dump-series", action="store_true", help="include the difference series")

    p = add("antitelescope", "per-index addend positivity scan", _cmd_antitelescope, ("order", "format"))
    p.add_argument("--ineq", required=True)
    p.add_argument("--params")
    p.add_argument("--split", choices=dominance.SPLIT_MODES, default="none")
    p.add_argument("--dump-series", action="store_true", help="include every addend (and group) series")

    p = add("lemma", "kernel expansion: signs, slices, window, symmetry", _cmd_lemma, ("bounds", "format"))
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--dump-poly", action="store_true", help="include the kernel rational term")

    p = add("enumerate", "list colored partitions of one weight", _cmd_enumerate, ("format",))
    p.add_argument("--params", required=True, help="m,x,y,r,R,L")
    p.add_argument("--n", type=int, required=True, help="weight to enumerate")

    p = add("interpret-check", "counts vs series coefficients, row by row", _cmd_interpret_check, ("format",))
    p.add_argument("--params", required=True, help="m,x,y,r,R,L")
    p.add_argument("--max-n", type=int, default=30)

    p = add(
        "proposal", "generalized-tuple dominance with provenance status", _cmd_proposal, ("order", "format")
    )
    p.add_argument("--x", required=True, help="comma-separated sizes")
    p.add_argument("--r", required=True, help="comma-separated multipliers")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--L", type=int, required=True)

    p = add(
        "identities", "exact polynomial and closed-form identity certification", _cmd_identities, ("format",)
    )
    # every identity holds for all parameters, so these are never read; the
    # benchmark's kernel-lemma requests still send them
    for flag in ("order", "seed"):
        spec = {**RUN_FLAGS[flag], "help": "ignored: the identities hold for all values"}
        p.add_argument(f"--{flag}", **spec)

    p = add("sweep", "run one check over a parameter box and aggregate", _cmd_sweep, tuple(RUN_FLAGS))
    p.add_argument("--kind", choices=SWEEP_KINDS, default="dominance")
    p.add_argument("--ineq")
    p.add_argument("--box", required=True, help="e.g. m=3:8,r=1:m-1,L=1:3")
    p.add_argument("--sample", type=int, help="check a seeded sample instead of the whole box")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config = config_from_args(args)
        if config["format"] == "csv" and args.command not in CSV_COMMANDS:
            raise ParameterError(f"csv output is only available for {' and '.join(CSV_COMMANDS)}")
        outcome = args.handler(args, config)
    except ResourceError as exc:
        print(f"qdominance: resource: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParameterError as exc:
        print(f"qdominance: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write(sys.stdout, args.command, config, outcome, started)
    return EXIT_PASS if outcome.ok else EXIT_FAIL


def console(argv=None) -> int:
    """The console script: `main`, with an internal fault printed as a traceback and exit code 3."""
    try:
        return main(argv)
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(console())
