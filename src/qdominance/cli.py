"""Command-line surface binding the checks into reproducible runs.

Every subcommand prints a single JSON envelope

    {command, config, params, status, witness?, result?, timings}

to stdout and exits 0 when every check passed, 1 when a mathematical
check failed (the envelope carries a witness), and 2 on usage or
resource errors.  ``interpret-check`` and ``sweep`` can emit CSV
instead; a terse text rendering is available everywhere.  All defaults
live in RunConfig and print into every report header, so a published
number can be reproduced from the report alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import antitelescope, dominance, lemma, partitions, polyring, proposal
from .series import serialize, series_sub, spec_reciprocal

ENV_ORDER = "QDOMINANCE_ORDER"
DEFAULT_ORDER = 100
DEFAULT_BOUNDS = (10, 40, 40)
DEFAULT_CAP = 40
CSV_COMMANDS = ("interpret-check", "sweep")
SWEEP_KINDS = ("dominance", "split", "lemma")

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Bad flags or an out-of-contract request; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Run-wide defaults echoed into every report header."""

    order: int = DEFAULT_ORDER
    bounds: tuple[int, int, int] = DEFAULT_BOUNDS
    cap: int = DEFAULT_CAP
    seed: int = 0
    jobs: int = 1
    format: str = "json"

    def __post_init__(self) -> None:
        if self.order < 1:
            raise UsageError(f"order must be a positive integer, got {self.order}")
        if len(self.bounds) != 3 or any(b < 1 for b in self.bounds):
            raise UsageError(f"bounds must be three positive integers, got {self.bounds}")
        if self.cap < 1:
            raise UsageError(f"cap must be a positive integer, got {self.cap}")
        if self.jobs < 1:
            raise UsageError(f"jobs must be a positive integer, got {self.jobs}")
        if self.format not in ("json", "csv", "text"):
            raise UsageError(f"format must be json, csv or text, got {self.format!r}")

    def as_dict(self) -> dict:
        return {
            "order": self.order,
            "bounds": list(self.bounds),
            "cap": self.cap,
            "seed": self.seed,
            "jobs": self.jobs,
            "format": self.format,
        }


def _default_order() -> int:
    raw = os.environ.get(ENV_ORDER)
    if raw is None:
        return DEFAULT_ORDER
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{ENV_ORDER} must be an integer, got {raw!r}") from None


def _csv_ints(text: str, label: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"{label} must be comma-separated integers, got {text!r}") from None
    if not values:
        raise UsageError(f"{label} must not be empty")
    return values


def config_from_args(args: argparse.Namespace) -> RunConfig:
    order = args.order if args.order is not None else _default_order()
    bounds = DEFAULT_BOUNDS
    if args.bounds is not None:
        parsed = _csv_ints(args.bounds, "--bounds")
        if len(parsed) != 3:
            raise UsageError(f"--bounds needs exactly three integers, got {args.bounds!r}")
        bounds = parsed
    return RunConfig(
        order=order,
        bounds=bounds,
        cap=args.cap if args.cap is not None else DEFAULT_CAP,
        seed=args.seed if args.seed is not None else 0,
        jobs=args.jobs if args.jobs is not None else 1,
        format=args.format if args.format is not None else "json",
    )


# --- report plumbing --------------------------------------------------------


def _jsonable(value):
    """Recursively convert report values to plain JSON types."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str, float)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {value!r}")


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


def _write(stream, command: str, config: RunConfig, outcome: Outcome, started: float) -> None:
    status = "pass" if outcome.ok else "fail"
    if config.format == "csv":
        csv.writer(stream).writerows(outcome.table)
        return
    if config.format == "text":
        stream.write(f"{command}: {status}\n")
        if outcome.witness is not None:
            stream.write(f"witness: {json.dumps(_jsonable(outcome.witness))}\n")
        return
    env = {"command": command, "config": config.as_dict(), "params": outcome.params, "status": status}
    if outcome.witness is not None:
        env["witness"] = outcome.witness
    if outcome.result is not None:
        env["result"] = outcome.result
    env["timings"] = {"seconds": round(time.perf_counter() - started, 6)}
    json.dump(_jsonable(env), stream)
    stream.write("\n")


# --- parameter parsing ------------------------------------------------------

_ID_BY_LOWER = {name.lower(): name for name in dominance.INEQUALITY_IDS}


def inequality_id(text: str) -> str:
    try:
        return _ID_BY_LOWER[text.lower()]
    except KeyError:
        known = ", ".join(dominance.INEQUALITY_IDS)
        raise UsageError(f"unknown inequality {text!r}; known: {known}") from None


def parse_inequality_params(ineq_id: str, text: str | None) -> dict:
    """Comma-separated integers in the declared parameter order.

    The generalized family takes ``L,m,x1..xn,r1..rn`` with the two
    groups of equal length.
    """
    required = dominance.REQUIRED_PARAMETERS[ineq_id]
    values = _csv_ints(text, "--params") if text else ()
    if ineq_id == "Proposal":
        if len(values) < 4 or (len(values) - 2) % 2 != 0:
            raise UsageError(
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
        raise UsageError(f"{ineq_id} takes parameters {names}; got {len(values)} values")
    return dict(zip(required, values))


def _params_jsonable(parameters: dict) -> dict:
    return {k: _jsonable(v) for k, v in parameters.items()}


# --- check ------------------------------------------------------------------


def _dominance_witness(report: dominance.DominanceReport):
    if report.failure is None:
        return None
    return {"exponent": report.failure[0], "deficit": report.failure[1]}


def _cmd_check(args, config) -> Outcome:
    ineq_id = inequality_id(args.ineq)
    parameters = _params_jsonable(parse_inequality_params(ineq_id, args.params))
    report = dominance.check_named(dominance.NamedInequality(ineq_id, parameters), config.order)
    result = dominance.report_dict(report, inequality=ineq_id, parameters=parameters)
    if args.dump_series:
        lhs, rhs = report.lhs_spec, report.rhs_spec
        diff = series_sub(spec_reciprocal(lhs, config.order), spec_reciprocal(rhs, config.order))
        result["difference"] = serialize(diff)
    params = {"ineq": ineq_id, "params": parameters}
    return Outcome(report.holds, params, _dominance_witness(report), result, None)


# --- antitelescope ----------------------------------------------------------


def _antitelescope_parameters(args, ineq_id: str) -> dict:
    required = dominance.REQUIRED_PARAMETERS[ineq_id]
    parameters = parse_inequality_params(ineq_id, args.params) if args.params else {}
    if args.L is not None:
        if "L" not in required:
            raise UsageError(f"{ineq_id} has no length parameter")
        if not parameters and required == ("L",):
            parameters = {"L": args.L}
        else:
            parameters["L"] = args.L
    if set(parameters) != set(required):
        names = ",".join(required)
        raise UsageError(f"{ineq_id} needs parameters {names}; pass --params (and/or --L)")
    return parameters


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
        raise UsageError("RR is an infinite-product statement; antitelescope its finite cousin finiteRR")
    parameters = _antitelescope_parameters(args, ineq_id)
    split = args.split
    if split != "none" and ineq_id not in ("Thm1", "Thm2"):
        raise UsageError(f"--split {split} is only available for Thm1/Thm2 products")
    P, Q = dominance.build_specs(dominance.NamedInequality(ineq_id, parameters))
    scan = antitelescope.positivity_scan(P, Q, config.order, split, args.dump_series)
    params = {"ineq": ineq_id, "params": _params_jsonable(parameters), "split": split}
    return Outcome(scan["all_nonnegative"], params, _scan_witness(scan["rows"]), scan, None)


# --- lemma ------------------------------------------------------------------


def lemma_report(r: int, R: int, bounds: tuple[int, int, int]) -> dict:
    """Composite kernel-expansion check: signs, slices, window, symmetry."""
    params = lemma.LemmaParams(r, R, bounds)
    tri = lemma.f_expand(params)
    minimum = tri.min_coefficient()
    slice_mismatch = None
    for n in range(bounds[0] + 1):
        got = lemma.slice_eqtwo(n, params)
        if got.coeffs != tuple(tuple(row) for row in tri.slice_at(n)):
            slice_mismatch = n
            break
    window = lemma.negativity_window(params)
    symmetry = lemma.symmetry_check(r, R, bounds) if bounds[1] == bounds[2] else None
    checks = {
        "expansion_nonnegative": minimum >= 0,
        "slices_match": slice_mismatch is None,
        "window": window["ok"],
        "symmetry": None if symmetry is None else symmetry["equal"],
    }
    witness = None
    if not checks["expansion_nonnegative"]:
        witness = {"check": "expansion_nonnegative", "min_coefficient": minimum}
    elif not checks["slices_match"]:
        witness = {"check": "slices_match", "n": slice_mismatch}
    elif not checks["window"]:
        witness = {"check": "window", "details": window["checks"]}
    elif checks["symmetry"] is False:
        witness = {"check": "symmetry", "details": symmetry["first_mismatch"]}
    return {
        "r": r,
        "R": R,
        "bounds": list(bounds),
        "checks": checks,
        "min_coefficient": minimum,
        "window": window,
        "symmetry": symmetry,
        "ok": witness is None,
        "witness": witness,
    }


def _cmd_lemma(args, config) -> Outcome:
    if args.r < 1 or args.R < 1:
        raise UsageError(f"multipliers must be positive, got r={args.r}, R={args.R}")
    report = lemma_report(args.r, args.R, config.bounds)
    result = {k: v for k, v in report.items() if k != "witness"}
    if args.dump_poly:
        term = lemma.kernel_term(args.r, args.R)
        result["kernel"] = {
            "numerator": polyring.to_text(term.numerator),
            "denominator": [polyring.to_text(f) for f in term.denominator_factors],
        }
    params = {"r": args.r, "R": args.R, "bounds": list(config.bounds)}
    return Outcome(report["ok"], params, report["witness"], result, None)


# --- enumerate / interpret-check -------------------------------------------


def _partition_params(text: str) -> partitions.PartitionParams:
    values = _csv_ints(text, "--params")
    if len(values) != 6:
        raise UsageError(f"--params takes m,x,y,r,R,L (six integers), got {len(values)}")
    return partitions.PartitionParams.from_values(values)


def _cmd_enumerate(args, config) -> Outcome:
    params = _partition_params(args.params)
    items = partitions.enumerate_partitions(args.n, params, cap=config.cap)
    listed = [
        [[base, index, mult] for (base, index), mult in p.counts] for p in items
    ]
    result = {"n": args.n, "count": len(items), "partitions": listed}
    return Outcome(True, {"params": list(params.as_tuple()), "n": args.n}, None, result, None)


_INTERPRET_COLUMNS = ["n", "V_count", "W_count", "series_V", "series_W", "match"]


def _cmd_interpret_check(args, config) -> Outcome:
    params = _partition_params(args.params)
    if args.max_n < 0:
        raise UsageError(f"--max-n must be nonnegative, got {args.max_n}")
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
    if args.n is not None and args.n != len(sizes):
        raise UsageError(f"--n {args.n} disagrees with the {len(sizes)} sizes in --x")
    params = proposal.proposal_params(sizes, multipliers)
    if args.m < 1 or args.L < 1:
        raise UsageError(f"m and L must be positive, got m={args.m}, L={args.L}")
    outcome = proposal.check_proposal(params, args.m, args.L, config.order)
    witness = None
    if not outcome["holds"]:
        report = outcome["report"]
        witness = {"exponent": report["failure_exponent"], "deficit": report["deficit"]}
    params = {"x": list(sizes), "r": list(multipliers), "m": args.m, "L": args.L}
    return Outcome(outcome["holds"], params, witness, outcome, None)


# --- identities -------------------------------------------------------------


def _polynomial_identity_entry(name: str, sides) -> dict:
    lhs, rhs = sides
    verdict = polyring.identity_check(
        [polyring.RationalTerm(lhs)], [polyring.RationalTerm(rhs)]
    )
    return {"name": name, "equal": verdict.equal}


def _cmd_identities(args, config) -> Outcome:
    entries = [
        _polynomial_identity_entry("three-factor-difference", polyring.three_factor_identity_sides()),
        _polynomial_identity_entry("four-factor-difference", polyring.four_factor_identity_sides()),
    ]
    checked = 0
    first_failure = None
    for n in range(5):
        for r in range(1, 4):
            for R in range(1, 4):
                verdict = lemma.check_eqone_eqthree(n, r, R)
                checked += 1
                if not verdict.equal and first_failure is None:
                    first_failure = {"n": n, "r": r, "R": R}
    entries.append(
        {
            "name": "slice-closed-forms",
            "equal": first_failure is None,
            "checked": checked,
            "first_failure": first_failure,
        }
    )
    rng = random.Random(config.seed)
    tuples = [tuple(rng.randint(1, 3) for _ in range(8)) for _ in range(5)]
    order = min(config.order, 24)
    four_failure = None
    for t in tuples:
        verdict = proposal.fourvar_identity(t, order)
        if not verdict["equal"] and four_failure is None:
            four_failure = {"params": list(t), "witness": verdict["witness"]}
    entries.append(
        {
            "name": "four-variable-splitting",
            "equal": four_failure is None,
            "tuples": [list(t) for t in tuples],
            "order": order,
            "first_failure": four_failure,
        }
    )
    ok = all(e["equal"] for e in entries)
    witness = None
    if not ok:
        witness = {"name": next(e["name"] for e in entries if not e["equal"])}
    return Outcome(ok, {"seed": config.seed}, witness, {"checks": entries}, None)


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
            raise UsageError(f"box entries look like name=low:high, got {piece!r}")
        if any(name == seen for seen, _, _ in entries):
            raise UsageError(f"box repeats variable {name!r}")
        entries.append((name, low, high))
    if not entries:
        raise UsageError("box must bind at least one variable")
    return entries


def _resolve_bound(expr: str, assignment: dict) -> int:
    try:
        return int(expr)
    except ValueError:
        pass
    match = _BOUND.match(expr)
    if match is None or match.group(1) not in assignment:
        known = ", ".join(assignment) or "(none)"
        raise UsageError(f"bound {expr!r} must be an integer or refer to an earlier variable ({known})")
    value = assignment[match.group(1)]
    if match.group(2):
        shift = int(match.group(3))
        value = value + shift if match.group(2) == "+" else value - shift
    return value


def expand_box(entries: list[tuple[str, str, str]]) -> list[dict]:
    """All assignments, nested in declaration order with the last variable fastest."""
    tuples: list[dict] = []
    assignment: dict = {}

    def descend(k: int) -> None:
        if k == len(entries):
            tuples.append(dict(assignment))
            return
        name, low, high = entries[k]
        lo = _resolve_bound(low, assignment)
        hi = _resolve_bound(high, assignment)
        for value in range(lo, hi + 1):
            assignment[name] = value
            descend(k + 1)
        assignment.pop(name, None)

    descend(0)
    return tuples


def _sweep_job(job: tuple) -> dict:
    """One box point; top-level so process pools can pickle it."""
    kind, ineq_id, parameters, order, bounds = job
    try:
        if kind == "lemma":
            report = lemma_report(parameters["r"], parameters["R"], bounds)
            return {"status": "pass" if report["ok"] else "fail", "witness": report["witness"]}
        ineq = dominance.NamedInequality(ineq_id, parameters)
        if kind == "split":
            P, Q = dominance.build_specs(ineq)
            outcome = antitelescope.certify_split(P, Q, order, ineq_id.lower())
            return {"status": "pass" if outcome["ok"] else "fail", "witness": outcome["witness"]}
        report = dominance.check_named(ineq, order)
        row = {
            "status": "pass" if report.holds else "fail",
            "witness": _dominance_witness(report),
        }
        if ineq_id == "BGa" and dominance.bga_degenerate(parameters["m"], parameters["r"]):
            row["degenerate"] = True
        return row
    except ValueError as exc:
        return {"status": "skipped", "witness": None, "reason": str(exc)}


def _sweep_points(args, config, ineq_id: str | None) -> tuple[list[tuple[str, str, str]], list[dict]]:
    entries = parse_box(args.box)
    names = [name for name, _, _ in entries]
    if args.kind == "lemma":
        expected = {"r", "R"}
    else:
        if ineq_id is None:
            raise UsageError(f"--kind {args.kind} needs --ineq")
        if ineq_id == "Proposal":
            raise UsageError("sweep cannot express the variable-arity Proposal box; use check/proposal")
        if args.kind == "split" and ineq_id not in ("Thm1", "Thm2"):
            raise UsageError("--kind split is only available for Thm1/Thm2")
        expected = set(dominance.REQUIRED_PARAMETERS[ineq_id])
    if set(names) != expected:
        raise UsageError(f"box must bind exactly {sorted(expected)}, got {sorted(names)}")
    points = expand_box(entries)
    if args.sample is not None:
        if args.sample < 1:
            raise UsageError(f"--sample must be positive, got {args.sample}")
        if args.sample > len(points):
            raise UsageError(f"--sample {args.sample} exceeds the box size {len(points)}")
        rng = random.Random(config.seed)
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
    jobs = [(args.kind, ineq_id, point, config.order, config.bounds) for point in points]
    workers = pool_size(config.jobs, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_job, jobs, chunksize=16))
    else:
        rows = [_sweep_job(job) for job in jobs]
    passed = sum(1 for row in rows if row["status"] == "pass")
    failed = sum(1 for row in rows if row["status"] == "fail")
    skipped = sum(1 for row in rows if row["status"] == "skipped")
    if passed + failed == 0:
        reason = next((row["reason"] for row in rows), "the box is empty")
        raise UsageError(f"no point of the box could be checked ({reason})")
    degenerate = sum(1 for row in rows if row.get("degenerate"))
    failures = [
        {"params": point, "witness": row["witness"]}
        for point, row in zip(points, rows)
        if row["status"] == "fail"
    ]
    table = [names + ["status", "witness"]] + [
        [point[name] for name in names]
        + [row["status"], "" if row["witness"] is None else json.dumps(_jsonable(row["witness"]))]
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdominance",
        description="Exact truncated-series checks for q-product dominance and its certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--order", type=int, default=None, help=f"truncation order (default {DEFAULT_ORDER}, env {ENV_ORDER})")
        p.add_argument("--bounds", default=None, help="Nt,Nx,Ny kernel bounds (default 10,40,40)")
        p.add_argument("--cap", type=int, default=None, help=f"enumeration weight cap (default {DEFAULT_CAP})")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized checks (default 0)")
        p.add_argument("--jobs", type=int, default=None, help="parallel workers for sweep (default 1)")
        p.add_argument("--format", choices=("json", "csv", "text"), default=None, help="output format (default json)")
        return p

    p = add("check", "coefficientwise dominance for one named inequality")
    p.add_argument("--ineq", required=True, help="inequality id (case-insensitive)")
    p.add_argument("--params", default=None, help="comma-separated parameters in declared order")
    p.add_argument("--dump-series", action="store_true", help="include the difference series")

    p = add("antitelescope", "per-index addend positivity scan")
    p.add_argument("--ineq", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--L", type=int, default=None, help="number of layers (shorthand for the L slot)")
    p.add_argument("--split", choices=antitelescope.SPLIT_MODES, default="none")
    p.add_argument("--dump-series", action="store_true", help="include every addend (and group) series")

    p = add("lemma", "kernel expansion: signs, slices, window, symmetry")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--dump-poly", action="store_true", help="include the kernel rational term")

    p = add("enumerate", "list colored partitions of one weight")
    p.add_argument("--params", required=True, help="m,x,y,r,R,L")
    p.add_argument("--n", type=int, required=True, help="weight to enumerate")

    p = add("interpret-check", "counts vs series coefficients, row by row")
    p.add_argument("--params", required=True, help="m,x,y,r,R,L")
    p.add_argument("--max-n", type=int, default=30)

    p = add("proposal", "generalized-tuple dominance with provenance status")
    p.add_argument("--x", required=True, help="comma-separated sizes")
    p.add_argument("--r", required=True, help="comma-separated multipliers")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="arity; checked against --x when given")

    add("identities", "exact polynomial and closed-form identity certification")

    p = add("sweep", "run one check over a parameter box and aggregate")
    p.add_argument("--kind", choices=SWEEP_KINDS, default="dominance")
    p.add_argument("--ineq", default=None)
    p.add_argument("--box", required=True, help="e.g. m=3:8,r=1:m-1,L=1:3")
    p.add_argument("--sample", type=int, default=None, help="check a seeded sample instead of the whole box")

    return parser


_HANDLERS = {
    "check": _cmd_check,
    "antitelescope": _cmd_antitelescope,
    "lemma": _cmd_lemma,
    "enumerate": _cmd_enumerate,
    "interpret-check": _cmd_interpret_check,
    "proposal": _cmd_proposal,
    "identities": _cmd_identities,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        config = config_from_args(args)
        if config.format == "csv" and args.command not in CSV_COMMANDS:
            raise UsageError(f"csv output is only available for {' and '.join(CSV_COMMANDS)}")
        outcome = _HANDLERS[args.command](args, config)
    except partitions.EnumerationCapError as exc:
        print(f"qdominance: resource: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"qdominance: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write(sys.stdout, args.command, config, outcome, started)
    return EXIT_PASS if outcome.ok else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
