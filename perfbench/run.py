"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload split-certify --seed 1 --seconds 16 --trace 0

Run from the repository root; the program under test is imported from
``src/``.  Requests are ``qdominance`` CLI invocations issued in-process
through ``qdominance.cli.main(argv)`` with stdout captured, plus direct
``proposal.injection_evidence`` calls where the CLI caps the weight.

A run builds the workload's request set, rounds 0 .. SET_ROUNDS-1, and
issues round 0 once untimed as a warm-up.  It then issues the whole set in
passes, back to back.  The number of passes is fixed by the flags: as many
as fit in ``--seconds`` at the nominal pace of workloads.ROUND_SECONDS, and
at least MIN_PASSES.  So both sides of a comparison take each request's
fastest time over the same number of repetitions, however fast the machine
or the program runs.

The host is shared, and for seconds to minutes at a time it runs the same
code 40-100% slower.  So the gated latency metrics are normalized: a
calibration kernel runs between every two requests, and each request's
time is divided by the faster of the two kernel runs around it.  A latency
in ``cal`` is the request's time in units of the kernel's time at that
moment; it scales one to one with the program's own cost and moves much
less with the machine's speed.  Each request's normalized latency and CPU
time are the fastest of its passes.  The raw figures in ms are printed in
the report above the result.

Every response is checked against the oracle's expectation; responses to
repeated requests must also reproduce the first response's envelope.  Only
the call into the program is timed; building requests, the oracle, the
calibration kernel and checking are not.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` issues the
same rounds untraced and then traced, and prints the per-layer metrics
from the spans plus the tracing overhead.  The last stdout line is the
JSON result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_STARTS = 7
# Rounds in a --trace 0 run's request set: enough distinct requests for a
# tail percentile with ten samples beyond it, few enough for MIN_PASSES
# passes in the run time.
SET_ROUNDS = {"split-certify": 3, "dominance-deep": 4, "kernel-lemma": 3, "partitions-inject": 3}
# A --trace 0 run makes at least this many passes over its request set, so
# that every request's fastest repetition is taken from several moments
# spread over the run.
MIN_PASSES = 4
# The calibration kernel: the oracle's partition DP, a fixed few milliseconds
# of pure-Python big-integer additions that shares no code with the program.
CALIBRATION = (600, range(1, 120))
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import qdominance.cli\n"
    "qdominance.cli.build_parser()\n"
    "print(time.monotonic())\n"
)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(HERE.parent / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def calibrate() -> tuple[float, float]:
    """(wall s, CPU s) of one run of the calibration kernel."""
    wall, cpu = time.perf_counter(), time.process_time()
    oracle.partition_counts(*CALIBRATION)
    return time.perf_counter() - wall, time.process_time() - cpu


def setup_seconds() -> float:
    """Seconds from spawning a fresh interpreter until qdominance.cli is
    imported and its parser built (one monotonic clock for both sides)."""
    began = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1]) - began


class Client:
    """Issues requests and checks responses; keeps latencies and failures."""

    def __init__(self) -> None:
        from qdominance import cli, proposal

        self.cli, self.proposal = cli, proposal
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        self.kinds: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[tuple, str] = {}
        self.props: list[dict] = []

    def issue(self, req: workloads.Request):
        """Run one request; returns (exit code, output text, error, wall s, CPU s)."""
        out = io.StringIO()
        error = None
        code = None
        with contextlib.redirect_stdout(out):
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                if req.call:
                    _, xs, rs, max_weight = req.call
                    result = self.proposal.injection_evidence(self.proposal.proposal_params(xs, rs), max_weight)
                else:
                    code = self.cli.main(list(req.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                error = traceback.format_exc(limit=3)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if req.call and error is None:
            out.write(json.dumps(result))
        return code, out.getvalue(), error, wall, cpu

    def run(self, req: workloads.Request, timed: bool) -> None:
        code, text, error, wall, cpu = self.issue(req)
        if timed:
            self.latencies.append(wall)
            self.cpu.append(cpu)
            self.kinds.append(req.kind)
            self.props.append(req.props)
        self.attempted += 1
        problem = error
        if problem is None:
            try:
                payload = json.loads(text)
            except ValueError:
                payload, problem = None, f"unparsable output (exit {code})"
        if problem is None:
            problem = check(req, code, payload)
        if problem is None:
            digest = envelope_digest(payload)
            if self.digests.setdefault((req.argv, req.call), digest) != digest:
                problem = "envelope differs from an earlier response to the same request"
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{' '.join(req.argv) or req.call}: {problem}")


def envelope_digest(payload: dict) -> str:
    """SHA-256 of the canonical JSON of an envelope without its timings."""
    stripped = {key: value for key, value in payload.items() if key != "timings"}
    return hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()


def check(req: workloads.Request, code, payload: dict) -> str | None:
    """None when the response matches the oracle's expectation, else why not."""
    expect = req.expect
    if req.call:
        if not payload["ok"]:
            return f"injection evidence failed: {payload['failure']}"
        if payload["source_count"] != expect["source_count"]:
            return f"source count {payload['source_count']} != oracle {expect['source_count']}"
        return None
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    status = "pass" if expect["exit"] == 0 else "fail"
    if payload.get("status") != status:
        return f"status {payload.get('status')!r}, expected {status!r}"
    result = payload.get("result", {})
    if "witness" in expect and payload.get("witness") != expect["witness"]:
        return f"witness {payload.get('witness')}, oracle {expect['witness']}"
    if "total" in expect:
        got = (result.get("total"), result.get("passed"), result.get("skipped"))
        want = (expect["total"], expect["passed"], 0)
        if got != want:
            return f"sweep (total, passed, skipped) = {got}, expected {want}"
    if "count" in expect:
        if result["count"] != expect["count"] or len(result["partitions"]) != expect["count"]:
            return f"enumerated {result['count']} partitions, oracle {expect['count']}"
    if "rows" in expect:
        rows = result["rows"]
        if len(rows) != expect["rows"] or not all(row["match"] for row in rows):
            return "interpretation rows missing or mismatched"
    return None


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with at
    least ten samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(latencies)
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered) - 1 - rank


def input_properties(props: list[dict]) -> dict:
    """Measured input properties of the timed requests."""

    def total(key: str) -> int:
        return sum(p.get(key, 0) for p in props)

    points = total("split_points")
    orders = [p["order"] for p in props if "order" in p]
    return {
        "split_points": points,
        "split_share_L_ge_2": total("split_points_L2") / points if points else None,
        "split_share_thm2_rational": total("rational_points") / points if points else None,
        "orders": [min(orders), max(orders)] if orders else None,
        "max_coeff_bits": max((p.get("coeff_bits", 0) for p in props), default=0) or None,
        "interpret_partitions_visited": total("visited") or None,
        "enumerate_max_listed": max((p.get("listed", 0) for p in props), default=0) or None,
    }


def run(
    workload: str, seed: int, seconds: float, trace: bool, toy: bool = False, wrong_expectation: bool = False
) -> dict:
    """One benchmark run in this process; returns the result object and report lines."""
    lines = []
    client = Client()
    warmup = workloads.make_round(workload, seed, 0, toy)
    if wrong_expectation:  # the self-test's deliberately wrong expected verdict
        expect = warmup[0].expect
        if "source_count" in expect:
            expect["source_count"] += 1
        else:
            expect["exit"] = 1 - expect["exit"]
    for req in warmup:
        client.run(req, timed=False)
    client.props.clear()

    if not trace:
        # The request set: round 0 (the warm-up's requests) and the rounds after it.
        requests = warmup + [
            req for k in range(1, 1 if toy else SET_ROUNDS[workload])
            for req in workloads.make_round(workload, seed, k, toy)
        ]
        pass_nominal = SET_ROUNDS[workload] * workloads.ROUND_SECONDS[workload]
        passes = 1 if toy else max(MIN_PASSES, round(seconds / pass_nominal))
        # Set-up starts are spread over the passes, between requests, so that
        # a short machine slowdown cannot move their median.
        starts = 1 if toy else SETUP_STARTS
        stride = max(1, len(requests) * passes // starts)
        setups: list[float] = []
        # Per request, the fastest of its passes: raw wall and CPU seconds,
        # and wall and CPU time over the calibration kernel's around it.
        best = {key: [math.inf] * len(requests) for key in ("wall", "cpu", "wall_cal", "cpu_cal")}
        cal_ms: list[float] = []
        pass_ms: list[float] = []
        before = calibrate()
        for _ in range(passes):
            first = len(client.latencies)
            for i, req in enumerate(requests):
                client.run(req, timed=True)
                after = calibrate()
                cal_wall, cal_cpu = min(before[0], after[0]), min(before[1], after[1])
                cal_ms.append(1000 * after[0])
                wall, cpu = client.latencies[-1], client.cpu[-1]
                for key, value in (("wall", wall), ("cpu", cpu), ("wall_cal", wall / cal_wall), ("cpu_cal", cpu / cal_cpu)):
                    best[key][i] = min(best[key][i], value)
                before = after
                if len(client.latencies) % stride == 0 and len(setups) < starts:
                    setups.append(setup_seconds())
                    before = calibrate()
            pass_ms.append(1000 * sum(client.latencies[first:]))
        while len(setups) < starts:
            setups.append(setup_seconds())
        client.props = [req.props for req in requests]
        n = len(requests)
        tail_cal, pct, beyond = tail(best["wall_cal"])
        # One client in a closed loop completes one request per latency, so
        # its rate is the number of requests over the sum of their latencies.
        metrics = {
            "setup_s": statistics.median(setups),
            "req_per_kcal": 1000 * n / sum(best["wall_cal"]),
            "req_p50_cal": statistics.median(best["wall_cal"]),
            "req_tail_cal": tail_cal,
            "cpu_cal_per_req": sum(best["cpu_cal"]) / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = metric_units("end_to_end")
        lines.append(
            f"{workload} seed={seed}: {n} requests, each timed in {len(pass_ms)} passes "
            f"and taken at its fastest; closed loop, one client; setup median of {starts} starts"
        )
        lines.append(f"req_tail is p{pct:.1f} with {beyond} of {n} requests beyond it")
        lines.append(
            f"calibration kernel ms: fastest {min(cal_ms):.3f}, median {statistics.median(cal_ms):.3f}, "
            f"slowest {max(cal_ms):.3f} over {len(cal_ms)} runs"
        )
        by_kind = {}
        for req, wall in zip(requests, best["wall"]):
            by_kind.setdefault(req.kind, []).append(wall)
        lines.append("raw median ms by slot: " + ", ".join(
            f"{kind} {1000 * statistics.median(walls):.1f}" for kind, walls in sorted(by_kind.items())))
        lines.append("pass ms: " + " ".join(f"{ms:.0f}" for ms in pass_ms))
        # The raw figures, as measured on this machine at this time.
        lines.append(f"req_per_s {n / sum(best['wall'])} 1/s")
        lines.append(f"req_p50_ms {1000 * statistics.median(best['wall'])} ms")
        lines.append(f"req_tail_ms {1000 * sorted(best['wall'])[-1 - beyond]} ms")
        lines.append(f"cpu_ms_per_req {1000 * sum(best['cpu']) / n} ms")
    else:
        from tracing import LAYERS, Tracer, layer_shares

        # A round count fixed by the flags, so that counts repeat exactly for a seed:
        # the rounds an untraced pass of half the time makes at the nominal pace.
        rounds = max(1, math.ceil(seconds / 2 / workloads.ROUND_SECONDS[workload]))
        for k in range(rounds):
            for req in workloads.make_round(workload, seed, k, toy):
                client.run(req, timed=True)
        untraced = sum(client.latencies)
        for samples in (client.latencies, client.cpu, client.kinds, client.props):
            samples.clear()
        tracer = Tracer()
        tracer.install()
        try:
            for k in range(rounds):
                for req in workloads.make_round(workload, seed, k, toy):
                    tracer.request += 1
                    client.run(req, timed=True)
        finally:
            tracer.uninstall()
        traced = sum(client.latencies)
        metrics = tracer.summary()
        metrics["tracing.overhead_ratio"] = traced / untraced - 1
        units = metric_units("per_layer")
        out_dir = HERE.parent / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload}-{seed}.bin")
        shares = layer_shares(metrics)
        lines.append(
            f"{workload} seed={seed}: {len(client.latencies)} requests in {rounds} rounds, "
            f"traced {traced:.3f} s vs untraced {untraced:.3f} s, {len(tracer.name_of)} spans"
        )
        lines.append("self-time share: " + ", ".join(f"{layer} {shares[layer]:.3f}" for layer in LAYERS))

    digest = hashlib.sha256("".join(client.digests.values()).encode()).hexdigest()
    failed_ratio = client.failed / client.attempted
    lines.append(f"failed_ratio {failed_ratio} ratio ({client.failed} of {client.attempted} requests)")
    for problem in client.problems:
        lines.append(f"failure: {problem}")
    lines.append("input " + json.dumps(input_properties(client.props)))
    lines.append(f"digest {digest}")
    for name, unit in units.items():
        lines.append(f"{name} {metrics[name]} {unit}")
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return {"result": result, "lines": lines, "failed_ratio": failed_ratio, "digest": digest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qdominance" / "cli.py").is_file():
        print(f"perfbench: no qdominance sources under {SRC}", file=sys.stderr)
        return 2
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
