"""Toy-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and prints every
metric named in BENCHMARK.json with its unit.  It then checks that
  * every run passes its oracle checks (failed_ratio 0),
  * two runs with the same seed print the same envelope digest, and
  * a run with one deliberately wrong expected verdict reports it in
    failed_ratio and is not marked correct.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import sys

import run
import workloads


def main() -> int:
    problems = []
    for workload in workloads.WORKLOADS:
        digests = set()
        for trace in (False, True):
            outcome = run.run(workload, seed=7, seconds=0.2, trace=trace, toy=True)
            digests.add(outcome["digest"])
            for line in outcome["lines"]:
                print(f"[{workload} trace={int(trace)}] {line}")
            metrics = outcome["result"]["metrics"]
            expected = run.metric_units("per_layer" if trace else "end_to_end")
            if {name: m["unit"] for name, m in metrics.items()} != expected:
                problems.append(f"{workload}: metrics differ from BENCHMARK.json")
            if outcome["failed_ratio"] != 0:
                problems.append(f"{workload}: failed_ratio {outcome['failed_ratio']} on correct code")
        if len(digests) != 1:
            problems.append(f"{workload}: digest changed between two runs of seed 7")
        wrong = run.run(workload, seed=7, seconds=0.2, trace=False, toy=True, wrong_expectation=True)
        print(f"[{workload} wrong expectation] failed_ratio {wrong['failed_ratio']} ratio")
        if wrong["failed_ratio"] == 0 or wrong["result"]["correct"]:
            problems.append(f"{workload}: a wrong expected verdict went unnoticed")
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
