"""Outside-in span tracing of the qdominance layers.

`Tracer.install` wraps every public module-level function of each layer
module in every package namespace that binds it (``antitelescope`` calls
``divide_binomial`` through its own import, so patching ``series`` alone
would miss those calls).  Each call records one span -- name, parent span,
request id, start, end -- into flat arrays kept in memory; `summary`
turns them into the per-layer metrics after the run, and `write` dumps
them to a file.  A layer's self time is its spans' time minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

PACKAGE = "qdominance"
LAYERS = ("cli", "dominance", "series", "antitelescope", "lemma", "polyring", "partitions", "proposal")

# Inclusive time of the outermost span among these functions, per metric.
INCLUSIVE = {
    "series.reciprocal_self_s": ("series.spec_reciprocal", "series.reciprocal_from_exponents", "series.series_reciprocal"),
    "antitelescope.split_s": ("antitelescope.thm1_split", "antitelescope.thm2_split"),
    "dominance.check_s": ("dominance.check_named", "dominance.dominates"),
    "lemma.slice_s": ("lemma.slice_eqtwo",),
    "lemma.window_s": ("lemma.negativity_window",),
    "lemma.symmetry_s": ("lemma.symmetry_check",),
    "polyring.expand_rational_s": ("polyring.expand_rational",),
    "polyring.identity_check_s": ("polyring.identity_check",),
    "partitions.count_profile_s": ("partitions.count_profile",),
    "partitions.split_series_s": ("partitions.split_series",),
    "partitions.enumerate_s": ("partitions.enumerate_partitions",),
    "proposal.injection_s": ("proposal.injection_evidence",),
    "proposal.h_series_s": ("proposal.h_series",),
    "proposal.fourvar_s": ("proposal.fourvar_identity",),
    "cli.build_parser_s": ("cli.build_parser",),
}

# Number of spans of these functions, per metric.
CALLS = {
    "series.binomial_calls": ("series.multiply_binomial", "series.divide_binomial"),
    "antitelescope.split_calls": ("antitelescope.thm1_split", "antitelescope.thm2_split"),
    "antitelescope.addend_calls": ("antitelescope.addend",),
    "polyring.poly_ops": ("polyring.mp_add", "polyring.mp_sub", "polyring.mp_mul"),
}

BINOMIALS = CALLS["series.binomial_calls"]


def _coeff_ops(tracer, args, kwargs, result) -> None:
    series, exponent = (*args, *kwargs.values())[:2]
    if 0 < exponent <= series.order:
        tracer.counters["series.coeff_ops"] += series.order + 1 - exponent


def _coeff_bits(tracer, args, kwargs, result) -> None:
    bits = max(abs(c.numerator).bit_length() for c in result.coeffs)
    tracer.counters["series.max_coeff_bits"] = max(tracer.counters["series.max_coeff_bits"], bits)


def _sources(tracer, args, kwargs, result) -> None:
    tracer.counters["proposal.source_vectors"] += result["source_count"]


# Result and argument probes, run after the span has closed.
HOOKS = {
    "series.multiply_binomial": _coeff_ops,
    "series.divide_binomial": _coeff_ops,
    "series.spec_reciprocal": _coeff_bits,
    "proposal.injection_evidence": _sources,
}


class Tracer:
    """Span recorder; `install` patches the package, `uninstall` restores it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.request_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.request = -1
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        stack, clock = self.stack, time.perf_counter
        name_of, parent, request_of, start, end = (
            self.name_of, self.parent, self.request_of, self.start, self.end
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            request_of.append(self.request)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [sys.modules[PACKAGE]] + [sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS]
        wrappers = {}
        for module in modules[1:]:
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not value.__name__.startswith("_")
                ):
                    layer = module.__name__.rpartition(".")[2]
                    wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """One JSON header line (span names and column order), then the span columns as raw arrays."""
        columns = (self.name_of, self.parent, self.request_of, self.start, self.end)
        header = {
            "names": self.names,
            "spans": len(self.name_of),
            "columns": ["name", "parent", "request", "start", "end"],
            "typecodes": [c.typecode for c in columns],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                column.tofile(out)

    def summary(self) -> dict[str, float]:
        """Per-layer self time and calls, plus the named per-function metrics."""
        n = len(self.name_of)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        covered = [0.0] * n
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                covered[p] += end[sid] - start[sid]
        spans_of: list[list[int]] = [[] for _ in self.names]
        self_by_name = [0.0] * len(self.names)
        for sid in range(n):
            nid = name_of[sid]
            spans_of[nid].append(sid)
            self_by_name[nid] += end[sid] - start[sid] - covered[sid]

        def ids(names) -> set[int]:
            return {self.name_ids[m] for m in names if m in self.name_ids}

        def calls(names) -> int:
            return sum(len(spans_of[i]) for i in ids(names))

        def outermost_time(names) -> float:
            wanted = ids(names)
            total = 0.0
            for nid in wanted:
                for sid in spans_of[nid]:
                    p = parent[sid]
                    while p >= 0 and name_of[p] not in wanted:
                        p = parent[p]
                    if p < 0:
                        total += end[sid] - start[sid]
            return total

        out: dict[str, float] = {}
        for layer in LAYERS:
            owned = [i for i, name in enumerate(self.names) if name.partition(".")[0] == layer]
            out[f"{layer}.self_s"] = sum(self_by_name[i] for i in owned)
            out[f"{layer}.calls"] = sum(len(spans_of[i]) for i in owned)
        for metric, names in CALLS.items():
            out[metric] = calls(names)
        out["series.binomial_self_s"] = sum(self_by_name[i] for i in ids(BINOMIALS))
        for metric, names in INCLUSIVE.items():
            out[metric] = outermost_time(names)
        for metric in ("series.coeff_ops", "series.max_coeff_bits", "proposal.source_vectors"):
            out[metric] = self.counters[metric]
        reports = calls(("cli.lemma_report",))
        out["lemma.f_expand_per_req"] = calls(("lemma.f_expand",)) / reports if reports else 0.0
        return out


def layer_shares(summary: dict[str, float]) -> dict[str, float]:
    """Each layer's share of the summed layer self time."""
    total = sum(summary[f"{layer}.self_s"] for layer in LAYERS) or 1.0
    return {layer: summary[f"{layer}.self_s"] / total for layer in LAYERS}
