"""End-to-end tests for the command-line surface."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_partitions

from qdominance import antitelescope, cli, lemma, partitions, polyring, proposal, series
from qdominance.antitelescope import positivity_scan
from qdominance.cli import (
    EXIT_INTERNAL,
    MAX_BOX_ASSIGNMENTS,
    RUN_FLAGS,
    build_parser,
    config_from_args,
    console,
    expand_box,
    main,
    parse_box,
    parse_inequality_params,
    pool_size,
)
from qdominance.lemma import MAX_LATTICE_CELLS
from qdominance.partitions import MAX_INTERPRET_N
from qdominance.series import MAX_SERIES_WORK, ParameterError, ResourceError, product_spec


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timings(out):
    """The envelope text without its wall-clock member."""
    envelope = json.loads(out)
    assert isinstance(envelope.pop("timings"), dict)
    return json.dumps(envelope)


def report(out):
    """Parse the JSON envelope and drop the wall-clock field."""
    envelope = json.loads(out)
    envelope.pop("timings", None)
    return envelope


def parsed_config(argv):
    return config_from_args(build_parser().parse_args(argv))


class TestConfig:
    LEMMA_SWEEP = ["sweep", "--kind", "lemma", "--box", "r=1:1,R=1:1"]

    def test_defaults(self):
        config = parsed_config(self.LEMMA_SWEEP)
        assert config == {"order": 100, "bounds": (10, 40, 40), "seed": 0, "jobs": 1, "format": "json"}
        assert parsed_config(["check", "--ineq", "RR"]) == {"order": 100, "format": "json"}

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ParameterError):
            parsed_config(["check", "--ineq", "RR", "--order", "0"])

    # the range of --bounds is lemma's to check, for `lemma` and `sweep --kind lemma` alike
    @pytest.mark.parametrize("field", [{"jobs": "0"}, {"jobs": "-1"}, {"bounds": "4,-1,8"}, {"order": "-3"}])
    def test_rejects_each_nonpositive_run_value(self, field, capsys):
        ((name, value),) = field.items()
        code, out, err = run_cli(self.LEMMA_SWEEP + [f"--{name}", value], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"qdominance: error: {name} must be")

    def test_bad_bounds_rejected(self, capsys):
        code, _, err = run_cli(["lemma", "--r", "1", "--R", "1", "--bounds", "4,8"], capsys)
        assert code == 2
        assert "three" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestRunFlags:
    # the run flags each command registers, in the order its config echoes them
    REGISTERED = {
        "check": ["order", "format"],
        "antitelescope": ["order", "format"],
        "lemma": ["bounds", "format"],
        "enumerate": ["format"],
        "interpret-check": ["format"],
        "proposal": ["order", "format"],
        "identities": ["order", "seed", "format"],
        "sweep": ["order", "bounds", "seed", "jobs", "format"],
    }
    # a request each command runs, then one run flag it does not read; sweep reads
    # every run flag, so it gets the removed --cap
    UNREAD = {
        "check": (["check", "--ineq", "RR", "--order", "10"], ["--bounds", "0,1,1"]),
        "antitelescope": (["antitelescope", "--ineq", "finiteRR", "--params", "2"], ["--seed", "3"]),
        "lemma": (["lemma", "--r", "2", "--R", "3", "--bounds", "2,5,5"], ["--order", "7"]),
        "enumerate": (["enumerate", "--params", "5,1,1,2,2,2", "--n", "6"], ["--jobs", "2"]),
        "interpret-check": (["interpret-check", "--params", "5,1,1,2,2,2", "--max-n", "6"], ["--seed", "9"]),
        "proposal": (["proposal", "--x", "1,2", "--r", "2,2", "--m", "5", "--L", "1"], ["--bounds", "1,1,1"]),
        "identities": (["identities"], ["--jobs", "2"]),
        "sweep": (["sweep", "--ineq", "BGa", "--box", "m=5:5,r=1:4,L=1:1", "--order", "12"], ["--cap", "60"]),
    }

    @pytest.mark.parametrize("command", UNREAD)
    def test_a_run_flag_the_command_does_not_read_is_refused(self, command, capsys):
        argv, flag = self.UNREAD[command]
        code, out, _ = run_cli(argv, capsys)
        assert code in (0, 1)
        assert list(report(out)["config"]) == self.REGISTERED[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--params", "5,1,1,2,2,2", "--n", "6", "--cap", "60"],
            ["antitelescope", "--ineq", "finiteRR", "--L", "2"],
            ["proposal", "--x", "1,2", "--r", "2,2", "--m", "5", "--L", "1", "--n", "2"],
        ],
        ids=["enumerate-cap", "antitelescope-L", "proposal-n"],
    )
    def test_removed_knobs_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestParamParsing:
    def test_declared_order(self):
        params = parse_inequality_params("Thm1", "2,3,1,2,2,2")
        assert params == {"L": 2, "m": 3, "x": 1, "y": 2, "r": 2, "R": 2}

    def test_proposal_splits_sizes_and_multipliers(self):
        params = parse_inequality_params("Proposal", "1,3,1,2,2,3")
        assert params == {"L": 1, "m": 3, "xs": (1, 2), "rs": (2, 3)}

    def test_proposal_odd_tail_rejected(self):
        with pytest.raises(ParameterError):
            parse_inequality_params("Proposal", "1,3,1,2,2")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ParameterError):
            parse_inequality_params("Thm1", "2,3,1")

    def test_length_override(self):
        # the L slot of --params is the only way to set the length
        assert parse_inequality_params("finiteRR", "4") == {"L": 4}
        params = parse_inequality_params("BGa", "7,2,3")
        assert params == {"m": 7, "r": 2, "L": 3}
        assert list(params) == ["m", "r", "L"]
        with pytest.raises(ParameterError, match="takes parameters L,m,x,y,r,R; got 1 values"):
            parse_inequality_params("Thm1", "2")


class TestCheck:
    def test_thm1_example_holds(self, capsys):
        code, out, _ = run_cli(
            ["check", "--ineq", "thm1", "--params", "2,3,1,2,2,2", "--order", "40"], capsys
        )
        assert code == 0
        envelope = report(out)
        assert envelope["status"] == "pass"
        assert envelope["result"]["holds"] is True
        assert "witness" not in envelope

    def test_nonpositive_length_is_a_usage_error(self, capsys):
        code, out, err = run_cli(["check", "--ineq", "thm1", "--params", "0,1,1,1,1,1"], capsys)
        assert code == 2
        assert out == ""
        assert "L" in err

    def test_unknown_inequality(self, capsys):
        code, _, err = run_cli(["check", "--ineq", "thm9", "--params", "1"], capsys)
        assert code == 2
        assert "thm9" in err

    def test_failing_tuple_reports_witness(self, capsys):
        code, out, _ = run_cli(
            ["check", "--ineq", "BGa", "--params", "6,2,1", "--order", "40"], capsys
        )
        assert code == 1
        envelope = report(out)
        assert envelope["status"] == "fail"
        assert envelope["witness"]["exponent"] == 4
        assert envelope["result"]["holds"] is False

    def test_dump_series_lists_every_coefficient(self, capsys):
        code, out, _ = run_cli(
            ["check", "--ineq", "finiteRR", "--params", "2", "--order", "12", "--dump-series"],
            capsys,
        )
        assert code == 0
        lines = report(out)["result"]["difference"].splitlines()
        assert len(lines) == 13
        assert lines[0] == "0: 0"


class TestAntitelescope:
    def test_infinite_products_are_refused(self):
        with pytest.raises(ValueError, match="finite products"):
            positivity_scan(product_spec((1, 4), 5), product_spec((2, 3), 5), 10)

    def test_finite_products_convert(self):
        scan = positivity_scan(product_spec((1, 4), 5, 3), product_spec((2, 3), 5, 3), 10)
        assert scan["L"] == 3
        assert [row["i"] for row in scan["rows"]] == [1, 2, 3]

    def test_naive_failure_witness(self, capsys):
        code, out, _ = run_cli(
            ["antitelescope", "--ineq", "finiteRR", "--params", "2", "--split", "none"], capsys
        )
        assert code == 1
        envelope = report(out)
        assert envelope["witness"] == {
            "i": 2,
            "location": "addend",
            "exponent": 8,
            "coefficient": -1,
        }
        assert envelope["result"]["all_nonnegative"] is False

    def test_split_groups_reported_per_index(self, capsys):
        code, out, _ = run_cli(
            [
                "antitelescope",
                "--ineq",
                "thm1",
                "--params",
                "2,3,1,2,2,2",
                "--split",
                "thm1",
                "--order",
                "30",
            ],
            capsys,
        )
        assert code == 0
        rows = report(out)["result"]["rows"]
        assert [row["i"] for row in rows] == [1, 2]
        assert all(set(row["groups"]) == {"V", "W"} for row in rows)

    def test_infinite_products_rejected(self, capsys):
        code, _, err = run_cli(["antitelescope", "--ineq", "RR"], capsys)
        assert code == 2
        assert "finiteRR" in err

    def test_split_requires_matching_family(self, capsys):
        code, _, err = run_cli(
            ["antitelescope", "--ineq", "bgr", "--params", "3,2", "--split", "thm1"], capsys
        )
        assert code == 2
        assert "Thm1" in err

    def test_dump_series_covers_groups(self, capsys):
        code, out, _ = run_cli(
            [
                "antitelescope",
                "--ineq",
                "thm1",
                "--params",
                "1,2,1,1,2,2",
                "--split",
                "thm1",
                "--order",
                "10",
                "--dump-series",
            ],
            capsys,
        )
        assert code == 0
        dumps = report(out)["result"]["series"]
        assert len(dumps) == 1 and set(dumps[0]["groups"]) == {"V", "W"}


def x_and_y_swapped_without_X_and_Y():
    """The symmetry identity's sides with the swapped side's X and Y left in place: they differ."""
    variables, (t, x, y, X, Y) = ("t", "x", "y", "X", "Y"), polyring._Form.units(5)
    return [([lemma._kernel(variables, t, x, y, X, Y)], [lemma._kernel(variables, t, y, x, X, Y)])]


def with_wrong_symmetry(monkeypatch):
    """Give lemma's `kernel-symmetry` row the sides above; return their verdict."""
    rows = tuple(
        (name, x_and_y_swapped_without_X_and_Y if name == "kernel-symmetry" else sides)
        for name, sides in lemma.IDENTITIES
    )
    monkeypatch.setattr(lemma, "IDENTITIES", rows)
    return polyring.decide_identity(x_and_y_swapped_without_X_and_Y)


class TestLemma:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run_cli(["lemma", "--r", "2", "--R", "2", "--bounds", "4,8,8"], capsys)
        assert code == 0
        checks = report(out)["result"]["checks"]
        assert checks == {
            "expansion_nonnegative": True,
            "slices_match": True,
            "window": True,
            "symmetry": True,
        }

    def test_nonpositive_multiplier_rejected(self, capsys):
        code, _, err = run_cli(["lemma", "--r", "0", "--R", "2"], capsys)
        assert code == 2
        assert "positive" in err
        # the same validator names a single value in the singular
        code, _, err = run_cli(["antitelescope", "--ineq", "littleGollnitz", "--params", "0"], capsys)
        assert code == 2
        assert "littleGollnitz parameters (L) must be a positive integer, got 0" in err

    def test_bounds_are_lemmas_to_range_check(self, capsys):
        # LemmaParams admits Nt = 0, so the command does too, and so does a lemma sweep
        code, out, _ = run_cli(["lemma", "--r", "2", "--R", "3", "--bounds", "0,5,5"], capsys)
        assert code == 0
        certified = {k: v for k, v in lemma.certify_lemma(2, 3, (0, 5, 5)).items() if k != "witness"}
        assert report(out)["result"] == json.loads(json.dumps(certified))
        argv = ["sweep", "--kind", "lemma", "--box", "r=2:2,R=3:3", "--bounds", "0,5,5"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert report(out)["result"]["passed"] == 1
        code, _, err = run_cli(["lemma", "--r", "2", "--R", "3", "--bounds", "0,-1,5"], capsys)
        assert code == 2
        assert err == "qdominance: error: bounds must be three nonnegative integers: (0, -1, 5)\n"

    def test_a_failing_symmetry_identity_is_the_witness_on_any_box(self, capsys, monkeypatch):
        wrong = with_wrong_symmetry(monkeypatch)
        assert set(wrong.witness) == {"monomial", "coefficient"}
        for bounds in ("3,8,8", "3,8,10"):
            code, out, _ = run_cli(["lemma", "--r", "3", "--R", "1", "--bounds", bounds], capsys)
            assert code == 1
            envelope = report(out)
            assert envelope["witness"] == {"check": "symmetry", "details": wrong.witness}
            assert envelope["result"]["symmetry"] == {"equal": False, "first_mismatch": wrong.witness}
            assert envelope["result"]["checks"]["symmetry"] is False

    def test_a_failing_symmetry_identity_fails_every_lemma_sweep_point(self, capsys, monkeypatch):
        details = with_wrong_symmetry(monkeypatch).witness
        argv = ["sweep", "--kind", "lemma", "--box", "r=1:2,R=1:2", "--bounds", "3,8,10"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 1
        result = report(out)["result"]
        assert (result["total"], result["failed"]) == (4, 4)
        assert all(f["witness"] == {"check": "symmetry", "details": details} for f in result["failures"])

    def test_dump_poly_prints_kernel(self, capsys):
        code, out, _ = run_cli(
            ["lemma", "--r", "1", "--R", "2", "--bounds", "3,6,6", "--dump-poly"], capsys
        )
        assert code == 0
        kernel = report(out)["result"]["kernel"]
        assert "numerator" in kernel and len(kernel["denominator"]) > 0

    # (1+1)(2+1)(166666+1) = MAX_LATTICE_CELLS + 2 cells: the smallest lattice
    # above the bound with every side positive
    CAPPED_BOUNDS = "1,2,166666"

    def test_bounds_above_the_lattice_bound_are_a_resource_error(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the bound must be checked before any packing")

        # the packed planes and the slice terms' planes
        monkeypatch.setattr(lemma, "Planes", refuse)
        monkeypatch.setattr(lemma, "slice_planes", refuse)
        argv = ["lemma", "--r", "2", "--R", "3", "--bounds", self.CAPPED_BOUNDS]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("qdominance: resource:")
        assert str(MAX_LATTICE_CELLS) in err

    def test_lemma_sweep_bounds_are_checked_before_any_point(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the bound must be checked before any point runs")

        monkeypatch.setattr(cli, "_sweep_job", refuse)
        monkeypatch.setattr(lemma, "Planes", refuse)
        monkeypatch.setattr(lemma, "slice_planes", refuse)
        argv = ["sweep", "--kind", "lemma", "--box", "r=1:2,R=1:2", "--bounds", self.CAPPED_BOUNDS]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("qdominance: resource:")


class TestSeriesWorkBound:
    # Each request is over MAX_SERIES_WORK only through its --order.
    OVER = str(MAX_SERIES_WORK)
    REQUESTS = {
        "check": ["check", "--ineq", "RR", "--order", OVER],
        "antitelescope": ["antitelescope", "--ineq", "Thm1", "--params", "1,5,1,1,2,2", "--order", OVER],
        "proposal": ["proposal", "--x", "1,2", "--r", "2,2", "--m", "5", "--L", "1", "--order", OVER],
        "sweep": ["sweep", "--ineq", "BGa", "--box", "m=5:5,r=1:4,L=1:1", "--order", OVER],
        "sweep-split": [
            "sweep", "--kind", "split", "--ineq", "Thm1",
            "--box", "L=1:1,m=2:2,x=1:1,y=1:1,r=1:2,R=1:2", "--order", OVER,
        ],
    }

    @pytest.mark.parametrize("name", REQUESTS)
    def test_order_above_the_bound_is_a_resource_error(self, name, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the bound must be checked before any expansion")

        monkeypatch.setattr(series, "_double", refuse)
        code, out, err = run_cli(self.REQUESTS[name], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("qdominance: resource:")
        assert str(MAX_SERIES_WORK) in err

    def test_scan_rows_count_in_the_bound(self, capsys, monkeypatch):
        # one row per index: 10^6 rows of 11 coefficients are over the bound at order 10
        def refuse(*args):
            raise AssertionError("the bound must be checked before any expansion")

        monkeypatch.setattr(series, "_double", refuse)
        argv = ["antitelescope", "--ineq", "finiteRR", "--params", "1000000", "--order", "10"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == (
            "qdominance: resource: series work (order + 1) x (1 + rows + factors) = 11000099"
            f" exceeds the bound {MAX_SERIES_WORK}\n"
        )

    def test_split_sweep_cost_stops_at_the_order(self, capsys, monkeypatch):
        # the split walk stops at the first index with t = (i-1)m above the order
        divide, calls = series._Signed.divide, []

        def counted(packing, x, exponents):
            calls.append(exponents)
            return divide(packing, x, exponents)

        monkeypatch.setattr(series._Signed, "divide", counted)
        box = "L=1000000:1000000,m=1:1,x=1:1,y=1:1,r=1:1,R=1:1"
        code, out, _ = run_cli(["sweep", "--kind", "split", "--ineq", "Thm1", "--box", box, "--order", "10"], capsys)
        assert code == 0
        assert report(out)["result"] == {
            "total": 1, "passed": 1, "failed": 0, "skipped": 0, "degenerate": 0, "failures": []
        }
        assert len(calls) <= 13


def _identity_past_its_bound():
    # 1 + x^e spans e + 1 slots of 3 bits each: one bit above the bound
    span = (polyring.MAX_IDENTITY_BITS + 1) // 3
    polyring.identity_check([polyring.RationalTerm(polyring.MultiPoly(("x",), {(0,): 1, (span - 1,): 1}))], [])


@pytest.mark.parametrize(
    "module, former, base, request_past_the_bound",
    [
        pytest.param(
            series, "SeriesCapError", ValueError,
            lambda: series.require_series_work([product_spec((1,), 1)], MAX_SERIES_WORK),
            id="SeriesCapError-ValueError",
        ),
        pytest.param(
            polyring, "IdentityCapError", ValueError, _identity_past_its_bound,
            id="IdentityCapError-ValueError",
        ),
        pytest.param(
            proposal, "InjectionCapError", ValueError,
            lambda: proposal.injection_evidence(proposal.proposal_params((1,) * 8, (1,) * 8), 24),
            id="InjectionCapError-ValueError",
        ),
        pytest.param(
            lemma, "LatticeCapError", RuntimeError,
            lambda: lemma.check_lattice((100, 9900, 0)),
            id="LatticeCapError-RuntimeError",
        ),
        pytest.param(
            partitions, "EnumerationCapError", RuntimeError,
            lambda: partitions.enumerate_partitions(41, partitions.PartitionParams(5, 1, 1, 2, 2, 2)),
            id="EnumerationCapError-RuntimeError",
        ),
        pytest.param(
            cli, "BoxCapError", ValueError,
            lambda: expand_box(parse_box("m=1:100000000,r=2:1")),
            id="BoxCapError-ValueError",
        ),
    ],
)
def test_every_cap_error_is_a_resource_error(module, former, base, request_past_the_bound):
    # main and the sweep workers catch ResourceError alone: each bound raises it itself,
    # not a per-module subclass, and the old second base no longer catches it
    assert not hasattr(module, former)
    with pytest.raises(ResourceError) as refused:
        request_past_the_bound()
    assert type(refused.value) is ResourceError
    assert not isinstance(refused.value, base)


class TestEnumerate:
    def test_lists_colored_partitions(self, capsys):
        code, out, _ = run_cli(["enumerate", "--params", "50,1,1,3,3,1", "--n", "2"], capsys)
        assert code == 0
        result = report(out)["result"]
        assert result["count"] == 4
        assert result["partitions"] == [
            [["X", 1, 1], ["Y", 1, 1]],
            [["X", 1, 2]],
            [["Y", 1, 2]],
            [["XY", 1, 1]],
        ]

    def test_cap_is_a_resource_error(self, capsys):
        code, out, err = run_cli(["enumerate", "--params", "5,1,1,2,2,2", "--n", "45"], capsys)
        assert code == 2
        assert out == ""
        assert "cap" in err

    def test_count_above_the_bound_is_a_resource_error(self, capsys, monkeypatch):
        monkeypatch.setattr(partitions, "MAX_ENUMERATED_PARTITIONS", 3)
        code, out, err = run_cli(["enumerate", "--params", "50,1,1,3,3,1", "--n", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("qdominance: resource: 4 partitions of weight 2")

    def test_large_listing_is_the_reference_walk(self, capsys):
        code, out, _ = run_cli(["enumerate", "--params", "4,1,1,4,4,2", "--n", "25"], capsys)
        assert code == 0
        result = report(out)["result"]
        walked = reference_partitions.enumerate_partitions(25, partitions.PartitionParams(4, 1, 1, 4, 4, 2))
        assert result["count"] == len(result["partitions"]) == 8488
        assert json.dumps(result["partitions"]) == json.dumps([p.counts for p in walked])

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.integers(1, 6), *[st.integers(1, 4)] * 4, st.integers(1, 3)),
        st.integers(0, 10),
    )
    def test_listing_envelope_matches_the_reference_walk(self, values, n):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["enumerate", "--params", ",".join(map(str, values)), "--n", str(n)])
        assert code == 0
        walked = [p.counts for p in reference_partitions.enumerate_partitions(n, partitions.PartitionParams(*values))]
        result = report(stdout.getvalue())["result"]
        assert json.dumps(result) == json.dumps({"n": n, "count": len(walked), "partitions": walked})

    def test_weight_above_the_bound_is_refused_before_any_expansion(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the weight must be checked before any expansion")

        monkeypatch.setattr(partitions, "_part_kinds", refuse)
        monkeypatch.setattr(partitions, "reciprocal_from_exponents", refuse)
        argv = ["enumerate", "--params", "1,1,1,1,1,1000000", "--n", "4000"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        cap = partitions.MAX_ENUMERATED_WEIGHT
        assert err == f"qdominance: resource: weight 4000 exceeds the enumeration cap {cap}\n"


class TestInterpretCheck:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            ["interpret-check", "--params", "5,1,1,2,2,2", "--max-n", "6", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,V_count,W_count,series_V,series_W,match"
        assert lines[1] == "0,0,0,0,0,true"
        assert lines[-1] == "6,1,1,1,1,true"

    def test_json_report_passes(self, capsys):
        code, out, _ = run_cli(
            ["interpret-check", "--params", "4,2,3,1,2,2", "--max-n", "8"], capsys
        )
        assert code == 0
        envelope = report(out)
        assert envelope["status"] == "pass"
        assert len(envelope["result"]["rows"]) == 9

    def test_max_n_above_the_bound_is_a_resource_error(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the bound must be checked before any counting")

        monkeypatch.setattr(partitions, "count_profile", refuse)
        monkeypatch.setattr(partitions, "split_series", refuse)
        argv = ["interpret-check", "--params", "5,1,1,2,2,2", "--max-n", str(MAX_INTERPRET_N + 1)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("qdominance: resource:")
        assert str(MAX_INTERPRET_N) in err

    def test_negative_max_n_is_refused_before_any_counting(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("max_n must be checked before any counting")

        monkeypatch.setattr(partitions, "_base_table", refuse)
        monkeypatch.setattr(partitions, "split_series", refuse)
        code, out, err = run_cli(["interpret-check", "--params", "5,1,1,2,2,2", "--max-n", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("qdominance: error:")


class TestProposal:
    def test_theorem_case_with_injection(self, capsys):
        code, out, _ = run_cli(
            ["proposal", "--x", "1,2", "--r", "2,3", "--m", "3", "--L", "1", "--order", "40"],
            capsys,
        )
        assert code == 0
        result = report(out)["result"]
        assert result["status"] == "theorem"
        assert result["injection"]["ok"] is True

    def test_longer_length_is_conjecture_evidence(self, capsys):
        code, out, _ = run_cli(
            [
                "proposal",
                "--x", "1,2,1,2",
                "--r", "2,2,3,2",
                "--m", "4",
                "--L", "2",
                "--order", "30",
            ],
            capsys,
        )
        assert code == 0
        result = report(out)["result"]
        assert result["status"] == "conjecture-evidence"
        assert result["injection"] is None

    @pytest.mark.parametrize("m, L", [("0", "1"), ("1", "0")])
    def test_nonpositive_m_or_L_is_refused_before_any_expansion(self, m, L, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the parameters must be checked before any expansion")

        monkeypatch.setattr(series, "_double", refuse)
        monkeypatch.setattr(proposal, "injection_evidence", refuse)
        code, out, err = run_cli(["proposal", "--x", "1,2", "--r", "2,3", "--m", m, "--L", L], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("qdominance: error:")

    def test_eight_unit_sizes_are_a_resource_error(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the bound must be checked before any vector is built")

        monkeypatch.setattr(proposal, "_count_prefixes", refuse)
        units = ",".join(["1"] * 8)
        code, out, err = run_cli(["proposal", "--x", units, "--r", units, "--m", "1", "--L", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("qdominance: resource:")
        assert str(proposal.MAX_INJECTION_SOURCES) in err


class TestIdentities:
    def test_all_families_certify(self, capsys):
        code, out, _ = run_cli(["identities", "--order", "20"], capsys)
        assert code == 0
        checks = {entry["name"]: entry["equal"] for entry in report(out)["result"]["checks"]}
        assert checks == {
            "three-factor-difference": True,
            "four-factor-difference": True,
            "kernel-slices": True,
            "kernel-symmetry": True,
            "four-variable-splitting": True,
        }

    def test_a_perturbed_split_numerator_fails_the_command(self, capsys, monkeypatch):
        n, numerators, scale = antitelescope._SPLITS["thm2"]

        def dropped(values, t):
            (name, [(lead, exps), *more]), *rest = numerators(values, t)
            return ((name, [(lead, exps[1:]), *more]), *rest)

        monkeypatch.setitem(antitelescope._SPLITS, "thm2", (n, dropped, scale))
        code, out, _ = run_cli(["identities", "--order", "20"], capsys)
        assert code == 1
        # the lowest monomial of the t = 0 identity's difference: the dropped binomial's a
        monomial = {"t": 0, "x": 0, "y": 0, "z": 0, "a": 1, "b": 0, "c": 0}
        assert report(out)["witness"] == {"name": "four-factor-difference", "monomial": monomial, "coefficient": "-1"}

    def test_a_patched_h_addend_fails_the_command(self, capsys, monkeypatch):
        table = list(proposal._H_ADDENDS)
        table[4] = (3, "AA-")
        monkeypatch.setattr(proposal, "_H_ADDENDS", tuple(table))
        code, out, _ = run_cli(["identities"], capsys)
        assert code == 1
        monomial = {"x": 0, "y": 0, "z": 0, "w": 0, "a": 0, "b": 1, "c": 1, "d": 0}
        assert report(out)["witness"] == {"name": "four-variable-splitting", "monomial": monomial, "coefficient": "-6"}

    def test_a_patched_slice_term_names_kernel_slices(self, capsys, monkeypatch):
        """T9's x Y^2 written as x Y^3: the slice identity fails with a monomial witness."""
        slices = lemma._slices

        def t9_with_Y_cubed(variables, t, x, y, X, Y):
            groups = slices(variables, t, x, y, X, Y)
            [term] = groups[8][1]
            numerator = {(*e[:4], e[4] + 1): c for e, c in term.numerator.terms.items()}
            groups[8] = ("T9", [polyring.RationalTerm(polyring.MultiPoly(variables, numerator), term.denominator_factors)])
            return groups

        monkeypatch.setattr(lemma, "_slices", t9_with_Y_cubed)
        code, out, _ = run_cli(["identities"], capsys)
        assert code == 1
        envelope = report(out)
        # the lowest monomial of the cleared difference is T9's own t x Y^2
        monomial = {"t": 1, "x": 1, "y": 0, "X": 0, "Y": 2}
        assert envelope["witness"] == {"name": "kernel-slices", "monomial": monomial, "coefficient": "1"}
        assert polyring.decide_identity(lemma.kernel_slices_sides).witness == {"monomial": monomial, "coefficient": "1"}
        assert {"name": "kernel-slices", "equal": False} in envelope["result"]["checks"]

    def test_a_failing_kernel_symmetry_names_its_entry(self, capsys, monkeypatch):
        wrong = with_wrong_symmetry(monkeypatch)
        code, out, _ = run_cli(["identities"], capsys)
        assert code == 1
        envelope = report(out)
        assert envelope["witness"] == {"name": "kernel-symmetry", **wrong.witness}
        assert {"name": "kernel-symmetry", "equal": False} in envelope["result"]["checks"]

    def test_seed_and_order_leave_the_result_alone(self, capsys):
        """Every check holds for all parameters, so the run flags change only the config echo."""
        results = [
            report(run_cli(["identities", "--seed", seed, "--order", order], capsys)[1])["result"]
            for seed in ("1", "7")
            for order in ("16", "100")
        ]
        assert all(result == results[0] for result in results)
        assert {"name": "four-variable-splitting", "equal": True} in results[0]["checks"]

    def test_unread_run_flags_are_not_range_checked(self, capsys):
        """identities never reads --order or --seed, so values other commands refuse run."""
        code, out, err = run_cli(["identities", "--order", "0", "--seed", "-4"], capsys)
        assert (code, err) == (0, "")
        assert report(out)["config"] == {"order": 0, "seed": -4, "format": "json"}

    def test_each_check_is_decided_once_per_process(self, capsys, monkeypatch):
        """Two identities runs and a lemma request decide the table's 7 pairs once each."""
        calls = []
        check = polyring.identity_check

        def counted(lhs, rhs):
            calls.append(1)
            return check(lhs, rhs)

        for module in (antitelescope, lemma, polyring, proposal):
            if hasattr(module, "identity_check"):
                monkeypatch.setattr(module, "identity_check", counted)
        for argv in (["identities"], ["identities"], ["lemma", "--r", "2", "--R", "3", "--bounds", "2,5,5"]):
            assert run_cli(argv, capsys)[0] == 0
        assert len(calls) == 7

    def test_identity_bound_is_a_resource_error(self, capsys, monkeypatch):
        monkeypatch.setattr(polyring, "MAX_IDENTITY_BITS", 1)
        code, out, err = run_cli(["identities"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("qdominance: resource: packed identity of")


class TestBoxParsing:
    def test_dependent_upper_bound(self):
        entries = parse_box("m=3:4,r=1:m-1")
        points = expand_box(entries)
        assert points == [
            {"m": 3, "r": 1},
            {"m": 3, "r": 2},
            {"m": 4, "r": 1},
            {"m": 4, "r": 2},
            {"m": 4, "r": 3},
        ]

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ParameterError):
            parse_box("m=1:2,m=3:4")

    def test_forward_reference_rejected(self):
        with pytest.raises(ParameterError):
            expand_box(parse_box("r=1:m-1,m=3:4"))

    def test_malformed_entry_rejected(self):
        with pytest.raises(ParameterError):
            parse_box("m=3")


    def test_box_walk_is_bounded(self, monkeypatch):
        # the [1, 4]^8 Thm2 box fits the real bound; 10^8 partial assignments do not
        box = ",".join(f"{name}=1:4" for name in ("L", "m", "x", "y", "z", "r", "R", "rho"))
        assert len(expand_box(parse_box(box))) == 4**8
        with pytest.raises(ResourceError, match=f"more than {MAX_BOX_ASSIGNMENTS} assignments"):
            expand_box(parse_box("m=1:100000000,r=2:1"))
        monkeypatch.setattr(cli, "MAX_BOX_ASSIGNMENTS", 6)
        # 2 + 2 * 2 assignments
        assert len(expand_box(parse_box("m=1:2,r=1:2"))) == 4
        with pytest.raises(ResourceError, match="more than 6 assignments"):
            expand_box(parse_box("m=1:2,r=1:3"))
        # partial assignments count: no point, but seven values of m
        with pytest.raises(ResourceError, match="more than 6 assignments"):
            expand_box(parse_box("m=1:7,r=2:1"))


class TestSweep:
    def test_box_walk_above_the_bound_is_a_resource_error(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the box bound must be checked before any point")

        monkeypatch.setattr(cli, "MAX_BOX_ASSIGNMENTS", 3)
        monkeypatch.setattr(lemma, "certify_lemma", refuse)
        argv = ["sweep", "--kind", "lemma", "--box", "r=1:2,R=1:2", "--sample", "1", "--bounds", "1,1,1"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("qdominance: resource: the box walk makes more than 3 assignments")

    def test_divisibility_box_counts(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--ineq", "BGa", "--box", "m=3:6,r=1:m-1,L=1:1", "--order", "40"], capsys
        )
        assert code == 1
        result = report(out)["result"]
        assert (result["total"], result["failed"], result["degenerate"]) == (14, 4, 8)
        assert result["failures"][0] == {
            "params": {"m": 4, "r": 2, "L": 1},
            "witness": {"exponent": 2, "deficit": -1},
        }

    def test_split_sweep_clean_box(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep",
                "--kind", "split",
                "--ineq", "thm1",
                "--box", "L=1:2,m=1:2,x=1:2,y=1:2,r=1:2,R=1:2",
                "--order", "25",
            ],
            capsys,
        )
        assert code == 0
        result = report(out)["result"]
        assert (result["total"], result["failed"]) == (64, 0)

    def test_parallel_matches_serial(self, capsys):
        argv = [
            "sweep",
            "--kind", "split",
            "--ineq", "thm1",
            "--box", "L=1:2,m=1:2,x=1:2,y=1:1,r=1:2,R=1:2",
            "--order", "20",
        ]
        _, serial, _ = run_cli(argv, capsys)
        _, parallel, _ = run_cli(argv + ["--jobs", "2"], capsys)
        serial, parallel = report(serial), report(parallel)
        serial["config"].pop("jobs"), parallel["config"].pop("jobs")
        assert serial == parallel

    def test_pool_is_bounded_by_points_and_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert pool_size(100_000, 2) == 2
        assert pool_size(100_000, 1000) == 4
        assert pool_size(3, 1000) == 3
        assert pool_size(1, 1000) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool_size(8, 100) == 1

    def test_sampled_sweep_is_deterministic(self, capsys):
        argv = [
            "sweep",
            "--ineq", "thm1",
            "--box", "L=1:2,m=1:3,x=1:3,y=1:3,r=1:2,R=1:2",
            "--sample", "6",
            "--order", "20",
            "--seed", "3",
        ]
        code, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert code == 0
        assert report(first) == report(second)
        assert report(first)["result"]["total"] == 6

    def test_sample_larger_than_box_rejected(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--kind", "lemma", "--box", "r=1:2,R=1:2", "--sample", "9"], capsys
        )
        assert code == 2
        assert "box size" in err

    def test_lemma_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep",
                "--kind", "lemma",
                "--box", "r=1:2,R=1:2",
                "--bounds", "4,8,8",
                "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,R,status,witness"
        assert lines[1:] == ["1,1,pass,", "1,2,pass,", "2,1,pass,", "2,2,pass,"]

    def test_all_points_skipped_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--ineq", "BGa", "--box", "m=3:3,r=3:3,L=1:1"], capsys
        )
        assert code == 2
        assert out == ""
        assert "no point of the box could be checked" in err
        assert "0 < r < m" in err

    def test_empty_box_is_a_usage_error(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--ineq", "BGa", "--box", "m=3:3,r=2:1,L=1:1"], capsys
        )
        assert code == 2
        assert "no point of the box could be checked" in err

    def test_partly_skipped_box_still_reports(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--ineq", "BGa", "--box", "m=4:4,r=1:4,L=1:1", "--order", "20"], capsys
        )
        result = report(out)["result"]
        assert code == 1
        assert (result["total"], result["failed"], result["skipped"]) == (4, 1, 1)

    def test_box_must_bind_the_declared_names(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--ineq", "thm1", "--box", "L=1:2,m=1:2"], capsys
        )
        assert code == 2
        assert "box must bind" in err


class TestInternalFaults:
    """Only ParameterError and ResourceError mean exit 2 or a skipped point;
    a plain ValueError from inside a kernel is a fault and propagates."""

    @pytest.fixture(autouse=True)
    def faulty_kernel(self, monkeypatch):
        def fault(*args):
            raise ValueError("internal fault")

        monkeypatch.setattr(series._Signed, "negative", fault)

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--ineq", "RR", "--order", "20"],
            ["sweep", "--ineq", "BGa", "--box", "m=4:4,r=1:3,L=1:1", "--order", "20"],
            ["sweep", "--kind", "split", "--ineq", "Thm1", "--box", "L=1:1,m=2:2,x=1:1,y=1:1,r=1:2,R=1:1"],
        ],
        ids=["check", "sweep", "split-sweep"],
    )
    def test_fault_propagates(self, argv, capsys):
        with pytest.raises(ValueError, match="internal fault") as raised:
            main(argv)
        assert not isinstance(raised.value, series.ParameterError)
        assert capsys.readouterr().out == ""

    def test_usage_errors_are_parameter_errors(self):
        assert not issubclass(series.ParameterError, series.ResourceError)


class TestConsoleScript:
    """The console script maps an internal fault to exit 3, not to exit 1 or 2."""

    ROOT = Path(__file__).resolve().parents[1]
    FAULTY_RUN = (
        "import sys\n"
        "from qdominance import cli, series\n"
        "def fault(*args):\n"
        "    raise ValueError('internal fault')\n"
        "series._Signed.negative = fault\n"
        "sys.exit(cli.console(['check', '--ineq', 'RR', '--order', '20']))\n"
    )

    def test_entry_point_is_the_console_wrapper(self):
        text = (self.ROOT / "pyproject.toml").read_text()
        assert re.search(r'^qdominance = "qdominance\.cli:console"$', text, re.MULTILINE)

    def test_internal_fault_exits_3_in_a_fresh_interpreter(self):
        path = os.pathsep.join(filter(None, [str(self.ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", self.FAULTY_RUN],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert done.returncode == EXIT_INTERNAL == 3
        assert done.stdout == ""
        assert done.stderr.startswith("Traceback")
        assert "ValueError: internal fault" in done.stderr

    def test_other_exit_codes_pass_through(self, capsys):
        assert console(["check", "--ineq", "RR", "--order", "20"]) == 0
        assert console(["lemma", "--r", "0", "--R", "2"]) == 2
        capsys.readouterr()


class TestFormats:
    def test_csv_limited_to_tabular_commands(self, capsys):
        code, _, err = run_cli(["check", "--ineq", "RR", "--format", "csv"], capsys)
        assert code == 2
        assert "interpret-check" in err

    def test_text_format_is_terse(self, capsys):
        code, out, _ = run_cli(
            ["check", "--ineq", "RR", "--order", "20", "--format", "text"], capsys
        )
        assert code == 0
        assert out == "check: pass\n"

    def test_text_format_carries_the_witness(self, capsys):
        code, out, _ = run_cli(
            ["antitelescope", "--ineq", "finiteRR", "--params", "2", "--format", "text"], capsys
        )
        assert code == 1
        assert out.splitlines()[0] == "antitelescope: fail"
        assert '"exponent": 8' in out


class TestDeterminism:
    def test_identical_config_identical_report(self, capsys):
        argv = ["check", "--ineq", "thm1", "--params", "2,3,1,2,2,2", "--order", "40"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert report(first) == report(second)

    @pytest.mark.parametrize(
        "ineq, box",
        [
            ("thm1", "L=1:3,m=1:2,x=1:2,y=1:1,r=1:2,R=1:2"),
            ("thm2", "L=1:2,m=1:2,x=1:1,y=1:2,z=1:1,r=1:2,R=2:2,rho=1:2"),
        ],
    )
    def test_split_sweep_envelope_is_reproducible(self, ineq, box, capsys):
        argv = ["sweep", "--kind", "split", "--ineq", ineq, "--box", box, "--order", "30"]
        runs = [run_cli(argv, capsys)[1] for _ in range(2)]
        first, second = (strip_timings(out) for out in runs)
        assert first == second
        serial = report(runs[0])
        parallel = report(run_cli(argv + ["--jobs", "2"], capsys)[1])
        assert parallel["config"].pop("jobs") == 2
        serial["config"].pop("jobs")
        assert serial == parallel

    def test_antitelescope_dump_is_reproducible(self, capsys):
        argv = [
            "antitelescope", "--ineq", "Thm2", "--params", "2,1,1,2,2,2,1,3",
            "--split", "thm2", "--order", "40", "--dump-series",
        ]
        first, second = (strip_timings(run_cli(argv, capsys)[1]) for _ in range(2))
        assert '"series"' in first
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ["identities", "--seed", "7", "--order", "16"],
            ["lemma", "--r", "2", "--R", "3", "--bounds", "3,10,10", "--dump-poly"],
            ["interpret-check", "--params", "3,1,2,2,3,2", "--max-n", "10"],
            ["proposal", "--x", "1,2", "--r", "2,2", "--m", "5", "--L", "2", "--order", "12"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_envelope_is_reproducible(self, argv, capsys):
        runs = [run_cli(argv, capsys) for _ in range(2)]
        assert [code for code, _, _ in runs] == [0, 0]
        first, second = (strip_timings(out) for _, out, _ in runs)
        assert first == second
