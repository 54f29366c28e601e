"""End-to-end tests for the command-line surface."""

import json
import os

import pytest

from qdominance.antitelescope import positivity_scan
from qdominance.cli import (
    DEFAULT_BOUNDS,
    DEFAULT_ORDER,
    ENV_ORDER,
    RunConfig,
    UsageError,
    expand_box,
    main,
    parse_box,
    parse_inequality_params,
    pool_size,
)
from qdominance.series import product_spec


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(out):
    """Parse the JSON envelope and drop the wall-clock field."""
    envelope = json.loads(out)
    envelope.pop("timings", None)
    return envelope


class TestConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.order == DEFAULT_ORDER
        assert config.bounds == DEFAULT_BOUNDS
        assert (config.cap, config.seed, config.jobs, config.format) == (40, 0, 1, "json")

    def test_rejects_nonpositive_order(self):
        with pytest.raises(UsageError):
            RunConfig(order=0)

    def test_env_overrides_default_order(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_ORDER, "25")
        code, out, _ = run_cli(["check", "--ineq", "RR"], capsys)
        assert code == 0
        assert report(out)["config"]["order"] == 25

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_ORDER, "25")
        code, out, _ = run_cli(["check", "--ineq", "RR", "--order", "12"], capsys)
        assert code == 0
        assert report(out)["config"]["order"] == 12

    def test_garbage_env_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_ORDER, "soon")
        code, out, err = run_cli(["check", "--ineq", "RR"], capsys)
        assert code == 2
        assert out == ""
        assert ENV_ORDER in err

    def test_bad_bounds_rejected(self, capsys):
        code, _, err = run_cli(["lemma", "--r", "1", "--R", "1", "--bounds", "4,8"], capsys)
        assert code == 2
        assert "three" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestParamParsing:
    def test_declared_order(self):
        params = parse_inequality_params("Thm1", "2,3,1,2,2,2")
        assert params == {"L": 2, "m": 3, "x": 1, "y": 2, "r": 2, "R": 2}

    def test_proposal_splits_sizes_and_multipliers(self):
        params = parse_inequality_params("Proposal", "1,3,1,2,2,3")
        assert params == {"L": 1, "m": 3, "xs": (1, 2), "rs": (2, 3)}

    def test_proposal_odd_tail_rejected(self):
        with pytest.raises(UsageError):
            parse_inequality_params("Proposal", "1,3,1,2,2")

    def test_wrong_arity_rejected(self):
        with pytest.raises(UsageError):
            parse_inequality_params("Thm1", "2,3,1")


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
            ["antitelescope", "--ineq", "finiteRR", "--L", "2", "--split", "none"], capsys
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

    def test_dump_poly_prints_kernel(self, capsys):
        code, out, _ = run_cli(
            ["lemma", "--r", "1", "--R", "2", "--bounds", "3,6,6", "--dump-poly"], capsys
        )
        assert code == 0
        kernel = report(out)["result"]["kernel"]
        assert "numerator" in kernel and len(kernel["denominator"]) > 0


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

    def test_raised_cap_allows_the_run(self, capsys):
        code, out, _ = run_cli(
            ["enumerate", "--params", "50,20,30,1,1,1", "--n", "50", "--cap", "60"], capsys
        )
        assert code == 0
        assert report(out)["result"]["count"] == 6


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

    def test_arity_flag_must_agree(self, capsys):
        code, _, err = run_cli(
            ["proposal", "--x", "1,2", "--r", "2,3", "--m", "3", "--L", "1", "--n", "3"], capsys
        )
        assert code == 2
        assert "--n" in err


class TestIdentities:
    def test_all_families_certify(self, capsys):
        code, out, _ = run_cli(["identities", "--order", "20"], capsys)
        assert code == 0
        checks = {entry["name"]: entry["equal"] for entry in report(out)["result"]["checks"]}
        assert checks == {
            "three-factor-difference": True,
            "four-factor-difference": True,
            "slice-closed-forms": True,
            "four-variable-splitting": True,
        }

    def test_seed_fixes_the_sampled_tuples(self, capsys):
        _, first, _ = run_cli(["identities", "--order", "20", "--seed", "7"], capsys)
        _, second, _ = run_cli(["identities", "--order", "20", "--seed", "7"], capsys)
        assert report(first) == report(second)


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
        with pytest.raises(UsageError):
            parse_box("m=1:2,m=3:4")

    def test_forward_reference_rejected(self):
        with pytest.raises(UsageError):
            expand_box(parse_box("r=1:m-1,m=3:4"))

    def test_malformed_entry_rejected(self):
        with pytest.raises(UsageError):
            parse_box("m=3")


class TestSweep:
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
            ["antitelescope", "--ineq", "finiteRR", "--L", "2", "--format", "text"], capsys
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
