"""End-to-end command-line checks.

Everything runs in-process through cli.main so exit codes and stdout are
asserted directly; one subprocess smoke test covers the `-m` entry point.
"""

import hashlib
import json
import math
import subprocess
import sys

import pytest

from graphpurify import optimality
from graphpurify.cli import SEED_ENV_VAR, build_parser, main
from graphpurify.graphs import path_graph
from oracles import write_edge_list


def run_cli(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def envelope(stdout):
    doc = json.loads(stdout)
    assert set(doc) == {"command", "config", "results", "version"}
    return doc


class TestThreshold:
    def test_json_output(self, capsys):
        rc, out, _ = run_cli(capsys, "threshold", "--B", "1", "--json")
        assert rc == 0
        doc = envelope(out)
        assert doc["command"] == "threshold"
        res = doc["results"]
        assert res["t_crit"] == pytest.approx(1.134593, abs=1e-6)
        assert res["t_crit"] == pytest.approx(-1.0 / math.log(math.sqrt(2) - 1))
        assert res["p_star"] == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)
        verdicts = [row["purifiable"] for row in res["table"]]
        assert verdicts == [True, False]  # 0.99 T_crit vs 1.01 T_crit
        for row in res["table"]:
            assert set(row) == {"T", "p", "purifiable"}

    def test_field_scale_scales_linearly(self, capsys):
        _, out, _ = run_cli(capsys, "threshold", "--B", "2.5", "--json")
        t1 = envelope(out)["results"]["t_crit"]
        _, out, _ = run_cli(capsys, "threshold", "--B", "1.0", "--json")
        assert t1 == pytest.approx(2.5 * envelope(out)["results"]["t_crit"])

    def test_human_output(self, capsys):
        rc, out, _ = run_cli(capsys, "threshold", "--B", "1")
        assert rc == 0
        assert "T_crit = 1.134593" in out
        assert "purifiable: yes" in out and "purifiable: no" in out

    def test_negative_field_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "threshold", "--B", "-1")
        assert rc == 2
        assert err.strip()


class TestSimulate:
    def test_worker_count_does_not_change_output_bytes(self, capsys):
        base = [
            "simulate", "--graph", "path:3", "--p", "0.1",
            "--shots", "5000", "--seed", "3", "--json",
        ]
        rc, one, _ = run_cli(capsys, *base, "--workers", "1")
        assert rc == 0
        rc, three, _ = run_cli(capsys, *base, "--workers", "3")
        assert rc == 0
        assert one == three
        res = envelope(one)["results"]
        assert res["shots"] == 5000
        assert res["converged"] is True
        assert 0.0 <= res["fidelity"] <= 1.0

    def test_repeat_run_identical(self, capsys):
        args = ["simulate", "--graph", "cycle:3", "--p", "0.08",
                "--shots", "400", "--seed", "9", "--json"]
        _, a, _ = run_cli(capsys, *args)
        _, b, _ = run_cli(capsys, *args)
        assert a == b

    def test_temperature_input_converts_to_error_prob(self, capsys):
        rc, out, _ = run_cli(
            capsys, "simulate", "--graph", "path:3", "--T", "1.0", "--B", "1.0",
            "--shots", "50", "--seed", "1", "--json",
        )
        assert rc == 0
        doc = envelope(out)
        expected = 1.0 / (1.0 + math.exp(1.0))
        assert doc["config"]["p"] == pytest.approx(expected, rel=1e-12)
        assert doc["results"]["p"] == pytest.approx(expected, rel=1e-12)

    def test_noise_must_be_specified_exactly_once(self, capsys):
        rc, _, _ = run_cli(
            capsys, "simulate", "--graph", "path:3", "--p", "0.1",
            "--T", "1.0", "--B", "1.0", "--shots", "10",
        )
        assert rc == 2
        rc, _, _ = run_cli(capsys, "simulate", "--graph", "path:3", "--shots", "10")
        assert rc == 2

    def test_error_prob_range_enforced(self, capsys):
        rc, _, _ = run_cli(
            capsys, "simulate", "--graph", "path:3", "--p", "0.6", "--shots", "10"
        )
        assert rc == 2

    def test_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        rc, out, _ = run_cli(
            capsys, "simulate", "--graph", "path:3", "--p", "0.1",
            "--shots", "20", "--json",
        )
        assert rc == 0
        assert envelope(out)["config"]["seed"] == 77

    def test_explicit_seed_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        _, out, _ = run_cli(
            capsys, "simulate", "--graph", "path:3", "--p", "0.1",
            "--shots", "20", "--seed", "5", "--json",
        )
        assert envelope(out)["config"]["seed"] == 5

    def test_bad_env_seed_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        rc, _, _ = run_cli(
            capsys, "simulate", "--graph", "path:3", "--p", "0.1", "--shots", "20"
        )
        assert rc == 2


    @pytest.mark.parametrize("command", [
        ["simulate", "--graph", "path:3", "--p", "0.1"],
        ["scan", "--graph", "path:3", "--p-grid", "0.1"],
    ], ids=["simulate", "scan"])
    def test_negative_seed_rejected(self, capsys, monkeypatch, command):
        rc, out, err = run_cli(capsys, *command, "--shots", "20", "--seed", "-1")
        assert rc == 2
        assert "--seed" in err and "Traceback" not in err
        assert out == ""
        monkeypatch.setenv(SEED_ENV_VAR, "-3")
        rc, out, err = run_cli(capsys, *command, "--shots", "20")
        assert rc == 2
        assert SEED_ENV_VAR in err and "Traceback" not in err

    def test_large_seed_accepted(self, capsys):
        rc, out, _ = run_cli(
            capsys, "simulate", "--graph", "path:3", "--p", "0.1",
            "--shots", "20", "--seed", str(2**130), "--json",
        )
        assert rc == 0
        assert envelope(out)["config"]["seed"] == 2**130

    def test_capacity_message_names_the_edge_count(self, capsys):
        for graph, edges in (("grid:4x4x4", 144), ("complete:17", 136)):
            rc, _, err = run_cli(
                capsys, "simulate", "--graph", graph, "--p", "0.1", "--shots", "1"
            )
            assert rc == 3
            assert f"{graph}: graph has {edges} edges" in err
            assert "at most 128 edges" in err
            assert "vertex count" not in err

    @pytest.mark.parametrize("family", ["ghz", "star"])
    def test_too_small_star_names_the_family_typed(self, capsys, family):
        rc, out, err = run_cli(
            capsys, "simulate", "--graph", f"{family}:1", "--p", "0.1", "--shots", "1"
        )
        assert rc == 2
        assert out == ""
        assert err == f"error: bad graph family '{family}:1': {family} needs >= 2 vertices\n"

    @pytest.mark.parametrize("graph", ["grid:8x8", "complete:12"])
    def test_graphs_past_the_old_64_qubit_cap_run(self, capsys, graph):
        rc, out, _ = run_cli(
            capsys, "simulate", "--graph", graph, "--p", "0.1", "--shots", "200",
            "--seed", "1", "--json",
        )
        assert rc == 0
        assert envelope(out)["results"]["converged"] is True


class TestScan:
    def test_verdict_flips_across_threshold(self, capsys):
        rc, out, _ = run_cli(
            capsys, "scan", "--graph", "path:3", "--p-grid", "0.28,0.30",
            "--shots", "500", "--seed", "2", "--json",
        )
        assert rc == 0
        rows = envelope(out)["results"]
        assert [r["p"] for r in rows] == [0.28, 0.30]
        assert [r["purifiable"] for r in rows] == [True, False]
        assert [r["converged"] for r in rows] == [True, False]
        assert rows[1]["fidelity"] is None
        assert all(r["temperature"] is None for r in rows)

    def test_temperature_grid(self, capsys):
        rc, out, _ = run_cli(
            capsys, "scan", "--graph", "path:3", "--T-grid", "0.9,1.4",
            "--B", "1.0", "--shots", "200", "--seed", "2", "--json",
        )
        assert rc == 0
        rows = envelope(out)["results"]
        # rows come back ordered by error probability: hot end last
        assert [r["temperature"] for r in rows] == [0.9, 1.4]
        assert [r["purifiable"] for r in rows] == [True, False]

    def test_temperature_grid_keeps_repeats(self, capsys):
        rc, out, _ = run_cli(
            capsys, "scan", "--graph", "path:3", "--T-grid", "0.6,0.5,0.5",
            "--B", "1.0", "--shots", "50", "--seed", "2", "--json",
        )
        assert rc == 0
        rows = envelope(out)["results"]
        assert [r["temperature"] for r in rows] == [0.5, 0.5, 0.6]
        assert rows[0]["p"] == rows[1]["p"] < rows[2]["p"]
        rc, out, _ = run_cli(
            capsys, "scan", "--graph", "path:3", "--T-grid", "0.5,0.5,0.6",
            "--B", "1.0", "--shots", "50", "--seed", "2",
        )
        assert rc == 0
        assert out.startswith("scan over 3 points")

    def test_temperatures_with_equal_p_keep_their_own_rows(self, capsys):
        # T = 0 and T = 0.001 both give p = 0.0 at B = 1 (e^-1000 underflows)
        rc, out, _ = run_cli(
            capsys, "scan", "--graph", "path:3", "--T-grid", "0.001,0",
            "--B", "1.0", "--shots", "20", "--json",
        )
        assert rc == 0
        rows = envelope(out)["results"]
        assert [(r["p"], r["temperature"]) for r in rows] == [(0.0, 0.0), (0.0, 0.001)]

    def test_temperature_grid_needs_field_scale(self, capsys):
        rc, _, _ = run_cli(
            capsys, "scan", "--graph", "path:3", "--T-grid", "1.0", "--shots", "10"
        )
        assert rc == 2

    def test_field_scale_with_a_p_grid_is_a_usage_error(self, capsys):
        # --B sets only how temperatures map to p; a p grid would drop it
        # silently (as "B": null), so it is refused like rates --p --B
        rc, out, err = run_cli(
            capsys, "scan", "--graph", "path:3", "--p-grid", "0.1",
            "--B", "2", "--shots", "10", "--json",
        )
        assert rc == 2
        assert "--B" in err and out == ""

    def test_exactly_one_grid(self, capsys):
        rc, _, _ = run_cli(
            capsys, "scan", "--graph", "path:3", "--p-grid", "0.1",
            "--T-grid", "1.0", "--B", "1.0", "--shots", "10",
        )
        assert rc == 2
        rc, _, _ = run_cli(capsys, "scan", "--graph", "path:3", "--shots", "10")
        assert rc == 2


class TestRatesAndPlan:
    def test_rates_star_family(self, capsys):
        rc, out, _ = run_cli(
            capsys, "rates", "--family", "ghz:5", "--p", "0.05", "--json"
        )
        assert rc == 0
        res = envelope(out)["results"]
        assert res["n_geo_formula"] == 4
        assert res["n_geo_plan"] == 4
        assert res["r2"] > 0.0
        assert res["r_psi_lower"] == pytest.approx(res["r2"] / 4)
        assert res["r_psi_lower"] <= res["r_psi_upper"] <= res["r2"]

    def test_rates_formula_does_not_depend_on_noise(self, capsys):
        for p in ("0.0", "0.05", "0.15", "0.25"):
            rc, out, _ = run_cli(capsys, "rates", "--family", "star:4", "--p", p, "--json")
            assert rc == 0
            res = envelope(out)["results"]
            assert res["n_geo_formula"] == 3
            assert res["r_psi_lower"] == pytest.approx(res["r2"] / res["n_geo_plan"])

    def test_simulate_reports_the_family_formula(self, capsys):
        rc, out, _ = run_cli(
            capsys, "simulate", "--graph", "star:5", "--p", "0.05", "--shots", "10",
            "--seed", "0", "--json",
        )
        assert rc == 0
        res = envelope(out)["results"]
        assert res["n_geo_formula"] == 4
        assert res["n_geo_plan"] == 4

    def test_rates_requires_one_source(self, capsys):
        rc, _, _ = run_cli(
            capsys, "rates", "--graph", "path:3", "--family", "path:3", "--p", "0.1"
        )
        assert rc == 2
        rc, _, _ = run_cli(capsys, "rates", "--p", "0.1")
        assert rc == 2

    def test_rates_family_must_parse(self, capsys):
        rc, _, _ = run_cli(capsys, "rates", "--family", "some/file.txt", "--p", "0.1")
        assert rc == 2

    def test_plan_cluster_family(self, capsys):
        rc, out, _ = run_cli(capsys, "plan", "--graph", "cluster:2", "--json")
        assert rc == 0
        res = envelope(out)["results"]
        assert (res["n_geo_plan"], res["n_geo_formula"]) == (9, 12)

    def test_plan_path(self, capsys):
        rc, out, _ = run_cli(capsys, "plan", "--graph", "path:4", "--json")
        assert rc == 0
        res = envelope(out)["results"]
        assert res["n_geo_plan"] == 3
        assert res["n_geo_formula"] == 3
        rounds = res["rounds"]
        assert len(rounds) == 3
        edges = [tuple(item["edge"]) for rnd in rounds for item in rnd]
        assert sorted(edges) == [(0, 1), (1, 2), (2, 3)]
        for rnd in rounds:
            for item in rnd:
                assert set(item) == {"edge", "z_measure_set"}

    def test_plan_from_edge_list_file(self, capsys, tmp_path):
        f = tmp_path / "chain.edges"
        f.write_text(write_edge_list(path_graph(3)))
        rc, out, _ = run_cli(capsys, "plan", "--graph", str(f), "--json")
        assert rc == 0
        res = envelope(out)["results"]
        assert res["n_geo_plan"] == 2
        assert res["n_geo_formula"] is None  # file input carries no family hint

    def test_a_file_named_like_a_family_is_a_file(self, capsys, tmp_path, monkeypatch):
        # the file holds one edge, so its plan has one round; the family its
        # name spells (a path, formula 3) must not leak into the output
        monkeypatch.chdir(tmp_path)
        (tmp_path / "path:6").write_text(write_edge_list(path_graph(2)))
        rc, out, _ = run_cli(capsys, "plan", "--graph", "path:6", "--json")
        assert rc == 0
        res = envelope(out)["results"]
        assert (res["n_geo_plan"], res["n_geo_formula"]) == (1, None)
        rc, out, _ = run_cli(capsys, "rates", "--graph", "path:6", "--p", "0.1", "--json")
        assert rc == 0
        res = envelope(out)["results"]
        assert (res["n_geo_plan"], res["n_geo_formula"]) == (1, None)
        rc, _, err = run_cli(capsys, "rates", "--family", "path:6", "--p", "0.1")
        assert rc == 2
        assert "--family expects a family string" in err

    def test_missing_graph_file(self, capsys):
        rc, _, _ = run_cli(capsys, "plan", "--graph", "no/such/file.edges")
        assert rc == 2

    def test_negative_vertex_count_is_a_usage_error(self, capsys, tmp_path):
        # a bad file is the user's input, not a capacity limit (exit 3)
        f = tmp_path / "negative.edges"
        f.write_text("-1\n")
        rc, out, err = run_cli(capsys, "simulate", "--graph", str(f), "--p", "0.1", "--shots", "10")
        assert rc == 2
        assert out == ""
        assert "vertex count -1 is negative" in err

    def test_edge_list_that_is_not_utf8_is_a_usage_error(self, capsys, tmp_path):
        # exit 1 means an oracle mismatch, so a decode traceback must not reach it
        f = tmp_path / "utf16.edges"
        f.write_bytes(b"\xff\xfe3\x00\n\x00")
        rc, out, err = run_cli(capsys, "plan", "--graph", str(f))
        assert rc == 2
        assert out == ""
        assert str(f) in err and "UTF-8" in err and "Traceback" not in err


class TestVerifyOracle:
    def test_small_sweep_passes(self, capsys):
        rc, out, err = run_cli(capsys, "verify-oracle", "--max-n", "2", "--json")
        assert rc == 0
        res = envelope(out)["results"]
        assert res["ok"] is True
        assert res["mismatches"] == 0
        assert res["graphs"] == 3
        assert res["failures"] == []
        assert "done" in err  # progress goes to stderr, not stdout

    def test_json_is_byte_identical_across_runs(self, capsys):
        # the sweep's wall time goes to stderr, never into the envelope
        rc, first, err = run_cli(capsys, "verify-oracle", "--max-n", "2", "--json")
        assert rc == 0
        rc, second, _ = run_cli(capsys, "verify-oracle", "--max-n", "2", "--json")
        assert rc == 0
        assert first == second
        assert "elapsed_seconds" not in envelope(first)["results"]
        assert "sweep took" in err


class TestCheckOptimality:
    def test_triangle_is_negative_everywhere(self, capsys):
        rc, out, _ = run_cli(
            capsys, "check-optimality", "--graph", "cycle:3", "--json"
        )
        assert rc == 0  # a clean negative result is still a success
        res = envelope(out)["results"]
        assert res["graph_ok"] is False
        assert len(res["edges"]) == 3
        assert all(row["reconstructable"] is False for row in res["edges"])

    def test_path_is_positive(self, capsys):
        rc, out, _ = run_cli(
            capsys, "check-optimality", "--graph", "path:3", "--json"
        )
        assert rc == 0
        res = envelope(out)["results"]
        assert res["graph_ok"] is True
        assert all(row["reconstructable"] is True for row in res["edges"])

    def test_capacity_exit_code(self, capsys, monkeypatch):
        # the checker takes any graph under the vertex cap; past the cap, or
        # past the matching-cut search's node budget, it exits 3
        rc, _, _ = run_cli(capsys, "check-optimality", "--graph", "path:257")
        assert rc == 3
        monkeypatch.setattr(optimality, "_SEARCH_BUDGET", 1)
        rc, out, err = run_cli(capsys, "check-optimality", "--graph", "path:4")
        assert rc == 3
        assert "budget of 1 nodes" in err
        assert out == ""

    def test_graphs_past_eight_vertices_are_decided(self, capsys):
        for graph, covered, edges in (("path:9", 8, 8), ("grid:8x8", 112, 112), ("icosahedron", 0, 30)):
            rc, out, _ = run_cli(capsys, "check-optimality", "--graph", graph, "--json")
            assert rc == 0
            rows = envelope(out)["results"]["edges"]
            assert (sum(row["reconstructable"] for row in rows), len(rows)) == (covered, edges), graph

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
    def test_bad_tolerance_is_a_usage_error(self, capsys, tol):
        # the verdicts depend on the graph alone, so --tol is gone and any
        # value of it, the old default included, is an unknown option
        for arg in (f"--tol={tol}", "--tol=1e-9"):
            with pytest.raises(SystemExit) as exc:
                main(["check-optimality", "--graph", "path:3", arg])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert f"unrecognized arguments: {arg}" in err
            assert "threshold argument" not in out

    @pytest.mark.parametrize("p", ["1e-12", "0.4999999999"])
    def test_triangle_uncovered_at_the_p_range_ends(self, capsys, p):
        # the fold gap p(1 - 2p) is below 1e-9 at both ends; a tolerance at
        # or above it would pass a folded split as exact and read K3, which
        # has no matching cut, as covered on every edge
        rc, out, _ = run_cli(
            capsys, "check-optimality", "--graph", "cycle:3", "--p", p, "--json"
        )
        assert rc == 0
        res = envelope(out)["results"]
        assert [row["reconstructable"] for row in res["edges"]] == [False, False, False]
        assert res["graph_ok"] is False

    def test_verdicts_do_not_depend_on_p(self, capsys):
        for graph in ("cycle:3", "cycle:5", "grid:2x3"):
            rows = set()
            for p in ("1e-6", "0.1", "0.3", "0.49"):
                rc, out, _ = run_cli(capsys, "check-optimality", "--graph", graph, "--p", p, "--json")
                assert rc == 0
                res = envelope(out)["results"]
                assert res["p"] == float(p)
                rows.add(json.dumps([res["edges"], res["graph_ok"]]))
            assert len(rows) == 1, graph

    def test_human_output_names_each_edge(self, capsys):
        rc, out, _ = run_cli(capsys, "check-optimality", "--graph", "cycle:3")
        assert rc == 0
        assert out.splitlines() == [
            "two-party reconstruction check for cycle:3 at p = 0.1",
            "  edge (0, 1): not found",
            "  edge (0, 2): not found",
            "  edge (1, 2): not found",
            "threshold argument does NOT cover this graph",
        ]
        rc, out, _ = run_cli(capsys, "check-optimality", "--graph", "path:3", "--p", "0.3")
        assert rc == 0
        assert out.splitlines()[1:] == [
            "  edge (0, 1): ok",
            "  edge (1, 2): ok",
            "threshold argument applies to every edge",
        ]

    def test_probe_noise_must_be_interior(self, capsys):
        # at p = 0 or 1/2 every candidate would match trivially
        for p in ("0", "0.5", "nan"):
            rc, out, err = run_cli(
                capsys, "check-optimality", "--graph", "path:3", "--p", p, "--json"
            )
            assert rc == 2, p
            assert "--p must lie strictly inside (0, 1/2)" in err
            assert out == ""

    # SHA-256 of `check-optimality --graph G --p 0.1 --json` as printed once
    # --tol was gone: the envelope printed before, with results.tol deleted
    # and config.tol null, re-serializes to exactly these bytes
    _JSON_SHA256 = {
        "cycle:3": "c26118b0f88efc4a521a11a9c14404cac24e0922daf3f726b7568cc397b95b91",
        "cycle:5": "024700bf072b7b27beed29c31a71f3ed5031cf150a040bb77ae9879118a2d567",
        "path:6": "1234c88a3032762405e2f73cf46ff3e96bd7d51a4859bbfd03c417a0b938bfd8",
        "grid:2x3": "e690aa1d0ee9ceeed00848fe0eeb070abc81356861a3925acd4290978f2cc43e",
        "star:6": "2d9f27b0eb0dce8bbe81f2741a23bb6e19f674c00bd651f2dedb43d084b4511f",
        "cycle:7": "0fb034df5657570038fa3b00f4be0f0c3a27bc52a6481a6a4f91c2cf625b6414",
    }

    @pytest.mark.parametrize("graph", sorted(_JSON_SHA256))
    def test_json_is_unchanged_on_the_benchmark_graphs(self, capsys, graph):
        rc, out, _ = run_cli(capsys, "check-optimality", "--graph", graph, "--p", "0.1", "--json")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self._JSON_SHA256[graph]


class TestPinnedOutput:
    # SHA-256 of stdout as printed before the CLI took over the round
    # formula (n_geo_formula) and the rebuild and the reconstruction plan
    # shared one spanning-forest walk
    _JSON_SHA256 = {
        "simulate --graph icosahedron --p 0.1 --shots 20000 --seed 11 --json":
            "e986e27d9ccb425bc6dd61f49068b37396bf0077197a60a672d261834370d487",
        "simulate --graph grid:4x4 --p 0.1 --shots 20000 --seed 11 --json":
            "0be1b2821b9017953f17cef56c786e6a7143dec1f4e9925fc5c41997cc3c90dd",
        "simulate --graph path:6 --T 0.6 --B 1 --shots 20000 --seed 11 --json":
            "6953e00571cffef1af8cf726fe91daa815ef7abc55fd22fff524243826b01138",
        "rates --family grid:3x3 --p 0.1 --json":
            "e1866cd372f75539b7d95871eafc523c17a518faff8c6531509e143d8eb9b1cb",
        "rates --graph path:6 --p 0.2 --json":
            "24c54873d51c9aec1df3c1466ecd4f3e656a90dd05ad56d48bf3116e3d5e4bb2",
        "plan --graph cluster:2 --json":
            "10d14fc3e196a60bf3e0c37459575f7ad82733c3dac80a82a39b960140b9826f",
        "scan --graph star:4 --p-grid 0.1,0.28,0.3 --shots 4000 --seed 5 --json":
            "76a794bdb5b045aa0fef2332c475b0d31bbe785eef6f95904c08cb38624a6313",
    }

    @pytest.mark.parametrize("command", sorted(_JSON_SHA256))
    def test_json_is_unchanged(self, capsys, command):
        rc, out, _ = run_cli(capsys, *command.split())
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self._JSON_SHA256[command]

    def test_two_workers_print_the_same_bytes(self, capsys):
        command = "simulate --graph icosahedron --p 0.1 --shots 20000 --seed 11 --json"
        rc, out, _ = run_cli(capsys, *command.split(), "--workers", "2")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self._JSON_SHA256[command]


class TestOutputFile:
    def test_out_file_matches_stdout(self, capsys, tmp_path):
        f = tmp_path / "run.json"
        rc, out, _ = run_cli(
            capsys, "threshold", "--B", "1", "--json", "--out", str(f)
        )
        assert rc == 0
        assert f.read_text() == out

    def test_out_file_without_json_flag(self, capsys, tmp_path):
        f = tmp_path / "run.json"
        rc, out, _ = run_cli(capsys, "threshold", "--B", "1", "--out", str(f))
        assert rc == 0
        doc = json.loads(f.read_text())  # file always gets the JSON envelope
        assert doc["command"] == "threshold"
        assert "T_crit" in out  # stdout stays human-readable

    def test_unwritable_out_path(self, capsys, tmp_path):
        rc, _, _ = run_cli(
            capsys, "threshold", "--B", "1", "--out", str(tmp_path / "no" / "x.json")
        )
        assert rc == 2


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_simulate_requires_graph(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--p", "0.1"])
        assert exc.value.code == 2


class TestSharedParser:
    _SIM = ["simulate", "--graph", "path:3", "--p", "0.1", "--shots", "200", "--json"]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_seed_does_not_carry_over_between_calls(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        _, out, _ = run_cli(capsys, *self._SIM, "--seed", "3")
        assert envelope(out)["config"]["seed"] == 3
        _, out, _ = run_cli(capsys, *self._SIM)
        assert envelope(out)["config"]["seed"] == 0
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        _, out, _ = run_cli(capsys, *self._SIM)
        assert envelope(out)["config"]["seed"] == 77

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"], ["scan", "--help"]])
    def test_help_matches_a_fresh_parser(self, capsys, argv):
        run_cli(capsys, *self._SIM, "--seed", "3")  # the shared parser has parsed before
        with pytest.raises(SystemExit):
            main(argv)
        shared = capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser.__wrapped__().parse_args(argv)
        fresh = capsys.readouterr().out
        assert shared == fresh
        assert "usage: graphpurify" in shared


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "graphpurify", "threshold", "--B", "1", "--json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["t_crit"] == pytest.approx(1.134593, abs=1e-6)


# a fresh interpreter under a 1 GB address-space limit: every vertex count
# past the cap must exit 3 before anything of that size is built
_HUGE = (
    ("plan", "--graph", "complete:100000"),
    ("simulate", "--graph", "path:1000000000", "--p", "0.1", "--shots", "1"),
    ("simulate", "--graph", "star:3000000", "--p", "0.1", "--shots", "1"),
    ("plan", "--graph", "cycle:1000000000"),
)


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", _HUGE, ids=[" ".join(a[:3]) for a in _HUGE])
def test_huge_vertex_counts_exit_3_before_allocating(argv):
    pytest.importorskip("resource")
    proc = subprocess.run(
        [sys.executable, "-m", "graphpurify", *argv],
        capture_output=True, text=True, timeout=30, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 3, proc.stderr
    assert "outside 0..256" in proc.stderr


def test_huge_edge_list_count_exits_3_before_allocating(tmp_path):
    pytest.importorskip("resource")
    f = tmp_path / "huge.edges"
    f.write_text("10000000000\n0 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "graphpurify", "plan", "--graph", str(f)],
        capture_output=True, text=True, timeout=30, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 3, proc.stderr
    assert "vertex count 10000000000 outside 0..256" in proc.stderr
