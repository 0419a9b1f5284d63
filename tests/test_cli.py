"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.family == "unit_disk"
        assert args.n == 80

    def test_bounds_defaults(self):
        args = build_parser().parse_args(["bounds"])
        assert args.delta == 16


class TestSolveCommand:
    def test_solve_prints_table(self, capsys):
        exit_code = main(
            ["solve", "--family", "erdos_renyi", "--n", "30", "--p", "0.15", "--k", "2"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "dominating_set_size" in captured.out

    def test_solve_json_output(self, capsys):
        exit_code = main(
            [
                "solve",
                "--family",
                "star",
                "--k",
                "1",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["dominating_set_size"] >= 1
        assert payload["total_rounds"] > 0

    def test_solve_show_set(self, capsys):
        exit_code = main(["solve", "--family", "path", "--n", "12", "--k", "1", "--show-set"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "dominating set:" in captured.out

    def test_solve_no_lp_flag(self, capsys):
        exit_code = main(["solve", "--family", "grid", "--k", "1", "--no-lp", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["lp_optimum"] is None


class TestCompareCommand:
    def test_compare_prints_all_algorithms(self, capsys):
        exit_code = main(
            [
                "compare",
                "--family",
                "erdos_renyi",
                "--n",
                "25",
                "--p",
                "0.15",
                "--k",
                "1",
                "--trials",
                "1",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in ("kuhn-wattenhofer", "greedy", "wu-li"):
            assert name in captured.out

    def test_compare_csv(self, capsys):
        exit_code = main(
            ["compare", "--family", "star", "--k", "1", "--trials", "1", "--csv"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.out.splitlines()[0].startswith("instance,")


class TestSweepCommand:
    def test_sweep_outputs_rows_per_k(self, capsys):
        exit_code = main(
            ["sweep", "--family", "grid", "--max-k", "2"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "ratio" in captured.out


class TestTradeoffCommand:
    ARGS = ["tradeoff", "--family", "grid", "--n", "16", "--max-k", "2", "--trials", "2"]

    def test_tradeoff_prints_table(self, capsys):
        exit_code = main(self.ARGS)
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "trade-off" in captured.out
        assert "lower_bound_shape_kmw" in captured.out

    def test_tradeoff_csv(self, capsys):
        exit_code = main(self.ARGS + ["--csv"])
        lines = capsys.readouterr().out.splitlines()
        assert exit_code == 0
        assert lines[0].startswith("instance,algorithm,k,")
        assert "upper_bound_thm6" in lines[0]
        assert len(lines) == 1 + 2  # header + one row per k


class TestCdsCommand:
    ARGS = ["cds", "--family", "erdos_renyi", "--n", "30", "--p", "0.2"]

    def test_cds_prints_table(self, capsys):
        exit_code = main(self.ARGS)
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Connected dominating set backbones" in captured.out
        assert "guha-khuller" in captured.out

    def test_cds_csv(self, capsys):
        exit_code = main(self.ARGS + ["--csv"])
        lines = capsys.readouterr().out.splitlines()
        assert exit_code == 0
        assert lines[0].startswith("instance,algorithm,")
        assert "backbone_size" in lines[0]
        assert len(lines) == 1 + 4  # header + one row per backbone


class TestTableCommandErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cds", "--n", "20", "--k", "0"], "k must be at least 1"),
            (["sweep", "--n", "20", "--max-k", "0"], "k_values"),
            (["tradeoff", "--n", "20", "--trials", "0"], "trials"),
            (["compare", "--n", "20", "--trials", "0"], "trials"),
            (["faults", "--n", "20", "--k", "0"], "k must be at least 1"),
            (["sweep", "--n", "20", "--jobs", "0"], "jobs"),
        ],
        ids=[
            "cds-k0",
            "sweep-max-k0",
            "tradeoff-trials0",
            "compare-trials0",
            "faults-k0",
            "sweep-jobs0",
        ],
    )
    def test_invalid_options_exit_2_without_traceback(self, capsys, argv, message):
        exit_code = main(argv)
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.out == ""


class TestBoundsCommand:
    def test_bounds_table(self, capsys):
        exit_code = main(["bounds", "--delta", "8", "--max-k", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "alg2_ratio_bound" in captured.out
        assert "pipeline_ratio_bound" in captured.out


class TestScalingFlags:
    def test_jobs_and_suite_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1
        assert args.suite is None

    def test_sweep_over_suite_with_jobs(self, capsys):
        exit_code = main(
            ["sweep", "--suite", "tiny", "--max-k", "2", "--jobs", "2", "--csv"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        lines = captured.out.splitlines()
        # One row per (instance, k): 6 tiny instances × 2 k-values + header.
        assert len(lines) == 1 + 6 * 2
        assert any(line.startswith("star_12,") for line in lines)

    def test_compare_with_jobs(self, capsys):
        exit_code = main(
            ["compare", "--family", "star", "--n", "12", "--jobs", "2", "--trials", "1"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "greedy" in captured.out

    def test_sweep_suite_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--suite", "galactic"])

    def test_sweep_xlarge_rejects_simulated_backend(self, capsys):
        # The default --backend auto resolves CSR suites to the vectorized
        # engine; only an *explicit* simulated request is impossible.
        exit_code = main(["sweep", "--suite", "xlarge", "--backend", "simulated"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "vectorized" in captured.err

    def test_compare_xlarge_rejects_simulated_backend(self, capsys):
        exit_code = main(["compare", "--suite", "xlarge", "--backend", "simulated"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "vectorized" in captured.err

    def test_compare_bulk_suite_uses_bulk_algorithms(self, capsys, monkeypatch):
        # CSR suites keep only the bulk-capable registry specs (pipeline,
        # LRG, Wu–Li, both greedy references); patch the suite to a small
        # CSR instance to keep the test fast.  The default backend (auto)
        # resolves the CSR instance to the vectorized engine.
        import repro.cli as cli_module
        from repro.graphs.bulk import bulk_unit_disk_graph

        monkeypatch.setattr(
            cli_module,
            "graph_suite",
            lambda scale, seed=0: {
                "unit_disk_csr": bulk_unit_disk_graph(60, radius=0.2, seed=seed)
            },
        )
        exit_code = main(
            ["compare", "--suite", "xlarge", "--trials", "1", "--csv"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in ("kuhn-wattenhofer", "greedy", "lrg", "wu-li", "set-cover-greedy"):
            assert name in captured.out
        # The dense-LP reference opts out of bulk-scale comparisons, and
        # the simulated-only specs cannot run on CSR instances.
        assert "central-lp" not in captured.out
        assert "random-fill" not in captured.out


class TestRegistryDrivenCli:
    def test_backend_defaults_to_auto(self):
        args = build_parser().parse_args(["solve"])
        assert args.backend == "auto"

    def test_solve_accepts_any_registered_algorithm(self, capsys):
        exit_code = main(
            ["solve", "--family", "grid", "--algorithm", "greedy", "--json"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["algorithm"] == "greedy"
        assert payload["total_rounds"] is None
        assert payload["dominating_set_size"] >= 1

    def test_solve_reports_resolved_backend(self, capsys):
        exit_code = main(["solve", "--family", "star", "--k", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        # auto runs vectorized wherever the algorithm has it, at any n.
        assert payload["backend"] == "vectorized"
        exit_code = main(
            ["solve", "--family", "star", "--k", "1", "--backend", "simulated", "--json"]
        )
        assert exit_code == 0
        assert json.loads(capsys.readouterr().out)["backend"] == "simulated"

    def test_compare_restricted_to_named_algorithms(self, capsys):
        exit_code = main(
            [
                "compare", "--family", "star", "--n", "14", "--trials", "1",
                "--algorithm", "greedy", "--algorithm", "wu-li", "--csv",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        body = captured.out.splitlines()[1:]
        observed = {line.split(",")[1] for line in body}
        assert observed == {"greedy", "wu-li"}

    def test_algorithms_subcommand_lists_registry(self, capsys):
        from repro.api import algorithm_names

        exit_code = main(["algorithms"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in algorithm_names():
            assert name in captured.out

    def test_solve_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--algorithm", "quantum-annealer"])

    def test_compare_explicit_vectorized_backend_skips_simulated_only(self, capsys):
        exit_code = main(
            [
                "compare", "--family", "star", "--n", "14", "--trials", "1",
                "--backend", "vectorized", "--csv",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        body = captured.out.splitlines()[1:]
        observed = {line.split(",")[1] for line in body}
        assert "kuhn-wattenhofer" in observed
        assert "mis" not in observed and "random-fill" not in observed

    def test_compare_named_incompatible_algorithm_is_a_cli_error(self, capsys):
        exit_code = main(
            [
                "compare", "--family", "star", "--n", "14", "--trials", "1",
                "--backend", "vectorized", "--algorithm", "mis",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err and "mis" in captured.err

    def test_solve_notes_ignored_k(self, capsys):
        exit_code = main(
            ["solve", "--family", "grid", "--algorithm", "greedy", "--k", "5", "--json"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "--k is not used" in captured.err

    def test_solve_reports_resolved_default_k(self, capsys):
        # Without --k the pipeline picks k = Θ(log Δ); the payload shows
        # the resolved value, not null.
        exit_code = main(["solve", "--family", "grid", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["k"] >= 1

    def test_solve_named_incompatible_backend_is_a_cli_error(self, capsys):
        exit_code = main(
            ["solve", "--family", "star", "--algorithm", "mis",
             "--backend", "vectorized"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err and "mis" in captured.err

    def test_solve_disconnected_cds_algorithm_is_a_cli_error(self, capsys):
        exit_code = main(
            ["solve", "--family", "erdos_renyi", "--n", "40", "--p", "0.03",
             "--algorithm", "kw-connect", "--no-lp"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err and "connected" in captured.err

    def test_solve_notes_ignored_variant(self, capsys):
        exit_code = main(
            ["solve", "--family", "grid", "--algorithm", "greedy",
             "--variant", "known_delta", "--json"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "--variant is not used" in captured.err

    def test_solve_weighted_reports_default_k(self, capsys):
        exit_code = main(
            ["solve", "--family", "grid",
             "--algorithm", "weighted-kuhn-wattenhofer", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        # The runner default (k=2) is reported, not null.
        assert payload["k"] == 2


class TestCertifyCommand:
    def test_certify_defaults(self):
        args = build_parser().parse_args(["certify"])
        assert args.algorithm == "kuhn-wattenhofer"
        assert args.backend == "auto"
        assert not args.no_lp

    def test_certify_valid_certificate(self, capsys):
        exit_code = main(
            [
                "certify",
                "--family",
                "erdos_renyi",
                "--n",
                "40",
                "--p",
                "0.15",
                "--seed",
                "1",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["primal_feasible"] is True
        assert payload["dual_feasible"] is True
        assert payload["weak_duality_gap"] >= 0.0
        assert payload["certified_ratio"] >= 1.0
        assert payload["certified_lower_bound"] > 0.0
        assert payload["ratio_vs_lp"] >= 1.0
        assert payload["formulation"] == "sparse-csr"

    def test_certify_no_lp_keeps_lemma1_certificate(self, capsys):
        exit_code = main(
            ["certify", "--family", "star", "--n", "12", "--no-lp", "--json"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["lp_optimum"] is None
        assert payload["ratio_vs_lp"] is None
        assert payload["dual_feasible"] is True

    def test_certify_table_output_reports_validity(self, capsys):
        exit_code = main(
            ["certify", "--family", "grid", "--n", "25", "--algorithm", "greedy"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "certificate: VALID" in captured.out

    def test_certify_uses_sparse_formulation_at_small_n(self, capsys):
        exit_code = main(
            [
                "certify",
                "--family",
                "erdos_renyi",
                "--n",
                "25",
                "--p",
                "0.2",
                "--seed",
                "3",
                "--algorithm",
                "greedy",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "sparse-csr" in captured.out
        assert "certificate: VALID" in captured.out

    def test_certify_forwards_registry_params(self, capsys):
        exit_code = main(
            [
                "certify",
                "--family",
                "unit_disk",
                "--n",
                "30",
                "--k",
                "2",
                "--algorithm",
                "kuhn-wattenhofer",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert json.loads(captured.out)["dominating_set_size"] > 0

    def test_certify_lp_method_defaults(self):
        args = build_parser().parse_args(["certify"])
        assert args.lp_method == "highs"
        assert args.lp_tol == pytest.approx(1e-3)

    def test_certify_rejects_unknown_lp_method(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["certify", "--lp-method", "simplex"])
        assert "invalid choice" in capsys.readouterr().err

    def test_certify_rejects_removed_mwu_method(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["certify", "--lp-method", "mwu"])
        assert "invalid choice: 'mwu'" in capsys.readouterr().err

    @pytest.mark.parametrize("lp_method,lp_tol", [("pdhg", "1e-3")])
    def test_certify_first_order_reports_certificate(
        self, capsys, lp_method, lp_tol
    ):
        exit_code = main(
            [
                "certify",
                "--family",
                "erdos_renyi",
                "--n",
                "40",
                "--p",
                "0.15",
                "--seed",
                "1",
                "--lp-method",
                lp_method,
                "--lp-tol",
                lp_tol,
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["lp_method"] == lp_method
        assert payload["lp_certified_gap"] is not None
        assert 0.0 <= payload["lp_certified_gap"] <= float(lp_tol)
        assert payload["primal_feasible"] is True
        assert payload["dual_feasible"] is True
        assert payload["certified_ratio"] >= 1.0

    def test_certify_highs_reports_no_first_order_gap(self, capsys):
        exit_code = main(
            ["certify", "--family", "grid", "--n", "25", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["lp_method"] == "highs"
        assert payload["lp_certified_gap"] is None

    def test_compare_accepts_lp_method(self, capsys):
        exit_code = main(
            [
                "compare",
                "--family",
                "erdos_renyi",
                "--n",
                "30",
                "--p",
                "0.15",
                "--seed",
                "1",
                "--trials",
                "1",
                "--algorithm",
                "greedy",
                "--lp-method",
                "pdhg",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "greedy" in captured.out

    def test_certify_disconnected_cds_algorithm_is_a_cli_error(self, capsys):
        exit_code = main(
            [
                "certify",
                "--family",
                "erdos_renyi",
                "--n",
                "40",
                "--p",
                "0.01",
                "--seed",
                "0",
                "--algorithm",
                "kw-connect",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err


class TestTraceCommand:
    def test_trace_prints_report_and_invariant_verdict(self, capsys):
        exit_code = main(
            [
                "trace",
                "--family",
                "erdos_renyi",
                "--n",
                "30",
                "--p",
                "0.15",
                "--k",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "events in a" in captured.out
        assert "gray%" in captured.out
        assert "invariants" in captured.out
        assert "OK" in captured.out

    def test_trace_json_payload(self, capsys):
        exit_code = main(
            [
                "trace",
                "--family",
                "star",
                "--n",
                "20",
                "--k",
                "1",
                "--backend",
                "simulated",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["backend"] == "simulated"
        assert payload["trace"] == "ExecutionTrace"
        assert payload["events"] > 0
        assert payload["report"]["phases"]
        assert payload["invariants"]["ok"] is True

    def test_trace_vectorized_backend_is_columnar(self, capsys):
        exit_code = main(
            [
                "trace",
                "--family",
                "erdos_renyi",
                "--n",
                "40",
                "--p",
                "0.1",
                "--k",
                "2",
                "--backend",
                "vectorized",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["trace"] == "ColumnarTrace"
        assert payload["backend"] == "vectorized"
        assert payload["invariants"]["ok"] is True

    def test_trace_no_invariants_flag(self, capsys):
        exit_code = main(
            ["trace", "--family", "path", "--n", "12", "--k", "1", "--no-invariants"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "invariants" not in captured.out

    def test_trace_weighted_variant_skips_invariants(self, capsys):
        exit_code = main(
            [
                "trace",
                "--family",
                "unit_disk",
                "--n",
                "30",
                "--algorithm",
                "weighted-kuhn-wattenhofer",
                "--k",
                "2",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert "invariants" not in payload

    def test_trace_rejects_traceless_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--algorithm", "greedy"])

    def test_algorithms_table_shows_trace_backends(self, capsys):
        exit_code = main(["algorithms"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "simulated+vectorized" in captured.out


class TestFaultsCommand:
    def test_faults_prints_degradation_table(self, capsys):
        exit_code = main(
            [
                "faults",
                "--n",
                "40",
                "--radius",
                "0.25",
                "--trials",
                "1",
                "--rate",
                "0.2,0.2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "mean_repaired_size" in captured.out
        assert "mean_coverage_deficit" in captured.out

    def test_faults_csv(self, capsys):
        exit_code = main(
            [
                "faults",
                "--n",
                "30",
                "--radius",
                "0.3",
                "--trials",
                "1",
                "--rate",
                "0.0,0.3",
                "--csv",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "baseline_size" in captured.out.splitlines()[0]

    def test_faults_rejects_malformed_rate(self, capsys):
        exit_code = main(["faults", "--n", "20", "--rate", "0.5"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "LOSS,CRASH" in captured.err

    def test_faults_rejects_out_of_range_rate(self, capsys):
        exit_code = main(["faults", "--n", "20", "--rate", "1.5,0.0"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "probabilities" in captured.err

    def test_algorithms_table_has_faults_column(self, capsys):
        exit_code = main(["algorithms"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "faults" in captured.out


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 0
        assert "repro-domset" in captured.out
        # Works from a bare source checkout: falls back to repro.__version__.
        import repro

        assert repro.__version__ in captured.out


class TestLoadgenCommand:
    def test_loadgen_table(self, capsys):
        exit_code = main(
            [
                "loadgen",
                "--n",
                "24",
                "--graphs",
                "1",
                "--max-k",
                "2",
                "--repeats",
                "1",
                "--fault-requests",
                "0",
                "--passes",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "req_per_s" in captured.out
        assert "parity" in captured.out

    def test_loadgen_json(self, capsys):
        exit_code = main(
            [
                "loadgen",
                "--n",
                "24",
                "--graphs",
                "1",
                "--max-k",
                "2",
                "--repeats",
                "0",
                "--fault-requests",
                "0",
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["objective_match"] is True
        assert payload["latency"]["p99_s"] is not None
        assert payload["coalescing_factor"] > 1.0


class TestServeCommand:
    def test_serve_answers_request_script(self, capsys, tmp_path, monkeypatch):
        script = tmp_path / "requests.jsonl"
        script.write_text(
            "\n".join(
                [
                    '{"algorithm": "kuhn-wattenhofer", "family": "star",'
                    ' "graph_params": {"leaves": 8}, "seed": 0, "k": 1}',
                    "# comments and blank lines are skipped",
                    "",
                    '{"algorithm": "kuhn-wattenhofer", "family": "star",'
                    ' "graph_params": {"leaves": 8}, "seed": 0, "k": 2}',
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        exit_code = main(["serve", "--requests", str(script), "--stats"])
        captured = capsys.readouterr()
        assert exit_code == 0
        lines = [line for line in captured.out.splitlines() if line.strip()]
        assert len(lines) == 3  # two answers + the stats line
        first = json.loads(lines[0])
        assert first["algorithm"] == "kuhn-wattenhofer"
        assert first["size"] >= 1
        stats = json.loads(lines[-1])["stats"]
        assert stats["completed"] == 2

    def test_serve_reads_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                '{"algorithm": "greedy", "family": "path", "graph_params":'
                ' {"n": 10}}\n'
            ),
        )
        exit_code = main(["serve"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert json.loads(captured.out.splitlines()[0])["algorithm"] == "greedy"

    def test_serve_fault_request(self, capsys, tmp_path):
        script = tmp_path / "requests.jsonl"
        script.write_text(
            '{"algorithm": "kuhn-wattenhofer", "family": "erdos_renyi",'
            ' "graph_params": {"n": 20, "p": 0.2}, "seed": 1, "params":'
            ' {"k": 2, "faults": {"loss_probability": 0.1, "seed": 4},'
            ' "repair": true}}\n',
            encoding="utf-8",
        )
        exit_code = main(["serve", "--requests", str(script)])
        captured = capsys.readouterr()
        assert exit_code == 0
        answer = json.loads(captured.out.splitlines()[0])
        assert answer["size"] >= 1

    def test_serve_rejects_invalid_json(self, tmp_path, capsys):
        script = tmp_path / "requests.jsonl"
        script.write_text("not json\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["serve", "--requests", str(script)])

    def test_serve_empty_script_fails(self, tmp_path, capsys):
        script = tmp_path / "requests.jsonl"
        script.write_text("\n", encoding="utf-8")
        exit_code = main(["serve", "--requests", str(script)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "no requests" in captured.err

    def test_serve_error_request_reported(self, tmp_path, capsys):
        script = tmp_path / "requests.jsonl"
        script.write_text(
            '{"algorithm": "kuhn-wattenhofer", "family": "path",'
            ' "graph_params": {"n": 10}, "k": 0}\n',  # k must be >= 1
            encoding="utf-8",
        )
        exit_code = main(["serve", "--requests", str(script)])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error" in json.loads(captured.out.splitlines()[0])
