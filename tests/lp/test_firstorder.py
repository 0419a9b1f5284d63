"""Unit tests for the certified first-order covering-LP solvers.

The contract under test is the *certificate*, not the iteration
dynamics: every solve must return a primal/dual pair that independently
passes the canonical feasibility checks, with a verified relative gap at
or below the requested tolerance -- on regular instances, on degenerate
ones (isolated nodes, single node, zero weights), and through every
layer of the dispatch stack (``solve_covering_lp``, the solver entry
points on both graph types, the rounding baseline, the registry).
"""

import hashlib
import json
import re

import networkx as nx
import numpy as np
import pytest

from repro.graphs.bulk import bulk_erdos_renyi_graph, bulk_graph_suite
from repro.graphs.generators import graph_suite
from repro.lp.duality import certified_lower_bound_lp, lemma1_lower_bound
from repro.lp.feasibility import check_dual_feasible, check_primal_feasible
from repro.lp.firstorder import (
    FIRST_ORDER_METHODS,
    PDHG,
    ConvergenceError,
    DualityCertificate,
    _PairTracker,
    _degree_ordered,
    _feasible_primal_candidates,
    solve_covering_lp,
)
from repro.lp.formulation import build_lp, neighborhood_csr_matrix
from repro.lp.solver import (
    LP_METHODS,
    LPSolverError,
    solve_fractional_mds,
    solve_weighted_fractional_mds,
)
from repro.simulator.bulk import BulkGraph

SUITE = sorted(graph_suite("tiny", seed=5).items()) + sorted(
    graph_suite("small", seed=3).items()
)

#: Per-method certification tolerances used throughout.
TOLS = {"pdhg": 1e-3}


class TestPreconditioning:
    def test_preconditioned_operator_norm_at_most_one(self):
        # τ = σ = 1/(δ + 1), the steps PDHG uses, are the column and row
        # sums of N, so ‖diag(σ)^½ N diag(τ)^½‖₂ ≤ 1 (Pock–Chambolle α = 1).
        for name, graph in SUITE:
            lp = build_lp(graph)
            matrix = nx.to_numpy_array(graph, nodelist=sorted(graph.nodes()))
            np.fill_diagonal(matrix, 1.0)
            step = 1.0 / (lp.bulk.degrees + 1.0)
            np.testing.assert_array_equal(step, 1.0 / matrix.sum(axis=0))
            root = np.sqrt(step)
            scaled = root[:, None] * matrix * root[None, :]
            assert np.linalg.norm(scaled, ord=2) <= 1.0 + 1e-12, name


class TestLocalPrimalRepair:
    def test_patch_is_feasible(self):
        rng = np.random.default_rng(11)
        for name, graph in SUITE:
            lp = build_lp(graph)
            x = rng.uniform(0.0, 0.3, size=lp.size)
            x[rng.random(lp.size) < 0.5] = 0.0
            coverage = lp.coverage(x)
            patch = _feasible_primal_candidates(x, coverage)[-1]
            np.testing.assert_array_equal(
                patch, x + np.maximum(1.0 - coverage, 0.0)
            )
            assert check_primal_feasible(lp, patch, tolerance=1e-9), name

    def test_rescale_offered_only_with_positive_coverage(self):
        lp = build_lp(nx.path_graph(4))
        x = np.array([1.0, 0.0, 0.0, 0.0])
        candidates = _feasible_primal_candidates(x, lp.coverage(x))
        assert len(candidates) == 1
        np.testing.assert_array_equal(candidates[0], [1.0, 0.0, 1.0, 1.0])

    def test_tracker_keeps_smaller_verified_candidate(self, monkeypatch):
        import repro.lp.firstorder as firstorder

        lp = build_lp(nx.path_graph(4))
        # Rescale x / 0.01 costs 101; the patch (1, 0, 0.99, 1) costs 2.99.
        x = np.array([1.0, 0.0, 0.0, 0.01])
        rescale, patch = _feasible_primal_candidates(x, lp.coverage(x))
        tracker = _PairTracker(lp, PDHG, 1e-3)
        tracker.offer_primal(x, lp.coverage(x))
        np.testing.assert_array_equal(tracker.primal, patch)
        assert tracker.primal_objective == pytest.approx(2.99)

        # A candidate that fails verification never enters the pair.
        monkeypatch.setattr(
            firstorder,
            "check_primal_feasible",
            lambda lp, candidate, tolerance: not np.array_equal(candidate, patch),
        )
        tracker = _PairTracker(lp, PDHG, 1e-3)
        tracker.offer_primal(x, lp.coverage(x))
        np.testing.assert_array_equal(tracker.primal, rescale)
        assert tracker.primal_objective == pytest.approx(101.0)


    def test_offer_primal_returns_the_candidate_cost_not_the_best(self):
        lp = build_lp(nx.path_graph(4))
        tracker = _PairTracker(lp, PDHG, 1e-3)
        cheap = np.array([1.0, 0.0, 0.0, 0.01])  # patch costs 2.99
        assert tracker.offer_primal(cheap, lp.coverage(cheap)) == pytest.approx(2.99)
        # A dearer iterate reports its own cost but leaves the best alone.
        dear = np.array([1.0, 0.0, 1.0, 1.0])  # already tight: costs 3
        assert tracker.offer_primal(dear, lp.coverage(dear)) == pytest.approx(3.0)
        assert tracker.primal_objective == pytest.approx(2.99)

    def test_offer_primal_returns_inf_when_nothing_verifies(self, monkeypatch):
        import repro.lp.firstorder as firstorder

        monkeypatch.setattr(
            firstorder, "check_primal_feasible", lambda lp, candidate, tolerance: False
        )
        lp = build_lp(nx.path_graph(4))
        tracker = _PairTracker(lp, PDHG, 1e-3)
        x = np.ones(4)
        assert tracker.offer_primal(x, lp.coverage(x)) == float("inf")
        assert tracker.primal is None

    def test_offer_dual_returns_the_verified_bound(self, monkeypatch):
        import repro.lp.firstorder as firstorder

        lp = build_lp(nx.path_graph(4))
        tracker = _PairTracker(lp, PDHG, 1e-3)
        # (0.5, 0, 0, 0.5) is already a feasible packing: bound 1.0.
        assert tracker.offer_dual(np.array([0.5, 0.0, 0.0, 0.5])) == pytest.approx(1.0)
        # A smaller bound is returned as is and does not replace the best.
        assert tracker.offer_dual(np.array([0.25, 0.0, 0.0, 0.0])) == pytest.approx(0.25)
        assert tracker.dual_objective == pytest.approx(1.0)

        monkeypatch.setattr(
            firstorder, "check_dual_feasible", lambda lp, candidate, tolerance: False
        )
        assert tracker.offer_dual(np.ones(4)) == float("-inf")
        assert tracker.dual_objective == pytest.approx(1.0)


class TestCertificateContract:
    @pytest.mark.parametrize("method", FIRST_ORDER_METHODS)
    def test_certified_gap_at_or_below_tol(self, method):
        for name, graph in SUITE:
            lp = build_lp(graph)
            solution = solve_covering_lp(lp, method=method, tol=TOLS[method])
            certificate = solution.certificate
            assert certificate.certified, name
            assert certificate.gap <= TOLS[method], name

    @pytest.mark.parametrize("method", FIRST_ORDER_METHODS)
    def test_returned_pair_passes_canonical_checks(self, method):
        for name, graph in SUITE:
            lp = build_lp(graph)
            solution = solve_covering_lp(lp, method=method, tol=TOLS[method])
            assert check_primal_feasible(lp, solution.x, tolerance=1e-9), name
            assert check_dual_feasible(lp, solution.y, tolerance=1e-9), name

    @pytest.mark.parametrize("method", FIRST_ORDER_METHODS)
    def test_objectives_bracket_the_exact_optimum(self, method):
        for name, graph in SUITE:
            lp = build_lp(graph)
            exact = solve_fractional_mds(graph).objective
            certificate = solve_covering_lp(
                lp, method=method, tol=TOLS[method]
            ).certificate
            assert certificate.dual_objective <= exact + 1e-7, name
            assert certificate.primal_objective >= exact - 1e-7, name
            assert certificate.primal_objective <= exact * (
                1 + TOLS[method]
            ) + 1e-7, name

    @pytest.mark.parametrize("method", FIRST_ORDER_METHODS)
    def test_certificate_rechecks_through_certified_lower_bound(self, method):
        lp = build_lp(dict(SUITE)["grid_8x8"])
        solution = solve_covering_lp(lp, method=method, tol=TOLS[method])
        # The canonical certification helper, fed the raw dual, must
        # reproduce the certificate's bound (it re-projects internally).
        assert certified_lower_bound_lp(lp, solution.y) == pytest.approx(
            solution.certificate.dual_objective, rel=1e-9
        )

    def test_dual_bound_dominates_lemma1_on_regular_instances(self):
        # First-order duals should be *better* bounds than Lemma 1 once
        # converged (Lemma 1 is the warm start).
        for name, graph in SUITE:
            lp = build_lp(graph)
            certificate = solve_covering_lp(lp, method="pdhg", tol=1e-3).certificate
            assert certificate.dual_objective >= lemma1_lower_bound(graph) - 1e-7, name

    def test_certificate_payload_fields(self):
        lp = build_lp(nx.path_graph(10))
        payload = solve_covering_lp(lp, method="pdhg", tol=1e-3).certificate.as_dict()
        assert payload["certified"] is True
        assert payload["certified_gap"] <= 1e-3
        assert payload["method"] == "pdhg"
        assert payload["certified_lower_bound"] <= payload["primal_objective"]


class TestDegenerateInputs:
    @pytest.mark.parametrize("method", FIRST_ORDER_METHODS)
    def test_single_node_graph(self, method):
        lp = build_lp(nx.empty_graph(1))
        certificate = solve_covering_lp(lp, method=method, tol=TOLS[method]).certificate
        assert certificate.primal_objective == pytest.approx(1.0)
        assert certificate.dual_objective == pytest.approx(1.0)

    @pytest.mark.parametrize("method", FIRST_ORDER_METHODS)
    def test_isolated_nodes(self, method):
        # A path plus three isolated nodes: each isolate must self-cover.
        graph = nx.path_graph(6)
        graph.add_nodes_from([10, 11, 12])
        lp = build_lp(graph)
        solution = solve_covering_lp(lp, method=method, tol=TOLS[method])
        exact = solve_fractional_mds(graph).objective
        assert solution.certificate.certified
        assert solution.certificate.primal_objective <= exact * (
            1 + TOLS[method]
        ) + 1e-7
        isolates = lp.bulk.index_of([10, 11, 12])
        assert np.all(solution.x[isolates] >= 1.0 - 1e-7)

    @pytest.mark.parametrize("method", FIRST_ORDER_METHODS)
    def test_zero_weight_nodes(self, method):
        # Zero-cost nodes are free cover: the optimum covers everything
        # reachable from them for nothing.
        graph = nx.star_graph(5)
        bulk = BulkGraph.from_graph(graph)
        weights = {node: 0.0 if node == 0 else 1.0 for node in graph.nodes()}
        lp = build_lp(bulk, weights=weights)
        solution = solve_covering_lp(lp, method=method, tol=TOLS[method])
        certificate = solution.certificate
        assert certificate.certified
        # The hub covers every node at cost 0, so both objectives are 0.
        assert certificate.primal_objective == pytest.approx(0.0, abs=1e-9)
        assert certificate.dual_objective == pytest.approx(0.0, abs=1e-9)
        assert check_primal_feasible(lp, solution.x, tolerance=1e-9)
        assert check_dual_feasible(lp, solution.y, tolerance=1e-9)

    @pytest.mark.parametrize("method", FIRST_ORDER_METHODS)
    def test_tol_zero_rejected(self, method):
        lp = build_lp(nx.path_graph(5))
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_covering_lp(lp, method=method, tol=0.0)

    @pytest.mark.parametrize("method", FIRST_ORDER_METHODS)
    def test_negative_tol_rejected(self, method):
        lp = build_lp(nx.path_graph(5))
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_covering_lp(lp, method=method, tol=-1e-3)

    @pytest.mark.parametrize("method", FIRST_ORDER_METHODS)
    def test_very_loose_tol_certifies_from_warm_start(self, method):
        # tol = 10 accepts any verified pair; the warm start is already
        # one, so the solve returns at the first certification check.
        lp = build_lp(dict(SUITE)["erdos_renyi_n60"])
        certificate = solve_covering_lp(lp, method=method, tol=10.0).certificate
        assert certificate.certified
        assert certificate.gap <= 10.0

    def test_unknown_method_rejected(self):
        lp = build_lp(nx.path_graph(5))
        with pytest.raises(ValueError, match="unknown first-order method"):
            solve_covering_lp(lp, method="simplex", tol=1e-3)

    def test_removed_mwu_method_rejected(self):
        lp = build_lp(nx.path_graph(5))
        with pytest.raises(ValueError, match="unknown first-order method 'mwu'"):
            solve_covering_lp(lp, method="mwu", tol=0.05)

    @pytest.mark.parametrize("budget", [0, -3, 2.5, True, False, "50", 50.0])
    def test_budget_must_be_a_positive_int(self, budget):
        lp = build_lp(nx.path_graph(5))
        message = f"max_iterations must be a positive int (got {budget!r})"
        with pytest.raises(ValueError, match=re.escape(message)):
            solve_covering_lp(lp, tol=1e-3, max_iterations=budget)

    @pytest.mark.parametrize("budget", [1, 50, np.int64(50)])
    def test_positive_int_budgets_accepted(self, budget):
        lp = build_lp(dict(SUITE)["erdos_renyi_n60"])
        with pytest.raises(ConvergenceError, match=f"within {int(budget)} iterations"):
            solve_covering_lp(lp, tol=1e-12, max_iterations=budget)

    def test_budget_exhaustion_raises_with_best_certificate(self):
        lp = build_lp(dict(SUITE)["erdos_renyi_n60"])
        with pytest.raises(ConvergenceError) as excinfo:
            solve_covering_lp(lp, method="pdhg", tol=1e-12, max_iterations=50)
        best = excinfo.value.certificate
        assert best is None or isinstance(best, DualityCertificate)


class TestRestartedHalpern:
    """Pins the iteration counts restarted Halpern PDHG reaches.

    The ceilings sit well below plain Chambolle–Pock's 1,550 / 2,100 /
    5,650 iterations on these rows at tol 10⁻³ (and 112,150 on grid_45x45
    at tol 10⁻⁵), so losing the Halpern anchor or the restarts fails them.
    """

    @pytest.mark.parametrize(
        "name,ceiling",
        [
            ("erdos_renyi_n2000", 700),
            ("unit_disk_n2000", 1000),
            ("grid_45x45", 1200),
        ],
    )
    def test_iteration_ceiling_at_tol_1e3(self, name, ceiling):
        lp = build_lp(bulk_graph_suite("large")[name])
        certificate = solve_covering_lp(lp, tol=1e-3).certificate
        assert certificate.certified
        assert certificate.iterations <= ceiling

    def test_grid_certifies_at_tight_tolerance(self):
        lp = build_lp(bulk_graph_suite("large")["grid_45x45"])
        # The budget turns a slower run into a ConvergenceError.
        solution = solve_covering_lp(lp, tol=1e-5, max_iterations=10_000)
        assert solution.certificate.gap <= 1e-5
        assert check_primal_feasible(lp, solution.x, tolerance=1e-9)
        assert check_dual_feasible(lp, solution.y, tolerance=1e-9)

    def test_warm_start_reads_the_cached_delta_one(self, monkeypatch):
        bulk = bulk_graph_suite("large")["erdos_renyi_n2000"]
        bulk.degree_maxima()
        pulled = []
        closed_max = BulkGraph.closed_max

        def spy(self, values, *args, **kwargs):
            pulled.append(np.asarray(values))
            return closed_max(self, values, *args, **kwargs)

        monkeypatch.setattr(BulkGraph, "closed_max", spy)
        assert solve_covering_lp(build_lp(bulk), tol=1e-1).certificate.certified
        assert not any(np.array_equal(values, bulk.degrees) for values in pulled)

    def test_restarts_cut_iterations(self, monkeypatch):
        # Restarts on erdos_renyi_n60 at tol 10⁻⁴ take the anchored
        # iteration from 8,550 iterations down to 500.
        import repro.lp.firstorder as firstorder

        lp = build_lp(dict(SUITE)["erdos_renyi_n60"])
        restarted = solve_covering_lp(lp, tol=1e-4).certificate
        monkeypatch.setattr(firstorder, "_RESTART_SUFFICIENT", 0.0)
        monkeypatch.setattr(firstorder, "_RESTART_NECESSARY", 0.0)
        monkeypatch.setattr(firstorder, "_RESTART_ARTIFICIAL", float("inf"))
        anchored = solve_covering_lp(lp, tol=1e-4).certificate
        assert restarted.certified and anchored.certified
        assert restarted.iterations <= 1000
        assert anchored.iterations >= 5 * restarted.iterations

    def test_best_pair_is_monotone_across_checks_and_restarts(self, monkeypatch):
        # Restarts move the iterate, never the tracked pair: the best
        # verified primal never rises and the best dual never falls.
        primal_history, dual_history, offered = [], [], []
        offer_primal = _PairTracker.offer_primal
        offer_dual = _PairTracker.offer_dual

        def spy_primal(self, x, coverage):
            objective = offer_primal(self, x, coverage)
            offered.append(objective)
            primal_history.append(self.primal_objective)
            return objective

        def spy_dual(self, y):
            objective = offer_dual(self, y)
            dual_history.append(self.dual_objective)
            return objective

        monkeypatch.setattr(_PairTracker, "offer_primal", spy_primal)
        monkeypatch.setattr(_PairTracker, "offer_dual", spy_dual)
        lp = build_lp(bulk_graph_suite("large")["unit_disk_n2000"])
        solution = solve_covering_lp(lp, tol=1e-3)
        checks = solution.certificate.iterations // 50 + 1
        assert len(primal_history) == len(dual_history) == checks
        assert all(b <= a for a, b in zip(primal_history, primal_history[1:]))
        assert all(b >= a for a, b in zip(dual_history, dual_history[1:]))
        # The first check always restarts (its epoch is the whole run),
        # so a run of many checks crosses at least one restart.
        assert checks > 2
        assert min(offered) == primal_history[-1]
        assert solution.certificate.primal_objective == primal_history[-1]
        assert solution.certificate.dual_objective == dual_history[-1]


class TestSolverDispatch:
    def test_lp_methods_constant(self):
        assert LP_METHODS == ("highs", "pdhg")

    @pytest.mark.parametrize("method", FIRST_ORDER_METHODS)
    def test_bulk_entry_point_attaches_certificate(self, method):
        bulk = BulkGraph.from_graph(dict(SUITE)["erdos_renyi_n60"])
        solution = solve_fractional_mds(bulk, method=method, tol=TOLS[method])
        assert solution.method == method
        assert solution.certificate is not None
        assert solution.certificate.gap <= TOLS[method]
        assert solution.dual_values is not None
        # The mapping round-trips through the formulation's ordering.
        assert solution.objective == pytest.approx(
            solution.certificate.primal_objective, rel=1e-12
        )

    def test_highs_entry_point_has_no_certificate(self):
        bulk = BulkGraph.from_graph(nx.path_graph(10))
        solution = solve_fractional_mds(bulk)
        assert solution.method == "highs"
        assert solution.certificate is None
        assert solution.dual_values is None

    def test_networkx_entry_point_converts_to_bulk_for_firstorder(self):
        graph = dict(SUITE)["erdos_renyi_n60"]
        exact = solve_fractional_mds(graph).objective
        solution = solve_fractional_mds(graph, method="pdhg", tol=1e-3)
        assert solution.certificate is not None
        assert solution.objective <= exact * 1.001 + 1e-9
        # Node identifiers survive the BulkGraph conversion.
        assert set(solution.values) == set(graph.nodes())

    @pytest.mark.parametrize("method", FIRST_ORDER_METHODS)
    def test_weighted_bulk_solve(self, method):
        graph = dict(SUITE)["erdos_renyi_n60"]
        weights = {
            node: 1.0 + (index % 5)
            for index, node in enumerate(sorted(graph.nodes()))
        }
        bulk = BulkGraph.from_graph(graph)
        exact = solve_weighted_fractional_mds(graph, weights).objective
        solution = solve_weighted_fractional_mds(
            bulk, weights=weights, method=method, tol=TOLS[method]
        )
        assert solution.certificate.certified
        assert solution.objective <= exact * (1 + TOLS[method]) + 1e-7
        assert solution.objective >= exact - 1e-7

    def test_unknown_method_rejected_by_solver(self):
        bulk = BulkGraph.from_graph(nx.path_graph(5))
        with pytest.raises(ValueError, match="unknown LP method"):
            solve_fractional_mds(bulk, method="ipm")

    def test_removed_mwu_method_rejected_by_solver(self):
        bulk = BulkGraph.from_graph(nx.path_graph(5))
        with pytest.raises(ValueError, match="unknown LP method"):
            solve_fractional_mds(bulk, method="mwu")

    def test_budget_exhaustion_surfaces_as_solver_error(self, monkeypatch):
        import repro.lp.firstorder as firstorder

        monkeypatch.setattr(firstorder, "_MAX_ITERATIONS", 10)
        bulk = BulkGraph.from_graph(dict(SUITE)["erdos_renyi_n60"])
        with pytest.raises(LPSolverError, match="did not reach"):
            solve_fractional_mds(bulk, method="pdhg", tol=1e-9)


class TestRoundingIntegration:
    @pytest.mark.parametrize("method", FIRST_ORDER_METHODS)
    def test_central_lp_rounding_with_firstorder(self, method):
        from repro.baselines.lp_rounding_central import (
            central_lp_rounding_dominating_set,
        )
        from repro.domset.validation import is_dominating_set

        graph = dict(SUITE)["erdos_renyi_n60"]
        result = central_lp_rounding_dominating_set(
            graph, seed=3, lp_method=method, lp_tol=TOLS[method]
        )
        assert is_dominating_set(graph, result.dominating_set)
        assert result.lp_solution.certificate.certified

    def test_registry_normalizes_lp_method_params(self):
        from repro.api import normalized_params

        params = normalized_params("central-lp", {"lp_method": "pdhg"})
        assert params["lp_method"] == "pdhg"
        assert params["lp_tol"] == 1e-3
        # Defaults spelled out vs. implicit normalize identically.
        assert params == normalized_params(
            "central-lp", {"lp_method": "pdhg", "lp_tol": 1e-3}
        )

    def test_registry_solve_with_firstorder_lp(self):
        from repro.api import solve as api_solve
        from repro.domset.validation import is_dominating_set

        graph = dict(SUITE)["erdos_renyi_n60"]
        report = api_solve(
            "central-lp", graph, seed=1, lp_method="pdhg", lp_tol=1e-3
        )
        assert is_dominating_set(graph, report.dominating_set)
        assert report.params["lp_method"] == "pdhg"
        assert report.params["lp_tol"] == 1e-3


class TestCsrCache:
    def test_neighborhood_matrix_cached_on_bulk(self):
        bulk = BulkGraph.from_graph(nx.path_graph(10))
        first = neighborhood_csr_matrix(bulk)
        assert neighborhood_csr_matrix(bulk) is first
        lp = build_lp(bulk)
        assert lp.neighborhood_matrix() is first

    def test_cached_matrix_matches_operators(self):
        for _, graph in SUITE[:4]:
            lp = build_lp(graph)
            matrix = lp.neighborhood_matrix()
            x = np.linspace(0.1, 1.0, lp.size)
            np.testing.assert_allclose(matrix @ x, lp.coverage(x), rtol=1e-12)

    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (300, 2), (2000, 3)])
    def test_matrix_equals_the_coordinate_build(self, n, seed):
        # N = A + I as scipy's canonical sum: the same index, pointer and
        # value bytes as the COO round trip over (row, col) and the diagonal
        # it replaced, without reading the int64 views.
        from scipy import sparse

        bulk = bulk_erdos_renyi_graph(n, min(1.0, 8 / max(n - 1, 1)), seed=seed)
        matrix = neighborhood_csr_matrix(bulk)
        if bulk.number_of_edges:  # the edgeless build is the validated one
            assert bulk._indptr64 is None and bulk._col64 is None
        diagonal = np.arange(n, dtype=np.int64)
        reference = sparse.csr_matrix(
            (
                np.ones(bulk.col.size + n),
                (
                    np.concatenate([bulk.row, diagonal]),
                    np.concatenate([bulk.col, diagonal]),
                ),
            ),
            shape=(n, n),
        )
        for name in ("indptr", "indices", "data"):
            ours, theirs = getattr(matrix, name), getattr(reference, name)
            assert ours.dtype == theirs.dtype, name
            assert ours.tobytes() == theirs.tobytes(), name

    def test_distinct_graphs_get_distinct_matrices(self):
        a = BulkGraph.from_graph(nx.path_graph(5))
        b = BulkGraph.from_graph(nx.path_graph(5))
        assert neighborhood_csr_matrix(a) is not neighborhood_csr_matrix(b)


def solution_digest(*parts) -> str:
    """sha256 prefix of float64 vectors and certificate payloads, in order."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, dict):
            digest.update(json.dumps(part, sort_keys=True).encode())
        else:
            assert part.dtype == np.float64
            digest.update(part.astype("<f8").tobytes())
    return digest.hexdigest()[:16]


def pinned_lps() -> dict:
    """The formulations whose PDHG solves are pinned byte for byte."""
    lps = {
        name: build_lp(bulk) for name, bulk in bulk_graph_suite("large").items()
    }
    bulk = bulk_erdos_renyi_graph(500, 0.01, seed=4)
    lps["erdos_renyi_zero_weights"] = build_lp(
        bulk, weights={node: float(node % 5 != 0) for node in bulk.nodes}
    )
    bulk = bulk_erdos_renyi_graph(600, 0.002, seed=2)
    assert np.count_nonzero(bulk.degrees == 0) > 0
    lps["erdos_renyi_isolates"] = build_lp(bulk)
    return lps


#: ``solution_digest(x, y, certificate.as_dict())`` of each ``pinned_lps``
#: solve at tol 1e-3, recorded with the iteration on N's canonical row
#: order: every iterate, restart and certificate must stay bitwise equal.
PINNED_SOLUTION_DIGESTS = {
    "erdos_renyi_n2000": "b694b709399b90be",
    "unit_disk_n2000": "97f9d0dfb6855b70",
    "grid_45x45": "9e2d8c40294670c9",
    "caterpillar_500x3": "e4a6f9d7a1556bc0",
    "erdos_renyi_zero_weights": "b9428a7d03bbe92d",
    "erdos_renyi_isolates": "f8b8d070a213007f",
}

#: ``solution_digest(x, y, certificate.as_dict())`` of an n = 2·10⁴ ER
#: solve (mean degree 10) at tol 1e-2, the size where the iterate
#: vectors stay in cache and the row order matters most.
PINNED_LARGE_ER_DIGEST = "74bbf4917286a073"

#: ``solution_digest(certificate.as_dict())`` of the best certificate a
#: 50-iteration budget leaves on the ``ConvergenceError`` at tol 1e-12.
PINNED_CONVERGENCE_DIGEST = "98907c972ed778c7"


class TestByteIdenticalSolves:
    def test_solutions_match_the_pinned_digests(self):
        digests = {}
        for name, lp in pinned_lps().items():
            solution = solve_covering_lp(lp, tol=1e-3)
            assert solution.certificate.certified, name
            digests[name] = solution_digest(
                solution.x, solution.y, solution.certificate.as_dict()
            )
        assert digests == PINNED_SOLUTION_DIGESTS

    def test_large_er_solution_matches_the_pinned_digest(self):
        bulk = bulk_erdos_renyi_graph(20_000, 10 / 19_999, seed=1)
        solution = solve_covering_lp(build_lp(bulk), tol=1e-2)
        assert solution.certificate.certified
        digest = solution_digest(
            solution.x, solution.y, solution.certificate.as_dict()
        )
        assert digest == PINNED_LARGE_ER_DIGEST

    def test_convergence_error_certificate_matches_the_pinned_digest(self):
        lp = build_lp(bulk_graph_suite("large")["erdos_renyi_n2000"])
        with pytest.raises(ConvergenceError) as excinfo:
            solve_covering_lp(lp, tol=1e-12, max_iterations=50)
        best = excinfo.value.certificate
        assert best is not None and best.iterations == 50
        assert solution_digest(best.as_dict()) == PINNED_CONVERGENCE_DIGEST


def operator_cases() -> dict:
    """N = A + I of graphs with irregular, equal and degenerate row lengths."""
    graphs = dict(bulk_graph_suite("large"))
    graphs["edgeless"] = bulk_erdos_renyi_graph(30, 0.0)
    graphs["single_node"] = BulkGraph.from_graph(nx.empty_graph(1))
    graphs["isolates"] = bulk_erdos_renyi_graph(600, 0.002, seed=2)
    return {name: neighborhood_csr_matrix(bulk) for name, bulk in graphs.items()}


def with_int64_indices(matrix):
    """A copy of ``matrix`` whose index arrays are int64."""
    wide = matrix.copy()
    wide.indptr = matrix.indptr.astype(np.int64)
    wide.indices = matrix.indices.astype(np.int64)
    return wide


class TestDegreeOrderedOperator:
    """PDHG iterates on M, N's rows in ascending length order (relabelled)."""

    @pytest.mark.parametrize("name", sorted(operator_cases()))
    def test_rows_sorted_by_length_with_canonical_entries(self, name):
        matrix = operator_cases()[name]
        ordered, order, inverse = _degree_ordered(matrix)
        n = matrix.shape[0]
        np.testing.assert_array_equal(np.sort(order), np.arange(n))
        np.testing.assert_array_equal(inverse[order], np.arange(n))
        assert np.all(np.diff(np.diff(ordered.indptr)) >= 0)
        for r, row in enumerate(order):
            canonical = matrix.indices[matrix.indptr[row] : matrix.indptr[row + 1]]
            listed = ordered.indices[ordered.indptr[r] : ordered.indptr[r + 1]]
            np.testing.assert_array_equal(listed, inverse[canonical])
        assert ordered.data is matrix.data

    @pytest.mark.parametrize("name", sorted(operator_cases()))
    def test_matvec_is_bitwise_the_permuted_canonical_one(self, name):
        matrix = operator_cases()[name]
        ordered, order, _ = _degree_ordered(matrix)
        v = np.random.default_rng(3).uniform(-1.0, 1.0, matrix.shape[0])
        assert (ordered @ v[order]).tobytes() == (matrix @ v)[order].tobytes()

    @pytest.mark.parametrize("wide", [False, True])
    def test_index_dtype_is_kept(self, wide):
        matrix = operator_cases()["erdos_renyi_n2000"]
        assert matrix.indices.dtype == np.int32
        if wide:
            matrix = with_int64_indices(matrix)
        ordered, order, inverse = _degree_ordered(matrix)
        dtype = np.int64 if wide else np.int32
        for array in (ordered.indptr, ordered.indices, order, inverse):
            assert array.dtype == dtype
        v = np.linspace(0.0, 1.0, matrix.shape[0])
        assert (ordered @ v[order]).tobytes() == (matrix @ v)[order].tobytes()

    def test_every_in_loop_matvec_runs_on_the_ordered_copy(self, monkeypatch):
        import repro.lp.firstorder as firstorder

        bulk = bulk_graph_suite("large")["unit_disk_n2000"]
        canonical = neighborhood_csr_matrix(bulk)
        before = [
            getattr(canonical, name).tobytes()
            for name in ("indptr", "indices", "data")
        ]
        operands = []
        matvec = firstorder._matvec

        def spy(matrix, vector, out):
            operands.append(matrix)
            return matvec(matrix, vector, out)

        monkeypatch.setattr(firstorder, "_matvec", spy)
        certificate = solve_covering_lp(build_lp(bulk), tol=1e-3).certificate
        assert certificate.certified
        # One warm-start coverage on N, then two matvecs per iteration and
        # one coverage per check, all on the ordered copy.
        iterations = certificate.iterations
        assert len(operands) == 1 + 2 * iterations + iterations // 50
        assert operands[0] is canonical
        ordered = operands[1]
        assert ordered is not canonical
        assert all(operand is ordered for operand in operands[1:])
        assert np.all(np.diff(np.diff(ordered.indptr)) >= 0)
        assert neighborhood_csr_matrix(bulk) is canonical
        after = [
            getattr(canonical, name).tobytes()
            for name in ("indptr", "indices", "data")
        ]
        assert after == before
