"""Unit tests for the exact fractional LP solver.

The solver runs HiGHS on the CSR formulation for networkx and
:class:`~repro.simulator.bulk.BulkGraph` input alike; its optima are
checked against an independent HiGHS solve on the dense oracle
``nx.to_numpy_array(g, nodelist=sorted(g)) + np.eye(n)``, built inline.
"""

import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import linprog

from repro.domset.quality import quality_report
from repro.graphs.generators import graph_suite
from repro.lp import solver
from repro.lp.duality import (
    certified_lower_bound,
    lemma1_dual_solution,
    weak_duality_gap,
)
from repro.lp.feasibility import check_primal_feasible
from repro.lp.formulation import DominatingSetLP, build_lp
from repro.lp.solver import solve_fractional_mds, solve_weighted_fractional_mds
from repro.simulator.bulk import BulkGraph

SUITE = sorted(graph_suite("tiny", seed=5).items()) + sorted(
    graph_suite("small", seed=3).items()
)
SUITE_IDS = [name for name, _ in SUITE]


def _weights(graph):
    return {node: 1.0 + (index % 5) for index, node in enumerate(sorted(graph.nodes()))}


def _dense_oracle_optimum(graph, weights=None):
    """LP_OPT from HiGHS on the dense N = A + I, independent of the CSR."""
    nodes = sorted(graph)
    matrix = nx.to_numpy_array(graph, nodelist=nodes) + np.eye(len(nodes))
    costs = np.ones(len(nodes)) if weights is None else [weights[v] for v in nodes]
    result = linprog(
        c=costs,
        A_ub=-matrix,
        b_ub=-np.ones(len(nodes)),
        bounds=[(0.0, None)] * len(nodes),
        method="highs",
    )
    assert result.success
    return float(result.fun)


class TestSolveFractionalMDS:
    def test_star_optimum_is_one(self, star):
        # Setting x_hub = 1 dominates every node.
        solution = solve_fractional_mds(star)
        assert solution.objective == pytest.approx(1.0, abs=1e-6)

    def test_clique_optimum_is_one(self, clique):
        solution = solve_fractional_mds(clique)
        assert solution.objective == pytest.approx(1.0, abs=1e-6)

    def test_path_optimum(self):
        # Path on 9 nodes: integral optimum 3, and the LP optimum equals 3
        # because paths have an integral LP optimum of ceil(n/3).
        solution = solve_fractional_mds(nx.path_graph(9))
        assert solution.objective == pytest.approx(3.0, abs=1e-6)

    def test_single_node(self):
        graph = nx.Graph()
        graph.add_node(0)
        solution = solve_fractional_mds(graph)
        assert solution.objective == pytest.approx(1.0)
        assert solution.values[0] == pytest.approx(1.0)

    def test_edgeless_graph_needs_every_node(self):
        graph = nx.empty_graph(5)
        solution = solve_fractional_mds(graph)
        assert solution.objective == pytest.approx(5.0, abs=1e-6)

    def test_cycle_fractional_optimum(self):
        # On C_5 the optimal fractional solution is x_i = 1/3 everywhere.
        solution = solve_fractional_mds(nx.cycle_graph(5))
        assert solution.objective == pytest.approx(5.0 / 3.0, abs=1e-6)

    def test_solution_is_feasible(self, small_random_graph):
        solution = solve_fractional_mds(small_random_graph)
        assert check_primal_feasible(solution.lp, solution.values, tolerance=1e-6)

    def test_solution_nonnegative(self, small_random_graph):
        solution = solve_fractional_mds(small_random_graph)
        assert all(value >= 0 for value in solution.values.values())

    def test_lp_leq_integral_optimum(self, grid):
        from repro.baselines.exact import exact_optimum_size

        lp_value = solve_fractional_mds(grid).objective
        assert lp_value <= exact_optimum_size(grid) + 1e-6

    def test_as_vector_matches_values(self, path):
        solution = solve_fractional_mds(path)
        vector = solution.as_vector()
        for index, node in enumerate(solution.lp.nodes):
            assert vector[index] == pytest.approx(solution.values[node])


class TestWeightedSolver:
    def test_uniform_weights_match_unweighted(self, grid):
        weights = {node: 1.0 for node in grid.nodes()}
        weighted = solve_weighted_fractional_mds(grid, weights)
        unweighted = solve_fractional_mds(grid)
        assert weighted.objective == pytest.approx(unweighted.objective, abs=1e-6)

    def test_scaling_weights_scales_objective(self, grid):
        weights = {node: 3.0 for node in grid.nodes()}
        weighted = solve_weighted_fractional_mds(grid, weights)
        unweighted = solve_fractional_mds(grid)
        assert weighted.objective == pytest.approx(3 * unweighted.objective, abs=1e-5)

    def test_expensive_hub_avoided(self):
        # Star where the hub is extremely expensive: the LP prefers leaves.
        star = nx.star_graph(4)
        weights = {0: 100.0, **{leaf: 1.0 for leaf in range(1, 5)}}
        solution = solve_weighted_fractional_mds(star, weights)
        cheap_only = 5.0  # covering every leaf by itself and hub by a leaf
        assert solution.objective <= cheap_only + 1e-6
        assert solution.objective < 100.0

    @pytest.mark.parametrize(
        "weights",
        # The array's values are not node ids, so membership tests failed;
        # the list's values happen to be, so it was silently accepted.
        [np.array([1.0, 2.0, 3.0, 4.0]), [0, 1, 2, 3]],
        ids=["array", "list-of-node-ids"],
    )
    def test_non_mapping_weights_rejected(self, weights):
        with pytest.raises(TypeError, match=type(weights).__name__):
            solve_weighted_fractional_mds(nx.path_graph(4), weights)


class TestLazyImports:
    def test_scipy_optimize_not_imported_until_highs_solve(self):
        # scipy.optimize is the slowest import in the package and only the
        # exact HiGHS path needs it, so importing the API must not load it.
        probe = (
            "import sys, repro.api, repro.lp.solver\n"
            "assert 'scipy.optimize' not in sys.modules, 'eager'\n"
            "import networkx as nx\n"
            "repro.lp.solver.solve_fractional_mds(nx.path_graph(3))\n"
            "assert 'scipy.optimize' in sys.modules, 'never loaded'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("name,graph", SUITE, ids=SUITE_IDS)
    def test_unweighted_objective_matches_dense(self, name, graph):
        expected = _dense_oracle_optimum(graph)
        for graph_input in (graph, BulkGraph.from_graph(graph)):
            solution = solve_fractional_mds(graph_input)
            assert solution.objective == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize(
        "name,graph", SUITE[:6], ids=SUITE_IDS[:6]
    )
    def test_weighted_objective_matches_dense(self, name, graph):
        weights = _weights(graph)
        expected = _dense_oracle_optimum(graph, weights)
        for graph_input in (graph, BulkGraph.from_graph(graph)):
            solution = solve_weighted_fractional_mds(graph_input, weights)
            assert solution.objective == pytest.approx(expected, abs=1e-5)


class TestBulkInput:
    def test_networkx_and_bulk_input_agree(self, grid):
        from_graph = solve_weighted_fractional_mds(grid, _weights(grid))
        from_bulk = solve_weighted_fractional_mds(
            BulkGraph.from_graph(grid), _weights(grid)
        )
        assert from_bulk.objective == from_graph.objective
        assert from_bulk.values == from_graph.values

    def test_solution_carries_certifiable_formulation(self, unit_disk):
        bulk = BulkGraph.from_graph(unit_disk)
        solution = solve_fractional_mds(bulk)
        assert isinstance(solution.lp, DominatingSetLP)
        assert solution.lp.bulk is bulk
        assert check_primal_feasible(solution.lp, solution.values, tolerance=1e-6)
        assert solution.as_vector().sum() == pytest.approx(solution.objective)

    def test_expensive_hub_avoided(self):
        star = nx.star_graph(4)
        weights = {0: 100.0, **{leaf: 1.0 for leaf in range(1, 5)}}
        solution = solve_weighted_fractional_mds(BulkGraph.from_graph(star), weights)
        assert solution.objective <= 5.0 + 1e-6

    def test_gap_nonnegative_for_lp_optimum(self, unit_disk):
        bulk = BulkGraph.from_graph(unit_disk)
        solution = solve_fractional_mds(bulk)
        gap = weak_duality_gap(
            solution.lp, solution.values, lemma1_dual_solution(bulk), tolerance=1e-9
        )
        assert gap >= -1e-9

    def test_sparse_name_is_an_alias(self):
        assert solver.solve_fractional_mds_sparse is solve_fractional_mds


SELF_LOOPED = nx.Graph([(0, 0), (1, 1)])


class TestSelfLoopsRejected:
    """A self-loop is not part of N = A + I; every LP entry point refuses it."""

    @pytest.mark.parametrize(
        "entry_point",
        [
            lambda graph: build_lp(graph),
            lambda graph: solve_fractional_mds(graph),
            lambda graph: solve_weighted_fractional_mds(graph, {0: 1.0, 1: 1.0}),
            lambda graph: certified_lower_bound(graph, {0: 0.5, 1: 0.5}),
            lambda graph: quality_report(graph, {0, 1}, solve_lp=True),
        ],
        ids=[
            "build_lp",
            "solve_fractional_mds",
            "solve_weighted_fractional_mds",
            "certified_lower_bound",
            "quality_report",
        ],
    )
    def test_raises_value_error(self, entry_point):
        with pytest.raises(ValueError, match="self loops"):
            entry_point(SELF_LOOPED)
