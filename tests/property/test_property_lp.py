"""Property-based tests for the LP substrate (weak duality, feasibility)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.baselines.exact import exact_optimum_size
from repro.lp.duality import (
    feasible_dual_projection,
    lemma1_dual_solution,
    lemma1_lower_bound,
    weak_duality_gap,
)
from repro.lp.feasibility import check_dual_feasible, check_primal_feasible
from repro.lp.formulation import build_lp
from repro.lp.solver import solve_fractional_mds
from repro.simulator.bulk import BulkGraph

from tests.property.strategies import simple_graphs

COMMON_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestLPSolverProperties:
    @COMMON_SETTINGS
    @given(graph=simple_graphs(max_nodes=14))
    def test_lp_optimum_is_feasible_and_bounded(self, graph):
        solution = solve_fractional_mds(graph)
        assert check_primal_feasible(solution.lp, solution.values, tolerance=1e-6)
        # 1 <= LP_OPT <= n for any non-empty graph.
        assert 1.0 - 1e-6 <= solution.objective <= graph.number_of_nodes() + 1e-6

    @COMMON_SETTINGS
    @given(graph=simple_graphs(max_nodes=12))
    def test_lp_below_integral_optimum(self, graph):
        lp_value = solve_fractional_mds(graph).objective
        assert lp_value <= exact_optimum_size(graph) + 1e-6

    @COMMON_SETTINGS
    @given(graph=simple_graphs(max_nodes=14))
    def test_all_ones_always_feasible(self, graph):
        lp = build_lp(graph)
        assert check_primal_feasible(lp, {node: 1.0 for node in graph.nodes()})


class TestWeakDualityProperties:
    @COMMON_SETTINGS
    @given(graph=simple_graphs(max_nodes=14))
    def test_lemma1_dual_is_feasible(self, graph):
        lp = build_lp(graph)
        assert check_dual_feasible(lp, lemma1_dual_solution(graph), tolerance=1e-9)

    @COMMON_SETTINGS
    @given(graph=simple_graphs(max_nodes=14))
    def test_lemma1_bound_below_lp_optimum(self, graph):
        assert lemma1_lower_bound(graph) <= solve_fractional_mds(graph).objective + 1e-6

    @COMMON_SETTINGS
    @given(graph=simple_graphs(max_nodes=12))
    def test_lemma1_bound_below_exact_optimum(self, graph):
        """Lemma 1 exactly as stated: the dual bound is below |DS| for every
        dominating set, in particular the optimal one."""
        assert lemma1_lower_bound(graph) <= exact_optimum_size(graph) + 1e-9

    @COMMON_SETTINGS
    @given(
        graph=simple_graphs(max_nodes=12),
        scale=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_scaled_lemma1_solution_stays_feasible(self, graph, scale):
        """Dual feasibility is preserved under downscaling (packing LP)."""
        lp = build_lp(graph)
        scaled = {node: scale * value for node, value in lemma1_dual_solution(graph).items()}
        assert check_dual_feasible(lp, scaled, tolerance=1e-9)


class TestDualProjectionProperties:
    """``feasible_dual_projection``: feasible, never below a uniform rescale."""

    @COMMON_SETTINGS
    @given(graph=simple_graphs(max_nodes=14), data=st.data())
    def test_output_feasible_and_dominates_uniform_rescale(self, graph, data):
        n = graph.number_of_nodes()
        raw = np.array(
            data.draw(
                st.lists(
                    st.floats(-1.0, 2.0, allow_subnormal=False),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        costs = data.draw(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=n, max_size=n)
        )
        lp = build_lp(graph, weights=dict(zip(sorted(graph), costs)))
        projected = feasible_dual_projection(lp, raw)
        assert check_dual_feasible(lp, projected, tolerance=1e-9)

        # The former repair: clamp, zero the zero-weight neighbourhoods,
        # then one global factor min(1, min_i w_i / load_i) with a shave.
        uniform = np.maximum(raw, 0.0)
        blocked = lp.coverage((lp.weights <= 0.0).astype(np.float64)) > 0.0
        uniform[blocked] = 0.0
        load = lp.dual_load(uniform)
        loaded = load > 0.0
        if np.any(loaded):
            scale = float(np.min(lp.weights[loaded] / load[loaded]))
            if scale < 1.0:
                uniform *= scale * (1.0 - 1e-15)
        assert np.all(projected >= uniform)
        assert np.all(projected[blocked] == 0.0)

    @COMMON_SETTINGS
    @given(
        graph=simple_graphs(max_nodes=14),
        scale=st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
    )
    def test_feasible_input_returned_unchanged(self, graph, scale):
        lp = build_lp(graph)
        y = scale * lp.vector_from_mapping(lemma1_dual_solution(graph))
        np.testing.assert_array_equal(feasible_dual_projection(lp, y), y)

    @COMMON_SETTINGS
    @given(graph=simple_graphs(max_nodes=14))
    def test_all_ones_maps_exactly_to_lemma1(self, graph):
        lp = build_lp(graph)
        projected = feasible_dual_projection(lp, np.ones(lp.size))
        lemma1 = lp.vector_from_mapping(lemma1_dual_solution(graph))
        np.testing.assert_array_equal(projected, lemma1)


def _dense_n(graph):
    """The dense oracle N = A + I in sorted node order."""
    adjacency = nx.to_numpy_array(graph, nodelist=sorted(graph))
    return adjacency + np.eye(graph.number_of_nodes())


class TestDenseOracleProperties:
    """The CSR formulation agrees with an inline dense N = A + I everywhere."""

    @COMMON_SETTINGS
    @given(graph=simple_graphs(max_nodes=14))
    def test_objective_matches_dense(self, graph):
        n = graph.number_of_nodes()
        dense = linprog(
            c=np.ones(n),
            A_ub=-_dense_n(graph),
            b_ub=-np.ones(n),
            bounds=[(0.0, None)] * n,
            method="highs",
        )
        for graph_input in (graph, BulkGraph.from_graph(graph)):
            solution = solve_fractional_mds(graph_input)
            assert solution.objective == pytest.approx(dense.fun, abs=1e-5)

    @COMMON_SETTINGS
    @given(graph=simple_graphs(max_nodes=14))
    def test_feasibility_verdicts_match(self, graph):
        matrix = _dense_n(graph)
        nodes = sorted(graph)
        lp = build_lp(BulkGraph.from_graph(graph))
        y = lemma1_dual_solution(graph)
        for point in ({node: 1.0 for node in nodes}, y):
            vector = np.array([point[node] for node in nodes])
            load = matrix @ vector
            assert check_primal_feasible(lp, point) == bool(
                np.all(load >= 1.0 - 1e-9)
            )
            assert check_dual_feasible(lp, point) == bool(
                np.all(load <= 1.0 + 1e-9)
            )

    @COMMON_SETTINGS
    @given(graph=simple_graphs(max_nodes=14))
    def test_weak_duality_gap_nonnegative(self, graph):
        bulk = BulkGraph.from_graph(graph)
        solution = solve_fractional_mds(bulk)
        gap = weak_duality_gap(
            solution.lp, solution.values, lemma1_dual_solution(bulk), tolerance=1e-9
        )
        assert gap >= -1e-6
