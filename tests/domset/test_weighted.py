"""Unit tests for weighted dominating set utilities."""

import networkx as nx
import pytest

from repro.core.weighted import approximate_weighted_fractional_mds
from repro.domset.weighted import (
    validate_weights,
    weighted_cost,
    weighted_quality,
)


def uniform_weights(graph, value=1.0):
    return {node: value for node in graph.nodes()}


class TestValidateWeights:
    def test_accepts_valid_weights(self, path):
        validate_weights(path, uniform_weights(path, 2.0), c_max=4.0)

    def test_rejects_missing_nodes(self, path):
        with pytest.raises(ValueError, match="missing"):
            validate_weights(path, {0: 1.0})

    def test_rejects_cost_below_one(self, path):
        weights = uniform_weights(path)
        weights[0] = 0.5
        with pytest.raises(ValueError):
            validate_weights(path, weights)

    def test_rejects_cost_above_cmax(self, path):
        weights = uniform_weights(path)
        weights[0] = 10.0
        with pytest.raises(ValueError):
            validate_weights(path, weights, c_max=4.0)

    @pytest.mark.parametrize("cost", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_cost(self, path, cost):
        weights = uniform_weights(path)
        weights[2] = cost
        with pytest.raises(ValueError, match="node 2 has non-finite cost"):
            validate_weights(path, weights)
        with pytest.raises(ValueError, match="node 2 has non-finite cost"):
            validate_weights(path, weights, c_max=4.0)
        # The weighted entry point rejects it up front, not in rounding.
        with pytest.raises(ValueError, match="node 2 has non-finite cost"):
            approximate_weighted_fractional_mds(path, weights, k=2)


class TestWeightedCost:
    def test_sums_member_costs(self):
        assert weighted_cost({0: 2.0, 1: 3.0, 2: 5.0}, {0, 2}) == pytest.approx(7.0)

    def test_duplicates_counted_once(self):
        assert weighted_cost({0: 2.0}, [0, 0]) == pytest.approx(2.0)

    def test_empty_set_is_zero(self):
        assert weighted_cost({0: 2.0}, set()) == 0.0


class TestWeightedQuality:
    def test_uniform_weights_match_cardinality(self, star):
        report = weighted_quality(star, uniform_weights(star), {0})
        assert report.cost == pytest.approx(1.0)
        assert report.is_dominating
        assert report.ratio_vs_lp == pytest.approx(1.0, abs=1e-6)

    def test_expensive_set_has_large_ratio(self):
        star = nx.star_graph(5)
        weights = {0: 1.0, **{leaf: 4.0 for leaf in range(1, 6)}}
        all_leaves = set(range(1, 6))
        report = weighted_quality(star, weights, all_leaves)
        assert report.cost == pytest.approx(20.0)
        assert report.ratio_vs_lp > 1.0

    def test_non_dominating_flagged(self, path):
        report = weighted_quality(path, uniform_weights(path), {0}, solve_lp=False)
        assert not report.is_dominating
        assert report.lp_optimum is None
