"""Reproduction of Kuhn & Wattenhofer (PODC 2003 / DC 2005):
*Constant-time distributed dominating set approximation*.

The library contains five layers:

* ``repro.simulator`` -- a synchronous LOCAL-model message-passing simulator
  (rounds, messages, message-size accounting, traces, fault injection).
* ``repro.graphs`` / ``repro.lp`` / ``repro.domset`` -- substrates: graph
  generators (including unit disk graphs, mobility and CSR-native
  ``BulkGraph`` construction), the LP_MDS / DLP_MDS formulations with an
  exact solver, and dominating set validation and quality reporting.
* ``repro.core`` -- the paper's contribution: Algorithm 1 (randomized
  rounding), Algorithm 2 (fractional approximation, Δ known), Algorithm 3
  (Δ unknown), the weighted variant, the composed Theorem-6 pipeline, and
  runtime checks of the paper's Lemmas 2-7.
* ``repro.baselines`` / ``repro.analysis`` -- comparison algorithms
  (greedy, exact, LRG, Wu-Li, trivial) and the experiment/bounds machinery
  used by the benchmark harness.
* ``repro.api`` -- the unified algorithm registry and the ``solve()``
  façade every CLI sub-command, sweep and benchmark dispatches through.

Quickstart
----------

>>> import networkx as nx
>>> from repro import solve
>>> graph = nx.random_geometric_graph(50, 0.25, seed=1)
>>> report = solve("kuhn-wattenhofer", graph, k=2, seed=0)
>>> report.backend, report.size, report.total_rounds  # doctest: +SKIP
('simulated', 11, 47)
>>> sorted(report.dominating_set)  # doctest: +SKIP
[...]

``solve(algorithm, graph, **params)`` runs any registered algorithm --
``repro.api.algorithm_names()`` lists them (the pipeline, greedy, LRG,
Wu–Li, central LP rounding, the weighted pipeline, CDS constructions,
...) -- and returns one normalised ``RunReport`` (set, objective, backend
used, rounds, messages, wall-clock).  The classic per-algorithm entry
points (``kuhn_wattenhofer_dominating_set`` et al.) remain available
unchanged; the registry delegates to them.

Backends and ``backend="auto"``
-------------------------------

Every algorithm supports up to two execution engines:

* ``"simulated"`` -- drive one message-passing program per node through
  the synchronous LOCAL-model simulator.  Use it when you need
  message-level fidelity: fault injection, per-message size accounting,
  or event-by-event execution traces.
* ``"vectorized"`` -- execute the same bulk-synchronous schedule with
  whole-graph NumPy operations (``repro.core.vectorized`` over
  ``repro.simulator.bulk``).  It produces bitwise-identical x-vectors,
  objectives, round counts and (for a given seed) the same rounded
  dominating sets, at orders-of-magnitude lower cost -- and records
  columnar traces (``repro.simulator.columnar``) that feed the same
  invariant monitors at n ≥ 20 000.

``solve`` defaults to ``backend="auto"``, resolved from the algorithm's
registered capabilities alone: vectorized wherever the algorithm has it
(networkx and CSR ``BulkGraph`` inputs alike, at every n); simulated on
request.  ``collect_trace=True`` restricts dispatch to the backends the
spec can trace on (event-based ``ExecutionTrace`` on the simulated engine,
columnar ``ColumnarTrace`` on the vectorized engine), and impossible
combinations raise one well-worded ``CapabilityError`` naming the
algorithm, the capability and the backends that support it.

Both engines report rounds and message counts through
``ExecutionMetrics``; the vectorized backend *models* the messages a
fault-free simulated run would have sent rather than materialising them.
"""

from repro.core import (
    BACKENDS,
    CapabilityError,
    FractionalVariant,
    PipelineResult,
    RoundingRule,
    approximate_fractional_mds,
    approximate_fractional_mds_unknown_delta,
    approximate_weighted_fractional_mds,
    kuhn_wattenhofer_dominating_set,
    log_delta_parameter,
    round_fractional_solution,
    round_fractional_solution_batched,
    weighted_kuhn_wattenhofer_dominating_set,
)
from repro.domset import is_dominating_set, quality_report
from repro.simulator.bulk import BulkGraph

#: Registry façade names re-exported lazily (PEP 562): ``import repro``
#: stays light -- the registry pulls in every baseline and CDS module, so
#: it only loads on first use of ``repro.solve`` and friends.  This keeps
#: process-pool workers (which import subpackages, not the registry) from
#: paying the full-library import cost.
_API_EXPORTS = (
    "AUTO",
    "AlgorithmSpec",
    "RunReport",
    "algorithm_names",
    "get_spec",
    "resolve_backend",
    "solve",
)


def __getattr__(name):
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "1.5.0"

__all__ = [
    "AUTO",
    "AlgorithmSpec",
    "BACKENDS",
    "BulkGraph",
    "CapabilityError",
    "FractionalVariant",
    "PipelineResult",
    "RoundingRule",
    "RunReport",
    "__version__",
    "algorithm_names",
    "approximate_fractional_mds",
    "approximate_fractional_mds_unknown_delta",
    "approximate_weighted_fractional_mds",
    "get_spec",
    "is_dominating_set",
    "kuhn_wattenhofer_dominating_set",
    "log_delta_parameter",
    "quality_report",
    "resolve_backend",
    "round_fractional_solution",
    "round_fractional_solution_batched",
    "solve",
    "weighted_kuhn_wattenhofer_dominating_set",
]
