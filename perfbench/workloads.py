"""The closed-loop workloads, the workload registry and the result type.

A closed loop has one client: it sends the next op only after the
previous one has answered, so each op's latency is its wall time.  Op
inputs derive from the workload seed alone (:meth:`ClosedLoop.op_seed`);
the program only ever sees the generated graphs and seeds.

Every op is checked outside its timed interval: the returned set is
re-validated with ``is_dominating_set`` on the CSR, and its size is
divided by a lower bound on the optimum (``ds_ratio``).
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Op index of the first warm-up op; later ones count down from it.
WARMUP = -1
#: Warm-up ops run until this much time has passed (at least one op):
#: the first ops of a process can run slower than later ones, and one
#: warm-up op did not always cover that.
WARMUP_S = 4.0


@dataclass
class Result:
    """What one workload run measured and checked."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)


@dataclass
class OpOutcome:
    """The checked summary of one op (kept; the op's outputs are not)."""

    index: int
    seconds: float
    size: int
    bound: float
    backend: str


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class CheckError(AssertionError):
    """An op's output failed a check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class Phase:
    outcomes: list[OpOutcome] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> list[float]:
        return [outcome.seconds for outcome in self.outcomes]


class ClosedLoop:
    """One client, one op at a time, for a fixed amount of timed op time."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def op_seed(self, label: int | str) -> int:
        """The seed of op ``label`` (or of a named input), from the workload seed."""
        return random.Random(f"{self.name}/{self.seed}/{label}").randrange(2**31)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int):
        raise NotImplementedError

    def check(self, output) -> tuple[int, float, str]:
        """Validate one op's output; return ``(|DS|, lower bound, backend)``."""
        raise NotImplementedError

    def _checked(self, index: int, seconds: float, output) -> OpOutcome:
        size, bound, backend = self.check(output)
        require(0 < bound <= size, f"op {index}: bound {bound} vs |DS| {size}")
        return OpOutcome(index, seconds, size, bound, backend)

    def phase(self, seconds: float, recorder=None) -> Phase:
        """Run ops back to back until ``seconds`` of op time are measured."""
        phase = Phase()
        timed = 0.0
        index = 0
        while timed < seconds:
            phase.attempted += 1
            span = recorder.open("op", request_id=index) if recorder else None
            started = time.perf_counter()
            try:
                output = self.op(index)
            except Exception as error:  # noqa: BLE001 -- counted, reported
                phase.failed += 1
                phase.errors.append(f"op {index} raised {error!r}")
                output = None
            finally:
                elapsed = time.perf_counter() - started
                if span is not None:
                    recorder.close(span)
            timed += elapsed
            if output is not None:
                try:
                    phase.outcomes.append(self._checked(index, elapsed, output))
                except CheckError as error:
                    phase.errors.append(str(error))
            index += 1
        return phase

    def warm_up(self) -> None:
        started = time.perf_counter()
        index = WARMUP
        while index == WARMUP or time.perf_counter() - started < WARMUP_S:
            self._checked(index, 0.0, self.op(index))
            index -= 1

    def run(self, seconds: float, recorder=None, installation=None) -> Result:
        if recorder is None:
            self.warm_up()
            return self.summarize(self.phase(seconds))
        import spans

        setup_spans = list(recorder.spans)
        self.warm_up()
        mark = len(recorder.spans)
        traced = self.phase(seconds, recorder)
        installation.restore()
        reference = self.phase(seconds)
        result = self.summarize(traced)
        for outcome, again in zip(traced.outcomes, reference.outcomes):
            if (outcome.size, outcome.backend) != (again.size, again.backend):
                result.errors.append(
                    f"op {outcome.index}: traced and untraced outputs differ"
                )
        result.attempted += reference.attempted
        result.failed += reference.failed
        result.errors += reference.errors
        result.metrics = spans.layer_metrics(
            recorder.spans[mark:], setup_spans, ops=len(traced.outcomes)
        )
        result.metrics.update(spans.service_metrics(None))
        traced_p50 = statistics.median(traced.seconds)
        reference_p50 = statistics.median(reference.seconds)
        result.metrics["trace_overhead_frac"] = (
            traced_p50 / reference_p50 - 1.0,
            "fraction",
        )
        result.metrics["trace.op_s_p50"] = (traced_p50, "s")
        result.metrics["op_s_p90"] = (percentile(reference.seconds, 90), "s")
        result.samples["trace_overhead_frac"] = len(reference.outcomes)
        result.samples["op_s_p90"] = len(reference.outcomes)
        return result

    def summarize(self, phase: Phase) -> Result:
        result = Result(
            attempted=phase.attempted, failed=phase.failed, errors=list(phase.errors)
        )
        seconds = phase.seconds
        if not seconds:
            result.errors.append("no op completed")
            return result
        ratios = [outcome.size / outcome.bound for outcome in phase.outcomes]
        result.metrics = {
            "op_s_p50": (statistics.median(seconds), "s"),
            "ops_per_s": (len(seconds) / sum(seconds), "ops/s"),
            "ds_ratio": (statistics.fmean(ratios), "ratio"),
        }
        for name in result.metrics:
            result.samples[name] = len(seconds)
        backends: dict[str, int] = {}
        for outcome in phase.outcomes:
            backends[outcome.backend] = backends.get(outcome.backend, 0) + 1
        result.info = {
            "ops": len(seconds),
            "op_s": seconds,
            "resolved_backends": backends,
            "mean_ds_size": statistics.fmean(o.size for o in phase.outcomes),
        }
        return result


def _dominates(graph, dominating_set) -> bool:
    from repro.domset.validation import is_dominating_set

    return is_dominating_set(graph, dominating_set)


class SolveER(ClosedLoop):
    """Fresh n = 2·10⁵ ER CSR per op, then the default ``auto`` pipeline."""

    name = "solve-er"
    n = 200_000
    mean_degree = 10.0
    k = 2

    def setup(self) -> None:
        import repro.api  # noqa: F401
        import repro.domset.validation  # noqa: F401
        import repro.graphs.bulk  # noqa: F401
        import repro.lp.duality  # noqa: F401

    def op(self, index: int):
        import repro.api as api
        import repro.graphs.bulk as bulk

        seed = self.op_seed(index)
        graph = bulk.bulk_erdos_renyi_graph(
            self.n, p=self.mean_degree / (self.n - 1), seed=seed
        )
        # backend stays "auto": the resolved backend is recorded, not pinned.
        report = api.solve("kuhn-wattenhofer", graph, seed=seed, k=self.k)
        return graph, report

    def check(self, output):
        from repro.lp.duality import lemma1_lower_bound

        graph, report = output
        require(_dominates(graph, report.dominating_set), "set does not dominate")
        return report.size, lemma1_lower_bound(graph), report.backend


class CertifyER(ClosedLoop):
    """ER n = 2·10⁴ + ``solve(k=None)`` + a PDHG duality certificate per op."""

    name = "certify-er"
    n = 20_000
    mean_degree = 10.0
    tol = 1e-2

    def setup(self) -> None:
        import repro.api  # noqa: F401
        import repro.domset.validation  # noqa: F401
        import repro.graphs.bulk  # noqa: F401
        import repro.lp.duality  # noqa: F401
        import repro.lp.solver  # noqa: F401

    def op(self, index: int):
        import repro.api as api
        import repro.graphs.bulk as bulk
        import repro.lp.duality as duality
        import repro.lp.solver as lp_solver

        seed = self.op_seed(index)
        graph = bulk.bulk_erdos_renyi_graph(
            self.n, p=self.mean_degree / (self.n - 1), seed=seed
        )
        report = api.solve("kuhn-wattenhofer", graph, seed=seed, k=None)
        solution = lp_solver.solve_fractional_mds_sparse(
            graph, method="pdhg", tol=self.tol
        )
        bound = duality.certified_lower_bound(graph, solution.dual_values)
        return graph, report, solution, bound

    def check(self, output):
        graph, report, solution, bound = output
        certificate = solution.certificate
        require(certificate is not None and certificate.certified, "not certified")
        require(certificate.gap <= self.tol, f"gap {certificate.gap} > {self.tol}")
        require(bound <= solution.objective + 1e-9, "dual bound above primal")
        require(_dominates(graph, report.dominating_set), "set does not dominate")
        return report.size, bound, report.backend


def _service_mixed(seed: int):
    from service_mixed import ServiceMixed

    return ServiceMixed(seed)


WORKLOADS = {
    SolveER.name: SolveER,
    CertifyER.name: CertifyER,
    "service-mixed": _service_mixed,
}
