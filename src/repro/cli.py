"""Command-line interface.

Installed as ``repro-domset`` (see ``pyproject.toml``); also runnable as
``python -m repro``.  Sub-commands:

* ``solve``   -- run one registered algorithm (default: the
  Kuhn–Wattenhofer pipeline) on one generated graph and print the
  dominating set plus its quality report.
* ``compare`` -- run every algorithm the registry marks for comparison on
  one graph (or a whole suite) and print a comparison table.
* ``sweep``   -- sweep the locality parameter k for the fractional
  algorithms on one graph and print ratio / round tables.
* ``tradeoff`` -- the paper's k-vs-quality trade-off curve: measured ratio
  between the Theorem-6 upper bound and the KMW lower-bound shape, all k
  values evaluated from one fractional snapshot-engine execution.
* ``cds``     -- compare connected dominating set backbones (KW+connect,
  Wu–Li, greedy+connect, Guha–Khuller).
* ``faults``  -- sweep fault-injection rates (Bernoulli message loss +
  crash-stop failures) over the pipeline with the self-healing repair
  phase on, and print the degradation table: repaired size vs. the
  fault-free baseline, coverage deficit, patch cost, crash/drop totals.
* ``certify`` -- run one algorithm and verify an LP duality
  *certificate* for its quality: primal feasibility of the produced
  set, dual feasibility of the Lemma-1 assignment, the weak duality
  gap and the certified approximation ratio -- through the matrix-free
  sparse CSR formulation at every n.
* ``trace``   -- run a trace-capable algorithm with ``collect_trace=True``
  (on either backend) and print the per-phase observability report plus
  the Lemma 2-7 invariant verdict.
* ``serve``   -- run the async solve service over a JSONL request
  script (one request object per line, ``-`` for stdin): requests are
  submitted as one burst through the content-addressed cache and the
  coalescing scheduler, and answered as JSON lines in submission order.
* ``loadgen`` -- build the standard mixed workload (multi-k sweeps,
  repeats, fault scenarios), drive it through a fresh service, and print
  the load report: throughput, p50/p99 latency, cache hit rate,
  coalescing factor, and bitwise parity against direct solves.
* ``algorithms`` -- list the registry: every algorithm with its backends
  and capability flags.
* ``bounds``  -- print the paper's closed-form bounds for given (k, Δ).

Every algorithm-running sub-command accepts ``--backend`` with the
default ``auto``: the :mod:`repro.api` registry resolves the execution
engine from algorithm capabilities alone -- vectorized wherever the
algorithm has it; simulated on request -- and ``--backend simulated`` /
``vectorized`` / ``sharded`` force an engine explicitly.  ``--shards N``
(solve, compare, sweep, tradeoff) requests the multiprocess sharded
engine with N workers; algorithms without sharded support report a
clean capability error.

The CLI is a thin enumeration of the :mod:`repro.api` registry: there is
no per-algorithm wiring here, so registering a new algorithm makes it
reachable from ``solve --algorithm`` and ``compare`` automatically.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Sequence

from repro.analysis.bounds import (
    algorithm2_approximation_bound,
    algorithm2_round_bound,
    algorithm3_approximation_bound,
    algorithm3_round_bound,
    pipeline_expected_ratio_bound,
    rounding_expectation_bound,
)
from repro.analysis.experiment import (
    DEFAULT_FAULT_RATES,
    as_instances,
    compare_algorithms,
    sweep_cds,
    sweep_faults,
    sweep_fractional,
    sweep_tradeoff,
)
from repro.analysis.tables import records_to_csv, render_table
from repro.analysis.trace_report import trace_report
from repro.core.invariants import (
    check_algorithm2_invariants,
    check_algorithm3_invariants,
)
from repro.api import (
    AUTO,
    DISPATCH_BACKENDS,
    SHARDED,
    SIMULATED,
    CapabilityError,
    algorithm_names,
    get_spec,
    iter_specs,
    solve as api_solve,
)
from repro.core.kuhn_wattenhofer import FractionalVariant
from repro.domset.quality import quality_report
from repro.graphs.generators import GraphFamily, graph_suite, make_graph
from repro.graphs.utils import max_degree


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by every sub-command that generates a graph."""
    parser.add_argument(
        "--family",
        choices=[family.value for family in GraphFamily],
        default=GraphFamily.UNIT_DISK.value,
        help="graph family to generate (default: unit_disk)",
    )
    parser.add_argument("--n", type=int, default=80, help="number of nodes")
    parser.add_argument(
        "--radius", type=float, default=0.18, help="unit disk transmission radius"
    )
    parser.add_argument(
        "--p", type=float, default=0.05, help="edge probability (Erdős–Rényi)"
    )
    parser.add_argument("--degree", type=int, default=6, help="degree (random regular)")
    parser.add_argument("--seed", type=int, default=0, help="randomness seed")
    parser.add_argument(
        "--backend",
        choices=list(DISPATCH_BACKENDS),
        default=AUTO,
        help=(
            "execution backend: 'auto' (default) resolves per algorithm "
            "capabilities and input -- vectorized for CSR/large graphs, "
            "simulated otherwise; 'simulated' forces per-node message "
            "passing (traces, message-level fidelity), 'vectorized' forces "
            "the bulk-synchronous array engine (same results, much faster)"
        ),
    )


def _add_table_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by the record-table commands (compare, sweep,
    tradeoff, cds, faults)."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "process-pool width for parallelizing across graph instances "
            "(default: 1, no pool)"
        ),
    )
    parser.add_argument(
        "--suite",
        choices=["tiny", "small", "medium", "large", "xlarge", "huge"],
        default=None,
        help=(
            "run over a whole graph_suite scale instead of one generated "
            "graph; overrides --family/--n/--radius/--p/--degree "
            "(xlarge and huge instances are CSR-native; the default "
            "--backend auto runs them vectorized, --shards N runs them "
            "sharded)"
        ),
    )
    parser.add_argument(
        "--csv", action="store_true", help="print CSV instead of a table"
    )


def _add_shards_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "worker-process count for the sharded engine; implies "
            "--backend sharded under the default auto (algorithms without "
            "sharded support fail with a capability error)"
        ),
    )


def _add_lp_method_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lp-method",
        choices=["highs", "pdhg"],
        default="highs",
        help=(
            "LP solver for the fractional optimum: exact HiGHS (default) "
            "or the certified first-order method (pdhg) -- much faster "
            "on solver-bound instances at n >= 20000 and the only option "
            "at n >= 1e6, at the cost of an eps-certified (not exact) "
            "optimum"
        ),
    )
    parser.add_argument(
        "--lp-tol",
        type=float,
        default=1e-3,
        help=(
            "certified relative duality gap for --lp-method pdhg "
            "(default: 1e-3; ignored by highs)"
        ),
    )


def _add_variant_argument(
    parser: argparse.ArgumentParser, default: FractionalVariant | None = None
) -> None:
    shown = (default or FractionalVariant.UNKNOWN_DELTA).value
    parser.add_argument(
        "--variant",
        choices=[variant.value for variant in FractionalVariant],
        default=None if default is None else default.value,
        help=f"fractional variant (default: {shown})",
    )


def _build_graph(args: argparse.Namespace):
    return make_graph(
        args.family,
        seed=args.seed,
        n=args.n,
        radius=args.radius,
        p=args.p,
        degree=args.degree,
    )


def _registry_params(spec, args: argparse.Namespace) -> dict:
    """Forward the generic options the spec declares (no per-algorithm
    wiring: a newly registered k-accepting algorithm only declares
    ``cli_params=("k",)`` and the CLI picks it up)."""
    params = {}
    if "k" in spec.cli_params and args.k is not None:
        params["k"] = args.k
    if "variant" in spec.cli_params:
        params["variant"] = FractionalVariant(
            args.variant or FractionalVariant.UNKNOWN_DELTA.value
        )
    for option, given in (("k", args.k), ("variant", args.variant)):
        if given is not None and option not in spec.cli_params:
            print(
                f"note: --{option} is not used by algorithm {spec.name!r}; "
                "ignoring",
                file=sys.stderr,
            )
    return params


def _command_solve(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    spec = get_spec(args.algorithm)
    params = _registry_params(spec, args)
    if args.shards is not None:
        params["shards"] = args.shards
    try:
        report = api_solve(
            spec, graph, backend=args.backend, seed=args.seed, **params
        )
    except (CapabilityError, ValueError) as error:
        # Unsatisfiable capability combinations and invalid inputs (e.g. a
        # disconnected graph handed to a CDS algorithm) are CLI errors,
        # not tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 2
    quality = quality_report(graph, report.dominating_set, solve_lp=not args.no_lp)
    payload = {
        "n": graph.number_of_nodes(),
        "algorithm": report.algorithm,
        "backend": report.backend,
        "max_degree": max_degree(graph),
        # Runners report the k they resolved (pipelines pick Θ(log Δ) when
        # unset); algorithms without a k report null.
        "k": report.params.get("k"),
        "dominating_set_size": report.size,
        "total_rounds": report.total_rounds,
        "total_messages": report.total_messages,
        "max_message_bits": report.max_message_bits,
        "lp_optimum": quality.lp_optimum,
        "ratio_vs_lp": quality.ratio_vs_lp,
        "dual_lower_bound": quality.dual_lower_bound,
        "ratio_vs_dual": quality.ratio_vs_dual,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_table([payload], title=f"{report.algorithm} ({report.backend})"))
        if args.show_set:
            print("dominating set:", sorted(report.dominating_set))
    return 0


#: CSR-native suite scales: these instances never exist as networkx
#: graphs, so the simulated per-node engine cannot run them.
_CSR_SUITES = ("xlarge", "huge")


def _build_instances(args: argparse.Namespace):
    """One generated graph, or a whole suite when ``--suite`` is given."""
    if args.suite:
        return as_instances(graph_suite(args.suite, seed=args.seed))
    return as_instances({"instance": _build_graph(args)})


def _table_command(args: argparse.Namespace, title: str, run) -> int:
    """The body of every record-table command.

    ``run(instances, seed=, backend=, jobs=)`` is the command's runner
    call; its records print as a table, or as CSV with ``--csv``.
    ``--backend simulated`` on a CSR suite is rejected before paying the
    n >= 20000 (or n >= 10^6) suite construction, and so are invalid
    options: runners validate their inputs before touching an instance,
    so a dry run over no instances rejects them up front.  Capability
    errors and invalid inputs print ``error: ...`` and exit 2 instead of
    a traceback.
    """
    if args.suite in _CSR_SUITES and args.backend == SIMULATED:
        print(
            f"error: --suite {args.suite} instances are CSR-native and cannot "
            "run on --backend simulated; use --backend vectorized or "
            "sharded (or the default, auto)",
            file=sys.stderr,
        )
        return 2
    common = {"seed": args.seed, "backend": args.backend, "jobs": args.jobs}
    try:
        run([], **common)
        records = run(_build_instances(args), **common)
    except (CapabilityError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows = [record.as_row() for record in records]
    print(records_to_csv(rows) if args.csv else render_table(rows, title=title))
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    return _table_command(
        args,
        "Algorithm comparison",
        partial(
            compare_algorithms,
            algorithms=args.algorithm or None,
            trials=args.trials,
            overrides={"kuhn-wattenhofer": {"k": args.k}},
            sparse_lp=args.sparse_lp,
            lp_method=args.lp_method,
            lp_tol=args.lp_tol,
            shards=args.shards,
        ),
    )


def _command_sweep(args: argparse.Namespace) -> int:
    return _table_command(
        args,
        f"k sweep ({args.variant})",
        partial(
            sweep_fractional,
            k_values=range(1, args.max_k + 1),
            variant=FractionalVariant(args.variant),
            shards=args.shards,
        ),
    )


def _command_tradeoff(args: argparse.Namespace) -> int:
    return _table_command(
        args,
        "k-vs-quality trade-off (measured vs. Thm 6 / KMW shapes)",
        partial(
            sweep_tradeoff,
            k_values=range(1, args.max_k + 1),
            trials=args.trials,
            variant=FractionalVariant(args.variant),
            sparse_lp=args.sparse_lp,
            lp_method=args.lp_method,
            lp_tol=args.lp_tol,
            shards=args.shards,
        ),
    )


def _largest_components(instances):
    """Restrict every instance to its largest connected component (CDS
    experiments are only defined on connected graphs)."""
    connected = []
    for instance in instances:
        graph = instance.graph
        if instance.is_bulk:
            from repro.cds.bulk import bulk_is_connected, bulk_largest_component

            if not bulk_is_connected(graph):
                graph = bulk_largest_component(graph)
        else:
            import networkx as nx

            if not nx.is_connected(graph):
                component = max(nx.connected_components(graph), key=len)
                graph = nx.convert_node_labels_to_integers(
                    graph.subgraph(component).copy()
                )
        connected.append(type(instance)(name=instance.name, graph=graph))
    return connected


def _command_cds(args: argparse.Namespace) -> int:
    return _table_command(
        args,
        "Connected dominating set backbones",
        lambda instances, **common: sweep_cds(
            _largest_components(instances), k=args.k, **common
        ),
    )


def _parse_fault_rates(pairs: "list[str] | None"):
    """Parse repeated ``--rate LOSS,CRASH`` options (None = default grid)."""
    if not pairs:
        return DEFAULT_FAULT_RATES
    rates = []
    for pair in pairs:
        parts = pair.split(",")
        if len(parts) != 2:
            raise ValueError(
                f"--rate expects LOSS,CRASH (two comma-separated "
                f"probabilities); got {pair!r}"
            )
        rates.append((float(parts[0]), float(parts[1])))
    return rates


def _command_faults(args: argparse.Namespace) -> int:
    return _table_command(
        args,
        "Fault-injection degradation (self-healing repair on)",
        lambda instances, **common: sweep_faults(
            instances,
            fault_rates=_parse_fault_rates(args.rate),
            k=args.k,
            trials=args.trials,
            variant=FractionalVariant(args.variant),
            shards=args.shards,
            **common,
        ),
    )


def _command_certify(args: argparse.Namespace) -> int:
    """Run one algorithm and *certify* its quality by LP duality.

    Unlike ``solve`` (which trusts the Lemma-1 bound), this verifies the
    whole chain: the produced set is checked against the LP constraint
    system as a primal point, the Lemma-1 dual assignment is checked
    feasible for DLP_MDS, and the reported lower bound / gap / ratio are
    therefore *certificates*, not estimates.  Every graph certifies through
    the one matrix-free CSR formulation (:mod:`repro.lp.formulation`), so
    ``--n 20000`` works without ever building an n × n constraint matrix.
    """
    from repro.lp.duality import lemma1_dual_solution, weak_duality_gap
    from repro.lp.feasibility import check_dual_feasible, check_primal_feasible
    from repro.lp.formulation import build_lp
    from repro.lp.solver import solve_weighted_fractional_mds

    graph = _build_graph(args)
    spec = get_spec(args.algorithm)
    params = _registry_params(spec, args)
    try:
        report = api_solve(
            spec, graph, backend=args.backend, seed=args.seed, **params
        )
    except (CapabilityError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    # The certification substrate: the matrix-free CSR formulation.
    lp = build_lp(graph)
    certify_on = lp.bulk
    x = {node: 1.0 for node in report.dominating_set}
    primal_ok, primal_violation = check_primal_feasible(
        lp, x, tolerance=1e-9, return_violation=True
    )
    y = lemma1_dual_solution(certify_on)
    dual_ok, dual_violation = check_dual_feasible(
        lp, y, tolerance=1e-9, return_violation=True
    )
    gap = weak_duality_gap(lp, x, y) if dual_ok else None
    dual_bound = lp.dual_objective(y)

    lp_optimum = None
    lp_certified_gap = None
    if not args.no_lp:
        lp_solution = solve_weighted_fractional_mds(
            certify_on, weights=None, method=args.lp_method, tol=args.lp_tol
        )
        lp_optimum = lp_solution.objective
        if lp_solution.certificate is not None:
            lp_certified_gap = lp_solution.certificate.gap

    payload = {
        "n": certify_on.n,
        "algorithm": report.algorithm,
        "backend": report.backend,
        "formulation": "sparse-csr",
        "dominating_set_size": report.size,
        "primal_feasible": bool(primal_ok),
        "max_primal_violation": primal_violation,
        "dual_feasible": bool(dual_ok),
        "max_dual_violation": dual_violation,
        "certified_lower_bound": dual_bound,
        "weak_duality_gap": gap,
        "certified_ratio": report.size / dual_bound if dual_bound > 0 else None,
        "lp_method": args.lp_method,
        "lp_optimum": lp_optimum,
        "lp_certified_gap": lp_certified_gap,
        "ratio_vs_lp": report.size / lp_optimum
        if lp_optimum and lp_optimum > 0
        else None,
    }
    certified = bool(primal_ok and dual_ok)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            render_table(
                [payload],
                title=f"LP duality certificate: {report.algorithm} ({report.backend})",
            )
        )
        print("certificate:", "VALID" if certified else "INVALID")
    return 0 if certified else 1


def _command_trace(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    spec = get_spec(args.algorithm)
    params = _registry_params(spec, args)
    try:
        report = api_solve(
            spec,
            graph,
            backend=args.backend,
            seed=args.seed,
            collect_trace=True,
            **params,
        )
    except (CapabilityError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    fractional = report.raw.fractional
    observability = trace_report(fractional.trace, fractional.metrics)

    # The weighted variant's cost-scaled x-values don't satisfy the
    # unweighted Lemma 2-7 statements verbatim, so the invariant verdict
    # only applies to the plain pipeline.
    invariants = None
    if spec.name == "kuhn-wattenhofer" and not args.no_invariants:
        variant = params.get("variant", FractionalVariant.UNKNOWN_DELTA)
        if variant is FractionalVariant.KNOWN_DELTA:
            invariants = check_algorithm2_invariants(graph, fractional.trace, fractional.k)
        else:
            invariants = check_algorithm3_invariants(graph, fractional.trace, fractional.k)

    trace_kind = type(fractional.trace).__name__
    if args.json:
        payload = {
            "n": graph.number_of_nodes(),
            "algorithm": report.algorithm,
            "backend": report.backend,
            "k": report.params.get("k"),
            "trace": trace_kind,
            "events": len(fractional.trace),
            "report": observability.to_dict(),
        }
        if invariants is not None:
            payload["invariants"] = {
                "checked": invariants.checked,
                "ok": invariants.ok,
                "violations": [str(violation) for violation in invariants.violations],
            }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{report.algorithm} ({report.backend}, k={report.params.get('k')}): "
            f"{len(fractional.trace)} events in a {trace_kind}"
        )
        print(observability.render())
        if invariants is not None:
            verdict = "OK" if invariants.ok else "VIOLATED"
            print(f"invariants (Lemmas over {invariants.checked} checks): {verdict}")
            for violation in invariants.violations:
                print(f"  {violation}")
    return 0 if invariants is None or invariants.ok else 1


def _command_algorithms(args: argparse.Namespace) -> int:
    rows = []
    for spec in iter_specs():
        rows.append(
            {
                "algorithm": spec.name,
                "backends": "+".join(spec.backends),
                "bulk": spec.accepts_bulk,
                "sharded": spec.supports_backend(SHARDED),
                "weighted": spec.weighted,
                "cds": spec.produces_cds,
                "trace": "+".join(spec.trace_backends) if spec.trace_backends else "-",
                "faults": spec.supports_faults,
                "multi_k": spec.supports_multi_k,
                "summary": spec.summary,
            }
        )
    print(render_table(rows, title="Registered algorithms"))
    return 0


def _package_version() -> str:
    """Installed distribution version, else the in-tree ``__version__``.

    The repository is routinely used straight from a source checkout
    (``PYTHONPATH=src``) where no distribution metadata exists, so
    ``importlib.metadata`` lookup falls back to :data:`repro.__version__`.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro-kuhn-wattenhofer")
    except PackageNotFoundError:
        from repro import __version__

        return __version__


def _load_request_lines(path: str) -> list[dict]:
    """Parse one request object per non-empty line (``-`` reads stdin)."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    requests = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise SystemExit(f"serve: line {number}: invalid JSON ({error})")
        if not isinstance(record, dict):
            raise SystemExit(f"serve: line {number}: expected a JSON object")
        requests.append(record)
    return requests


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import SolveService
    from repro.simulator.fault_schedule import FaultSpec

    records = _load_request_lines(args.requests)
    if not records:
        print("serve: no requests", file=sys.stderr)
        return 1

    # Identical graph descriptions share one graph object, so repeated
    # request lines hash (and coalesce) against the same fingerprint
    # without re-generating or re-digesting the graph.
    graphs: dict = {}

    def build_graph(record: dict, number: int):
        family = record.get("family", GraphFamily.UNIT_DISK.value)
        graph_seed = int(record.get("graph_seed", 0))
        graph_params = dict(record.get("graph_params", {}))
        if "n" in record:
            graph_params.setdefault("n", int(record["n"]))
        identity = (family, graph_seed, tuple(sorted(graph_params.items())))
        if identity not in graphs:
            try:
                graphs[identity] = make_graph(family, seed=graph_seed, **graph_params)
            except (TypeError, ValueError) as error:
                raise SystemExit(f"serve: request {number}: bad graph ({error})")
        return graphs[identity]

    workload = []
    for number, record in enumerate(records, start=1):
        params = dict(record.get("params", {}))
        if "k" in record:
            params.setdefault("k", int(record["k"]))
        if isinstance(params.get("faults"), dict):
            params["faults"] = FaultSpec(**params["faults"])
        workload.append(
            {
                "algorithm": record.get("algorithm", "kuhn-wattenhofer"),
                "graph": build_graph(record, number),
                "backend": record.get("backend", AUTO),
                "seed": record.get("seed"),
                "params": params,
            }
        )

    async def run():
        async with SolveService(
            max_batch=args.max_batch, workers=args.workers
        ) as service:
            reports = await service.solve_many(
                workload, timeout=args.timeout, return_exceptions=True
            )
            return reports, service.stats()

    reports, stats = asyncio.run(run())
    failures = 0
    for request, report in zip(workload, reports):
        if isinstance(report, BaseException):
            failures += 1
            print(
                json.dumps(
                    {
                        "algorithm": request["algorithm"],
                        "error": f"{type(report).__name__}: {report}",
                    }
                )
            )
            continue
        print(
            json.dumps(
                {
                    "algorithm": report.algorithm,
                    "backend": report.backend,
                    "objective": report.objective,
                    "size": len(report.dominating_set),
                    "rounds": report.rounds,
                    "messages": report.messages,
                    "seed": report.seed,
                    "params": {
                        name: getattr(value, "value", value)
                        if not isinstance(value, (int, float, str, bool, type(None)))
                        else value
                        for name, value in report.params.items()
                    },
                }
                , default=repr)
        )
    if args.stats:
        print(json.dumps({"stats": stats}, default=repr))
    return 1 if failures else 0


def _command_loadgen(args: argparse.Namespace) -> int:
    from repro.service import run_load

    report = run_load(
        n=args.n,
        graphs=args.graphs,
        k_values=tuple(range(1, args.max_k + 1)),
        repeats=args.repeats,
        fault_requests=args.fault_requests,
        seed=args.seed,
        workers=args.workers,
        max_batch=args.max_batch,
        passes=args.passes,
        verify=not args.no_verify,
    )
    if args.json:
        print(json.dumps(report, indent=2, default=repr))
    else:
        latency = report["latency"]
        rows = [
            {
                "requests": report["requests"],
                "distinct": report["distinct_requests"],
                "req_per_s": round(report["requests_per_s"], 2),
                "p50_ms": round(latency["p50_s"] * 1e3, 2),
                "p99_ms": round(latency["p99_s"] * 1e3, 2),
                "hit_rate": round(report["cache_hit_rate"], 3),
                "coalescing": round(report["coalescing_factor"], 3),
                "joins": report["inflight_joins"],
                "parity": report.get("objective_match", "skipped"),
            }
        ]
        print(render_table(rows, title="Service load report"))
    if not args.no_verify and not report["objective_match"]:
        print("loadgen: PARITY FAILURE -- service answers diverged", file=sys.stderr)
        return 1
    return 0


def _command_bounds(args: argparse.Namespace) -> int:
    rows = []
    for k in range(1, args.max_k + 1):
        rows.append(
            {
                "k": k,
                "alg2_ratio_bound": algorithm2_approximation_bound(k, args.delta),
                "alg2_rounds": algorithm2_round_bound(k),
                "alg3_ratio_bound": algorithm3_approximation_bound(k, args.delta),
                "alg3_rounds": algorithm3_round_bound(k),
                "rounding_factor": rounding_expectation_bound(1.0, args.delta),
                "pipeline_ratio_bound": pipeline_expected_ratio_bound(k, args.delta),
            }
        )
    print(render_table(rows, title=f"Paper bounds for Δ = {args.delta}"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-domset",
        description=(
            "Distributed dominating set approximation "
            "(Kuhn & Wattenhofer, PODC 2003) -- reproduction CLI"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser(
        "solve", help="run one registered algorithm on one graph"
    )
    _add_graph_arguments(solve)
    _add_shards_argument(solve)
    solve.add_argument(
        "--algorithm",
        choices=list(algorithm_names()),
        default="kuhn-wattenhofer",
        help="registered algorithm to run (default: the paper's pipeline)",
    )
    solve.add_argument("--k", type=int, default=None, help="locality parameter")
    _add_variant_argument(solve)
    solve.add_argument("--json", action="store_true", help="print JSON instead of a table")
    solve.add_argument("--show-set", action="store_true", help="print the selected nodes")
    solve.add_argument(
        "--no-lp", action="store_true", help="skip the LP optimum (faster on large graphs)"
    )
    solve.set_defaults(handler=_command_solve)

    compare = subparsers.add_parser("compare", help="compare against all baselines")
    _add_graph_arguments(compare)
    _add_table_arguments(compare)
    _add_shards_argument(compare)
    compare.add_argument(
        "--algorithm",
        action="append",
        choices=list(algorithm_names()),
        default=None,
        help=(
            "restrict the comparison to this registered algorithm "
            "(repeatable; default: every algorithm the registry marks "
            "for comparison)"
        ),
    )
    compare.add_argument("--k", type=int, default=2)
    compare.add_argument("--trials", type=int, default=3)
    compare.add_argument(
        "--sparse-lp",
        action="store_true",
        help=(
            "solve LP_MDS sparsely for CSR instances so the ratio-vs-LP "
            "column is real instead of NaN (tens of seconds at n = 20000)"
        ),
    )
    _add_lp_method_arguments(compare)
    compare.set_defaults(handler=_command_compare)

    certify = subparsers.add_parser(
        "certify",
        help=(
            "run one algorithm and verify an LP duality certificate for "
            "its quality (primal/dual feasibility + weak duality gap)"
        ),
    )
    _add_graph_arguments(certify)
    certify.add_argument(
        "--algorithm",
        choices=list(algorithm_names()),
        default="kuhn-wattenhofer",
        help="registered algorithm to certify (default: the paper's pipeline)",
    )
    certify.add_argument("--k", type=int, default=None, help="locality parameter")
    _add_variant_argument(certify)
    certify.add_argument(
        "--no-lp",
        action="store_true",
        help="skip the LP optimum (the Lemma-1 certificate stays)",
    )
    _add_lp_method_arguments(certify)
    certify.add_argument(
        "--json", action="store_true", help="print JSON instead of a table"
    )
    certify.set_defaults(handler=_command_certify)

    sweep = subparsers.add_parser("sweep", help="sweep the locality parameter k")
    _add_graph_arguments(sweep)
    _add_table_arguments(sweep)
    _add_shards_argument(sweep)
    sweep.add_argument("--max-k", type=int, default=5)
    _add_variant_argument(sweep, FractionalVariant.KNOWN_DELTA)
    sweep.set_defaults(handler=_command_sweep)

    tradeoff = subparsers.add_parser(
        "tradeoff",
        help="measured k-vs-quality trade-off against the paper's bound curves",
    )
    _add_graph_arguments(tradeoff)
    _add_table_arguments(tradeoff)
    _add_shards_argument(tradeoff)
    tradeoff.add_argument("--max-k", type=int, default=6)
    tradeoff.add_argument("--trials", type=int, default=5)
    _add_variant_argument(tradeoff, FractionalVariant.UNKNOWN_DELTA)
    tradeoff.add_argument(
        "--sparse-lp",
        action="store_true",
        help=(
            "solve LP_MDS sparsely for CSR instances so the ratio-vs-LP "
            "column is real instead of NaN (tens of seconds at n = 20000; "
            "without it, use the always-available ratio-vs-dual column)"
        ),
    )
    _add_lp_method_arguments(tradeoff)
    tradeoff.set_defaults(handler=_command_tradeoff)

    cds = subparsers.add_parser(
        "cds", help="compare connected dominating set backbones"
    )
    _add_graph_arguments(cds)
    _add_table_arguments(cds)
    cds.add_argument("--k", type=int, default=2)
    cds.set_defaults(handler=_command_cds)

    faults = subparsers.add_parser(
        "faults",
        help=(
            "sweep fault-injection rates (message loss + crash-stop) over "
            "the pipeline and print the degradation/repair table"
        ),
    )
    _add_graph_arguments(faults)
    _add_table_arguments(faults)
    _add_shards_argument(faults)
    faults.add_argument("--k", type=int, default=2, help="locality parameter")
    faults.add_argument(
        "--trials",
        type=int,
        default=3,
        help="independent fault draws (and rounding coins) per rate pair",
    )
    faults.add_argument(
        "--rate",
        action="append",
        default=None,
        metavar="LOSS,CRASH",
        help=(
            "one loss,crash probability pair, e.g. 0.2,0.1 (repeatable; "
            "default: a loss-only/crash-only/mixed grid)"
        ),
    )
    _add_variant_argument(faults, FractionalVariant.UNKNOWN_DELTA)
    faults.set_defaults(handler=_command_faults)

    trace = subparsers.add_parser(
        "trace",
        help=(
            "run a trace-capable algorithm with collect_trace=True and "
            "print the per-phase observability report plus the Lemma 2-7 "
            "invariant verdict"
        ),
    )
    _add_graph_arguments(trace)
    trace.add_argument(
        "--algorithm",
        choices=[spec.name for spec in iter_specs() if spec.supports_trace],
        default="kuhn-wattenhofer",
        help="trace-capable algorithm to run (default: the paper's pipeline)",
    )
    trace.add_argument("--k", type=int, default=None, help="locality parameter")
    _add_variant_argument(trace)
    trace.add_argument(
        "--no-invariants",
        action="store_true",
        help="skip the invariant checkers (report only)",
    )
    trace.add_argument(
        "--json", action="store_true", help="print JSON instead of the report"
    )
    trace.set_defaults(handler=_command_trace)

    algorithms = subparsers.add_parser(
        "algorithms", help="list the algorithm registry and its capabilities"
    )
    algorithms.set_defaults(handler=_command_algorithms)

    serve = subparsers.add_parser(
        "serve", help="answer a JSONL request script through the solve service"
    )
    serve.add_argument(
        "--requests",
        default="-",
        help="path to a JSONL request script (default '-': read stdin)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="executor threads (default 2)"
    )
    serve.add_argument(
        "--max-batch", type=int, default=64, help="scheduler batch window (default 64)"
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request timeout in seconds (default: wait forever)",
    )
    serve.add_argument(
        "--stats", action="store_true", help="append a final stats JSON line"
    )
    serve.set_defaults(handler=_command_serve)

    loadgen = subparsers.add_parser(
        "loadgen", help="drive the standard mixed workload through the service"
    )
    loadgen.add_argument("--n", type=int, default=96, help="nodes per generated graph")
    loadgen.add_argument("--graphs", type=int, default=3, help="distinct graphs")
    loadgen.add_argument(
        "--max-k", type=int, default=3, help="issue k = 1..max_k per graph"
    )
    loadgen.add_argument(
        "--repeats", type=int, default=2, help="verbatim re-issues of the distinct block"
    )
    loadgen.add_argument(
        "--fault-requests", type=int, default=2, help="fault scenarios per graph"
    )
    loadgen.add_argument(
        "--passes", type=int, default=2, help="full burst passes (later ones hit the cache)"
    )
    loadgen.add_argument("--seed", type=int, default=0, help="workload seed")
    loadgen.add_argument("--workers", type=int, default=2, help="executor threads")
    loadgen.add_argument("--max-batch", type=int, default=64, help="batch window")
    loadgen.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the bitwise parity check against direct solves",
    )
    loadgen.add_argument("--json", action="store_true", help="print the full JSON report")
    loadgen.set_defaults(handler=_command_loadgen)

    bounds = subparsers.add_parser("bounds", help="print the paper's closed-form bounds")
    bounds.add_argument("--delta", type=int, default=16)
    bounds.add_argument("--max-k", type=int, default=6)
    bounds.set_defaults(handler=_command_bounds)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
