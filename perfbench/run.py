"""The repository benchmark: one command, three named workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve-er --seed 1 --seconds 20 --trace 0

Workloads (``perfbench/README.md`` gives inputs, loop type, rate and why):

* ``solve-er``      closed loop: fresh n = 2·10⁵ Erdős–Rényi CSR + ``solve(k=2)``
* ``certify-er``    closed loop: n = 2·10⁴ ER + ``solve(k=None)`` + PDHG certificate
* ``service-mixed`` open loop at a fixed rate, then a burst, into ``SolveService``

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps every layer's entry point (``perfbench/spans.py``) and
reports the per-layer metrics; it also repeats the measurement untraced
to report the tracing overhead.  Every output is checked; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The process exits non-zero when a check
fails or the program under test cannot be found.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Setup is repeated in this many processes in all (this one included);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``.

    The benchmark measures the program in *this* checkout, never an
    installed copy, so a missing ``src/repro`` is a hard error.
    """
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def host_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_samples(args, first: float) -> list[float]:
    """``first`` plus the setup time of ``SETUP_SAMPLES - 1`` fresh processes."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        completed = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
                "--setup-only",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up, print its setup time and exit",
    )
    return parser.parse_args(argv)


def stop_children() -> None:
    """Stop and reap every process this run started.

    The sharded backend forks shard workers, which its driver joins, and
    its shared-memory segments start multiprocessing's resource tracker,
    which would otherwise outlive this process unreaped.
    """
    import gc
    import multiprocessing

    gc.collect()  # close any driver that is only waiting for collection
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()  # closes its pipe, then waits for it


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return _main(args)
    finally:
        stop_children()


def _main(args) -> int:
    _import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; expected one of "
            + ", ".join(workloads.WORKLOADS)
        )
    workload = workloads.WORKLOADS[args.workload](args.seed)

    recorder = installation = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
        installation = spans.install(recorder)
    workload.setup()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = workload.run(args.seconds, recorder, installation)
    facts = host_facts()
    metrics = dict(result.metrics)
    if not args.trace:
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        setups = setup_samples(args, setup_s)
        metrics["setup_s"] = (statistics.median(setups), "s")
        result.samples["setup_s"] = len(setups)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if recorder is not None:
        recorder.dump(OUT / f"spans-{stem}.jsonl")
    payload = {
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }
    (OUT / f"result-{stem}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "host": facts,
                "info": result.info,
                "samples": result.samples,
                "errors": result.errors,
                **payload,
            },
            indent=2,
            default=repr,
        )
    )

    for error in result.errors[:20]:
        print(f"CHECK FAILED: {error}")
    print("host " + json.dumps(facts))
    print("info " + json.dumps(result.info, default=repr))
    print(
        f"error_rate {args.workload} {result.failed / result.attempted:.6g} "
        f"fraction (failed {result.failed} of {result.attempted} attempted)"
    )
    for name, (value, unit) in sorted(metrics.items()):
        samples = result.samples.get(name)
        suffix = f" samples={samples}" if samples is not None else ""
        print(f"{name} {args.workload} {value:.6g} {unit}{suffix}")
    print(json.dumps(payload))
    return 0 if payload["correct"] and result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
