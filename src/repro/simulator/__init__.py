"""Synchronous message-passing (LOCAL model) simulator.

The algorithms of Kuhn & Wattenhofer are stated in the synchronous LOCAL
model: time proceeds in global rounds, and in each round every node may send
one message to each of its neighbours, receive the messages sent to it in the
same round, and perform arbitrary local computation.

This package provides a faithful, deterministic executable version of that
model:

* :class:`~repro.simulator.message.Message` -- an immutable message envelope
  with payload-size accounting (in bits), so that the paper's ``O(log Δ)``
  message-size claim can be *measured* rather than assumed.
* :class:`~repro.simulator.node.NodeProgram` -- the protocol every
  distributed algorithm implements (one ``on_round`` callback per round).
* :class:`~repro.simulator.network.Network` -- the static communication
  graph plus per-node program instances.
* :class:`~repro.simulator.runtime.SynchronousRunner` -- the round engine:
  it collects outboxes, delivers messages, advances rounds, records metrics
  and optional traces, and applies fault-injection policies.
* :class:`~repro.simulator.metrics.ExecutionMetrics` -- per-round and
  aggregate message/round statistics.
* :mod:`~repro.simulator.faults` -- crash-stop and message-loss fault
  injection used by the robustness experiments.
* :mod:`~repro.simulator.trace` -- structured execution traces (used by the
  Figure-1 cascade experiment).
* :mod:`~repro.simulator.columnar` -- the same traces as NumPy columns
  (structure-of-arrays), losslessly convertible both ways and cheap enough
  to collect at n >= 20 000 on the vectorized backend.
* :mod:`~repro.simulator.bulk` -- the CSR substrate of the *vectorized*
  backend: whole-graph neighbourhood operators with the simulator's
  accumulation order, plus modeled :class:`ExecutionMetrics`.
* :mod:`~repro.simulator.coins` -- the counter-keyed coin streams every
  backend flips: ``u(key, node_index, draw_counter)``.
"""

from repro.simulator.bulk import BulkGraph, BulkMetricsBuilder
from repro.simulator.columnar import ColumnarTrace
from repro.simulator.faults import (
    CrashStopFaults,
    FaultModel,
    MessageLossFaults,
    NoFaults,
)
from repro.simulator.message import Message, broadcast, payload_size_bits
from repro.simulator.metrics import ExecutionMetrics, RoundMetrics
from repro.simulator.network import Network
from repro.simulator.node import NodeContext, NodeProgram
from repro.simulator.runtime import ExecutionResult, SynchronousRunner, run_program
from repro.simulator.script import GeneratorNodeProgram
from repro.simulator.trace import ExecutionTrace, TraceEvent

__all__ = [
    "BulkGraph",
    "BulkMetricsBuilder",
    "ColumnarTrace",
    "CrashStopFaults",
    "ExecutionMetrics",
    "ExecutionResult",
    "ExecutionTrace",
    "FaultModel",
    "GeneratorNodeProgram",
    "Message",
    "MessageLossFaults",
    "Network",
    "NoFaults",
    "NodeContext",
    "NodeProgram",
    "RoundMetrics",
    "SynchronousRunner",
    "TraceEvent",
    "broadcast",
    "payload_size_bits",
    "run_program",
]
