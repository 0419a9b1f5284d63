"""Round and message metrics for simulator executions.

The paper's complexity claims are stated in three currencies:

* number of synchronous **rounds** (``2k²`` for Algorithm 2,
  ``4k² + O(k)`` for Algorithm 3),
* number of **messages** sent per node (``O(k² Δ)``), and
* **message size** in bits (``O(log Δ)``).

:class:`ExecutionMetrics` records all three exactly, per round and per node,
so the benchmarks can compare measured values against the closed-form bounds
in :mod:`repro.analysis.bounds`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.simulator.message import Message


@dataclass
class RoundMetrics:
    """Counters for a single synchronous round."""

    round_index: int
    messages_sent: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    active_nodes: int = 0

    def record(self, message: Message) -> None:
        """Account for one sent message."""
        bits = message.size_bits
        self.messages_sent += 1
        self.total_bits += bits
        if bits > self.max_message_bits:
            self.max_message_bits = bits


class ExecutionMetrics:
    """Aggregate metrics for an entire execution.

    Attributes
    ----------
    rounds:
        Per-round counters, in round order.
    messages_per_node:
        Total number of messages *sent* by each node over the execution.
    bits_per_node:
        Total number of payload bits sent by each node.

    The bulk backends keep the per-node counts as arrays
    (:meth:`from_node_arrays`); the two dicts are built on first access.
    """

    def __init__(self, rounds: list[RoundMetrics] | None = None) -> None:
        self.rounds = [] if rounds is None else rounds
        self._messages_per_node: dict = defaultdict(int)
        self._bits_per_node: dict = defaultdict(int)
        self._node_arrays: tuple[Sequence, np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_node_arrays(
        cls,
        rounds: list[RoundMetrics],
        nodes: Sequence,
        messages: np.ndarray,
        bits: np.ndarray,
    ) -> "ExecutionMetrics":
        """Metrics whose per-node counts are arrays indexed like ``nodes``.

        Nodes that sent nothing are left out of the dicts, as the runner
        leaves them out.
        """
        metrics = cls(rounds)
        metrics._node_arrays = (nodes, messages, bits)
        return metrics

    def _materialize(self) -> None:
        arrays = self._node_arrays
        if arrays is None:
            return
        nodes, messages, bits = arrays
        positions = np.flatnonzero(messages > 0)
        senders = [nodes[position] for position in positions.tolist()]
        messages_per_node: dict = defaultdict(int)
        messages_per_node.update(zip(senders, messages[positions].tolist()))
        bits_per_node: dict = defaultdict(int)
        bits_per_node.update(zip(senders, bits[positions].tolist()))
        # Publish the finished dicts before dropping the arrays, so a
        # concurrent reader never sees a half-filled dict.
        self._messages_per_node, self._bits_per_node = messages_per_node, bits_per_node
        self._node_arrays = None

    @property
    def messages_per_node(self) -> dict:
        self._materialize()
        return self._messages_per_node

    @property
    def bits_per_node(self) -> dict:
        self._materialize()
        return self._bits_per_node

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rounds, self.messages_per_node, self.bits_per_node) == (
            other.rounds,
            other.messages_per_node,
            other.bits_per_node,
        )

    def __repr__(self) -> str:
        return (
            f"ExecutionMetrics(rounds={self.rounds!r}, "
            f"messages_per_node={self.messages_per_node!r}, "
            f"bits_per_node={self.bits_per_node!r})"
        )

    def begin_round(self, round_index: int) -> RoundMetrics:
        """Open counters for a new round and return them."""
        round_metrics = RoundMetrics(round_index=round_index)
        self.rounds.append(round_metrics)
        return round_metrics

    def record_messages(
        self, round_metrics: RoundMetrics, messages: Iterable[Message]
    ) -> None:
        """Account for the messages sent in ``round_metrics``'s round."""
        for message in messages:
            round_metrics.record(message)
            self.messages_per_node[message.sender] += 1
            self.bits_per_node[message.sender] += message.size_bits

    # ------------------------------------------------------------------ #
    # Aggregates                                                          #
    # ------------------------------------------------------------------ #

    @property
    def round_count(self) -> int:
        """Number of rounds executed."""
        return len(self.rounds)

    @property
    def total_messages(self) -> int:
        """Total messages sent over the whole execution."""
        return sum(round_metrics.messages_sent for round_metrics in self.rounds)

    @property
    def total_bits(self) -> int:
        """Total payload bits sent over the whole execution."""
        return sum(round_metrics.total_bits for round_metrics in self.rounds)

    @property
    def max_message_bits(self) -> int:
        """Largest single message payload observed, in bits."""
        if not self.rounds:
            return 0
        return max(round_metrics.max_message_bits for round_metrics in self.rounds)

    @property
    def max_messages_per_node(self) -> int:
        """Largest per-node message count (the paper's per-node bound)."""
        if not self.messages_per_node:
            return 0
        return max(self.messages_per_node.values())

    def messages_for_node(self, node_id: int) -> int:
        """Messages sent by one node over the whole execution."""
        return self.messages_per_node.get(node_id, 0)

    def summary(self) -> Mapping[str, float]:
        """A flat summary dictionary suitable for tables and benchmarks."""
        node_count = max(len(self.messages_per_node), 1)
        return {
            "rounds": self.round_count,
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
            "max_message_bits": self.max_message_bits,
            "max_messages_per_node": self.max_messages_per_node,
            "mean_messages_per_node": self.total_messages / node_count,
        }
