"""Node programs and their execution context.

A *node program* is the local algorithm executed by every node of the
network.  The LOCAL model gives each node access only to

* its own identifier,
* the identifiers of its direct neighbours (its ports), and
* the messages received from those neighbours in previous rounds.

The :class:`NodeContext` object is the only window a program has onto the
network; it deliberately exposes nothing global (no graph object, no maximum
degree, no node count) so that an algorithm cannot accidentally "cheat" by
reading state the distributed model does not provide.  Algorithm 2 of the
paper assumes that Δ is known to all nodes; in that case Δ is passed to the
program's constructor explicitly, which mirrors the paper's assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Protocol, Sequence, runtime_checkable

from repro.simulator.coins import CoinStream, coin_key
from repro.simulator.message import Message, broadcast


@dataclass
class NodeContext:
    """Per-node view of the network handed to a :class:`NodeProgram`.

    Attributes
    ----------
    node_id:
        This node's identifier (stable across rounds).
    neighbors:
        Identifiers of the node's direct neighbours, sorted ascending.
        The *closed* neighbourhood of the paper is ``{node_id} ∪ neighbors``.
    rng:
        The node's coin stream (:class:`~repro.simulator.coins.CoinStream`):
        its ``c``-th ``random()`` call returns ``u(key, i, c)`` for the
        run key derived from the experiment seed and the node's position
        ``i`` in sorted node order, so executions are reproducible yet
        nodes draw independent randomness.  Programs only call
        ``random()``.  The default is a fresh unseeded stream.
    """

    node_id: int
    neighbors: tuple[int, ...]
    rng: CoinStream = field(default_factory=lambda: CoinStream(coin_key(None), 0))

    @property
    def degree(self) -> int:
        """The node degree δ_i (number of neighbours, excluding itself)."""
        return len(self.neighbors)

    @property
    def closed_neighborhood(self) -> tuple[int, ...]:
        """The closed neighbourhood N_i = {v_i} ∪ neighbours."""
        return (self.node_id, *self.neighbors)

    def send_all(self, payload: Any, tag: str = "") -> list[Message]:
        """Build messages carrying ``payload`` to every neighbour."""
        return broadcast(self.node_id, self.neighbors, payload, tag=tag)


@runtime_checkable
class NodeProgram(Protocol):
    """Protocol implemented by every distributed algorithm.

    The runner drives the program with the following lifecycle:

    1. :meth:`on_start` is called once before round 0; the returned messages
       are delivered at the beginning of round 0.
    2. For each round r = 0, 1, 2, ... the runner calls
       :meth:`on_round` with the messages received in that round.  The
       returned messages are delivered in round r + 1.
    3. The execution stops when every node's :meth:`is_terminated` returns
       ``True`` (or when an explicit round limit is reached).
    4. :meth:`result` returns the node's local output.

    Programs must be deterministic given their ``NodeContext.rng``.
    """

    def on_start(self, ctx: NodeContext) -> Sequence[Message]:
        """Initialise local state; return the messages for round 0."""
        ...

    def on_round(
        self, ctx: NodeContext, round_index: int, inbox: Sequence[Message]
    ) -> Sequence[Message]:
        """Process one synchronous round.

        Parameters
        ----------
        ctx:
            The node's context.
        round_index:
            Zero-based index of the current round.
        inbox:
            All messages addressed to this node that were sent in the
            previous round (or by ``on_start`` for round 0).

        Returns
        -------
        Sequence[Message]
            Messages to deliver in the next round.
        """
        ...

    def is_terminated(self) -> bool:
        """Whether this node has finished its local computation."""
        ...

    def result(self) -> Any:
        """The node's local output once terminated."""
        ...


class StatefulNodeProgram:
    """Convenience base class with common bookkeeping.

    Subclasses only need to set ``self._terminated = True`` when done and
    store their output in ``self._result``.  The base class provides sensible
    defaults for :meth:`is_terminated` and :meth:`result` plus an
    ``inbox_by_sender`` helper that most of the paper's algorithms use
    (they always read "the value my neighbour v_j sent me").
    """

    def __init__(self) -> None:
        self._terminated = False
        self._result: Any = None

    def is_terminated(self) -> bool:
        return self._terminated

    def result(self) -> Any:
        return self._result

    @staticmethod
    def inbox_by_sender(inbox: Iterable[Message]) -> dict[int, Any]:
        """Map ``sender -> payload`` for a round's inbox.

        If a sender appears more than once (which the paper's algorithms
        never do within a single round), the last payload wins.
        """
        return {message.sender: message.payload for message in inbox}

    @staticmethod
    def inbox_by_tag(inbox: Iterable[Message]) -> dict[str, dict[int, Any]]:
        """Group an inbox first by message tag, then by sender."""
        grouped: dict[str, dict[int, Any]] = {}
        for message in inbox:
            grouped.setdefault(message.tag, {})[message.sender] = message.payload
        return grouped
