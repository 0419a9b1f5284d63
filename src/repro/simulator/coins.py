"""Counter-keyed coin streams: every random draw a node program makes.

Algorithm 1 (and the LRG baseline) only need each node to flip independent
coins.  Instead of one seeded generator object per node, every draw is a
pure function

    u(key, node_index, draw_counter) -> float64 in [0, 1)

of a 64-bit run key, the node's position in sorted node order (its
:class:`~repro.simulator.bulk.BulkGraph` index, which is also its position
in :attr:`~repro.simulator.network.Network.node_ids`) and the number of
draws that node has made so far -- a counter-based generator in the sense
of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11).
The per-node programs read it through :class:`CoinStream`, the vectorized
and sharded kernels evaluate it over whole index arrays, so every backend
flips the same coins by construction.  The fault layer draws its masks the
same way, as pure functions of ``(seed, salt, round)``.
"""

from __future__ import annotations

import hashlib
import secrets

import numpy as np

# SplitMix64 (Steele, Lea & Flood, OOPSLA'14): the Weyl increment and the
# two multipliers of its output finalizer.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))
_MANTISSA_SHIFT = np.uint64(11)
_TWO_POW_MINUS_53 = 2.0**-53


def coin_key(seed) -> int:
    """The 64-bit run key of an experiment seed.

    Seeds are hashed through their ``str`` form, so ``7`` and ``"7"`` name
    the same run.  ``None`` draws a fresh key, so unseeded runs stay
    nondeterministic.
    """
    if seed is None:
        return secrets.randbits(64)
    digest = hashlib.blake2b(str(seed).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer: a bijection on uint64 with full avalanche."""
    z = (z ^ (z >> _SHIFTS[0])) * _MIX_A
    z = (z ^ (z >> _SHIFTS[1])) * _MIX_B
    return z ^ (z >> _SHIFTS[2])


def u(key: int, node_index, draw_counter) -> np.ndarray:
    """Uniform draws in [0, 1): draw ``draw_counter`` of node ``node_index``.

    ``node_index`` and ``draw_counter`` are non-negative integers or
    integer arrays (broadcast together).  The node index is mixed first and
    the counter is then mixed into that per-node state, each step a
    SplitMix64 Weyl step plus finalizer; the top 53 bits of the result
    become the float64 mantissa, so no draw is ever 1.0.
    """
    index = np.atleast_1d(np.asarray(node_index, dtype=np.uint64))
    counter = np.atleast_1d(np.asarray(draw_counter, dtype=np.uint64))
    state = _mix(np.uint64(key) + (index + np.uint64(1)) * _GAMMA)
    bits = _mix(state + (counter + np.uint64(1)) * _GAMMA)
    return (bits >> _MANTISSA_SHIFT).astype(np.float64) * _TWO_POW_MINUS_53


class CoinStream:
    """One node's coin stream: ``random()`` returns the next draw of ``u``.

    The stand-in for a per-node ``random.Random`` handed to node programs
    through :attr:`~repro.simulator.node.NodeContext.rng`; the ``c``-th
    call returns ``u(key, node_index, c)``.
    """

    __slots__ = ("key", "node_index", "draws")

    def __init__(self, key: int, node_index: int) -> None:
        self.key = key
        self.node_index = node_index
        self.draws = 0

    def random(self) -> float:
        value = float(u(self.key, self.node_index, self.draws)[0])
        self.draws += 1
        return value
