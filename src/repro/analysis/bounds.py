"""Closed-form theoretical bounds from the paper.

Every theorem of the paper states a bound as a function of the locality
parameter k and the maximum degree Δ.  The benchmarks print measured values
next to these formulas so EXPERIMENTS.md can record "claimed vs. measured"
for each experiment.

All formulas use the *explicit constants* from the theorem statements (not
the O(·) forms), so a measured value exceeding the formula indicates a real
bug rather than an unlucky constant.
"""

from __future__ import annotations

import math

from repro.core.vectorized import validate_k


def _validate(k: int, delta: int) -> None:
    validate_k(k)
    if delta < 0:
        raise ValueError("delta must be non-negative")


def algorithm2_approximation_bound(k: int, delta: int) -> float:
    """Theorem 4: Algorithm 2 is a k·(Δ+1)^{2/k} approximation of LP_MDS."""
    _validate(k, delta)
    return k * (delta + 1.0) ** (2.0 / k)


def algorithm2_round_bound(k: int) -> int:
    """Theorem 4: Algorithm 2 terminates after 2k² rounds."""
    validate_k(k)
    return 2 * k * k


def algorithm3_approximation_bound(k: int, delta: int) -> float:
    """Theorem 5: Algorithm 3 is a k((Δ+1)^{1/k} + (Δ+1)^{2/k}) approximation."""
    _validate(k, delta)
    base = delta + 1.0
    return k * (base ** (1.0 / k) + base ** (2.0 / k))


def algorithm3_round_bound(k: int) -> int:
    """Theorem 5: Algorithm 3 terminates after 4k² + O(k) rounds.

    The implementation uses exactly 4k² inner-loop rounds, 2k outer-loop
    rounds and 3 setup/teardown rounds; the formula mirrors that constant so
    benchmarks can assert measured ≤ bound.
    """
    validate_k(k)
    return 4 * k * k + 2 * k + 3


def rounding_expectation_bound(alpha: float, delta: int) -> float:
    """Theorem 3: E[|DS|] ≤ (1 + α·ln(Δ+1)) · |DS_OPT| (as a ratio)."""
    if alpha < 1.0:
        raise ValueError("alpha must be at least 1 (it is an approximation ratio)")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return 1.0 + alpha * math.log(delta + 1.0)


def rounding_expectation_bound_alternative(alpha: float, delta: int) -> float:
    """Remark after Theorem 3: 2α(ln(Δ+1) − ln ln(Δ+1)) · |DS_OPT| (as a ratio)."""
    if alpha < 1.0:
        raise ValueError("alpha must be at least 1")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    log_term = math.log(delta + 1.0)
    correction = math.log(log_term) if log_term > 1.0 else 0.0
    return max(2.0 * alpha * (log_term - correction), 1.0)


def pipeline_expected_ratio_bound(k: int, delta: int) -> float:
    """Theorem 6: expected ratio of the full pipeline (Algorithm 3 + 1).

    Composes Theorem 5's α with Theorem 3's rounding factor:
    1 + k((Δ+1)^{1/k} + (Δ+1)^{2/k}) · ln(Δ+1).
    """
    _validate(k, delta)
    alpha = algorithm3_approximation_bound(k, delta)
    return rounding_expectation_bound(alpha, delta)


def pipeline_round_bound(k: int) -> int:
    """Theorem 6: total rounds of the pipeline (Algorithm 3 + Algorithm 1).

    Algorithm 1 needs two rounds for δ⁽²⁾, one round to announce membership
    and one round to evaluate the fallback rule.
    """
    return algorithm3_round_bound(k) + 4


def weighted_approximation_bound(k: int, delta: int, c_max: float) -> float:
    """Remark after Theorem 4: weighted ratio k(Δ+1)^{1/k}[c_max(Δ+1)]^{1/k}."""
    _validate(k, delta)
    if c_max < 1.0:
        raise ValueError("c_max must be at least 1")
    base = delta + 1.0
    return k * base ** (1.0 / k) * (c_max * base) ** (1.0 / k)


def messages_per_node_bound(k: int, delta: int) -> int:
    """Abstract: each node sends O(k²Δ) messages.

    The implementation sends at most one message per neighbour per round, so
    the explicit bound is (rounds) × Δ with the Algorithm 3 round constant.
    """
    _validate(k, delta)
    return algorithm3_round_bound(k) * max(delta, 1)


def message_size_bound_bits(delta: int, float_bits: int = 32) -> int:
    """Abstract: messages have size O(log Δ) bits.

    The implementation's largest payloads are (a) integer degree/counter
    values of magnitude ≤ Δ + 1, needing ⌈log₂(Δ+2)⌉ + 1 bits, and (b)
    x-values charged at a constant ``float_bits`` by the accounting model in
    :mod:`repro.simulator.message`.  The bound is the maximum of the two.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    integer_bits = math.ceil(math.log2(delta + 2)) + 1
    return max(integer_bits, float_bits)


def kmw_lower_bound(k: int, delta: int, constant: float = 1.0) -> float:
    """The Ω(Δ^{1/k}/k) lower bound from Kuhn, Moscibroda & Wattenhofer [14].

    The constant hidden in the Ω(·) is not specified by the citation; the
    default of 1 makes the returned value a *shape* reference for the
    trade-off plots rather than a certified bound.
    """
    _validate(k, delta)
    if constant <= 0:
        raise ValueError("constant must be positive")
    return constant * (delta ** (1.0 / k)) / k


def log_squared_delta_bound(delta: int) -> float:
    """Final remark: with k = Θ(log Δ) the ratio becomes O(log² Δ).

    Returned with an explicit constant of 4·e (from substituting
    k = ⌈ln(Δ+1)⌉ into Theorem 6's expression), so measured values can be
    compared against a concrete number.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    log_term = math.log(delta + 1.0)
    if log_term <= 1.0:
        return 4.0 * math.e
    return 4.0 * math.e * log_term * log_term
