"""Thermal noise model for graph states under independent dephasing.

A graph state in contact with a bath at temperature T (stabilizer field
strength B) dephases independently on each qubit: every vertex acquires a
phase-flip error with probability p = 1 / (1 + exp(B/T)).  Purification of
two-qubit pieces is possible exactly when (1-p)^2 > 1/2, which translates to
the temperature threshold T < B / ln(1 + sqrt(2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

# Flip probability at the purifiability threshold: (1-p)^2 = 1/2.
P_STAR = 1.0 - 1.0 / math.sqrt(2.0)

_LN_1_PLUS_SQRT2 = math.log(1.0 + math.sqrt(2.0))


@dataclass(frozen=True)
class ThermalModel:
    """Bath at temperature ``T`` acting on stabilizers of strength ``B``."""

    B: float
    T: float

    def __post_init__(self) -> None:
        if not (self.B > 0 and math.isfinite(self.B)):
            raise ParameterError("field strength B must be positive and finite")
        if not (self.T >= 0 and math.isfinite(self.T)):
            raise ParameterError("temperature T must be non-negative and finite")

    def error_prob(self) -> float:
        """Per-qubit phase-flip probability p = 1/(1 + e^{B/T})."""
        if self.T == 0.0:
            return 0.0
        x = self.B / self.T
        # e^{-x}/(1+e^{-x}) avoids overflow for large B/T.
        ex = math.exp(-x)
        return ex / (1.0 + ex)


def critical_temperature(B: float) -> float:
    """Temperature above which no local protocol can purify a noisy pair:
    B / ln(1+sqrt(2)), where the flip probability reaches p*.

    It bounds a whole graph state only where every edge has a two-party
    reconstruction (``optimality.proof_applies``), that is, where some
    matching cut (cut edges sharing no vertex) separates the ends of every
    edge; thermal K3, which has no matching cut, purifies past it.
    """
    if not (B > 0 and math.isfinite(B)):
        raise ParameterError("field strength B must be positive and finite")
    return B / _LN_1_PLUS_SQRT2


def purifiable_at(p: float) -> bool:
    """True iff a noisy pair with flip probability p purifies: (1-p)^2 > 1/2
    strictly, that is p < p*.

    This is the pair recurrence's verdict, which ``scan`` prints as
    ``purifiable``.  It does not say whether a given graph state purifies:
    thermal K3 purifies at p = 0.30, where this returns False.
    """
    if not (0.0 <= p <= 1.0):
        raise ParameterError("flip probability must lie in [0, 1]")
    return (1.0 - p) ** 2 > 0.5

