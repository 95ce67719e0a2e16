"""Bell-diagonal pair states under Z noise and their recurrence distillation.

A noisy two-qubit graph-state pair is a mixture of the four error classes
{I, Z_a, Z_b, Z_aZ_b} applied to the ideal pair CZ|++>.  The recurrence step
consumes two identical copies: a deterministic local pre-rotation permutes
the three nontrivial error classes, one copy is entangled into the other with
a CNOT on each side, the sacrificial copy is measured (Z on one side, X on
the other), and the pair is kept only on outcome coincidence.  The kept
pair's class distribution follows the quadratic map implemented here; the
pre-rotation is chosen greedily each round to maximize the output fidelity.

One kernel, ``_round``, runs every round: it works on plain 4-tuples, scores
the three pre-rotations by output fidelity alone and builds the full output
for the winner only.  ``distill_trace`` (the protocol's recurrence) and
``composite_r2`` (the rate grids) call it, and so does ``recurrence_step``,
the single-round form the tests and the benchmark tracer use; only what
they hand back is wrapped in a validated ``BellDiagonal``.

All formulas are validated against dense two-pair circuit simulation in the
test suite; nothing here depends on the dense layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

__all__ = [
    "BellDiagonal",
    "DistillTrace",
    "from_z_noise",
    "recurrence_step",
    "distill_trace",
    "composite_r2",
]

_SUM_TOL = 1e-12
# recurrence rounds tried before a trace gives up on its target
_MAX_ROUNDS = 64
# a round scales a rate candidate by at most half, up to rounding: n <=
# (1 + _SUM_TOL)^2 and a hashing yield <= 1 + 1e-15 in floats
_NEXT_ROUND_BOUND = 0.5 * (1.0 + 1e-9)


@dataclass(frozen=True)
class BellDiagonal:
    """Probabilities of the error classes (I, Z_a, Z_b, Z_aZ_b), in order."""

    probs: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.probs) != 4:
            raise ParameterError("need exactly four class probabilities")
        a, b, c, d = self.probs
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and 0.0 <= c <= 1.0 and 0.0 <= d <= 1.0):
            raise ParameterError("class probabilities must lie in [0, 1]")
        if abs(sum(self.probs) - 1.0) > _SUM_TOL:
            raise ParameterError("class probabilities must sum to 1")

    @property
    def fidelity(self) -> float:
        return self.probs[0]


def from_z_noise(p: float) -> BellDiagonal:
    """Class distribution of a pair whose halves see independent Z flips."""
    if not 0.0 <= p <= 0.5:
        raise ParameterError("flip probability must lie in [0, 0.5]")
    q = 1.0 - p
    return BellDiagonal((q * q, p * q, p * q, p * p))


def _round(q: tuple[float, float, float, float]) -> tuple[tuple[float, float, float, float], float, int]:
    """One greedy recurrence round on the class probabilities ``q``.

    Returns the kept pair's class probabilities, the coincidence (success)
    probability and the pairing used.  The pairing is the one whose output
    fidelity is largest, ties to the smallest index; only its full output is
    built.  With the classes in slots (a, b, c, d) the core map is
    ((a^2 + b^2)/n, 2ab/n, (c^2 + d^2)/n, 2cd/n), n = (a + b)^2 + (c + d)^2.
    Class 0 always sits in slot a; pairing k puts class k in slot b, so the
    slots (b, c, d) hold classes (1, 2, 3), (2, 1, 3) and (3, 2, 1).
    """
    a, q1, q2, q3 = q
    n1 = (a + q1) ** 2 + (q2 + q3) ** 2
    n2 = (a + q2) ** 2 + (q1 + q3) ** 2
    n3 = (a + q3) ** 2 + (q2 + q1) ** 2
    if n1 <= 0.0 or n2 <= 0.0 or n3 <= 0.0:
        raise ParameterError("recurrence success probability vanished")
    fid, n, best = (a * a + q1 * q1) / n1, n1, 1
    f2, f3 = (a * a + q2 * q2) / n2, (a * a + q3 * q3) / n3
    clamp = a <= 0.5 and q1 <= 0.5 and q2 <= 0.5 and q3 <= 0.5
    if clamp:
        # a slot at or below 1/2 provably cannot map above it (the tight
        # case is (a-b)^2 <= (c+d)^2, i.e. a <= 1/2); rounding may still
        # overshoot by an ulp, which would fake a purifiable state
        fid, f2, f3 = min(fid, 0.5), min(f2, 0.5), min(f3, 0.5)
    if f2 > fid:
        fid, n, best = f2, n2, 2
    if f3 > fid:
        fid, n, best = f3, n3, 3
    if best == 1:
        kept = (fid, 2.0 * a * q1 / n, (q2 * q2 + q3 * q3) / n, 2.0 * q2 * q3 / n)
    elif best == 2:
        kept = (fid, (q1 * q1 + q3 * q3) / n, 2.0 * a * q2 / n, 2.0 * q1 * q3 / n)
    else:
        kept = (fid, 2.0 * q2 * q1 / n, (q2 * q2 + q1 * q1) / n, 2.0 * a * q3 / n)
    if clamp:
        kept = (fid, min(kept[1], 0.5), min(kept[2], 0.5), min(kept[3], 0.5))
    return kept, n, best


def recurrence_step(bd: BellDiagonal) -> tuple[BellDiagonal, float]:
    """One two-copy round with the greedy pre-rotation; returns the kept
    pair's distribution and the coincidence (success) probability."""
    out, n, _ = _round(bd.probs)
    return BellDiagonal(out), n


def _stuck(nxt: tuple[float, ...], cur: tuple[float, ...]) -> bool:
    return (abs(nxt[0] - cur[0]) <= 1e-15 and abs(nxt[1] - cur[1]) <= 1e-15
            and abs(nxt[2] - cur[2]) <= 1e-15 and abs(nxt[3] - cur[3]) <= 1e-15)


@dataclass(frozen=True)
class DistillTrace:
    converged: bool
    rounds: int
    expected_pairs: float  # mean input pairs per surviving output pair
    final: BellDiagonal
    success_probs: tuple[float, ...]
    pairings: tuple[int, ...]


def distill_trace(bd: BellDiagonal, target_fidelity: float) -> DistillTrace:
    if not 0.0 <= target_fidelity < 1.0:
        raise ParameterError("target fidelity must lie in [0, 1)")
    cur = bd.probs
    probs: list[float] = []
    pairings: list[int] = []
    cost = 1.0
    while cur[0] < target_fidelity and len(probs) < _MAX_ROUNDS:
        nxt, n, pairing = _round(cur)
        probs.append(n)
        pairings.append(pairing)
        cost *= 2.0 / n
        stuck = _stuck(nxt, cur)
        cur = nxt
        if stuck:
            break
    return DistillTrace(
        converged=cur[0] >= target_fidelity,
        rounds=len(probs),
        expected_pairs=cost,
        final=BellDiagonal(cur),
        success_probs=tuple(probs),
        pairings=tuple(pairings),
    )


def _hashing_yield(probs: tuple[float, ...]) -> float:
    a, b, c, d = probs
    if a <= 0.5 and b <= 0.5 and c <= 0.5 and d <= 0.5:
        # entropy >= -log2(max prob) >= 1 bit: the yield is exactly zero,
        # and skipping the float sum keeps it free of rounding dust
        return 0.0
    h = 0.0
    if a > 0.0:
        h -= a * math.log2(a)
    if b > 0.0:
        h -= b * math.log2(b)
    if c > 0.0:
        h -= c * math.log2(c)
    if d > 0.0:
        h -= d * math.log2(d)
    y = 1.0 - h
    return y if y > 0.0 else 0.0


def composite_r2(bd: BellDiagonal) -> float:
    """Bell-pair rate: best over k >= 0 recurrence rounds followed by
    hashing, accounting each round's factor-2 copy cost and success odds.

    A lower bound on the true distillable rate.  Exactly 0 when no class
    exceeds 1/2, since the quadratic map cannot cross that boundary.  Round
    k's candidate is survival_k times a hashing yield of at most 1, and each
    round multiplies survival by n/2 <= 1/2, so every candidate after round
    k is at most survival_k / 2.  Once that is at most the best candidate,
    no later round can beat it, and the chain stops.  The bound carries a
    relative slack of 1e-9 for rounding: n <= (1 + 1e-12)^2 and a yield <=
    1 + 1e-15 in floats.  The chain also stops at a fixed point.
    """
    cur = bd.probs
    if max(cur) <= 0.5:
        return 0.0
    best = _hashing_yield(cur)
    survival = 1.0
    while survival * _NEXT_ROUND_BOUND > best:
        nxt, n, _ = _round(cur)
        survival *= n / 2.0
        stuck = _stuck(nxt, cur)
        cur = nxt
        cand = survival * _hashing_yield(cur)
        if cand > best:
            best = cand
        if stuck:
            break
    return best
