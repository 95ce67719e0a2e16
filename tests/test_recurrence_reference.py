"""The recurrence kernels against a frozen reference, compared with ``==``.

``_round``, ``_stuck`` and ``_hashing_yield`` are written out per class for
speed.  The reference below is the earlier loop form of the same kernels,
kept verbatim: a pairing table, ``max`` over the classes, generator sums.
Every rate, trace and round the package reports must equal it bit for bit,
on the rate grid the benchmark uses, on the distillation traces, and on
states built to sit on the kernels' edges: tied pairings (lowest index must
win) and classes within 1e-9 of 1/2 (both clamps must hold).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from graphpurify.errors import ParameterError
from graphpurify.graphs import load_graph
from graphpurify.pairs import (
    BellDiagonal,
    _hashing_yield,
    _round,
    _stuck,
    composite_r2,
    distill_trace,
    from_z_noise,
    hashing_yield,
    recurrence_pairing,
    recurrence_step,
)
from graphpurify.protocol import plan_extraction, rate_report

_SETTINGS = settings(derandomize=True, max_examples=400, deadline=None)

RATE_GRID = tuple(k / 5000 for k in range(1, 1501))  # 0.0002 ... 0.3000


# -- the reference: the loop form, kept as it was --------------------------------

_REF_PAIRING_SLOTS = ((1, 2, 3), (2, 1, 3), (3, 2, 1))


def _ref_round(q):
    a = q[0]
    clamp = max(q) <= 0.5
    best_fid = -1.0
    for pairing, (i, j, k) in enumerate(_REF_PAIRING_SLOTS, 1):
        b = q[i]
        n = (a + b) ** 2 + (q[j] + q[k]) ** 2
        if n <= 0.0:
            raise ParameterError("recurrence success probability vanished")
        fid = (a * a + b * b) / n
        if clamp:
            fid = min(fid, 0.5)
        if fid > best_fid:
            best, best_fid, best_n = pairing, fid, n
    i, j, k = _REF_PAIRING_SLOTS[best - 1]
    b, c, d, n = q[i], q[j], q[k], best_n
    out = [best_fid, 2.0 * a * b / n, (c * c + d * d) / n, 2.0 * c * d / n]
    if clamp:
        out[1:] = [min(x, 0.5) for x in out[1:]]
    kept = [best_fid, 0.0, 0.0, 0.0]
    kept[i], kept[j], kept[k] = out[1], out[2], out[3]
    return tuple(kept), n, best


def _ref_stuck(nxt, cur):
    return all(abs(x - y) <= 1e-15 for x, y in zip(nxt, cur))


def _ref_hashing_yield(probs):
    if max(probs) <= 0.5:
        return 0.0
    h = 0.0
    for q in probs:
        if q > 0.0:
            h -= q * math.log2(q)
    return max(0.0, 1.0 - h)


def _ref_composite_r2(probs):
    cur = probs
    if max(cur) <= 0.5:
        return 0.0
    best = _ref_hashing_yield(cur)
    survival = 1.0
    while survival > best:
        nxt, n, _ = _ref_round(cur)
        survival *= n / 2.0
        stuck = _ref_stuck(nxt, cur)
        cur = nxt
        best = max(best, survival * _ref_hashing_yield(cur))
        if stuck:
            break
    return best


def _ref_trace(probs, target, max_rounds=64):
    cur = probs
    succ, pairings = [], []
    cost = 1.0
    while cur[0] < target and len(succ) < max_rounds:
        nxt, n, pairing = _ref_round(cur)
        succ.append(n)
        pairings.append(pairing)
        cost *= 2.0 / n
        stuck = _ref_stuck(nxt, cur)
        cur = nxt
        if stuck:
            break
    return (cur[0] >= target, len(succ), cost, cur, tuple(succ), tuple(pairings))


def _trace_fields(t):
    return (t.converged, t.rounds, t.expected_pairs, t.final.probs, t.success_probs, t.pairings)


def _outcome(fn, *args):
    """The value, or the exception type and message, so raising is compared too."""
    try:
        return fn(*args)
    except ParameterError as exc:
        return ("ParameterError", str(exc))


# -- the grids --------------------------------------------------------------------


def test_composite_r2_on_the_rate_grid():
    for p in RATE_GRID:
        assert composite_r2(from_z_noise(p)) == _ref_composite_r2(from_z_noise(p).probs), p


def test_rate_report_on_the_rate_grid():
    for name in ("path:6", "grid:3x3", "star:5"):
        g = load_graph(name)
        n_geo = plan_extraction(g).n_geo
        for p in RATE_GRID:
            r2 = _ref_composite_r2(from_z_noise(p).probs)
            rep = rate_report(g, p)
            assert (rep.n_geo_plan, rep.r2, rep.r_psi_lower, rep.r_psi_upper) == (
                n_geo, r2, r2 / max(1, n_geo), r2
            ), (name, p)


def test_distill_trace_on_the_rate_grid():
    for p in RATE_GRID + (0.2928, 0.3, 0.4, 0.5):
        bd = from_z_noise(p)
        assert _trace_fields(distill_trace(bd, 0.999)) == _ref_trace(bd.probs, 0.999), p


def test_kernels_along_the_grid_chains():
    # every state a grid chain visits, fed to each kernel on its own
    for p in RATE_GRID[::7]:
        cur = from_z_noise(p).probs
        for _ in range(12):
            got, want = _round(cur), _ref_round(cur)
            assert got == want
            assert _hashing_yield(got[0]) == _ref_hashing_yield(got[0])
            assert _stuck(got[0], cur) == _ref_stuck(got[0], cur)
            cur = got[0]


# -- edge states ------------------------------------------------------------------

_unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def _tied(draw):
    """Two or three classes share one weight, in any slots."""
    w = draw(st.floats(0.0, 0.5))
    shared = draw(st.sampled_from([(1, 2), (1, 3), (2, 3), (1, 2, 3), (0, 1), (0, 2), (0, 3)]))
    probs = [None] * 4
    for s in shared:
        probs[s] = w
    rest = [i for i in range(4) if probs[i] is None]
    left = max(0.0, 1.0 - w * len(shared))
    cut = draw(_unit) * left
    for i, v in zip(rest, (cut, left - cut)):
        probs[i] = v
    return tuple(probs)


@st.composite
def _near_half(draw):
    """One class within 1e-9 of 1/2, the others splitting the remainder."""
    top = 0.5 + draw(st.floats(-1e-9, 1e-9))
    left = 1.0 - top
    x, y = sorted((draw(_unit), draw(_unit)))
    rest = [left * x, left * (y - x), left * (1.0 - y)]
    slot = draw(st.integers(0, 3))
    return tuple(rest[:slot] + [top] + rest[slot:])


@st.composite
def _exact_ties(draw):
    """Weights from a small set of dyadic and thirds values, so ties are exact."""
    vals = draw(st.lists(st.sampled_from([0.0, 0.125, 0.25, 1 / 3, 0.375, 0.5, 0.625]),
                         min_size=4, max_size=4))
    return tuple(vals)


_edge_states = st.one_of(_tied(), _near_half(), _exact_ties())


@_SETTINGS
@given(_edge_states)
def test_round_matches_the_reference_on_edge_states(q):
    assert _outcome(_round, q) == _outcome(_ref_round, q)
    assert _hashing_yield(q) == _ref_hashing_yield(q)


@_SETTINGS
@given(_edge_states, _edge_states)
def test_stuck_matches_the_reference(a, b):
    assert _stuck(a, b) == _ref_stuck(a, b)
    assert _stuck(a, a) and _ref_stuck(a, a)


@_SETTINGS
@given(_edge_states)
def test_public_calls_match_the_reference_on_valid_edge_states(q):
    try:
        bd = BellDiagonal(q)
    except ParameterError:
        return  # not a distribution; the raw kernels are compared above
    assert _outcome(composite_r2, bd) == _outcome(_ref_composite_r2, q)
    assert hashing_yield(bd) == _ref_hashing_yield(q)
    ref = _outcome(_ref_round, q)
    if isinstance(ref[0], str):
        assert _outcome(recurrence_pairing, bd) == ref
    else:
        assert recurrence_pairing(bd) == ref[2]
        out, n = recurrence_step(bd)
        assert (out.probs, n) == ref[:2]
    for target in (0.6, 0.999):
        want = _outcome(_ref_trace, q, target)
        got = _outcome(distill_trace, bd, target)
        assert (got if isinstance(want[0], str) else _trace_fields(got)) == want
