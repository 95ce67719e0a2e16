"""Sweep harness checks: the exhaustive oracle must pass on small sizes and,
just as importantly, must actually catch a broken update rule."""

import dataclasses
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphpurify
from graphpurify.errors import InvariantError, ParameterError
from graphpurify.graphs import Graph, cycle_graph, path_graph
from graphpurify.verification import check_graph, run_oracle_sweep
import graphpurify.pattern as pattern
import graphpurify.verification as verification


class TestSweep:
    def test_all_two_vertex_graphs_clean(self):
        report = run_oracle_sweep(max_n=2)
        assert report.ok
        assert report.mismatches == 0
        assert report.graphs == 3  # one on 1 vertex, two on 2 vertices
        assert report.checks > 0
        assert report.failures == ()
        assert report.elapsed_seconds >= 0.0

    def test_three_vertex_sweep_clean(self):
        report = run_oracle_sweep(max_n=3)
        assert report.ok
        assert report.graphs == 11

    def test_progress_callback_fires(self):
        seen = []
        run_oracle_sweep(max_n=2, progress=seen.append)
        assert len(seen) >= 3  # per-size lines plus the splice line
        assert all(isinstance(s, str) for s in seen)

    def test_splice_toggle_changes_check_count(self):
        # below five vertices the sweep is check_graph on every graph plus
        # the splices on every base graph, nothing else
        report = run_oracle_sweep(max_n=2)
        graphs = [Graph.from_edges(1, []), Graph.from_edges(2, []), path_graph(2)]
        per_graph = [check_graph(g, max_party=g.n, full_variants=True) for g in graphs]
        splices = [verification._check_splice(g, []) for g in graphs]
        assert sum(c for c, _ in per_graph) < report.checks
        assert report.checks == sum(c for c, _ in per_graph + splices)
        assert report.ok and not any(b for _, b in per_graph + splices)

    def test_max_n_validated(self):
        with pytest.raises(ParameterError):
            run_oracle_sweep(max_n=0)
        with pytest.raises(ParameterError):
            run_oracle_sweep(max_n=7)


@pytest.mark.parametrize("n", [0, 7])
def test_check_graph_takes_the_sweeps_vertex_range(n):
    # one bound for both entry points, and the same message from each
    with pytest.raises(ParameterError) as sweep:
        run_oracle_sweep(max_n=n)
    with pytest.raises(ParameterError) as single:
        check_graph(Graph.from_edges(n, []))
    assert str(single.value) == str(sweep.value) == "sweep supports 1..6 vertices"


class TestCheckGraph:
    def test_single_graph_clean(self):
        failures = []
        checks, bad = check_graph(cycle_graph(3), failures=failures)
        assert checks > 0
        assert bad == 0
        assert failures == []

    def test_tampered_measurement_is_caught(self, monkeypatch):
        # flip one frame bit in every Z-measurement result: the sweep must
        # notice, otherwise it proves nothing
        real = verification.measure_z

        def tampered(batch, v, outcome_row):
            out = real(batch, v, outcome_row)
            if not out.frame_rows:
                return out
            frame = (out.frame_rows[0] ^ out.alive,) + out.frame_rows[1:]
            return dataclasses.replace(out, frame_rows=frame)

        monkeypatch.setattr(verification, "measure_z", tampered)
        failures = []
        _, bad = check_graph(path_graph(3), failures=failures)
        assert bad > 0
        assert failures

    def test_tampered_graph_rewiring_is_caught(self, monkeypatch):
        # make every merge claim an extra edge in its output graph
        real = verification.merge_local

        def tampered(batch, party, outcome_rows):
            out, pivots = real(batch, party, outcome_rows)
            g = out.graph
            if g.n < 2:
                return out, pivots
            return dataclasses.replace(out, graph=g.toggle_edge(0, 1)), pivots

        monkeypatch.setattr(verification, "merge_local", tampered)
        _, bad = check_graph(Graph.from_edges(3, [(0, 1), (1, 2)]), failures=[])
        assert bad > 0


def test_rows_past_the_batch_width_raise(monkeypatch):
    # branches share one wide row with branch b at bit b*width, so a stray
    # high bit would land in the next branch's columns; it must raise instead
    real = verification.apply_cz

    def spilling(batch, u, v):
        out = real(batch, u, v)
        return dataclasses.replace(out, alive=out.alive | 1 << out.alive.bit_length())

    monkeypatch.setattr(verification, "apply_cz", spilling)
    with pytest.raises(InvariantError, match="past column"):
        check_graph(path_graph(3))


def _drop_pivot_frame_spread(monkeypatch):
    # X measurement inside a merge: the pivot's frame row is no longer XORed
    # onto the measured qubit's other neighbours
    real = pattern._measure_x

    def mutant(g, z, f, alive, m, kappa, outcome_row):
        f_before = list(f)
        out = real(g, z, f, alive, m, kappa, outcome_row)
        pivot = out[2]
        if pivot is not None:
            for x in range(g.n):
                if x != pivot and g.adj[m] >> x & 1:
                    f[x] ^= f_before[pivot]
        return out

    monkeypatch.setattr(pattern, "_measure_x", mutant)


def _drop_far_half_frame(monkeypatch):
    # splice: the far half's frame row is no longer XORed onto endpoint u
    real = verification.apply_cz_via_pair

    def mutant(batch, u, v, pair_u, pair_v, outcome_rows):
        out = real(batch, u, v, pair_u, pair_v, outcome_rows)
        frame = list(out.frame_rows)
        frame[u] ^= batch.frame_rows[pair_v]
        return dataclasses.replace(out, frame_rows=tuple(frame))

    monkeypatch.setattr(verification, "apply_cz_via_pair", mutant)


# mismatching columns each mutant leaves in run_oracle_sweep(max_n=3)
_MUTANT_MISMATCHES = {_drop_pivot_frame_spread: 192, _drop_far_half_frame: 3200}


@pytest.mark.parametrize("mutate", [_drop_pivot_frame_spread, _drop_far_half_frame])
def test_batched_sweep_catches_one_dropped_frame_xor(monkeypatch, mutate):
    # every column of a batch shares one rule run, so a sweep that compared
    # nothing per column would pass any mutant; this one must not
    assert run_oracle_sweep(max_n=3).mismatches == 0
    mutate(monkeypatch)
    report = run_oracle_sweep(max_n=3)
    assert report.mismatches == _MUTANT_MISMATCHES[mutate]
    assert any("state mismatch" in f for f in report.failures)


def test_tamper_on_one_merge_branch_names_that_branch(monkeypatch):
    # all branches of a merge party run as column blocks of one tiled batch
    # and are compared in one wide panel; a wrong column in the block of one
    # branch must be reported against that branch alone
    g = cycle_graph(4)
    party, hit, col = (0, 1, 2), (-1, 1), 2
    branches = list(itertools.product((+1, -1), repeat=len(party) - 1))
    real = verification.merge_local

    def tampered(batch, party_qubits, outcome_rows):
        out, pivots = real(batch, party_qubits, outcome_rows)
        if tuple(party_qubits) != party:
            return out, pivots
        width = batch.alive.bit_length() // len(branches)
        bit = branches.index(hit) * width + col
        assert out.alive >> bit & 1
        frame = list(out.frame_rows)
        frame[party[0]] ^= 1 << bit
        return dataclasses.replace(out, frame_rows=tuple(frame)), pivots

    monkeypatch.setattr(verification, "merge_local", tampered)
    failures = []
    _, bad = check_graph(g, failures=failures)
    assert bad == 1
    assert failures == [f"n=4 adj={g.adj} merge(0, 1, 2) outcomes=(-1, 1) col=2: state mismatch"]


def _flip(batch, qubit, bit):
    assert batch.alive >> bit & 1
    frame = list(batch.frame_rows)
    frame[qubit] ^= 1 << bit
    return dataclasses.replace(batch, frame_rows=tuple(frame))


def test_failure_labels_read_as_the_eager_formats(monkeypatch):
    # labels are formatted only for a failing site; one wrong column at a CZ
    # pair, a Z measurement, a merge party and a splice must each read
    # exactly as the label strings once built up front for every branch
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    joint = Graph.from_edges(4, [(0, 1), (2, 3)])  # splice base path:2 plus its pair

    real_cz, real_mz = verification.apply_cz, verification.measure_z
    real_merge, real_splice = verification.merge_local, verification.apply_cz_via_pair

    def cz(batch, u, v):
        out = real_cz(batch, u, v)
        return _flip(out, 1, 5) if (batch.graph, u, v) == (path3, 0, 2) else out

    def mz(batch, v, outcome_row):
        out = real_mz(batch, v, outcome_row)
        if (batch.graph, v) != (path3, 1):
            return out
        width = batch.alive.bit_length() // 2
        return _flip(out, 0, width + 3)  # branch -1

    def merge(batch, party, outcome_rows):
        out, pivots = real_merge(batch, party, outcome_rows)
        if (batch.graph, tuple(party)) != (path3, (0, 2)):
            return out, pivots
        width = batch.alive.bit_length() // 2
        return _flip(out, 0, width + 4), pivots  # branch (-1,)

    def splice(batch, u, v, pair_u, pair_v, outcome_rows):
        out = real_splice(batch, u, v, pair_u, pair_v, outcome_rows)
        if (batch.graph, u, v) != (joint, 1, 0):
            return out
        width = batch.alive.bit_length() // 4
        return _flip(out, u, width + 6)  # branch (+1, -1)

    for name, fake in (("apply_cz", cz), ("measure_z", mz),
                       ("merge_local", merge), ("apply_cz_via_pair", splice)):
        monkeypatch.setattr(verification, name, fake)
    report = run_oracle_sweep(max_n=3)
    g, u, v, o = path3, 0, 2, -1
    base = Graph.from_edges(2, [(0, 1)])
    o1, o2 = +1, -1
    assert report.failures == (
        f"n={g.n} adj={g.adj} cz({u},{v}) col=5: state mismatch",
        f"n={g.n} adj={g.adj} mz({1},{o:+d}) col=3: state mismatch",
        f"n={g.n} adj={g.adj} merge{(0, 2)} outcomes={(-1,)} col=4: state mismatch",
        f"splice base n={base.n} adj={base.adj} u={1} v={0} outcomes=({o1:+d},{o2:+d}) col=6: state mismatch",
    )
    assert report.mismatches == 4


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.integers(1, 400).flatmap(
        lambda w: st.tuples(st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=8))
    )
)
def test_columns_equals_a_per_bit_loop(case):
    width, rows = case
    want = [sum((row >> c & 1) << q for q, row in enumerate(rows)) for c in range(width)]
    assert verification._columns(rows, width).tolist() == want


def test_the_engine_runs_once_per_merge_party(monkeypatch):
    # every outcome branch of a party rides in one tiled call
    g = cycle_graph(4)
    real = verification.merge_local
    seen = []

    def counting(batch, party_qubits, outcome_rows):
        seen.append(tuple(party_qubits))
        return real(batch, party_qubits, outcome_rows)

    monkeypatch.setattr(verification, "merge_local", counting)
    check_graph(g)
    parties = [p for size in (2, 3, 4) for p in itertools.permutations(range(4), size)]
    assert sorted(seen) == sorted(parties)


def test_one_comparison_per_group_of_sites(monkeypatch):
    # all CZ pairs, all Z measurements and all merge parties of one size
    # each go through a single exact comparison; so do all ordered endpoint
    # pairs of one splice base
    real = verification._compare
    seen = []

    def counting(dense, outs, measured, branches, name, failures):
        seen.append((len(outs), tuple(measured)))
        return real(dense, outs, measured, branches, name, failures)

    monkeypatch.setattr(verification, "_compare", counting)
    check_graph(cycle_graph(4))
    merges = [
        (len(parties), tuple(sum(1 << m for m in p[1:]) for p in parties))
        for parties in (list(itertools.permutations(range(4), size)) for size in (2, 3, 4))
    ]
    assert seen == [(6, (0,) * 6), (4, (1, 2, 4, 8))] + merges
    for n in (2, 3, 4):
        for g in verification._all_graphs(n):
            seen.clear()
            verification._check_splice(g, [])
            assert seen == [(n * (n - 1), (0b11 << n,) * (n * (n - 1)))]


def test_tamper_on_the_last_z_measurement_names_that_site(monkeypatch):
    g = cycle_graph(4)
    real = verification.measure_z

    def tampered(batch, v, outcome_row):
        out = real(batch, v, outcome_row)
        if v != 3:
            return out
        width = batch.alive.bit_length() // 2
        return _flip(out, 0, width + 7)  # branch -1

    monkeypatch.setattr(verification, "measure_z", tampered)
    failures = []
    _, bad = check_graph(g, failures=failures)
    assert bad == 1
    assert failures == [f"n=4 adj={g.adj} mz(3,-1) col=7: state mismatch"]


def test_tamper_on_the_last_party_of_a_size_names_that_party(monkeypatch):
    g = cycle_graph(4)
    party, hit, col = (3, 2, 1), (-1, 1), 5
    assert list(itertools.permutations(range(4), 3))[-1] == party
    branches = list(itertools.product((+1, -1), repeat=2))
    real = verification.merge_local

    def tampered(batch, party_qubits, outcome_rows):
        out, pivots = real(batch, party_qubits, outcome_rows)
        if tuple(party_qubits) != party:
            return out, pivots
        width = batch.alive.bit_length() // len(branches)
        bit = branches.index(hit) * width + col
        return _flip(out, party[0], bit), pivots

    monkeypatch.setattr(verification, "merge_local", tampered)
    failures = []
    _, bad = check_graph(g, failures=failures)
    assert bad == 1
    assert failures == [f"n=4 adj={g.adj} merge(3, 2, 1) outcomes=(-1, 1) col=5: state mismatch"]


def test_tamper_on_the_last_splice_pair_names_that_pair(monkeypatch):
    g = cycle_graph(4)
    real = verification.apply_cz_via_pair

    def tampered(batch, u, v, pair_u, pair_v, outcome_rows):
        out = real(batch, u, v, pair_u, pair_v, outcome_rows)
        if (u, v) != (3, 2):
            return out
        width = batch.alive.bit_length() // 4
        return _flip(out, u, 3 * width + 9)  # (-1, -1)

    monkeypatch.setattr(verification, "apply_cz_via_pair", tampered)
    failures = []
    _, bad = verification._check_splice(g, failures)
    assert bad == 1
    assert failures == [f"splice base n=4 adj={g.adj} u=3 v=2 outcomes=(-1,-1) col=9: state mismatch"]


def _per_site_sweep(max_n, failures):
    """``run_oracle_sweep(max_n)`` for max_n <= 4, one ``_compare`` call per
    operation site: each CZ pair, each Z measurement, each merge party and
    each splice endpoint pair on its own."""
    V = verification
    bad = 0
    for n in range(1, max_n + 1):
        for g in V._all_graphs(n):
            batch, base = V._column_batch(g, full_variants=True)
            width = base.shape[1]
            gname = f"n={n} adj={g.adj}"
            for u, v in itertools.combinations(range(n), 2):
                bad += V._compare(
                    V._cz_rows(base, n, u, v), [V.apply_cz(batch, u, v)], [0], [(u, v)],
                    lambda uv: f"{gname} cz({uv[0]},{uv[1]})", failures,
                )
            (minus,) = V._branch_rows(1, width)
            for v in range(n):
                dense = np.concatenate(V._split(base, n, v), axis=2).reshape(1 << (n - 1), 2 * width)
                out = V.measure_z(V._tile(batch, 2, width), v, outcome_row=minus)
                bad += V._compare(
                    dense, [out], [1 << v], (+1, -1), lambda o: f"{gname} mz({v},{o:+d})", failures
                )
            for size in range(2, n + 1):
                k = size - 1
                outcomes = list(itertools.product((+1, -1), repeat=k))
                for party in itertools.permutations(range(n), size):
                    out, pivots = V.merge_local(
                        V._tile(batch, 1 << k, width), list(party),
                        outcome_rows=V._branch_rows(k, width),
                    )
                    bad += V._compare(
                        V._replay_merge(base, n, party, pivots, width), [out],
                        [sum(1 << m for m in party[1:])], outcomes,
                        lambda o: f"{gname} merge{party} outcomes={o}", failures,
                    )
    for n in range(1, max_n + 1):
        for g in V._all_graphs(n):
            joint = Graph.from_edges(n + 2, list(g.edges()) + [(n, n + 1)])
            batch, base = V._column_batch(joint, full_variants=False)
            width = base.shape[1]
            outcomes = list(itertools.product((+1, -1), repeat=2))
            for u, v in itertools.permutations(range(n), 2):
                dense = V._cz_rows(V._cz_rows(base, n + 2, u, n), n + 2, v, n + 1)
                dense = V._x_branches(V._x_branches(dense, n + 2, n, width), n + 1, n, width)
                out = V.apply_cz_via_pair(
                    V._tile(batch, 4, width), u, v, n, n + 1, outcome_rows=V._branch_rows(2, width)
                )
                bad += V._compare(
                    dense, [out], [0b11 << n], outcomes,
                    lambda o: f"splice base n={n} adj={g.adj} u={u} v={v} outcomes=({o[0]:+d},{o[1]:+d})",
                    failures,
                )
    return bad


@pytest.mark.parametrize(
    "mutate, mismatches", [(_drop_pivot_frame_spread, 67_200), (_drop_far_half_frame, 101_504)]
)
def test_grouped_sweep_equals_a_per_site_sweep_under_mutants(monkeypatch, mutate, mismatches):
    # one comparison per group must report exactly what one comparison per
    # site reports: the same mismatching columns, named alike, in the same order
    monkeypatch.setattr(verification, "_MAX_FAILURES_KEPT", 10**9)
    mutate(monkeypatch)
    report = run_oracle_sweep(max_n=4)
    reference = []
    assert _per_site_sweep(4, reference) == mismatches
    assert report.mismatches == mismatches
    assert list(report.failures) == reference


def _operator_cases(g, parties):
    """(n, parties, pivots, base) for one group of merge parties on g."""
    batch, base = verification._column_batch(g, full_variants=g.n <= 4)
    width = base.shape[1]
    k = len(parties[0]) - 1
    tiled = verification._tile(batch, 1 << k, width)
    rows = verification._branch_rows(k, width)
    pivots = [verification.merge_local(tiled, list(p), outcome_rows=rows)[1] for p in parties]
    return g.n, parties, pivots, base


def _assert_operator_panel_is_the_replay(n, parties, pivots, base):
    want = np.hstack([
        verification._replay_merge(base, n, party, piv, base.shape[1])
        for party, piv in zip(parties, pivots)
    ])
    got = verification._merge_panel(base, n, parties, pivots, "case")
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    k = len(parties[0]) - 1
    for party, piv in zip(parties, pivots):
        op = verification._merge_operator(n, party, piv)
        # the stored dtype holds every entry: back in int64 it is the replay
        # of the identity, with rows (branch, panel row)
        size = 1 << n
        eye = verification._replay_merge(np.eye(size, dtype=np.int64), n, party, piv, size)
        eye = eye.reshape(size >> k, 1 << k, size).transpose(1, 0, 2).reshape(size, size)
        assert np.array_equal(op.astype(np.int64), eye)
        assert np.abs(eye).max() <= 1 << 2 * k
        if k <= 3:
            assert op.dtype == np.int8
        assert not op.flags.writeable


def test_merge_operator_equals_the_replay_on_small_graphs():
    # every labelled graph on <= 4 vertices, every party size up to 4
    pivots_seen = {}
    for n in range(1, 5):
        for g in verification._all_graphs(n):
            for size in range(2, n + 1):
                case = _operator_cases(g, list(itertools.permutations(range(n), size)))
                _assert_operator_panel_is_the_replay(*case)
                for party, piv in zip(case[1], case[2]):
                    pivots_seen.setdefault((n, party), set()).add(piv)
    # one party, different pivots: different operators.  A Hadamard commutes
    # with the projections of other qubits, so (None, 0) and (0, None) may
    # agree; pivots that Hadamard a different set of qubits an odd number of
    # times may not
    def odd(piv):
        return frozenset(q for q in range(4) if piv.count(q) % 2)

    compared = 0
    for (n, party), seen in pivots_seen.items():
        for a, b in itertools.combinations(seen, 2):
            if odd(a) != odd(b):
                op_a = verification._merge_operator(n, party, a)
                assert not np.array_equal(op_a, verification._merge_operator(n, party, b))
                compared += 1
    assert compared > 1000


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(0, (1 << 10) - 1))
def test_merge_operator_equals_the_replay_on_five_vertex_pairs(mask):
    slots = list(itertools.combinations(range(5), 2))
    g = Graph.from_edges(5, [slots[i] for i in range(len(slots)) if mask >> i & 1])
    _assert_operator_panel_is_the_replay(
        *_operator_cases(g, list(itertools.permutations(range(5), 2)))
    )


def test_merge_operator_equals_the_replay_on_three_pair_merges():
    g, parties = verification._six_qubit_merge_configs()
    for _, run in itertools.groupby(parties, key=len):
        _assert_operator_panel_is_the_replay(*_operator_cases(g, list(run)))


def test_operator_cache_changes_no_report(monkeypatch):
    # a cold cache and a warm one give the same report, failures included
    _drop_pivot_frame_spread(monkeypatch)
    verification._merge_operator.cache_clear()
    cold = run_oracle_sweep(max_n=3)
    assert verification._merge_operator.cache_info().hits > 0
    misses = verification._merge_operator.cache_info().misses
    warm = run_oracle_sweep(max_n=3)
    assert verification._merge_operator.cache_info().misses == misses
    assert cold.mismatches == _MUTANT_MISMATCHES[_drop_pivot_frame_spread]
    assert dataclasses.replace(cold, elapsed_seconds=0) == dataclasses.replace(warm, elapsed_seconds=0)


def test_float_exactness_bound_raises(monkeypatch):
    monkeypatch.setattr(verification, "_FLOAT_EXACT", 1 << 4)
    with pytest.raises(InvariantError, match="float64"):
        check_graph(path_graph(3))


_FORCED_FLOAT_BOUND = """
import sys
import graphpurify.verification as verification
from graphpurify.errors import InvariantError
from graphpurify.graphs import path_graph

if __debug__:
    sys.exit("asserts are live; run this under python -O")
verification._FLOAT_EXACT = 1 << 4
try:
    verification.check_graph(path_graph(3))
except InvariantError as exc:
    print(exc)
    sys.exit(0)
sys.exit("check_graph ran a merge matmul past its exactness bound")
"""


def test_float_exactness_bound_survives_optimized_mode():
    # -O strips asserts from this module too, so a child interpreter checks
    # that the bound is an error the package raises, not an assert
    src = os.path.dirname(os.path.dirname(graphpurify.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FORCED_FLOAT_BOUND],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "may exceed 16 in float64" in proc.stdout
