"""Sweep harness checks: the exhaustive oracle must pass on small sizes and,
just as importantly, must actually catch a broken update rule."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        report = run_oracle_sweep(
            max_n=3, include_splice=False, include_six_qubit_merges=False
        )
        assert report.ok
        assert report.graphs == 11

    def test_progress_callback_fires(self):
        seen = []
        run_oracle_sweep(max_n=2, progress=seen.append)
        assert len(seen) >= 3  # per-size lines plus the splice line
        assert all(isinstance(s, str) for s in seen)

    def test_splice_toggle_changes_check_count(self):
        with_splice = run_oracle_sweep(max_n=2)
        without = run_oracle_sweep(max_n=2, include_splice=False)
        assert with_splice.checks > without.checks
        assert with_splice.ok and without.ok

    def test_max_n_validated(self):
        with pytest.raises(ParameterError):
            run_oracle_sweep(max_n=0)
        with pytest.raises(ParameterError):
            run_oracle_sweep(max_n=7)


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
        real = verification.batch_measure_z

        def tampered(batch, v, rng=None, outcome_row=None):
            res = real(batch, v, rng=rng, outcome_row=outcome_row)
            out = res.batch
            if not out.frame_rows:
                return res
            frame = (out.frame_rows[0] ^ out.alive,) + out.frame_rows[1:]
            return dataclasses.replace(res, batch=dataclasses.replace(out, frame_rows=frame))

        monkeypatch.setattr(verification, "batch_measure_z", tampered)
        failures = []
        _, bad = check_graph(path_graph(3), failures=failures)
        assert bad > 0
        assert failures

    def test_tampered_graph_rewiring_is_caught(self, monkeypatch):
        # make every merge claim an extra edge in its output graph
        real = verification.batch_merge

        def tampered(batch, party, rng=None, outcome_rows=None):
            res = real(batch, party, rng=rng, outcome_rows=outcome_rows)
            g = res.batch.graph
            if g.n < 2:
                return res
            wrong = dataclasses.replace(res.batch, graph=g.toggle_edge(0, 1))
            return dataclasses.replace(res, batch=wrong)

        monkeypatch.setattr(verification, "batch_merge", tampered)
        _, bad = check_graph(Graph.from_edges(3, [(0, 1), (1, 2)]), failures=[])
        assert bad > 0


def test_rows_past_the_batch_width_raise(monkeypatch):
    # branches share one wide row with branch b at bit b*width, so a stray
    # high bit would land in the next branch's columns; it must raise instead
    real = verification.batch_cz

    def spilling(batch, u, v):
        out = real(batch, u, v)
        return dataclasses.replace(out, alive=out.alive | 1 << out.alive.bit_length())

    monkeypatch.setattr(verification, "batch_cz", spilling)
    with pytest.raises(InvariantError, match="past column"):
        check_graph(path_graph(3))


def _drop_pivot_frame_spread(monkeypatch):
    # X measurement inside a merge: the pivot's frame row is no longer XORed
    # onto the measured qubit's other neighbours
    real = pattern._measure_x

    def mutant(g, z, f, alive, m, kappa, rng, outcome_row):
        f_before = list(f)
        out = real(g, z, f, alive, m, kappa, rng, outcome_row)
        pivot = out[3]
        if pivot is not None:
            for x in range(g.n):
                if x != pivot and g.adj[m] >> x & 1:
                    f[x] ^= f_before[pivot]
        return out

    monkeypatch.setattr(pattern, "_measure_x", mutant)


def _drop_far_half_frame(monkeypatch):
    # splice: the far half's frame row is no longer XORed onto endpoint u
    real = verification.batch_splice

    def mutant(batch, u, v, pair_u, pair_v, rng=None, outcome_rows=None):
        res = real(batch, u, v, pair_u, pair_v, rng, outcome_rows)
        frame = list(res.batch.frame_rows)
        frame[u] ^= batch.frame_rows[pair_v]
        wrong = dataclasses.replace(res.batch, frame_rows=tuple(frame))
        return dataclasses.replace(res, batch=wrong)

    monkeypatch.setattr(verification, "batch_splice", mutant)


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
    real = verification.batch_merge

    def tampered(batch, party_qubits, rng=None, outcome_rows=None):
        res = real(batch, party_qubits, rng=rng, outcome_rows=outcome_rows)
        if tuple(party_qubits) != party:
            return res
        width = batch.alive.bit_length() // len(branches)
        bit = branches.index(hit) * width + col
        assert res.batch.alive >> bit & 1
        frame = list(res.batch.frame_rows)
        frame[party[0]] ^= 1 << bit
        wrong = dataclasses.replace(res.batch, frame_rows=tuple(frame))
        return dataclasses.replace(res, batch=wrong)

    monkeypatch.setattr(verification, "batch_merge", tampered)
    failures = []
    _, bad = check_graph(g, failures=failures)
    assert bad == 1
    assert failures == [f"n=4 adj={g.adj} merge(0, 1, 2) outcomes=(-1, 1) col=2: state mismatch"]


def test_failure_labels_read_as_the_eager_formats(monkeypatch):
    # labels are formatted only for a failing site; one wrong column at a CZ
    # pair, a Z measurement, a merge party and a splice must each read
    # exactly as the label strings once built up front for every branch
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    joint = Graph.from_edges(4, [(0, 1), (2, 3)])  # splice base path:2 plus its pair

    def flip(batch, qubit, bit):
        assert batch.alive >> bit & 1
        frame = list(batch.frame_rows)
        frame[qubit] ^= 1 << bit
        return dataclasses.replace(batch, frame_rows=tuple(frame))

    real_cz, real_mz = verification.batch_cz, verification.batch_measure_z
    real_merge, real_splice = verification.batch_merge, verification.batch_splice

    def cz(batch, u, v):
        out = real_cz(batch, u, v)
        return flip(out, 1, 5) if (batch.graph, u, v) == (path3, 0, 2) else out

    def mz(batch, v, rng=None, outcome_row=None):
        res = real_mz(batch, v, rng=rng, outcome_row=outcome_row)
        if (batch.graph, v) != (path3, 1):
            return res
        width = batch.alive.bit_length() // 2
        return dataclasses.replace(res, batch=flip(res.batch, 0, width + 3))  # branch -1

    def merge(batch, party, rng=None, outcome_rows=None):
        res = real_merge(batch, party, rng=rng, outcome_rows=outcome_rows)
        if (batch.graph, tuple(party)) != (path3, (0, 2)):
            return res
        width = batch.alive.bit_length() // 2
        return dataclasses.replace(res, batch=flip(res.batch, 0, width + 4))  # branch (-1,)

    def splice(batch, u, v, pair_u, pair_v, rng=None, outcome_rows=None):
        res = real_splice(batch, u, v, pair_u, pair_v, rng, outcome_rows)
        if (batch.graph, u, v) != (joint, 1, 0):
            return res
        width = batch.alive.bit_length() // 4
        return dataclasses.replace(res, batch=flip(res.batch, u, width + 6))  # branch (+1, -1)

    for name, fake in (("batch_cz", cz), ("batch_measure_z", mz),
                       ("batch_merge", merge), ("batch_splice", splice)):
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
    real = verification.batch_merge
    seen = []

    def counting(batch, party_qubits, rng=None, outcome_rows=None):
        seen.append(tuple(party_qubits))
        return real(batch, party_qubits, rng=rng, outcome_rows=outcome_rows)

    monkeypatch.setattr(verification, "batch_merge", counting)
    check_graph(g)
    parties = [p for size in (2, 3, 4) for p in itertools.permutations(range(4), size)]
    assert sorted(seen) == sorted(parties)
