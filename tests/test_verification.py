"""Sweep harness checks: the exhaustive oracle must pass on small sizes and,
just as importantly, must actually catch a broken update rule."""

import dataclasses

import pytest

from graphpurify.errors import ParameterError
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

        def tampered(batch, v, rng=None, forced_outcome=None):
            res = real(batch, v, rng=rng, forced_outcome=forced_outcome)
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

        def tampered(batch, party, rng=None, forced_outcomes=None):
            res = real(batch, party, rng=rng, forced_outcomes=forced_outcomes)
            g = res.batch.graph
            if g.n < 2:
                return res
            wrong = dataclasses.replace(res.batch, graph=g.toggle_edge(0, 1))
            return dataclasses.replace(res, batch=wrong)

        monkeypatch.setattr(verification, "batch_merge", tampered)
        _, bad = check_graph(Graph.from_edges(3, [(0, 1), (1, 2)]), failures=[])
        assert bad > 0


def _drop_pivot_frame_spread(monkeypatch):
    # X measurement inside a merge: the pivot's frame row is no longer XORed
    # onto the measured qubit's other neighbours
    real = pattern._measure_x

    def mutant(g, z, f, alive, m, kappa, rng, forced_outcome):
        f_before = list(f)
        out = real(g, z, f, alive, m, kappa, rng, forced_outcome)
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

    def mutant(batch, u, v, pair_u, pair_v, rng=None, forced_outcomes=None):
        res = real(batch, u, v, pair_u, pair_v, rng, forced_outcomes)
        frame = list(res.batch.frame_rows)
        frame[u] ^= batch.frame_rows[pair_v]
        wrong = dataclasses.replace(res.batch, frame_rows=tuple(frame))
        return dataclasses.replace(res, batch=wrong)

    monkeypatch.setattr(verification, "batch_splice", mutant)


@pytest.mark.parametrize("mutate", [_drop_pivot_frame_spread, _drop_far_half_frame])
def test_batched_sweep_catches_one_dropped_frame_xor(monkeypatch, mutate):
    # every column of a batch shares one rule run, so a sweep that compared
    # nothing per column would pass any mutant; this one must not
    assert run_oracle_sweep(max_n=3).mismatches == 0
    mutate(monkeypatch)
    report = run_oracle_sweep(max_n=3)
    assert report.mismatches > 0
    assert any("state mismatch" in f for f in report.failures)
