"""Boundary tracer: spans around calls into graphpurify's public functions.

The tracer changes nothing under ``src/``.  It replaces each target function
with a timing wrapper in every graphpurify module that bound it (the defining
module and every ``from .x import y`` site), plus ``Graph.delete_vertex`` on
the class, and puts the originals back on exit.

Spans carry name, start, end, parent and unit id.  ``delete_vertex`` alone
runs 10^5-10^6 times per pass, so spans are aggregated in memory per
(name, parent); only the first ``RAW_SPANS_KEPT`` are also kept verbatim.
Self time is a span's duration minus the part its child spans cover.  There
are no threads or I/O in the program, so no span waits on another and no
wait time is recorded.
"""

from __future__ import annotations

import sys
from time import perf_counter

RAW_SPANS_KEPT = 5000

# (module, function) pairs wrapped as spans.  thermal and errors are left
# out: closed forms and exception types called a handful of times, where a
# span would time only the tracer.
TARGETS = (
    ("cli", "main"),
    ("protocol", "run_drpp"),
    ("protocol", "threshold_scan"),
    ("protocol", "plan_extraction"),
    ("protocol", "rate_report"),
    ("pattern", "sample_thermal"),
    ("pattern", "measure_z"),
    ("pattern", "merge_local"),
    ("pattern", "apply_cz"),
    ("pattern", "apply_cz_via_pair"),
    ("pattern", "is_ideal"),
    ("pairs", "distill_trace"),
    ("pairs", "composite_r2"),
    ("pairs", "recurrence_step"),
    ("rng", "derive_rng"),
    ("verification", "run_oracle_sweep"),
    ("verification", "check_graph"),
    ("dense", "thermal_state_from_p"),
    ("dense", "apply_unitary_rho"),
    ("dense", "partial_trace"),
    ("dense", "trace_distance"),
    ("dense", "cz_diagonal"),
    ("optimality", "proof_applies"),
    ("optimality", "build_reconstruction"),
    ("optimality", "verify_reconstruction"),
)
DELETE_VERTEX = "graphs.delete_vertex"
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TARGETS) + (DELETE_VERTEX,)


COUNTED = frozenset(("dense.apply_unitary_rho", "optimality.verify_reconstruction", "optimality.proof_applies"))


def _counters(name, args, kwargs, result):
    """Counts taken at a boundary: (counter name, increment) pairs."""
    if name == "dense.apply_unitary_rho":
        # computed, not measured: the density matrix read plus the one written
        return (("dense.apply_unitary_rho.bytes_computed", args[0].nbytes + result.nbytes),)
    if name == "optimality.verify_reconstruction":
        method = kwargs.get("method", args[4] if len(args) > 4 else "auto")
        return (("optimality.bipartitions_tried", 1 if method == "analytic" else 0),)
    if name == "optimality.proof_applies":
        return (("optimality.edges_verified", sum(1 for ok in result.values() if ok)),)
    return ()


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.agg: dict[tuple[str, str | None], list[float]] = {}
        self.counters: dict[str, float] = {}
        self.raw: list[tuple] = []
        self.unit: str | None = None
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, agg, raw, counters = self._stack, self.agg, self.raw, self.counters
        counted = name in COUNTED

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += dur
                rec = agg.get((name, parent))
                if rec is None:
                    rec = agg[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += frame[1]
                if len(raw) < RAW_SPANS_KEPT:
                    raw.append((name, start, end, parent, self.unit))
            if counted:
                for key, inc in _counters(name, args, kwargs, result):
                    counters[key] = counters.get(key, 0) + inc
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        for mod_name, fn_name in TARGETS:
            home = sys.modules[f"{package.__name__}.{mod_name}"]
            orig = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                if getattr(mod, fn_name, None) is orig:
                    self._patched.append((mod, fn_name, orig))
                    setattr(mod, fn_name, wrapper)
        graph_cls = sys.modules[f"{package.__name__}.graphs"].Graph
        orig = graph_cls.__dict__["delete_vertex"]
        self._patched.append((graph_cls, "delete_vertex", orig))
        graph_cls.delete_vertex = self._wrap(DELETE_VERTEX, orig)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- summaries -------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, _), (_, dur, child) in self.agg.items():
            out[name] += dur - child
        return out

    def calls(self) -> dict[str, int]:
        out = dict.fromkeys(SPAN_NAMES, 0)
        for (name, _), (count, _, _) in self.agg.items():
            out[name] += count
        return out

    def top_level_seconds(self) -> float:
        return sum(rec[1] for (_, parent), rec in self.agg.items() if parent is None)

    def dump(self) -> dict:
        return {
            "aggregate": [
                {"name": n, "parent": par, "calls": c, "total_s": d, "self_s": d - ch}
                for (n, par), (c, d, ch) in sorted(self.agg.items(), key=lambda kv: -kv[1][1])
            ],
            "counters": dict(self.counters),
            "raw_fields": ["name", "start", "end", "parent", "unit"],
            "raw": [list(s) for s in self.raw],
        }
