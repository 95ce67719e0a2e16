"""graphpurify benchmark: one workload (or all three) from a single process.

    python3 perfbench/run.py --workload mc-large --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout: the program is imported from
``src/`` next to this directory.  With ``--trace 0`` the run measures
end-to-end metrics with tracing off; with ``--trace 1`` it runs each pass
untraced and then traced on the same inputs and reports per-layer metrics.
Metric names, units and bounds come from BENCHMARK.json at the checkout
root.  A human-readable table goes to stdout, a result file (and in traced
runs a spans file) goes to ``--out``, and the last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from tracer import DELETE_VERTEX, SPAN_NAMES, Tracer  # noqa: E402
from workloads import MC_SHOTS, WORKLOADS, Result, capacity_exits, r2_zero_below_pstar  # noqa: E402

SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
MAX_NOTES = 5

# Reported in the table and result file and compared by compare.py, but not
# gated by BENCHMARK.json: failed_frac is 0 on a correct program, and the
# per-graph rates exist on mc-large only.
EXTRA_METRICS = {
    "failed_frac": ("ratio", "lower"),
    "shots_per_s.icosahedron": ("1/s", "higher"),
    "shots_per_s.grid4x4": ("1/s", "higher"),
}


def load_package():
    src = ROOT / "src"
    if not (src / "graphpurify" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no graphpurify sources under {src}")
    sys.path.insert(0, str(src))
    import graphpurify
    import graphpurify.cli  # noqa: F401  (not imported by the package itself)

    if not Path(graphpurify.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported graphpurify from {graphpurify.__file__}, not {src}")
    return graphpurify


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: {path} is missing")
    return json.loads(path.read_text())


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


class SetupProbes:
    """Set-up time: fresh interpreters each running one workload's set-up.

    The probes are spread over the run rather than taken back to back, so
    their median does not hang on one stretch of host speed.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.times: list[float] = []

    def take(self) -> None:
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), self.workload],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        dt = perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: {self.workload} set-up failed:\n{proc.stderr}")
        self.times.append(dt)

    def take_due(self, share_done: float) -> None:
        """Take a probe when the run is past the next of SETUP_REPEATS equal slots."""
        if len(self.times) < min(SETUP_REPEATS, 1 + share_done * SETUP_REPEATS):
            self.take()

    def finish(self) -> None:
        while len(self.times) < SETUP_REPEATS:
            self.take()


def run_pass(wl, pkg, seed: int, k: int, after_part, tracer: Tracer | None = None) -> list[Result]:
    """Run pass k and check each part's output.

    ``after_part(key, seconds)`` gets each part's timed duration; the pass
    ends early when it returns True.
    """
    results: list[Result] = []
    for part in wl.parts(pkg, seed, k):
        if tracer is not None:
            tracer.unit = f"{wl.name}/{k}/{part.key}"
        t0 = perf_counter()
        try:
            raw = part.call()
        except Exception:  # a failing unit is counted, not fatal
            dt = perf_counter() - t0
            results.append(Result(part.units, part.units, note=traceback.format_exc(limit=3)))
        else:
            dt = perf_counter() - t0
            try:
                results.append(part.check(raw))
            except Exception:
                results.append(Result(part.units, part.units, note=traceback.format_exc(limit=3)))
        if after_part(part.key, dt):
            break
    return results


class Tally:
    """Attempted and failed units, plus failure notes, across passes."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add_pass(self, results: list[Result]) -> None:
        if self.wl.unit == "pass":
            self.attempted += 1
            self.failed += int(any(r.failed for r in results))
        else:
            self.attempted += sum(r.units for r in results)
            self.failed += sum(r.failed for r in results)
        self.notes += [r.note for r in results if r.note][: max(0, MAX_NOTES - len(self.notes))]


def measure(wl, pkg, seed: int, seconds: float, tally: Tally):
    """Passes until `seconds` of timed calls; returns (metrics, extra metrics, samples).

    The run stops at the first part boundary past `seconds` once the
    workload's minimum passes are done.
    """
    probes = SetupProbes(wl.name)
    probes.take()  # also shows the set-up works before any timing
    wl.smallest_unit(pkg)  # warm-up: lazy imports and first-call costs stay out of timing
    samples: dict[str, list[float]] = defaultdict(list)
    measured = 0.0
    k = 0

    def done() -> bool:
        return k >= wl.min_passes and measured >= seconds

    def after_part(key: str, dt: float) -> bool:
        nonlocal measured
        measured += dt
        samples[key].append(dt)
        probes.take_due(measured / seconds)
        return done()

    while not done():
        tally.add_pass(run_pass(wl, pkg, seed, k, after_part))
        k += 1
    probes.finish()

    # Median per part, summed over a pass: a part that another process
    # slowed once does not move the figure.
    metrics = {
        "units_per_s": wl.units_per_pass / sum(statistics.median(v) for v in samples.values()),
        "setup_s": statistics.median(probes.times),
    }
    extra = {"failed_frac": tally.failed / tally.attempted}
    if wl.name == "mc-large":
        for graph, v in samples.items():
            extra["shots_per_s." + graph.replace(":", "")] = MC_SHOTS / statistics.median(v)
    return metrics, extra, {"passes": k, "part_s": samples, "setup_s": probes.times}


def measure_traced(wl, pkg, seed: int, seconds: float, tally: Tally) -> tuple[dict, Tracer]:
    """Each pass untraced, then traced on the same inputs, until `seconds`
    of timed calls; per-layer metrics per traced pass."""
    wl.smallest_unit(pkg)
    tracer = Tracer()
    timed = {False: 0.0, True: 0.0}  # traced? -> seconds of timed calls
    shots = envelope_bytes = checks = mismatches = 0
    k = 0
    while k == 0 or timed[False] + timed[True] < seconds:
        for traced in (False, True):
            durations: list[float] = []
            if traced:
                tracer.install(pkg)
            try:
                results = run_pass(wl, pkg, seed, k, lambda key, dt: durations.append(dt),
                                   tracer if traced else None)
            finally:
                tracer.uninstall()
            timed[traced] += sum(durations)
            tally.add_pass(results)
        shots += sum(r.shots for r in results)
        envelope_bytes += sum(r.envelope_bytes for r in results)
        checks += sum(r.checks for r in results)
        mismatches += sum(r.mismatches for r in results)
        k += 1
    traced_s = timed[True]

    def per_shot(x: float) -> float:
        return x / shots if shots else 0.0

    def total(pred) -> float:
        return sum(rec[1] for (name, parent), rec in tracer.agg.items() if pred(name, parent))

    m: dict[str, float] = {}
    calls, selfs = tracer.calls(), tracer.self_seconds()
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = calls[name] / k
        m[f"{name}.self_s"] = selfs[name] / k
    m["protocol.shots_simulated"] = shots / k
    m["graphs.delete_vertex.per_shot"] = per_shot(calls[DELETE_VERTEX])
    m["protocol.extract_s_per_shot"] = per_shot(total(
        lambda n, par: par == "protocol.run_drpp" and n in ("pattern.sample_thermal", "pattern.measure_z")))
    m["protocol.rebuild_s_per_shot"] = per_shot(total(
        lambda n, par: par == "protocol.run_drpp"
        and n in ("pattern.merge_local", "pattern.apply_cz_via_pair", "pattern.is_ideal")))
    check_graph_s = total(lambda n, par: n == "verification.check_graph")
    engine_s = total(lambda n, par: par == "verification.check_graph" and n.startswith("pattern."))
    m["verification.engine_frac"] = engine_s / check_graph_s if check_graph_s else 0.0
    m["verification.checks"] = checks / k
    m["verification.mismatches"] = mismatches / k
    counters = tracer.counters
    m["dense.apply_unitary_rho.bytes_computed"] = counters.get("dense.apply_unitary_rho.bytes_computed", 0) / k
    tried = counters.get("optimality.bipartitions_tried", 0)
    verified = counters.get("optimality.edges_verified", 0)
    m["optimality.bipartitions_tried"] = tried / k
    m["optimality.edges_verified"] = verified / k
    m["optimality.wiring_yield"] = verified / tried if tried else 0.0
    m["cli.envelope_bytes"] = envelope_bytes / k
    # known limits: counts, not failures, taken untraced outside any timing
    m["cli.capacity_exits"] = capacity_exits(pkg)
    m["pairs.r2_zero_below_pstar"] = r2_zero_below_pstar(pkg)
    m["trace.overhead_frac"] = timed[True] / timed[False] - 1.0
    m["trace.wall_s"] = traced_s / k
    m["trace.spanned_self_s"] = sum(selfs.values()) / k
    m["trace.unspanned_s"] = (traced_s - tracer.top_level_seconds()) / k
    return m, tracer


def run_workload(name: str, pkg, spec: dict, args) -> dict:
    wl = WORKLOADS[name](json.loads((HERE / "reference.json").read_text()))
    tally = Tally(wl)
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "unit": wl.unit, "machine": machine_info()}
    if args.trace:
        values, tracer = measure_traced(wl, pkg, args.seed, args.seconds, tally)
        declared = spec["per_layer"]
        gap = values["trace.wall_s"] - values["trace.spanned_self_s"] - values["trace.unspanned_s"]
        accounted = abs(gap) <= 1e-6 * values["trace.wall_s"]
        extra: dict[str, float] = {}
        record["spans"] = tracer.dump()
    else:
        values, extra, record["samples"] = measure(wl, pkg, args.seed, args.seconds, tally)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        declared = spec["end_to_end"]
        accounted = True
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json: {sorted(missing)}")
    record.update(
        metrics={m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
        extra_metrics={k: {"value": v, "unit": EXTRA_METRICS[k][0]} for k, v in extra.items()},
        better={m["name"]: m["better"] for m in declared} | {k: EXTRA_METRICS[k][1] for k in extra},
        attempted=tally.attempted,
        failed=tally.failed,
        correct=tally.failed == 0 and accounted,
        notes=tally.notes,
    )
    return record


def print_table(record: dict) -> None:
    m = record["machine"]
    print(f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"unit={record['unit']}  nproc={m['nproc']}  cpu={m['cpu_model']!r}  "
          f"python={m['python']}  numpy={m['numpy']}  load={m['loadavg_at_start']}")
    rows = dict(record["metrics"])
    rows.update(record.get("extra_metrics", {}))
    for name, mv in rows.items():
        print(f"  {name:<44} {mv['value']:>16.6g} {mv['unit']}")
    print(f"  attempted={record['attempted']} failed={record['failed']} correct={record['correct']}")
    for note in record["notes"]:
        print(f"  failure: {note.strip()}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "results",
                        help="directory for result and spans files")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    pkg = load_package()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(name, pkg, spec, args) for name in names]

    args.out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    for rec in records:
        spans = rec.pop("spans", None)
        base = args.out / f"{rec['workload']}_seed{rec['seed']}_trace{rec['trace']}_{stamp}"
        if spans is not None:
            Path(f"{base}.spans.json").write_text(json.dumps(spans))
        Path(f"{base}.json").write_text(json.dumps(rec, indent=1))
        print_table(rec)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
