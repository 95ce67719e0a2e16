"""Compare two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (``--out``).  For every
(workload, trace, metric) present on both sides this prints each side's
median, quartiles and sample count, and a verdict:

- win: the new side is better in at least 9/10 of the paired runs (paired
  by seed, else by file order; ties count for neither) and the medians
  differ by more than the base side's interquartile distance;
- no worse: the new median is not worse than the base median by more than
  the metric's bound from BENCHMARK.json;
- unresolved: either side's interquartile distance, as a share of its
  median, exceeds the bound, unless every new run beats every base run;
- worse: the new median is worse by more than the bound.

Metrics without a bound (per-layer and extra metrics) get only "win" or
"-".  Exit status is 1 when any bounded metric is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(directory: Path) -> tuple[dict, dict[str, str]]:
    """({(workload, trace): {metric: [(seed, value), ...]}}, {metric: better})."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    better: dict[str, str] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        rec = json.loads(path.read_text())
        metrics = dict(rec["metrics"])
        metrics.update(rec.get("extra_metrics", {}))
        for name, mv in metrics.items():
            runs[(rec["workload"], rec["trace"])][name].append((rec["seed"], mv["value"]))
        better.update(rec["better"])
    return runs, better


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def pairs(base: list[tuple[int, float]], new: list[tuple[int, float]]) -> list[tuple[float, float]]:
    base_by_seed, new_by_seed = dict(base), dict(new)
    shared = sorted(set(base_by_seed) & set(new_by_seed))
    if shared:
        return [(base_by_seed[s], new_by_seed[s]) for s in shared]
    return [(b, n) for (_, b), (_, n) in zip(base, new)]


def verdict(base, new, higher: bool, bound: float | None) -> str:
    sign = 1.0 if higher else -1.0
    bv, nv = [v for _, v in base], [v for _, v in new]
    (bmed, bq1, bq3), (nmed, nq1, nq3) = summary(bv), summary(nv)
    paired = pairs(base, new)
    wins = sum(sign * (n - b) > 0 for b, n in paired)
    if paired and wins >= WIN_SHARE * len(paired) and sign * (nmed - bmed) > bq3 - bq1:
        return "win"
    if bound is None:
        return "-"
    scale = abs(bmed) or 1.0
    spread = max((bq3 - bq1) / scale, (nq3 - nq1) / (abs(nmed) or 1.0))
    if spread > bound:
        all_better = min(sign * n for n in nv) > max(sign * b for b in bv)
        return "no worse" if all_better else "unresolved"
    return "no worse" if -sign * (nmed - bmed) / scale <= bound else "worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of perfbench result files.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base_runs, better = load(args.base)
    new_runs, new_better = load(args.new)
    better.update(new_better)

    bad = 0
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, trace = key
        print(f"== {workload} (trace={trace})")
        print(f"  {'metric':<42} {'base median [q1, q3] n':>36} {'new median [q1, q3] n':>36} {'change':>8}  verdict")
        for name in sorted(set(base_runs[key]) & set(new_runs[key])):
            base, new = base_runs[key][name], new_runs[key][name]
            v = verdict(base, new, better.get(name) == "higher", bounds.get(name))
            bad += v in ("worse", "unresolved")
            cols = []
            for side in (base, new):
                med, q1, q3 = summary([x for _, x in side])
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {len(side)}")
            bmed, nmed = summary([x for _, x in base])[0], summary([x for _, x in new])[0]
            change = f"{(nmed - bmed) / abs(bmed):+.2%}" if bmed else "-"
            print(f"  {name:<42} {cols[0]:>36} {cols[1]:>36} {change:>8}  {v}")
    print("bounded metrics: " + ("all no worse or better" if not bad else f"{bad} worse or unresolved"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
