"""Write a BENCH_<n>.json record from two sets of perfbench result files.

    python3 tools/bench_record.py PARENT_DIR CHANGE_DIR \\
        --claim threshold:units_per_s --change-summary "what it does" \\
        --out BENCH_8.json

Each directory holds the result files that ``perfbench/run.py --out`` wrote
for one side, one file per run; runs of the two sides are paired by seed.
Only end-to-end runs (``--trace 0``) are recorded.  Medians, quartiles,
pairing and verdicts come from ``perfbench/compare.py`` (``load``,
``summary``, ``pairs``, ``verdict``), so the record says what compare.py
says.  ``--claim`` names the workload and metric the change claims to win
on; it may be given more than once, or not at all.

Exit status: 0 when every claim is a "win" and no bounded metric is "worse"
or "unresolved", else 1.  The record is written either way.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import compare  # noqa: E402

METHOD = (
    "perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0, parent and change "
    "checkouts alternating which side runs first, one run at a time; medians, quartiles, "
    "paired wins and verdicts from perfbench/compare.py (load, summary, pairs, verdict)"
)
MACHINE_KEYS = ("nproc", "cpu_model", "python", "numpy")


def _files(directory: Path) -> list[dict]:
    return [
        json.loads(path.read_text())
        for path in sorted(directory.glob("*.json"))
        if not path.name.endswith(".spans.json")
    ]


def _units(records: list[dict]) -> dict[str, str]:
    units = {}
    for rec in records:
        for name, mv in {**rec["metrics"], **rec.get("extra_metrics", {})}.items():
            units[name] = mv["unit"]
    return units


def _seed_span(seeds: list[int]) -> str:
    if seeds and seeds == list(range(seeds[0], seeds[-1] + 1)):
        return f"{seeds[0]}-{seeds[-1]}"
    return ",".join(str(s) for s in seeds)


def _side(values: list[float]) -> dict:
    med, q1, q3 = compare.summary(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _metric(base, new, better: str, bound, unit: str) -> dict:
    higher = better == "higher"
    sign = 1.0 if higher else -1.0
    paired = compare.pairs(base, new)
    shared = sorted(dict(base).keys() & dict(new).keys())
    parent, change = _side([v for _, v in base]), _side([v for _, v in new])
    bmed, nmed = parent["median"], change["median"]
    return {
        "unit": unit,
        "better": better,
        "bound": bound,
        "parent": parent,
        "change": change,
        "change_frac": (nmed - bmed) / abs(bmed) if bmed else None,
        "change_wins": sum(sign * (n - b) > 0 for b, n in paired),
        "pairs": len(paired),
        "verdict": compare.verdict(base, new, higher, bound),
        "runs": {
            "seeds": shared,
            "parent": [b for b, _ in paired],
            "change": [n for _, n in paired],
        },
    }


def build_record(parent: Path, change: Path, claims: list[tuple[str, str]], summary: str,
                 cross_checks: dict[str, str]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base_runs, better = compare.load(parent)
    new_runs, new_better = compare.load(change)
    better.update(new_better)
    records = _files(parent) + _files(change)
    units = _units(records)

    workloads = {}
    for workload, trace in sorted(set(base_runs) & set(new_runs)):
        if trace != 0:
            continue
        base, new = base_runs[(workload, trace)], new_runs[(workload, trace)]
        metrics = {
            name: _metric(base[name], new[name], better[name], bounds.get(name), units[name])
            for name in sorted(set(base) & set(new))
        }
        seeds = sorted({s for runs in (base, new) for pts in runs.values() for s, _ in pts})
        workloads[workload] = {"metrics": metrics, "seeds": _seed_span(seeds)}

    claimed = []
    for workload, metric in claims:
        if metric not in workloads.get(workload, {}).get("metrics", {}):
            raise SystemExit(f"bench_record: no {workload}:{metric} on both sides")
        verdict = workloads[workload]["metrics"][metric]["verdict"]
        claimed.append({"workload": workload, "metric": metric, "verdict": verdict})

    machine = records[0]["machine"] if records else {}
    seconds = sorted({rec["seconds"] for rec in records if "seconds" in rec})
    return {
        "change": summary,
        "method": METHOD.format(seconds="/".join(f"{s:g}" for s in seconds) or "N"),
        "claimed": claimed,
        "workloads": workloads,
        "machine": {k: machine[k] for k in MACHINE_KEYS if k in machine},
        "cross_checks": cross_checks,
    }


def _claim(raw: str) -> tuple[str, str]:
    workload, sep, metric = raw.partition(":")
    if not sep or not workload or not metric:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:METRIC, got {raw!r}")
    return workload, metric


def _note(raw: str) -> tuple[str, str]:
    key, sep, text = raw.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=TEXT, got {raw!r}")
    return key, text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record a parent/change perfbench comparison.")
    parser.add_argument("parent", type=Path, help="result files of the parent commit")
    parser.add_argument("change", type=Path, help="result files of the change")
    parser.add_argument("--claim", type=_claim, action="append", default=[],
                        help="WORKLOAD:METRIC the change claims to win on")
    parser.add_argument("--change-summary", dest="summary", default="",
                        help="one line on what the change does")
    parser.add_argument("--cross-check", type=_note, action="append", default=[],
                        help="KEY=TEXT, a check made beside the benchmark runs")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    rec = build_record(args.parent, args.change, args.claim, args.summary, dict(args.cross_check))
    args.out.write_text(json.dumps(rec, indent=1) + "\n")

    bad = 0
    for workload, entry in rec["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:<13} {name:<24} {m['parent']['median']:>12.6g} -> "
                  f"{m['change']['median']:<12.6g} {m['change_wins']}/{m['pairs']}  {m['verdict']}")
            bad += m["bound"] is not None and m["verdict"] in ("worse", "unresolved")
    bad += sum(c["verdict"] != "win" for c in rec["claimed"])
    print(f"wrote {args.out}: " + ("claims won, bounded metrics no worse" if not bad
                                   else f"{bad} claim(s) or bounded metric(s) not met"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
