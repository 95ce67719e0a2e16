"""tools/bench_record.py on synthetic perfbench result files."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

MACHINE = {"nproc": 2, "cpu_model": "test cpu", "python": "3.11.7", "numpy": "2.4.6",
           "loadavg_at_start": [0.1, 0.2, 0.3]}


def _write(directory: Path, workload: str, seed: int, trace: int = 0, **values) -> None:
    directory.mkdir(exist_ok=True)
    units = {"units_per_s": "units/s", "setup_s": "s", "peak_rss_mb": "MB"}
    better = {"units_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}
    rec = {
        "workload": workload,
        "trace": trace,
        "seed": seed,
        "seconds": 35.0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items() if k in units},
        "extra_metrics": {"failed_frac": {"value": values.get("failed_frac", 0.0), "unit": "ratio"}},
        "better": {k: better[k] for k in values if k in better} | {"failed_frac": "lower"},
        "machine": MACHINE,
    }
    (directory / f"{workload}-{seed}-t{trace}.json").write_text(json.dumps(rec))
    # spans files sit beside traced results and must be skipped
    (directory / f"{workload}-{seed}-t{trace}.spans.json").write_text("[]")


def _sides(tmp_path: Path, new_speed, new_rss=40.0, n=10):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i in range(n):
        seed = 100 + i
        _write(parent, "threshold", seed, units_per_s=3.0 + 0.05 * i, setup_s=0.30, peak_rss_mb=40.0)
        _write(change, "threshold", seed, units_per_s=new_speed(i), setup_s=0.30, peak_rss_mb=new_rss)
        _write(parent, "mc-large", seed, units_per_s=1000.0 + i, setup_s=0.5, peak_rss_mb=30.0)
        _write(change, "mc-large", seed, units_per_s=1000.0 + i, setup_s=0.5, peak_rss_mb=30.0)
    # a traced run on one side only: not part of the record
    _write(change, "threshold", 100, trace=1, units_per_s=1.0, setup_s=0.3, peak_rss_mb=41.0)
    return parent, change


def test_a_clear_gain_is_recorded_as_a_win(tmp_path):
    parent, change = _sides(tmp_path, lambda i: 6.0 + 0.05 * i)
    out = tmp_path / "BENCH_1.json"
    rc = bench_record.main([str(parent), str(change), "--claim", "threshold:units_per_s",
                            "--change-summary", "faster passes",
                            "--cross-check", "outputs=byte-identical", "--out", str(out)])
    assert rc == 0
    rec = json.loads(out.read_text())
    assert rec["change"] == "faster passes"
    assert "--seconds 35 --trace 0" in rec["method"]
    assert rec["claimed"] == [{"workload": "threshold", "metric": "units_per_s", "verdict": "win"}]
    assert rec["cross_checks"] == {"outputs": "byte-identical"}
    assert rec["machine"] == {k: MACHINE[k] for k in ("nproc", "cpu_model", "python", "numpy")}
    assert set(rec["workloads"]) == {"threshold", "mc-large"}
    thr = rec["workloads"]["threshold"]
    assert thr["seeds"] == "100-109"
    m = thr["metrics"]["units_per_s"]
    assert (m["unit"], m["better"], m["bound"]) == ("units/s", "higher", 0.25)
    assert m["parent"]["median"] == pytest.approx(3.225)
    assert m["change"]["median"] == pytest.approx(6.225)
    assert m["parent"]["n"] == m["change"]["n"] == m["pairs"] == 10
    assert m["change_wins"] == 10
    assert m["change_frac"] == pytest.approx(3.0 / 3.225)
    assert m["runs"]["seeds"] == list(range(100, 110))
    assert m["runs"]["parent"][0] == 3.0 and m["runs"]["change"][0] == 6.0
    # equal sides: bounded metrics read "no worse", unbounded ones "-"
    assert thr["metrics"]["setup_s"]["verdict"] == "no worse"
    assert thr["metrics"]["failed_frac"]["verdict"] == "-"
    assert thr["metrics"]["failed_frac"]["bound"] is None
    assert rec["workloads"]["mc-large"]["metrics"]["units_per_s"]["verdict"] == "no worse"


def test_verdicts_match_compare_py(tmp_path):
    parent, change = _sides(tmp_path, lambda i: 3.0 + 0.05 * i + (0.01 if i < 8 else -0.01))
    rec = bench_record.build_record(parent, change, [("threshold", "units_per_s")], "", {})
    base_runs, _ = bench_record.compare.load(parent)
    new_runs, _ = bench_record.compare.load(change)
    key = ("threshold", 0)
    want = bench_record.compare.verdict(
        base_runs[key]["units_per_s"], new_runs[key]["units_per_s"], True, 0.25
    )
    got = rec["workloads"]["threshold"]["metrics"]["units_per_s"]
    assert got["verdict"] == want == "no worse"
    assert got["change_wins"] == 8


def test_an_unmet_claim_or_a_regression_exits_one(tmp_path):
    parent, change = _sides(tmp_path, lambda i: 3.0 + 0.05 * i, new_rss=45.0)
    out = tmp_path / "BENCH_2.json"
    rc = bench_record.main([str(parent), str(change), "--claim", "threshold:units_per_s",
                            "--out", str(out)])
    assert rc == 1
    rec = json.loads(out.read_text())
    assert rec["claimed"][0]["verdict"] == "no worse"
    assert rec["workloads"]["threshold"]["metrics"]["peak_rss_mb"]["verdict"] == "worse"


def test_a_claim_must_name_a_recorded_metric(tmp_path):
    parent, change = _sides(tmp_path, lambda i: 6.0)
    with pytest.raises(SystemExit, match="no oracle-sweep:units_per_s"):
        bench_record.build_record(parent, change, [("oracle-sweep", "units_per_s")], "", {})
    with pytest.raises(SystemExit):
        bench_record.main([str(parent), str(change), "--claim", "threshold", "--out",
                           str(tmp_path / "x.json")])
