import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_record.py"


def test_records_one_tiny_run(tmp_path):
    # the smallest run the benchmark makes: one workload, its least passes
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--number", "0", "--workload", "overload-deep",
         "--runs", "1", "--seconds", "0", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_0.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(record["host"]) == {"cpu", "nproc", "python", "numpy"}
    assert record["python"] == record["host"]["python"]
    assert record["settings"] == {"runs": 1, "seconds": 0.0, "seeds": [1]}
    assert set(record["trees"]) == {"this"}
    assert record["trees"]["this"]["commit"]
    this = record["workloads"]["overload-deep"]["this"]
    assert this["failed"] == 0
    for metric in spec["end_to_end"]:
        got = this[metric["name"]]
        assert got["q1"] == got["median"] == got["q3"] == got["values"][0]
    assert this["ok_frac"]["median"] == 1.0


def test_rejects_a_tree_that_is_not_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--number", "0", "--tree", f"x={tmp_path}",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "--tree" in proc.stderr
    assert not (tmp_path / "BENCH_0.json").exists()


def test_refuses_a_run_length_the_benchmark_does_not_set(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--number", "0", "--seconds", "20",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "--seconds" in proc.stderr
    assert not (tmp_path / "BENCH_0.json").exists()
