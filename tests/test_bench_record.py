import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert set(record["trees"]["this"]) == {"commit", "src_matches_commit", "src_sha256"}
    this = record["workloads"]["overload-deep"]["this"]
    assert this["failed"] == 0
    for metric in spec["end_to_end"]:
        got = this[metric["name"]]
        assert got["q1"] == got["median"] == got["q3"] == got["values"][0]
    assert this["ok_frac"]["median"] == 1.0


def test_times_the_reproduction_on_one_and_two_workers(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--number", "0", "--workload", "overload-deep",
         "--runs", "1", "--seconds", "0", "--reproduce", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    reproduce = json.loads((tmp_path / "BENCH_0.json").read_text())["reproduce"]
    assert set(reproduce) == {"seeds", "unit", "workers_1", "workers_2"}
    assert reproduce["seeds"] == "1"
    for workers in ("workers_1", "workers_2"):
        assert set(reproduce[workers]) == {"this"}
        got = reproduce[workers]["this"]
        assert len(got["values"]) == 1
        assert got["q1"] == got["median"] == got["q3"] == got["values"][0] > 0


def test_records_each_layers_share_and_calls_from_one_traced_run(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--number", "0", "--workload", "overload-deep",
         "--runs", "1", "--seconds", "0", "--seed", "3",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads((tmp_path / "BENCH_0.json").read_text())["layers"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"] if m["name"].endswith((".share", ".calls"))}
    assert layers["seed"] == 3
    assert set(layers) == {"seed", "overload-deep"}
    this = layers["overload-deep"]["this"]
    assert set(this) == wanted | {"failed"}
    assert this["failed"] == 0
    shares = [v for name, v in this.items() if name.endswith(".share")]
    assert all(0.0 <= v <= 1.0 for v in shares)
    assert sum(shares) == pytest.approx(1.0)
    assert this["sim.calls"] > 0 and this["delay.calls"] > 0


def test_layer_runs_take_turns_going_first(monkeypatch):
    module = _load_script()
    calls = []

    def fake(tree, workload, seed, seconds, trace=0):
        calls.append((tree.name, workload, seed, seconds, trace))
        return {"result": {"failed": 0, "metrics": {
            "sim.share": {"value": 1.0}, "sim.calls": {"value": 7.0},
            "sim.self_s": {"value": 0.5}}}}

    monkeypatch.setattr(module, "run_once", fake)
    got = module.record_layers({"a": Path("a"), "b": Path("b")}, ["w1", "w2"], 5)
    # one traced pass each, so both checkouts count the same seed's work
    assert calls == [("a", "w1", 5, 0.0, 1), ("b", "w1", 5, 0.0, 1),
                     ("b", "w2", 5, 0.0, 1), ("a", "w2", 5, 0.0, 1)]
    assert got == {"seed": 5, **{w: {label: {"failed": 0, "sim.share": 1.0, "sim.calls": 7.0}
                                     for label in ("a", "b")} for w in ("w1", "w2")}}
    assert list(got["w2"]) == ["a", "b"]


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


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_the_commit_and_whether_src_is_it(tmp_path):
    tree_commit = _load_script().tree_commit
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(git + ["init", "-q"], check=True)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True,
                          text=True).stdout.strip()
    assert tree_commit(tmp_path) == {"commit": head, "src_matches_commit": True}
    (tmp_path / "notes.txt").write_text("outside src\n")
    assert tree_commit(tmp_path)["src_matches_commit"] is True
    (tmp_path / "src" / "b.py").write_text("y = 2\n")
    assert tree_commit(tmp_path) == {"commit": head, "src_matches_commit": False}
    (tmp_path / "src" / "b.py").unlink()
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    assert tree_commit(tmp_path) == {"commit": head, "src_matches_commit": False}


def test_reproduce_rounds_alternate_and_count_the_wins(monkeypatch):
    module = _load_script()
    seconds = {("a", 1): 20.0, ("a", 2): 11.0, ("b", 1): 19.0, ("b", 2): 12.0}
    calls = []

    def fake(tree, workers, seeds):
        calls.append((tree.name, workers, seeds))
        return seconds[(tree.name, workers)]

    monkeypatch.setattr(module, "time_reproduce", fake)
    got = module.record_reproduce({"a": Path("a"), "b": Path("b")}, 2, "1,2")
    assert calls == [("a", 1, "1,2"), ("a", 2, "1,2"), ("b", 1, "1,2"), ("b", 2, "1,2"),
                     ("b", 1, "1,2"), ("b", 2, "1,2"), ("a", 1, "1,2"), ("a", 2, "1,2")]
    assert got["workers_1"]["a"]["values"] == [20.0, 20.0]
    assert got["workers_1"]["b_wins_of_2"] == 2
    assert got["workers_2"]["b_wins_of_2"] == 0


def test_a_tree_that_is_not_a_checkout_matches_no_commit(tmp_path):
    (tmp_path / "src").mkdir()
    assert _load_script().tree_commit(tmp_path) == {
        "commit": "unknown (not a git checkout)", "src_matches_commit": False}
