#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics in a committed BENCH_<n>.json.

Runs ``perfbench/run.py`` untraced on each workload, ``--runs`` times per
checkout, and writes the host fingerprint, each checkout's commit, whether
its ``src/`` is that commit's, its source hash, the Python version, and
each end-to-end metric's values, median and quartiles. Given two
checkouts, the runs go in pairs on one seed each, alternating which
checkout runs first, and the file counts the pairs the second checkout
wins on each metric, in the direction BENCHMARK.json names. With
``--reproduce`` it also times ``scripts/reproduce_results.py`` on 1 and 2
workers in each checkout, in the same alternating pairs, on seeds 1-5 (seed
1 with ``--seconds 0``). It also runs ``perfbench/run.py --trace 1
--seconds 0`` once per checkout and workload, on the first seed, and
records each layer's share of the traced self time and its call count.
Example, the parent commit against the one checked out:

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python scripts/bench_record.py --number 13 --tree parent=../parent \\
        --tree change=. --runs 10 --reproduce
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark invocation in ``tree``: its host line and result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: perfbench/run.py --workload {workload} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    host = json.loads(next(ln for ln in lines if ln.startswith("host "))[5:])
    return {"host": host, "result": json.loads(lines[-1])}


def time_reproduce(tree: Path, workers: int, seeds: str) -> float:
    """Host seconds of one ``scripts/reproduce_results.py`` run in ``tree``.

    Its results go to a temporary directory, removed afterwards.
    """
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "scripts/reproduce_results.py", "--seeds", seeds,
             "--workers", str(workers), "--out", out],
            cwd=tree, capture_output=True, text=True, check=False,
        )
        elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: scripts/reproduce_results.py --workers {workers} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return elapsed


def tree_commit(tree: Path) -> dict:
    """The commit checked out in ``tree``, and whether its ``src/`` is that commit's.

    ``src_matches_commit`` is false when ``git status`` lists any change
    under ``src/``, tracked or not, and when ``tree`` is not the top of a
    git checkout.
    """
    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", "-C", str(tree), *args],
                                  capture_output=True, text=True, check=False)
        except OSError:   # no git on this host
            return None
        return proc.stdout if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top.strip()).resolve() != tree.resolve():
        return {"commit": "unknown (not a git checkout)", "src_matches_commit": False}
    status = git("status", "--porcelain", "--", "src")
    return {"commit": git("rev-parse", "HEAD").strip(),
            "src_matches_commit": status is not None and not status.strip()}


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def record_reproduce(trees: dict[str, Path], runs: int, seeds: str) -> dict:
    """Host seconds of ``scripts/reproduce_results.py`` on 1 and 2 workers, per checkout.

    Each of the ``runs`` rounds runs every checkout on both worker counts,
    alternating which checkout goes first. Given two checkouts, the second's
    wins count the rounds in which it took less time.
    """
    labels = list(trees)
    values: dict[int, dict[str, list[float]]] = {w: {label: [] for label in labels}
                                                 for w in (1, 2)}
    for j in range(runs):
        for label in labels if j % 2 == 0 else labels[::-1]:
            for workers, by_label in values.items():
                by_label[label].append(time_reproduce(trees[label], workers, seeds))
    out: dict = {"seeds": seeds, "unit": "s"}
    for workers, by_label in values.items():
        entry = {label: summarize(v) for label, v in by_label.items()}
        if len(labels) == 2:
            base, new = by_label.values()
            entry[f"{labels[1]}_wins_of_{runs}"] = sum(b < a for a, b in zip(base, new))
        out[f"workers_{workers}"] = entry
    return out


def record_layers(trees: dict[str, Path], workloads: list[str], seed: int) -> dict:
    """Each layer's ``*.share`` and ``*.calls``, per workload and checkout.

    One ``--trace 1 --seconds 0`` invocation per checkout and workload, on
    ``seed``; the checkouts take turns going first from one workload to the
    next. With ``--seconds 0`` each invocation traces one pass, on the first
    panel seed, so both checkouts count the work of the same pass; a
    longer run would take each count's median over however many panel
    seeds fit, more of them in the faster checkout. That traced pass
    follows an untraced pass on the same seed and finds its traces cached,
    so the ``traffic.*`` figures count cache lookups only.
    """
    labels = list(trees)
    out: dict = {"seed": seed}
    for i, workload in enumerate(workloads):
        entry = {}
        for label in labels if i % 2 == 0 else labels[::-1]:
            result = run_once(trees[label], workload, seed, 0.0, trace=1)["result"]
            entry[label] = {"failed": result["failed"],
                            **{name: m["value"] for name, m in result["metrics"].items()
                               if name.endswith((".share", ".calls"))}}
        out[workload] = {label: entry[label] for label in labels}
    return out


def record(spec: dict, trees: dict[str, Path], workloads: list[str], runs: int,
           seconds: float, seed: int, reproduce: bool = False) -> dict:
    """The BENCH file's content; ``spec`` is BENCHMARK.json."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    labels = list(trees)
    settings = {"runs": runs, "seconds": seconds, "seeds": [seed + j for j in range(runs)]}
    out: dict = {"host": None, "python": platform.python_version(), "settings": settings,
                 "trees": {label: tree_commit(tree) for label, tree in trees.items()},
                 "workloads": {}}
    for workload in workloads:
        values: dict[str, dict[str, list[float]]] = {label: {} for label in labels}
        failed = {label: 0 for label in labels}
        for j in range(runs):
            order = labels if j % 2 == 0 else labels[::-1]
            for label in order:
                got = run_once(trees[label], workload, seed + j, seconds)
                host = got["host"]
                if out["host"] is None:
                    out["host"] = {k: host[k] for k in ("cpu", "nproc", "python", "numpy")}
                out["trees"][label]["src_sha256"] = host["vrsched_src_sha256"]
                failed[label] += got["result"]["failed"]
                for name, metric in got["result"]["metrics"].items():
                    values[label].setdefault(name, []).append(metric["value"])
        entry: dict = {label: {"failed": failed[label],
                               **{name: summarize(v) for name, v in values[label].items()}}
                       for label in labels}
        if len(labels) == 2:
            base, new = (values[label] for label in labels)
            wins = {}
            for name in sorted(set(base) & set(new)):
                sign = 1 if better.get(name) == "higher" else -1
                wins[name] = sum(sign * (b - a) > 0 for a, b in zip(base[name], new[name]))
            entry[f"{labels[1]}_wins_of_{runs}"] = wins
        out["workloads"][workload] = entry
    if reproduce:
        out["reproduce"] = record_reproduce(trees, runs, "1" if seconds == 0 else "1,2,3,4,5")
    out["layers"] = record_layers(trees, workloads, seed)
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=DIR",
                        help="a checkout to measure; one or two (default: this one)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="the benchmark's run length, or 0 for one pass of each "
                             "workload (a smoke run)")
    parser.add_argument("--seed", type=int, default=1, help="run j uses seed + j")
    parser.add_argument("--reproduce", action="store_true",
                        help="also time scripts/reproduce_results.py on 1 and 2 workers, "
                             "--runs times per checkout, on seeds 1-5 (1 with --seconds 0)")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    trees = {}
    for item in args.tree or [f"this={ROOT}"]:
        label, sep, path = item.partition("=")
        if not sep or not label or label in trees or not (Path(path) / "perfbench").is_dir():
            parser.error(f"--tree {item!r}: want a new LABEL=DIR, DIR a checkout")
        trees[label] = Path(path).resolve()
    if len(trees) > 2:
        parser.error("--tree: at most two checkouts")
    if args.runs < 1 or args.seed < 0:
        parser.error("--runs must be at least 1 and --seed nonnegative")
    if args.seconds not in (0, spec["run_seconds"]):
        parser.error(f"--seconds: BENCHMARK.json sets the run length, {spec['run_seconds']}; "
                     "0 makes a smoke run")
    out = record(spec, trees, args.workload or names, args.runs, args.seconds, args.seed,
                 args.reproduce)
    path = args.out_dir / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
