"""Experiment runner.

Subcommands:

* ``run``        one simulation; writes metrics.csv and summary.csv
* ``sweep``      a (bandwidth x policy x seed) grid with an aggregate table
* ``gen-trace``  write a synthetic flow trace file

Sweep cells can run in parallel; set ``--workers`` or the VRSCHED_WORKERS
environment variable. Aggregation is a deterministic reduce over the sorted
cell results regardless of worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional

from .baselines import POLICY_TAGS
from .config import ConfigError, SimConfig, apply_overrides, load_config
from .metrics import csv_text, write_text
from .sim import run as run_sim
from .traffic import generate_trace
from .video import write_trace

SWEEP_HEADER = (
    "bottleneck_mbps,policy,seed,total_quality_loss,per_flow_loss_std,"
    "avg_drop_rate,bneck_drop_rate,frames_dropped,frames_late,frames_fwd"
)
AGGREGATE_HEADER = (
    "bottleneck_mbps,policy,n_seeds,mean_total_quality_loss,std_total_quality_loss,"
    "mean_per_flow_loss_std,mean_avg_drop_rate,std_avg_drop_rate,mean_bneck_drop_rate"
)

ABLATION_POLICIES = (
    "proposed",
    "no-order",
    "single-ts-1000",
    "single-ts-500",
    "single-ts-50",
)
COMPARISON_POLICIES = ("proposed", "rr", "edf")


def _load(args) -> SimConfig:
    cfg = load_config(args.config) if args.config else SimConfig()
    if args.override:
        cfg = apply_overrides(cfg, args.override)
    return cfg


def cmd_run(args) -> int:
    cfg = _load(args)
    if args.policy:
        cfg = dataclasses.replace(cfg, policy=args.policy)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    cfg.validate()
    result = run_sim(cfg, check_invariants=args.check_invariants,
                     log_events=args.log_events)
    out = Path(args.out)
    result.write(out, decisions=args.log_decisions, events=args.log_events)
    s = result.summary
    print(
        f"policy={s['policy']} seed={s['seed']} B={s['bottleneck_mbps']}Mbps "
        f"epsilon={s['epsilon']} loss={s['total_quality_loss']:.4f} "
        f"drop_rate={s['avg_drop_rate']:.4f} intervals={s['intervals']}"
    )
    if result.budget_violations:
        print(f"WARNING: {result.budget_violations} budget violations", file=sys.stderr)
        return 1
    return 0


def _run_cell(cfg: SimConfig) -> dict:
    result = run_sim(cfg)
    summary = result.summary
    summary["budget_violations"] = result.budget_violations
    return summary


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(var)


def sweep_grids(grids: list[tuple[SimConfig, list[float], list[str]]],
                seeds: list[int], workers: int = 1) -> list[list[dict]]:
    """Run (config, bandwidths, policies) grids over the same seeds.

    Cells run seed by seed across every grid, so each seed's traces are
    built once and shared by its cells (see ``traffic.cached_trace``). Each
    grid's per-cell summaries come back by bandwidth, policy, seed.
    """
    cells = [(i, dataclasses.replace(cfg, bottleneck_mbps=b, policy=p, seed=s))
             for s in seeds for i, (cfg, bandwidths, policies) in enumerate(grids)
             for b in bandwidths for p in policies]
    for _, cell in cells:
        cell.validate()
    configs = [cell for _, cell in cells]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, configs))
    else:
        results = [_run_cell(c) for c in configs]
    return [sorted((r for (j, _), r in zip(cells, results) if j == i),
                   key=lambda r: (r["bottleneck_mbps"], r["policy"], r["seed"]))
            for i in range(len(grids))]


def sweep_grid(cfg: SimConfig, bandwidths: list[float], policies: list[str],
               seeds: list[int], workers: int = 1) -> list[dict]:
    """Run one grid; see ``sweep_grids``."""
    return sweep_grids([(cfg, bandwidths, policies)], seeds, workers)[0]


def aggregate(results: list[dict]) -> list[dict]:
    """Mean/std across seeds for each (bandwidth, policy) cell."""
    groups: dict[tuple, list[dict]] = {}
    for r in results:
        groups.setdefault((r["bottleneck_mbps"], r["policy"]), []).append(r)
    rows = []
    for (b, p), members in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        loss_mean, loss_std = _mean_std([m["total_quality_loss"] for m in members])
        drop_mean, drop_std = _mean_std([m["avg_drop_rate"] for m in members])
        flow_std_mean, _ = _mean_std([m["per_flow_loss_std"] for m in members])
        bneck_mean, _ = _mean_std([m["bneck_drop_rate"] for m in members])
        rows.append({
            "bottleneck_mbps": b,
            "policy": p,
            "n_seeds": len(members),
            "mean_total_quality_loss": loss_mean,
            "std_total_quality_loss": loss_std,
            "mean_per_flow_loss_std": flow_std_mean,
            "mean_avg_drop_rate": drop_mean,
            "std_avg_drop_rate": drop_std,
            "mean_bneck_drop_rate": bneck_mean,
        })
    return rows


def _parse(name: str, raw: str, convert):
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_list(name: str, raw: str, convert) -> list:
    """A comma-separated list; a bad item, a repeat or no item raises ConfigError naming ``name``.

    Items are compared after conversion, so ``10,10.0`` is a repeat.
    """
    values = [_parse(name, x, convert) for x in raw.split(",") if x]
    if not values:
        raise ConfigError(f"{name}: no values in {raw!r}")
    if len(set(values)) < len(values):
        raise ConfigError(f"{name}: repeated value in {raw!r}")
    return values


def worker_count(workers: Optional[int]) -> int:
    """The --workers value, else VRSCHED_WORKERS, else 1; below 1 raises ConfigError."""
    name = "workers"
    if workers is None:
        name = "VRSCHED_WORKERS"
        workers = _parse(name, os.environ.get(name, "1"), int)
    if workers < 1:
        raise ConfigError(f"{name}: {workers} workers; need at least 1")
    return workers


def cmd_sweep(args) -> int:
    cfg = _load(args)
    bandwidths = parse_list("bandwidths", args.bandwidths, float)
    seeds = parse_list("seeds", args.seeds, int)
    if args.preset == "ablation":
        policies = list(ABLATION_POLICIES)
    elif args.preset == "comparison":
        policies = list(COMPARISON_POLICIES)
    else:
        policies = parse_list("policies", args.policies, str)
    workers = worker_count(args.workers)

    return write_sweep(Path(args.out), sweep_grid(cfg, bandwidths, policies, seeds, workers))


def write_sweep(out: Path, results: list[dict]) -> int:
    """Write sweep.csv and aggregate.csv; exit code 1 on budget violations."""
    for name, header, records in (("sweep.csv", SWEEP_HEADER, results),
                                  ("aggregate.csv", AGGREGATE_HEADER, aggregate(results))):
        cols = header.split(",")
        write_text(out / name, csv_text(header, ([r[k] for k in cols] for r in records)))

    violations = sum(r.get("budget_violations", 0) for r in results)
    print(f"{len(results)} runs -> {out / 'sweep.csv'}")
    if violations:
        print(f"WARNING: {violations} budget violations", file=sys.stderr)
        return 1
    return 0


def cmd_gen_trace(args) -> int:
    cfg = _load(args)
    cfg.validate()
    if not 0 <= args.flow < cfg.n_flows:
        raise ConfigError(f"flow: {args.flow} is not one of the {cfg.n_flows} flows")
    params = cfg.trace_params(args.flow)
    trace = generate_trace(params, cfg.seed)
    write_trace(trace, args.out)
    print(f"{len(trace.frames)} frames -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrsched",
        description="Deadline-aware two-timescale bottleneck scheduling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults used if omitted)")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config field")

    p_run = sub.add_parser("run", help="run one simulation")
    common(p_run)
    p_run.add_argument("--policy", choices=POLICY_TAGS)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--log-decisions", action="store_true")
    p_run.add_argument("--log-events", action="store_true")
    p_run.add_argument("--check-invariants", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a bandwidth x policy x seed grid")
    common(p_sweep)
    p_sweep.add_argument("--bandwidths", default="25,30,35")
    p_sweep.add_argument("--policies", default="proposed,rr,edf")
    p_sweep.add_argument("--preset", choices=("comparison", "ablation"))
    p_sweep.add_argument("--seeds", default="1,2,3,4,5")
    p_sweep.add_argument("--workers", type=int)
    p_sweep.add_argument("--out", default="out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_gen = sub.add_parser("gen-trace", help="write a synthetic flow trace")
    common(p_gen)
    p_gen.add_argument("--flow", type=int, default=0)
    p_gen.add_argument("--out", default="trace.csv")
    p_gen.set_defaults(func=cmd_gen_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
