#!/usr/bin/env python3
"""Reproduce the evaluation protocol at desk scale.

Runs three experiment families and leaves their CSVs under results/:

  results/comparison_stable/    proposed vs RR vs EDF, 25-35 Mbps, 5 seeds
  results/comparison_unstable/  same grid with exponential access-link jitter
  results/ablation_stable/      proposed vs no-order vs single-timescale variants
  results/ablation_unstable/
  results/baselines_no_drop/    RR/EDF without proactive dropping at 25 Mbps
                                (deadline-miss comparison; see README)

Total: 160 simulations, a few minutes single-threaded. Set VRSCHED_WORKERS
or pass --workers to parallelize.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vrsched.cli import (ABLATION_POLICIES, COMPARISON_POLICIES, parse_list, sweep_grids,
                         worker_count, write_sweep)
from vrsched.config import ConfigError, SimConfig, apply_overrides


def families() -> list[tuple[str, SimConfig, list[float], list[str]]]:
    """(directory, config, bandwidths, policies) of each experiment family."""
    out = []
    for regime in ("stable", "unstable"):
        cfg = apply_overrides(SimConfig(), [f"regime={regime}"])
        out.append((f"comparison_{regime}", cfg, [25.0, 30.0, 35.0], list(COMPARISON_POLICIES)))
        out.append((f"ablation_{regime}", cfg, [25.0], list(ABLATION_POLICIES)))
    # deadline-miss comparison: baselines as deployed schedulers that cannot
    # parse frame metadata, so expired frames are forwarded, not discarded
    out.append(("baselines_no_drop", apply_overrides(SimConfig(), ["proactive_drop=false"]),
                [25.0], ["rr", "edf"]))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--workers", type=int, help="default: VRSCHED_WORKERS, else 1")
    args = parser.parse_args()
    try:
        seeds = parse_list("seeds", args.seeds, int)
        workers = worker_count(args.workers)
    except ConfigError as exc:
        parser.error(str(exc))
    out = Path(args.out)
    t0 = time.perf_counter()

    # one run over every family, seed by seed, builds each trace once
    fams = families()
    results = sweep_grids([grid for _, *grid in fams], seeds, workers)
    code = max(write_sweep(out / name, rows) for (name, *_), rows in zip(fams, results))

    print(f"done in {time.perf_counter() - t0:.0f}s -> {out}/")
    if code:
        raise SystemExit(code)


if __name__ == "__main__":
    main()
