"""The benchmark's workloads: whole simulations, as ``SimConfig`` lists.

A pass of a workload runs each of its configs once through
``vrsched.sim.run``. Every config differs from the defaults only in the
fields named here; all use the default 30 fps and 4x6 tile grid.

The quality of a schedule varies from seed to seed far more than the
host time does, so a run does not repeat one seed: pass ``j`` uses seed
``panel[j % len(panel)]``, where the panel is drawn from the run's
``--seed``. The panel size is fixed per workload, so the quality figures
are a deterministic function of ``--seed``; passes beyond the panel
repeat it, which is what the digest check compares.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

# Pinned here rather than read from vrsched, so that adding a policy to the
# program does not silently change what paper-mix measures.
ALL_POLICIES = (
    "proposed", "rr", "edf", "no-order",
    "single-ts-1000", "single-ts-500", "single-ts-50",
)

# Allowance, beyond the last deadline, for the path delays, the last
# feedback and the final long-interval tick. Fixed, not fitted to runs.
DRAIN_S = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict
    policies: tuple[str, ...]
    panel: int   # distinct seeds per run

    def configs(self, seed: int, tiny: bool = False) -> list:
        """The pass's configs on one seed; ``tiny`` shrinks them for self-checks."""
        from vrsched.config import SimConfig  # run.py puts src/ on the path first

        fields = dict(self.overrides)
        if tiny:
            fields.update(n_flows=min(4, fields.get("n_flows", 10)), video_s=2.0)
        base = SimConfig(seed=seed, **fields)
        return [dataclasses.replace(base, policy=p) for p in self.policies]

    def panel_seeds(self, seed: int) -> list[int]:
        return [int(s) for s in np.random.SeedSequence(seed).generate_state(self.panel)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-mix",
            "the paper's evaluation point, all 7 policies on one seed: what users run, "
            "and the only workload that regenerates the same traces (7 times)",
            {},
            ALL_POLICIES,
            panel=4,
        ),
        Workload(
            "underload-jitter",
            "40 flows at about 94% load with jitter: shallow queues, a short-timescale "
            "surplus, the forwarder's largest share and queue ordering's smallest",
            {"n_flows": 40, "video_s": 20.0, "bottleneck_mbps": 140.0, "regime": "unstable"},
            ("proposed",),
            panel=12,
        ),
        Workload(
            "overload-deep",
            "40 flows at about 2.2x overload: deep queues, so queue re-sorting, expiry "
            "sweeps and bound revision dominate",
            {"n_flows": 40, "video_s": 10.0, "bottleneck_mbps": 60.0},
            ("proposed",),
            panel=16,
        ),
    )
}


def termination_bound(cfg) -> int:
    """Most long intervals a run of ``cfg`` may report.

    The last frame is sent by the end of the video plus the request lead;
    it leaves the queue by its deadline, at most the request lead again;
    the drain covers the paths and the last tick.
    """
    lead_s = cfg.request_lead_chunks * cfg.chunk_s
    return math.ceil((cfg.video_s + 2 * lead_s + DRAIN_S) / cfg.delta_s)
