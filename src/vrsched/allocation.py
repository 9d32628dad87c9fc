"""Long-timescale allocation.

Once per long interval, each flow's bandwidth is sized from queuing theory:
pick the largest target queuing delay whose implied importance loss stays
within the per-flow budget, then invert the G/G/1 mean-wait approximation
to the minimum service rate achieving that delay. Demands beyond the link
rate are scaled back proportionally.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .delay import EwmaStat


@dataclass
class ArrivalServiceStats:
    """EWMA moments of a flow's arrival and service processes.

    Inter-arrival and service times are in seconds. Frame size tracks the
    arriving stream's mean in bytes; the rate inversion needs the stream
    mean, not the mean of whatever happens to be backlogged, or flows whose
    large frames are being served promptly get sized from their starved
    leftovers.
    """

    alpha: float = 0.125
    inter_arrival: EwmaStat = field(init=False)
    service: EwmaStat = field(init=False)
    frame_size: EwmaStat = field(init=False)

    def __post_init__(self) -> None:
        self.inter_arrival = EwmaStat(alpha=self.alpha)
        self.service = EwmaStat(alpha=self.alpha)
        self.frame_size = EwmaStat(alpha=self.alpha)

    @property
    def ready(self) -> bool:
        return (
            self.inter_arrival.initialized
            and self.service.initialized
            and self.frame_size.initialized
            and self.inter_arrival.mean > 0
            and self.service.mean > 0
        )

    @property
    def s_ave(self) -> float:
        return self.frame_size.mean

    @property
    def mu_a(self) -> float:
        return self.inter_arrival.mean

    @property
    def c_a(self) -> float:
        return self.inter_arrival.std / self.inter_arrival.mean

    @property
    def c_s(self) -> float:
        return self.service.std / self.service.mean


def kingman_delay(rho: float, c_a: float, c_s: float, mu_s: float) -> float:
    """G/G/1 mean queuing delay approximation (seconds)."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"utilization {rho} outside (0, 1)")
    if mu_s <= 0.0:
        raise ValueError(f"mean service time must be positive, got {mu_s}")
    return rho / (1.0 - rho) * (c_a * c_a + c_s * c_s) / 2.0 * mu_s


def rate_for_target_delay(
    d_s: float,
    mu_a: float,
    c_a: float,
    c_s: float,
    s_ave_bytes: float,
    cap_bps: Optional[float] = None,
) -> float:
    """Minimum service rate (bits/s) whose mean queuing delay equals ``d_s``.

    Closed-form inversion of :func:`kingman_delay` with the measured arrival
    process held fixed. Nonincreasing in ``d_s`` (adjacent float delays may
    share a float rate); tends to the arrival byte rate ``s_ave / mu_a`` as
    the target delay grows. Near rho = 1 the model delay at the returned
    rate is ill-conditioned: rounding alone moves it by a few
    ``eps / (1 - rho)`` relative.
    """
    if d_s <= 0.0:
        raise ValueError(f"target delay must be positive, got {d_s}")
    if mu_a <= 0.0:
        raise ValueError(f"mean inter-arrival must be positive, got {mu_a}")
    cc = c_a * c_a + c_s * c_s
    rate = 8.0 * s_ave_bytes * (math.sqrt(1.0 + 2.0 * mu_a * cc / d_s) + 1.0) / (2.0 * mu_a)
    if cap_bps is not None:
        rate = min(rate, cap_bps)
    return rate


def max_target_delay(
    frames: Sequence[tuple[float, float]],
    epsilon: float,
    d_min_s: float = 1e-3,
) -> tuple[float, bool]:
    """Largest target delay keeping dropped importance within ``epsilon``.

    ``frames`` holds (importance, bound_s) pairs for the departing set. A
    frame is counted dropped at target delay d when its bound does not
    exceed d. Candidates are the distinct bound values; the dropped
    fraction is nondecreasing along them, so a bisection over the sorted
    prefix importance sums finds the answer. Returns ``(delay, infeasible)``
    where infeasible flags that even the smallest candidate violates
    ``epsilon``; the delay is floored at ``d_min_s`` either way.
    """
    if not frames:
        raise ValueError("departing set is empty")
    by_bound = sorted(frames, key=lambda gf: gf[1])
    total = sum(g for g, _ in frames)

    bounds: list[float] = []
    cum: list[float] = []
    run = 0.0
    for g, b in by_bound:
        run += g
        if bounds and b == bounds[-1]:
            cum[-1] = run
        else:
            bounds.append(b)
            cum.append(run)

    if total <= 0.0:
        return max(bounds[-1], d_min_s), False

    budget = epsilon * total
    # every importance is >= 0, so cum is nondecreasing: bisect_right finds
    # the last candidate with cum <= budget
    idx = bisect.bisect_right(cum, budget) - 1
    if idx < 0:
        return d_min_s, True
    return max(bounds[idx], d_min_s), False


@dataclass(frozen=True)
class FlowLtInput:
    """Per-flow view handed to the allocator at a long-interval boundary."""

    frames: Sequence[tuple[float, float]]   # (importance, bound_s) of departing set
    stats: ArrivalServiceStats


@dataclass
class LtDecision:
    """Per-flow base allocation for one long interval."""

    rate_bps: dict[int, float]
    target_delay_s: dict[int, Optional[float]]
    s_ave_bytes: dict[int, Optional[float]]
    scaled: bool = False
    infeasible: set[int] = field(default_factory=set)

    def total(self) -> float:
        return sum(self.rate_bps.values())


def allocate_lt(
    inputs: Mapping[int, FlowLtInput],
    prev: LtDecision,
    link_bps: float,
    epsilon: float,
    d_min_s: float = 1e-3,
) -> LtDecision:
    """Run the three-step long-timescale allocation across all flows.

    Flows whose departing set is empty or whose arrival statistics are not
    yet measurable carry their decision in ``prev`` forward. A backlogged
    flow with a measured arrival process but no service sample yet gets
    its arrival byte rate instead (the limit of the rate inversion as the
    target delay grows), capped at the link rate: a carried rate shrinks
    at every scaled interval, and a flow starved before its first
    departure would never measure one. If the summed
    demands exceed the link rate, all rates are scaled down proportionally
    (with a tiny margin so the total never lands above the link rate in
    floating point).
    """
    decision = LtDecision(rate_bps={}, target_delay_s={}, s_ave_bytes={})
    for flow, inp in inputs.items():
        stats = inp.stats
        if not inp.frames or not stats.ready:
            arriving = (
                inp.frames
                and stats.inter_arrival.initialized
                and stats.frame_size.initialized
                and stats.mu_a > 0
            )
            decision.rate_bps[flow] = (
                min(8.0 * stats.s_ave / stats.mu_a, link_bps) if arriving
                else prev.rate_bps[flow]
            )
            decision.target_delay_s[flow] = prev.target_delay_s[flow]
            decision.s_ave_bytes[flow] = prev.s_ave_bytes[flow]
            continue
        d, infeasible = max_target_delay(inp.frames, epsilon, d_min_s)
        if infeasible:
            decision.infeasible.add(flow)
        decision.rate_bps[flow] = rate_for_target_delay(
            d, stats.mu_a, stats.c_a, stats.c_s, stats.s_ave, cap_bps=link_bps
        )
        decision.target_delay_s[flow] = d
        decision.s_ave_bytes[flow] = stats.s_ave

    total = decision.total()
    if total > link_bps and total > 0.0:
        factor = link_bps / total * (1.0 - 1e-12)
        for flow in decision.rate_bps:
            decision.rate_bps[flow] *= factor
        decision.scaled = True
    return decision
