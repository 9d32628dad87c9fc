"""Short-timescale scheduling.

Every short interval the leftover link capacity (link rate minus the summed
long-timescale bases) is distributed in two phases: flows whose network
state worsened since the previous short interval are compensated first with
the extra rate their tightened target delay demands; whatever remains goes
frame by frame to the flow with the highest utility gain per granted rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence

from .allocation import ArrivalServiceStats, LtDecision, rate_for_target_delay
from .frame_queue import QueuedFrame, forward_prefix


class FlowStInput(NamedTuple):
    """Per-flow view handed to the short-timescale scheduler at a tick."""

    frames: Sequence[QueuedFrame]   # queue snapshot in service order
    stats: ArrivalServiceStats      # read only when the network state worsened
    v_now_ms: Optional[float]
    v_prev_ms: Optional[float]


@dataclass
class StDecision:
    """Per-flow short-timescale increments for one tick."""

    rate_bps: dict[int, float]
    phase1_bps: dict[int, float] = field(default_factory=dict)
    last_gain: dict[int, float] = field(default_factory=dict)

    def total(self) -> float:
        return sum(self.rate_bps.values())


def classify(inputs: Mapping[int, FlowStInput]) -> list[int]:
    """Ids of the flows whose network state strictly rose, ascending.

    A flow whose current or previous state is unknown never counts.
    """
    return sorted(
        flow for flow, inp in inputs.items()
        if inp.v_now_ms is not None and inp.v_prev_ms is not None
        and inp.v_now_ms > inp.v_prev_ms
    )


def compensate(
    target_delay_s: float,
    dv_s: float,
    mu_a: float,
    c_a: float,
    c_s: float,
    s_ave_bytes: float,
    d_min_s: float = 1e-3,
) -> float:
    """Extra rate restoring the target delay after the net state rose by ``dv_s``.

    The tightened target is floored at ``d_min_s``, which caps the
    compensation at its maximum meaningful value.
    """
    tightened = max(target_delay_s - dv_s, d_min_s)
    base = rate_for_target_delay(target_delay_s, mu_a, c_a, c_s, s_ave_bytes)
    revised = rate_for_target_delay(tightened, mu_a, c_a, c_s, s_ave_bytes)
    return max(0.0, revised - base)


def utility(b_bps: float, base_bps: float, gain: float) -> float:
    """Importance ``gain`` forwarded per unit of allocated rate."""
    if gain == 0.0:
        return 0.0
    total = b_bps + base_bps
    if total <= 0.0:
        raise ValueError("utility undefined for zero allocated rate")
    return gain / total


def schedule_st(
    inputs: Mapping[int, FlowStInput],
    lt: LtDecision,
    link_bps: float,
    sti_s: float,
    now_us: int,
    d_min_s: float = 1e-3,
) -> StDecision:
    """Distribute the short-timescale surplus across flows for one tick.

    Base rates, target delays and mean frame sizes come from ``lt``, the
    long-timescale decision in force. Phase 1 walks worsened flows in
    ascending id and assigns each its compensation, capped by the
    remaining surplus; a flow without a target delay or measurable
    arrival statistics is skipped. Phase 2 repeatedly finds each flow's
    first unaffordable frame, prices it at the rate needed to push it
    through this tick, and grants that rate to the flow with the largest
    utility gain; grants that would overshoot the surplus exclude the flow
    for that round. The loop stops when the surplus is exhausted, nothing
    is pending, or the best gain is not positive.
    """
    decision = StDecision(rate_bps={f: 0.0 for f in inputs})
    base_bps = lt.rate_bps
    surplus = link_bps - sum(base_bps[f] for f in inputs)
    if surplus <= 0.0:
        return decision

    for flow in classify(inputs):
        inp = inputs[flow]
        stats = inp.stats
        d_s, s_ave = lt.target_delay_s[flow], lt.s_ave_bytes[flow]
        if d_s is None or s_ave is None or not stats.ready:
            continue
        dv_s = (inp.v_now_ms - inp.v_prev_ms) / 1000.0
        comp = compensate(d_s, dv_s, stats.mu_a, stats.c_a, stats.c_s, s_ave, d_min_s)
        grant = min(comp, surplus)
        decision.rate_bps[flow] = grant
        decision.phase1_bps[flow] = grant
        surplus -= grant
        if surplus <= 0.0:
            return decision

    while surplus > 0.0:
        best_flow: Optional[int] = None
        best_gain = 0.0
        best_delta = 0.0
        for flow in sorted(inputs):
            frames, base = inputs[flow].frames, base_bps[flow]
            allocated = decision.rate_bps[flow]
            fwd_gain, pending = forward_prefix(frames, (base + allocated) * sti_s / 8.0, now_us)
            if pending is None:
                continue
            delta = 8.0 * pending.remaining / sti_s
            if delta > surplus:
                continue
            u_now = utility(allocated, base, fwd_gain)
            next_gain, _ = forward_prefix(
                frames, (base + allocated + delta) * sti_s / 8.0, now_us
            )
            gain = utility(allocated + delta, base, next_gain) - u_now
            decision.last_gain[flow] = gain
            if best_flow is None or gain > best_gain:
                best_flow, best_gain, best_delta = flow, gain, delta
        if best_flow is None or best_gain <= 0.0:
            break
        decision.rate_bps[best_flow] += best_delta
        surplus -= best_delta
    return decision
