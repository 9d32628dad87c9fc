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

from .allocation import rate_for_target_delay
from .frame_queue import QueuedFrame, split_sets


class FlowStInput(NamedTuple):
    """Per-flow view handed to the short-timescale scheduler at a tick."""

    frames: Sequence[QueuedFrame]          # queue snapshot in service order
    base_rate_bps: float                   # long-timescale allocation
    target_delay_s: Optional[float]
    s_ave_bytes: Optional[float]
    mu_a: Optional[float]
    c_a: Optional[float]
    c_s: Optional[float]
    v_now_ms: Optional[float]
    v_prev_ms: Optional[float]


@dataclass
class StDecision:
    """Per-flow short-timescale increments for one tick."""

    rate_bps: dict[int, float]
    worsened: list[int] = field(default_factory=list)   # network state increased
    steady: list[int] = field(default_factory=list)
    phase1_bps: dict[int, float] = field(default_factory=dict)
    last_gain: dict[int, float] = field(default_factory=dict)

    def total(self) -> float:
        return sum(self.rate_bps.values())


def classify(
    v_now: Mapping[int, Optional[float]],
    v_prev: Mapping[int, Optional[float]],
) -> tuple[list[int], list[int]]:
    """Split flows on strict network-state increase; unknown states stay steady."""
    worsened: list[int] = []
    steady: list[int] = []
    for flow in v_now:
        now, prev = v_now[flow], v_prev.get(flow)
        if now is not None and prev is not None and now > prev:
            worsened.append(flow)
        else:
            steady.append(flow)
    return worsened, steady


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


def utility(b_bps: float, base_bps: float, frames: Sequence[QueuedFrame]) -> float:
    """Importance forwarded per unit of allocated rate."""
    gain = sum(f.gamma for f in frames)
    if gain == 0.0:
        return 0.0
    total = b_bps + base_bps
    if total <= 0.0:
        raise ValueError("utility undefined for zero allocated rate")
    return gain / total


def _affordable(
    frames: Sequence[QueuedFrame], rate_bps: float, sti_s: float, now_us: int
) -> tuple[list[QueuedFrame], Optional[QueuedFrame]]:
    """Forwardable prefix at ``rate_bps`` over one tick, plus the first frame
    beyond it."""
    budget = rate_bps * sti_s / 8.0
    fwd, _, retained = split_sets(frames, budget, now_us)
    return fwd, (retained[0] if retained else None)


def schedule_st(
    inputs: Mapping[int, FlowStInput],
    link_bps: float,
    sti_s: float,
    now_us: int,
    d_min_s: float = 1e-3,
) -> StDecision:
    """Distribute the short-timescale surplus across flows for one tick.

    Phase 1 walks worsened flows in ascending id and assigns each its
    compensation, capped by the remaining surplus. Phase 2 repeatedly finds
    each flow's first unaffordable frame, prices it at the rate needed to
    push it through this tick, and grants that rate to the flow with the
    largest utility gain; grants that would overshoot the surplus exclude
    the flow for that round. The loop stops when the surplus is exhausted,
    nothing is pending, or the best gain is not positive.
    """
    decision = StDecision(rate_bps={f: 0.0 for f in inputs})
    decision.worsened, decision.steady = classify(
        {f: i.v_now_ms for f, i in inputs.items()},
        {f: i.v_prev_ms for f, i in inputs.items()},
    )
    surplus = link_bps - sum(inp.base_rate_bps for inp in inputs.values())
    if surplus <= 0.0:
        return decision

    for flow in sorted(decision.worsened):
        inp = inputs[flow]
        if (
            inp.target_delay_s is None
            or inp.s_ave_bytes is None
            or inp.mu_a is None
            or inp.v_now_ms is None
            or inp.v_prev_ms is None
        ):
            continue
        dv_s = (inp.v_now_ms - inp.v_prev_ms) / 1000.0
        comp = compensate(
            inp.target_delay_s, dv_s, inp.mu_a, inp.c_a, inp.c_s,
            inp.s_ave_bytes, d_min_s,
        )
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
            inp = inputs[flow]
            allocated = decision.rate_bps[flow]
            fwd, pending = _affordable(
                inp.frames, inp.base_rate_bps + allocated, sti_s, now_us
            )
            if pending is None:
                continue
            delta = 8.0 * pending.remaining / sti_s
            if delta > surplus:
                continue
            u_now = utility(allocated, inp.base_rate_bps, fwd)
            fwd_next, _ = _affordable(
                inp.frames, inp.base_rate_bps + allocated + delta, sti_s, now_us
            )
            u_next = utility(allocated + delta, inp.base_rate_bps, fwd_next)
            gain = u_next - u_now
            decision.last_gain[flow] = gain
            if best_flow is None or gain > best_gain:
                best_flow, best_gain, best_delta = flow, gain, delta
        if best_flow is None or best_gain <= 0.0:
            break
        decision.rate_bps[best_flow] += best_delta
        surplus -= best_delta
    return decision
