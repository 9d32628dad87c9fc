"""Comparison scheduling policies and ablation variants.

All variants share the bottleneck pipeline; a policy only changes which
pieces run. RR replaces the allocator with an equal split over active flows
but keeps the DWRR forwarder; EDF bypasses allocation and is a forwarder of
its own, serving one whole frame at a time by deadline slack; the ablations
disable weight ordering or collapse both timescales to a single period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

PROPOSED = "proposed"
RR = "rr"
EDF = "edf"
NO_ORDER = "no-order"
SINGLE_TS = "single-ts"

POLICY_TAGS = (
    "proposed",
    "rr",
    "edf",
    "no-order",
    "single-ts-1000",
    "single-ts-500",
    "single-ts-50",
)


@dataclass(frozen=True)
class SchedulerPolicy:
    """Variant selector plus its one parameter (the single-timescale period)."""

    kind: str
    interval_s: Optional[float] = None

    @property
    def uses_st(self) -> bool:
        """Whether the short-timescale phases (revision + Alg. grants) run."""
        return self.kind in (PROPOSED, NO_ORDER)

    @property
    def uses_weight_order(self) -> bool:
        return self.kind in (PROPOSED, SINGLE_TS)

    @property
    def tag(self) -> str:
        if self.kind == SINGLE_TS:
            return f"single-ts-{int(round(self.interval_s * 1000))}"
        return self.kind


def parse_policy(tag: str) -> SchedulerPolicy:
    if tag in (PROPOSED, RR, EDF, NO_ORDER):
        return SchedulerPolicy(kind=tag)
    if tag.startswith("single-ts-"):
        digits = tag[len("single-ts-"):]
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"unknown policy '{tag}' (single-ts takes a period in whole ms)")
        ms = int(digits)
        if ms <= 0:
            raise ValueError(f"single-ts period must be positive, got {ms} ms")
        return SchedulerPolicy(kind=SINGLE_TS, interval_s=ms / 1000.0)
    raise ValueError(f"unknown policy '{tag}' (expected one of {', '.join(POLICY_TAGS)})")


def rr_allocate(active_flows: list[int], link_bps: float) -> dict[int, float]:
    """Equal split of the link over the currently active flows."""
    if not active_flows:
        return {}
    share = link_bps / len(active_flows)
    return {f: share for f in active_flows}

