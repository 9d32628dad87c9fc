"""Per-interval metrics accumulation and CSV reports.

Quality loss is kept as (dropped importance, departing importance) pairs
per interval and only divided when a report is written, so summaries are
exact functions of the per-interval rows and reproducible by any reader of
metrics.csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence


@dataclass
class IntervalCell:
    """Accumulators for one (interval, flow) cell."""

    dropped_gamma: float = 0.0
    total_gamma: float = 0.0
    frames_dropped: int = 0
    frames_fwd: int = 0
    frames_late: int = 0
    bytes_fwd: int = 0
    c2_infeasible: int = 0
    rtt_mean_ms: Optional[float] = None
    q_mean_ms: Optional[float] = None
    net_state_ms: Optional[float] = None

    @property
    def quality_loss(self) -> float:
        if self.total_gamma <= 0.0:
            return 0.0
        return self.dropped_gamma / self.total_gamma


METRICS_HEADER = (
    "n,flow,quality_loss,dropped_gamma,total_gamma,frames_dropped,frames_fwd,"
    "frames_late,bytes_fwd,c2_infeasible,rtt_mean_ms,q_mean_ms,net_state_ms"
)

SUMMARY_HEADER = (
    "policy,seed,bottleneck_mbps,regime,epsilon,total_quality_loss,"
    "per_flow_loss_std,avg_drop_rate,bneck_drop_rate,frames_fwd,frames_dropped,"
    "frames_late,bytes_fwd,unmatched_marks,intervals"
)


def _cell(x: Any) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def csv_text(header: str, rows: Iterable[Sequence[Any]]) -> str:
    """The header line, then one line per row.

    A float cell is written as its ``repr``, so it reads back exactly;
    ``None`` is an empty cell; anything else is its ``str``.
    """
    lines = [header]
    lines += [",".join(_cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


class MetricsCollector:
    """Collects per-(interval, flow) cells during a run and renders reports."""

    def __init__(self, flows: list[int]):
        self.flows = list(flows)
        self.cells: dict[tuple[int, int], IntervalCell] = {}
        self.unmatched_marks = 0

    def cell(self, interval: int, flow: int) -> IntervalCell:
        key = (interval, flow)
        got = self.cells.get(key)
        if got is None:
            got = self.cells[key] = IntervalCell()
        return got

    def on_forwarded(self, interval: int, flow: int, gamma: float, size: int,
                     late: bool) -> None:
        c = self.cell(interval, flow)
        c.frames_fwd += 1
        c.total_gamma += gamma
        c.bytes_fwd += size
        if late:
            c.frames_late += 1

    def on_dropped(self, interval: int, flow: int, gamma: float) -> None:
        c = self.cell(interval, flow)
        c.frames_dropped += 1
        c.dropped_gamma += gamma
        c.total_gamma += gamma

    def on_tracker(self, interval: int, flow: int, rtt_mean: Optional[float],
                   q_mean: Optional[float], net_state: Optional[float]) -> None:
        c = self.cell(interval, flow)
        c.rtt_mean_ms = rtt_mean
        c.q_mean_ms = q_mean
        c.net_state_ms = net_state

    def on_infeasible(self, interval: int, flow: int) -> None:
        self.cell(interval, flow).c2_infeasible += 1

    @property
    def n_intervals(self) -> int:
        return max((n for n, _ in self.cells), default=0)

    def rows(self) -> list[tuple[int, int, IntervalCell]]:
        """Complete (interval, flow) grid in deterministic order."""
        out = []
        for n in range(1, self.n_intervals + 1):
            for f in self.flows:
                out.append((n, f, self.cell(n, f)))
        return out

    def metrics_csv(self) -> str:
        return csv_text(METRICS_HEADER, (
            (n, f, c.quality_loss, c.dropped_gamma, c.total_gamma, c.frames_dropped,
             c.frames_fwd, c.frames_late, c.bytes_fwd, c.c2_infeasible,
             c.rtt_mean_ms, c.q_mean_ms, c.net_state_ms)
            for n, f, c in self.rows()
        ))

    def summary(self, policy: str, seed: int, bottleneck_mbps: float,
                regime: str, epsilon: float) -> dict:
        """Run-level totals.

        ``total_quality_loss`` is the objective: the sum of every cell's
        loss ratio. ``avg_drop_rate`` counts a frame as lost when it was
        either dropped at the bottleneck or delivered past its deadline;
        ``bneck_drop_rate`` counts only bottleneck drops.
        """
        total_loss = 0.0
        per_flow_loss = {f: 0.0 for f in self.flows}
        fwd = dropped = late = bytes_fwd = 0
        for n, f, c in self.rows():
            loss = c.quality_loss
            total_loss += loss
            per_flow_loss[f] += loss
            fwd += c.frames_fwd
            dropped += c.frames_dropped
            late += c.frames_late
            bytes_fwd += c.bytes_fwd
        ended = fwd + dropped
        losses = list(per_flow_loss.values())
        if losses:
            mean = sum(losses) / len(losses)
            std = math.sqrt(sum((x - mean) ** 2 for x in losses) / len(losses))
        else:
            std = 0.0
        return {
            "policy": policy,
            "seed": seed,
            "bottleneck_mbps": bottleneck_mbps,
            "regime": regime,
            "epsilon": epsilon,
            "total_quality_loss": total_loss,
            "per_flow_loss_std": std,
            "avg_drop_rate": (dropped + late) / ended if ended else 0.0,
            "bneck_drop_rate": dropped / ended if ended else 0.0,
            "frames_fwd": fwd,
            "frames_dropped": dropped,
            "frames_late": late,
            "bytes_fwd": bytes_fwd,
            "unmatched_marks": self.unmatched_marks,
            "intervals": self.n_intervals,
        }


def summary_csv(summary: dict) -> str:
    return csv_text(SUMMARY_HEADER, [[summary[k] for k in SUMMARY_HEADER.split(",")]])


def write_text(path: str | Path, text: str) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text)
