"""Per-flow delay statistics at the bottleneck.

The bottleneck pairs each RTT mark carried by an arriving frame with the
queuing delay it recorded when the referenced frame departed, so both EWMA
trackers always describe the same set of frames. Their difference is the
external (non-queuing) path delay; it converts frame deadlines into queuing
delay bounds and, as it drifts, drives short-timescale bound revision.
"""

from __future__ import annotations

import bisect
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from .video import FrameId

DEFAULT_ALPHA = 0.125  # classic RTT smoothing weight


@dataclass(slots=True)
class EwmaStat:
    """Exponentially weighted mean and variance of a nonnegative series."""

    alpha: float = DEFAULT_ALPHA
    mean: float = 0.0
    variance: float = 0.0
    initialized: bool = False

    def update(self, sample: float) -> None:
        if sample < 0:
            raise ValueError(f"negative sample {sample}")
        if not self.initialized:
            self.mean = float(sample)
            self.variance = 0.0
            self.initialized = True
        else:
            delta = sample - self.mean
            self.mean += self.alpha * delta
            self.variance = (1.0 - self.alpha) * (self.variance + self.alpha * delta * delta)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass
class FlowDelayState:
    """Bottleneck-side tracker for one flow.

    Keeps the paired RTT / queuing-delay EWMAs, the send-order history used
    to resolve one-byte backward RTT references, and a bounded record of
    realized queuing delays keyed by frame id. :meth:`on_arrival` finds an
    arriving frame's place in the history once, resolves its mark from
    there and inserts the frame there.

    References count frames backward in send order. Arrivals can be
    reordered by path jitter, so the history is kept sorted by the send key
    (chunk ascending, wire deadline descending: within a chunk, deadlines
    shrink with every later send). A reference only mispairs if a frame
    between the referenced one and the current one is still in flight,
    which cannot happen for references a whole round trip old.
    """

    alpha: float = DEFAULT_ALPHA
    prior_external_ms: float = 20.0
    history_limit: int = 512
    rtt: EwmaStat = field(init=False)
    queue_delay: EwmaStat = field(init=False)
    net_state_ms: Optional[float] = None
    unmatched_marks: int = 0
    matched_marks: int = 0

    def __post_init__(self) -> None:
        self.rtt = EwmaStat(alpha=self.alpha)
        self.queue_delay = EwmaStat(alpha=self.alpha)
        self._send_keys: list[tuple[int, float]] = []   # (chunk, -deadline_ms)
        self._send_ids: list[FrameId] = []
        self._recorded: OrderedDict[FrameId, float] = OrderedDict()

    def on_arrival(self, frame_id: FrameId, chunk: int, ddl_ms: float,
                   rtt_ms: float, ref_offset: int) -> None:
        """Apply an arriving frame's RTT mark, then record the frame in send order.

        A positive ``ref_offset`` counts back from the frame's place; a
        reference before the kept history counts as an unmatched mark.
        """
        key = (chunk, -ddl_ms)
        keys, ids = self._send_keys, self._send_ids
        pos = bisect.bisect_left(keys, key)
        if ref_offset > 0:
            idx = pos - ref_offset
            self.apply_mark(rtt_ms, ids[idx] if idx >= 0 else None)
        keys.insert(pos, key)
        ids.insert(pos, frame_id)
        if len(ids) > self.history_limit:
            del keys[0], ids[0]

    def record_departure(self, frame_id: FrameId, q_ms: float) -> None:
        self._recorded[frame_id] = q_ms
        while len(self._recorded) > self.history_limit:
            self._recorded.popitem(last=False)

    def apply_mark(self, rtt_ms: float, ref: Optional[FrameId]) -> bool:
        """Feed one RTT mark; returns True when it matched a recorded delay.

        Marks whose reference has no recorded queuing delay are counted and
        ignored, keeping the two EWMAs sourced from the same frames.
        """
        q_ms = self._recorded.get(ref) if ref is not None else None
        if q_ms is None:
            self.unmatched_marks += 1
            return False
        self.rtt.update(rtt_ms)
        self.queue_delay.update(q_ms)
        self.net_state_ms = self.rtt.mean - self.queue_delay.mean
        self.matched_marks += 1
        return True

    def bound_for(self, ddl_ms: float) -> float:
        """Maximum queuing time that still lets the frame make its deadline.

        Before any RTT mark has been matched for the flow, the configured
        prior external delay stands in so early frames are not dropped
        spuriously. The result may be negative: the frame is hopeless on
        arrival.
        """
        v = self.net_state_ms
        return ddl_ms - (self.prior_external_ms if v is None else v)
