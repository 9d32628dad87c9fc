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
from array import array
from dataclasses import dataclass, field
from typing import Optional

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
    to resolve one-byte backward RTT references, and the realized queuing
    delays of the last ``history_limit`` departures. Frames are named by
    their send index, their position in the flow's trace. ``n_sends``, the
    trace's length, sizes the per-send columns and has no default, so a
    tracker is always built for its trace; a departure or mark reference
    naming a send index at or past ``n_sends`` raises IndexError.
    :meth:`on_arrival` finds an arriving frame's place in the history once,
    resolves its mark from there and inserts the frame there.

    References count frames backward in send order. Arrivals can be
    reordered by path jitter, so the history is kept sorted by the send key
    (chunk ascending, wire deadline descending: within a chunk, deadlines
    shrink with every later send). The key is one int, ``chunk * 65536 +
    65535 - ddl_ms``, which orders as (chunk, -ddl_ms) does because the
    wire carries the chunk and the deadline as whole numbers in 0..65535.
    A frame sent between the referenced one and the current one that is
    still in flight is not in the history yet, so it shifts the reference
    by one, onto an earlier frame, and the mark pairs with that frame's
    queuing delay if one is recorded. Jitter makes this happen: at 25 Mbps
    in the unstable regime, 545 of seed 1's 8,965 marks resolve to the
    wrong frame. ROADMAP.md item 5 is the open fix.
    """

    alpha: float = DEFAULT_ALPHA
    prior_external_ms: float = 20.0
    history_limit: int = 512
    n_sends: int = field(kw_only=True)
    rtt: EwmaStat = field(init=False)
    queue_delay: EwmaStat = field(init=False)
    net_state_ms: Optional[float] = None
    unmatched_marks: int = 0
    matched_marks: int = 0

    def __post_init__(self) -> None:
        self.rtt = EwmaStat(alpha=self.alpha)
        self.queue_delay = EwmaStat(alpha=self.alpha)
        # the history: send keys in ascending order, and the send index of each
        self._send_keys = array("q")
        self._send_idx = array("q")
        # per send index: its queuing delay, and its departure ordinal (0: not departed)
        self._delay_ms = array("d", bytes(8 * self.n_sends))
        self._departed = array("q", bytes(8 * self.n_sends))
        self._departures = 0

    def on_arrival(self, send_idx: int, chunk: int, ddl_ms: float,
                   rtt_ms: float, ref_offset: int) -> None:
        """Apply an arriving frame's RTT mark, then record the frame in send order.

        ``ddl_ms`` is the wire deadline, a whole number of ms in 0..65535.
        A positive ``ref_offset`` counts back from the frame's place; a
        reference before the kept history counts as an unmatched mark.
        """
        key = chunk * 65536 + 65535 - int(ddl_ms)
        keys, sends = self._send_keys, self._send_idx
        pos = bisect.bisect_left(keys, key)
        if ref_offset > 0:
            idx = pos - ref_offset
            self.apply_mark(rtt_ms, sends[idx] if idx >= 0 else None)
        keys.insert(pos, key)
        sends.insert(pos, send_idx)
        if len(sends) > self.history_limit:
            del keys[0], sends[0]

    def record_departure(self, send_idx: int, q_ms: float) -> None:
        """Record the queuing delay of send ``send_idx``, which departs once."""
        self._departures += 1
        self._delay_ms[send_idx] = q_ms
        self._departed[send_idx] = self._departures

    def apply_mark(self, rtt_ms: float, ref: Optional[int]) -> bool:
        """Feed one RTT mark; returns True when it matched a recorded delay.

        A reference matches when it departed within the last
        ``history_limit`` departures. Marks whose reference has no recorded
        queuing delay are counted and ignored, keeping the two EWMAs sourced
        from the same frames.
        """
        departed = self._departed[ref] if ref is not None else 0
        if not departed or departed <= self._departures - self.history_limit:
            self.unmatched_marks += 1
            return False
        self.rtt.update(rtt_ms)
        self.queue_delay.update(self._delay_ms[ref])
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
