"""Shared builders for scheduler-level tests."""

import bisect
import copy

from vrsched.allocation import ArrivalServiceStats
from vrsched.delay import FlowDelayState
from vrsched.forwarder import SendAction
from vrsched.frame_queue import QueuedFrame, tolerable_time
from vrsched.video import FrameId, FrameMeta


def make_frame(
    c=1, m=1, k=1, size=1000, gamma=0.5,
    bound_ms=1000.0, ddl_ms=None, arrival_us=0, remaining=None,
) -> QueuedFrame:
    meta = FrameMeta(
        id=FrameId(c, m, k), size=size, gamma=gamma,
        deadline_ms=ddl_ms if ddl_ms is not None else bound_ms + 30.0,
        send_time_ms=0.0,
    )
    return QueuedFrame(
        meta=meta,
        t_arrival_us=arrival_us,
        ddl_ms=meta.deadline_ms,
        arrival_bound_ms=bound_ms,
        remaining=remaining if remaining is not None else size,
        send_idx=0,
    )


def split_sets(frames, budget_bytes, now_us):
    """Partition a weight-ordered queue into (forwarded, dropped, retained).

    The reference for :func:`vrsched.frame_queue.forward_prefix`, which
    returns only the forwarded importance and the first retained frame.
    Expired frames (tolerable time < 0) are dropped wherever they sit; their
    sizes never count against the budget. Live frames join the forwarded set
    while the running size total stays within the budget; once one does not
    fit, every later live frame is retained.
    """
    forwarded, dropped, retained = [], [], []
    used = 0.0
    overflowed = False
    for f in frames:
        if tolerable_time(f, now_us) < 0:
            dropped.append(f)
            continue
        if not overflowed and used + f.remaining <= budget_bytes:
            forwarded.append(f)
            used += f.remaining
        else:
            overflowed = True
            retained.append(f)
    return forwarded, dropped, retained


def drain(forwarder, queues, now_us):
    """Every action a forwarder takes at one instant, as (sends, drops)."""
    sends, drops = [], []
    while (act := forwarder.next_action(queues, now_us)) is not None:
        (sends if isinstance(act, SendAction) else drops).append(act)
    return sends, drops


def make_stats(mu_a_s=0.04, c_a=1.0, c_s=1.0, mu_s_s=0.03,
               s_ave=50000.0) -> ArrivalServiceStats:
    """Stats object with exact moments, bypassing the EWMA warm-up."""
    stats = ArrivalServiceStats()
    stats.inter_arrival.mean = mu_a_s
    stats.inter_arrival.variance = (c_a * mu_a_s) ** 2
    stats.inter_arrival.initialized = True
    stats.service.mean = mu_s_s
    stats.service.variance = (c_s * mu_s_s) ** 2
    stats.service.initialized = True
    stats.frame_size.mean = s_ave
    stats.frame_size.initialized = True
    return stats


class ThreeCallDelayState(FlowDelayState):
    """The arrival path as three calls: resolve the reference, apply the mark, record.

    The reference for :meth:`FlowDelayState.on_arrival`, which does the
    same work with one bisect.
    """

    def resolve_ref(self, offset, chunk, ddl_ms):
        if offset <= 0:
            return None
        pos = bisect.bisect_left(self._send_keys, (chunk, -ddl_ms))
        idx = pos - offset
        if idx < 0:
            return None
        return self._send_ids[idx]

    def record_arrival(self, frame_id, chunk, ddl_ms):
        key = (chunk, -ddl_ms)
        pos = bisect.bisect_left(self._send_keys, key)
        self._send_keys.insert(pos, key)
        self._send_ids.insert(pos, frame_id)
        if len(self._send_ids) > self.history_limit:
            del self._send_keys[0], self._send_ids[0]

    def on_arrival(self, frame_id, chunk, ddl_ms, rtt_ms, ref_offset):
        if ref_offset > 0:
            self.apply_mark(rtt_ms, self.resolve_ref(ref_offset, chunk, ddl_ms))
        self.record_arrival(frame_id, chunk, ddl_ms)


def spy_marks(tracker):
    """Record (ref, matched) for each mark ``tracker`` applies; returns the list."""
    seen = []
    apply_mark = tracker.apply_mark

    def spy(rtt_ms, ref):
        matched = apply_mark(rtt_ms, ref)
        seen.append((ref, matched))
        return matched

    tracker.apply_mark = spy
    return seen


def mark_ref(tracker, offset, chunk, ddl_ms):
    """The frame a mark with ``offset`` on an arrival at (chunk, ddl_ms) refers to.

    Asks a copy, so ``tracker`` is left as it was; None when no mark is applied.
    """
    probe = copy.deepcopy(tracker)
    seen = spy_marks(probe)
    probe.on_arrival(FrameId(0xFFFF, 0xFF, 0xFF), chunk, ddl_ms, 1.0, offset)
    return seen[0][0] if seen else None
