"""Shared builders for scheduler-level tests."""

from vrsched.allocation import ArrivalServiceStats
from vrsched.forwarder import SendAction
from vrsched.frame_queue import QueuedFrame
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
