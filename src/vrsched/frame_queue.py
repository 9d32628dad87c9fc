"""Per-flow frame queue at the bottleneck.

Frames wait here between arrival and forwarding. The queue is kept in
descending weight order, where weight trades importance against remaining
tolerable queuing time; selection of the forwarded / dropped / retained
split is a budgeted prefix walk over that order. The queue also owns the
two rules applied to every waiting frame: expiry of frames past their
bound, and short-timescale revision of bounds to deadline - v.

At time t a frame's weight is gamma - beta * (D - (t - t_arrival)) / 1000,
with the bound D and times in ms. Every term that changes with t is the
same for all frames of one queue: t itself, and, where bounds are revised
to D = deadline - v, the flow's network state v. So two frames compare
the same way at every tick, and each frame's rank is fixed once, when it
is pushed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Sequence

from .video import US_PER_MS, US_PER_S, FrameMeta


@dataclass
class QueuedFrame:
    """A frame resident at the bottleneck."""

    meta: FrameMeta
    t_arrival_us: int
    ddl_ms: float        # deadline as read off the wire
    bound_ms: float      # current queuing-delay bound D
    remaining: int       # unsent bytes
    in_service: bool = False  # partially transmitted; pinned at the head
    key: tuple = ()      # (-weight at t = 0, c, m, k): the queue's sort key; set by push

    @property
    def gamma(self) -> float:
        return self.meta.gamma


def tolerable_time(frame: QueuedFrame, now_us: int) -> float:
    """Milliseconds of queuing the frame can still absorb; negative = expired."""
    return frame.bound_ms - (now_us - frame.t_arrival_us) / US_PER_MS


def split_sets(
    frames: Sequence[QueuedFrame],
    budget_bytes: float,
    now_us: int,
) -> tuple[list[QueuedFrame], list[QueuedFrame], list[QueuedFrame]]:
    """Partition a weight-ordered queue into (forwarded, dropped, retained).

    Expired frames (tolerable time < 0) are dropped wherever they sit; their
    sizes never count against the budget. Live frames join the forwarded set
    while the running size total stays within the budget; once one does not
    fit, every later live frame is retained.
    """
    forwarded: list[QueuedFrame] = []
    dropped: list[QueuedFrame] = []
    retained: list[QueuedFrame] = []
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


_sort_key = attrgetter("key")


class FrameQueue:
    """Weight-ordered frame queue for one flow.

    A frame whose transmission was interrupted mid-frame stays pinned at the
    head: its bytes are already committed, so it is neither resorted away
    nor expired out.

    ``revised`` says whether every queued bound is reset to deadline - v
    at each resort (the short timescale does this). Frames are then
    ranked by their wire deadline, since v shifts all bounds alike;
    otherwise by the bound each frame arrived with, which never changes.
    ``expire`` says whether frames past their bound are dropped at all.
    """

    def __init__(self, beta: float = 0.01, ordered: bool = True,
                 revised: bool = False, expire: bool = True):
        self.beta = beta
        self.ordered = ordered  # False = FIFO (ordering ablation, RR, EDF)
        self.revised = revised
        self.expire = expire
        self.frames: list[QueuedFrame] = []

    def __len__(self) -> int:
        return len(self.frames)

    def push(self, frame: QueuedFrame) -> bool:
        """Append at the tail; the frame takes its place at the next resort.

        Returns False, leaving the queue as it was, when the queue expires
        frames and this one arrives with a negative bound.

        The rank instant (ranking bound + arrival) is exact for whole-ms
        deadlines and whole-us arrivals, so frames tied on importance and
        on that instant tie exactly and fall back to frame id order.
        """
        if self.expire and frame.bound_ms < 0:
            return False
        if self.ordered:
            bound_ms = frame.ddl_ms if self.revised else frame.bound_ms
            instant_us = bound_ms * US_PER_MS + frame.t_arrival_us
            weight = frame.meta.gamma - self.beta * instant_us / US_PER_S
            fid = frame.meta.id
            frame.key = (-weight, fid.c, fid.m, fid.k)
        self.frames.append(frame)
        return True

    def head(self) -> Optional[QueuedFrame]:
        return self.frames[0] if self.frames else None

    def pop_head(self) -> QueuedFrame:
        return self.frames.pop(0)

    def pop_expired_head(self, now_us: int) -> Optional[QueuedFrame]:
        """Remove and return the head if it has expired; the pinned head is spared."""
        frames = self.frames
        if self.expire and frames:
            f = frames[0]
            # tolerable_time, inlined
            if not f.in_service and f.bound_ms - (now_us - f.t_arrival_us) / US_PER_MS < 0:
                return frames.pop(0)
        return None

    def resort(self, net_state_ms: Optional[float]) -> None:
        """Revise the bounds, then order by descending weight.

        A revised queue resets every bound, the pinned head's too, to
        deadline - ``net_state_ms`` once the network state is known.

        The order is the same at any instant: the sort runs on the keys
        fixed at push, over a body that is already sorted apart from its
        tail of new arrivals. Ties fall back to frame id order. The pinned
        head stays first. FIFO queues are never reordered.
        """
        frames = self.frames
        if self.revised and net_state_ms is not None:
            if not math.isfinite(net_state_ms):
                raise ValueError(f"network state must be finite, got {net_state_ms}")
            for f in frames:
                f.bound_ms = f.ddl_ms - net_state_ms
        if not self.ordered:
            return
        if frames and frames[0].in_service:
            body = frames[1:]
            body.sort(key=_sort_key)
            frames[1:] = body
        else:
            frames.sort(key=_sort_key)

    def sweep_expired(self, now_us: int) -> list[QueuedFrame]:
        """Remove and return every expired frame (pinned head excluded).

        Returns [] when the queue does not expire frames. The list is
        rebuilt only when something expired.
        """
        expired: list[QueuedFrame] = []
        if not self.expire:
            return expired
        keep: Optional[list[QueuedFrame]] = None
        for i, f in enumerate(self.frames):
            # tolerable_time, inlined
            if f.bound_ms - (now_us - f.t_arrival_us) / US_PER_MS < 0 and not f.in_service:
                if keep is None:
                    keep = self.frames[:i]
                expired.append(f)
            elif keep is not None:
                keep.append(f)
        if keep is not None:
            self.frames = keep
        return expired

    def departing_set(self, delta_ms: float, now_us: int) -> list[QueuedFrame]:
        """Frames expected to leave within the next interval (O <= delta)."""
        return [f for f in self.frames if tolerable_time(f, now_us) <= delta_ms]
