"""Per-flow frame queue at the bottleneck.

Frames wait here between arrival and forwarding. The queue is kept in
descending weight order, where weight trades importance against remaining
tolerable queuing time; what one tick's budget forwards is a prefix walk
over that order that skips expired frames and stops at the first live
frame that does not fit (``forward_prefix``). The queue also owns the
two rules applied to every waiting frame: expiry of frames past their
bound, and short-timescale revision of bounds to deadline - v.

At time t a frame's weight is gamma - beta * (D - (t - t_arrival)) / 1000,
with the bound D and times in ms. Every term that changes with t is the
same for all frames of one queue: t itself, and, where bounds are revised
to D = deadline - v, the flow's network state v. So two frames compare
the same way at every tick, and each frame's rank is fixed once, when it
is pushed.

The expiry order is fixed the same way, so a tick costs what changed, not
the queue's depth. A revised queue keeps one v, shared by the frames that
joined it at a resort. A resort inserts only the new arrivals into the
sorted body. An expiring queue keeps a heap by expiry rank (deadline for
joined frames, else bound, plus arrival); a sweep pops what is near expiry.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from operator import attrgetter
from typing import Optional, Sequence

from .video import US_PER_MS, US_PER_S, FrameMeta


@dataclass(slots=True, eq=False)
class QueuedFrame:
    """A frame resident at the bottleneck; its bound is read off its queue's v once it joins."""

    meta: FrameMeta
    t_arrival_us: int
    ddl_ms: float             # deadline as read off the wire
    arrival_bound_ms: float   # D at arrival
    remaining: int            # unsent bytes
    send_idx: int             # position in its flow's trace, which is its send order
    in_service: bool = False  # partially transmitted; pinned at the head
    key: tuple = ()           # (-weight at t = 0, c, m, k): the queue's sort key; set by push
    net_state: Optional[list[float]] = None   # the queue's v cell, once joined
    queued: bool = False      # False once the frame has left its queue

    @property
    def bound_ms(self) -> float:
        v = self.net_state
        return self.arrival_bound_ms if v is None else self.ddl_ms - v[0]


def tolerable_time(frame: QueuedFrame, now_us: int) -> float:
    """Milliseconds of queuing the frame can still absorb; negative = expired."""
    v = frame.net_state   # bound_ms, inlined
    bound_ms = frame.arrival_bound_ms if v is None else frame.ddl_ms - v[0]
    return bound_ms - (now_us - frame.t_arrival_us) / US_PER_MS


def forward_prefix(
    frames: Sequence[QueuedFrame],
    budget_bytes: float,
    now_us: int,
) -> tuple[float, Optional[QueuedFrame]]:
    """Importance forwarded from a weight-ordered queue within a byte budget.

    Expired frames (tolerable time < 0) are skipped wherever they sit; their
    sizes never count against the budget. Live frames are forwarded in
    queue order while the running size total stays within the budget.
    Returns the summed importance of the forwarded frames and the first
    live frame that does not fit (None when every live frame fits).
    """
    gain = 0.0
    used = 0.0
    for f in frames:
        if tolerable_time(f, now_us) < 0:
            continue
        if used + f.remaining > budget_bytes:
            return gain, f
        used += f.remaining
        gain += f.meta.gamma
    return gain, None


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
        self._sorted = 0       # frames[:_sorted] is in order; the rest arrived since
        self._net_state = [0.0]   # v of every frame that joined it
        self._loose: list[QueuedFrame] = []   # revised: arrivals yet to join v
        self._heap: list[tuple[float, int, QueuedFrame]] = []   # (expiry rank, n, frame)
        self._count = count()

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
        if self.expire and frame.arrival_bound_ms < 0:
            return False
        bound_ms = frame.ddl_ms if self.revised else frame.arrival_bound_ms
        instant_us = bound_ms * US_PER_MS + frame.t_arrival_us
        if self.ordered:
            weight = frame.meta.gamma - self.beta * instant_us / US_PER_S
            fid = frame.meta.id
            frame.key = (-weight, fid.c, fid.m, fid.k)
        frame.queued = True
        self.frames.append(frame)
        if self.revised:
            self._loose.append(frame)
        elif self.expire:
            heappush(self._heap, (instant_us, next(self._count), frame))
        return True

    def pop_head(self) -> QueuedFrame:
        frame = self.frames.pop(0)
        frame.queued = False
        if self._sorted:
            self._sorted -= 1
        return frame

    def pop_expired_head(self, now_us: int) -> Optional[QueuedFrame]:
        """Remove and return the head if it has expired; the pinned head is spared."""
        frames = self.frames
        if self.expire and frames and not frames[0].in_service:
            if tolerable_time(frames[0], now_us) < 0:
                return self.pop_head()
        return None

    def resort(self, net_state_ms: Optional[float]) -> None:
        """Revise the bounds, then order by descending weight.

        Once the network state is known, a revised queue stores it as its
        one v: every bound, the pinned head's too, becomes deadline - v, and
        the arrivals since the last such resort join v and the expiry heap.
        Only the arrivals since the last resort are inserted into the body,
        which is sorted on the keys fixed at push. The pinned head stays
        first. FIFO queues are never reordered.
        """
        if self.revised and net_state_ms is not None:
            if not math.isfinite(net_state_ms):
                raise ValueError(f"network state must be finite, got {net_state_ms}")
            self._net_state[0] = net_state_ms
            for f in self._loose:
                if f.queued:
                    f.net_state = self._net_state
                    if self.expire:
                        heappush(self._heap, (f.ddl_ms * US_PER_MS + f.t_arrival_us,
                                              next(self._count), f))
            self._loose = []
        if not self.ordered:
            return
        frames = self.frames
        lo = 1 if frames and frames[0].in_service else 0
        start = max(self._sorted, lo)
        tail, frames[start:] = frames[start:], []
        for f in tail:
            insort(frames, f, lo, key=_sort_key)
        self._sorted = len(frames)

    def sweep_expired(self, now_us: int) -> list[QueuedFrame]:
        """Remove and return every expired frame (pinned head excluded), in queue order.

        Returns [] when the queue does not expire frames. The heap is popped
        while its top is within rounding (1e-12, relative) of expiry or past
        it; each frame popped is checked exactly, and the pinned head and
        live frames go back. The list is rebuilt only when something expired.
        """
        if not self.expire:
            return []
        heap, aside, hit = self._heap, [], False
        v = abs(self._net_state[0]) if self.revised else 0.0
        while heap:
            rank, _, f = entry = heap[0]
            if f.queued:
                tol = tolerable_time(f, now_us)
                if tol >= ((abs(rank) + now_us) / US_PER_MS + v) * 1e-12:
                    break
                if tol < 0 and not f.in_service:
                    f.queued, hit = False, True
                else:
                    aside.append(entry)
            heappop(heap)
        for entry in aside:
            heappush(heap, entry)
        for f in self._loose:   # arrivals yet to join v
            if f.queued and not f.in_service and tolerable_time(f, now_us) < 0:
                f.queued, hit = False, True
        self._loose = [f for f in self._loose if f.queued]
        if not hit:
            return []
        frames = self.frames
        self._sorted -= sum(not f.queued for f in frames[:self._sorted])
        self.frames = [f for f in frames if f.queued]
        return [f for f in frames if not f.queued]

    def departing_set(self, delta_ms: float, now_us: int) -> list[QueuedFrame]:
        """Frames expected to leave within the next interval (O <= delta)."""
        return [f for f in self.frames if tolerable_time(f, now_us) <= delta_ms]
