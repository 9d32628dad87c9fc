"""Egress: the forwarders that turn queued frames into link actions.

Each forwarder yields one action at a time, so the expiry check happens
at the moment a frame would actually go out; the queue decides whether a
head has expired. The link clock (owned by the simulator) decides
departure timing; a forwarder only decides order and byte accounting.

``next_action`` returns a send as a plain ``(flow, frame, bytes_sent,
completed)`` tuple, one per link slice, a :class:`DropAction` for an
expired head, or None when nothing can go out.

DWRR turns allocation decisions into per-flow byte credit at every tick,
spends it on whole frames in queue order and carries a partially
transmitted frame across rounds. EDF needs no credit: it sends the whole
head frame with the least deadline slack.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .frame_queue import FrameQueue, QueuedFrame, tolerable_time

Send = tuple[int, QueuedFrame, int, bool]   # flow, frame, bytes_sent, completed


class DropAction(NamedTuple):
    flow: int
    frame: QueuedFrame


class DwrrForwarder:
    """Deficit state and round-robin cursor over a fixed flow set."""

    def __init__(self, flows: Sequence[int]):
        self._order = list(flows)
        self._cursor = 0
        self.deficit: dict[int, float] = {f: 0.0 for f in flows}

    def replenish(self, flow: int, rate_bps: float, interval_s: float) -> None:
        """Add one interval's quantum, clamping stale credit to one quantum.

        A zero-rate replenish leaves the deficit untouched rather than
        zeroing carried credit.
        """
        quantum = rate_bps * interval_s / 8.0
        if quantum <= 0.0:
            return
        self.deficit[flow] = min(self.deficit[flow], quantum) + quantum

    def next_action(
        self, queues: Mapping[int, FrameQueue], now_us: int
    ) -> Union[Send, DropAction, None]:
        """One scheduling step: a drop, a send slice, or None when stuck.

        The cursor stays on the flow it last served, so a flow keeps the
        link until its credit or queue runs out, then the scan moves on.
        A send covers the head's remaining bytes when credit allows;
        otherwise it spends what is left and pins the head in service.
        A parked flow, one with a pinned head and no whole byte of credit,
        is passed over at once: its head can neither expire nor go out.
        """
        n = len(self._order)
        for i in range(n):
            flow = self._order[(self._cursor + i) % n]
            queue = queues[flow]
            frames = queue.frames
            if not frames:
                continue
            avail = int(self.deficit[flow])
            if avail <= 0 and frames[0].in_service:
                continue
            dead = queue.pop_expired_head(now_us)
            if dead is not None:
                self._cursor = (self._cursor + i) % n
                return DropAction(flow, dead)
            if avail <= 0:
                continue
            head = frames[0]
            sent = min(head.remaining, avail)
            head.remaining -= sent
            self.deficit[flow] -= sent
            if head.remaining == 0:
                queue.pop_head()
                head.in_service = False
                completed = True
            else:
                head.in_service = True
                completed = False
            self._cursor = (self._cursor + i) % n
            return flow, head, sent, completed
        return None


class EdfForwarder:
    """Earliest deadline first: one whole frame per link slot, no credit."""

    def __init__(self, flows: Sequence[int]):
        self._order = sorted(flows)

    def next_action(
        self, queues: Mapping[int, FrameQueue], now_us: int
    ) -> Union[Send, DropAction, None]:
        """Drop an expired head, else send the head with the least slack.

        Expired heads go first, one action each, in flow order. Ties on
        slack break toward the lowest flow id.
        """
        best: Optional[int] = None
        best_slack = 0.0
        for flow in self._order:
            queue = queues[flow]
            if not queue.frames:
                continue
            dead = queue.pop_expired_head(now_us)
            if dead is not None:
                return DropAction(flow, dead)
            head = queue.frames[0]
            slack = tolerable_time(head, now_us)
            if best is None or slack < best_slack:
                best, best_slack = flow, slack
        if best is None:
            return None
        frame = queues[best].pop_head()
        sent, frame.remaining = frame.remaining, 0
        return best, frame, sent, True
