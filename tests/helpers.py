"""Shared builders for scheduler-level tests."""

import bisect
import copy
import heapq
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from vrsched.allocation import ArrivalServiceStats
from vrsched.delay import DEFAULT_ALPHA, EwmaStat
from vrsched.forwarder import DropAction
from vrsched.frame_queue import FrameQueue, QueuedFrame, tolerable_time
from vrsched.traffic import _SIZE_STREAM, _WALK_STREAM, TraceParams, gamma_frame_sizes
from vrsched.video import (
    US_PER_MS,
    FlowTrace,
    FrameId,
    FrameMeta,
    chunk_deadline,
    frame_deadline,
    importance,
    two_layer_gop,
)


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
        (drops if type(act) is DropAction else sends).append(act)
    return sends, drops


class SendAction(NamedTuple):
    """A send as the reference forwarders return it."""

    flow: int
    frame: QueuedFrame
    bytes_sent: int
    completed: bool


class NamedTupleDwrrForwarder:
    """The DWRR forwarder as it was with ``SendAction`` records: the reference.

    :class:`vrsched.forwarder.DwrrForwarder` returns a plain tuple for a
    send and passes over a flow with a pinned head and no whole byte of
    credit without asking its queue for an expired head; this one asks
    every nonempty queue.
    """

    def __init__(self, flows: Sequence[int]):
        self._order = list(flows)
        self._cursor = 0
        self.deficit: dict[int, float] = {f: 0.0 for f in flows}

    def replenish(self, flow: int, rate_bps: float, interval_s: float) -> None:
        quantum = rate_bps * interval_s / 8.0
        if quantum <= 0.0:
            return
        self.deficit[flow] = min(self.deficit[flow], quantum) + quantum

    def next_action(
        self, queues: Mapping[int, FrameQueue], now_us: int
    ) -> Optional[Union[SendAction, DropAction]]:
        n = len(self._order)
        for i in range(n):
            flow = self._order[(self._cursor + i) % n]
            queue = queues[flow]
            if not queue.frames:
                continue
            dead = queue.pop_expired_head(now_us)
            if dead is not None:
                self._cursor = (self._cursor + i) % n
                return DropAction(flow, dead)
            head = queue.frames[0]
            avail = int(self.deficit[flow])
            if avail <= 0:
                continue
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
            return SendAction(flow, head, sent, completed)
        return None


class NamedTupleEdfForwarder:
    """The EDF forwarder as it was with ``SendAction`` records: the reference."""

    def __init__(self, flows: Sequence[int]):
        self._order = sorted(flows)

    def next_action(
        self, queues: Mapping[int, FrameQueue], now_us: int
    ) -> Optional[Union[SendAction, DropAction]]:
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
        return SendAction(best, frame, sent, True)


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


@dataclass
class TupleDelayState:
    """The delay tracker as it was kept on Python objects: the reference.

    :class:`vrsched.delay.FlowDelayState` keeps the same state on send
    indices and ``array`` columns; this one keys the history by
    ``(chunk, -ddl_ms)`` tuples, names frames by :class:`FrameId` and keeps
    the last ``history_limit`` recorded delays in an ``OrderedDict``.
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


class ThreeCallDelayState(TupleDelayState):
    """The reference's arrival path as three calls: resolve the reference, apply the mark, record.

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
    """The send index a mark with ``offset`` on an arrival at (chunk, ddl_ms) refers to.

    Asks a copy, so ``tracker`` is left as it was; None when no mark is applied.
    """
    probe = copy.deepcopy(tracker)
    seen = spy_marks(probe)
    probe.on_arrival(-1, chunk, ddl_ms, 1.0, offset)   # a probe no send index names
    return seen[0][0] if seen else None


def inject_delay(t_send_us, server_delay_ms, jitter_mean_ms, rng) -> int:
    """One frame's bottleneck arrival instant, its jitter drawn on its own.

    The scalar reference for :func:`vrsched.sim.arrival_instants`; ``rng``
    is drawn only when ``jitter_mean_ms`` is positive.
    """
    delay_ms = server_delay_ms
    if jitter_mean_ms > 0:
        delay_ms += rng.exponential(jitter_mean_ms)
    return t_send_us + int(round(delay_ms * US_PER_MS))


def replay_arrival_order(send_us, arrival_us):
    """(flow, trace index) of each frame in the order an event heap delivers its arrivals.

    The reference for :func:`vrsched.sim.arrival_schedule`. Events are keyed
    by (instant, kind, insertion sequence), a send before an arrival at one
    instant. Each flow's first send is queued up front in flow order; a send
    queues its frame's arrival, then its flow's next send.
    """
    send, arrival = 1, 2
    heap, seq = [], itertools.count()
    for f, sends in enumerate(send_us):
        if len(sends):
            heapq.heappush(heap, (sends[0], send, next(seq), f, 0))
    order = []
    while heap:
        _, kind, _, f, i = heapq.heappop(heap)
        if kind == arrival:
            order.append((f, i))
            continue
        heapq.heappush(heap, (arrival_us[f][i], arrival, next(seq), f, i))
        if i + 1 < len(send_us[f]):
            heapq.heappush(heap, (send_us[f][i + 1], send, next(seq), f, i + 1))
    return order


def reference_walk(
    n_chunks: int,
    rows: int,
    cols: int,
    rng: np.random.Generator,
    decay: float = 0.5,
    uniform: bool = False,
) -> list[dict[int, float]]:
    """Per-chunk tile viewing probabilities, one tile at a time.

    The reference for :func:`vrsched.traffic.viewing_probability_walk`.

    The center moves at most one tile per chunk; columns wrap (the panorama
    is periodic in longitude) while rows clamp at the poles. A tile's
    probability is ``decay ** distance`` to the center, so the center tile
    gets 1.0 and everything stays strictly positive. Uniform mode gives all
    tiles probability 1.
    """
    probs: list[dict[int, float]] = []
    if uniform:
        flat = {r * cols + c + 1: 1.0 for r in range(rows) for c in range(cols)}
        return [dict(flat) for _ in range(n_chunks)]
    row = int(rng.integers(rows))
    col = int(rng.integers(cols))
    half_cols = cols / 2.0
    for _ in range(n_chunks):
        chunk_probs: dict[int, float] = {}
        for r in range(rows):
            for c in range(cols):
                dc = abs(c - col)
                if dc > half_cols:
                    dc = cols - dc
                dist = math.hypot(r - row, dc)
                chunk_probs[r * cols + c + 1] = decay ** dist
        probs.append(chunk_probs)
        row = min(rows - 1, max(0, row + int(rng.integers(-1, 2))))
        col = (col + int(rng.integers(-1, 2))) % cols
    return probs


def reference_trace(params: TraceParams, seed: int) -> FlowTrace:
    """One flow's full send schedule, one frame at a time.

    The reference for :func:`vrsched.traffic.generate_trace`, which builds the
    same frames from numpy columns.

    The client issues one request per chunk duration (chunk c at
    ``(c-1) * chunk_s``) and the server paces the chunk's frames uniformly
    over the following chunk duration. Playback of chunk c starts ``lead``
    chunk durations after its request, so at steady state a chunk's
    deadline is ``lead`` whole chunk durations and each frame's deadline
    shrinks by its send offset.
    """
    params.validate()
    size_rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(params.flow, _SIZE_STREAM))
    )
    walk_rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(params.flow, _WALK_STREAM))
    )

    gop = two_layer_gop(params.gop_size)
    probs = reference_walk(
        params.n_chunks, params.tile_rows, params.tile_cols, walk_rng,
        params.walk_decay, params.uniform_attention,
    )

    n_frames = params.frames_per_chunk
    gops = params.gops_per_chunk
    # Calibrate the non-I frame mean so the chunk total matches the bitrate.
    chunk_bytes = params.bitrate_bps * params.chunk_s / 8.0
    unit = chunk_bytes / (gops * (params.i_frame_ratio + params.gop_size - 1))

    chunk_ms = params.chunk_s * 1000.0
    frame_gap_ms = chunk_ms / n_frames
    lead = params.request_lead_chunks

    # one draw for the whole trace: the same generator gives the same
    # values in the same order as one draw per GoP
    means = np.full(params.gop_size, unit)
    means[0] *= params.i_frame_ratio
    n_gops = params.n_chunks * gops
    sizes = gamma_frame_sizes(
        size_rng, np.tile(means, n_gops), params.gamma_shape, n_gops * params.gop_size
    ).tolist()

    frames: list[FrameMeta] = []
    for c in range(1, params.n_chunks + 1):
        # during pre-roll the countdown runs as if playback had begun, so
        # the first chunks get the same lead as the steady state
        if c > lead:
            ddl_chunk = chunk_deadline(c, c - lead, params.chunk_s)
        else:
            ddl_chunk = chunk_deadline(lead, 0, params.chunk_s)
        t_request = (c - 1) * chunk_ms
        t_first = t_request + params.uplink_ms
        tile_order = sorted(probs[c - 1], key=lambda m: (-probs[c - 1][m], m))
        j = 0
        for g in range(gops):
            tile = tile_order[g]
            p = probs[c - 1][tile]
            for k in range(1, params.gop_size + 1):
                t_send = t_first + j * frame_gap_ms
                frames.append(
                    FrameMeta(
                        id=FrameId(c, tile, k),
                        size=sizes[len(frames)],
                        gamma=importance(p, k, gop, params.importance_counts_self),
                        deadline_ms=frame_deadline(ddl_chunk, t_send, t_first),
                        send_time_ms=t_send,
                    )
                )
                j += 1

    return FlowTrace(
        flow=params.flow,
        frames=tuple(frames),
        viewing_prob=MappingProxyType(
            {c + 1: MappingProxyType(probs[c]) for c in range(params.n_chunks)}
        ),
    )
