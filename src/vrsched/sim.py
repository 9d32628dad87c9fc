"""Deterministic discrete-event model of the dumbbell topology.

Per-flow servers emit frames on their trace schedule; frames cross a
server-side access link (constant delay, optionally with exponential jitter
per frame), queue at the single bottleneck, and are forwarded by the
selected policy. Departures serialize on the bottleneck link clock, reach
the client after the propagation delay, and are acknowledged back to the
server, which stamps the resulting RTT into the metadata of later frames.

Time is integer microseconds throughout. Events at equal timestamps are
ordered by kind priority, then by insertion sequence, so runs are
bit-reproducible for a given (config, seed).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

from . import wire
from .allocation import ArrivalServiceStats, FlowLtInput, LtDecision, allocate_lt
from .baselines import EDF, RR, SINGLE_TS, SchedulerPolicy, parse_policy, rr_allocate
from .config import ConfigError, SimConfig
from .delay import FlowDelayState
from .forwarder import DropAction, DwrrForwarder, EdfForwarder
from .frame_queue import FrameQueue, QueuedFrame
from .metrics import MetricsCollector, csv_text, summary_csv, write_text
from .scheduling import FlowStInput, schedule_st
from .traffic import cached_trace
from .video import US_PER_MS, US_PER_S, FlowTrace, FrameMeta, read_trace

# event kind priorities: lower runs first at equal timestamps
EV_DEPARTURE = 0
EV_LINKFREE = 1   # a partial slice finished serializing; resume service
EV_SEND = 2
EV_ARRIVAL = 3
EV_ACK = 4
EV_LTI = 5
EV_STI = 6

_JITTER_STREAM = 2


def inject_delay(t_send_us: int, server_delay_ms: float, jitter_mean_ms: float,
                 rng: np.random.Generator) -> int:
    """Bottleneck arrival time for a frame sent at ``t_send_us``.

    ``jitter_mean_ms`` is 0.0 on a stable link; ``rng`` is drawn only when it is positive.
    """
    delay_ms = server_delay_ms
    if jitter_mean_ms > 0:
        delay_ms += rng.exponential(jitter_mean_ms)
    return t_send_us + int(round(delay_ms * US_PER_MS))


@dataclass
class _FlowRuntime:
    trace: FlowTrace
    queue: FrameQueue
    tracker: FlowDelayState
    stats: ArrivalServiceStats
    jitter_rng: np.random.Generator
    next_send: int = 0
    latest_mark: Optional[tuple[float, int]] = None  # (rtt_ms, send index acked)
    last_arrival_us: Optional[int] = None
    current_rate_bps: float = 0.0
    v_prev_ms: Optional[float] = None
    generated: int = 0
    arrived: int = 0
    forwarded: int = 0
    dropped: int = 0
    in_flight: int = 0
    in_transit: int = 0   # committed to the link, departure pending


@dataclass
class RunResult:
    config: SimConfig
    collector: MetricsCollector
    summary: dict
    budget_violations: int
    st_invocations: int
    lt_log: list[tuple]
    st_log: list[tuple]
    event_log: list[tuple]
    flow_counters: dict[int, dict[str, int]]

    def metrics_csv(self) -> str:
        return self.collector.metrics_csv()

    def summary_csv(self) -> str:
        return summary_csv(self.summary)

    def write(self, out_dir: str | Path, decisions: bool = False,
              events: bool = False) -> None:
        out = Path(out_dir)
        write_text(out / "metrics.csv", self.metrics_csv())
        write_text(out / "summary.csv", self.summary_csv())
        if decisions:
            write_text(out / "lt_decisions.csv",
                       csv_text("n,flow,d_f_ms,b_hat_bps", self.lt_log))
            write_text(out / "st_decisions.csv",
                       csv_text("n,t,flow,b_st_bps,phase1_bps,dU_last", self.st_log))
        if events:
            write_text(out / "events.csv",
                       csv_text("time_us,flow,c,m,k,event,q_delay_ms", self.event_log))


class Simulation:
    """One simulation instance; strictly single-threaded."""

    def __init__(self, config: SimConfig, check_invariants: bool = False,
                 log_events: bool = False):
        config.validate()
        self.config = config
        self.policy: SchedulerPolicy = parse_policy(config.policy)
        self.check_invariants = check_invariants
        self.log_events = log_events

        self.link_bps = config.link_bps

        # The policy picks its tick here, once. It is kept as a plain
        # function and called as fn(self, now_us): a bound method stored on
        # the instance would be a reference cycle, which keeps a finished
        # run's frames alive until the cyclic collector runs.
        cls = type(self)
        kind = self.policy.kind
        self.tick_s = config.sti_s
        if kind == EDF:
            self._tick = cls._sweep_queues   # no allocation, so no credit to grant
        elif kind == RR:
            self._tick = cls._rr_tick
        elif kind == SINGLE_TS:
            self._tick = cls._single_ts_tick
            self.tick_s = self.policy.interval_s
        else:  # proposed / no-order
            self._tick = cls._st_phase

        self.delta_us = int(round(config.delta_s * US_PER_S))
        self.tick_us = int(round(self.tick_s * US_PER_S))
        self.d_min_s = config.d_min_ms / 1000.0
        self.ack_lag_us = int(round((config.propagation_ms + config.ack_delay_ms) * US_PER_MS))
        self.server_delay_ms = config.server_delay_ms
        self.jitter_mean_ms = config.jitter_mean_ms if config.regime == "unstable" else 0.0

        self.flows: dict[int, _FlowRuntime] = {}
        for f in range(config.n_flows):
            if config.trace_files:
                try:
                    trace = read_trace(config.trace_files[f])
                except ValueError as exc:
                    raise ConfigError(f"trace_files: {exc}") from exc
            else:
                trace = cached_trace(config.trace_params(f), config.seed)
            self.flows[f] = _FlowRuntime(
                trace=trace,
                queue=FrameQueue(
                    beta=config.beta, ordered=self.policy.uses_weight_order,
                    revised=self.policy.uses_st, expire=config.proactive_drop,
                ),
                tracker=FlowDelayState(
                    alpha=config.ewma_alpha,
                    prior_external_ms=config.prior_external_ms,
                ),
                stats=ArrivalServiceStats(alpha=config.ewma_alpha),
                jitter_rng=np.random.default_rng(
                    np.random.SeedSequence(config.seed, spawn_key=(f, _JITTER_STREAM))
                ),
            )

        self._queues = {f: rt.queue for f, rt in self.flows.items()}
        self.forwarder = (EdfForwarder if kind == EDF else DwrrForwarder)(list(self.flows))
        fair = config.link_bps / config.n_flows if config.n_flows else 0.0
        self.lt_decision = LtDecision(
            rate_bps={f: fair for f in self.flows},
            target_delay_s={f: None for f in self.flows},
            s_ave_bytes={f: None for f in self.flows},
        )

        self.collector = MetricsCollector(list(self.flows))
        self.budget_violations = 0
        self.st_invocations = 0
        self.lt_log: list[tuple] = []
        self.st_log: list[tuple] = []
        self.event_log: list[tuple] = []

        self._heap: list[tuple] = []   # (time_us, kind, seq, flow, data)
        self._seq = itertools.count(1)
        self._last_time = 0
        self.link_busy_until_us = 0

        for f, rt in self.flows.items():
            if rt.trace.frames:
                self._push(self._frame_send_us(rt, 0), EV_SEND, f, 0)
        if self.flows:
            self._push(0, EV_STI, -1, None)
            self._push(self.delta_us, EV_LTI, -1, None)

    # -- helpers ----------------------------------------------------------

    def _push(self, time_us: int, kind: int, flow: int, data: Any) -> None:
        heapq.heappush(self._heap, (time_us, kind, next(self._seq), flow, data))

    def _frame_send_us(self, rt: _FlowRuntime, idx: int) -> int:
        return int(round(rt.trace.frames[idx].send_time_ms * US_PER_MS))

    def _interval_of(self, t_us: int) -> int:
        return max(1, -(-t_us // self.delta_us))

    def _work_remaining(self, now_us: int) -> bool:
        if self.link_busy_until_us > now_us:
            return True
        for rt in self.flows.values():
            if rt.next_send < len(rt.trace.frames) or rt.in_flight or len(rt.queue) or rt.in_transit:
                return True
        return False

    def _assert_budget(self, total_bps: float) -> None:
        if total_bps > self.link_bps * (1.0 + 1e-9):
            self.budget_violations += 1

    def _commit_to_link(self, now_us: int, flow: int, frame: QueuedFrame,
                        nbytes: int, completed: bool) -> None:
        start = max(now_us, self.link_busy_until_us)
        tx_us = int(math.ceil(nbytes * 8 * US_PER_S / self.link_bps))
        self.link_busy_until_us = start + tx_us
        if completed:
            self.flows[flow].in_transit += 1
            self._push(self.link_busy_until_us, EV_DEPARTURE, flow, frame)
        else:
            self._push(self.link_busy_until_us, EV_LINKFREE, flow, None)

    def _drop(self, now_us: int, flow: int, frame_meta: FrameMeta) -> None:
        rt = self.flows[flow]
        rt.dropped += 1
        n = self._interval_of(now_us)
        self.collector.on_dropped(n, flow, frame_meta.gamma)
        if self.log_events:
            fid = frame_meta.id
            self.event_log.append((now_us, flow, fid.c, fid.m, fid.k, "drop", None))

    def _sweep_queues(self, now_us: int) -> None:
        for f, rt in self.flows.items():
            for frame in rt.queue.sweep_expired(now_us):
                self._drop(now_us, f, frame.meta)

    # -- event handlers ---------------------------------------------------

    def _on_send(self, now_us: int, flow: int, idx: int) -> None:
        rt = self.flows[flow]
        meta = rt.trace.frames[idx]

        rtt_ms, ref_offset = 0, 0
        if rt.latest_mark is not None:
            mark_rtt, ref_idx = rt.latest_mark
            offset = idx - ref_idx
            if 1 <= offset <= 255:
                rtt_ms, ref_offset = mark_rtt, offset
        c, m, k = meta.id
        packet = wire.encode(wire.MetadataOption(True, c, m, k, meta.deadline_ms,
                                                 rtt_ms, ref_offset))

        rt.generated += 1
        rt.in_flight += 1
        arrival = inject_delay(now_us, self.server_delay_ms, self.jitter_mean_ms,
                               rt.jitter_rng)
        self._push(arrival, EV_ARRIVAL, flow, (meta, packet, idx))

        rt.next_send = idx + 1
        if rt.next_send < len(rt.trace.frames):
            self._push(self._frame_send_us(rt, rt.next_send), EV_SEND, flow, rt.next_send)

    def _on_arrival(self, now_us: int, flow: int, data: tuple) -> None:
        rt = self.flows[flow]
        meta, packet, idx = data
        rt.in_flight -= 1
        rt.arrived += 1

        _, chunk, _, _, ddl, rtt, ref_offset = wire.decode(packet)
        ddl_ms = float(ddl)
        tracker = rt.tracker
        tracker.on_arrival(meta.id, chunk, ddl_ms, float(rtt), ref_offset)

        if rt.last_arrival_us is not None:
            rt.stats.inter_arrival.update((now_us - rt.last_arrival_us) / US_PER_S)
        rt.last_arrival_us = now_us
        rt.stats.frame_size.update(meta.size)

        # meta, t_arrival_us, ddl_ms, arrival_bound_ms, remaining, send_idx
        frame = QueuedFrame(meta, now_us, ddl_ms, tracker.bound_for(ddl_ms), meta.size, idx)
        if not rt.queue.push(frame):
            self._drop(now_us, flow, meta)
            return
        # keep the link busy when credit is already available
        self._kick(now_us)

    def _on_departure(self, now_us: int, flow: int, frame: QueuedFrame) -> None:
        rt = self.flows[flow]
        rt.in_transit -= 1
        rt.forwarded += 1
        q_ms = (now_us - frame.t_arrival_us) / US_PER_MS
        rt.tracker.record_departure(frame.meta.id, q_ms)

        if rt.current_rate_bps > 0:
            rt.stats.service.update(frame.meta.size * 8.0 / rt.current_rate_bps)

        receipt_ms = now_us / US_PER_MS + self.config.propagation_ms
        deadline_abs_ms = frame.meta.send_time_ms + frame.meta.deadline_ms
        late = receipt_ms > deadline_abs_ms + 1e-9
        n = self._interval_of(now_us)
        self.collector.on_forwarded(n, flow, frame.meta.gamma, frame.meta.size, late)
        if self.log_events:
            fid = frame.meta.id
            self.event_log.append((now_us, flow, fid.c, fid.m, fid.k, "fwd", q_ms))

        # the client acks each receipt; the ack carries the RTT reference
        self._push(now_us + self.ack_lag_us, EV_ACK, flow, frame.send_idx)
        self._kick(now_us)

    def _on_linkfree(self, now_us: int, flow: int, _data) -> None:
        self._kick(now_us)

    def _on_ack(self, now_us: int, flow: int, idx: int) -> None:
        rt = self.flows[flow]
        # frames are sent in trace order and trace ids never repeat, so the
        # acked frame's trace index is its send index
        rtt_ms = now_us / US_PER_MS - rt.trace.frames[idx].send_time_ms
        rt.latest_mark = (rtt_ms, idx)

    # -- scheduler ticks --------------------------------------------------

    def _tracker_debug(self, n: int) -> None:
        for f, rt in self.flows.items():
            tr = rt.tracker
            self.collector.on_tracker(
                n, f,
                tr.rtt.mean if tr.rtt.initialized else None,
                tr.queue_delay.mean if tr.queue_delay.initialized else None,
                tr.net_state_ms,
            )

    def _run_lt_allocation(self, now_us: int, delta_alloc_s: float) -> None:
        """Size the base rates for the interval that starts after ``now_us``."""
        governed_interval = self._interval_of(now_us + 1)
        inputs: dict[int, FlowLtInput] = {}
        for f, rt in self.flows.items():
            departing = rt.queue.departing_set(delta_alloc_s * 1000.0, now_us)
            pairs = [(fr.meta.gamma, fr.bound_ms / 1000.0) for fr in departing]
            inputs[f] = FlowLtInput(frames=pairs, stats=rt.stats)
        self.lt_decision = allocate_lt(
            inputs, self.lt_decision, self.link_bps, self.config.epsilon, self.d_min_s
        )
        for f in self.lt_decision.infeasible:
            self.collector.on_infeasible(governed_interval, f)
        for f in self.flows:
            d = self.lt_decision.target_delay_s[f]
            self.lt_log.append(
                (governed_interval, f, d * 1000.0 if d is not None else None,
                 self.lt_decision.rate_bps[f])
            )

    def _on_lti(self, now_us: int, _flow, _data) -> None:
        self._tracker_debug(self._interval_of(now_us))
        if self.policy.uses_st:
            self._run_lt_allocation(now_us, self.config.delta_s)
        if self._work_remaining(now_us):
            self._push(now_us + self.delta_us, EV_LTI, -1, None)

    def _on_sti(self, now_us: int, _flow, _data) -> None:
        self._tick(self, now_us)
        self._kick(now_us)
        if self._work_remaining(now_us):
            self._push(now_us + self.tick_us, EV_STI, -1, None)

    def _rr_tick(self, now_us: int) -> None:
        self._sweep_queues(now_us)
        active = [f for f, rt in self.flows.items() if len(rt.queue)]
        rates = rr_allocate(active, self.link_bps)
        self._assert_budget(sum(rates.values()))
        for f, rate in rates.items():
            self.flows[f].current_rate_bps = rate
            self.forwarder.replenish(f, rate, self.tick_s)

    def _single_ts_tick(self, now_us: int) -> None:
        self._run_lt_allocation(now_us, self.policy.interval_s)
        share = (
            max(0.0, self.link_bps - self.lt_decision.total()) / len(self.flows)
            if self.flows else 0.0
        )
        self._assert_budget(self.lt_decision.total() + share * len(self.flows))
        for f, rt in self.flows.items():
            rate = self.lt_decision.rate_bps[f] + share
            rt.current_rate_bps = rate
            self.forwarder.replenish(f, rate, self.tick_s)
            rt.queue.resort(rt.tracker.net_state_ms)
        self._sweep_queues(now_us)

    def _st_phase(self, now_us: int) -> None:
        self.st_invocations += 1
        n = self._interval_of(now_us + 1)
        t_idx = (now_us % self.delta_us) // self.tick_us

        inputs: dict[int, FlowStInput] = {}
        for f, rt in self.flows.items():
            rt.queue.resort(rt.tracker.net_state_ms)
            inputs[f] = FlowStInput(rt.queue.frames, rt.stats, rt.tracker.net_state_ms,
                                    rt.v_prev_ms)
        st = schedule_st(inputs, self.lt_decision, self.link_bps, self.config.sti_s,
                         now_us, self.d_min_s)
        self._assert_budget(self.lt_decision.total() + st.total())

        for f, rt in self.flows.items():
            rate = self.lt_decision.rate_bps[f] + st.rate_bps[f]
            rt.current_rate_bps = rate
            self.forwarder.replenish(f, rate, self.tick_s)
            rt.v_prev_ms = rt.tracker.net_state_ms
            if st.rate_bps[f] or st.last_gain.get(f):
                self.st_log.append(
                    (n, t_idx, f, st.rate_bps[f], st.phase1_bps.get(f, 0.0),
                     st.last_gain.get(f, 0.0))
                )
        self._sweep_queues(now_us)

    def _kick(self, now_us: int) -> None:
        """Serve the queues while the link is free; one slice per departure.

        Expired heads are dropped at the instant they would otherwise be
        served, so the bound check reflects the true service time rather
        than the tick that granted the credit.
        """
        queues = self._queues
        while self.link_busy_until_us <= now_us:
            act = self.forwarder.next_action(queues, now_us)
            if act is None:
                return
            if isinstance(act, DropAction):
                self._drop(now_us, act.flow, act.frame.meta)
                continue
            self._commit_to_link(now_us, *act)   # flow, frame, bytes_sent, completed

    # -- main loop ---------------------------------------------------------

    def _check_conservation(self) -> None:
        for f, rt in self.flows.items():
            outstanding = rt.in_flight + len(rt.queue) + rt.in_transit
            if rt.generated != rt.forwarded + rt.dropped + outstanding:
                raise AssertionError(
                    f"flow {f}: generated {rt.generated} != forwarded {rt.forwarded} "
                    f"+ dropped {rt.dropped} + outstanding {outstanding}"
                )

    def run(self) -> RunResult:
        handlers = {
            EV_DEPARTURE: self._on_departure,
            EV_LINKFREE: self._on_linkfree,
            EV_SEND: self._on_send,
            EV_ARRIVAL: self._on_arrival,
            EV_ACK: self._on_ack,
            EV_LTI: self._on_lti,
            EV_STI: self._on_sti,
        }
        while self._heap:
            time_us, kind, _, flow, data = heapq.heappop(self._heap)
            if time_us < self._last_time:
                raise AssertionError("event time went backwards")
            self._last_time = time_us
            handlers[kind](time_us, flow, data)
            if self.check_invariants:
                self._check_conservation()

        self.collector.unmatched_marks = sum(
            rt.tracker.unmatched_marks for rt in self.flows.values()
        )
        summary = self.collector.summary(
            policy=self.policy.tag,
            seed=self.config.seed,
            bottleneck_mbps=self.config.bottleneck_mbps,
            regime=self.config.regime,
            epsilon=self.config.epsilon,
        )
        return RunResult(
            config=self.config,
            collector=self.collector,
            summary=summary,
            budget_violations=self.budget_violations,
            st_invocations=self.st_invocations,
            lt_log=self.lt_log,
            st_log=self.st_log,
            event_log=self.event_log,
            flow_counters={
                f: {
                    "generated": rt.generated,
                    "arrived": rt.arrived,
                    "forwarded": rt.forwarded,
                    "dropped": rt.dropped,
                }
                for f, rt in self.flows.items()
            },
        )


def run(config: SimConfig, check_invariants: bool = False,
        log_events: bool = False) -> RunResult:
    """Build and execute one simulation."""
    return Simulation(config, check_invariants=check_invariants,
                      log_events=log_events).run()
