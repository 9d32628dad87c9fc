"""Deterministic discrete-event model of the dumbbell topology.

Per-flow servers emit frames on their trace schedule; frames cross a
server-side access link (constant delay, optionally with exponential jitter
per frame), queue at the single bottleneck, and are forwarded by the
selected policy. A frame reaches the bottleneck at an instant fixed by its
send instant and the path delay alone, so every arrival is computed up
front, in an arrival plan that a run builds when it starts and replays in
order: a send is not an event. At most one slice is ever on the link, so
its end sits in one slot, not on a queue; the slice that completes a frame
is its departure. The frame reaches the client after
the propagation delay and is acknowledged back to the server, which hears
the ack at its next send and stamps the resulting RTT into the metadata
option of that and later frames. A frame's mark is read from its flow's ack
log when the frame reaches the bottleneck, which by then holds every ack
heard before the send instant.

Time is integer microseconds throughout. At equal timestamps the link end
runs first, then arrivals in the order they were sent, sends made at one
instant going by trace index and then by flow, then the long and the short
tick, so runs are bit-reproducible for a given (config, seed).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

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
from .wire import MAX_MS, saturate_ms

NEVER = 2**63 - 1   # the instant of an event that is not due
# the last send instant the int64 microsecond clock takes, with room for the path delays
MAX_SEND_MS = 2.0**62 / US_PER_MS

_JITTER_STREAM = 2


def arrival_instants(send_us: np.ndarray, server_delay_ms: float, jitter_mean_ms: float,
                     rng: Optional[np.random.Generator]) -> np.ndarray:
    """Bottleneck arrival instants (int64 µs) of one flow's frames sent at ``send_us``.

    Each frame takes ``server_delay_ms`` plus, when ``jitter_mean_ms`` is
    positive, one exponential draw from ``rng``, drawn in send order; ``rng``
    is not drawn, and may be ``None``, when it is 0.0, as on a stable link.
    """
    delay_ms = server_delay_ms
    if jitter_mean_ms > 0:
        delay_ms = server_delay_ms + rng.exponential(jitter_mean_ms, size=len(send_us))
    return send_us + np.rint(np.multiply(delay_ms, US_PER_MS)).astype(np.int64)


def arrival_schedule(send_us: list[np.ndarray], arrival_us: list[np.ndarray]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(arrival instant, flow, trace index) of every frame, in the order they arrive.

    ``send_us[f]`` and ``arrival_us[f]`` are flow ``f``'s int64 send and
    arrival instants in trace order. Frames that arrive at one instant
    arrive in the order they were sent, and sends made at one instant go
    by trace index, then by flow. Flows and indices are int32.
    """
    if not send_us:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.astype(np.int32), empty.astype(np.int32)
    flow = np.repeat(np.arange(len(send_us), dtype=np.int32), [len(s) for s in send_us])
    idx = np.concatenate([np.arange(len(s), dtype=np.int32) for s in send_us])
    instants = np.concatenate(arrival_us)
    order = np.lexsort((flow, idx, np.concatenate(send_us), instants))
    return instants[order], flow[order], idx[order]


def wire_deadlines(deadline_ms: np.ndarray) -> np.ndarray:
    """``float(saturate_ms(d))`` of each finite deadline ``d``, in one pass.

    ``np.rint`` rounds half to even, as ``round`` does, and adding 0.0
    turns the -0.0 that rounding or clamping a small negative leaves into
    the 0.0 that ``float(0)`` gives.
    """
    return np.clip(np.rint(deadline_ms), 0.0, float(MAX_MS)) + 0.0


@dataclass(frozen=True, eq=False)
class ArrivalPlan:
    """Every arrival of a run, with the columns its arrivals read.

    It depends only on the traces, the server delay and the jitter draws.
    Each column is a view of a numpy array, whose items read back as the
    Python ints and floats the event loop works in.
    """

    arrival_us: memoryview   # each arrival's int64 instant, in arrival order, then NEVER
    arrival_flow: memoryview   # int32
    arrival_idx: memoryview   # the arriving frame's int32 trace index
    send_us: tuple[memoryview, ...]   # each flow's int64 send instants, in trace order
    wire_ddl_ms: tuple[memoryview, ...]   # each frame's float64 deadline as the wire carries it


def build_arrival_plan(traces: list[FlowTrace], seed: int, server_delay_ms: float,
                       jitter_mean_ms: float) -> ArrivalPlan:
    """The arrival plan of a run of ``traces``, flow ``f`` on ``traces[f]``.

    Flow ``f``'s jitter is drawn from its own stream of ``seed``, made only
    when there is jitter to draw.
    """
    sends, arrivals, ddls = [], [], []
    for f, trace in enumerate(traces):
        frames = trace.frames
        send_ms = np.fromiter((m.send_time_ms for m in frames), np.float64, len(frames))
        send_us = np.rint(send_ms * US_PER_MS).astype(np.int64)
        rng = None
        if jitter_mean_ms > 0:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(f, _JITTER_STREAM)))
        sends.append(send_us)
        arrivals.append(arrival_instants(send_us, server_delay_ms, jitter_mean_ms, rng))
        ddl_ms = np.fromiter((m.deadline_ms for m in frames), np.float64, len(frames))
        ddls.append(memoryview(wire_deadlines(ddl_ms)))
    instants, flows, idxs = arrival_schedule(sends, arrivals)
    return ArrivalPlan(
        arrival_us=memoryview(np.append(instants, NEVER)),
        arrival_flow=memoryview(flows),
        arrival_idx=memoryview(idxs),
        send_us=tuple(map(memoryview, sends)),
        wire_ddl_ms=tuple(ddls),
    )


@dataclass
class _FlowRuntime:
    trace: FlowTrace
    queue: FrameQueue
    tracker: FlowDelayState
    stats: ArrivalServiceStats
    # the plan's int64 send instants and wire deadlines, in trace order; set by run()
    send_us: Optional[memoryview] = None
    wire_ddl_ms: Optional[memoryview] = None
    # the ack log, in the order the server hears the acks: when it hears
    # each, and the send index it acks
    ack_heard_us: array = field(default_factory=lambda: array("q"))
    ack_idx: array = field(default_factory=lambda: array("q"))
    last_arrival_us: Optional[int] = None
    current_rate_bps: float = 0.0
    v_prev_ms: Optional[float] = None
    arrived: int = 0
    forwarded: int = 0
    dropped: int = 0

    def mark(self, idx: int) -> tuple[float, int]:
        """The (RTT, reference offset) mark the server put on send ``idx``.

        It is read from the latest ack heard strictly before the send
        instant. No delay is negative, so such an ack comes from a link end
        before the send and is logged by the time the frame arrives; an ack
        logged later is heard at or after the send.
        """
        heard = self.ack_heard_us
        i = bisect_left(heard, self.send_us[idx]) - 1
        if i >= 0:
            ref_idx = self.ack_idx[i]
            offset = idx - ref_idx
            if 1 <= offset <= 255:
                # frames are sent in trace order and trace ids never repeat,
                # so the acked frame's trace index is its send index
                rtt = heard[i] / US_PER_MS - self.trace.frames[ref_idx].send_time_ms
                return float(saturate_ms(rtt)), offset
        return 0.0, 0


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
            if trace.frames and not trace.frames[-1].send_time_ms <= MAX_SEND_MS:
                source = "trace_files" if config.trace_files else "video_s"
                raise ConfigError(f"{source}: flow {f} sends at "
                                  f"{trace.frames[-1].send_time_ms!r} ms, past the "
                                  f"simulator's clock of {MAX_SEND_MS!r} ms")
            self.flows[f] = _FlowRuntime(
                trace=trace,
                queue=FrameQueue(
                    beta=config.beta, ordered=self.policy.uses_weight_order,
                    revised=self.policy.uses_st, expire=config.proactive_drop,
                ),
                tracker=FlowDelayState(
                    alpha=config.ewma_alpha,
                    prior_external_ms=config.prior_external_ms,
                    n_sends=len(trace.frames),
                ),
                stats=ArrivalServiceStats(alpha=config.ewma_alpha),
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

        # the slice on the link: when it ends, its flow, and the frame it completes
        self._link_end = NEVER
        self._link_flow = -1
        self._link_frame: Optional[QueuedFrame] = None
        self._last_arrival_us = -1   # set by run()

    # -- helpers ----------------------------------------------------------

    def _interval_of(self, t_us: int) -> int:
        return max(1, -(-t_us // self.delta_us))

    def _work_remaining(self, now_us: int) -> bool:
        # a tick runs after the link end and the arrivals of its instant
        if self._link_end != NEVER or self._last_arrival_us > now_us:
            return True
        return any(len(rt.queue) for rt in self.flows.values())

    def _assert_budget(self, total_bps: float) -> None:
        if total_bps > self.link_bps * (1.0 + 1e-9):
            self.budget_violations += 1

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

    def _on_arrival(self, now_us: int, flow: int, idx: int) -> None:
        rt = self.flows[flow]
        rt.arrived += 1
        rtt_ms, ref_offset = rt.mark(idx)
        meta = rt.trace.frames[idx]
        ddl_ms = rt.wire_ddl_ms[idx]   # the option's deadline as the bottleneck reads it

        tracker = rt.tracker
        tracker.on_arrival(idx, meta.id.c, ddl_ms, rtt_ms, ref_offset)

        if rt.last_arrival_us is not None:
            rt.stats.inter_arrival.update((now_us - rt.last_arrival_us) / US_PER_S)
        rt.last_arrival_us = now_us
        rt.stats.frame_size.update(meta.size)

        # meta, t_arrival_us, ddl_ms, arrival_bound_ms, remaining, send_idx
        frame = QueuedFrame(meta, now_us, ddl_ms, tracker.bound_for(ddl_ms), meta.size, idx)
        if not rt.queue.push(frame):
            self._drop(now_us, flow, meta)
        elif self._link_end == NEVER:   # serve at once when credit is already available
            self._kick(now_us)

    def _on_link(self, now_us: int) -> None:
        """A slice finished serializing: depart the frame it completed, if any, and serve on."""
        frame = self._link_frame
        self._link_end, self._link_frame = NEVER, None
        if frame is not None:
            flow = self._link_flow
            rt = self.flows[flow]
            rt.forwarded += 1
            meta = frame.meta
            q_ms = (now_us - frame.t_arrival_us) / US_PER_MS
            rt.tracker.record_departure(frame.send_idx, q_ms)

            if rt.current_rate_bps > 0:
                rt.stats.service.update(meta.size * 8.0 / rt.current_rate_bps)

            receipt_ms = now_us / US_PER_MS + self.config.propagation_ms
            late = receipt_ms > meta.send_time_ms + meta.deadline_ms + 1e-9
            self.collector.on_forwarded(self._interval_of(now_us), flow, meta.gamma,
                                        meta.size, late)
            if self.log_events:
                fid = meta.id
                self.event_log.append((now_us, flow, fid.c, fid.m, fid.k, "fwd", q_ms))

            # the client acks each receipt; departures strictly increase in
            # time, so the log is in the order the server hears the acks
            rt.ack_heard_us.append(now_us + self.ack_lag_us)
            rt.ack_idx.append(frame.send_idx)
        self._kick(now_us)

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

    def _on_lti(self, now_us: int) -> int:
        """The long tick; returns when the next one is due."""
        self._tracker_debug(self._interval_of(now_us))
        if self.policy.uses_st:
            self._run_lt_allocation(now_us, self.config.delta_s)
        return now_us + self.delta_us if self._work_remaining(now_us) else NEVER

    def _on_sti(self, now_us: int) -> int:
        """The short tick; returns when the next one is due."""
        self._tick(self, now_us)
        if self._link_end == NEVER:
            self._kick(now_us)
        return now_us + self.tick_us if self._work_remaining(now_us) else NEVER

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
        """Serve the free link: drop expired heads until one slice goes out or none can.

        Expired heads are dropped at the instant they would otherwise be
        served, so the bound check reflects the true service time rather
        than the tick that granted the credit. A slice is at least one
        byte, so it ends after the instant it starts.
        """
        queues = self._queues
        while True:
            act = self.forwarder.next_action(queues, now_us)
            if act is None:
                return
            if type(act) is DropAction:
                self._drop(now_us, act.flow, act.frame.meta)
                continue
            flow, frame, nbytes, completed = act
            self._link_end = now_us + int(math.ceil(nbytes * 8 * US_PER_S / self.link_bps))
            self._link_flow = flow
            self._link_frame = frame if completed else None
            return

    # -- main loop ---------------------------------------------------------

    def _check_conservation(self) -> None:
        for f, rt in self.flows.items():
            on_link = self._link_frame is not None and self._link_flow == f
            outstanding = len(rt.queue) + on_link
            if rt.arrived != rt.forwarded + rt.dropped + outstanding:
                raise AssertionError(
                    f"flow {f}: arrived {rt.arrived} != forwarded {rt.forwarded} "
                    f"+ dropped {rt.dropped} + outstanding {outstanding}"
                )

    def run(self) -> RunResult:
        plan = build_arrival_plan([rt.trace for rt in self.flows.values()], self.config.seed,
                                  self.server_delay_ms, self.jitter_mean_ms)
        for f, rt in self.flows.items():
            rt.send_us, rt.wire_ddl_ms = plan.send_us[f], plan.wire_ddl_ms[f]
        arrival_us, arrival_flow, arrival_idx = plan.arrival_us, plan.arrival_flow, plan.arrival_idx
        self._last_arrival_us = arrival_us[-2] if len(arrival_us) > 1 else -1
        k = 0
        lti_us, sti_us = (self.delta_us, 0) if self.flows else (NEVER, NEVER)
        tick_us = min(lti_us, sti_us)
        on_link, on_arrival = self._on_link, self._on_arrival
        check, last = self.check_invariants, 0
        while True:
            # at one instant: the link end, the arrivals, the long tick, the short tick
            t_link, t_arrival = self._link_end, arrival_us[k]
            if t_link <= t_arrival and t_link <= tick_us:
                if t_link == NEVER:
                    break
                now = t_link
                on_link(now)
            elif t_arrival <= tick_us:
                now = t_arrival
                on_arrival(now, arrival_flow[k], arrival_idx[k])
                k += 1
            else:
                now = tick_us
                if lti_us <= sti_us:
                    lti_us = self._on_lti(now)
                else:
                    sti_us = self._on_sti(now)
                tick_us = min(lti_us, sti_us)
            if now < last:
                raise AssertionError("event time went backwards")
            last = now
            if check:
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
                    "generated": len(rt.trace.frames),   # every send is made by the end
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
