import dataclasses
import gc
import hashlib
import math
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import inject_delay, replay_arrival_order
from vrsched import traffic
from vrsched.config import ConfigError, SimConfig
from vrsched.sim import (Simulation, arrival_instants, arrival_schedule, build_arrival_plan, run,
                         wire_deadlines)
from vrsched.traffic import generate_trace
from vrsched.video import TRACE_HEADER, US_PER_MS, write_trace
from vrsched.wire import saturate_ms

GOLDEN = Path(__file__).parent / "golden"


def small_config(**kw):
    defaults = dict(n_flows=2, bitrate_mbps_min=2.0, bitrate_mbps_max=3.0,
                    video_s=6.0, bottleneck_mbps=6.0, seed=5)
    defaults.update(kw)
    return SimConfig(**defaults)


def delay_args(cfg):
    """(server delay, jitter mean) as the simulator reads them off ``cfg``."""
    sim = Simulation(dataclasses.replace(cfg, n_flows=0))
    return sim.server_delay_ms, sim.jitter_mean_ms


def arrival_plan(sim):
    """The arrival plan ``sim.run()`` builds, on the run's traces."""
    return build_arrival_plan([rt.trace for rt in sim.flows.values()], sim.config.seed,
                              sim.server_delay_ms, sim.jitter_mean_ms)


class TestInjectDelay:
    """Arrival instants drawn for a whole flow at once, as the simulator does."""

    @staticmethod
    def instants(send_us, cfg, rng):
        return arrival_instants(np.asarray(send_us, dtype=np.int64), *delay_args(cfg), rng)

    def test_stable_is_constant(self):
        cfg = SimConfig(server_delay_ms=10.0, regime="stable")
        rng = np.random.default_rng(0)
        assert self.instants([1000, 1000, 5000], cfg, rng).tolist() == [11_000, 11_000, 15_000]

    def test_zero_jitter_degenerates_to_stable(self):
        cfg = SimConfig(server_delay_ms=10.0, regime="unstable", jitter_mean_ms=0.0)
        rng = np.random.default_rng(0)
        assert self.instants([1000], cfg, rng).tolist() == [1000 + 10_000]

    def test_jitter_empirical_mean(self):
        cfg = SimConfig(server_delay_ms=0.0, regime="unstable", jitter_mean_ms=15.0)
        rng = np.random.default_rng(42)
        extra = self.instants(np.zeros(100_000), cfg, rng)
        assert extra.dtype == np.int64
        assert np.mean(extra) / 1000.0 == pytest.approx(15.0, rel=0.02)

    @pytest.mark.parametrize("regime,jitter_mean_ms", [
        ("stable", 15.0), ("unstable", 0.0),
    ])
    def test_no_jitter_draws_nothing(self, regime, jitter_mean_ms):
        cfg = SimConfig(regime=regime, jitter_mean_ms=jitter_mean_ms)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        self.instants([0, 10, 20], cfg, rng)
        assert rng.bit_generator.state == state

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        server_delay_ms=st.floats(0.0, 1000.0),
        jitter_mean_ms=st.one_of(st.just(0.0), st.floats(0.0, 1000.0)),
        gaps=st.lists(st.integers(0, 50_000), max_size=40),
    )
    def test_vector_draws_equal_one_draw_per_send(self, seed, server_delay_ms,
                                                  jitter_mean_ms, gaps):
        send_us = np.cumsum(np.array(gaps, dtype=np.int64))
        vector_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        state = vector_rng.bit_generator.state
        got = arrival_instants(send_us, server_delay_ms, jitter_mean_ms, vector_rng)
        want = [inject_delay(int(t), server_delay_ms, jitter_mean_ms, scalar_rng)
                for t in send_us]
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert vector_rng.bit_generator.state == scalar_rng.bit_generator.state
        if jitter_mean_ms == 0.0:
            assert vector_rng.bit_generator.state == state


@st.composite
def schedules(draw):
    """(send, arrival, shared): small per-flow instants, with many ties.

    Flows send on prefixes of one shared grid, as every generated trace
    does, or each draws its own, repeated instants included. Jitter is off
    (one constant delay), small integer delays (overtaking and arrival
    ties), or drawn as the simulator draws it.
    """
    n_flows = draw(st.integers(1, 4))
    instants = st.lists(st.integers(0, 4), max_size=8).map(lambda g: np.cumsum(g))
    shared = draw(st.booleans())
    if shared:
        grid = draw(instants)
        send = [grid[:draw(st.integers(0, len(grid)))] for _ in range(n_flows)]
    else:
        send = [draw(instants) for _ in range(n_flows)]
    send = [np.asarray(s, dtype=np.int64) for s in send]
    jitter = draw(st.sampled_from(["off", "small", "drawn"]))
    if jitter == "off":
        delay = draw(st.integers(0, 3))
        arrival = [s + delay for s in send]
    elif jitter == "small":
        arrival = [s + np.asarray(draw(st.lists(st.integers(0, 6), min_size=len(s),
                                                max_size=len(s))), dtype=np.int64)
                   for s in send]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        arrival = [arrival_instants(s * 1000, 1.0, 2.0, rng) for s in send]
        send = [s * 1000 for s in send]
    return send, arrival, shared


# SHA-256 of repr((event_log, lt_log, st_log)) + summary_csv() for two flows
# on offset send grids (tests/golden/offset_grid_flow*.csv), stable regime.
OFFSET_GRID_DIGESTS = {
    ("edf", 10.0): "e59a6d9cf4cd59b29f316de091c2dec2a8dd6e74ef50219321bc9e771bca4cdd",
    ("edf", 40.0): "4589703a8a35909231446d73b41b290a40dc2e4be4727a3cd17db74421ce8dc3",
    ("proposed", 10.0): "5e8f60e24883b624347f241ba8bd8db9f706c68f16f6dffaadf8d7f911075c5f",
    ("proposed", 40.0): "69eeda42c20e7a57bd95009cafaf2876f089d18283c565e7a8deb72bbb6ad91c",
    ("rr", 10.0): "eb4ed994a340a0b2fee13457aaeecd5e6251b30f54715dca58917c85e3334e20",
    ("rr", 40.0): "930285809a53f93eee7df6f39151f001cc3ded494604a9ddb29e911f002b4cd8",
}


class TestArrivalOrder:
    """Frames arrive by (instant, send instant, trace index, flow)."""

    @settings(max_examples=300, deadline=None)
    @given(schedules())
    def test_order_equals_the_event_heap_replay(self, schedule):
        # on a shared send grid, sends at one instant go by trace index,
        # then by flow, as an event heap's insertion order has them
        send, arrival, shared = schedule
        instants, flows, idxs = arrival_schedule(send, arrival)
        order = list(zip(flows.tolist(), idxs.tolist()))
        assert order == sorted(order, key=lambda fi: (arrival[fi[0]][fi[1]],
                                                      send[fi[0]][fi[1]], fi[1], fi[0]))
        if shared:
            assert order == replay_arrival_order(send, arrival)
        assert instants.tolist() == [int(arrival[f][i]) for f, i in order]

    @settings(max_examples=60, deadline=None)
    @given(n_flows=st.integers(1, 6), regime=st.sampled_from(["stable", "unstable"]),
           chunk_s=st.sampled_from([1e-5, 2e-5, 1e-4, 1e-2, 1.0]),
           n_chunks=st.integers(1, 3), jitter_mean_ms=st.sampled_from([1e-3, 0.1, 15.0]),
           seed=st.integers(0, 2**16))
    def test_generated_traces_arrive_in_event_heap_order(self, n_flows, regime, chunk_s,
                                                         n_chunks, jitter_mean_ms, seed):
        # every flow of a config sends on one grid; at chunk_s = 1e-5 or
        # 2e-5 a chunk's 30 frames are under 1 us apart, so a flow sends
        # twice in one us
        cfg = SimConfig(n_flows=n_flows, regime=regime, chunk_s=chunk_s, fps=30 / chunk_s,
                        video_s=n_chunks * chunk_s, jitter_mean_ms=jitter_mean_ms, seed=seed)
        plan = arrival_plan(Simulation(cfg))
        send = [np.asarray(s) for s in plan.send_us]
        arrival = [np.empty(len(s), dtype=np.int64) for s in send]
        order = list(zip(plan.arrival_flow, plan.arrival_idx))
        for (f, i), t in zip(order, plan.arrival_us):
            arrival[f][i] = t
        assert order == replay_arrival_order(send, arrival)

    def test_no_flows_no_arrivals(self):
        assert all(len(a) == 0 for a in arrival_schedule([], []))

    @pytest.mark.parametrize("policy,bottleneck_mbps", sorted(OFFSET_GRID_DIGESTS))
    def test_offset_grids_match_pinned_digest(self, policy, bottleneck_mbps):
        # flow 0 sends at 5, 10, 20, ... ms and flow 1 at 0, 10, 20, ... ms,
        # so from 10 ms on the two arrive together, with one trace index,
        # and flow 0 goes first
        paths = tuple(str(GOLDEN / f"offset_grid_flow{f}.csv") for f in (0, 1))
        cfg = SimConfig(n_flows=2, trace_files=paths, bottleneck_mbps=bottleneck_mbps,
                        policy=policy)
        result = run(cfg, log_events=True)
        text = repr((result.event_log, result.lt_log, result.st_log)) + result.summary_csv()
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == OFFSET_GRID_DIGESTS[(policy, bottleneck_mbps)]

    def test_flow_tie_is_not_the_rule(self):
        # flow 1 sends at 0 and 10, flow 0 at 5 and 10: at 10 both send
        # their second frame, so the flow breaks the tie, not which flow's
        # previous send was made first
        send = [np.array([5, 10]), np.array([0, 10])]
        _, flows, idxs = arrival_schedule(send, [s + 10 for s in send])
        assert list(zip(flows.tolist(), idxs.tolist())) == [(1, 0), (0, 0), (0, 1), (1, 1)]


class TestRuns:
    def test_zero_flows_terminates_immediately(self):
        result = run(SimConfig(n_flows=0))
        assert result.summary["intervals"] == 0
        assert result.summary["frames_fwd"] == 0

    def test_uncongested_run_is_lossless(self):
        cfg = SimConfig(n_flows=1, bitrate_mbps_min=2.5, bitrate_mbps_max=2.5,
                        bottleneck_mbps=25.0, video_s=10.0)
        result = run(cfg, check_invariants=True)
        assert result.summary["total_quality_loss"] == 0.0
        assert result.summary["avg_drop_rate"] == 0.0
        assert result.summary["frames_fwd"] == 300

    def test_flow_conservation_under_congestion(self):
        cfg = small_config(bottleneck_mbps=3.0)  # offered 5 Mbps
        result = run(cfg, check_invariants=True)
        for counters in result.flow_counters.values():
            assert counters["generated"] == counters["arrived"]
            assert (counters["forwarded"] + counters["dropped"]
                    == counters["generated"])

    def test_same_seed_is_byte_identical(self):
        cfg = small_config(regime="unstable")
        a = run(cfg)
        b = run(cfg)
        assert a.metrics_csv() == b.metrics_csv()
        assert a.summary == b.summary

    def test_different_seeds_differ(self):
        a = run(small_config(seed=1))
        b = run(small_config(seed=2))
        assert a.metrics_csv() != b.metrics_csv()

    def test_budget_safety_counter_clean(self):
        for policy in ("proposed", "rr", "single-ts-500"):
            result = run(small_config(policy=policy, bottleneck_mbps=3.0))
            assert result.budget_violations == 0

    def test_single_ts_never_invokes_short_timescale(self):
        result = run(small_config(policy="single-ts-500"))
        assert result.st_invocations == 0
        assert run(small_config(policy="proposed")).st_invocations > 0

    def test_client_feedback_tracks_external_delay(self):
        # stable path: server 10 ms + propagation 5 ms + ack 15 ms = 30 ms
        cfg = SimConfig(n_flows=1, bitrate_mbps_min=1.0, bitrate_mbps_max=1.0,
                        bottleneck_mbps=50.0, video_s=8.0)
        sim = Simulation(cfg)
        sim.run()
        tracker = sim.flows[0].tracker
        assert tracker.matched_marks > 100
        assert tracker.unmatched_marks == 0
        assert tracker.net_state_ms == pytest.approx(30.0, abs=2.0)

    def test_dropped_frames_produce_no_marks(self):
        # slam the link so plenty of frames drop; drops must never ack
        cfg = small_config(bottleneck_mbps=1.0)
        sim = Simulation(cfg, log_events=True)
        result = sim.run()
        assert result.summary["frames_dropped"] > 0
        dropped = {(e[1], e[2], e[3], e[4]) for e in result.event_log
                   if e[5] == "drop"}
        forwarded = {(e[1], e[2], e[3], e[4]) for e in result.event_log
                     if e[5] == "fwd"}
        assert not dropped & forwarded
        for f, rt in sim.flows.items():
            assert rt.ack_idx
            for seq in rt.ack_idx:   # heard, or still on its way back
                ref = rt.trace.frames[seq].id
                assert (f, ref.c, ref.m, ref.k) in forwarded

    @pytest.mark.parametrize("policy", ["edf", "proposed"])
    def test_ack_heard_at_a_send_instant_comes_after_the_send(self, tmp_path, policy):
        # Frame 1 arrives at 10 ms, takes 1 ms on the 8 Mbps link, and its
        # ack reaches the server 5 + 15 ms later, at exactly 31 ms. The send
        # at 31 ms must not carry it; the send at 32 ms does.
        path = tmp_path / "flow0.csv"
        path.write_text(TRACE_HEADER + "\n"
                        "0,1,1,1,1000,0.5,1000.0,0.0\n"
                        "0,1,1,2,1000,0.5,999.0,31.0\n"
                        "0,1,1,3,1000,0.5,998.0,32.0\n")
        cfg = SimConfig(n_flows=1, trace_files=(str(path),), bottleneck_mbps=8.0,
                        policy=policy)
        sim = Simulation(cfg)
        result = sim.run()
        assert result.summary["frames_fwd"] == 3
        tracker = sim.flows[0].tracker
        assert tracker.matched_marks == 1
        assert tracker.unmatched_marks == 0
        assert tracker.net_state_ms == 30.0   # 31 ms RTT less 1 ms queued

    def test_overtaken_sends_keep_their_marks(self):
        # jitter lets a frame overtake earlier sends of its flow; each send's
        # mark is still the latest ack heard before it was made
        cfg = small_config(regime="unstable", jitter_mean_ms=40.0, bottleneck_mbps=4.0)
        sim = Simulation(cfg)
        marks = {f: [] for f in sim.flows}

        def recording(f, mark):
            def wrapper(idx):
                result = mark(idx)
                marks[f].append((idx, result))
                return result
            return wrapper

        for f, rt in sim.flows.items():
            rt.mark = recording(f, rt.mark)
        result = sim.run()
        # marks are made in arrival order: a send marked after a later one was overtaken
        assert any(a > b for m in marks.values() for (a, _), (b, _) in zip(m, m[1:]))
        for f, rt in sim.flows.items():
            # every send is marked once, at its frame's arrival
            assert sorted(i for i, _ in marks[f]) == list(range(len(rt.trace.frames)))
            log = list(zip(rt.ack_heard_us, rt.ack_idx))
            for idx, got in marks[f]:
                expected = (0.0, 0)
                before = [a for a in log if a[0] < rt.send_us[idx]]
                if before:
                    heard_at_us, ref_idx = before[-1]
                    if 1 <= idx - ref_idx <= 255:
                        rtt = heard_at_us / US_PER_MS - rt.trace.frames[ref_idx].send_time_ms
                        expected = (float(saturate_ms(rtt)), idx - ref_idx)
                assert got == expected
        # the conservation check runs after every event
        checked = Simulation(cfg, check_invariants=True).run()
        assert checked.summary_csv() == result.summary_csv()
        for f, rt in sim.flows.items():
            counters = checked.flow_counters[f]
            assert counters["generated"] == counters["arrived"] == len(rt.trace.frames)
            assert counters["forwarded"] + counters["dropped"] == counters["generated"]

    def test_edf_single_flow_serves_in_fifo_order(self):
        cfg = small_config(n_flows=1, bitrate_mbps_min=2.0, bitrate_mbps_max=2.0,
                           bottleneck_mbps=10.0, policy="edf")
        result = run(cfg, log_events=True)
        fwd_events = [e for e in result.event_log if e[5] == "fwd"]
        ids = [(e[2], e[3], e[4]) for e in fwd_events]
        trace = Simulation(cfg).flows[0].trace
        sent = [(f.id.c, f.id.m, f.id.k) for f in trace.frames]
        assert ids == [s for s in sent if s in set(ids)]

    def test_unstable_marks_still_match(self):
        cfg = small_config(regime="unstable", video_s=8.0)
        sim = Simulation(cfg)
        result = sim.run()
        total_matched = sum(rt.tracker.matched_marks for rt in sim.flows.values())
        assert total_matched > 100
        assert result.summary["unmatched_marks"] < total_matched * 0.1

    def test_metrics_grid_is_complete(self):
        result = run(small_config())
        rows = result.collector.rows()
        n = result.collector.n_intervals
        assert len(rows) == n * 2
        header = result.metrics_csv().splitlines()[0]
        assert header.startswith("n,flow,quality_loss")


class TestClockRange:
    """Send instants past the int64 microsecond clock are refused, not wrapped."""

    def test_trace_file_send_past_the_clock(self, tmp_path):
        path = tmp_path / "flow0.csv"
        path.write_text(TRACE_HEADER + "\n0,1,1,1,1000,0.5,1000.0,1e300\n")
        with pytest.raises(ConfigError, match="trace_files: flow 0 sends at 1e[+]300 ms"):
            Simulation(SimConfig(n_flows=1, trace_files=(str(path),)))

    def test_generated_send_past_the_clock(self):
        # one 6-frame chunk lasting 1e300 s, at a bitrate that keeps it small
        cfg = SimConfig(n_flows=1, video_s=1e300, chunk_s=1e300, fps=6e-300,
                        bitrate_mbps_min=1e-295, bitrate_mbps_max=1e-295)
        with pytest.raises(ConfigError, match="video_s: flow 0 sends at"):
            Simulation(cfg)

    def test_last_send_on_the_clock_runs(self, tmp_path):
        path = tmp_path / "flow0.csv"
        path.write_text(TRACE_HEADER + "\n0,1,1,1,1000,0.5,1000.0,0.0\n")
        result = run(SimConfig(n_flows=1, trace_files=(str(path),)))
        assert result.flow_counters[0]["forwarded"] == 1


class TestEveryRunEnds:
    """A backlogged flow that has not yet been served is sized from its arrivals.

    Carrying its previous rate forward instead let every overloaded interval
    scale that rate down again, so a flow whose first frame stayed pinned
    never got the service sample that would size it.
    """

    @staticmethod
    def termination_bound(cfg):
        """Intervals to send the last frame, let it reach its deadline and drain."""
        lead_s = cfg.request_lead_chunks * cfg.chunk_s
        return math.ceil((cfg.video_s + 2 * lead_s + 5.0) / cfg.delta_s)

    def test_starved_flow_keeps_a_rate(self):
        cfg = SimConfig(n_flows=40, video_s=10.0, bottleneck_mbps=40.0, seed=2452642389)
        result = run(cfg, check_invariants=True)
        assert result.summary["intervals"] <= self.termination_bound(cfg)
        assert result.flow_counters[39]["forwarded"] > 0

    def test_many_flows_on_a_thin_link_do_not_stall(self):
        cfg = SimConfig(n_flows=60, video_s=3.0, bottleneck_mbps=25.0, seed=1)
        result = run(cfg, check_invariants=True)
        assert result.summary["intervals"] <= self.termination_bound(cfg)


class TestGoldenMetrics:
    def test_reference_run_regression(self):
        cfg = SimConfig(bottleneck_mbps=25.0, policy="proposed", seed=42)
        result = run(cfg)
        golden = (GOLDEN / "metrics_b25_proposed_seed42.csv").read_text()
        assert result.metrics_csv() == golden


# SHA-256 of summary_csv() + metrics_csv() for every policy on a small,
# congested config (4 flows offering about 13 Mbps on 10 Mbps), so each
# policy's tick and kick has a byte-level guard of its own.
POLICY_DIGESTS = {
    ("edf", "stable", False): "dfbee4e028ce25f5f8c8f4efc8e9237cf4686c35083425f87fad82f4202bc487",
    ("edf", "stable", True): "92ff37cb65a364f0adad2f223aa91a45962fce2c23c341fa762618c4ae58af91",
    ("edf", "unstable", True): "5e7af2ba394c71f5dd328430189a0c456acbc41cad0f28cec48d0fb59016141a",
    ("no-order", "stable", False): "1c461a0bc23b3c66b7651260b90e77c2d7eb18a29456799d2ba74cb680ecd5d6",
    ("no-order", "stable", True): "8dc0863244850ffd1d568ade25a9048fb519550f3a3bde4f9db0b4439c6740c1",
    ("no-order", "unstable", False): "bc2f97cc8efa74ead76ae5812e8405c35177379042b6488a2ff550971d5f23e3",
    ("no-order", "unstable", True): "700804adca06e1e9a525ffedd0867b2128161352977ed6f86ecf167d19989c56",
    ("proposed", "stable", False): "1f924eacfc1af041d4a777ba743b9e190721ef335d0c046c7489c78129193591",
    ("proposed", "stable", True): "b321b5cb6f7d446e0889d07606329ecbc713716f9ed49b3e944cf8ffd82d9f2f",
    ("proposed", "unstable", False): "7b94f60237c976c83500f6fded2b7e5f1935cc0a03a209723e00d1c320bbc71e",
    ("proposed", "unstable", True): "4cb272b1d71b94ab56ae69fa5a7cb766ed3a3064283f60bd027009a59a71fe85",
    ("rr", "stable", False): "9a40d184ec8628983d33186a202c02d75074c74918fe590001ed851f2ebe8c65",
    ("rr", "stable", True): "bcba543a239a67ab71db1b36da943f2f261fbc7a81b16bb6fa82c3ccd57f2560",
    ("rr", "unstable", True): "016daffc3a8dc7ee37bdab0397b74b529d2354851ebcaf9d0998de5601228ea0",
    ("single-ts-1000", "stable", False): "d5d2e6dd54badcb4f6666a03a7776e67b173612c95031af9f10050031bd769fd",
    ("single-ts-1000", "stable", True): "6be051c8245db29a58cf0b89fbc0145dc4b2b39ccc77a249cf500d5532c79d15",
    ("single-ts-1000", "unstable", False): "fe9d2201335004d12e601cba8d112d08ac688c66c03b13c202817d0687948640",
    ("single-ts-1000", "unstable", True): "d093ef1a171c7469d3e9188bea55c33db4fb24ec2df439bdf46a6ad17da1d731",
    ("single-ts-50", "stable", False): "2df70de93ccf72170ff410c6aa3f3df732ca5ac579599e463505b139e5eced59",
    ("single-ts-50", "stable", True): "24521129d30455897cdaa9a9bd83e52746c77e870a37022322c8976bf115242f",
    ("single-ts-50", "unstable", False): "6fad2388b8cc3924cf49a0a52a119ed02fb4b24d292cb703642b77d4c785c5cd",
    ("single-ts-50", "unstable", True): "d715bf8f8dcf26c066aa20b8fbcc5f7dc8f23c4d106db06f0dcf91f834521178",
    ("single-ts-500", "stable", True): "9746d6733b81041b4ea7c03c2c121c74435ea787e207b7446f971f186b05791e",
    ("single-ts-500", "unstable", True): "c9014a5d77301138cf95c17e8d387ef8d654f639eb6f4cd707ea4db873013260",
}


# SHA-256 of repr((event_log, lt_log, st_log)) of the same runs with
# log_events=True: the order and timing of every drop and forward, and
# every LT and ST decision, so a reordering of per-frame events that
# leaves the summary and metrics unchanged still shows.
LOG_DIGESTS = {
    ("edf", "stable", False): "5b842633984365e7eb682e059d714e9072fc098a9613aa07c5d4f053ca98af99",
    ("edf", "stable", True): "98e174973ea1beba942daed50167bb0864f021d43d0db7cc0cb8993b1aaa1299",
    ("edf", "unstable", True): "374b4fad95ddf8516239ffe4546a36d8754e48f865fb80a5d511f38fb82188ed",
    ("no-order", "stable", False): "1049cce27acd80874a36e45964654a235be3edbce4b35ee41f3df581894a7913",
    ("no-order", "stable", True): "b91ff2a382d3353fe3a0f3ae91beab3e2005a56983795fc2b8325e2e575b6de6",
    ("no-order", "unstable", False): "d49fa46fec89cd431a6656f0c3296e392a617edd36293efa91bd6d8a0a8ad22a",
    ("no-order", "unstable", True): "8c8287550ce30de65e0217fbd0b385f9c7359250c7ec5d231a0c2e2c69c9f61b",
    ("proposed", "stable", False): "43009d8067cc8c5fbc18baf623efefce68564e052bae83dad5b524844f68a15a",
    ("proposed", "stable", True): "4dd0c6375640fc1e074d4e7cc522e841a4a8453db471998cbad57dc61b6ceb81",
    ("proposed", "unstable", False): "20ffb91400dc142b0220d4ed2c5f741f81c96ddb491609412cc9423f069ff711",
    ("proposed", "unstable", True): "d88f5e76eeba49bdb49906003234f33a79cd0fc83ed6cfaa76268dda1ddc923d",
    ("rr", "stable", False): "1034b4067f2090abedbfb44cf02e914603ec438fc873ef8865da173a762e1d3d",
    ("rr", "stable", True): "b08afb9ece81248d672ed75a14410ae205fc5bbba0c895fff586a6478b686b2d",
    ("rr", "unstable", True): "0521375ddbb2611fa9726f6ed256b72cea8cacd814d0ef29f4256d6ad86c0900",
    ("single-ts-1000", "stable", False): "48f8a0d25fb3157120689070c3ae6a8a5a91a9bca8dcef9f0008e0841afe249e",
    ("single-ts-1000", "stable", True): "32aaf6bfa80cf1d02e602793000b0c8b34395963794b3ed8312b2ca1aaa29436",
    ("single-ts-1000", "unstable", False): "06f4fe5a941731d65cbc7265bf0db2b73f3c78a9c8da849c23990193a74f22af",
    ("single-ts-1000", "unstable", True): "0ad1fd481a96fd366197ec9295f2469fcb2e217c3e3a05595c86ae31d7771136",
    ("single-ts-50", "stable", False): "5f2dd75b011701643a900c40955ca3b8fb9f39e0d76a0853cd77e0d6628c42cf",
    ("single-ts-50", "stable", True): "19ffe326d8ae6f6f7e6e511c0a2fbd15f527452102e95f41f1874f42cf4b9b2e",
    ("single-ts-50", "unstable", False): "1625eaeb64d7ad713247eb8ac87e021f705b816e743198e9e2f8695b70bd625a",
    ("single-ts-50", "unstable", True): "1ba4ebd889ec644358ed357472ea805c34cc471acd55f63a3c5b97437d76dd16",
    ("single-ts-500", "stable", True): "4feae0a3d7f6e213afd56200725448fb322bd828d1452a758931b4af6fb79405",
    ("single-ts-500", "unstable", True): "ffadebf9c79dfd1aecf72a67f5ab0ba8b7084ce47c6d9d67275481d4e3ce474b",
}


def _digest_config(policy, regime, proactive_drop):
    return SimConfig(n_flows=4, video_s=6.0, bottleneck_mbps=10.0, policy=policy,
                     regime=regime, proactive_drop=proactive_drop)


class TestPolicyDigests:
    @pytest.mark.parametrize("policy,regime,proactive_drop", sorted(POLICY_DIGESTS))
    def test_outputs_match_pinned_digest(self, policy, regime, proactive_drop):
        result = run(_digest_config(policy, regime, proactive_drop))
        digest = hashlib.sha256(
            (result.summary_csv() + result.metrics_csv()).encode()
        ).hexdigest()
        assert digest == POLICY_DIGESTS[(policy, regime, proactive_drop)]

    @pytest.mark.parametrize("policy,regime,proactive_drop", sorted(LOG_DIGESTS))
    def test_logs_match_pinned_digest(self, policy, regime, proactive_drop):
        result = run(_digest_config(policy, regime, proactive_drop), log_events=True)
        logs = repr((result.event_log, result.lt_log, result.st_log))
        digest = hashlib.sha256(logs.encode()).hexdigest()
        assert digest == LOG_DIGESTS[(policy, regime, proactive_drop)]


class TestTraceFileRoundTrip:
    # The simulator takes a frame's send index from its position in the
    # trace; a trace written to files and read back must run the same.
    @pytest.mark.parametrize("regime", ["stable", "unstable"])
    @pytest.mark.parametrize("policy", ["proposed", "rr", "edf", "single-ts-50"])
    def test_file_traces_run_like_generated_ones(self, tmp_path, policy, regime):
        cfg = _digest_config(policy, regime, True)
        paths = []
        for f in range(cfg.n_flows):
            paths.append(str(tmp_path / f"flow{f}.csv"))
            write_trace(generate_trace(cfg.trace_params(f), cfg.seed), paths[-1])
        generated = run(cfg, log_events=True)
        from_files = run(dataclasses.replace(cfg, trace_files=tuple(paths)), log_events=True)
        assert generated.event_log
        assert from_files.summary_csv() == generated.summary_csv()
        assert from_files.metrics_csv() == generated.metrics_csv()
        assert from_files.event_log == generated.event_log
        assert from_files.lt_log == generated.lt_log
        assert from_files.st_log == generated.st_log


class TestLifetime:
    @pytest.mark.parametrize("policy", ["proposed", "rr", "edf", "single-ts-50"])
    def test_finished_simulation_is_freed_without_cyclic_gc(self, policy):
        # A reference cycle through the instance (say, a bound method stored
        # on it) would keep every finished run's frames alive until the
        # cyclic collector runs.
        sim = Simulation(small_config(policy=policy, video_s=2.0))
        sim.run()
        ref = weakref.ref(sim)
        gc.disable()
        try:
            del sim
            assert ref() is None
        finally:
            gc.enable()


ALL_POLICIES = ("proposed", "rr", "edf", "no-order",
                "single-ts-1000", "single-ts-500", "single-ts-50")


@pytest.fixture
def empty_caches(monkeypatch):
    monkeypatch.setattr(traffic, "_TRACE_CACHE", {})


@pytest.mark.usefixtures("empty_caches")
class TestArrivalPlan:
    """Each run builds its own arrival plan on its seed's shared traces."""

    def test_another_seed_frees_the_old_traces_first(self, monkeypatch):
        sim = Simulation(small_config(seed=3))
        sim.run()
        refs = [weakref.ref(rt.trace) for rt in sim.flows.values()]
        del sim
        gc.collect()
        assert all(ref() is not None for ref in refs)   # the cache holds them
        alive = []

        def checking(params, seed):
            gc.collect()
            alive.append([ref() is not None for ref in refs])
            return generate_trace(params, seed)

        monkeypatch.setattr(traffic, "generate_trace", checking)
        Simulation(small_config(seed=4)).run()
        assert alive == [[False] * len(refs)] * 2   # the old seed was gone before each trace

    def test_a_cached_seed_makes_only_jitter_generators(self, monkeypatch):
        run(small_config(policy="proposed", regime="unstable"))
        made = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            made.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        n_flows = small_config().n_flows
        run(small_config(policy="edf", regime="unstable", bottleneck_mbps=8.0))
        assert len(made) == n_flows   # jitter per flow
        made.clear()
        run(small_config(policy="edf", regime="unstable", seed=6))
        assert len(made) == 3 * n_flows   # sizes, walk and jitter per flow

    @pytest.mark.parametrize("regime", ["stable", "unstable"])
    def test_policy_outputs_do_not_depend_on_run_order(self, regime):
        configs = [small_config(policy=p, regime=regime, video_s=3.0, n_flows=3,
                                bottleneck_mbps=7.0)
                   for p in ALL_POLICIES]

        def digests(cfgs, fresh):
            out = {}
            for cfg in cfgs:
                if fresh:
                    traffic.clear_caches()
                result = run(cfg)
                text = result.summary_csv() + result.metrics_csv()
                out[cfg.policy] = hashlib.sha256(text.encode()).hexdigest()
            return out

        forward = digests(configs, fresh=False)
        assert digests(configs[::-1], fresh=False) == forward
        assert digests(configs, fresh=True) == forward
        assert len(set(forward.values())) == len(ALL_POLICIES)


# finite doubles, with the cases the wire's rounding and clamping turn on
deadlines = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.0, 2.0),
    st.floats(65_530.0, 65_540.0),
    st.integers(-70_000, 70_000).map(lambda i: i + 0.5),   # exact ties
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.5, 65_534.5, 65_535.5, 65_536.0]),
)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


class TestWireDeadlines:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(deadlines, max_size=40))
    def test_equal_saturate_ms_bit_for_bit(self, values):
        got = wire_deadlines(np.array(values, dtype=np.float64))
        assert _bits(got.tolist()) == _bits(float(saturate_ms(d)) for d in values)

    def test_plan_column_is_each_frames_wire_deadline(self):
        sim = Simulation(small_config(regime="unstable"))
        plan = arrival_plan(sim)
        for f, rt in sim.flows.items():
            want = [float(saturate_ms(m.deadline_ms)) for m in rt.trace.frames]
            assert _bits(plan.wire_ddl_ms[f]) == _bits(want)
