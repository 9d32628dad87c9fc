import dataclasses
import gc
import hashlib
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from vrsched.config import SimConfig
from vrsched.sim import Simulation, inject_delay, run
from vrsched.traffic import generate_trace
from vrsched.video import write_trace

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


class TestInjectDelay:
    def test_stable_is_constant(self):
        cfg = SimConfig(server_delay_ms=10.0, regime="stable")
        rng = np.random.default_rng(0)
        assert inject_delay(1000, *delay_args(cfg), rng) == 1000 + 10_000

    def test_zero_jitter_degenerates_to_stable(self):
        cfg = SimConfig(server_delay_ms=10.0, regime="unstable", jitter_mean_ms=0.0)
        rng = np.random.default_rng(0)
        assert inject_delay(1000, *delay_args(cfg), rng) == 1000 + 10_000

    def test_jitter_empirical_mean(self):
        cfg = SimConfig(server_delay_ms=0.0, regime="unstable", jitter_mean_ms=15.0)
        rng = np.random.default_rng(42)
        args = delay_args(cfg)
        extra = [inject_delay(0, *args, rng) for _ in range(100_000)]
        assert np.mean(extra) / 1000.0 == pytest.approx(15.0, rel=0.02)

    @pytest.mark.parametrize("regime,jitter_mean_ms", [
        ("stable", 15.0), ("unstable", 0.0),
    ])
    def test_no_jitter_draws_nothing(self, regime, jitter_mean_ms):
        cfg = SimConfig(regime=regime, jitter_mean_ms=jitter_mean_ms)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        inject_delay(0, *delay_args(cfg), rng)
        assert rng.bit_generator.state == state


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
            if rt.latest_mark is not None:
                _, seq = rt.latest_mark
                ref = rt.trace.frames[seq].id
                assert (f, ref.c, ref.m, ref.k) in forwarded

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
