import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_trace, reference_walk
from vrsched import traffic
from vrsched.cli import sweep_grid
from vrsched.config import SimConfig
from vrsched.sim import Simulation
from vrsched.traffic import (
    TraceParams,
    gamma_frame_sizes,
    generate_trace,
    viewing_probability_walk,
)
from vrsched.video import two_layer_gop


class TestFrameSizes:
    def test_empirical_moments_match_configuration(self):
        rng = np.random.default_rng(7)
        mean, shape, n = 10000.0, 4.0, 100_000
        sizes = gamma_frame_sizes(rng, mean, shape, n)
        assert sizes.mean() == pytest.approx(mean, rel=0.01)
        cv = sizes.std() / sizes.mean()
        assert cv == pytest.approx(1 / np.sqrt(shape), rel=0.03)

    def test_sizes_are_positive_integers(self):
        rng = np.random.default_rng(3)
        sizes = gamma_frame_sizes(rng, 5.0, 0.5, 10_000)
        assert sizes.min() >= 1

    def test_huge_shape_degenerates_to_deterministic(self):
        rng = np.random.default_rng(3)
        sizes = gamma_frame_sizes(rng, 10000.0, 1e9, 1000)
        assert sizes.max() - sizes.min() <= 2  # variance collapses to rounding
        assert sizes.std() / sizes.mean() < 1e-4


class TestViewingWalk:
    def test_center_tile_has_probability_one(self):
        rng = np.random.default_rng(0)
        probs = viewing_probability_walk(20, 4, 6, rng, decay=0.5)
        for chunk in probs:
            assert max(chunk.values()) == pytest.approx(1.0)
            assert all(0.0 < p <= 1.0 for p in chunk.values())

    def test_uniform_mode_is_flat(self):
        rng = np.random.default_rng(0)
        probs = viewing_probability_walk(5, 4, 6, rng, uniform=True)
        for chunk in probs:
            assert set(chunk.values()) == {1.0}
            assert set(chunk) == set(range(1, 25))

    def test_center_moves_at_most_one_tile_per_chunk(self):
        rng = np.random.default_rng(11)
        cols = 6
        probs = viewing_probability_walk(40, 4, cols, rng, decay=0.5)
        centers = [max(chunk, key=chunk.get) for chunk in probs]
        for a, b in zip(centers, centers[1:]):
            ra, ca = divmod(a - 1, cols)
            rb, cb = divmod(b - 1, cols)
            dc = abs(ca - cb)
            assert abs(ra - rb) <= 1
            assert min(dc, cols - dc) <= 1


class TestGenerateTrace:
    def test_mean_frame_size_matches_bitrate_over_framerate(self):
        # 2.5 Mbps at 30 fps -> 10417 bytes per frame on average
        sizes = []
        for flow in range(12):
            params = TraceParams(flow=flow, bitrate_bps=2.5e6)
            trace = generate_trace(params, seed=100 + flow)
            sizes.extend(f.size for f in trace.frames)
        assert len(sizes) >= 10_000
        assert np.mean(sizes) == pytest.approx(10417.0, rel=0.03)

    def test_structure_counts(self):
        params = TraceParams()
        trace = generate_trace(params, seed=1)
        assert {f.id.c for f in trace.frames} == set(range(1, 31))
        assert len(trace.frames) == 30 * 30  # fps * chunk_s frames per chunk
        per_chunk = {}
        for f in trace.frames:
            per_chunk.setdefault(f.id.c, set()).add(f.id.m)
        assert all(len(tiles) == params.gops_per_chunk for tiles in per_chunk.values())

    def test_same_seed_identical_trace(self):
        a = generate_trace(TraceParams(flow=2), seed=9)
        b = generate_trace(TraceParams(flow=2), seed=9)
        assert a.frames == b.frames

    def test_different_seed_differs(self):
        a = generate_trace(TraceParams(flow=2), seed=9)
        b = generate_trace(TraceParams(flow=2), seed=10)
        assert a.frames != b.frames

    def test_send_times_strictly_increase(self):
        trace = generate_trace(TraceParams(), seed=4)
        sends = [f.send_time_ms for f in trace.frames]
        assert all(a < b for a, b in zip(sends, sends[1:]))

    def test_importance_consistent_with_tile_probability(self):
        params = TraceParams()
        trace = generate_trace(params, seed=5)
        gop = two_layer_gop(params.gop_size)
        for f in trace.frames[:600]:
            p = trace.viewing_prob[f.id.c][f.id.m]
            expected = p * gop.dependents[f.id.k] / params.gop_size
            assert f.gamma == pytest.approx(expected)

    def test_deadlines_follow_send_offsets(self):
        params = TraceParams()
        trace = generate_trace(params, seed=5)
        lead_ms = params.request_lead_chunks * params.chunk_s * 1000.0
        by_chunk = {}
        for f in trace.frames:
            by_chunk.setdefault(f.id.c, []).append(f)
        for c, frames in by_chunk.items():
            first = min(f.send_time_ms for f in frames)
            for f in frames:
                assert f.deadline_ms == pytest.approx(
                    lead_ms - (f.send_time_ms - first)
                )

    def test_viewing_prob_is_read_only(self):
        trace = generate_trace(TraceParams(), seed=5)
        with pytest.raises(TypeError):
            trace.viewing_prob[1] = {}
        with pytest.raises(TypeError):
            trace.viewing_prob[1][1] = 0.0

    def test_gop_must_divide_chunk(self):
        with pytest.raises(ValueError):
            TraceParams(gop_size=7).validate()

    def test_bad_bitrate_rejected(self):
        with pytest.raises(ValueError):
            TraceParams(bitrate_bps=0).validate()

    def test_i_frames_are_larger_on_average(self):
        trace = generate_trace(TraceParams(flow=1, i_frame_ratio=3.0), seed=2)
        i_sizes = [f.size for f in trace.frames if f.id.k == 1]
        p_sizes = [f.size for f in trace.frames if f.id.k > 1]
        assert np.mean(i_sizes) > 2.0 * np.mean(p_sizes)


class TestWireRanges:
    """Every chunk, tile and GoP position id a trace can hold fits the wire."""

    @pytest.mark.parametrize("fields,names", [
        (dict(video_s=1e308), "video_s/chunk_s"),
        (dict(video_s=1.0, chunk_s=5e-324), "video_s/chunk_s"),
        (dict(video_s=65536.0), "video_s/chunk_s"),
        (dict(fps=1e308, chunk_s=10.0), "fps/chunk_s"),
        (dict(tile_rows=16, tile_cols=16), "tile_rows/tile_cols"),
        (dict(gop_size=256, fps=256.0), "gop_size"),
        (dict(gop_size=0), "gop_size"),
        (dict(bitrate_bps=math.nan), "bitrate_bps"),
        (dict(bitrate_bps=math.inf), "bitrate_bps"),
        (dict(bitrate_bps=1e300), "bitrate_bps/chunk_s"),
        (dict(i_frame_ratio=math.nan), "i_frame_ratio"),
        (dict(gamma_shape=math.nan), "gamma_shape"),
        (dict(gamma_shape=1e-320), "gamma_shape"),
        (dict(uplink_ms=math.nan), "uplink_ms"),
        (dict(uplink_ms=math.inf), "uplink_ms"),
        (dict(uplink_ms=-1.0), "uplink_ms"),
    ], ids=["huge-video", "infinite-chunk-count", "one-chunk-too-many",
            "infinite-frame-count", "256-tiles", "gop-of-256", "gop-of-0",
            "nan-bitrate", "infinite-bitrate", "chunk-past-max-bytes", "nan-i-frame-ratio",
            "nan-gamma-shape", "gamma-scale-past-max-bytes", "nan-uplink", "infinite-uplink",
            "negative-uplink"])
    def test_rejected_naming_the_fields(self, fields, names):
        with pytest.raises(ValueError, match=f"^{names}:"):
            TraceParams(**fields).validate()

    def test_largest_ids_accepted(self):
        TraceParams(video_s=65535.0, tile_rows=15, tile_cols=17).validate()
        TraceParams(gop_size=254, fps=254.0).validate()


@st.composite
def trace_params(draw):
    """Small traces over every generator knob; an odd gop size is rejected."""
    gop_size = draw(st.integers(2, 8))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    chunk_s = draw(st.sampled_from([0.25, 1 / 3, 0.5, 1.0, 2.0]))
    frames_per_chunk = gop_size * draw(st.integers(1, rows * cols))
    return TraceParams(
        flow=draw(st.integers(0, 63)),
        bitrate_bps=draw(st.floats(1e4, 1e8)),
        video_s=chunk_s * draw(st.integers(1, 6)),
        fps=frames_per_chunk / chunk_s,
        chunk_s=chunk_s,
        tile_rows=rows,
        tile_cols=cols,
        gop_size=gop_size,
        i_frame_ratio=draw(st.floats(1.0, 10.0)),
        gamma_shape=draw(st.floats(0.05, 100.0)),
        request_lead_chunks=draw(st.integers(1, 4)),
        uplink_ms=draw(st.floats(0.0, 1e4)),
        walk_decay=draw(st.floats(1e-300, 0.999)),
        uniform_attention=draw(st.booleans()),
        importance_counts_self=draw(st.booleans()),
    )


def exact(trace):
    """Every field of every frame and every tile probability, by type and repr."""
    frames = [
        [(type(v), repr(v)) for v in (f, f.id, *f.id, f.size, f.gamma, f.deadline_ms,
                                     f.send_time_ms)]
        for f in trace.frames
    ]
    probs = {c: [(m, type(p), repr(p)) for m, p in chunk.items()]
             for c, chunk in trace.viewing_prob.items()}
    return trace.flow, frames, probs


class TestMatchesReference:
    """The column generator gives the per-frame loop's trace, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(params=trace_params(), seed=st.integers(0, 2**32 - 1))
    def test_generate_trace_equals_the_per_frame_loop(self, params, seed):
        try:
            want = reference_trace(params, seed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                generate_trace(params, seed)
            return
        assert exact(generate_trace(params, seed)) == exact(want)

    @given(n_chunks=st.integers(1, 20), rows=st.integers(1, 6), cols=st.integers(1, 9),
           decay=st.floats(1e-300, 0.999), uniform=st.booleans(), seed=st.integers(0, 999))
    def test_walk_equals_the_per_tile_loop(self, n_chunks, rows, cols, decay, uniform, seed):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = viewing_probability_walk(n_chunks, rows, cols, got_rng, decay, uniform)
        want = reference_walk(n_chunks, rows, cols, want_rng, decay, uniform)
        assert [[(m, repr(p)) for m, p in c.items()] for c in got] == \
            [[(m, repr(p)) for m, p in c.items()] for c in want]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


SMALL = dict(n_flows=3, bitrate_mbps_min=2.0, bitrate_mbps_max=3.0,
             video_s=2.0, bottleneck_mbps=6.0)


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(traffic, "_TRACE_CACHE", {})


@pytest.mark.usefixtures("empty_cache")
class TestTraceCache:
    def test_runs_of_one_seed_share_their_traces(self):
        a = Simulation(SimConfig(**SMALL, policy="proposed", seed=3))
        b = Simulation(SimConfig(**{**SMALL, "bottleneck_mbps": 9.0}, policy="rr",
                                 regime="unstable", seed=3))
        for f in a.flows:
            assert a.flows[f].trace is b.flows[f].trace

    def test_another_seed_evicts_the_old_traces(self):
        sim = Simulation(SimConfig(**SMALL, seed=3))
        refs = [weakref.ref(rt.trace) for rt in sim.flows.values()]
        del sim
        gc.collect()
        assert all(ref() is not None for ref in refs)  # the cache holds them
        Simulation(SimConfig(**SMALL, seed=4))
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_sweep_builds_each_trace_once(self, monkeypatch):
        calls = []

        def counting(params, seed):
            calls.append((params.flow, seed))
            return generate_trace(params, seed)

        monkeypatch.setattr(traffic, "generate_trace", counting)
        sweep_grid(SimConfig(**SMALL), [6.0], ["proposed", "rr"], [1, 2])
        assert sorted(calls) == [(f, s) for f in range(3) for s in (1, 2)]
