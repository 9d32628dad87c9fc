import numpy as np
import pytest

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
