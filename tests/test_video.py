import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from vrsched.video import (
    TRACE_HEADER,
    FlowTrace,
    FrameId,
    FrameMeta,
    GopStructure,
    chunk_deadline,
    frame_deadline,
    importance,
    read_trace,
    two_layer_gop,
    write_trace,
)


class TestImportance:
    def test_i_frame(self):
        gop = two_layer_gop(8)
        assert importance(0.8, 1, gop) == pytest.approx(0.7)

    def test_leaf_is_zero(self):
        gop = two_layer_gop(8)
        assert importance(0.5, 8, gop) == 0.0

    def test_three_dependents(self):
        gop = GopStructure(8, {1: 7, 2: 3, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0})
        assert importance(1.0, 2, gop) == pytest.approx(0.375)

    def test_out_of_range_position(self):
        gop = two_layer_gop(8)
        with pytest.raises(ValueError):
            importance(0.5, 0, gop)
        with pytest.raises(ValueError):
            importance(0.5, 9, gop)

    def test_count_self_knob(self):
        gop = two_layer_gop(8)
        assert importance(0.5, 8, gop, count_self=True) == pytest.approx(0.5 / 8)
        assert importance(1.0, 1, gop, count_self=True) == pytest.approx(1.0)

    @given(
        p=st.floats(min_value=0.001, max_value=1.0),
        k=st.integers(min_value=1, max_value=8),
    )
    def test_bounded_by_viewing_probability(self, p, k):
        gop = two_layer_gop(8)
        assert importance(p, k, gop) <= p

    @given(
        p1=st.floats(min_value=0.001, max_value=1.0),
        p2=st.floats(min_value=0.001, max_value=1.0),
        k=st.integers(min_value=1, max_value=8),
    )
    def test_monotone_in_viewing_probability(self, p1, p2, k):
        gop = two_layer_gop(8)
        lo, hi = sorted((p1, p2))
        assert importance(lo, k, gop) <= importance(hi, k, gop)


class TestGopStructure:
    @pytest.mark.parametrize("size", [2, 4, 6, 8, 10, 30])
    def test_two_layer_invariants(self, size):
        gop = two_layer_gop(size)
        assert gop.dependents[1] == size - 1
        half = size // 2
        # base layer carries strictly more than the top layer it feeds
        for k in range(2, half + 1):
            assert gop.dependents[k] > 0
            assert gop.dependents[k] >= gop.dependents.get(k + 1, 0)
        for k in range(half + 1, size + 1):
            assert gop.dependents[k] == 0

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            two_layer_gop(7)

    def test_bad_dependents_rejected(self):
        with pytest.raises(ValueError):
            GopStructure(4, {1: 3, 2: 5, 3: 0, 4: 0})
        with pytest.raises(ValueError):
            GopStructure(4, {1: 2, 2: 1, 3: 0, 4: 0})  # I-frame must carry 3
        with pytest.raises(ValueError):
            GopStructure(4, {1: 3, 2: 1, 3: 0})  # missing position


class TestDeadlines:
    def test_chunk_deadline_two_ahead(self):
        assert chunk_deadline(5, 3, 1.0) == pytest.approx(2000.0)

    def test_chunk_deadline_one_ahead(self):
        assert chunk_deadline(1, 0, 1.0) == pytest.approx(1000.0)

    def test_chunk_deadline_fractional_duration(self):
        assert chunk_deadline(4, 1, 0.5) == pytest.approx(1500.0)

    def test_chunk_deadline_rejects_past_chunk(self):
        with pytest.raises(ValueError):
            chunk_deadline(3, 3, 1.0)

    def test_frame_deadline_offset(self):
        assert frame_deadline(2000.0, 500.0, 0.0) == pytest.approx(1500.0)

    def test_frame_deadline_first_frame(self):
        assert frame_deadline(2000.0, 10.0, 10.0) == pytest.approx(2000.0)

    def test_frame_deadline_expired_send(self):
        assert frame_deadline(1000.0, 1200.0, 0.0) == pytest.approx(-200.0)

    def test_frame_deadline_rejects_reversed_sends(self):
        with pytest.raises(ValueError):
            frame_deadline(1000.0, 0.0, 10.0)

    @given(
        ddl=st.floats(min_value=0, max_value=5000),
        off1=st.floats(min_value=0, max_value=2000),
        off2=st.floats(min_value=0, max_value=2000),
    )
    def test_frame_deadline_unit_slope(self, ddl, off1, off2):
        d1 = frame_deadline(ddl, off1, 0.0)
        d2 = frame_deadline(ddl, off2, 0.0)
        assert d1 - d2 == pytest.approx(off2 - off1, abs=1e-9)


class TestFrameMeta:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            FrameMeta(FrameId(1, 1, 1), 0, 0.5, 100.0, 0.0)

    def test_rejects_importance_outside_unit(self):
        with pytest.raises(ValueError):
            FrameMeta(FrameId(1, 1, 1), 10, 1.5, 100.0, 0.0)

    def test_id_ordering_is_lexicographic(self):
        assert FrameId(1, 2, 3) < FrameId(1, 2, 4) < FrameId(1, 3, 1) < FrameId(2, 1, 1)

    def test_fields_cannot_be_assigned(self):
        frame = FrameMeta(FrameId(1, 1, 1), 10, 0.5, 100.0, 0.0)
        for name, value in (("size", 0), ("gamma", 2.0), ("id", FrameId(2, 2, 2))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(frame, name, value)
        with pytest.raises((AttributeError, TypeError)):   # no __dict__ to take a new one
            frame.extra = 1
        assert frame == FrameMeta(FrameId(1, 1, 1), 10, 0.5, 100.0, 0.0)

    def test_equal_frames_hash_equal_and_differing_ones_differ(self):
        args = (FrameId(3, 2, 1), 1234, 0.25, 1967.0, 33.3)
        a, b = FrameMeta(*args), FrameMeta(*args)
        assert a == b and hash(a) == hash(b) and a is not b
        assert hash(a) == hash(args)
        assert a != FrameMeta(FrameId(3, 2, 1), 1234, 0.25, 1967.0, 33.4)
        assert a != args   # a frame is not a tuple
        assert len({a, b, FrameMeta(*args[:-1], 0.0)}) == 2
        assert repr(a) == ("FrameMeta(id=FrameId(c=3, m=2, k=1), size=1234, gamma=0.25, "
                           "deadline_ms=1967.0, send_time_ms=33.3)")

    def test_pickle_round_trip(self):
        frame = FrameMeta(FrameId(7, 5, 3), 999, 0.75, 2000.0, 12.5)
        back = pickle.loads(pickle.dumps(frame))
        assert back == frame and back is not frame
        assert [getattr(back, f.name) for f in dataclasses.fields(FrameMeta)] == [
            FrameId(7, 5, 3), 999, 0.75, 2000.0, 12.5]
        with pytest.raises(dataclasses.FrozenInstanceError):
            back.size = 1

    def test_keyword_construction_checks_too(self):
        frame = FrameMeta(id=FrameId(1, 1, 1), size=1, gamma=0.0, deadline_ms=-5.0,
                          send_time_ms=0.0)
        assert frame.deadline_ms == -5.0
        with pytest.raises(ValueError, match="importance"):
            FrameMeta(id=FrameId(1, 1, 1), size=1, gamma=-0.5, deadline_ms=0.0,
                      send_time_ms=0.0)


class TestFrameId:
    def test_sorts_by_chunk_tile_position(self):
        assert sorted([FrameId(2, 1, 1), FrameId(1, 3, 1), FrameId(1, 2, 4)]) == [
            FrameId(1, 2, 4), FrameId(1, 3, 1), FrameId(2, 1, 1)]

    def test_equal_ids_hash_alike_and_key_a_dict(self):
        a, b = FrameId(3, 2, 1), FrameId(c=3, m=2, k=1)
        assert a == b and hash(a) == hash(b)
        assert a != FrameId(3, 2, 2)
        seen = {a: "first"}
        seen[b] = "second"
        assert seen == {FrameId(3, 2, 1): "second"}

    def test_fields_are_named_and_read_only(self):
        fid = FrameId(4, 5, 6)
        assert (fid.c, fid.m, fid.k) == (4, 5, 6)
        with pytest.raises(AttributeError):
            fid.c = 7
        assert fid == FrameId(4, 5, 6)


class TestTraceFile:
    def _trace(self):
        frames = tuple(
            FrameMeta(FrameId(1, 1, k), 1000 + k, 0.125 * k, 2000.0 - k * 33.3,
                      15.0 + k * 33.3)
            for k in range(1, 7)
        )
        return FlowTrace(flow=3, frames=frames)

    def test_round_trip(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        back = read_trace(path)
        assert back.flow == trace.flow
        assert back.frames == trace.frames

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,trace\n")
        with pytest.raises(ValueError):
            read_trace(path)

    def test_file_that_is_not_utf8_names_its_path(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ValueError) as info:
            read_trace(path)
        assert str(info.value).startswith(f"{path}: not a readable UTF-8 trace file (")

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_trace(self._trace(), path)
        path.write_text(path.read_text() + "1,2,3\n")
        with pytest.raises(ValueError):
            read_trace(path)

    @pytest.mark.parametrize("size,gamma", [(0, "0.5"), (1000, "1.5"), (1000, "nan")],
                             ids=["zero-size", "importance-above-1", "nan-importance"])
    def test_bad_frame_names_its_path_and_line(self, tmp_path, size, gamma):
        path = tmp_path / "bad.csv"
        path.write_text(f"{TRACE_HEADER}\n0,1,1,1,{size},{gamma},1000.0,0.0\n")
        with pytest.raises(ValueError) as info:
            read_trace(path)
        assert str(info.value).startswith(f"{path}:2: ")

    def test_golden_trace_regression(self, tmp_path):
        from pathlib import Path

        from vrsched.traffic import TraceParams, generate_trace

        trace = generate_trace(
            TraceParams(flow=0, bitrate_bps=2.5e6, video_s=3.0), seed=42
        )
        out = tmp_path / "trace.csv"
        write_trace(trace, out)
        golden = Path(__file__).parent / "golden" / "trace_flow0_seed42.csv"
        assert out.read_text() == golden.read_text()
