import random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import ThreeCallDelayState, make_frame, mark_ref, spy_marks
from vrsched.delay import EwmaStat, FlowDelayState
from vrsched.frame_queue import FrameQueue
from vrsched.video import FrameId


class TestEwma:
    def test_first_sample_initializes(self):
        s = EwmaStat(alpha=0.125)
        s.update(100.0)
        assert s.mean == 100.0
        assert s.variance == 0.0

    def test_spec_recurrence(self):
        s = EwmaStat(alpha=0.125)
        s.update(100.0)
        s.update(180.0)
        assert s.mean == pytest.approx(110.0)
        assert s.variance == pytest.approx(700.0)
        assert s.std == pytest.approx(700.0 ** 0.5)

    def test_constant_series_converges(self):
        s = EwmaStat(alpha=0.25)
        s.update(50.0)
        s.update(80.0)
        for _ in range(200):
            s.update(60.0)
        assert s.mean == pytest.approx(60.0, abs=1e-6)
        assert s.variance == pytest.approx(0.0, abs=1e-3)

    def test_rejects_negative_sample(self):
        with pytest.raises(ValueError):
            EwmaStat().update(-1.0)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_mean_stays_within_observed_range(self, samples):
        s = EwmaStat(alpha=0.125)
        for x in samples:
            s.update(x)
        assert min(samples) - 1e-6 <= s.mean <= max(samples) + 1e-6
        assert s.variance >= 0.0


class TestQueuingDelayBound:
    def _tracker(self, rtt_ms, q_ms):
        tracker = FlowDelayState()
        ref = FrameId(1, 1, 1)
        tracker.record_departure(ref, q_ms)
        assert tracker.apply_mark(rtt_ms, ref)
        return tracker

    def test_spec_example(self):
        tracker = self._tracker(80.0, 30.0)
        assert tracker.bound_for(1500.0) == pytest.approx(1450.0)

    def test_expired_on_arrival(self):
        tracker = self._tracker(80.0, 30.0)
        assert tracker.bound_for(40.0) == pytest.approx(-10.0)

    def test_zero_external_delay(self):
        tracker = self._tracker(50.0, 50.0)
        assert tracker.bound_for(777.0) == pytest.approx(777.0)

    def test_uninitialized_falls_back_to_prior(self):
        tracker = FlowDelayState(prior_external_ms=20.0)
        assert tracker.bound_for(100.0) == pytest.approx(80.0)


class TestReviseBounds:
    """The queue revises bounds from the tracker's network state at resort."""

    @staticmethod
    def revise(frames, v):
        q = FrameQueue(revised=True, expire=False)
        for f in frames:
            q.push(f)
        q.resort(v)

    def test_same_state_is_identity(self):
        frames = [make_frame(ddl_ms=500.0, bound_ms=470.0)]
        self.revise(frames, 30.0)
        assert frames[0].bound_ms == pytest.approx(470.0)

    def test_state_increase_shrinks_all_bounds_equally(self):
        frames = [make_frame(k=k, ddl_ms=500.0 + k, bound_ms=470.0 + k)
                  for k in range(1, 4)]
        self.revise(frames, 50.0)
        for k, f in enumerate(frames, start=1):
            assert f.bound_ms == pytest.approx(470.0 + k - 20.0)

    def test_bound_can_go_negative(self):
        frames = [make_frame(ddl_ms=100.0, bound_ms=80.0)]
        self.revise(frames, 120.0)
        assert frames[0].bound_ms == pytest.approx(-20.0)

    def test_rejects_nonfinite_state(self):
        with pytest.raises(ValueError):
            self.revise([], float("nan"))

    @given(
        ddls=st.lists(st.integers(min_value=0, max_value=3000), min_size=2, max_size=8),
        v=st.floats(min_value=0, max_value=200),
    )
    def test_preserves_deadline_order(self, ddls, v):
        frames = [make_frame(k=i + 1, ddl_ms=float(d), bound_ms=d - 30.0)
                  for i, d in enumerate(ddls)]
        self.revise(frames, v)
        for a, b in zip(frames, frames[1:]):
            if a.ddl_ms < b.ddl_ms:
                assert a.bound_ms < b.bound_ms
            elif a.ddl_ms > b.ddl_ms:
                assert a.bound_ms > b.bound_ms


class TestFlowDelayState:
    def test_mark_matching_updates_network_state(self):
        tr = FlowDelayState()
        marks = spy_marks(tr)
        a, b = FrameId(1, 1, 1), FrameId(1, 1, 2)
        tr.on_arrival(a, 1, 2000.0, 0.0, 0)
        tr.on_arrival(b, 1, 1967.0, 0.0, 0)
        tr.record_departure(a, 12.0)
        # a mark arriving on frame (1,1,3), two sends after a
        tr.on_arrival(FrameId(1, 1, 3), 1, 1933.0, 42.0, 2)
        [(ref, matched)] = marks
        assert ref == a
        assert matched
        assert tr.net_state_ms == pytest.approx(30.0)
        assert tr.matched_marks == 1

    def test_unmatched_marks_are_counted_not_applied(self):
        tr = FlowDelayState()
        tr.on_arrival(FrameId(1, 1, 1), 1, 2000.0, 0.0, 0)
        assert not tr.apply_mark(42.0, FrameId(9, 9, 9))
        assert not tr.apply_mark(42.0, None)
        assert tr.unmatched_marks == 2
        assert tr.net_state_ms is None

    def test_reordered_arrivals_resolve_in_send_order(self):
        tr = FlowDelayState()
        first, second, third = FrameId(1, 1, 1), FrameId(1, 1, 2), FrameId(1, 1, 3)
        tr.on_arrival(first, 1, 2000.0, 0.0, 0)
        tr.on_arrival(third, 1, 1933.0, 0.0, 0)   # overtook the second frame
        tr.on_arrival(second, 1, 1967.0, 0.0, 0)  # straggler
        assert mark_ref(tr, 3, 1, 1900.0) == first
        assert mark_ref(tr, 2, 1, 1900.0) == second
        assert mark_ref(tr, 1, 1, 1900.0) == third

    def test_resolve_out_of_range(self):
        tr = FlowDelayState()
        tr.on_arrival(FrameId(1, 1, 1), 1, 2000.0, 0.0, 0)
        assert mark_ref(tr, 0, 1, 1967.0) is None
        assert mark_ref(tr, 2, 1, 1967.0) is None

    def test_departure_record_bounded(self):
        tr = FlowDelayState(history_limit=4)
        for k in range(1, 10):
            tr.record_departure(FrameId(1, 1, k), float(k))
        assert len(tr._recorded) == 4

    def test_bound_for_uses_prior_until_initialized(self):
        tr = FlowDelayState(prior_external_ms=20.0)
        assert tr.bound_for(100.0) == pytest.approx(80.0)


def tracker_state(tr):
    return (tr.matched_marks, tr.unmatched_marks, tr.rtt.mean, tr.rtt.variance,
            tr.queue_delay.mean, tr.queue_delay.variance, tr.net_state_ms, tr._send_ids)


class TestOnArrivalMatchesThreeCalls:
    """``on_arrival`` against the resolve/apply/record sequence it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 64), st.integers(513, 700)),
        seed=st.integers(0, 2**32 - 1),
        window=st.integers(0, 12),
        depart_p=st.floats(0.0, 1.0),
        per_chunk=st.integers(1, 60),
    )
    @example(n=600, seed=1, window=4, depart_p=0.9, per_chunk=30)
    def test_same_state_after_every_step(self, n, seed, window, depart_p, per_chunk):
        rng = random.Random(seed)
        # send order i: chunk ascending, wire deadline falling within a chunk
        sent = [(FrameId(i // per_chunk + 1, 1, i % per_chunk + 1), i // per_chunk + 1,
                 float(2000 - (i % per_chunk) * 33)) for i in range(n)]
        # path jitter reorders arrivals by up to ``window`` send positions
        order = sorted(range(n), key=lambda i: i + rng.uniform(0, window))
        new, old = FlowDelayState(), ThreeCallDelayState()
        waiting = []
        for step, i in enumerate(order):
            frame_id, chunk, ddl_ms = sent[i]
            rtt_ms = float(rng.randint(0, 65535))
            ref_offset = rng.choice((0, rng.randint(1, 255), rng.randint(1, window + 3)))
            new.on_arrival(frame_id, chunk, ddl_ms, rtt_ms, ref_offset)
            old.on_arrival(frame_id, chunk, ddl_ms, rtt_ms, ref_offset)
            waiting.append(frame_id)
            if rng.random() < depart_p:
                gone = waiting.pop(rng.randrange(len(waiting)))
                q_ms = rng.uniform(0.0, 500.0)
                new.record_departure(gone, q_ms)
                old.record_departure(gone, q_ms)
            assert tracker_state(new) == tracker_state(old)
            assert len(new._send_ids) == min(step + 1, new.history_limit)
