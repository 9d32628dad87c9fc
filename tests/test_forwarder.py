import pytest

from helpers import drain, make_frame
from vrsched.forwarder import DropAction, DwrrForwarder, SendAction
from vrsched.frame_queue import FrameQueue

MS = 1000  # microseconds per millisecond


def queue_of(*frames, ordered=True, expire=True):
    q = FrameQueue(ordered=ordered, expire=expire)
    for f in frames:
        assert q.push(f)
    return q


class TestReplenish:
    def test_quantum_from_rate_and_interval(self):
        fwd = DwrrForwarder([0])
        fwd.replenish(0, 10e6, 0.05)
        assert fwd.deficit[0] == pytest.approx(62500.0)

    def test_zero_rate_leaves_deficit_untouched(self):
        fwd = DwrrForwarder([0])
        fwd.deficit[0] = 1234.0
        fwd.replenish(0, 0.0, 0.05)
        assert fwd.deficit[0] == 1234.0

    def test_carry_over_clamped_to_one_quantum(self):
        fwd = DwrrForwarder([0])
        fwd.deficit[0] = 70000.0
        fwd.replenish(0, 10e6, 0.05)
        assert fwd.deficit[0] == pytest.approx(62500.0 + 62500.0)


class TestForwardRound:
    def test_whole_frame_spends_deficit(self):
        frame = make_frame(size=4000, bound_ms=1000.0)
        fwd = DwrrForwarder([0])
        fwd.deficit[0] = 10000.0
        sends, drops = drain(fwd, {0: queue_of(frame)}, 0)
        assert sends == [SendAction(0, frame, 4000, True)]
        assert drops == []
        assert fwd.deficit[0] == pytest.approx(6000.0)

    def test_expired_head_dropped_regardless_of_deficit(self):
        dead = make_frame(size=4000, bound_ms=1.0)
        fwd = DwrrForwarder([0])
        fwd.deficit[0] = 100000.0
        sends, drops = drain(fwd, {0: queue_of(dead)}, 2 * MS)
        assert sends == []
        assert drops == [DropAction(0, dead)]

    def test_empty_queues_are_a_noop(self):
        fwd = DwrrForwarder([0, 1])
        fwd.deficit[0] = fwd.deficit[1] = 5000.0
        sends, drops = drain(fwd, {0: queue_of(), 1: queue_of()}, 0)
        assert sends == [] and drops == []

    def test_partial_send_pins_frame_in_service(self):
        frame = make_frame(size=8000, bound_ms=1000.0)
        q = queue_of(frame)
        fwd = DwrrForwarder([0])
        fwd.deficit[0] = 5000.0
        sends, _ = drain(fwd, {0: q}, 0)
        assert sends == [SendAction(0, frame, 5000, False)]
        assert frame.in_service
        assert frame.remaining == 3000
        assert q.frames[0] is frame

    def test_partial_frame_resumes_after_replenish(self):
        frame = make_frame(size=8000, bound_ms=1000.0)
        q = queue_of(frame)
        fwd = DwrrForwarder([0])
        fwd.deficit[0] = 5000.0
        drain(fwd, {0: q}, 0)
        fwd.replenish(0, 8e5, 0.05)  # 5000 B quantum
        sends, _ = drain(fwd, {0: q}, 0)
        assert sends == [SendAction(0, frame, 3000, True)]
        assert not frame.in_service
        assert len(q) == 0

    def test_round_robin_alternates_flows(self):
        f0 = make_frame(c=1, size=1000, bound_ms=1000.0)
        f1 = make_frame(c=2, size=1000, bound_ms=1000.0)
        fwd = DwrrForwarder([0, 1])
        fwd.deficit[0] = fwd.deficit[1] = 1000.0
        sends, _ = drain(fwd, {0: queue_of(f0), 1: queue_of(f1)}, 0)
        assert [s.flow for s in sends] == [0, 1]

    def test_work_conservation(self):
        # a flow with at least one byte of credit and a live frame always sends
        frame = make_frame(size=50, bound_ms=1000.0)
        fwd = DwrrForwarder([0])
        fwd.deficit[0] = 1.0
        sends, _ = drain(fwd, {0: queue_of(frame)}, 0)
        assert sends and sends[0].bytes_sent >= 1

    def test_purge_disabled_serves_expired_frames(self):
        # a queue that does not expire frames hands its dead head out as a send
        dead = make_frame(size=400, bound_ms=-50.0)
        fwd = DwrrForwarder([0])
        fwd.deficit[0] = 1000.0
        sends, drops = drain(fwd, {0: queue_of(dead, expire=False)}, 0)
        assert drops == []
        assert sends == [SendAction(0, dead, 400, True)]

    def test_pinned_expired_head_keeps_sending(self):
        frame = make_frame(size=8000, bound_ms=1.0)
        q = queue_of(frame)
        fwd = DwrrForwarder([0])
        fwd.deficit[0] = 5000.0
        drain(fwd, {0: q}, 0)
        fwd.replenish(0, 8e5, 0.05)
        sends, drops = drain(fwd, {0: q}, 2 * MS)
        assert drops == []
        assert sends == [SendAction(0, frame, 3000, True)]


class TestNextAction:
    def test_serves_one_action_at_a_time(self):
        a = make_frame(c=1, size=300, bound_ms=1000.0)
        b = make_frame(c=2, size=300, bound_ms=1000.0)
        q = queue_of(a, b)
        fwd = DwrrForwarder([0])
        fwd.deficit[0] = 1000.0
        first = fwd.next_action({0: q}, 0)
        assert isinstance(first, SendAction) and first.frame is a
        second = fwd.next_action({0: q}, 0)
        assert isinstance(second, SendAction) and second.frame is b
        assert fwd.next_action({0: q}, 0) is None

    def test_skips_flows_without_credit(self):
        starved = make_frame(c=1, size=300, bound_ms=1000.0)
        ready = make_frame(c=2, size=300, bound_ms=1000.0)
        fwd = DwrrForwarder([0, 1])
        fwd.deficit[1] = 1000.0
        act = fwd.next_action({0: queue_of(starved), 1: queue_of(ready)}, 0)
        assert isinstance(act, SendAction) and act.flow == 1

    @pytest.mark.parametrize("action,field", [
        (SendAction(0, None, 10, True), "bytes_sent"),
        (SendAction(0, None, 10, True), "completed"),
        (DropAction(0, None), "flow"),
        (DropAction(0, None), "frame"),
    ])
    def test_actions_are_immutable(self, action, field):
        with pytest.raises(AttributeError):
            setattr(action, field, 1)
