import pytest
from hypothesis import given, settings, strategies as st

from helpers import NamedTupleDwrrForwarder, NamedTupleEdfForwarder, drain, make_frame
from vrsched.forwarder import DropAction, DwrrForwarder, EdfForwarder
from vrsched.frame_queue import FrameQueue

MS = 1000  # microseconds per millisecond


def queue_of(*frames, ordered=True, expire=True):
    q = FrameQueue(ordered=ordered, expire=expire)
    for f in frames:
        assert q.push(f)
    return q


def a_send():
    """The plain tuple a forwarder returns for a send."""
    fwd = DwrrForwarder([0])
    fwd.deficit[0] = 1000.0
    send = fwd.next_action({0: queue_of(make_frame(size=300, bound_ms=1000.0))}, 0)
    assert type(send) is tuple
    return send


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
        assert sends == [(0, frame, 4000, True)]
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
        assert sends == [(0, frame, 5000, False)]
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
        assert sends == [(0, frame, 3000, True)]
        assert not frame.in_service
        assert len(q) == 0

    def test_round_robin_alternates_flows(self):
        f0 = make_frame(c=1, size=1000, bound_ms=1000.0)
        f1 = make_frame(c=2, size=1000, bound_ms=1000.0)
        fwd = DwrrForwarder([0, 1])
        fwd.deficit[0] = fwd.deficit[1] = 1000.0
        sends, _ = drain(fwd, {0: queue_of(f0), 1: queue_of(f1)}, 0)
        assert [flow for flow, *_ in sends] == [0, 1]

    def test_work_conservation(self):
        # a flow with at least one byte of credit and a live frame always sends
        frame = make_frame(size=50, bound_ms=1000.0)
        fwd = DwrrForwarder([0])
        fwd.deficit[0] = 1.0
        sends, _ = drain(fwd, {0: queue_of(frame)}, 0)
        assert sends and sends[0][2] >= 1   # bytes_sent

    def test_purge_disabled_serves_expired_frames(self):
        # a queue that does not expire frames hands its dead head out as a send
        dead = make_frame(size=400, bound_ms=-50.0)
        fwd = DwrrForwarder([0])
        fwd.deficit[0] = 1000.0
        sends, drops = drain(fwd, {0: queue_of(dead, expire=False)}, 0)
        assert drops == []
        assert sends == [(0, dead, 400, True)]

    def test_pinned_expired_head_keeps_sending(self):
        frame = make_frame(size=8000, bound_ms=1.0)
        q = queue_of(frame)
        fwd = DwrrForwarder([0])
        fwd.deficit[0] = 5000.0
        drain(fwd, {0: q}, 0)
        fwd.replenish(0, 8e5, 0.05)
        sends, drops = drain(fwd, {0: q}, 2 * MS)
        assert drops == []
        assert sends == [(0, frame, 3000, True)]


class TestNextAction:
    def test_serves_one_action_at_a_time(self):
        a = make_frame(c=1, size=300, bound_ms=1000.0)
        b = make_frame(c=2, size=300, bound_ms=1000.0)
        q = queue_of(a, b)
        fwd = DwrrForwarder([0])
        fwd.deficit[0] = 1000.0
        assert fwd.next_action({0: q}, 0) == (0, a, 300, True)
        assert fwd.next_action({0: q}, 0) == (0, b, 300, True)
        assert fwd.next_action({0: q}, 0) is None

    def test_skips_flows_without_credit(self):
        starved = make_frame(c=1, size=300, bound_ms=1000.0)
        ready = make_frame(c=2, size=300, bound_ms=1000.0)
        fwd = DwrrForwarder([0, 1])
        fwd.deficit[1] = 1000.0
        act = fwd.next_action({0: queue_of(starved), 1: queue_of(ready)}, 0)
        assert act == (1, ready, 300, True)

    @pytest.mark.parametrize("action,field", [
        (a_send(), "bytes_sent"),
        (a_send(), "completed"),
        (DropAction(0, None), "flow"),
        (DropAction(0, None), "frame"),
    ])
    def test_actions_are_immutable(self, action, field):
        with pytest.raises(AttributeError):
            setattr(action, field, 1)


# one flow's queue: (size, bound_ms, gamma, arrival_us) per frame, then how it is kept
FLOW = st.fixed_dictionaries({
    "frames": st.lists(st.tuples(
        st.one_of(st.sampled_from([1, 2, 300, 1500, 8000]), st.integers(1, 9000)),
        st.sampled_from([-5.0, 0.0, 0.5, 1.0, 3.0, 10.0, 40.0, 1000.0]),
        st.floats(0.01, 1.0),
        st.integers(0, 5000),
    ), max_size=6),
    "ordered": st.booleans(),
    "revised": st.booleans(),
    "expire": st.booleans(),
    "net_state_ms": st.sampled_from([None, -10.0, 0.0, 30.0]),
    "pinned": st.one_of(st.none(), st.integers(1, 9000)),   # the pinned head's unsent bytes
    "deficit": st.one_of(
        st.sampled_from([0.0, 0.25, 0.999, 1.0, 1.5, 1.999, 2.0, 299.0, 5000.0, 1e6]),
        st.sampled_from([0.0, 0.999, 1.0, 1.999]),   # either side of the first whole bytes
        st.floats(0.0, 20000.0),
    ),
})
STEP = st.tuples(
    st.sampled_from([0, 0, 1, 500, 2_000, 20_000, 1_000_000]),   # microseconds to advance
    st.one_of(st.none(), st.tuples(st.integers(0, 7), st.sampled_from([0.0, 8.0, 1e4, 8e5, 1e7]))),
)


def build_queues(specs):
    queues = {}
    for flow, spec in enumerate(specs):
        q = FrameQueue(ordered=spec["ordered"], revised=spec["revised"], expire=spec["expire"])
        for k, (size, bound_ms, gamma, arrival_us) in enumerate(spec["frames"], start=1):
            q.push(make_frame(c=flow + 1, k=k, size=size, gamma=gamma, bound_ms=bound_ms,
                              arrival_us=arrival_us))
        q.resort(spec["net_state_ms"])
        if spec["pinned"] is not None and q.frames:
            head = q.frames[0]
            head.in_service = True
            head.remaining = min(spec["pinned"], head.remaining)
        queues[flow] = q
    return queues


def action_fields(act):
    """(kind, flow, frame id, bytes_sent, completed) of an action; None stays None."""
    if act is None:
        return None
    if type(act) is DropAction:
        return ("drop", act.flow, act.frame.meta.id)
    flow, frame, sent, completed = act
    return ("send", flow, frame.meta.id, sent, completed)


def queue_state(queues):
    return {f: [(fr.meta.id, fr.remaining, fr.in_service, fr.queued) for fr in q.frames]
            for f, q in queues.items()}


class TestMatchesTheNamedTupleForwarders:
    """Each forwarder against its ``SendAction`` reference in ``helpers``, one action at a time.

    Both are driven over equal queues: pinned heads, credit of 0, below
    one byte and above it, queues that expire frames and queues that do
    not, and instants past some of the bounds.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        edf=st.booleans(),
        specs=st.lists(FLOW, min_size=1, max_size=8),
        cursor=st.integers(0, 7),
        steps=st.lists(STEP, min_size=1, max_size=40),
    )
    def test_same_actions_and_state_after_every_step(self, edf, specs, cursor, steps):
        flows = list(range(len(specs)))
        new_q, old_q = build_queues(specs), build_queues(specs)
        if edf:
            new, old = EdfForwarder(flows), NamedTupleEdfForwarder(flows)
        else:
            new, old = DwrrForwarder(flows), NamedTupleDwrrForwarder(flows)
            new._cursor = old._cursor = cursor % len(flows)
            for f, spec in enumerate(specs):
                new.deficit[f] = old.deficit[f] = spec["deficit"]
        now_us = 0
        for advance_us, grant in steps:
            now_us += advance_us
            if grant is not None and not edf:
                flow, rate_bps = grant
                new.replenish(flow % len(flows), rate_bps, 0.05)
                old.replenish(flow % len(flows), rate_bps, 0.05)
            act, ref = new.next_action(new_q, now_us), old.next_action(old_q, now_us)
            assert action_fields(act) == action_fields(ref)
            if ref is not None and type(ref) is not DropAction:
                assert type(act) is tuple
            assert queue_state(new_q) == queue_state(old_q)
            if not edf:
                assert new.deficit == old.deficit
                assert new._cursor == old._cursor
