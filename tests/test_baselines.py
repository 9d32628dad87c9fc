import pytest

from helpers import drain, make_frame
from vrsched.baselines import parse_policy, rr_allocate
from vrsched.forwarder import DropAction, EdfForwarder, SendAction
from vrsched.frame_queue import FrameQueue

MS = 1000  # microseconds per millisecond


def queue_with_head(bound_ms, expire=True):
    q = FrameQueue(ordered=False, expire=expire)
    assert q.push(make_frame(bound_ms=bound_ms))
    return q


def edf_pick(queues, now_us=0):
    """The flow EDF sends from next, or None when it has nothing to do."""
    act = EdfForwarder(list(queues)).next_action(queues, now_us)
    if act is None:
        return None
    assert isinstance(act, SendAction) and act.completed
    return act.flow


class TestRrAllocate:
    def test_equal_split(self):
        rates = rr_allocate(list(range(10)), 30e6)
        assert all(r == pytest.approx(3e6) for r in rates.values())

    def test_single_flow_gets_everything(self):
        assert rr_allocate([7], 30e6) == {7: 30e6}

    def test_active_set_shrink_redistributes(self):
        rates = rr_allocate(list(range(9)), 30e6)
        assert rates[0] == pytest.approx(30e6 / 9)

    def test_no_active_flows(self):
        assert rr_allocate([], 30e6) == {}


class TestEdfNext:
    def test_most_urgent_head_wins(self):
        queues = {
            0: queue_with_head(120.0),
            1: queue_with_head(40.0),
            2: queue_with_head(300.0),
        }
        assert edf_pick(queues) == 1

    def test_tie_breaks_to_lowest_flow_id(self):
        queues = {1: queue_with_head(50.0), 0: queue_with_head(50.0)}
        assert edf_pick(queues) == 0

    def test_single_nonempty_queue(self):
        queues = {0: FrameQueue(), 1: queue_with_head(500.0)}
        assert edf_pick(queues) == 1

    def test_all_empty_returns_none(self):
        assert edf_pick({0: FrameQueue(), 1: FrameQueue()}) is None

    def test_sends_the_whole_head(self):
        q = queue_with_head(100.0)
        frame = q.frames[0]
        act = EdfForwarder([0]).next_action({0: q}, 0)
        assert act == SendAction(0, frame, frame.meta.size, True)
        assert frame.remaining == 0 and len(q) == 0

    def test_drops_every_expired_head_in_flow_order_before_one_send(self):
        def fifo(*bounds):
            q = FrameQueue(ordered=False)
            for k, b in enumerate(bounds, start=1):
                assert q.push(make_frame(k=k, bound_ms=b))
            return q

        # at 10 ms, frames with a bound under 10 ms have expired
        queues = {0: fifo(5.0, 500.0), 1: fifo(1.0, 2.0, 400.0), 2: fifo(3.0, 50.0)}
        frames = {f: list(q.frames) for f, q in queues.items()}
        fwd = EdfForwarder([0, 1, 2])
        acts = [fwd.next_action(queues, 10 * MS) for _ in range(5)]
        assert acts[:4] == [
            DropAction(0, frames[0][0]),
            DropAction(1, frames[1][0]),
            DropAction(1, frames[1][1]),
            DropAction(2, frames[2][0]),
        ]
        assert isinstance(acts[4], SendAction)
        assert acts[4].flow == 2 and acts[4].frame is frames[2][1]

    def test_queue_without_expiry_sends_an_expired_head(self):
        queues = {0: queue_with_head(-20.0, expire=False), 1: queue_with_head(10.0)}
        sends, drops = drain(EdfForwarder([0, 1]), queues, 0)
        assert drops == []
        assert [s.flow for s in sends] == [0, 1]


class TestPolicyParsing:
    @pytest.mark.parametrize("tag", ["proposed", "rr", "edf", "no-order"])
    def test_simple_tags(self, tag):
        assert parse_policy(tag).tag == tag

    @pytest.mark.parametrize("tag,interval", [
        ("single-ts-1000", 1.0), ("single-ts-500", 0.5), ("single-ts-50", 0.05),
    ])
    def test_single_ts_tags(self, tag, interval):
        policy = parse_policy(tag)
        assert policy.interval_s == pytest.approx(interval)
        assert policy.tag == tag

    @pytest.mark.parametrize("tag", ["", "fifo", "single-ts-", "single-ts-0"])
    def test_unknown_tags_rejected(self, tag):
        with pytest.raises(ValueError):
            parse_policy(tag)

    def test_variant_flags(self):
        assert parse_policy("proposed").uses_st
        assert parse_policy("proposed").uses_weight_order
        assert parse_policy("no-order").uses_st
        assert not parse_policy("no-order").uses_weight_order
        single = parse_policy("single-ts-500")
        assert not single.uses_st
        assert single.uses_weight_order
        for tag in ("rr", "edf"):
            p = parse_policy(tag)
            assert not p.uses_st and not p.uses_weight_order
