import pytest

from helpers import make_frame
from vrsched.baselines import edf_next, parse_policy, rr_allocate
from vrsched.frame_queue import FrameQueue


def queue_with_head(bound_ms):
    q = FrameQueue(ordered=False)
    q.push(make_frame(bound_ms=bound_ms))
    return q


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
        assert edf_next(queues, 0) == 1

    def test_tie_breaks_to_lowest_flow_id(self):
        queues = {1: queue_with_head(50.0), 0: queue_with_head(50.0)}
        assert edf_next(queues, 0) == 0

    def test_single_nonempty_queue(self):
        queues = {0: FrameQueue(), 1: queue_with_head(500.0)}
        assert edf_next(queues, 0) == 1

    def test_all_empty_returns_none(self):
        assert edf_next({0: FrameQueue(), 1: FrameQueue()}, 0) is None


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
