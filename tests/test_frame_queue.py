from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import make_frame, split_sets
from vrsched.frame_queue import FrameQueue, forward_prefix, tolerable_time
from vrsched.metrics import MetricsCollector

MS = 1000  # microseconds per millisecond


class TestTolerableTime:
    def test_time_remaining(self):
        f = make_frame(bound_ms=1450.0, arrival_us=0)
        assert tolerable_time(f, 200 * MS) == pytest.approx(1250.0)

    def test_just_arrived_equals_bound(self):
        f = make_frame(bound_ms=987.0, arrival_us=5000)
        assert tolerable_time(f, 5000) == pytest.approx(987.0)

    def test_violated_bound_is_negative(self):
        f = make_frame(bound_ms=100.0, arrival_us=0)
        assert tolerable_time(f, 150 * MS) == pytest.approx(-50.0)


class TestResort:
    def test_tighter_tolerable_time_wins_at_equal_importance(self):
        early = make_frame(k=1, gamma=0.7, bound_ms=1250.0)   # O = 1.25 s
        late = make_frame(k=2, gamma=0.7, bound_ms=500.0)     # O = 0.50 s
        q = FrameQueue(beta=0.01)
        q.push(early)
        q.push(late)
        q.resort(None)
        assert -early.key[0] == pytest.approx(0.6875)
        assert -late.key[0] == pytest.approx(0.695)
        assert q.frames == [late, early]

    def test_beta_zero_orders_by_importance(self):
        frames = [make_frame(k=k, gamma=g, bound_ms=1000.0 * k)
                  for k, g in ((1, 0.2), (2, 0.9), (3, 0.5))]
        q = FrameQueue(beta=0.0)
        for f in frames:
            q.push(f)
        q.resort(None)
        assert [f.meta.gamma for f in q.frames] == [0.9, 0.5, 0.2]

    def test_equal_weight_ties_break_by_frame_id(self):
        a = make_frame(c=1, m=1, k=2, gamma=0.5, bound_ms=100.0)
        b = make_frame(c=1, m=1, k=1, gamma=0.5, bound_ms=100.0)
        q = FrameQueue(beta=0.01)
        q.push(a)
        q.push(b)
        q.resort(None)
        assert q.frames == [b, a]

    def test_fifo_queue_never_reorders(self):
        frames = [make_frame(k=k, gamma=g) for k, g in ((3, 0.1), (1, 0.9), (2, 0.5))]
        q = FrameQueue(beta=0.01, ordered=False)
        for f in frames:
            q.push(f)
        q.resort(None)
        assert q.frames == frames

    def test_in_service_head_stays_pinned(self):
        partial = make_frame(k=9, gamma=0.0, bound_ms=2000.0, remaining=10)
        partial.in_service = True
        urgent = make_frame(k=1, gamma=0.9, bound_ms=50.0)
        q = FrameQueue(beta=0.01)
        q.push(partial)
        q.push(urgent)
        q.resort(None)
        assert q.frames[0] is partial

    def test_resort_is_a_permutation(self):
        frames = [make_frame(k=k, gamma=0.1 * k, bound_ms=100.0 * k)
                  for k in range(1, 9)]
        q = FrameQueue(beta=0.01)
        for f in frames:
            q.push(f)
        q.resort(None)
        assert sorted(q.frames, key=id) == sorted(frames, key=id)


class TestSplitSets:
    """The reference partition that ``forward_prefix`` is checked against."""

    def test_prefix_fits_budget(self):
        frames = [make_frame(k=k, size=s, bound_ms=1000.0)
                  for k, s in ((1, 4), (2, 3), (3, 5))]
        fwd, dropped, retained = split_sets(frames, 10, 0)
        assert fwd == frames[:2]
        assert dropped == []
        assert retained == [frames[2]]

    def test_zero_budget_forwards_nothing(self):
        ok = make_frame(k=1, size=4, bound_ms=1000.0)
        dead = make_frame(k=2, size=3, bound_ms=-1.0)
        fwd, dropped, retained = split_sets([ok, dead], 0, 0)
        assert fwd == []
        assert dropped == [dead]
        assert retained == [ok]

    def test_expired_frame_does_not_consume_budget(self):
        f1 = make_frame(k=1, size=4, bound_ms=1000.0)
        f2 = make_frame(k=2, size=3, bound_ms=-5.0)
        f3 = make_frame(k=3, size=5, bound_ms=1000.0)
        fwd, dropped, retained = split_sets([f1, f2, f3], 10, 0)
        assert fwd == [f1, f3]
        assert dropped == [f2]
        assert retained == []

    @given(
        sizes=st.lists(st.integers(1, 50), min_size=1, max_size=20),
        bounds=st.lists(st.floats(-100, 100), min_size=1, max_size=20),
        budget=st.integers(0, 300),
        extra=st.integers(0, 200),
    )
    def test_partition_and_budget_monotonicity(self, sizes, bounds, budget, extra):
        n = min(len(sizes), len(bounds))
        frames = [make_frame(k=k + 1, size=sizes[k], bound_ms=bounds[k])
                  for k in range(n)]
        fwd, dropped, retained = split_sets(frames, budget, 0)
        assert sorted(fwd + dropped + retained, key=id) == sorted(frames, key=id)
        assert sum(f.remaining for f in fwd) <= budget
        fwd2, _, _ = split_sets(frames, budget + extra, 0)
        assert set(map(id, fwd)) <= set(map(id, fwd2))


class TestForwardPrefix:
    def test_prefix_fits_budget(self):
        frames = [make_frame(k=k, size=s, gamma=g, bound_ms=1000.0)
                  for k, s, g in ((1, 4, 0.5), (2, 3, 0.25), (3, 5, 0.125))]
        assert forward_prefix(frames, 10, 0) == (0.75, frames[2])

    def test_zero_budget_forwards_nothing(self):
        ok = make_frame(k=1, size=4, bound_ms=1000.0)
        dead = make_frame(k=2, size=3, bound_ms=-1.0)
        assert forward_prefix([ok, dead], 0, 0) == (0.0, ok)

    def test_expired_frame_does_not_consume_budget(self):
        f1 = make_frame(k=1, size=4, gamma=0.5, bound_ms=1000.0)
        f2 = make_frame(k=2, size=3, gamma=0.9, bound_ms=-5.0)
        f3 = make_frame(k=3, size=5, gamma=0.25, bound_ms=1000.0)
        assert forward_prefix([f1, f2, f3], 10, 0) == (0.75, None)

    @given(
        frames=st.lists(
            st.tuples(st.integers(1, 50), st.floats(-100, 100),
                      st.sampled_from((0.0, 0.1, 0.3, 0.7, 1.0)) | st.floats(0.0, 1.0),
                      st.booleans()),
            max_size=20,
        ),
        budget=st.integers(0, 300) | st.floats(0, 300),
        now_ms=st.integers(0, 50),
    )
    def test_equals_the_reference_partition(self, frames, budget, now_ms):
        queue = []
        for k, (size, bound, gamma, pin) in enumerate(frames, start=1):
            pinned = pin and k == 1   # only the head can be in service
            f = make_frame(k=k, size=size, gamma=gamma, bound_ms=bound,
                           remaining=(size + 1) // 2 if pinned else None)
            f.in_service = pinned
            queue.append(f)
        fwd, _, retained = split_sets(queue, budget, now_ms * MS)
        gain, pending = forward_prefix(queue, budget, now_ms * MS)
        # plain float adds from 0.0: what sum() does before Python 3.12,
        # which compensates its rounding from then on
        assert gain == reduce(add, (f.meta.gamma for f in fwd), 0.0)
        assert pending is (retained[0] if retained else None)

    @given(
        sizes=st.lists(st.integers(1, 50), min_size=1, max_size=20),
        bounds=st.lists(st.floats(-100, 100), min_size=1, max_size=20),
        budget=st.integers(0, 300),
        extra=st.integers(0, 200),
    )
    def test_gain_monotone_in_budget(self, sizes, bounds, budget, extra):
        n = min(len(sizes), len(bounds))
        frames = [make_frame(k=k + 1, size=sizes[k], bound_ms=bounds[k])
                  for k in range(n)]
        gain, _ = forward_prefix(frames, budget, 0)
        assert gain <= forward_prefix(frames, budget + extra, 0)[0]


def quality_loss(forwarded, dropped) -> float:
    """Quality loss of the metrics cell these frames departed in."""
    collector = MetricsCollector([0])
    for f in dropped:
        collector.on_dropped(1, 0, f.meta.gamma)
    for f in forwarded:
        collector.on_forwarded(1, 0, f.meta.gamma, f.meta.size, late=False)
    return collector.cell(1, 0).quality_loss


class TestQualityLoss:
    def test_ratio(self):
        fwd = [make_frame(k=1, gamma=0.9)]
        dropped = [make_frame(k=2, gamma=0.1)]
        assert quality_loss(fwd, dropped) == pytest.approx(0.1)

    def test_nothing_dropped(self):
        assert quality_loss([make_frame(gamma=0.4)], []) == 0.0

    def test_everything_dropped(self):
        assert quality_loss([], [make_frame(gamma=0.3)]) == 1.0

    def test_all_zero_importance(self):
        assert quality_loss([make_frame(gamma=0.0)], [make_frame(k=2, gamma=0.0)]) == 0.0

    @given(gammas=st.lists(st.floats(0.001, 1.0), min_size=1, max_size=10))
    def test_zero_importance_drop_changes_nothing(self, gammas):
        fwd = [make_frame(k=k + 1, gamma=g) for k, g in enumerate(gammas)]
        dropped = [make_frame(c=2, k=1, gamma=0.5)]
        before = quality_loss(fwd, dropped)
        dropped_plus = dropped + [make_frame(c=2, k=2, gamma=0.0)]
        assert quality_loss(fwd, dropped_plus) == pytest.approx(before)
        assert 0.0 <= before <= 1.0


class TestQueueMaintenance:
    def test_departing_set_threshold(self):
        frames = [make_frame(k=k, bound_ms=b)
                  for k, b in ((1, 300.0), (2, 900.0), (3, 1400.0))]
        q = FrameQueue()
        for f in frames:
            q.push(f)
        assert q.departing_set(1000.0, 0) == frames[:2]

    def test_departing_set_empty_when_all_far(self):
        q = FrameQueue()
        q.push(make_frame(bound_ms=5000.0))
        assert q.departing_set(1000.0, 0) == []

    def test_departing_set_includes_exact_boundary(self):
        q = FrameQueue()
        q.push(make_frame(bound_ms=1000.0))
        assert len(q.departing_set(1000.0, 0)) == 1

    def test_sweep_removes_expired_everywhere(self):
        live = make_frame(k=1, bound_ms=500.0)
        dead1 = make_frame(k=2, bound_ms=1.0)
        dead2 = make_frame(k=3, bound_ms=5.0)
        q = FrameQueue()
        for f in (dead1, live, dead2):
            q.push(f)
        expired = q.sweep_expired(10 * MS)
        assert expired == [dead1, dead2]
        assert q.frames == [live]

    def test_sweep_spares_in_service_frame(self):
        dead = make_frame(k=1, bound_ms=1.0, remaining=5)
        dead.in_service = True
        q = FrameQueue()
        q.push(dead)
        assert q.sweep_expired(10 * MS) == []
        assert q.frames == [dead]


class TestExpiry:
    def test_push_refuses_a_frame_past_its_bound(self):
        q = FrameQueue()
        assert not q.push(make_frame(bound_ms=-1.0))
        assert q.push(make_frame(k=2, bound_ms=0.0))
        assert [f.meta.id.k for f in q.frames] == [2]

    def test_pop_expired_head_takes_only_an_expired_head(self):
        dead = make_frame(k=1, bound_ms=5.0)
        live = make_frame(k=2, bound_ms=500.0)
        q = FrameQueue(ordered=False)
        q.push(dead)
        q.push(live)
        assert q.pop_expired_head(5 * MS) is None
        assert q.pop_expired_head(10 * MS) is dead
        assert q.pop_expired_head(10 * MS) is None
        assert q.frames == [live]

    def test_pop_expired_head_spares_the_pinned_head(self):
        dead = make_frame(k=1, bound_ms=5.0, remaining=5)
        dead.in_service = True
        q = FrameQueue()
        q.push(dead)
        assert q.pop_expired_head(10 * MS) is None
        assert q.frames == [dead]

    def test_queue_without_expiry_keeps_every_frame(self):
        dead = make_frame(k=1, bound_ms=-1.0)
        late = make_frame(k=2, bound_ms=5.0)
        q = FrameQueue(ordered=False, expire=False)
        assert q.push(dead) and q.push(late)
        assert q.sweep_expired(10 * MS) == []
        assert q.pop_expired_head(10 * MS) is None
        assert q.frames == [dead, late]

    def test_resort_leaves_bounds_alone_unless_revised(self):
        frame = make_frame(ddl_ms=500.0, bound_ms=470.0)
        q = FrameQueue(revised=False)
        q.push(frame)
        q.resort(120.0)
        assert frame.bound_ms == 470.0


GAMMAS = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0)
TICK_US = 50 * MS
# network states on a 1/1024 ms grid keep arrival bounds exact, so ranks
# that differ at all differ by far more than float rounding
NET_STATES = st.integers(-50 * 1024, 200 * 1024).map(lambda i: i / 1024)


def tick_weight(frame, beta, now_us):
    """A frame's weight at ``now_us`` under its current bound."""
    return frame.meta.gamma - beta * tolerable_time(frame, now_us) / 1000.0


def exact_rank(frame, revised, beta):
    """The weight at t = 0, in exact arithmetic, under the ranking bound."""
    bound = frame.ddl_ms if revised else frame.bound_ms
    return (Fraction(frame.meta.gamma)
            - Fraction(beta) * (Fraction(bound) + Fraction(frame.t_arrival_us, MS)) / 1000)


class TestStaticOrder:
    @given(
        ticks=st.lists(
            st.tuples(
                st.lists(st.tuples(st.sampled_from(GAMMAS), st.integers(0, 300),
                                   st.integers(0, TICK_US - 1), st.integers(1, 3)),
                         max_size=8),
                NET_STATES,
            ),
            min_size=1, max_size=6,
        ),
        revised=st.booleans(),
    )
    def test_resort_matches_per_tick_weight_order(self, ticks, revised):
        beta = 0.01
        q = FrameQueue(beta=beta, revised=revised, expire=False)
        v_prev = 20.0
        k = 0
        for n, (arrivals, v) in enumerate(ticks):
            for gamma, ddl, offset, c in arrivals:
                k += 1
                q.push(make_frame(c=c, k=k, gamma=gamma, ddl_ms=float(ddl),
                                  bound_ms=ddl - v_prev, arrival_us=n * TICK_US + offset))
            now_us = (n + 1) * TICK_US
            v_prev = v
            q.resort(v)
            for a, b in zip(q.frames, q.frames[1:]):
                if exact_rank(a, revised, beta) == exact_rank(b, revised, beta):
                    if a.meta.gamma == b.meta.gamma:
                        assert a.meta.id < b.meta.id
                else:
                    assert tick_weight(a, beta, now_us) > tick_weight(b, beta, now_us)

    @given(
        ddl=st.integers(500, 3000),
        arrival_us=st.integers(0, 10**8),
        shifts=st.lists(st.integers(0, 499), min_size=2, max_size=5, unique=True),
        v=st.floats(-50.0, 200.0),
    )
    # per-tick float weights put frame 2 first here
    @example(ddl=1350, arrival_us=41938956, shifts=[0, 399], v=86.19326635270949)
    # an instant summed in float ms puts frame 2 first here
    @example(ddl=2693, arrival_us=4062551, shifts=[460, 0], v=0.0)
    def test_ties_on_deadline_plus_arrival_break_by_frame_id(
            self, ddl, arrival_us, shifts, v):
        # each frame trades j ms of deadline for j ms of later arrival
        q = FrameQueue(beta=0.01, revised=True, expire=False)
        for k, j in sorted(enumerate(shifts, start=1), key=lambda kj: -kj[1]):
            q.push(make_frame(k=k, gamma=0.5, ddl_ms=float(ddl - j),
                              bound_ms=ddl - j - 20.0, arrival_us=arrival_us + j * MS))
        q.resort(v)
        assert [f.meta.id.k for f in q.frames] == list(range(1, len(shifts) + 1))

    def test_arrivals_wait_at_the_tail_until_the_next_resort(self):
        q = FrameQueue(beta=0.01)
        low = make_frame(k=1, gamma=0.1, bound_ms=1000.0)
        mid = make_frame(k=2, gamma=0.5, bound_ms=1000.0)
        q.push(low)
        q.push(mid)
        q.resort(None)
        assert q.frames == [mid, low]
        top = make_frame(k=3, gamma=0.9, bound_ms=1000.0)
        high = make_frame(k=4, gamma=0.7, bound_ms=1000.0)
        q.push(top)
        q.push(high)
        assert q.frames == [mid, low, top, high]
        q.resort(None)
        assert q.frames == [top, high, mid, low]


@dataclass
class RefFrame:
    """A frame of the linear reference: its bound is stored and rewritten."""

    id: tuple
    gamma: float
    t_arrival_us: int
    ddl_ms: float
    bound_ms: float
    in_service: bool = False
    key: tuple = ()


class LinearQueue:
    """The queue without its heap, shared state or tail-only insert.

    Every resort rewrites every bound and sorts the whole body; every sweep
    scans every frame.
    """

    def __init__(self, beta, ordered, revised, expire):
        self.beta, self.ordered, self.revised, self.expire = beta, ordered, revised, expire
        self.frames = []

    def push(self, f):
        if self.expire and f.bound_ms < 0:
            return False
        bound = f.ddl_ms if self.revised else f.bound_ms
        weight = f.gamma - self.beta * (bound * MS + f.t_arrival_us) / 1e6
        f.key = (-weight, *f.id)
        self.frames.append(f)
        return True

    def expired(self, f, now_us):
        return not f.in_service and f.bound_ms - (now_us - f.t_arrival_us) / MS < 0

    def pop_expired_head(self, now_us):
        if self.expire and self.frames and self.expired(self.frames[0], now_us):
            return self.frames.pop(0)
        return None

    def resort(self, v):
        if self.revised and v is not None:
            for f in self.frames:
                f.bound_ms = f.ddl_ms - v
        if self.ordered:
            lo = 1 if self.frames and self.frames[0].in_service else 0
            self.frames[lo:] = sorted(self.frames[lo:], key=lambda f: f.key)

    def sweep_expired(self, now_us):
        if not self.expire:
            return []
        dead = [f for f in self.frames if self.expired(f, now_us)]
        self.frames = [f for f in self.frames if not self.expired(f, now_us)]
        return dead


def seen(frames):
    return [((f.meta.id.c, f.meta.id.m, f.meta.id.k), f.bound_ms) for f in frames]


def ref_seen(frames):
    return [(f.id, f.bound_ms) for f in frames]


# network states on a 1/1024 ms grid make exact ties and exact expiry
# instants likely; arbitrary floats probe the rounding at the boundary
STATES = st.one_of(st.integers(-50 * 1024, 200 * 1024).map(lambda i: i / 1024),
                   st.floats(-50.0, 200.0))
# arrivals come close together and outnumber the other operations, so
# that several frames expire between two sweeps
STEPS = st.integers(0, 200 * MS)
OP_ARGS = {
    "push": st.tuples(st.just("push"), st.sampled_from(GAMMAS), st.integers(0, 400),
                      STATES, st.integers(0, 10 * MS), st.integers(1, 3)),
    "resort": st.tuples(st.just("resort"), st.none() | STATES),
    "pop_head": st.just(("pop_head",)),
    "pin": st.just(("pin",)),
    "pop_expired_head": st.tuples(st.just("pop_expired_head"), STEPS),
    "sweep": st.tuples(st.just("sweep"), STEPS),
}
OPS = st.sampled_from(["push"] * 4 + list(OP_ARGS)[1:]).flatmap(OP_ARGS.__getitem__)


class TestAgainstLinearReference:
    @pytest.mark.parametrize("ordered", [True, False])
    @pytest.mark.parametrize("revised", [True, False])
    @pytest.mark.parametrize("expire", [True, False])
    @settings(max_examples=150)
    @given(ops=st.lists(OPS, min_size=10, max_size=60))
    # a pinned, expired head at the top of the heap with expired frames behind it
    @example(ops=[("push", 0.5, 10, 0.0, 0, 1), ("push", 0.5, 20, 0.0, 0, 1),
                  ("push", 0.5, 30, 0.0, 0, 1), ("resort", 0.0), ("pin",),
                  ("sweep", 25 * MS)])
    def test_same_frames_bounds_and_drops_at_every_step(self, ops, ordered, revised, expire):
        q = FrameQueue(beta=0.01, ordered=ordered, revised=revised, expire=expire)
        ref = LinearQueue(0.01, ordered, revised, expire)
        now_us = 0
        for k, op in enumerate(ops, start=1):
            name = op[0]
            if name == "push":
                _, gamma, ddl, v, step, c = op
                now_us += step
                frame = make_frame(c=c, k=k, gamma=gamma, ddl_ms=float(ddl),
                                   bound_ms=ddl - v, arrival_us=now_us)
                twin = RefFrame((c, 1, k), gamma, now_us, float(ddl), ddl - v)
                assert q.push(frame) == ref.push(twin)
            elif name == "resort":
                q.resort(op[1])
                ref.resort(op[1])
            elif name == "pop_head" and q.frames:
                assert seen([q.pop_head()]) == ref_seen([ref.frames.pop(0)])
            elif name == "pin" and q.frames:
                q.frames[0].in_service = ref.frames[0].in_service = True
            elif name == "pop_expired_head":
                now_us += op[1]
                dead, ref_dead = q.pop_expired_head(now_us), ref.pop_expired_head(now_us)
                assert seen([dead] if dead else []) == ref_seen([ref_dead] if ref_dead else [])
            elif name == "sweep":
                now_us += op[1]
                assert seen(q.sweep_expired(now_us)) == ref_seen(ref.sweep_expired(now_us))
            assert seen(q.frames) == ref_seen(ref.frames)
