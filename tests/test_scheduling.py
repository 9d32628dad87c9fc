import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_frame, make_stats
from vrsched.allocation import ArrivalServiceStats, LtDecision, rate_for_target_delay
from vrsched.scheduling import (
    FlowStInput,
    classify,
    compensate,
    schedule_st,
    utility,
)

STI = 0.05


def st_input(frames=(), stats=None, v_now=None, v_prev=None):
    """One flow's input; its stats are measured (mu_a 40 ms, c_a = c_s = 1) by default."""
    return FlowStInput(frames=list(frames), stats=stats or make_stats(),
                       v_now_ms=v_now, v_prev_ms=v_prev)


def lt_for(bases, d=0.1, s_ave=50000.0):
    """The long-timescale decision giving flow f the base rate ``bases[f]``."""
    return LtDecision(rate_bps=dict(bases), target_delay_s=dict.fromkeys(bases, d),
                      s_ave_bytes=dict.fromkeys(bases, s_ave))


def states(v_now, v_prev):
    """Inputs carrying only network states, for :func:`classify`."""
    return {f: st_input(v_now=v, v_prev=v_prev.get(f)) for f, v in v_now.items()}


class TestClassify:
    def test_increase_is_worsened(self):
        assert classify(states({0: 60.0}, {0: 50.0})) == [0]

    def test_equal_is_steady(self):
        assert classify(states({0: 50.0}, {0: 50.0})) == []

    def test_decrease_is_steady(self):
        assert classify(states({0: 40.0}, {0: 50.0})) == []

    def test_unknown_states_are_steady(self):
        assert classify(states({0: None, 1: 10.0}, {1: None})) == []

    def test_worsened_ids_ascend(self):
        assert classify(states({2: 9.0, 0: 9.0, 1: 1.0}, {2: 1.0, 0: 1.0, 1: 1.0})) == [0, 2]


class TestCompensate:
    def test_no_change_no_compensation(self):
        assert compensate(0.1, 0.0, 0.04, 1.0, 1.0, 50000.0) == 0.0

    def test_positive_shift_compensates_by_rate_difference(self):
        comp = compensate(0.1, 0.02, 0.04, 1.0, 1.0, 50000.0)
        expected = (
            rate_for_target_delay(0.08, 0.04, 1.0, 1.0, 50000.0)
            - rate_for_target_delay(0.1, 0.04, 1.0, 1.0, 50000.0)
        )
        assert comp == pytest.approx(expected)
        assert comp > 0.0

    def test_overshoot_clamps_to_floor(self):
        comp = compensate(0.1, 0.5, 0.04, 1.0, 1.0, 50000.0, d_min_s=1e-3)
        expected = (
            rate_for_target_delay(1e-3, 0.04, 1.0, 1.0, 50000.0)
            - rate_for_target_delay(0.1, 0.04, 1.0, 1.0, 50000.0)
        )
        assert comp == pytest.approx(expected)

    @given(dv=st.floats(0.0, 0.2), d=st.floats(0.005, 0.5))
    def test_never_negative_for_worsened_state(self, dv, d):
        assert compensate(d, dv, 0.04, 1.0, 1.0, 50000.0) >= 0.0


class TestUtility:
    def test_spec_ratio(self):
        assert utility(1e6, 2e6, 0.9 + 0.6) == pytest.approx(1.5 / 3e6)

    def test_empty_set_is_zero(self):
        assert utility(1e6, 2e6, 0.0) == 0.0

    def test_linear_in_importance(self):
        assert utility(1e6, 2e6, 0.6) == pytest.approx(2 * utility(1e6, 2e6, 0.3))

    def test_zero_rate_with_importance_rejected(self):
        with pytest.raises(ValueError):
            utility(0.0, 0.0, 0.5)


class TestScheduleSt:
    def test_no_surplus_grants_nothing(self):
        inputs = {0: st_input(frames=[make_frame(gamma=0.5)])}
        decision = schedule_st(inputs, lt_for({0: 1e6}), link_bps=1e6, sti_s=STI, now_us=0)
        assert decision.rate_bps[0] == 0.0

    def test_single_pending_frame_gets_exact_rate(self):
        frame = make_frame(size=5000, gamma=0.5, bound_ms=1000.0)
        inputs = {0: st_input(frames=[frame])}
        # base affords nothing
        decision = schedule_st(inputs, lt_for({0: 1.0}), link_bps=1e9, sti_s=STI, now_us=0)
        assert decision.rate_bps[0] == pytest.approx(8 * 5000 / STI)

    def test_higher_gain_flow_granted_first(self):
        small = make_frame(size=5000, gamma=0.1, bound_ms=1000.0)
        big = make_frame(size=5000, gamma=0.9, bound_ms=1000.0)
        delta = 8 * 5000 / STI
        # surplus fits exactly one grant
        inputs = {0: st_input(frames=[small]), 1: st_input(frames=[big])}
        decision = schedule_st(inputs, lt_for({0: 1.0, 1: 1.0}), link_bps=2.0 + delta,
                               sti_s=STI, now_us=0)
        assert decision.rate_bps[1] == pytest.approx(delta)
        assert decision.rate_bps[0] == 0.0

    def test_tie_breaks_to_lowest_flow_id(self):
        delta = 8 * 5000 / STI
        inputs = {
            1: st_input(frames=[make_frame(size=5000, gamma=0.5)]),
            0: st_input(frames=[make_frame(size=5000, gamma=0.5)]),
        }
        decision = schedule_st(inputs, lt_for({1: 1.0, 0: 1.0}), link_bps=2.0 + delta,
                               sti_s=STI, now_us=0)
        assert decision.rate_bps[0] == pytest.approx(delta)
        assert decision.rate_bps[1] == 0.0

    def test_worsened_flow_compensated_first(self):
        inputs = {0: st_input(frames=[], v_now=70.0, v_prev=50.0)}
        decision = schedule_st(inputs, lt_for({0: 2e6}), link_bps=1e9, sti_s=STI, now_us=0)
        expected = compensate(0.1, 0.02, 0.04, 1.0, 1.0, 50000.0)
        assert classify(inputs) == [0]
        assert decision.rate_bps[0] == pytest.approx(expected)
        assert decision.phase1_bps[0] == pytest.approx(expected)

    def test_phase1_capped_by_surplus(self):
        inputs = {0: st_input(frames=[], v_now=90.0, v_prev=50.0)}
        decision = schedule_st(inputs, lt_for({0: 1e6}), link_bps=1e6 + 100.0,
                               sti_s=STI, now_us=0)
        assert decision.rate_bps[0] == pytest.approx(100.0)

    @pytest.mark.parametrize("stats, d", [
        (ArrivalServiceStats(), 0.1),   # no arrival or service sample yet
        (make_stats(), None),           # no long-timescale target delay yet
    ])
    def test_phase1_skips_a_flow_it_cannot_price(self, stats, d):
        frame = make_frame(size=5000, gamma=0.5, bound_ms=1000.0)
        inputs = {0: st_input(frames=[frame], stats=stats, v_now=70.0, v_prev=50.0)}
        decision = schedule_st(inputs, lt_for({0: 1.0}, d=d), link_bps=1e9,
                               sti_s=STI, now_us=0)
        assert classify(inputs) == [0]
        assert decision.phase1_bps == {}
        # the whole surplus is left to phase 2, which prices the pending frame
        assert decision.rate_bps[0] == pytest.approx(8 * 5000 / STI)

    def test_expired_frames_never_priced(self):
        dead = make_frame(size=5000, gamma=0.9, bound_ms=-10.0)
        inputs = {0: st_input(frames=[dead])}
        decision = schedule_st(inputs, lt_for({0: 1.0}), link_bps=1e9, sti_s=STI, now_us=0)
        assert decision.rate_bps[0] == 0.0

    def test_zero_gain_grants_are_skipped(self):
        worthless = make_frame(size=5000, gamma=0.0, bound_ms=1000.0)
        inputs = {0: st_input(frames=[worthless])}
        decision = schedule_st(inputs, lt_for({0: 1.0}), link_bps=1e9, sti_s=STI, now_us=0)
        assert decision.rate_bps[0] == 0.0
        assert decision.last_gain[0] == 0.0

    @given(
        sizes=st.lists(st.integers(100, 20000), min_size=1, max_size=6),
        gammas=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
        bases=st.lists(st.floats(1e4, 5e6), min_size=3, max_size=3),
        link=st.floats(1e6, 4e7),
        vs=st.lists(st.floats(20.0, 120.0), min_size=6, max_size=6),
    )
    @settings(max_examples=60)
    def test_budget_safety_is_exact(self, sizes, gammas, bases, link, vs):
        inputs = {}
        for f in range(3):
            frames = [
                make_frame(k=i + 1, size=s, gamma=gammas[(f + i) % 6],
                           bound_ms=500.0 + 10 * i)
                for i, s in enumerate(sizes)
            ]
            inputs[f] = st_input(frames=frames, v_now=vs[f], v_prev=vs[f + 3])
        decision = schedule_st(inputs, lt_for(dict(enumerate(bases))), link_bps=link,
                               sti_s=STI, now_us=0)
        total_base = sum(bases)
        surplus = max(0.0, link - total_base)
        assert decision.total() <= surplus * (1 + 1e-12) + 1e-9
        worsened = classify(inputs)
        assert worsened == sorted(f for f in inputs if vs[f] > vs[f + 3])
        assert set(decision.phase1_bps) <= set(worsened)
