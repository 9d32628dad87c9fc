import decimal
import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import make_stats
from vrsched.allocation import (
    ArrivalServiceStats,
    FlowLtInput,
    LtDecision,
    allocate_lt,
    kingman_delay,
    max_target_delay,
    rate_for_target_delay,
)


EPS = sys.float_info.epsilon


def exact_rate(d, mu_a, c, s_ave):
    """The closed-form inversion with c_a = c_s = c, in 40-digit decimals."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        cc = 2 * D(c) * D(c)
        root = (1 + 2 * D(mu_a) * cc / D(d)).sqrt()
        return 8 * D(s_ave) * (root + 1) / (2 * D(mu_a))


def scan_max_target_delay(frames, epsilon, d_min_s):
    """Independent linear-scan oracle: walk candidates in ascending order."""
    total = sum(g for g, _ in frames)
    ordered = sorted(frames, key=lambda gf: gf[1])
    candidates = []
    for _, b in ordered:
        if not candidates or b != candidates[-1]:
            candidates.append(b)
    if total <= 0:
        return max(candidates[-1], d_min_s), False
    best = None
    lost = 0.0
    i = 0
    for d in candidates:
        while i < len(ordered) and ordered[i][1] <= d:
            lost += ordered[i][0]
            i += 1
        if lost <= epsilon * total:
            best = d
    if best is None:
        return d_min_s, True
    return max(best, d_min_s), False


class TestKingman:
    def test_spec_value(self):
        assert kingman_delay(0.7655, 1.0, 1.0, 0.03062) == pytest.approx(0.1, abs=1e-4)

    def test_reduces_to_mm1_wait(self):
        rho, mu_s = 0.6, 0.02
        assert kingman_delay(rho, 1.0, 1.0, mu_s) == pytest.approx(
            rho * mu_s / (1 - rho)
        )

    def test_vanishes_at_low_utilization(self):
        assert kingman_delay(1e-9, 1.0, 1.0, 0.03) < 1e-9

    @pytest.mark.parametrize("rho", [0.0, 1.0, 1.5, -0.2])
    def test_rejects_bad_utilization(self, rho):
        with pytest.raises(ValueError):
            kingman_delay(rho, 1.0, 1.0, 0.03)


class TestRateInversion:
    def test_spec_value(self):
        rate = rate_for_target_delay(0.1, 0.04, 1.0, 1.0, 50000.0)
        expected = 8 * 50000.0 * (math.sqrt(2.6) + 1) / 0.08
        assert rate == pytest.approx(expected)
        assert rate == pytest.approx(13.06e6, rel=1e-3)

    def test_large_delay_limit_is_arrival_rate(self):
        rate = rate_for_target_delay(1e9, 0.04, 1.0, 1.0, 50000.0)
        assert rate == pytest.approx(8 * 50000.0 / 0.04, rel=1e-4)

    def test_deterministic_arrivals_need_only_arrival_rate(self):
        for d in (0.001, 0.1, 7.0):
            rate = rate_for_target_delay(d, 0.04, 0.0, 0.0, 50000.0)
            assert rate == pytest.approx(8 * 50000.0 / 0.04)

    def test_cap_applies(self):
        assert rate_for_target_delay(0.001, 0.01, 2.0, 2.0, 50000.0, cap_bps=1e6) == 1e6

    def test_rejects_nonpositive_delay(self):
        with pytest.raises(ValueError):
            rate_for_target_delay(0.0, 0.04, 1.0, 1.0, 50000.0)

    @given(
        mu_a=st.floats(0.001, 0.1),
        c=st.floats(0.01, 3.0),
        d1=st.floats(0.001, 1.0),
        d2=st.floats(0.001, 1.0),
    )
    # adjacent delays whose rates round to the same float
    @example(mu_a=0.03125, c=1.0, d1=0.001, d2=math.nextafter(0.001, 1.0))
    def test_strictly_decreasing_in_delay(self, mu_a, c, d1, d2):
        # A float rate cannot fall between every pair of float delays: over
        # [0.001, 1] there are fewer float rates than delays, so adjacent
        # delays may share a rate. The rate must never rise with the delay,
        # and must fall wherever the exact rates differ by more than 1e-12,
        # far above the few ulps (about 1e-15) by which rounding in the
        # closed form can move a rate.
        lo, hi = sorted((d1, d2))
        r_lo = rate_for_target_delay(lo, mu_a, c, c, 50000.0)
        r_hi = rate_for_target_delay(hi, mu_a, c, c, 50000.0)
        assert r_lo >= r_hi
        if exact_rate(lo, mu_a, c, 50000.0) > exact_rate(hi, mu_a, c, 50000.0) * (
            1 + decimal.Decimal("1e-12")
        ):
            assert r_lo > r_hi

    @given(
        mu_a=st.floats(0.001, 0.1),
        c_a=st.floats(0.01, 3.0),
        c_s=st.floats(0.01, 3.0),
        d=st.floats(0.001, 1.0),
        s_ave=st.floats(100.0, 1e6),
    )
    # rho within about 2e-7 of 1, where rounding alone misses d by a few 1e-9
    @example(mu_a=0.001, c_a=0.01, c_s=0.01, d=0.5, s_ave=100.0)
    @example(mu_a=0.001, c_a=0.01, c_s=0.01, d=0.953, s_ave=100.0)
    def test_inversion_reproduces_target_delay(self, mu_a, c_a, c_s, d, s_ave):
        rate = rate_for_target_delay(d, mu_a, c_a, c_s, s_ave)
        mu_s = 8 * s_ave / rate
        rho = mu_s / mu_a
        # The delay's condition number in rho is (2 - rho) / (1 - rho), so a
        # rounding of rho alone moves it by about EPS / (1 - rho): near
        # rho = 1 no float rate meets a fixed 1e-9. The inversion aims for
        # 1e-10 where floats allow it.
        rel = 1e-10 + 16 * EPS / (1 - rho)
        assert kingman_delay(rho, c_a, c_s, mu_s) == pytest.approx(d, rel=rel)


class TestMaxTargetDelay:
    SPEC_SET = [(0.1, 0.050), (0.4, 0.100), (0.2, 0.150), (0.3, 0.200)]

    def test_spec_example(self):
        d, infeasible = max_target_delay(self.SPEC_SET, 0.15)
        assert d == pytest.approx(0.050)
        assert not infeasible

    def test_generous_epsilon_returns_largest_bound(self):
        d, infeasible = max_target_delay(self.SPEC_SET, 1.0)
        assert d == pytest.approx(0.200)
        assert not infeasible

    def test_single_frame_zero_epsilon_is_infeasible(self):
        d, infeasible = max_target_delay([(0.5, 0.080)], 0.0, d_min_s=1e-3)
        assert d == 1e-3
        assert infeasible

    def test_zero_importance_set_is_unconstrained(self):
        d, infeasible = max_target_delay([(0.0, 0.3), (0.0, 0.7)], 0.0)
        assert d == pytest.approx(0.7)
        assert not infeasible

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            max_target_delay([], 0.1)

    @given(
        gammas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
        epsilon=st.floats(0.0, 0.5),
        data=st.data(),
    )
    def test_dichotomy_equals_linear_scan(self, gammas, epsilon, data):
        pool = data.draw(
            st.lists(st.floats(-0.2, 2.0), min_size=1, max_size=10)
        )
        frames = [
            (g, data.draw(st.sampled_from(pool))) for g in gammas
        ]
        assert max_target_delay(frames, epsilon) == scan_max_target_delay(
            frames, epsilon, 1e-3
        )

    @given(gammas=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=30))
    def test_dropped_fraction_monotone_in_delay(self, gammas):
        frames = [(g, 0.05 * (i + 1)) for i, g in enumerate(gammas)]
        total = sum(gammas)
        losses = []
        for d in sorted({b for _, b in frames}):
            losses.append(sum(g for g, b in frames if b <= d) / total)
        assert losses == sorted(losses)


class TestAllocateLt:
    # departing set whose epsilon=0.1 target delay is exactly 0.1 s
    DEFAULT_SET = ((0.01, 0.1), (0.99, 0.2))

    def _input(self, frames=DEFAULT_SET, **stats_kw):
        return FlowLtInput(frames=list(frames), stats=make_stats(**stats_kw))

    @staticmethod
    def _prev(*rates_bps, delay_s=None, s_ave_bytes=None):
        """The previous decision: flow f had rate ``rates_bps[f]``."""
        flows = range(len(rates_bps))
        return LtDecision(rate_bps=dict(zip(flows, rates_bps)),
                          target_delay_s=dict.fromkeys(flows, delay_s),
                          s_ave_bytes=dict.fromkeys(flows, s_ave_bytes))

    def test_single_flow_unscaled(self):
        decision = allocate_lt({0: self._input()}, self._prev(1e6), link_bps=1e9,
                               epsilon=0.1)
        expected = rate_for_target_delay(0.1, 0.04, 1.0, 1.0, 50000.0)
        assert decision.rate_bps[0] == pytest.approx(expected)
        assert not decision.scaled

    def test_identical_flows_scale_proportionally(self):
        raw = rate_for_target_delay(0.1, 0.04, 1.0, 1.0, 50000.0)
        link = 1.2 * raw  # two flows want 2*raw > link
        decision = allocate_lt({0: self._input(), 1: self._input()},
                               self._prev(1e6, 1e6), link_bps=link, epsilon=0.1)
        assert decision.scaled
        assert decision.rate_bps[0] == pytest.approx(decision.rate_bps[1])
        assert decision.total() <= link
        assert decision.total() == pytest.approx(link, rel=1e-9)

    def test_empty_departing_set_carries_forward(self):
        inp = FlowLtInput(frames=[], stats=make_stats())
        prev = self._prev(3.21e6, delay_s=0.25, s_ave_bytes=40000.0)
        decision = allocate_lt({0: inp}, prev, link_bps=1e9, epsilon=0.1)
        assert decision.rate_bps[0] == 3.21e6
        assert decision.target_delay_s[0] == 0.25
        assert decision.s_ave_bytes[0] == 40000.0

    def test_unready_stats_carry_forward(self):
        inp = FlowLtInput(frames=[(0.5, 0.1)], stats=ArrivalServiceStats())
        decision = allocate_lt({0: inp}, self._prev(2e6), link_bps=1e9,
                               epsilon=0.1)
        assert decision.rate_bps[0] == 2e6

    @staticmethod
    def _arrivals_only(mu_a_s, s_ave):
        """Stats with an arrival process measured but no service sample."""
        stats = ArrivalServiceStats()
        stats.inter_arrival.update(mu_a_s)
        stats.frame_size.update(s_ave)
        return stats

    def test_backlogged_unready_flow_gets_its_arrival_rate(self):
        inp = FlowLtInput(frames=[(0.5, 0.1)], stats=self._arrivals_only(0.04, 50000.0))
        prev = self._prev(6.6, delay_s=0.25, s_ave_bytes=40000.0)
        decision = allocate_lt({0: inp}, prev, link_bps=1e9, epsilon=0.1)
        assert decision.rate_bps[0] == 8.0 * 50000.0 / 0.04
        assert decision.target_delay_s[0] == 0.25
        assert decision.s_ave_bytes[0] == 40000.0

    def test_arrival_rate_capped_at_link(self):
        inp = FlowLtInput(frames=[(0.5, 0.1)], stats=self._arrivals_only(0.04, 50000.0))
        decision = allocate_lt({0: inp}, self._prev(6.6), link_bps=1e6, epsilon=0.1)
        assert decision.rate_bps[0] == 1e6

    def test_idle_unready_flow_carries_forward(self):
        inp = FlowLtInput(frames=[], stats=self._arrivals_only(0.04, 50000.0))
        decision = allocate_lt({0: inp}, self._prev(6.6), link_bps=1e9, epsilon=0.1)
        assert decision.rate_bps[0] == 6.6

    def test_zero_inter_arrival_carries_forward(self):
        inp = FlowLtInput(frames=[(0.5, 0.1)], stats=self._arrivals_only(0.0, 50000.0))
        decision = allocate_lt({0: inp}, self._prev(6.6), link_bps=1e9, epsilon=0.1)
        assert decision.rate_bps[0] == 6.6

    def test_infeasible_constraint_flagged_at_floor(self):
        inp = self._input(frames=[(0.9, 0.05)])
        decision = allocate_lt({0: inp}, self._prev(1e6), link_bps=1e9, epsilon=0.0)
        assert 0 in decision.infeasible
        assert decision.target_delay_s[0] == 1e-3

    @given(
        n=st.integers(1, 6),
        link=st.floats(1e6, 1e8),
        prevs=st.lists(st.floats(1e5, 1e7), min_size=6, max_size=6),
    )
    @settings(max_examples=40)
    def test_total_never_exceeds_link(self, n, link, prevs):
        inputs = {f: self._input(frames=[(0.3, 0.02 * (f + 1))]) for f in range(n)}
        decision = allocate_lt(inputs, self._prev(*prevs[:n]), link_bps=link,
                               epsilon=0.05)
        assert decision.total() <= link
