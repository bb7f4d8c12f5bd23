"""Unit tests for correction histories, logical clock views, amortized corrections."""

import pytest

from repro.clocks import (
    AmortizedCorrection,
    ConstantRateClock,
    CorrectionHistory,
    LogicalClockView,
    PerfectClock,
    apply_amortized_schedule,
)


class TestCorrectionHistory:
    def test_initial_correction(self):
        history = CorrectionHistory(0.25)
        assert history.initial_correction == 0.25
        assert history.current() == 0.25
        assert history.adjustments == []

    def test_apply_accumulates(self):
        history = CorrectionHistory(0.0)
        assert history.apply(1.0, 0.5, round_index=0) == 0.5
        assert history.apply(2.0, -0.2, round_index=1) == pytest.approx(0.3)
        assert history.adjustments == [0.5, -0.2]

    def test_correction_at_lookup(self):
        history = CorrectionHistory(0.0)
        history.apply(1.0, 1.0, 0)
        history.apply(3.0, 1.0, 1)
        assert history.correction_at(0.5) == 0.0
        assert history.correction_at(1.0) == 1.0
        assert history.correction_at(2.9) == 1.0
        assert history.correction_at(3.0) == 2.0
        assert history.correction_at(100.0) == 2.0

    def test_out_of_order_application_rejected(self):
        history = CorrectionHistory(0.0)
        history.apply(5.0, 0.1, 0)
        with pytest.raises(ValueError):
            history.apply(4.0, 0.1, 1)

    def test_correction_for_round(self):
        history = CorrectionHistory(0.0)
        history.apply(1.0, 0.5, round_index=3)
        assert history.correction_for_round(3) == 0.5
        assert history.correction_for_round(99) is None

    def test_events_include_initial(self):
        history = CorrectionHistory(1.5)
        assert len(history.events) == 1
        assert history.events[0].round_index == -1


class TestFromBreakpoints:
    """``from_breakpoints`` on the retained tail equals one ``apply`` per
    updated round."""

    UPDATED = [
        [False] * 5,
        [True] * 5,
        [True, False, True, True, False, True, True, True, False, True],
        [True] * 12,
    ]

    @staticmethod
    def key(history):
        return (tuple(history.times), tuple(history.corrections),
                history.events)

    @staticmethod
    def rounds(updated):
        """Each updated round's time, adjustment and running CORR."""
        corr, rows = 0.0, []
        for r, flag in enumerate(updated):
            if flag:
                adjustment = (-1) ** r * 0.1 * (r + 1)
                corr = corr + adjustment
                rows.append((0.5 + 1.25 * r, adjustment, corr, r))
        return rows

    @staticmethod
    def columns(rows):
        """Times, adjustments, corrections and rounds of ``rows``."""
        return [list(column) for column in zip(*rows)] or [[], [], [], []]

    @pytest.mark.parametrize("given", ["tail", "all"])
    @pytest.mark.parametrize("max_entries", [None, 2, 3, 8])
    @pytest.mark.parametrize("updated", UPDATED)
    def test_matches_repeated_apply(self, given, max_entries, updated):
        """Given the retained tail and the CORR before it, or every
        breakpoint (the bound then trims them as ``apply`` does)."""
        rows = self.rounds(updated)
        applied = CorrectionHistory(0.0, max_entries=max_entries)
        for time, adjustment, _, r in rows:
            applied.apply(time, adjustment, r)
        cut = 0
        if given == "tail" and max_entries is not None:
            cut = max(0, len(rows) - (max_entries - 1))
        horizon = rows[cut - 1][2] if cut else 0.0
        built = CorrectionHistory.from_breakpoints(
            horizon, *self.columns(rows[cut:]), max_entries=max_entries)
        assert self.key(built) == self.key(applied)
        assert built.max_entries == max_entries
        # Trimming moves the sentinel's CORR, not the initial event's.
        assert built.events[0].new_correction == 0.0


class TestLogicalClockView:
    def make_view(self):
        clock = ConstantRateClock(offset=2.0, rate=1.0, rho=1e-4)
        history = CorrectionHistory(0.5)
        history.apply(10.0, 1.0, 0)
        return LogicalClockView(clock, history)

    def test_local_time_before_and_after_adjustment(self):
        view = self.make_view()
        assert view.local_time(5.0) == pytest.approx(5.0 + 2.0 + 0.5)
        assert view.local_time(12.0) == pytest.approx(12.0 + 2.0 + 1.5)

    def test_logical_clock_value_per_index(self):
        view = self.make_view()
        # index 0: initial logical clock; index 1: after the round-0 adjustment.
        assert view.logical_clock_value(0, 12.0) == pytest.approx(12.0 + 2.0 + 0.5)
        assert view.logical_clock_value(1, 12.0) == pytest.approx(12.0 + 2.0 + 1.5)

    def test_logical_clock_inverse(self):
        view = self.make_view()
        T = 20.0
        t = view.logical_clock_inverse(1, T)
        assert view.logical_clock_value(1, t) == pytest.approx(T)

    def test_bad_index_raises(self):
        view = self.make_view()
        with pytest.raises(IndexError):
            view.logical_clock_value(5, 0.0)
        with pytest.raises(IndexError):
            view.logical_clock_inverse(-1, 0.0)

    def test_number_of_logical_clocks(self):
        assert self.make_view().number_of_logical_clocks() == 2

    def test_accessors(self):
        view = self.make_view()
        assert isinstance(view.physical_clock, ConstantRateClock)
        assert isinstance(view.history, CorrectionHistory)


class TestAmortizedCorrection:
    def test_ramp(self):
        correction = AmortizedCorrection(adjustment=-0.4, start_local_time=10.0,
                                         spread_interval=2.0)
        assert correction.effective_offset(9.0) == 0.0
        assert correction.effective_offset(11.0) == pytest.approx(-0.2)
        assert correction.effective_offset(12.0) == pytest.approx(-0.4)
        assert correction.effective_offset(100.0) == pytest.approx(-0.4)

    def test_adjusted_time_monotone_when_spread_exceeds_negative_adjustment(self):
        correction = AmortizedCorrection(adjustment=-0.5, start_local_time=0.0,
                                         spread_interval=1.0)
        assert correction.is_monotone()
        times = [i * 0.01 for i in range(300)]
        adjusted = [correction.adjusted_time(t) for t in times]
        assert all(b >= a for a, b in zip(adjusted, adjusted[1:]))

    def test_non_monotone_detected(self):
        correction = AmortizedCorrection(adjustment=-2.0, start_local_time=0.0,
                                         spread_interval=1.0)
        assert not correction.is_monotone()

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError):
            AmortizedCorrection(adjustment=0.1, start_local_time=0.0,
                                spread_interval=0.0)

    def test_schedule_application(self):
        corrections = [AmortizedCorrection(1.0, 0.0, 1.0),
                       AmortizedCorrection(-0.5, 2.0, 1.0)]
        raw = [0.0, 0.5, 1.5, 2.5, 4.0]
        adjusted = apply_amortized_schedule(raw, corrections)
        assert adjusted[0] == 0.0
        assert adjusted[1] == pytest.approx(0.5 + 0.5)
        assert adjusted[2] == pytest.approx(1.5 + 1.0)
        assert adjusted[3] == pytest.approx(2.5 + 1.0 - 0.25)
        assert adjusted[4] == pytest.approx(4.0 + 1.0 - 0.5)
