import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctfm_lab as lab
from ctfm_lab import cli, phase_analysis
from oracles import (
    F_END,
    F_START,
    LEDGER_DELAY,
    LO_DURATION,
    LO_F_END,
    PERIOD,
    SAMPLE_RATE,
    reference_ledger_pi,
    wrap_pi_units,
)

REL = 1e-9


class TestWrapPhase:
    def test_zero(self):
        assert lab.wrap_phase(0.0) == 0.0

    def test_positive_many_turns(self):
        assert lab.wrap_phase(34.32 * math.pi) == pytest.approx(
            0.32 * math.pi, abs=1e-9
        )

    def test_negative_many_turns(self):
        assert lab.wrap_phase(-68.52 * math.pi) == pytest.approx(
            -0.52 * math.pi, abs=1e-9
        )

    def test_boundary_belongs_to_plus_pi(self):
        assert lab.wrap_phase(math.pi) == math.pi
        assert lab.wrap_phase(-math.pi) == pytest.approx(math.pi, abs=1e-12)
        assert lab.wrap_phase(3 * math.pi) == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(lab.DomainError):
            lab.wrap_phase(bad)

    @given(theta=st.floats(min_value=-1e8, max_value=1e8))
    @settings(max_examples=100, deadline=None)
    def test_range_and_idempotence(self, theta):
        wrapped = lab.wrap_phase(theta)
        assert -math.pi < wrapped <= math.pi
        assert lab.wrap_phase(wrapped) == wrapped

    @given(
        theta=st.floats(min_value=-math.pi + 1e-9, max_value=math.pi),
        turns=st.integers(min_value=-(10**6), max_value=10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_two_pi_periodicity(self, theta, turns):
        # Build theta + 2*pi*n with one final rounding so the input itself
        # carries at most half an ulp of construction error.  Compare as a
        # distance on the circle: near the +pi boundary the two wrapped
        # values may legitimately land on opposite signs.
        with mpmath.workdps(40):
            shifted = float(mpmath.mpf(theta) + 2 * mpmath.pi * turns)
        distance = lab.wrap_phase(lab.wrap_phase(shifted) - lab.wrap_phase(theta))
        assert abs(distance) < 1e-9


class TestLedgerValues:
    """The closed-form ledger for the 93 ms echo, checked against exact
    rational arithmetic and against the pinned 2-decimal reference readouts."""

    ROUNDED = {
        "tx phase at sweep end": 90.0,
        "echo phase at sweep end": 55.68,
        "lo initial phase": 90.0,
        "channel 1 phase at sweep end": 34.32,
        "channel 2 phase at sweep end": 34.32,
        "tx phase at handoff (restarted sweep)": 21.48,
        "echo phase at handoff": 90.0,
        "lo phase at handoff": 130.08,
        "channel 1 phase at handoff": -68.52,
        "channel 2 phase at handoff": 40.08,
    }

    def test_every_entry_matches_exact_arithmetic(self, reference_schedule):
        report = lab.phase_table(reference_schedule, LEDGER_DELAY)
        oracle = reference_ledger_pi()
        assert set(self.ROUNDED) == set(oracle)
        for label, expected_pi in oracle.items():
            entry = report.value(label)
            assert entry.unwrapped == pytest.approx(
                float(expected_pi) * math.pi, rel=REL
            ), label

    def test_every_entry_rounds_to_the_reference_value(self, reference_schedule):
        report = lab.phase_table(reference_schedule, LEDGER_DELAY)
        for label, printed in self.ROUNDED.items():
            assert round(report.value(label).unwrapped / math.pi, 2) == printed, label

    def test_wrapped_values_are_consistent(self, reference_schedule):
        report = lab.phase_table(reference_schedule, LEDGER_DELAY)
        for entry in report.entries:
            assert -math.pi < entry.wrapped <= math.pi
            mismatch = lab.wrap_phase(entry.wrapped - entry.unwrapped)
            assert abs(mismatch) < 1e-9, entry.label

    def test_channels_agree_exactly_at_the_sweep_end(self, reference_schedule):
        report = lab.phase_table(reference_schedule, LEDGER_DELAY)
        assert (
            report.value("channel 1 phase at sweep end").unwrapped
            == report.value("channel 2 phase at sweep end").unwrapped
        )

    def test_direct_channel_evaluations(self, reference_schedule):
        oracle = reference_ledger_pi()
        t_handoff = PERIOD + LEDGER_DELAY
        assert lab.channel1_phase(
            reference_schedule, LEDGER_DELAY, PERIOD
        ) == pytest.approx(
            float(oracle["channel 1 phase at sweep end"]) * math.pi, rel=REL
        )
        assert lab.channel2_phase(
            reference_schedule, LEDGER_DELAY, t_handoff
        ) == pytest.approx(
            float(oracle["channel 2 phase at handoff"]) * math.pi, rel=REL
        )
        assert lab.channel1_phase(
            reference_schedule, LEDGER_DELAY, t_handoff
        ) == pytest.approx(
            float(oracle["channel 1 phase at handoff"]) * math.pi, rel=REL
        )

    def test_discontinuity_instants(self, reference_schedule):
        report = lab.phase_table(reference_schedule, LEDGER_DELAY)
        assert len(report.discontinuities) == reference_schedule.cycles - 1
        for k, (instant, _) in enumerate(report.discontinuities, start=1):
            assert instant == pytest.approx(k * PERIOD + LEDGER_DELAY, rel=1e-12)

    def test_table_serialization(self, reference_schedule):
        report = lab.phase_table(reference_schedule, LEDGER_DELAY)
        lines = report.to_table().strip().splitlines()
        assert lines[0] == "label,instant_s,unwrapped_pi,wrapped_pi"
        assert len(lines) == 1 + len(report.entries)
        # Values are recoverable from the table.
        first = lines[1].rsplit(",", 3)
        assert first[0] == report.entries[0].label
        assert float(first[2]) == pytest.approx(
            report.entries[0].unwrapped / math.pi, rel=1e-12
        )


class TestZeroDelay:
    def test_channel1_is_identically_zero(self, reference_schedule):
        for t in (0.0, 0.15, 0.3, 0.45, 1.2, 3.0):
            assert lab.channel1_phase(reference_schedule, 0.0, t) == 0.0

    def test_channel2_wraps_to_zero_at_resets(self, reference_schedule):
        for k in range(1, reference_schedule.cycles):
            phase = lab.channel2_phase(reference_schedule, 0.0, k * PERIOD)
            assert abs(lab.wrap_phase(phase)) < 1e-9

    def test_jump_is_zero_when_the_center_frequency_period_product_is_integer(
        self, reference_schedule
    ):
        # (f_start + f_end)/2 * period = 45 for the reference sweep.
        assert abs(lab.boundary_jump(reference_schedule, 0.0, 1)) < 1e-9


class TestBoundaryJump:
    def test_reference_jump_is_minus_point_six_pi(self, reference_schedule):
        jump = lab.boundary_jump(reference_schedule, LEDGER_DELAY, 1)
        assert jump == pytest.approx(-0.6 * math.pi, abs=1e-9)

    def test_matches_the_reference_channel_phase_difference(self, reference_schedule):
        # wrap(-68.517 pi - 40.083 pi) = wrap(-108.6 pi) = -0.6 pi, exactly,
        # from the two channel phases of the ledger.
        oracle = reference_ledger_pi()
        diff = (
            oracle["channel 1 phase at handoff"]
            - oracle["channel 2 phase at handoff"]
        )
        assert wrap_pi_units(diff) == Fraction("-0.6")
        jump = lab.boundary_jump(reference_schedule, LEDGER_DELAY, 1)
        assert jump == pytest.approx(float(wrap_pi_units(diff)) * math.pi, abs=1e-9)

    def test_closed_form_for_the_reference_delay(self, reference_schedule):
        # wrap(-2*pi*(100 * 0.093 + 150 * 0.3)) = wrap(-108.6*pi) = -0.6*pi.
        closed = lab.boundary_jump_closed_form(reference_schedule, LEDGER_DELAY)
        assert closed == pytest.approx(-0.6 * math.pi, abs=1e-9)

    def test_jump_is_independent_of_the_cycle_index(self, reference_schedule):
        """The channel-phase difference evaluated at each handoff instant
        agrees with the direct form at every cycle."""
        direct = lab.boundary_jump(reference_schedule, LEDGER_DELAY, 1)
        for k in range(1, reference_schedule.cycles):
            t = k * PERIOD + LEDGER_DELAY
            via_channels = lab.wrap_phase(
                lab.channel1_phase(reference_schedule, LEDGER_DELAY, t)
                - lab.channel2_phase(reference_schedule, LEDGER_DELAY, t)
            )
            assert abs(lab.wrap_phase(via_channels - direct)) < 1e-9, k

    @pytest.mark.parametrize("k", [0, 12, -1, True])
    def test_rejects_cycles_without_a_handoff(self, reference_schedule, k):
        with pytest.raises(lab.DomainError):
            lab.boundary_jump(reference_schedule, LEDGER_DELAY, k)

    def test_rejects_delay_at_the_sweep_period(self, reference_schedule):
        with pytest.raises(lab.UnsupportedRangeError):
            lab.boundary_jump(reference_schedule, 0.3, 1)


class TestLedgerJumps:
    """``phase_table`` evaluates the jump once and repeats it at each handoff."""

    @pytest.mark.parametrize("cycles", [2, 12, 120])
    @pytest.mark.parametrize("fraction", [0.0, 0.125, 0.3, 0.5, 0.775, 0.999, 1.0])
    def test_each_jump_is_boundary_jump_at_its_own_handoff(self, cycles, fraction):
        schedule = lab.make_schedule(
            lab.ChirpSpec(F_START, F_END, PERIOD), LO_F_END, LO_DURATION, cycles
        )
        tau = fraction * schedule.lo.duration
        report = lab.phase_table(schedule, tau)
        expected = [
            (k * schedule.period + tau, lab.boundary_jump(schedule, tau, k))
            for k in range(1, cycles)
        ]
        assert [(t.hex(), jump.hex()) for t, jump in report.discontinuities] == [
            (t.hex(), jump.hex()) for t, jump in expected
        ]

    def test_the_jump_is_evaluated_once(self, reference_schedule, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return lab.boundary_jump(*args)

        monkeypatch.setattr(phase_analysis, "boundary_jump", spy)
        report = lab.phase_table(reference_schedule, LEDGER_DELAY)
        assert calls == [(reference_schedule, LEDGER_DELAY, 1)]
        assert len(report.discontinuities) == reference_schedule.cycles - 1


@st.composite
def schedules_and_delays(draw):
    f_start = draw(st.floats(min_value=1.0, max_value=2e3))
    bandwidth = draw(st.floats(min_value=1.0, max_value=2e3))
    period = draw(st.floats(min_value=0.05, max_value=2.0))
    phase0 = draw(st.floats(min_value=-6.0, max_value=6.0))
    window = period * draw(st.floats(min_value=0.2, max_value=1.0))
    tx = lab.ChirpSpec(f_start, f_start + bandwidth, period, phase0)
    rate = lab.sweep_rate(tx)
    schedule = lab.make_schedule(
        tx, tx.f_end + rate * window, window, draw(st.integers(2, 8))
    )
    tau = window * draw(st.floats(min_value=0.0, max_value=0.999))
    return schedule, tau


class TestInvariantProperties:
    @given(args=schedules_and_delays())
    @settings(max_examples=60, deadline=None)
    def test_reset_continuity(self, args):
        schedule, tau = args
        for k in (1, schedule.cycles - 1):
            t = k * schedule.period
            if t - tau < 0:
                continue
            diff = lab.channel2_phase(schedule, tau, t) - lab.channel1_phase(
                schedule, tau, t
            )
            assert abs(lab.wrap_phase(diff)) < 1e-9

    @given(args=schedules_and_delays())
    @settings(max_examples=60, deadline=None)
    def test_jump_law(self, args):
        schedule, tau = args
        jump = lab.boundary_jump(schedule, tau, 1)
        closed = lab.boundary_jump_closed_form(schedule, tau)
        assert abs(lab.wrap_phase(jump - closed)) < 1e-9


class TestErrorHandling:
    def test_delay_must_stay_below_the_period(self, reference_schedule):
        with pytest.raises(lab.UnsupportedRangeError):
            lab.channel1_phase(reference_schedule, 0.31, 0.5)

    def test_time_outside_the_simulated_span(self, reference_schedule):
        with pytest.raises(lab.DomainError):
            lab.channel1_phase(reference_schedule, 0.093, 3.7)

    def test_time_before_the_first_arrival(self, reference_schedule):
        with pytest.raises(lab.DomainError):
            lab.channel1_phase(reference_schedule, 0.093, 0.05)

    def test_channel2_outside_the_oscillator_window(self, reference_schedule):
        with pytest.raises(lab.DomainError, match="window"):
            lab.channel2_phase(reference_schedule, 0.093, 0.3 + 0.13)

    def test_phase_table_requires_a_handoff_inside_the_window(self, reference_schedule):
        with pytest.raises(lab.UnsupportedRangeError):
            lab.phase_table(reference_schedule, 0.125)


class TestSplitSnapped:
    @given(
        k=st.integers(min_value=0, max_value=40),
        ulps=st.integers(min_value=-4, max_value=4),
        period=st.sampled_from([0.3, 0.300125, 0.25, 0.1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_instants_a_few_ulps_off_a_reset_snap_onto_it(self, k, ulps, period):
        """k*T, and k*T moved a few floats either way, read as the reset
        itself: cycle k, local time exactly 0."""
        t = k * period
        for _ in range(abs(ulps)):
            t = math.nextafter(t, math.copysign(math.inf, ulps))
        cycle, local = phase_analysis._split_snapped(t, period)
        assert (cycle, local) == (k, 0.0)
        assert type(cycle) is int and type(local) is float


def rising_crossings(signal, t_low, t_high):
    """Times where the waveform crosses zero upward inside [t_low, t_high]."""
    samples = signal.samples
    times = signal.times()
    crossings = []
    for i in np.nonzero((times >= t_low) & (times <= t_high))[0][:-1]:
        if samples[i] < 0.0 <= samples[i + 1]:
            fraction = -samples[i] / (samples[i + 1] - samples[i])
            crossings.append(times[i] + fraction / signal.sample_rate)
    return crossings


def phase_from_crossings(signal, beat, t_eval, t_low, t_high):
    """Wrapped phase of cos(2*pi*beat*t + phi) at t_eval, measured from the
    rising zero crossings inside the steady window [t_low, t_high]."""
    crossings = rising_crossings(signal, t_low, t_high)
    assert crossings, "no rising crossing in the measurement window"
    t_c = crossings[len(crossings) // 2]
    return lab.wrap_phase(-math.pi / 2.0 + 2.0 * math.pi * beat * (t_eval - t_c))


class TestLedgerAgreesWithSampledSignal:
    def test_wrapped_ledger_phases_match_the_demodulated_sum(
        self, reference_schedule, demod_093, reference_lowpass
    ):
        """Zero-crossing phase estimates from the sampled sum reproduce the
        analytic ledger at both stitch instants, on the segment owning each
        side of the stitch."""
        report = lab.phase_table(reference_schedule, LEDGER_DELAY)
        beat = lab.beat_frequency(lab.sweep_rate(reference_schedule.tx), LEDGER_DELAY)
        shift = reference_lowpass.group_delay
        settle = (reference_lowpass.tap_count - 1) / SAMPLE_RATE
        period, tau = PERIOD, LEDGER_DELAY
        signal = demod_093.sum

        checks = [
            # (ledger label, evaluation instant, steady window owning it)
            (
                "channel 1 phase at sweep end",
                period,
                (tau + settle + shift, period + shift - 0.01),
            ),
            (
                "channel 2 phase at sweep end",
                period,
                (period + settle, period + tau),
            ),
            (
                "channel 2 phase at handoff",
                period + tau,
                (period + settle, period + tau),
            ),
            (
                "channel 1 phase at handoff",
                period + tau,
                (period + tau + settle, 2 * period + shift - 0.01),
            ),
        ]
        for label, instant, (t_low, t_high) in checks:
            expected = report.value(label).wrapped
            measured = phase_from_crossings(
                signal, beat, instant + shift, t_low, t_high
            )
            error = abs(lab.wrap_phase(measured - expected))
            assert error < 0.1, f"{label}: {error:.4f} rad"


class TestOutputStep:
    """The stitched output steps by wrap(-2*pi*B*tau) where channel 1 takes
    over, whatever f_center*T is; the ledger's jump, tx(tau) - lo(tau), is
    that step plus wrap(-2*pi*f_center*T), so the two agree only when
    f_center*T is an integer.

    The step is read from the phase of a numpy-FFT analytic signal of the
    whole stitched sum, around the mid-record handoff.  On each side a line
    of the beat's slope, 2*pi*B*tau/T, is fitted to the unwrapped phase over
    the stretch clear of the filter's span (half of it each side of the
    handoff and of the sweep resets), and the step is the difference of the
    two lines.  The slope is the beat's, not fitted: the leak ripple on the
    29-40 ms stretch before the handoff biases a fitted slope by up to
    0.7 Hz.  Tolerance fixed before the first run: 0.005 pi."""

    TOL = 0.005 * math.pi

    @staticmethod
    def analytic(samples):
        spectrum = np.fft.fft(samples)
        gain = np.zeros(samples.size)
        gain[0] = 1.0
        gain[1 : (samples.size + 1) // 2] = 2.0
        if samples.size % 2 == 0:
            gain[samples.size // 2] = 1.0
        return np.fft.ifft(spectrum * gain)

    @pytest.mark.parametrize("tau", [0.093, 0.096, 0.104])
    @pytest.mark.parametrize(
        "values",
        [{}, {"tx.f_start": "105", "tx.f_end": "205", "lo.f_end": "245"}],
        ids=["paper-fcT-45", "fcT-46.5"],
    )
    def test_the_output_steps_by_the_bandwidth_delay_product(
        self, paper_config_path, values, tau
    ):
        config = lab.derive(lab.load_config(paper_config_path), {**values, "echoes.0.delay": tau})
        output = cli.measure(config).output("ddctfm")
        times = output.times()
        period, k = config.tx.duration, config.cycles // 2
        half_span = config.lowpass.impulse_duration / 2
        handoff = k * period + tau + config.lowpass.group_delay
        bandwidth = config.tx.f_end - config.tx.f_start
        beat = 2.0 * math.pi * bandwidth * tau / period * (times - handoff)
        residual = np.unwrap(np.angle(self.analytic(output.samples))) - beat
        sides = [
            (handoff - tau + half_span, handoff - half_span),
            (handoff + half_span, handoff + period - tau - half_span),
        ]
        left, right = (residual[(times >= low) & (times <= high)].mean() for low, high in sides)
        step = lab.wrap_phase(right - left)
        expected = lab.wrap_phase(-2.0 * math.pi * bandwidth * tau)
        assert abs(lab.wrap_phase(step - expected)) <= self.TOL
        center_turns = 0.5 * (config.tx.f_start + config.tx.f_end) * period
        ledger = lab.boundary_jump(config.schedule, tau, k)
        assert abs(lab.wrap_phase(ledger - step + 2.0 * math.pi * center_turns)) <= self.TOL
