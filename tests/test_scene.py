import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctfm_lab as lab
from ctfm_lab import waveform
from ctfm_lab.config import parse_config
from oracles import (
    CYCLES,
    F_END,
    F_START,
    LO_DURATION,
    LO_F_END,
    PERIOD,
    SAMPLE_RATE,
    SYNTHESIS_GRIDS,
    cos_of_pi_units,
    received_on_index_grid,
    sweep_phase_pi,
)


# Source indices this close to a sweep reset, in samples, are split exactly.
RESET_SLACK = 1e-9


def single_echo_scene(delay, amplitude=1.0):
    return lab.Scene(echoes=(lab.Echo(delay=delay, amplitude=amplitude),))


class TestEchoValidation:
    def test_negative_delay_rejected(self):
        with pytest.raises(lab.DomainError):
            lab.Echo(delay=-0.01)

    def test_non_finite_amplitude_rejected(self):
        with pytest.raises(lab.DomainError):
            lab.Echo(delay=0.1, amplitude=float("nan"))

    def test_nonpositive_sound_speed_rejected(self):
        with pytest.raises(lab.DomainError):
            lab.Scene(echoes=(lab.Echo(0.01),), sound_speed=0.0)


# Every entry point that takes an echo delay, called on the reference
# schedule with ``delay``; the loader reads it as ``echoes.0.delay``.
DELAY_ENTRY_POINTS = {
    "Echo": lambda s, d: lab.Echo(d),
    "beat_frequency": lambda s, d: lab.beat_frequency(lab.sweep_rate(s.tx), d),
    "delay_to_range": lambda s, d: lab.delay_to_range(d),
    "synthesize_received": lambda s, d: lab.synthesize_received(
        s, single_echo_scene(d), SAMPLE_RATE
    ),
    "channel1_phase": lambda s, d: lab.channel1_phase(s, d, PERIOD + 0.05),
    "channel2_phase": lambda s, d: lab.channel2_phase(s, d, PERIOD + 0.05),
    "boundary_jump": lambda s, d: lab.boundary_jump(s, d, 1),
    "boundary_jump_closed_form": lab.boundary_jump_closed_form,
    "phase_table": lab.phase_table,
    "parse_config": lambda s, d: parse_config(
        f"tx.f_start = {F_START}\ntx.f_end = {F_END}\ntx.duration = {PERIOD}\n"
        f"lo.f_end = {LO_F_END}\nlo.duration = {LO_DURATION}\ncycles = {CYCLES}\n"
        f"echoes.0.delay = {d}\n"
    ),
}
# The phase_analysis entry points.
PHASE_ENTRIES = [
    "channel1_phase", "channel2_phase", "boundary_jump", "boundary_jump_closed_form", "phase_table"
]
# (entry point, delay, error, message).  A delay that is not finite or is
# below 0 is refused everywhere; ``synthesize_received`` never sees one, as
# ``Echo`` refuses it first.  A delay at or past the period is refused
# wherever a schedule is given, and one past the oscillator window wherever a
# ledger is built.  The loader raises ``ConfigLoadError`` for each library
# error, and refuses "nan" and "inf" as text ("a finite decimal number").
DELAY_CASES = [
    *[
        (entry, delay, lab.DomainError, "finite")
        for entry in ["Echo", "beat_frequency", "delay_to_range", *PHASE_ENTRIES, "parse_config"]
        for delay in (math.nan, math.inf, -0.01)
    ],
    *[
        (entry, delay, lab.UnsupportedRangeError, "sweep period")
        for entry in ["synthesize_received", *PHASE_ENTRIES, "parse_config"]
        for delay in (PERIOD, PERIOD + 0.05)
    ],
    *[
        (entry, LO_DURATION + 0.01, lab.UnsupportedRangeError, "oscillator window")
        for entry in ["boundary_jump", "phase_table", "parse_config"]
    ],
]


@pytest.mark.parametrize(
    "entry, delay, error, match", DELAY_CASES, ids=[f"{c[0]}-{c[1]!r}" for c in DELAY_CASES]
)
def test_one_delay_rule_at_every_entry_point(reference_schedule, entry, delay, error, match):
    """``scene.check_delay`` and ``phase_analysis.check_ledger_delay`` decide
    every delay: each entry point refuses the same delays with the same
    error, and the loader names the key."""
    if entry == "parse_config":
        error = lab.ConfigLoadError
    with pytest.raises(error, match=match) as excinfo:
        DELAY_ENTRY_POINTS[entry](reference_schedule, delay)
    if entry == "parse_config":
        assert excinfo.value.field == "echoes.0.delay"


class TestSynthesizeReceived:
    def test_zero_delay_equals_the_transmit_stream(self, reference_schedule, reference_tx):
        received = lab.synthesize_received(
            reference_schedule, single_echo_scene(0.0), SAMPLE_RATE
        )
        np.testing.assert_array_equal(received.samples, reference_tx.samples)

    def test_whole_sample_delay_is_an_exact_shift(self, reference_schedule, reference_tx):
        received = lab.synthesize_received(
            reference_schedule, single_echo_scene(0.096), SAMPLE_RATE
        )
        shift = round(0.096 * SAMPLE_RATE)
        expected = np.zeros(len(reference_tx))
        expected[shift:] = reference_tx.samples[:-shift]
        np.testing.assert_array_equal(received.samples, expected)

    def test_silence_before_the_first_arrival(self, received_093):
        first = math.ceil(0.093 * SAMPLE_RATE)
        assert np.all(received_093.samples[:first] == 0.0)
        assert received_093.samples[first] != 0.0

    def test_sample_at_first_sweep_end_matches_exact_arithmetic(self, received_093):
        # The echo phase there is the sweep phase 207 ms in: 55.683 pi.
        expected_pi = sweep_phase_pi(100, 200, "0.3", "0.207")
        assert float(expected_pi) == pytest.approx(55.683, abs=1e-12)
        index = round(0.3 * SAMPLE_RATE)
        assert received_093.samples[index] == pytest.approx(
            cos_of_pi_units(expected_pi), abs=1e-9
        )

    def test_blind_interval_carries_the_previous_sweep(self, reference_schedule, received_093):
        # 40 ms into the second cycle the echo is still sweeping toward the
        # transmit end frequency instead of restarting near f_start.
        index = round(0.34 * SAMPLE_RATE)
        expected_pi = sweep_phase_pi(100, 200, "0.3", "0.247")
        assert received_093.samples[index] == pytest.approx(
            cos_of_pi_units(expected_pi), abs=1e-9
        )

    def test_two_echoes_superpose(self, reference_schedule):
        one = lab.synthesize_received(
            reference_schedule, single_echo_scene(0.05, 0.7), SAMPLE_RATE
        )
        two = lab.synthesize_received(
            reference_schedule, single_echo_scene(0.11, -1.3), SAMPLE_RATE
        )
        both = lab.synthesize_received(
            reference_schedule,
            lab.Scene(echoes=(lab.Echo(0.05, 0.7), lab.Echo(0.11, -1.3))),
            SAMPLE_RATE,
        )
        np.testing.assert_allclose(
            both.samples, one.samples + two.samples, rtol=0.0, atol=1e-12
        )

    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=0.29), min_size=1, max_size=4
        ),
        amplitudes=st.lists(
            st.floats(min_value=-2.0, max_value=2.0), min_size=4, max_size=4
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_superposition_property(self, reference_schedule, delays, amplitudes):
        echoes = tuple(
            lab.Echo(d, a) for d, a in zip(delays, amplitudes)
        )
        combined = lab.synthesize_received(
            reference_schedule, lab.Scene(echoes=echoes), SAMPLE_RATE
        )
        parts = sum(
            lab.synthesize_received(
                reference_schedule, lab.Scene(echoes=(echo,)), SAMPLE_RATE
            ).samples
            for echo in echoes
        )
        np.testing.assert_allclose(combined.samples, parts, rtol=0.0, atol=1e-12)

    def test_delay_at_or_past_the_sweep_period_rejected(self, reference_schedule):
        for delay in (0.3, 0.35):
            with pytest.raises(lab.UnsupportedRangeError, match="sweep period"):
                lab.synthesize_received(
                    reference_schedule, single_echo_scene(delay), SAMPLE_RATE
                )


def per_sample_received(schedule, scene, sample_rate, exact_resets=False):
    """Every sample evaluated on its own, echoes added in order onto zero.

    With ``exact_resets``, a source index n - delay * fs within
    ``RESET_SLACK`` samples of a sweep reset takes its cycle from the exact
    split of those doubles (``fractions.Fraction``): the float split can
    round an index just before the reset onto it.  Where the two splits
    disagree, the exact local time replaces the float one.
    """
    per_cycle = schedule.period * sample_rate
    index = np.arange(waveform.sample_count(schedule, sample_rate), dtype=float)
    total = np.zeros(index.size)
    for echo in scene.echoes:
        shift = echo.delay * sample_rate
        first = int(np.count_nonzero(index - shift < 0.0))
        src = index[first:] - shift
        local = waveform.local_times_on_grid(src, sample_rate, schedule.period)
        near = np.abs(src - np.round(src / per_cycle) * per_cycle) < RESET_SLACK
        for i in np.flatnonzero(near) if exact_resets else ():
            exact = Fraction(first + int(i)) - Fraction(shift)
            k = math.floor(exact / Fraction(per_cycle))
            if k != math.floor(src[i] / per_cycle):
                local[i] = float(exact - k * Fraction(per_cycle)) / sample_rate
        total[first:] += echo.amplitude * np.cos(lab.tx_phase(schedule.tx, local))
    return total


echo_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.24),
        st.floats(min_value=-2.0, max_value=2.0),
    ),
    min_size=1,
    max_size=3,
)


class TestTiledReceived:
    """Tolerances fixed before tuning: rx within 1e-10 * sum|A| of per-sample
    evaluation (on either side of a reset within ``RESET_SLACK``), bit-identical for whole-sample delays on a whole-sample
    period and wherever no whole-sample run is shorter than the record, and
    no further from the index-space model than per-sample evaluation."""

    def test_whole_sample_delays_match_per_sample_evaluation_exactly(
        self, reference_schedule
    ):
        scene = lab.Scene(
            (lab.Echo(0.096, 0.8), lab.Echo(0.05, -1.3), lab.Echo(0.2, 0.4))
        )
        rx = lab.synthesize_received(reference_schedule, scene, SAMPLE_RATE)
        np.testing.assert_array_equal(
            rx.samples, per_sample_received(reference_schedule, scene, SAMPLE_RATE)
        )

    @given(
        grid=st.sampled_from(SYNTHESIS_GRIDS),
        cycles=st.integers(min_value=1, max_value=40),
        phase0=st.floats(min_value=-math.pi, max_value=math.pi),
        echoes=echo_lists,
    )
    # Source indices just before a reset: 16807 - 1.07e-12, which the float
    # split rounds onto the reset while the tiled record does not, and
    # 2401 - 4.8e-297, which both round onto it.
    @example(
        grid=SYNTHESIS_GRIDS[1], cycles=15, phase0=0.0, echoes=[(2.220446049250313e-16, 1.0)]
    )
    @example(grid=SYNTHESIS_GRIDS[1], cycles=3, phase0=0.0, echoes=[(1e-300, 1.0)])
    @settings(max_examples=40, deadline=None)
    def test_fractional_delays_within_tolerance(
        self, grid_schedule, grid, cycles, phase0, echoes
    ):
        period, fs = grid
        schedule = grid_schedule(period, cycles, phase0)
        scene = lab.Scene(tuple(lab.Echo(d, a) for d, a in echoes))
        rx = lab.synthesize_received(schedule, scene, fs).samples
        reference = per_sample_received(schedule, scene, fs)
        exact = per_sample_received(schedule, scene, fs, exact_resets=True)
        bound = 1e-10 * sum(abs(a) for _, a in echoes)
        # Within RESET_SLACK of a reset, each split rounds the source index
        # of the same model, so the sample may sit on either side.
        error = np.minimum(np.abs(rx - reference), np.abs(rx - exact))
        assert np.max(error) <= bound
        if grid == SYNTHESIS_GRIDS[2]:
            np.testing.assert_array_equal(rx, reference)

    @given(
        grid=st.sampled_from(SYNTHESIS_GRIDS),
        cycles=st.integers(min_value=2, max_value=3),
        phase0=st.floats(min_value=-math.pi, max_value=math.pi),
        echoes=echo_lists,
    )
    @settings(max_examples=6, deadline=None)
    def test_no_further_from_the_index_model(
        self, grid_schedule, grid, cycles, phase0, echoes
    ):
        """Against the model evaluated in mpmath at every sample."""
        period, fs = grid
        schedule = grid_schedule(period, cycles, phase0)
        scene = lab.Scene(tuple(lab.Echo(d, a) for d, a in echoes))
        rx = lab.synthesize_received(schedule, scene, fs).samples
        exact = np.array(
            received_on_index_grid(
                range(rx.size),
                fs,
                period,
                cycles,
                schedule.tx.f_start,
                schedule.tx.f_end,
                phase0,
                echoes,
            )
        )
        reference = per_sample_received(schedule, scene, fs)
        assert np.max(np.abs(rx - exact)) <= np.max(np.abs(reference - exact))


def per_echo_received(schedule, scene, sample_rate):
    """The received run evaluated one echo at a time: each delay's own grid
    row, phase and cosine, added in scene order onto zero up to the grid's
    ``stop``.  ``synthesize_received`` must match it bit for bit."""
    grid = waveform.sample_grid(schedule, sample_rate, [echo.delay for echo in scene.echoes])
    block = np.zeros(grid.stop)
    for echo in scene.echoes:
        first = min(math.ceil(echo.delay * sample_rate), grid.count)
        src = np.arange(first, grid.stop, dtype=float)
        src -= echo.delay * sample_rate
        local = waveform.local_times_on_grid(src, sample_rate, schedule.period)
        block[first:] += echo.amplitude * np.cos(lab.tx_phase(schedule.tx, local))
    return waveform._tile(block, grid.start, grid.count)


@st.composite
def one_pass_cases(draw):
    """(period, fs, cycles, echoes): 1-6 echoes, each delayed by 0, a whole
    number of samples or a fraction of one, with zero, negative or positive
    amplitudes, on the 1,200-sample, 1,200.5-sample and no-run grids."""
    period, fs = draw(st.sampled_from(SYNTHESIS_GRIDS))
    last = math.ceil(period * fs) - 2  # the latest whole-sample delay below a period
    delays = st.one_of(
        st.just(0.0),
        st.integers(min_value=1, max_value=last).map(lambda n: n / fs),
        st.floats(min_value=0.0, max_value=period, exclude_max=True),
    )
    amplitudes = st.one_of(st.sampled_from([0.0, -0.0, -1.0]), st.floats(-2.0, 2.0))
    echoes = draw(st.lists(st.tuples(delays, amplitudes), min_size=1, max_size=6))
    return period, fs, draw(st.integers(min_value=2, max_value=5)), echoes


class TestOnePassReceived:
    def test_an_empty_scene_is_silence(self, reference_schedule):
        rx = lab.synthesize_received(reference_schedule, lab.Scene(()), SAMPLE_RATE)
        count = waveform.sample_count(reference_schedule, SAMPLE_RATE)
        assert len(rx) == count
        np.testing.assert_array_equal(rx.samples, np.zeros(count))
        assert not np.any(np.signbit(rx.samples))

    @given(case=one_pass_cases())
    @example(case=(0.3, 4000.0, 3, [(0.0, 1.0), (0.096, 0.0), (0.0123457, -0.5)]))
    @example(case=(0.25, 4802.0, 2, [(0.0, -0.0), (0.1, -2.0)] * 3))
    @settings(max_examples=40, deadline=None)
    def test_bit_equal_to_the_per_echo_loop(self, grid_schedule, case):
        period, fs, cycles, echoes = case
        schedule = grid_schedule(period, cycles)
        scene = lab.Scene(tuple(lab.Echo(d, a) for d, a in echoes))
        rx = lab.synthesize_received(schedule, scene, fs).samples
        expected = per_echo_received(schedule, scene, fs)
        # Bit patterns, so that a -0.0 in place of a 0.0 would show.
        np.testing.assert_array_equal(rx.view(np.int64), expected.view(np.int64))
        evaluated = []
        local_times = waveform.local_times_on_grid

        def counted(index, *args):
            evaluated.append(np.size(index))
            return local_times(index, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(waveform, "local_times_on_grid", counted)
            grid = waveform.sample_grid(schedule, fs, [d for d, _ in echoes])
        # Each row from its arrival to ``stop``, and no padding past it.
        used = sum(grid.stop - first for first in grid.firsts)
        assert sum(evaluated) == grid.local.size == used
        for (first, local), (delay, _) in zip(grid.rows(grid.local), echoes):
            single = waveform.sample_grid(schedule, fs, (delay,))
            (own_first, own), = single.rows(single.local)
            assert first == own_first
            assert local.size == grid.stop - first
            # The multi-delay row runs to the latest arrival's run end, the
            # single-delay one to its own; they agree wherever both reach.
            reach = min(local.size, own.size)
            np.testing.assert_array_equal(local[:reach].view(np.int64), own[:reach].view(np.int64))


class TestRangeHelpers:
    def test_beat_frequency_of_the_reference_setup(self, reference_schedule):
        rate = lab.sweep_rate(reference_schedule.tx)
        assert lab.beat_frequency(rate, 0.096) == pytest.approx(32.0, rel=1e-12)
        assert lab.beat_frequency(rate, 0.093) == pytest.approx(31.0, rel=1e-12)
        assert lab.beat_frequency(rate, 0.0) == 0.0

    def test_beat_frequency_rejects_negative_delay(self):
        with pytest.raises(lab.DomainError):
            lab.beat_frequency(333.33, -0.1)

    def test_delay_to_range(self):
        assert lab.delay_to_range(0.0, 1500.0) == 0.0
        assert lab.delay_to_range(0.096, 1500.0) == pytest.approx(72.0)
        assert lab.delay_to_range(0.2, 340.0) == pytest.approx(34.0)

    def test_resolution(self):
        assert lab.ctfm_resolution(100.0, 1500.0) == pytest.approx(7.5)
        assert lab.ctfm_resolution(100.0, 340.0) == pytest.approx(1.7)

    @given(
        bandwidth=st.floats(min_value=1e-3, max_value=1e6),
        speed=st.floats(min_value=1e-3, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_doubling_bandwidth_halves_resolution(self, bandwidth, speed):
        assert lab.ctfm_resolution(2.0 * bandwidth, speed) == (
            lab.ctfm_resolution(bandwidth, speed) / 2.0
        )

    def test_resolution_rejects_nonpositive_bandwidth(self):
        with pytest.raises(lab.DomainError):
            lab.ctfm_resolution(0.0, 1500.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "helper, args, index",
        [
            (lab.beat_frequency, (333.33, 0.096), 0),
            (lab.beat_frequency, (333.33, 0.096), 1),
            (lab.delay_to_range, (0.096, 1500.0), 0),
            (lab.delay_to_range, (0.096, 1500.0), 1),
            (lab.ctfm_resolution, (100.0, 1500.0), 0),
            (lab.ctfm_resolution, (100.0, 1500.0), 1),
        ],
        ids=[
            "beat-slope", "beat-delay", "range-delay", "range-speed",
            "resolution-bandwidth", "resolution-speed",
        ],
    )
    def test_non_finite_argument_is_refused(self, helper, args, index, value):
        args = list(args)
        args[index] = value
        with pytest.raises(lab.DomainError, match="finite"):
            helper(*args)


class TestBeatAgainstSpectrum:
    def test_settled_channel1_peaks_at_the_beat_frequency(
        self, reference_schedule, reference_tx, received_093, reference_lowpass
    ):
        """The dominant line of one valid beat segment sits at slope * delay."""
        channel1 = lab.ctfm_demodulate(reference_tx, received_093, reference_lowpass)
        margin = (reference_lowpass.tap_count - 1) / SAMPLE_RATE
        segment = lab.time_slice(
            channel1,
            2 * reference_schedule.period + 0.093 + margin,
            3 * reference_schedule.period,
        )
        spectrum = lab.dft_magnitude(segment, 16)
        peak = lab.find_peak(spectrum, (10.0, 50.0))
        beat = lab.beat_frequency(lab.sweep_rate(reference_schedule.tx), 0.093)
        assert abs(peak.frequency - beat) <= spectrum.native_bin
