import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctfm_lab as lab
from ctfm_lab.cli import MODES, measure
from oracles import SAMPLE_RATE, SYNTHESIS_GRIDS


def response_db(coeffs, freq, sample_rate=SAMPLE_RATE):
    """Independent frequency-response oracle: direct DTFT sum."""
    n = np.arange(len(coeffs))
    h = np.sum(coeffs * np.exp(-2j * np.pi * freq * n / sample_rate))
    return 20.0 * math.log10(abs(h))


class TestLowpassSpec:
    def test_defaults(self, reference_lowpass):
        assert reference_lowpass.tap_count == 257
        assert reference_lowpass.group_delay == pytest.approx(256 / 8000.0)
        assert reference_lowpass.impulse_duration == pytest.approx(257 / 4000.0)

    @pytest.mark.parametrize("cutoff", [0.0, -5.0, 2000.0, 2500.0])
    def test_cutoff_must_be_below_nyquist(self, cutoff):
        with pytest.raises(lab.ConfigurationError):
            lab.LowpassSpec(cutoff=cutoff, tap_count=257, sample_rate=SAMPLE_RATE)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_sample_rate_must_be_finite(self, rate):
        with pytest.raises(lab.ConfigurationError, match="sample_rate must be finite"):
            lab.LowpassSpec(cutoff=50.0, tap_count=257, sample_rate=rate)

    @pytest.mark.parametrize("taps", [256, 2, 1, -3])
    def test_tap_count_must_be_odd(self, taps):
        with pytest.raises(lab.ConfigurationError):
            lab.LowpassSpec(cutoff=50.0, tap_count=taps, sample_rate=SAMPLE_RATE)


class TestDesignLowpass:
    def test_unit_dc_gain(self, reference_lowpass):
        h = lab.design_lowpass(reference_lowpass)
        assert abs(response_db(h, 0.0)) < 0.01

    def test_linear_phase_symmetry(self, reference_lowpass):
        h = lab.design_lowpass(reference_lowpass)
        np.testing.assert_array_equal(h, h[::-1])

    def test_impulse_peaks_at_the_group_delay(self, reference_lowpass):
        h = lab.design_lowpass(reference_lowpass)
        assert np.argmax(h) == (reference_lowpass.tap_count - 1) // 2

    def test_beat_band_is_nearly_flat(self, reference_lowpass):
        h = lab.design_lowpass(reference_lowpass)
        for freq in (31.0, 32.0, 33.34):
            assert response_db(h, freq) > -0.8

    def test_jump_frequency_attenuation(self, reference_lowpass):
        """69 Hz is the jump frequency for a 93 ms echo; the default design
        buys roughly 28 dB there, far more than channel gating needs."""
        h = lab.design_lowpass(reference_lowpass)
        assert response_db(h, 69.0) < -26.0
        assert response_db(h, 68.0) < -25.0

    def test_channel2_product_band_is_deeply_stopped(self, reference_lowpass):
        h = lab.design_lowpass(reference_lowpass)
        assert response_db(h, 132.0) < -50.0

    def test_transition_edge_deviation(self, reference_lowpass):
        # The slow Hamming roll-off is already ~2 dB down at 40 Hz.
        h = lab.design_lowpass(reference_lowpass)
        assert -2.5 < response_db(h, 40.0) < -1.0

    def test_frequency_response_helper_matches_oracle(self, reference_lowpass):
        h = lab.design_lowpass(reference_lowpass)
        freqs = np.array([0.0, 32.0, 69.0, 132.0])
        ours = np.abs(lab.frequency_response(h, freqs, SAMPLE_RATE))
        theirs = np.array([10 ** (response_db(h, f) / 20.0) for f in freqs])
        np.testing.assert_allclose(ours, theirs, rtol=1e-9)

    @pytest.mark.parametrize("rate", [0.0, -4000.0, math.nan, math.inf])
    def test_frequency_response_refuses_a_bad_sample_rate(self, reference_lowpass, rate):
        """A zero rate used to divide by zero, and a negative one to pass."""
        h = lab.design_lowpass(reference_lowpass)
        with pytest.raises(lab.DomainError, match="sample_rate"):
            lab.frequency_response(h, [32.0], rate)

    @pytest.mark.parametrize("freq", [math.nan, math.inf, -math.inf])
    def test_frequency_response_refuses_a_non_finite_frequency(self, reference_lowpass, freq):
        h = lab.design_lowpass(reference_lowpass)
        with pytest.raises(lab.DomainError, match="frequencies must be finite"):
            lab.frequency_response(h, [0.0, freq], SAMPLE_RATE)


def make_signal(samples, rate=SAMPLE_RATE, t0=0.0):
    return lab.SampledSignal(rate, np.asarray(samples, dtype=float), t0)


class TestMix:
    def test_identity(self, reference_tx):
        ones = make_signal(np.ones(len(reference_tx)))
        product = lab.mix(reference_tx, ones)
        np.testing.assert_array_equal(product.samples, reference_tx.samples)

    def test_annihilator(self, reference_tx):
        zeros = make_signal(np.zeros(len(reference_tx)))
        assert np.all(lab.mix(reference_tx, zeros).samples == 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(lab.ShapeError):
            lab.mix(make_signal([1.0, 2.0]), make_signal([1.0, 2.0, 3.0]))

    def test_rate_mismatch_rejected(self):
        with pytest.raises(lab.ShapeError):
            lab.mix(make_signal([1.0, 2.0]), make_signal([1.0, 2.0], rate=8000.0))

    def test_clock_mismatch_rejected(self):
        with pytest.raises(lab.ShapeError):
            lab.mix(make_signal([1.0, 2.0]), make_signal([1.0, 2.0], t0=0.5))

    @pytest.mark.parametrize(
        "t0", [0.1 + 0.2, 0.3 + 0.5e-9 / SAMPLE_RATE, 0.3 - 0.5e-9 / SAMPLE_RATE]
    )
    def test_start_times_within_grid_slack_accepted(self, t0):
        """Start times computed two ways differ by rounding, not by samples."""
        reference = make_signal([1.0, 2.0], t0=0.3)
        assert t0 != reference.t0
        product = lab.mix(reference, make_signal([3.0, 4.0], t0=t0))
        assert product.t0 == reference.t0
        np.testing.assert_array_equal(product.samples, [3.0, 8.0])

    @pytest.mark.parametrize("samples_off", [1, -1, 1e-6])
    def test_start_times_off_the_grid_rejected(self, samples_off):
        t0 = 0.3 + samples_off / SAMPLE_RATE
        with pytest.raises(lab.ShapeError):
            lab.mix(make_signal([1.0, 2.0], t0=0.3), make_signal([1.0, 2.0], t0=t0))

    def test_product_of_cosines_splits_into_sum_and_difference(self):
        # One second at 4 kHz keeps 40 Hz and 100 Hz on exact bins, so the
        # 60 Hz and 140 Hz product lines appear at amplitude 1/2 each.
        t = np.arange(int(SAMPLE_RATE)) / SAMPLE_RATE
        product = lab.mix(
            make_signal(np.cos(2 * np.pi * 40.0 * t)),
            make_signal(np.cos(2 * np.pi * 100.0 * t)),
        )
        amplitudes = 2.0 * np.abs(np.fft.rfft(product.samples)) / len(t)
        assert amplitudes[60] == pytest.approx(0.5, abs=1e-9)
        assert amplitudes[140] == pytest.approx(0.5, abs=1e-9)
        others = np.delete(amplitudes, [60, 140])
        assert np.max(others) < 1e-9


class TestDemodulate:
    def test_silent_input_stays_silent(self, reference_tx, reference_lo, reference_lowpass):
        silence = make_signal(np.zeros(len(reference_tx)))
        out = lab.demodulate(reference_tx, reference_lo, silence, reference_lowpass)
        assert np.all(out.sum.samples == 0.0)
        assert np.all(out.channel1.samples == 0.0)
        assert np.all(out.channel2.samples == 0.0)

    def test_adder_is_exact(self, demod_096):
        np.testing.assert_array_equal(
            demod_096.sum.samples,
            demod_096.channel1.samples + demod_096.channel2.samples,
        )

    def test_every_output_is_read_only(self, demod_096):
        for signal in (demod_096.channel1, demod_096.channel2, demod_096.sum):
            assert not signal.samples.flags.writeable
            with pytest.raises(ValueError):
                signal.samples[0] = 1.0

    def test_group_delay_reported(self, demod_096, reference_lowpass):
        assert demod_096.group_delay == reference_lowpass.group_delay

    def test_output_alignment(self, demod_096, reference_tx):
        for signal in (demod_096.channel1, demod_096.channel2, demod_096.sum):
            assert len(signal) == len(reference_tx)
            assert signal.sample_rate == reference_tx.sample_rate
            assert signal.t0 == reference_tx.t0

    def test_linearity(self, reference_schedule, reference_tx, reference_lo, reference_lowpass):
        rx1 = lab.synthesize_received(
            reference_schedule, lab.Scene((lab.Echo(0.05, 1.0),)), SAMPLE_RATE
        )
        rx2 = lab.synthesize_received(
            reference_schedule, lab.Scene((lab.Echo(0.11, 1.0),)), SAMPLE_RATE
        )
        a, b = 0.6, -1.7
        blended = make_signal(a * rx1.samples + b * rx2.samples)
        combined = lab.demodulate(reference_tx, reference_lo, blended, reference_lowpass)
        first = lab.demodulate(reference_tx, reference_lo, rx1, reference_lowpass)
        second = lab.demodulate(reference_tx, reference_lo, rx2, reference_lowpass)
        np.testing.assert_allclose(
            combined.sum.samples,
            a * first.sum.samples + b * second.sum.samples,
            rtol=0.0,
            atol=1e-12,
        )

    def test_shape_guard(self, reference_tx, reference_lo, reference_lowpass):
        short = make_signal(reference_tx.samples[:-1])
        with pytest.raises(lab.ShapeError):
            lab.demodulate(reference_tx, reference_lo, short, reference_lowpass)


class TestCtfmDemodulate:
    def test_shape_guard(self, reference_tx, reference_lowpass):
        """``mix`` holds the alignment check for the single channel too."""
        short = make_signal(reference_tx.samples[:-1])
        with pytest.raises(lab.ShapeError):
            lab.ctfm_demodulate(reference_tx, short, reference_lowpass)

    def test_zero_delay_settles_to_one_half(
        self, reference_schedule, reference_tx, reference_lowpass
    ):
        """Mixing the transmit signal with itself leaves the DC half of
        cos^2 once the double-frequency sweep is filtered off."""
        out = lab.ctfm_demodulate(reference_tx, reference_tx, reference_lowpass)
        settled = out.samples[int(0.1 * SAMPLE_RATE) :]
        assert np.max(np.abs(settled - 0.5)) < 0.01

    def test_matches_channel1_of_the_dual_chain(
        self, reference_tx, received_096, reference_lowpass, demod_096
    ):
        alone = lab.ctfm_demodulate(reference_tx, received_096, reference_lowpass)
        np.testing.assert_array_equal(alone.samples, demod_096.channel1.samples)

    def test_blind_window_mixer_product_sits_at_the_jump_frequency(
        self, reference_tx, received_093
    ):
        """Pre-filter, the second cycle's blind interval beats at
        rate * (period - delay) = 69 Hz, which carries no range information."""
        product = lab.mix(reference_tx, received_093)
        segment = lab.time_slice(product, 0.3, 0.3 + 0.093)
        spectrum = lab.dft_magnitude(segment, 16)
        peak = lab.find_peak(spectrum, (20.0, 150.0))
        assert peak.frequency == pytest.approx(69.0, abs=1.0)

    def test_steady_segment_beats_at_the_echo_rate(
        self, reference_tx, received_093, reference_lowpass
    ):
        """Zero-crossing rate over the first cycle's settled beat segment
        reads the 31 Hz difference frequency of the 93 ms echo."""
        out = lab.ctfm_demodulate(reference_tx, received_093, reference_lowpass)
        shift = reference_lowpass.group_delay
        segment = lab.time_slice(out, 0.15 + shift, 0.29 + shift)
        samples, times = segment.samples, segment.times()
        crossings = [
            times[i] + (-samples[i] / (samples[i + 1] - samples[i])) / SAMPLE_RATE
            for i in range(len(samples) - 1)
            if samples[i] < 0.0 <= samples[i + 1]
        ]
        cycles = len(crossings) - 1
        frequency = cycles / (crossings[-1] - crossings[0])
        assert frequency == pytest.approx(31.0, abs=0.2)

    def test_blind_window_output_is_suppressed_after_filtering(
        self, reference_tx, received_093, reference_lowpass
    ):
        """The filtered jump-frequency residue is a few percent of the beat
        amplitude (set by the 69 Hz stopband depth of the default filter)."""
        out = lab.ctfm_demodulate(reference_tx, received_093, reference_lowpass)
        # An output sample is a pure response to one input segment once the
        # whole filter support lies inside it: margin = (taps - 1) / fs.
        margin = (reference_lowpass.tap_count - 1) / SAMPLE_RATE
        blind = lab.time_slice(out, 0.6 + margin, 0.6 + 0.093)
        steady = lab.time_slice(out, 0.6 + 0.093 + margin, 0.9)
        blind_amp = np.sqrt(np.mean(blind.samples**2))
        steady_amp = np.sqrt(np.mean(steady.samples**2))
        assert blind_amp / steady_amp < 0.06


def filtered_in_full(tx, lo, rx, spec):
    """Both channels and their sum, each channel filtered over the whole
    record by one ``np.convolve``, as the receiver did before it tiled."""
    h = lab.design_lowpass(spec)
    n = len(rx)
    channel1 = np.convolve(tx.samples * rx.samples, h)[:n]
    channel2 = np.convolve(lo.samples * rx.samples, h)[:n]
    return channel1, channel2, channel1 + channel2


def assert_repeats(signal):
    """The signal's recorded (start, run) holds for every sample."""
    start, run = signal._repeat
    count = len(signal)
    assert 0 <= start and 1 <= run and start + run <= count
    np.testing.assert_array_equal(
        signal.samples[start + run :], signal.samples[start : count - run]
    )


def receive(schedule, fs, echoes):
    """tx, lo, rx and the matching filter for one schedule and scene."""
    scene = lab.Scene(tuple(lab.Echo(d, a) for d, a in echoes))
    spec = lab.LowpassSpec(cutoff=50.0, tap_count=257, sample_rate=fs)
    return (
        lab.synthesize_transmit(schedule, fs),
        lab.synthesize_lo(schedule, fs),
        lab.synthesize_received(schedule, scene, fs),
        spec,
    )


def check_against_full_record(tx, lo, rx, spec):
    out = lab.demodulate(tx, lo, rx, spec)
    for got, want in zip(
        (out.channel1, out.channel2, out.sum), filtered_in_full(tx, lo, rx, spec)
    ):
        np.testing.assert_array_equal(got.samples, want)
    alone = lab.ctfm_demodulate(tx, rx, spec)
    np.testing.assert_array_equal(alone.samples, out.channel1.samples)
    products = (lab.mix(tx, rx), lab.mix(lo, rx))
    for signal in (tx, lo, rx, *products, out.channel1, out.channel2, out.sum, alone):
        assert_repeats(signal)
    return out


# Whole-sample delays (n / fs) and fractional ones, below the 0.25 s shortest
# grid period.
delays = st.one_of(
    st.integers(min_value=0, max_value=959).map(lambda n: n / SAMPLE_RATE),
    st.floats(min_value=0.0, max_value=0.24),
)
echo_lists = st.lists(
    st.tuples(delays, st.floats(min_value=-2.0, max_value=2.0)), min_size=1, max_size=6
)


class TestTiledReceiver:
    """The channels are filtered over one run and tiled, bit-equal to
    filtering the whole record: each full-overlap output is one contiguous
    dot product over the taps, so equal input windows give equal outputs."""

    @pytest.mark.parametrize("grid", SYNTHESIS_GRIDS)
    @given(cycles=st.integers(min_value=1, max_value=25), echoes=echo_lists)
    @settings(max_examples=25, deadline=None)
    def test_bit_equal_to_filtering_the_whole_record(
        self, grid_schedule, grid, cycles, echoes
    ):
        period, fs = grid
        check_against_full_record(*receive(grid_schedule(period, cycles), fs, echoes))

    @pytest.mark.parametrize(
        "grid, run", zip(SYNTHESIS_GRIDS, (1200, 2401, None)), ids=["1200", "1200.5", "no-run"]
    )
    @pytest.mark.parametrize("echo_count", range(1, 7))
    def test_each_channel_filters_one_run(self, grid_schedule, grid, run, echo_count):
        """One to six echoes, the last at a fractional delay, on 10-cycle
        records: one cycle, two, or (with no shorter run) the whole record.
        The sum is added over that run too and records the same repetition."""
        period, fs = grid
        echoes = [(0.011 * k + 0.02, 1.0 - 0.1 * k) for k in range(echo_count)]
        echoes[-1] = (echoes[-1][0] + 0.3 / fs, echoes[-1][1])
        tx, lo, rx, spec = receive(grid_schedule(period, 10), fs, echoes)
        out = check_against_full_record(tx, lo, rx, spec)
        start = math.ceil(max(d for d, _ in echoes) * fs) + spec.tap_count - 1
        expected = (0, len(rx)) if run is None else (start, run)
        assert out.channel1._repeat == out.channel2._repeat == expected
        assert out.sum._repeat == expected

    def test_record_too_short_for_one_run_is_filtered_in_full(self, grid_schedule):
        """Two 1,200-sample cycles hold one run after a 0.29 s arrival, but
        end before start + taps - 1 + run."""
        tx, lo, rx, spec = receive(grid_schedule(0.3, 2), SAMPLE_RATE, [(0.29, 1.0)])
        start, run = rx._repeat
        assert run == 1200 and start + run < 2400 <= start + spec.tap_count - 1 + run
        out = check_against_full_record(tx, lo, rx, spec)
        assert out.channel1._repeat == out.channel2._repeat == (0, 2400)

    def test_signals_with_no_known_repetition_are_filtered_in_full(
        self, reference_tx, reference_lo, received_096, reference_lowpass
    ):
        public = [make_signal(s.samples) for s in (reference_tx, reference_lo, received_096)]
        whole = (0, len(reference_tx))
        assert all(signal._repeat == whole for signal in public)
        for rx in (public[2], received_096):  # none known, or only the rx's
            out = check_against_full_record(*public[:2], rx, reference_lowpass)
            assert out.channel1._repeat == out.channel2._repeat == whole

    def test_product_of_different_runs_repeats_at_their_common_multiple(
        self, grid_schedule
    ):
        """1,200- and 800-sample cycles on one 9,600-sample record."""
        a = lab.synthesize_transmit(grid_schedule(0.3, 8), SAMPLE_RATE)
        b = lab.synthesize_transmit(grid_schedule(0.2, 12), SAMPLE_RATE)
        product = lab.mix(a, b)
        assert (a._repeat, b._repeat, product._repeat) == ((0, 1200), (0, 800), (0, 2400))
        np.testing.assert_array_equal(product.samples, a.samples * b.samples)
        assert_repeats(product)

    def test_time_slice_keeps_the_run(self, demod_096):
        """The 0.5-2.0 s cut starts past channel 1's settle, so it repeats
        from its first sample with the channel's 1,200-sample run."""
        part = lab.time_slice(demod_096.channel1, 0.5, 2.0)
        assert demod_096.channel1._repeat[1] == 1200
        assert part._repeat == (0, 1200)
        assert part.samples.tobytes() == demod_096.channel1.samples[2000:8000].tobytes()
        np.testing.assert_array_equal(part.samples[1200:], part.samples[:-1200])


@pytest.fixture
def tiled(monkeypatch):
    """The ``count`` of each ``waveform._tile`` call, in call order."""
    counts = []
    tile = lab.waveform._tile

    def counted(block, start, count):
        counts.append(count)
        return tile(block, start, count)

    monkeypatch.setattr(lab.waveform, "_tile", counted)
    return counts


class TestLazyRecords:
    """``demodulate`` reads heads of its inputs and tiles no full record;
    a channel's record is tiled once, on the first read of its samples."""

    def test_no_full_record_is_tiled_until_read(self, grid_schedule, tiled):
        echoes = [(0.0432, 1.0), (0.0961234, 0.6), (0.1125, 0.35)]
        out = lab.demodulate(*receive(grid_schedule(0.3, 120), SAMPLE_RATE, echoes))
        record = len(out.channel1)
        assert record == 144000 and tiled and max(tiled) < record
        tiled.clear()
        out.channel1.samples
        out.channel1.samples
        assert tiled == [record]

    def test_measure_tiles_no_full_record(self, paper_config_path, tiled):
        """Each readout cuts its record and window from a mode's output and
        tiles only the cut, never the 14,400-sample output it is cut from."""
        state = measure(lab.load_config(paper_config_path), MODES)
        record = len(state.tx)
        assert record == 14400 and tiled and record not in tiled

    def test_taps_are_designed_once(
        self, reference_tx, reference_lo, received_096, reference_lowpass, monkeypatch
    ):
        designed = []
        design = lab.demod.design_lowpass

        def counted(spec):
            designed.append(spec)
            return design(spec)

        monkeypatch.setattr(lab.demod, "design_lowpass", counted)
        lab.demodulate(reference_tx, reference_lo, received_096, reference_lowpass)
        assert designed == [reference_lowpass]


class TestCutoffFeasibility:
    def test_reference_interval(self, reference_schedule):
        low, high = lab.feasible_cutoff_interval(reference_schedule)
        assert low == pytest.approx(40.0, rel=1e-12)
        assert high == pytest.approx(60.0, rel=1e-12)

    @pytest.mark.parametrize("cutoff", [39.0, 40.0, 60.0, 61.0])
    def test_infeasible_cutoffs_rejected(self, reference_schedule, cutoff):
        spec = lab.LowpassSpec(cutoff=cutoff, tap_count=257, sample_rate=SAMPLE_RATE)
        with pytest.raises(lab.ConfigurationError, match="feasible"):
            lab.demod.check_cutoff(reference_schedule, spec)

    def test_midpoint_accepted(self, reference_schedule, reference_lowpass):
        lab.demod.check_cutoff(reference_schedule, reference_lowpass)

    def test_empty_interval_reported(self):
        # A window of 0.15 s supports beats up to 50 Hz, but the smallest
        # jump frequency is also 50 Hz: nothing separates them.
        schedule = lab.make_schedule(lab.ChirpSpec(100.0, 200.0, 0.3), 250.0, 0.15, 2)
        spec = lab.LowpassSpec(cutoff=50.0, tap_count=257, sample_rate=SAMPLE_RATE)
        with pytest.raises(lab.ConfigurationError, match="no feasible cutoff"):
            lab.demod.check_cutoff(schedule, spec)


@given(scale=st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=30, deadline=None)
def test_filtering_commutes_with_scaling(scale):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(512)
    spec = lab.LowpassSpec(cutoff=50.0, tap_count=33, sample_rate=SAMPLE_RATE)
    scaled_first = lab.lowpass_filter(make_signal(scale * x), spec)
    scaled_after = scale * lab.lowpass_filter(make_signal(x), spec).samples
    np.testing.assert_allclose(scaled_first.samples, scaled_after, rtol=1e-12, atol=1e-14)
