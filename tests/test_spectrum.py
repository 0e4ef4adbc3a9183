import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ctfm_lab as lab
from ctfm_lab import cli, waveform
from ctfm_lab import spectrum as spectrum_module
from ctfm_lab.config import derive
from ctfm_lab.waveform import Rows, _tile, csv_columns
from full_grid import assert_same_readout, full_rfft
import oracles
from oracles import SAMPLE_RATE


def tone(freq, duration, rate=SAMPLE_RATE, amplitude=1.0):
    t = np.arange(int(round(duration * rate))) / rate
    return lab.SampledSignal(rate, amplitude * np.cos(2 * np.pi * freq * t))


def full_scan_sidelobes(spec, peak, search_span, floor_db):
    """Reference catalog: visit every interior bin, keep those in the span."""
    freqs, mags = spec.bin_frequencies, spec.magnitudes
    peak_index = int(np.argmin(np.abs(freqs - peak.frequency)))
    _, lobe_left, lobe_right = spectrum_module._mainlobe_extent(spec, peak_index)
    guard = 1.0 / (math.pi * 10.0 ** (floor_db / 20.0) * spec.record_duration)
    exclude_left = min(lobe_left, peak.frequency - guard)
    exclude_right = max(lobe_right, peak.frequency + guard)
    low = max(peak.frequency - search_span, float(freqs[0]))
    high = min(peak.frequency + search_span, float(freqs[-1]))
    lobes = []
    for i in range(1, len(freqs) - 1):
        if not low <= freqs[i] <= high or exclude_left <= freqs[i] <= exclude_right:
            continue
        if not (mags[i] > mags[i - 1] and mags[i] >= mags[i + 1]):
            continue
        estimate = spectrum_module._interpolate_bin(spec, i)
        if estimate.magnitude <= 0.0:
            continue
        ratio_db = 20.0 * math.log10(estimate.magnitude / peak.magnitude)
        if ratio_db >= floor_db:
            lobes.append(lab.Sidelobe(estimate.frequency, min(ratio_db, 0.0)))
    return tuple(lobes)


class TestDftMagnitude:
    def test_all_zero_signal(self):
        spec = lab.dft_magnitude(lab.SampledSignal(SAMPLE_RATE, np.zeros(1024)), 4)
        assert np.all(spec.magnitudes == 0.0)

    def test_grid_spacing(self):
        spec = lab.dft_magnitude(tone(32.0, 3.6), 4)
        assert spec.bin_spacing == pytest.approx(SAMPLE_RATE / (4 * 14400), rel=1e-12)
        assert spec.native_bin == pytest.approx(1.0 / 3.6, rel=1e-12)
        assert spec.bin_frequencies[0] == 0.0
        assert spec.bin_frequencies[-1] == pytest.approx(SAMPLE_RATE / 2.0)

    def test_single_tone_peaks_within_one_native_bin(self):
        spec = lab.dft_magnitude(tone(32.0, 3.6), 4)
        best = spec.bin_frequencies[np.argmax(spec.magnitudes)]
        assert abs(best - 32.0) <= spec.native_bin

    def test_parseval(self):
        signal = tone(32.0, 1.0)
        padded = 4 * len(signal)
        # Two-sided transform as the independent identity check.
        full = np.fft.fft(signal.samples, padded)
        time_energy = np.sum(signal.samples**2)
        freq_energy = np.sum(np.abs(full) ** 2) / padded
        assert freq_energy == pytest.approx(time_energy, rel=1e-9)

    def test_rejects_bad_pad_factor(self):
        with pytest.raises(lab.DomainError):
            lab.dft_magnitude(tone(32.0, 0.1), 0)


class TestPaddingFactor:
    """Every readout transform takes its factor as any integer type but
    ``bool``, and refuses anything else under the parameter's name."""

    READOUTS = {
        "dft_magnitude": lambda signal, factor: lab.dft_magnitude(signal, factor),
        "band_magnitude": lambda signal, factor: spectrum_module.band_magnitude(
            signal, factor, (10.0, 50.0)
        ),
        "mainlobe_width": lambda signal, factor: spectrum_module.mainlobe_width(
            signal, (10.0, 50.0), factor
        ),
    }
    @pytest.mark.parametrize("readout", READOUTS)
    @pytest.mark.parametrize(
        "factor", [True, False, np.True_, 0, -4, 4.0, np.float64(4.0), "4", None]
    )
    def test_refused(self, readout, factor):
        message = f"zero_pad_factor must be a positive integer, got {factor!r}"
        with pytest.raises(lab.DomainError, match=re.escape(message)):
            self.READOUTS[readout](tone(32.0, 0.5), factor)

    @pytest.mark.parametrize("readout", READOUTS)
    @pytest.mark.parametrize("factor", [np.int64(4), np.int32(4), np.uint8(4)])
    def test_any_integer_type_reads_as_the_int(self, readout, factor):
        signal = tone(32.0, 0.5)
        ours, reference = (self.READOUTS[readout](signal, f) for f in (factor, 4))
        if readout == "mainlobe_width":
            assert ours.hex() == reference.hex()
            return
        assert ours.zero_pad_factor == 4
        if readout == "dft_magnitude":
            assert type(ours.zero_pad_factor) is int
        for field in ("bin_frequencies", "magnitudes"):
            assert getattr(ours, field).tobytes() == getattr(reference, field).tobytes()

    def test_scale_equivariance(self):
        base = tone(32.0, 1.0)
        scaled = lab.SampledSignal(SAMPLE_RATE, -2.5 * base.samples)
        spec_a = lab.dft_magnitude(base, 4)
        spec_b = lab.dft_magnitude(scaled, 4)
        np.testing.assert_array_equal(spec_a.bin_frequencies, spec_b.bin_frequencies)
        np.testing.assert_allclose(
            spec_b.magnitudes, 2.5 * spec_a.magnitudes, rtol=1e-9, atol=1e-12
        )
        peak_a = lab.find_peak(spec_a, (10.0, 50.0))
        peak_b = lab.find_peak(spec_b, (10.0, 50.0))
        assert peak_b.frequency == pytest.approx(peak_a.frequency, abs=1e-9)
        assert peak_b.magnitude == pytest.approx(2.5 * peak_a.magnitude, rel=1e-9)


class TestCopyRule:
    """The public constructor copies, as ``SampledSignal``'s does; the
    spectra the package builds wrap its fresh arrays read-only, uncopied."""

    def test_constructor_copies_the_callers_arrays(self):
        freqs, mags = np.arange(5.0), np.ones(5)
        spec = lab.Spectrum(freqs, mags, record_duration=1.0, zero_pad_factor=1)
        freqs[0] = mags[0] = 99.0
        assert spec.bin_frequencies[0] == 0.0 and spec.magnitudes[0] == 1.0
        assert freqs.flags.writeable and mags.flags.writeable

    def test_built_spectra_are_read_only_and_not_copied(self, monkeypatch):
        """``dft_magnitude`` wraps its cached ``readout_grid`` frequencies,
        ``rfftfreq``'s bit for bit, and the magnitudes its first read
        transforms, kept for every later read; the width zoom wraps its
        cached frequencies and the magnitudes it has just built: each owns
        its memory, so no view pins a larger transform buffer."""
        built = []
        fresh = lab.Spectrum._fresh

        def recording_fresh(freqs, mags, *args):
            built.append((freqs, mags, fresh(freqs, mags, *args)))
            return built[-1][2]

        monkeypatch.setattr(lab.Spectrum, "_fresh", recording_fresh)
        signal = tone(20.0, 0.5)
        spec = lab.dft_magnitude(signal, 4)
        spectrum_module.mainlobe_width(signal, (5.0, 45.0), 64)
        assert len(built) == 2 and built[0][2] is spec
        expected = np.fft.rfftfreq(4 * len(signal), 1.0 / signal.sample_rate)
        assert spec.bin_frequencies.dtype == expected.dtype
        assert spec.bin_frequencies.tobytes() == expected.tobytes()
        zoomed = built[1][2]
        assert 0.0 < zoomed.bin_frequencies[0] < 5.0 and 45.0 < zoomed.bin_frequencies[-1] < 50.0
        assert built[0][1] is None  # transformed on the first read below
        built[0] = (built[0][0], spec.magnitudes, spec)
        for freqs, mags, spec in built:
            assert spec.bin_frequencies is freqs and spec.magnitudes is mags
            for values in (freqs, mags):
                assert values.flags.owndata
                assert not values.flags.writeable
                with pytest.raises(ValueError):
                    values[0] = 1.0


class TestFindPeak:
    def test_single_tone_readout_is_subbin_accurate(self):
        spec = lab.dft_magnitude(tone(32.0, 3.6), 4)
        peak = lab.find_peak(spec, (10.0, 50.0))
        assert peak.frequency == pytest.approx(32.0, abs=0.05)

    def test_off_grid_tone(self):
        spec = lab.dft_magnitude(tone(31.77, 3.6), 4)
        peak = lab.find_peak(spec, (10.0, 50.0))
        assert peak.frequency == pytest.approx(31.77, abs=0.05)

    def test_flat_zero_band_raises(self):
        spec = lab.dft_magnitude(lab.SampledSignal(SAMPLE_RATE, np.zeros(4096)), 4)
        with pytest.raises(lab.NoPeakError):
            lab.find_peak(spec, (10.0, 50.0))

    def test_band_must_cover_three_bins(self):
        spec = lab.dft_magnitude(tone(32.0, 1.0), 1)
        with pytest.raises(lab.DomainError, match="bins"):
            lab.find_peak(spec, (31.9, 32.1))

    def test_band_must_lie_on_the_grid(self):
        spec = lab.dft_magnitude(tone(32.0, 1.0), 1)
        with pytest.raises(lab.DomainError, match="grid"):
            lab.find_peak(spec, (10.0, 3000.0))

    def test_symmetric_tie_interpolates_to_the_midpoint(self):
        spec = lab.Spectrum(
            bin_frequencies=np.arange(8, dtype=float),
            magnitudes=np.array([0.0, 0.5, 1.0, 2.0, 2.0, 1.0, 0.5, 0.0]),
            record_duration=1.0,
            zero_pad_factor=1,
        )
        peak = lab.find_peak(spec, (0.0, 7.0))
        assert peak.frequency == pytest.approx(3.5, rel=1e-12)


class TestBandBins:
    """``find_peak`` reads the bins a boolean mask of the band would select."""

    @staticmethod
    def mask_bins(freqs, band):
        return np.nonzero((freqs >= band[0]) & (freqs <= band[1]))[0].tolist()

    @given(
        points=st.integers(min_value=4, max_value=5000),
        rate=st.sampled_from([4000.0, 3333.3, 44100.0, 7.5]),
        edges=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        nudges=st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1])),
    )
    @settings(max_examples=300, deadline=None)
    def test_bins_and_peak_match_the_mask(self, points, rate, edges, nudges):
        """Band edges exactly on a bin, or one float either side of it."""
        freqs = np.fft.rfftfreq(points, 1.0 / rate)
        on_bins = [float(freqs[int(edge * (freqs.size - 1))]) for edge in edges]
        low, high = (
            math.nextafter(f, math.inf * nudge) if nudge else f
            for f, nudge in zip(on_bins, nudges)
        )
        bins = spectrum_module.band_bins(freqs.size, freqs.__getitem__, (low, high))
        selected = self.mask_bins(freqs, (low, high))
        assert list(bins) == selected

        if not (freqs[0] <= low < high <= freqs[-1] and len(selected) >= 3):
            return
        mags = (np.arange(freqs.size) * 7919 % 13).astype(float)  # ties on purpose
        spec = lab.Spectrum(freqs, mags, record_duration=1.0, zero_pad_factor=1)
        first_max = selected[int(np.argmax(mags[selected]))]
        if first_max in (selected[0], selected[-1]):  # a band edge: the bin as it stands
            expected = (float(freqs[first_max]), float(mags[first_max]))
        else:
            expected = spectrum_module._interpolate_bin(spec, first_max)
        assert lab.find_peak(spec, (low, high)) == expected


@st.composite
def grids_and_frequencies(draw):
    """A rising grid and a frequency on it: on a bin, exactly midway between
    two, one float off a bin, or anywhere between two; bins 0 and size - 1
    are drawn as often as any."""
    size = draw(st.integers(min_value=2, max_value=40_000))
    step = draw(st.sampled_from([0.25, 1.0, 1.0 / 3.0, 4000.0 / 56_060]))
    freqs = np.arange(size) * step
    k = draw(st.sampled_from([0, size - 1]) | st.integers(0, size - 1))
    kind = draw(st.sampled_from(["bin", "midway", "below", "above", "between"]))
    low, high = freqs[max(k - 1, 0)], freqs[min(k + 1, size - 1)]
    f = {
        "bin": freqs[k],
        "midway": 0.5 * (freqs[k] + high),
        "below": np.nextafter(freqs[k], low),
        "above": np.nextafter(freqs[k], high),
        "between": freqs[k] + draw(st.floats(0.0, 1.0)) * (high - freqs[k]),
    }[kind]
    return freqs, float(f)


class TestPeakBin:
    """``_peak_bin`` bisects for the bin ``np.argmin`` of the distances picks."""

    @given(grid=grids_and_frequencies())
    @settings(max_examples=400, deadline=None)
    def test_matches_argmin(self, grid):
        freqs, f = grid
        spec = lab.Spectrum._fresh(freqs, np.ones(freqs.size), 1.0, 1.0)
        expected = int(np.argmin(np.abs(freqs - f)))
        assert spectrum_module._peak_bin(spec, lab.PeakEstimate(f, 1.0)) == expected

    @pytest.mark.parametrize("f, expected", [(0.375, 1), (0.0, 0), (1.75, 7), (1.625, 6)])
    def test_a_tie_picks_the_lower_bin_and_an_end_its_own(self, f, expected):
        freqs = np.arange(8) * 0.25
        spec = lab.Spectrum(freqs, np.ones(8), record_duration=1.0, zero_pad_factor=1)
        assert int(np.argmin(np.abs(freqs - f))) == expected
        assert spectrum_module._peak_bin(spec, lab.PeakEstimate(f, 1.0)) == expected


class TestReadoutGrid:
    """``readout_grid`` is the transform ``dft_magnitude`` or ``mainlobe_width``
    takes, and ``band_bins`` on it counts, without building the grid, the
    bins ``find_peak`` selects; ``np.fft.rfftfreq`` is the oracle."""

    @given(
        samples=st.integers(min_value=1, max_value=3000),
        factor=st.integers(min_value=1, max_value=70),
        rate=st.sampled_from([4000.0, 1000.0, 3333.3, 44100.0, 7.5]),
        edges=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        on_bins=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_count_matches_the_built_grid(self, samples, factor, rate, edges, on_bins):
        points, size, freq = spectrum_module.readout_grid(samples, rate, factor)
        assert points == factor * samples
        freqs = np.fft.rfftfreq(points, 1.0 / rate)
        grid = freq(np.arange(size))
        assert grid.dtype == freqs.dtype and grid.tobytes() == freqs.tobytes()
        nyquist = rate / 2.0
        low, high = sorted(edge * nyquist for edge in edges)
        if on_bins:  # edges exactly on, or one float off, a grid frequency
            low = float(freqs[int(edges[0] * (freqs.size - 1))])
            high = float(np.nextafter(freqs[int(edges[1] * (freqs.size - 1))], 0.0))
        mask = (freqs >= low) & (freqs <= high)
        expected = int(np.count_nonzero(mask)) if low <= high else 0
        assert len(spectrum_module.band_bins(size, freq, (low, high))) == expected

    def test_transform_lengths_are_the_readouts(self):
        signal = tone(32.0, 0.2)
        assert spectrum_module.readout_grid(len(signal), SAMPLE_RATE, 4)[0] == 4 * 800
        assert spectrum_module.readout_grid(len(signal), SAMPLE_RATE, 64)[0] == 64 * 800
        assert spectrum_module.readout_grid(1, SAMPLE_RATE, 1)[0] == 1
        spec = lab.dft_magnitude(signal, 4)
        assert spec.bin_frequencies.size == 4 * 800 // 2 + 1


class TestSpectrumFields:
    """A spectrum refuses a record duration or padding factor it cannot use,
    from the constructor and from ``_fresh`` alike, naming the field."""

    @pytest.mark.parametrize("build", ["constructor", "fresh"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("record_duration", 0.0),
            ("record_duration", -1.0),
            ("record_duration", math.nan),
            ("record_duration", math.inf),
            ("zero_pad_factor", 0.5),
            ("zero_pad_factor", math.nan),
            ("zero_pad_factor", -2),
        ],
    )
    def test_a_field_it_cannot_use_is_refused(self, build, field, value):
        # The 21-bin spike spectrum of the span tests: peak at 10 Hz, lobes
        # at 4 and 16 Hz.
        mags = np.full(21, 0.01)
        mags[10] = 1.0
        mags[[4, 16]] = 0.5
        fields = {"record_duration": 100.0, "zero_pad_factor": 1, field: value}
        with pytest.raises(lab.DomainError, match=f"^{field} must be finite"):
            if build == "constructor":
                lab.Spectrum(np.arange(21.0), mags, **fields)
            else:
                lab.Spectrum._fresh(np.arange(21.0), mags, *fields.values())

    @pytest.mark.parametrize(
        "freqs, error, match",
        [
            ([0.0], lab.ShapeError, "at least two bins, got 1"),
            ([], lab.ShapeError, "at least two bins, got 0"),
            ([0.0, math.nan, 2.0], lab.DomainError, "finite and strictly rising"),
            ([0.0, 1.0, math.inf], lab.DomainError, "finite and strictly rising"),
            ([3.0, 2.0, 1.0, 0.0], lab.DomainError, "finite and strictly rising"),
            ([0.0, 1.0, 1.0, 2.0], lab.DomainError, "finite and strictly rising"),
        ],
        ids=["one-bin", "no-bin", "nan", "inf", "falling", "repeated"],
    )
    def test_a_grid_it_cannot_be_read_on_is_refused(self, freqs, error, match):
        """Every readout bisects the grid, so the constructor takes only a
        finite grid of two or more strictly rising bins."""
        with pytest.raises(error, match=match):
            lab.Spectrum(freqs, np.ones(len(freqs)), 1.0, 4)

    def test_a_rising_grid_of_two_bins_is_kept(self):
        assert lab.Spectrum([0.0, 0.5], [1.0, 2.0], 1.0, 4).bin_spacing == 0.5


class TestSidelobeReport:
    def test_commensurate_tone_has_no_reportable_sidelobes(self):
        # 112 whole periods: every artifact in sight is window leakage,
        # which the guard region plus the -20 dB floor must reject.
        signal = tone(32.0, 3.5)
        spec = lab.dft_magnitude(signal, 4)
        peak = lab.find_peak(spec, (10.0, 50.0))
        report = lab.sidelobe_report(spec, peak, search_span=10.0, floor_db=-20.0)
        assert report.sidelobes == ()

    def test_mainlobe_width_of_a_rectangular_record(self):
        signal = tone(32.0, 3.5)
        spec = lab.dft_magnitude(signal, 16)
        peak = lab.find_peak(spec, (10.0, 50.0))
        report = lab.sidelobe_report(spec, peak, search_span=10.0, floor_db=-20.0)
        # Rectangular-window -3 dB width is 0.886 / duration.
        assert report.mainlobe_width_3db == pytest.approx(0.886 / 3.5, rel=0.05)

    @staticmethod
    def two_tone():
        """(spectrum, peak) of a 32 Hz tone plus a 36 Hz one 12 dB down."""
        t = np.arange(int(3.5 * SAMPLE_RATE)) / SAMPLE_RATE
        samples = np.cos(2 * np.pi * 32.0 * t) + 0.25 * np.cos(2 * np.pi * 36.0 * t)
        spec = lab.dft_magnitude(lab.SampledSignal(SAMPLE_RATE, samples), 4)
        return spec, lab.find_peak(spec, (20.0, 50.0))

    def test_two_tone_sidelobe_readout(self):
        # Rectangular-window leakage of the strong tone ripples around the
        # weak one, so the floor sits just under the weak tone's -12 dB.
        spec, peak = self.two_tone()
        report = lab.sidelobe_report(spec, peak, search_span=10.0, floor_db=-14.0)
        assert len(report.sidelobes) == 1
        lobe = report.sidelobes[0]
        assert lobe.frequency == pytest.approx(36.0, abs=0.05)
        assert lobe.ratio_db == pytest.approx(20 * math.log10(0.25), abs=0.5)

    @pytest.mark.parametrize("floor_db", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_floor_is_refused(self, floor_db):
        spec, peak = self.two_tone()
        message = f"floor_db must be finite, got {floor_db}"
        with pytest.raises(lab.DomainError, match=message):
            lab.sidelobe_report(spec, peak, search_span=10.0, floor_db=floor_db)

    @pytest.mark.parametrize("search_span", [math.nan, 0.0, -1.0])
    def test_a_span_not_above_zero_is_refused(self, search_span):
        spec, peak = self.two_tone()
        message = f"search_span must be positive, got {search_span}"
        with pytest.raises(lab.DomainError, match=message):
            lab.sidelobe_report(spec, peak, search_span=search_span, floor_db=-14.0)

    @pytest.mark.parametrize("search_span", [1.0, 10.0, 3.0 / 0.3, 1e4])
    def test_span_scan_matches_a_full_grid_scan(self, spectrum_096, search_span):
        peak = lab.find_peak(spectrum_096, (10.0, 50.0))
        report = lab.sidelobe_report(spectrum_096, peak, search_span, -30.0)
        assert report.sidelobes == full_scan_sidelobes(
            spectrum_096, peak, search_span, -30.0
        )

    def test_span_past_both_grid_ends_matches_a_full_grid_scan(self):
        # A 100 Hz record: a span of 1 kHz reaches past DC and Nyquist.
        t = np.arange(300) / 100.0
        samples = np.cos(2 * np.pi * 5.0 * t) + 0.3 * np.cos(2 * np.pi * 12.0 * t)
        spec = lab.dft_magnitude(lab.SampledSignal(100.0, samples), 4)
        peak = lab.find_peak(spec, (1.0, 49.0))
        report = lab.sidelobe_report(spec, peak, 1000.0, -40.0)
        assert report.sidelobes
        assert report.sidelobes == full_scan_sidelobes(spec, peak, 1000.0, -40.0)

    @pytest.mark.parametrize(
        "search_span, expected_bins",
        [(5.5, ()), (6.0, (4, 16)), (100.0, (1, 4, 16, 19))],
    )
    def test_span_bounds_are_inclusive_and_clamped_to_the_interior(
        self, search_span, expected_bins
    ):
        # Isolated spikes on a 1 Hz grid: the peak at 10 Hz, lobes at 4 and
        # 16 Hz (exactly 6 Hz away) and at the first and last interior bins.
        mags = np.full(21, 0.01)
        mags[10] = 1.0
        mags[[1, 4, 16, 19]] = 0.5
        spec = lab.Spectrum(np.arange(21.0), mags, record_duration=100.0, zero_pad_factor=1)
        peak = lab.PeakEstimate(10.0, 1.0)
        report = lab.sidelobe_report(spec, peak, search_span, floor_db=-20.0)
        ratio = 20.0 * math.log10(0.5)
        assert report.sidelobes == tuple(lab.Sidelobe(float(i), ratio) for i in expected_bins)

    @staticmethod
    def searchsorted_span(freqs, low, high):
        """The interior bins in [low, high] by ``np.searchsorted``, the span
        rule ``sidelobe_report`` kept before ``band_bins`` picked it."""
        first = max(1, int(np.searchsorted(freqs, low, side="left")))
        last = min(len(freqs) - 2, int(np.searchsorted(freqs, high, side="right")) - 1)
        return range(first, last + 1)

    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    @pytest.mark.parametrize("side, target", [(-1, 10), (1, 22)], ids=["low", "high"])
    def test_span_edges_on_a_bin_or_one_float_off(self, side, target, nudge):
        # Isolated spikes on every even offset from the peak bin, on a grid
        # whose step is not a round number: each spike is a lobe read at its
        # own bin, so the catalog names exactly the spikes the span selects.
        freqs = np.fft.rfftfreq(64, 1.0 / 3333.3)
        mags = np.full(freqs.size, 0.01)
        mags[16] = 1.0
        spikes = [i for i in range(freqs.size) if i != 16 and (i - 16) % 2 == 0]
        mags[spikes] = 0.5
        spec = lab.Spectrum(freqs, mags, record_duration=100.0, zero_pad_factor=1)
        peak = lab.PeakEstimate(float(freqs[16]), 1.0)
        edge = float(freqs[target])
        edge = math.nextafter(edge, math.inf * nudge) if nudge else edge
        search_span = abs(edge - peak.frequency)  # exact: within a factor 2
        low, high = peak.frequency - search_span, peak.frequency + search_span
        assert (low, high)[side > 0] == edge
        span = self.searchsorted_span(freqs, low, high)
        assert (target in span) == (nudge != -side)
        report = lab.sidelobe_report(spec, peak, search_span, floor_db=-20.0)
        ratio = 20.0 * math.log10(0.5)
        expected = tuple(lab.Sidelobe(float(freqs[i]), ratio) for i in span if i in spikes)
        assert report.sidelobes == expected

    @staticmethod
    def five_hz():
        """(spectrum, peak) of a 5 Hz tone, 300 samples at 100 Hz."""
        t = np.arange(300) / 100.0
        spec = lab.dft_magnitude(lab.SampledSignal(100.0, np.cos(2 * np.pi * 5.0 * t)), 4)
        return spec, lab.find_peak(spec, (1.0, 49.0))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("frequency", math.nan, "peak.frequency must be finite, got nan"),
            ("magnitude", math.nan, "peak.magnitude must be finite, got nan"),
            ("magnitude", math.inf, "peak.magnitude must be finite, got inf"),
            ("frequency", 1e9, "peak.frequency 1000000000.0 lies outside the frequency grid"),
            ("frequency", -0.5, "peak.frequency -0.5 lies outside the frequency grid"),
        ],
    )
    def test_a_peak_it_cannot_use_is_refused(self, field, value, message):
        spec, peak = self.five_hz()
        with pytest.raises(lab.DomainError, match=re.escape(message)):
            lab.sidelobe_report(spec, peak._replace(**{field: value}), 10.0, -40.0)

    @staticmethod
    @st.composite
    def lobe_fields(draw):
        """(spectrum, peak, span, floor): a spike peak on a 0.1 Hz grid and a
        lobe every four bins, its bin 5 dB under the floor to 1 dB over it and
        its neighbours each 0-30 dB under the bin, half of them lopsided, so
        lobes whose refinement lifts them across the floor are common.  The
        lobes come from a seeded generator, the rest from hypothesis."""
        floor_db = draw(st.floats(-40.0, -1.0))
        search_span = draw(st.floats(0.3, 40.0))
        count = draw(st.integers(1, 120))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        crests = 4 * np.arange(count) + 2
        offsets = rng.uniform(-5.0, 1.0, count)
        drops = rng.uniform(0.0, 30.0, (2, count))
        lopsided = rng.random(count) < 0.5  # one neighbour near 30 dB, one near 0
        drops[:, lopsided] = rng.uniform((28.0, 0.0), (30.0, 2.0), (lopsided.sum(), 2)).T
        mags = np.full(4 * count + 1, 1e-9)
        mags[crests] = 10.0 ** ((floor_db + offsets) / 20.0)
        mags[crests - 1] = mags[crests] * 10.0 ** (-drops[0] / 20.0)
        mags[crests + 1] = mags[crests] * 10.0 ** (-drops[1] / 20.0)
        centre = crests[count // 2]
        mags[centre - 1 : centre + 2] = (0.5, 1.0, 0.5)
        freqs = np.arange(mags.size) * 0.1
        spec = lab.Spectrum._fresh(freqs, mags, draw(st.floats(1.0, 1000.0)), 1.0)
        shift = draw(st.floats(-0.05, 0.05))
        return spec, lab.PeakEstimate(float(freqs[centre] + shift), 1.0), search_span, floor_db

    @given(args=lobe_fields())
    @settings(max_examples=200, deadline=None)
    def test_refining_only_reachable_maxima_keeps_the_full_scan(self, args):
        spec, peak, search_span, floor_db = args
        report = lab.sidelobe_report(spec, peak, search_span, floor_db)
        assert report.sidelobes == full_scan_sidelobes(spec, peak, search_span, floor_db)

    @given(
        level=st.floats(-200.0, 200.0),
        x=st.floats(0.0, 60.0),
        y=st.floats(0.0, 60.0),
    )
    @example(level=0.0, x=30.0, y=0.0)
    @example(level=0.0, x=29.999999, y=0.0)
    @settings(max_examples=500, deadline=None)
    def test_a_refined_maximum_exceeds_its_bin_by_at_most_3_75_db(self, level, x, y):
        """The bound ``sidelobe_report``'s margin rests on."""
        mags = 10.0 ** (np.array([level - x, level, level - y]) / 20.0)
        spec = lab.Spectrum(np.arange(3.0), mags, record_duration=1.0, zero_pad_factor=1)
        estimate = spectrum_module._interpolate_bin(spec, 1)
        assert 20.0 * math.log10(estimate.magnitude / mags[1]) <= 3.75 + 1e-9

    def test_ratios_never_exceed_zero(self, spectrum_096):
        peak = lab.find_peak(spectrum_096, (10.0, 50.0))
        report = lab.sidelobe_report(spectrum_096, peak, search_span=10.0, floor_db=-30.0)
        assert report.sidelobes
        assert all(lobe.ratio_db <= 0.0 for lobe in report.sidelobes)


def tones(rate, samples, lines):
    """A record of cosines, one per (frequency, amplitude, phase)."""
    t = np.arange(samples) / rate
    return lab.SampledSignal(rate, sum(a * np.cos(2 * np.pi * f * t + p) for f, a, p in lines))


class TestWidthZoom:
    """``mainlobe_width`` reads ``band_magnitude``'s chirp-z zoom of the
    ``factor * N`` grid; the reference is that grid's full rfft.
    Tolerances fixed before tuning: zoomed magnitudes within 1e-12 of the
    band peak, widths within 1e-9 relative."""

    MAG_TOL = 1e-12
    WIDTH_RTOL = 1e-9

    @staticmethod
    def full_grid(signal, factor):
        points = spectrum_module.readout_grid(len(signal), signal.sample_rate, factor)[0]
        return points, full_rfft(signal, points)

    def check(self, signal, band, factor):
        """Zoom against the full grid; False, and nothing checked, when the
        band's two largest bins tie within 1e-9 (either may win), or when the
        band peak is under 1e-3 of sum |x|, a bound on every bin: such a band
        holds only leakage near the rounding floor both transforms share."""
        points, full = self.full_grid(signal, factor)
        freqs = full.bin_frequencies
        run = spectrum_module.band_bins(freqs.size, freqs.__getitem__, band)
        second, first = np.sort(full.magnitudes[run.start : run.stop])[-2:]
        if second >= first * (1.0 - 1e-9) or first < 1e-3 * np.abs(signal.samples).sum():
            return False
        lo, hi = max(run.start - 2, 0), min(run.stop + 2, freqs.size)
        zoom = spectrum_module._zoom(signal, points, range(lo, hi))
        grid = spectrum_module._bin_frequencies(points, signal.sample_rate, lo, hi)
        np.testing.assert_array_equal(grid, freqs[lo:hi])
        error = np.max(np.abs(zoom - full.magnitudes[lo:hi]))
        assert error <= self.MAG_TOL * first
        peak_bin = spectrum_module._peak_bin(full, lab.find_peak(full, band))
        expected = spectrum_module._mainlobe_extent(full, peak_bin)[0]
        width = spectrum_module.mainlobe_width(signal, band, factor)
        assert width == pytest.approx(expected, rel=self.WIDTH_RTOL)
        return True

    @given(
        samples=st.integers(min_value=8, max_value=3000),
        factor=st.integers(min_value=1, max_value=70),
        rate=st.sampled_from([4000.0, 1000.0, 3333.3, 44100.0, 7.5]),
        edges=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        lines=st.lists(
            st.tuples(st.floats(-0.1, 1.1), st.floats(0.1, 1.0), st.floats(0.0, 2 * math.pi)),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_zoom_reads_the_full_grid(self, samples, factor, rate, edges, lines):
        """Tones placed across the band, up to a tenth of it beyond each edge."""
        _, size, freq = spectrum_module.readout_grid(samples, rate, factor)
        low, high = sorted(edge * freq(size - 1) for edge in edges)
        assume(len(spectrum_module.band_bins(size, freq, (low, high))) >= 3)
        placed = [(low + u * (high - low), a, p) for u, a, p in lines]
        assume(self.check(tones(rate, samples, placed), (low, high), factor))

    @pytest.mark.parametrize(
        "lines, band, passes",
        [
            ([(0.0, 1.0, 0.0), (12.0, 0.3, 0.0)], (0.0, 20.0), 1),
            ([(1998.0, 1.0, 0.3)], (1900.0, 2000.0), 1),
            ([(9.0, 1.0, 0.3)], (10.0, 50.0), 1),
            ([(51.0, 1.0, 0.3)], (10.0, 50.0), 1),
            ([(49.0, 1.0, 0.0), (53.0, 1.0, math.pi / 2)], (10.0, 50.0), 2),
        ],
        ids=["band-from-0-hz", "band-to-nyquist", "peak-on-first-bin", "peak-on-last-bin",
             "skirt-past-the-margin"],
    )
    def test_edges(self, monkeypatch, lines, band, passes):
        """A band on a true grid edge, where the lobe runs off the grid; a
        band peak on the band's first or last bin, whose outside neighbour
        is higher, read at that bin and never outside the band; and two close
        tones whose -3 dB skirt runs past the band.  The first zoom reaches
        one native bin past each band edge, so it holds a lobe peaking on a
        band edge; the two tones' skirt runs past that reach, so the zoom
        must widen."""
        zooms = []
        zoom = spectrum_module._zoom

        def recording_zoom(*args):
            zooms.append(args[2])
            return zoom(*args)

        monkeypatch.setattr(spectrum_module, "_zoom", recording_zoom)
        signal = tones(4000.0, 800, lines)
        assert self.check(signal, band, 64)
        assert len(zooms) == 1 + passes  # ``check`` zooms once itself
        peak = lab.find_peak(self.full_grid(signal, 64)[1], band)
        assert band[0] <= peak.frequency <= band[1]

    @pytest.mark.parametrize("band", [(10.0, 3000.0), (-5.0, 20.0), (-9.0, -5.0)])
    def test_a_band_off_the_grid_names_the_grid(self, band):
        """The refusal names the full grid's edges, not the zoom's."""
        with pytest.raises(lab.DomainError, match=r"grid \[0\.0, 2000\.0\]"):
            spectrum_module.mainlobe_width(tone(20.0, 0.2), band, 64)


class TestBandMagnitude:
    """``band_magnitude`` reads ``dft_magnitude``'s grid on a band alone; the
    reference is that grid's full rfft, kept here.  Tolerances fixed before
    tuning: magnitudes within 1e-12 of the band peak, as for the width zoom,
    and readouts within ``full_grid.READOUT_TOL``."""

    MAG_TOL = 1e-12

    def check(self, signal, band, factor):
        """The band spectrum against the full grid: (full, band spectrum), or
        None, and nothing checked, when the band peak is under 1e-3 of
        sum |x|, where the band holds only leakage near the rounding floor."""
        full = full_rfft(signal, factor * len(signal))
        freqs = full.bin_frequencies
        run = spectrum_module.band_bins(freqs.size, freqs.__getitem__, band)
        peak = full.magnitudes[run.start : run.stop].max()
        if peak < 1e-3 * np.abs(signal.samples).sum():
            return None
        lo, hi = max(run.start - 1, 0), min(run.stop + 1, freqs.size)
        spec = spectrum_module.band_magnitude(signal, factor, band)
        np.testing.assert_array_equal(spec.bin_frequencies, freqs[lo:hi])
        assert spec.zero_pad_factor == factor
        error = np.max(np.abs(spec.magnitudes - full.magnitudes[lo:hi]))
        assert error <= self.MAG_TOL * peak
        return full, spec

    @given(
        samples=st.integers(min_value=8, max_value=3000),
        factor=st.integers(min_value=1, max_value=70),
        rate=st.sampled_from([4000.0, 1000.0, 3333.3, 44100.0, 7.5]),
        edges=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        lines=st.lists(
            st.tuples(st.floats(-0.1, 1.1), st.floats(0.1, 1.0), st.floats(0.0, 2 * math.pi)),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_band_reads_the_full_grid(self, samples, factor, rate, edges, lines):
        """Tones placed across the band, up to a tenth of it beyond each edge."""
        _, size, freq = spectrum_module.readout_grid(samples, rate, factor)
        low, high = sorted(edge * freq(size - 1) for edge in edges)
        assume(len(spectrum_module.band_bins(size, freq, (low, high))) >= 3)
        placed = [(low + u * (high - low), a, p) for u, a, p in lines]
        assume(self.check(tones(rate, samples, placed), (low, high), factor) is not None)

    @pytest.mark.parametrize("band", [(30.0, 10.0), (20.0, 20.0), (math.nan, 20.0)])
    def test_a_reversed_or_empty_band_is_refused(self, band):
        message = f"band must satisfy low < high, got {band}"
        with pytest.raises(lab.DomainError, match=re.escape(message)):
            spectrum_module.band_magnitude(tone(32.0, 0.5), 4, band)

    @pytest.mark.parametrize(
        "lines, band, edge",
        [
            ([(20.0, 1.0, 0.0), (27.0, 0.3, 0.5)], (5.0, 50.0), "first-bin-is-0-hz"),
            ([(1985.0, 1.0, 0.3), (1978.0, 0.3, 0.0)], (1950.0, 1995.0), "last-bin-is-nyquist"),
            ([(9.4, 1.0, 0.3), (16.0, 0.3, 0.0)], (10.0, 50.0), "peak-on-first-bin"),
            ([(50.6, 1.0, 0.3), (44.0, 0.3, 0.0)], (10.0, 50.0), "peak-on-last-bin"),
        ],
        ids=["reach-clipped-at-0-hz", "reach-clipped-at-nyquist", "peak-on-first-bin",
             "peak-on-last-bin"],
    )
    def test_edges(self, lines, band, edge):
        """The band plus a 10 Hz sidelobe span, as ``measure`` reaches, past
        0 Hz or past Nyquist, where the zoom stops at the grid's end; and a
        band peak on the band's first or last bin, next to a higher bin
        outside it.  Peak and sidelobes read as on the full grid."""
        span = 10.0
        signal = tones(4000.0, 4000, lines)
        reach = (band[0] - span, band[1] + span)
        full, spec = self.check(signal, reach, 4)
        if edge == "first-bin-is-0-hz":
            assert reach[0] < 0.0 and spec.bin_frequencies[0] == 0.0
        elif edge == "last-bin-is-nyquist":
            assert reach[1] > 2000.0 and spec.bin_frequencies[-1] == full.bin_frequencies[-1]
        else:
            freqs = full.bin_frequencies
            run = spectrum_module.band_bins(freqs.size, freqs.__getitem__, band)
            at = run.start if edge == "peak-on-first-bin" else run.stop - 1
            assert lab.find_peak(spec, band).frequency == freqs[at]
        readouts = []
        for grid in (spec, full):
            peak = lab.find_peak(grid, band)
            readouts.append(lab.sidelobe_report(grid, peak, span, -20.0))
        assert readouts[1].sidelobes
        assert_same_readout(*readouts)


class TestDftRoute:
    """``dft_magnitude``'s whole grid is one rfft, whatever the transform
    length's prime factors: magnitudes and bin frequencies bit for bit the
    full rfft grid's."""

    @staticmethod
    def counting_rfft(monkeypatch):
        calls, rfft = [], np.fft.rfft

        def recording_rfft(*args, **kwargs):
            calls.append(args[1:])
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recording_rfft)
        return calls

    @given(
        prime=st.sampled_from([2, 3, 7, 397, 401, 409, 499, 2083, 2803]),
        multiple=st.integers(min_value=1, max_value=6),
        factor=st.integers(min_value=1, max_value=8),
        rate=st.sampled_from([4000.0, 3333.3, 7.5]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(prime=409, multiple=3, factor=1, rate=4000.0, seed=0)  # odd
    @example(prime=2803, multiple=5, factor=4, rate=4000.0, seed=0)  # paper.cfg's grid
    @example(prime=2083, multiple=5, factor=4, rate=4000.0, seed=0)  # 9 cycles' grid
    @example(prime=401, multiple=3, factor=3, rate=4000.0, seed=0)  # odd
    @example(prime=401, multiple=2, factor=8, rate=4000.0, seed=0)  # even
    @settings(max_examples=60, deadline=None)
    def test_matches_the_rfft(self, prime, multiple, factor, rate, seed):
        """White noise on records of ``prime * multiple`` samples, with
        primes each side of where numpy's pocketfft takes its own Bluestein
        pass (about 400 at 48k points)."""
        samples = prime * multiple
        signal = lab.SampledSignal(rate, np.random.default_rng(seed).standard_normal(samples))
        spec = lab.dft_magnitude(signal, factor)
        full = full_rfft(signal, factor * samples)
        assert spec.bin_frequencies.tobytes() == full.bin_frequencies.tobytes()
        assert spec.zero_pad_factor == factor and spec.record_duration == signal.duration
        assert spec.magnitudes.tobytes() == full.magnitudes.tobytes()

    @pytest.mark.parametrize(
        "samples, factor",
        [(14015, 4), (1200, 64)],
        ids=["paper-record-56060-points", "paper-window-76800-points"],
    )
    def test_route(self, monkeypatch, samples, factor):
        """At the first read of its magnitudes, ``paper.cfg``'s record,
        4 x 14,015 = 2**2 * 5 * 2803 points, and a 1,200-sample window at
        64x, 2**10 * 3 * 5**2, each take one rfft.  ``dft_magnitude`` itself
        takes none, and a second read takes none."""
        calls = self.counting_rfft(monkeypatch)
        spec = lab.dft_magnitude(tone(32.0, samples / SAMPLE_RATE), factor)
        assert calls == []
        assert spec.magnitudes is spec.magnitudes
        assert calls == [(factor * samples,)]

    @pytest.mark.parametrize("samples, factor", [(14015, 4), (1200, 64)])
    def test_records_of_one_length_share_one_grid(self, samples, factor):
        """On both routes, equal-length records read one read-only array of
        bin frequencies, built once."""
        first, second = (
            lab.dft_magnitude(tone(f, samples / SAMPLE_RATE), factor) for f in (32.0, 33.0)
        )
        assert first.bin_frequencies is second.bin_frequencies
        assert not first.bin_frequencies.flags.writeable

    def test_takes_only_the_oldest_supported_fft_arguments(self, monkeypatch):
        """The package declares numpy>=1.24, whose ``np.fft`` functions take
        ``(a, n, axis, norm)`` alone; every transform path runs on those."""
        for name in ("fft", "ifft", "rfft"):
            transform = getattr(np.fft, name)

            def oldest(a, n=None, axis=-1, norm=None, _transform=transform):
                return _transform(a, n, axis, norm)

            monkeypatch.setattr(np.fft, name, oldest)
        spectrum_module._zoom_plan.cache_clear()
        record, window = tone(32.0, 14015 / SAMPLE_RATE), tone(32.0, 1200 / SAMPLE_RATE)
        for signal, factor in ((record, 4), (window, 64)):
            lab.find_peak(lab.dft_magnitude(signal, factor), (20.0, 40.0))
            lab.dft_magnitude(signal, factor).magnitudes
        spectrum_module.band_magnitude(record, 4, (20.0, 40.0))
        spectrum_module.mainlobe_width(window, (20.0, 40.0), 64)


class TestLazySpectrum:
    """``dft_magnitude`` transforms nothing until its magnitudes are read;
    ``find_peak`` and ``sidelobe_report`` read ``Spectrum._head``, a zoom of
    the grid's low bins.  Tolerances fixed before tuning: peak and sidelobe
    frequencies within ``READOUT_TOL`` Hz, ratios within ``READOUT_TOL`` dB
    and widths within 1e-9 relative, of the full rfft grid's readouts and of
    the materialized spectrum's."""

    WIDTH_RTOL = 1e-9
    RATE = 1000.0

    @staticmethod
    def readout(spec, band, search_span, floor_db):
        peak = lab.find_peak(spec, band)
        return lab.sidelobe_report(spec, peak, search_span, floor_db)

    @staticmethod
    def recording_zoom(monkeypatch):
        bins, zoom = [], spectrum_module._zoom

        def recording(*args, **kwargs):
            bins.append(args[2])
            return zoom(*args, **kwargs)

        monkeypatch.setattr(spectrum_module, "_zoom", recording)
        return bins

    @given(
        prime=st.sampled_from([2, 3, 7, 401, 409, 2083]),
        multiple=st.integers(min_value=1, max_value=6),
        factor=st.sampled_from([1, 4, 16, 64]),
        edges=st.tuples(st.floats(0.0, 0.6), st.floats(0.0, 0.6)),
        lines=st.lists(
            st.tuples(st.floats(-0.1, 1.1), st.floats(0.1, 1.0), st.floats(0.0, 2 * math.pi)),
            min_size=1,
            max_size=3,
        ),
        span=st.floats(0.1, 8.0),
        floor_db=st.sampled_from([-40.0, -12.0]),
    )
    @example(  # a peak on the band's last bin
        prime=409, multiple=2, factor=16, edges=(0.1, 0.3), lines=[(1.05, 1.0, 0.0)],
        span=3.0, floor_db=-40.0,
    )
    @example(  # a lobe past the head: the whole grid is read
        prime=409, multiple=1, factor=64, edges=(0.0, 0.28), lines=[(0.999, 1.0, 0.3)],
        span=0.2, floor_db=-40.0,
    )
    @settings(max_examples=60, deadline=None)
    def test_readouts_match_the_full_grid(
        self, prime, multiple, factor, edges, lines, span, floor_db
    ):
        """Tones across a band in the lower 60% of the grid, up to a tenth of
        it beyond each edge; the search span is ``span`` native bins.
        Nothing is checked when the band's two largest bins tie within 1e-9,
        or its peak is under 1e-3 of sum |x|, as in ``TestWidthZoom``."""
        samples = prime * multiple
        _, size, freq = spectrum_module.readout_grid(samples, self.RATE, factor)
        low, high = sorted(edge * freq(size - 1) for edge in edges)
        run = spectrum_module.band_bins(size, freq, (low, high))
        assume(len(run) >= 3)
        signal = tones(self.RATE, samples, [(low + u * (high - low), a, p) for u, a, p in lines])
        full = full_rfft(signal, factor * samples)
        second, first = np.sort(full.magnitudes[run.start : run.stop])[-2:]
        assume(second < first * (1.0 - 1e-9) and first >= 1e-3 * np.abs(signal.samples).sum())
        search_span = span * self.RATE / samples
        reference = self.readout(full, (low, high), search_span, floor_db)
        lazy = lab.dft_magnitude(signal, factor)
        materialized = lab.dft_magnitude(signal, factor)
        assert materialized.magnitudes.size == size and materialized._head(3) is materialized
        for spec in (lazy, materialized):
            report = self.readout(spec, (low, high), search_span, floor_db)
            assert_same_readout(report, reference)
            width = report.mainlobe_width_3db
            assert width == pytest.approx(reference.mainlobe_width_3db, rel=self.WIDTH_RTOL)

    def test_a_lobe_past_the_head_reads_the_whole_grid(self, monkeypatch):
        """A tone just under the band's top, read with a span narrower than
        its lobe: ``find_peak``'s head zooms the band's 3,665 bins and one
        more, ``sidelobe_report``'s span reaches past them, so it zooms
        3,675, and that head ends inside the lobe, so it reads the whole
        grid, one rfft of 409 x 64 points, which drops the record and the
        head."""
        signal = tones(self.RATE, 409, [(139.86, 1.0, 0.3)])
        band, search_span = (0.0, 140.0), 0.2 * self.RATE / 409
        rffts = TestDftRoute.counting_rfft(monkeypatch)
        zoomed = self.recording_zoom(monkeypatch)
        spec = lab.dft_magnitude(signal, 64)
        report = self.readout(spec, band, search_span, -40.0)
        assert [len(bins) for bins in zoomed] == [3666, 3675] and rffts == [(64 * 409,)]
        assert "magnitudes" in vars(spec) and not {"_source", "_kept"} & set(vars(spec))
        reference = self.readout(full_rfft(signal, 64 * 409), band, search_span, -40.0)
        assert_same_readout(report, reference)
        assert report.mainlobe_width_3db == pytest.approx(
            reference.mainlobe_width_3db, rel=self.WIDTH_RTOL
        )

    def test_a_read_drops_the_record_and_the_head(self):
        """Once its magnitudes are read a spectrum holds what an eager one
        holds; later readouts read those magnitudes, not the head."""
        spec = lab.dft_magnitude(tone(32.0, 1200 / SAMPLE_RATE), 64)
        peak = lab.find_peak(spec, (10.0, 50.0))
        assert {"_source", "_kept"} <= set(vars(spec))
        spec.magnitudes
        assert not {"_source", "_kept"} & set(vars(spec))
        assert spec._head(3) is spec and lab.find_peak(spec, (10.0, 50.0)) == pytest.approx(peak)

    @pytest.mark.parametrize(
        "stop, bins", [(3, 3), (598, 598), (600, 600), (601, None), (602, None)]
    )
    def test_a_head_that_would_hold_every_bin_is_the_grid(self, stop, bins):
        """The 300-sample, 100 Hz record of ``TestSidelobeReport`` at 4x, 601
        bins: a head zooms bins [0, ``stop``) alone, so stop 3 reads 3 and
        stop 598 reads 598; from stop 601 it would hold all 601, and the
        head is the grid itself."""
        t = np.arange(300) / 100.0
        samples = np.cos(2 * np.pi * 5.0 * t) + 0.3 * np.cos(2 * np.pi * 12.0 * t)
        spec = lab.dft_magnitude(lab.SampledSignal(100.0, samples), 4)
        assert spec.bin_frequencies.size == 601
        head = spec._head(stop)
        if bins is None:
            assert head is spec and "magnitudes" not in vars(spec)
        else:
            assert head is not spec and head.bin_frequencies.size == bins

    def test_smooth_length_is_the_least_7_smooth_at_or_above(self):
        def smooth(n):
            for p in (2, 3, 5, 7):
                while n % p == 0:
                    n //= p
            return n == 1

        for n in range(1, 3000):
            found = spectrum_module._smooth_length(n)
            assert smooth(found) and not any(smooth(k) for k in range(n, found))

    @pytest.mark.parametrize("factor", [4, 64])
    def test_an_all_zero_record_has_no_peak(self, factor):
        spec = lab.dft_magnitude(lab.SampledSignal(SAMPLE_RATE, np.zeros(1200)), factor)
        with pytest.raises(lab.NoPeakError):
            lab.find_peak(spec, (10.0, 50.0))

    @pytest.fixture(scope="class")
    def paper_sweep(self, paper_config_path):
        """(config, settled record, ddctfm window) of ``paper.cfg`` at every
        cycle count from 8 to 16, the benchmark's sweep."""
        paper = lab.load_config(paper_config_path)
        sweep = []
        for cycles in range(8, 17):
            config = derive(paper, {"cycles": cycles})
            output = cli.measure(config).output("ddctfm")
            spans = config.analysis_spans()
            sweep.append(
                (
                    config,
                    waveform.time_slice(output, *spans["record"]),
                    waveform.time_slice(output, *spans["ddctfm"]),
                )
            )
        return sweep

    @staticmethod
    def read_sweep(sweep):
        """``find_peak`` and ``sidelobe_report`` on each record at the
        configured factor and each window at 64x, as the benchmark's
        ``analysis-sweep`` reads them; the spectra read."""
        spectra = []
        for config, record, window in sweep:
            for signal, factor in ((record, config.zero_pad_factor), (window, 64)):
                spec = lab.dft_magnitude(signal, factor)
                peak = lab.find_peak(spec, config.band)
                lab.sidelobe_report(spec, peak, 3.0 / config.tx.duration, cli.SIDELOBE_FLOOR_DB)
                spectra.append(spec)
        return spectra

    def test_paper_readouts_take_no_rfft(self, paper_sweep, monkeypatch):
        """``paper.cfg``'s records at 4x (8 to 16 cycles; 14,015 samples at
        12) and its window at 64x are read without an rfft, on one zoom each
        of fewer bins than their grids hold."""
        rffts = TestDftRoute.counting_rfft(monkeypatch)
        zoomed = self.recording_zoom(monkeypatch)
        (_, record, window), = [row for row in paper_sweep if row[0].cycles == 12]
        assert (len(record), len(window)) == (14015, 1200)
        spectra = self.read_sweep(paper_sweep)
        assert rffts == [] and len(zoomed) == len(spectra) == 2 * len(paper_sweep)
        for spec, bins in zip(spectra, zoomed):
            assert "magnitudes" not in vars(spec)
            assert len(bins) < spec.bin_frequencies.size

    def test_a_sweep_builds_each_plan_and_grid_once(self, paper_sweep, monkeypatch):
        """Over the nine record lengths and their 1,200-sample windows every
        ``_zoom_plan`` and ``_bin_frequencies`` entry is built once, within
        the caches' 16 entries, and a second pass builds none.  A plan is
        keyed by its record's split (``_copies``): the records share a
        lead-in of 815 samples and a 1,200-sample run, with one copy fewer
        than their cycles, and each builds its own plan for its own
        transform length; the windows, one run with no lead-in, share one.
        Every plan array is read-only."""
        plan, keys = spectrum_module._zoom_plan, []

        def recording_plan(*key):
            keys.append(key)
            return plan(*key)

        caches = (plan, spectrum_module._bin_frequencies)
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(spectrum_module, "_zoom_plan", recording_plan)
        self.read_sweep(paper_sweep)
        built = [cache.cache_info().misses for cache in caches]
        assert [cache.cache_info().currsize for cache in caches] == built
        assert built[0] == len(set(keys)) == len(paper_sweep) + 1
        record_keys, window_keys = keys[0::2], keys[1::2]
        assert [key[:3] for key in record_keys] == [
            (815, 1200, config.cycles - 1) for config, _, _ in paper_sweep
        ]
        assert set(window_keys) == {window_keys[0]} and window_keys[0][:3] == (0, 1200, 1)
        assert all(not array.flags.writeable for key in keys for array in plan(*key))
        assert built[1] == len({len(record) for _, record, _ in paper_sweep}) + 1
        assert spectrum_module._PLANS == 16
        assert all(cache.cache_info().maxsize == 16 for cache in caches)
        self.read_sweep(paper_sweep)
        assert [cache.cache_info().misses for cache in caches] == built


class TestRunZoom:
    """A repeating record is zoomed as its lead-in x[:a] and Q copies of its
    run x[a:a + r] (``SampledSignal._copies``), summed in closed form, and
    never tiled.  References: the full rfft of its tiled samples, and an
    mpmath DFT of them at chosen bins (``oracles.dft_magnitudes``).
    Tolerances fixed before tuning: magnitudes within 1e-12 of the band
    peak, readouts within ``READOUT_TOL`` and widths within 1e-9 relative."""

    MAG_TOL = 1e-12
    WIDTH_RTOL = 1e-9

    @given(
        run=st.sampled_from([1200, 2401, 125]),
        start=st.integers(min_value=0, max_value=2 * 2401),
        copies=st.integers(min_value=0, max_value=8),
        rest=st.integers(min_value=0, max_value=2400),
        factor=st.sampled_from([1, 4, 16]),
        edges=st.tuples(st.floats(0.0, 0.6), st.floats(0.0, 0.6)),
        lines=st.lists(
            st.tuples(st.floats(-0.1, 1.1), st.floats(0.1, 1.0), st.floats(0.0, 2 * math.pi)),
            min_size=1,
            max_size=3,
        ),
    )
    @example(  # one copy after a lead-in, as the 1,200-sample grid's record
        run=1200, start=255, copies=1, rest=560, factor=4, edges=(0.005, 0.025),
        lines=[(0.6, 1.0, 0.3)],
    )
    @example(  # p = 0: (N - s) is a whole number of runs, so a = s
        run=1200, start=255, copies=8, rest=0, factor=4, edges=(0.005, 0.025),
        lines=[(0.6, 1.0, 0.3), (0.2, 0.5, 1.0)],
    )
    @example(  # a >= r
        run=125, start=200, copies=8, rest=15, factor=16, edges=(0.005, 0.2),
        lines=[(0.3, 1.0, 0.0)],
    )
    @example(  # a = 0: the record is whole runs from its first sample
        run=125, start=0, copies=8, rest=0, factor=4, edges=(0.005, 0.2),
        lines=[(0.3, 1.0, 0.0)],
    )
    @example(  # the 1,200.5-sample grid's two-cycle run, lead-in past one run
        run=2401, start=332, copies=5, rest=1684, factor=4, edges=(0.005, 0.025),
        lines=[(0.6, 1.0, 0.3)],
    )
    @example(  # a whole-record run: the record ends inside its first run
        run=2401, start=332, copies=0, rest=1000, factor=16, edges=(0.005, 0.1),
        lines=[(0.6, 1.0, 0.3)],
    )
    @settings(max_examples=80, deadline=None)
    def test_zoom_reads_the_tiled_record(self, run, start, copies, rest, factor, edges, lines):
        """``_fresh`` records of ``start`` + ``copies`` x ``run`` + (``rest`` mod
        ``run``) samples that repeat their run from ``start``: tones across a band in
        the lower 60% of the grid, up to a tenth of it beyond each edge, over
        the first run.  The band spectrum, the width zoom and width, and a
        lazy spectrum's peak and sidelobes read as on the tiled record's full
        grid.  Nothing is checked on a band whose two largest bins tie within
        1e-9 or whose peak is under 1e-3 of sum |x|, as in ``TestWidthZoom``."""
        rate, count = 4000.0, start + copies * run + rest % run
        assume(count >= 1)
        _, size, freq = spectrum_module.readout_grid(count, rate, factor)
        low, high = sorted(edge * freq(size - 1) for edge in edges)
        band = spectrum_module.band_bins(size, freq, (low, high))
        assume(len(band) >= 3)
        placed = [(low + u * (high - low), a, p) for u, a, p in lines]
        block = tones(rate, start + run, placed).samples.copy()
        signal = waveform.SampledSignal._fresh(rate, block, start=start, count=count)
        if count <= start + run:
            assert signal._copies() == (0, count, 1)
        else:
            assert signal._copies() == (start + rest % run, run, copies)
        assume(TestWidthZoom().check(signal, (low, high), factor))
        full, spec = TestBandMagnitude().check(signal, (low, high), factor)
        search_span = 3.0 * rate / run
        reference = TestLazySpectrum.readout(full, (low, high), search_span, -40.0)
        report = TestLazySpectrum.readout(
            lab.dft_magnitude(signal, factor), (low, high), search_span, -40.0
        )
        assert_same_readout(report, reference)
        width = report.mainlobe_width_3db
        assert width == pytest.approx(reference.mainlobe_width_3db, rel=self.WIDTH_RTOL)

    @staticmethod
    def band_record(config_path, values, mode):
        """``mode``'s settled record of ``paper.cfg`` with ``values`` derived,
        its configuration and its band spectrum, as ``measure`` reads it."""
        config = lab.derive(lab.load_config(config_path), values)
        record = waveform.time_slice(
            cli.measure(config).output(mode), *config.analysis_spans()["record"]
        )
        span = 3.0 / config.tx.duration
        reach = (config.band[0] - span, config.band[1] + span)
        spec = spectrum_module.band_magnitude(record, config.zero_pad_factor, reach)
        return config, record, spec

    @pytest.mark.parametrize(
        "values, mode",
        [
            ({}, "ddctfm"),
            ({}, "ctfm"),
            ({"sample_rate": "4802", "tx.duration": "0.25", "lo.f_end": "248"}, "ddctfm"),
        ],
        ids=["paper-ddctfm", "paper-ctfm", "paper-1200.5-ddctfm"],
    )
    def test_band_spectrum_matches_the_direct_dft(self, paper_config_path, values, mode):
        """At a comb line (theta = 0: 0 Hz), at the bins one and two after it,
        at the in-band bin of least nonzero |theta| (where sin(pi theta) is
        smallest), at the bins nearest theta = +1/2 and -1/2, and at the
        band peak, with theta = (k r mod L) / L centred into [-1/2, 1/2)."""
        config, record, spec = self.band_record(paper_config_path, values, mode)
        lead, run, copies = record._copies()
        assert copies > 1 and lead + copies * run == len(record)
        points = config.zero_pad_factor * len(record)
        first = round(spec.bin_frequencies[0] * points / config.sample_rate)
        k = np.arange(first, first + spec.bin_frequencies.size)
        theta = (k * run + points // 2) % points - points // 2
        assert first == 0 and theta[0] == 0
        off = np.flatnonzero(theta)
        chosen = [0, 1, 2, off[np.argmin(np.abs(theta[off]))], np.argmax(theta),
                  np.argmin(theta), np.argmax(spec.magnitudes)]
        expected = oracles.dft_magnitudes(record.samples, points, k[chosen].tolist())
        error = np.abs(spec.magnitudes[chosen] - expected)
        assert np.all(error <= self.MAG_TOL * max(expected))

    def test_a_readout_never_tiles_its_record(self, paper_config_path, monkeypatch):
        """``paper.cfg``'s three records through ``band_magnitude`` and a lazy
        ``dft_magnitude``'s ``find_peak`` and ``sidelobe_report``, and the
        ideal window (a 125-sample run) through ``mainlobe_width``: no record
        has its ``samples`` read, and no ``_head`` reads past lead + run."""
        config = lab.load_config(paper_config_path)
        state, spans = cli.measure(config), config.analysis_spans()
        records = [waveform.time_slice(state.output(mode), *spans["record"]) for mode in cli.MODES]
        window = waveform.time_slice(state.ideal, *spans["ideal"])
        reads, head = [], waveform.SampledSignal._head

        def recording_head(signal, stop):
            reads.append((signal, stop))
            return head(signal, stop)

        monkeypatch.setattr(waveform.SampledSignal, "_head", recording_head)
        span = 3.0 / config.tx.duration
        for record in records:
            reach = (config.band[0] - span, config.band[1] + span)
            spectrum_module.band_magnitude(record, config.zero_pad_factor, reach)
            spec = lab.dft_magnitude(record, config.zero_pad_factor)
            lab.sidelobe_report(spec, lab.find_peak(spec, config.band), span, -15.0)
        spectrum_module.mainlobe_width(window, config.band, config.width_pad_factor)
        for signal in (*records, window):
            lead, run, _ = signal._copies()
            assert lead + run < len(signal) and "samples" not in vars(signal)
        assert {id(signal) for signal, _ in reads} == {id(s) for s in (*records, window)}
        assert all(stop <= sum(signal._copies()[:2]) for signal, stop in reads)

    @staticmethod
    def single_row_zoom(samples, points, bins, fft):
        """|DFT| of ``samples`` on ``bins`` by one chirp-z pass over the whole
        record, the zoom every record took before it was split."""
        n, m, k0 = samples.size, len(bins), bins.start
        i, d = np.arange(n, dtype=np.int64), np.arange(1 - n, m, dtype=np.int64)
        radians = np.pi / points
        weights = np.exp(-1j * radians * ((i * i + 2 * k0 * i) % (2 * points)))
        kernel = np.fft.fft(np.exp(1j * radians * (d * d % (2 * points))), fft)
        work = np.fft.fft(samples * weights, fft)
        work *= kernel
        return np.abs(np.fft.ifft(work)[n - 1 : n - 1 + m])

    def test_a_record_with_no_shorter_run_keeps_its_bytes(self, paper_config_path):
        """The ideal record at a 96.1234 ms delay has no shorter run: its band
        spectrum and its lazy head are byte for byte the single-row zoom's on
        the least 7-smooth FFT, and its whole grid (4 x 14,015 points) the
        rfft's."""
        config, record, spec = self.band_record(
            paper_config_path, {"echoes.0.delay": "0.0961234"}, "ideal"
        )
        n, factor = len(record), config.zero_pad_factor
        assert record._copies() == (0, n, 1)
        points, _, _ = spectrum_module.readout_grid(n, config.sample_rate, factor)
        first = round(spec.bin_frequencies[0] * points / config.sample_rate)
        bins = range(first, first + spec.bin_frequencies.size)
        fft = spectrum_module._smooth_length(n + len(bins) - 1)
        expected = self.single_row_zoom(record.samples, points, bins, fft)
        assert spec.magnitudes.tobytes() == expected.tobytes()
        lazy = lab.dft_magnitude(record, factor)
        head = lazy._head(900)
        fft = spectrum_module._smooth_length(n + 900 - 1)
        expected = self.single_row_zoom(record.samples, points, range(900), fft)
        assert head is not lazy and head.magnitudes.tobytes() == expected.tobytes()
        expected = np.abs(np.fft.rfft(record.samples, points))
        assert lazy.magnitudes.tobytes() == expected.tobytes()


class TestZoomLength:
    """Every chirp-z zoom takes one FFT length, its plan's ``kernel``'s: the
    least 7-smooth F >= max(lead, run) + M - 1 (``_smooth_length``)."""

    @pytest.mark.parametrize(
        "values, widths",
        [
            ({}, [2100, 1470, 9261]),
            ({"sample_rate": "4802", "tx.duration": "0.25", "lo.f_end": "248"}, None),
        ],
        ids=["paper", "paper-1200.5"],
    )
    def test_every_zoom_takes_the_least_7_smooth_fft(
        self, paper_config_path, monkeypatch, values, widths
    ):
        """Every plan ``measure`` builds in every mode: the records' band
        spectra and the windows' width zooms.  On ``paper.cfg`` the width
        zooms (ddctfm, ctfm, ideal) take 2,100, 1,470 and 9,261 points,
        where the least powers of two are 4,096, 2,048 and 16,384."""
        plan, keys = spectrum_module._zoom_plan, []

        def recording_plan(*key):
            keys.append(key)
            return plan(*key)

        monkeypatch.setattr(spectrum_module, "_zoom_plan", recording_plan)
        cli.measure(lab.derive(lab.load_config(paper_config_path), values), cli.MODES)
        sizes = [plan(*key)[1].size for key in keys]
        assert len(keys) >= 2 * len(cli.MODES)
        for (lead, run, _, _, start, stop), size in zip(keys, sizes):
            assert size == spectrum_module._smooth_length(max(lead, run) + stop - start - 1)
        if widths is not None:
            record_points = keys[0][3]  # every record's band spectrum: one length
            found = [size for key, size in zip(keys, sizes) if key[3] != record_points]
            assert found == widths


class TestStitchedOutputSpectrum:
    """Spectral structure of the dual-channel sum for the reference setup."""

    def test_nearest_artifacts_sit_one_sweep_rate_line_away(self, spectrum_096):
        peak = lab.find_peak(spectrum_096, (10.0, 50.0))
        report = lab.sidelobe_report(spectrum_096, peak, search_span=10.0, floor_db=-12.0)
        offsets = sorted(lobe.frequency - peak.frequency for lobe in report.sidelobes)
        below = max(o for o in offsets if o < 0)
        above = min(o for o in offsets if o > 0)
        assert below == pytest.approx(-1.0 / 0.3, abs=0.3)
        assert above == pytest.approx(1.0 / 0.3, abs=0.3)

    def test_the_sum_is_sweep_periodic_so_lines_fall_on_the_comb(self, spectrum_096):
        """The stitched output repeats exactly every sweep period: the
        per-cycle phase step -2*pi*B*tau cancels the beat advance because
        B = rate * period.  Every line must therefore sit on a multiple of
        1/period, which is what pins the peak to 33.33 Hz rather than the
        beat frequency 32 Hz."""
        peak = lab.find_peak(spectrum_096, (10.0, 50.0))
        assert peak.frequency == pytest.approx(10.0 / 0.3, abs=0.05)
        report = lab.sidelobe_report(spectrum_096, peak, search_span=10.0, floor_db=-12.0)
        comb = 1.0 / 0.3
        for lobe in report.sidelobes:
            harmonic = lobe.frequency / comb
            assert abs(harmonic - round(harmonic)) * comb < spectrum_096.native_bin

    def test_strongest_sidelobe_level(self, spectrum_096):
        """Frozen from the sinc envelope of the stitched segments: the line
        one comb spacing below the peak carries sinc(0.6)/sinc(0.4) of its
        amplitude, about -3.5 dB, softened slightly by the filter ripple."""
        peak = lab.find_peak(spectrum_096, (10.0, 50.0))
        report = lab.sidelobe_report(spectrum_096, peak, search_span=10.0, floor_db=-12.0)
        strongest = max(lobe.ratio_db for lobe in report.sidelobes)
        envelope_ratio = 20 * math.log10(
            (math.sin(0.6 * math.pi) / 0.6) / (math.sin(0.4 * math.pi) / 0.4)
        )
        assert strongest == pytest.approx(envelope_ratio, abs=1.0)

    def test_grid_refinement_is_stable(self, settled_sum_096):
        coarse = lab.find_peak(lab.dft_magnitude(settled_sum_096, 4), (10.0, 50.0))
        fine = lab.find_peak(lab.dft_magnitude(settled_sum_096, 8), (10.0, 50.0))
        assert abs(coarse.frequency - fine.frequency) < 0.05


class TestCombLawAcrossDelays:
    @pytest.mark.parametrize("delay", [0.033, 0.0625, 0.096, 0.1125])
    def test_detected_offsets_are_multiples_of_the_sweep_line(
        self, reference_schedule, reference_tx, reference_lo, reference_lowpass, delay
    ):
        received = lab.synthesize_received(
            reference_schedule, lab.Scene((lab.Echo(delay),)), SAMPLE_RATE
        )
        out = lab.demodulate(reference_tx, reference_lo, received, reference_lowpass)
        start = reference_lowpass.group_delay + reference_lowpass.impulse_duration
        record = lab.time_slice(out.sum, start, out.sum.duration)
        spec = lab.dft_magnitude(record, 4)
        peak = lab.find_peak(spec, (5.0, 45.0))
        report = lab.sidelobe_report(spec, peak, search_span=10.0, floor_db=-12.0)
        comb = 1.0 / reference_schedule.period
        for lobe in (lab.Sidelobe(peak.frequency, 0.0), *report.sidelobes):
            harmonic = lobe.frequency / comb
            assert abs(harmonic - round(harmonic)) * comb <= spec.native_bin, lobe


# Any float64, drawn as its raw bits: nan with any payload and sign, +-0,
# subnormals, +-inf and the extremes, as well as ordinary values.
SPECIAL_BITS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
     np.finfo(float).max, -np.finfo(float).max, 0.1, 1e16]
).view(np.int64).tolist() + [0x7FF0000000000001, 0x7FF8000000000001, -1]
float_bits = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=0, max_value=2**52),  # +0 and the positive subnormals
    st.integers(min_value=-(2**63), max_value=-(2**63) + 2**52),  # -0 and negative ones
    st.sampled_from(SPECIAL_BITS),
)


@st.composite
def float_columns(draw, kind, size):
    """``size`` float64 values: all distinct, drawn from one to three
    values, or drawn from up to ``size`` values (some repeat, some not)."""
    if kind == "distinct":
        bits = draw(st.lists(float_bits, min_size=size, max_size=size, unique=True))
    else:
        most = 3 if kind == "repeated" else max(size, 1)
        pool = draw(st.lists(float_bits, min_size=1, max_size=most, unique=True))
        picks = st.integers(min_value=0, max_value=len(pool) - 1)
        bits = [pool[i] for i in draw(st.lists(picks, min_size=size, max_size=size))]
    return np.array(bits, dtype=np.int64).view(np.float64)


class TestSerialization:
    @given(
        data=st.data(),
        kinds=st.tuples(*[st.sampled_from(["distinct", "repeated", "mixed"])] * 2),
        size=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_writer_matches_per_row_formatting_on_any_bit_pattern(self, data, kinds, size):
        first, second = (data.draw(float_columns(kind, size)) for kind in kinds)
        expected = "h1,h2\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(first, second))
        cache = {}
        assert csv_columns("h1,h2", first, second, cache=cache) == expected
        assert csv_columns("h1,h2", first, second, cache=cache) == expected

    def test_csv_round_trip(self, spectrum_096):
        text = spectrum_096.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "freq_hz,magnitude"
        assert len(lines) == 1 + len(spectrum_096.bin_frequencies)
        freq, mag = lines[17].split(",")
        assert float(freq) == pytest.approx(spectrum_096.bin_frequencies[16], rel=1e-15)
        assert float(mag) == pytest.approx(spectrum_096.magnitudes[16], rel=1e-15)

    def test_writer_matches_per_row_formatting(self):
        first = np.array([0.0, -0.0, 0.1, 1e-310, 1e300, np.pi, np.nan, np.inf])
        second = np.array([100.00000000000001, -np.inf, 2.5, -1e-5, 7.0, 0.3, 1.0, 3.0])
        expected = "h1,h2\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(first, second))
        assert csv_columns("h1,h2", first, second) == expected

    def test_any_number_of_columns_with_text_and_empty_cells(self):
        """Text columns are written as they stand and ``None`` among numbers
        is an empty cell; numbers keep their per-row ``.17g`` text."""
        labels = ["a", "b c", ""]
        first = [0.1, -0.0, np.inf]
        second = np.array([1.0, 2.0, 1.0])
        third = [None, 1e-310, None]
        expected = "h\na,0.10000000000000001,1,\nb c,-0,2,9.9999999999999694e-311\n,inf,1,\n"
        assert csv_columns("h", labels, first, second, third) == expected
        one = "h\n" + "".join(f"{x:.17g}\n" for x in first)
        assert csv_columns("h", first) == one

    def test_a_list_mixing_text_numbers_and_none_is_written_cell_by_cell(self):
        """Each cell of a list column on its own: text as it stands, ``None``
        empty, a number in ``.17g``, however the three kinds mix."""
        mixed = ["x", None, 0.1, "", -0.0, None, np.nan, "1e3", 5e-324]
        numbers = [None, 2.0, "y", 1e300, None, "z", -np.inf, 3, "w"]
        expected = "a,b\n" + "".join(
            ",".join("" if x is None else x if isinstance(x, str) else f"{x:.17g}" for x in row)
            + "\n"
            for row in zip(mixed, numbers)
        )
        assert csv_columns("a,b", mixed, numbers) == expected
        assert csv_columns("a,b", ["x", None], [1.0, None]) == "a,b\nx,1\n,\n"

    def test_no_rows(self):
        assert csv_columns("h1,h2", [], np.array([])) == "h1,h2\n"

    def test_no_column_raises(self):
        with pytest.raises(ValueError, match="needs at least one column, got 0"):
            csv_columns("h")

    @pytest.mark.parametrize("short", [0, 1, 2])
    def test_columns_of_different_lengths_raise(self, short):
        columns = [np.arange(4.0), ["w", "x", "y", "z"], [1.0, None, 3.0, 4.0]]
        columns[short] = columns[short][:3]
        lengths = "3 and 4" if short == 0 else "4 and 3"
        with pytest.raises(ValueError, match=f"columns of different lengths: {lengths} rows"):
            csv_columns("h1,h2,h3", *columns)

    # A repeating column: ``_tile(block, start, count)`` written from the texts
    # of ``block``, as a lazy signal or as the ``Rows`` of its tiled positions.
    REPEATING = {
        "signal": lambda block, start, count: lab.SampledSignal._fresh(
            4000.0, block, 0.0, start, count
        ),
        "rows": lambda block, start, count: Rows(
            block, _tile(np.arange(block.size), start, count)
        ),
    }

    @pytest.mark.parametrize("form", sorted(REPEATING))
    @given(
        bits=st.lists(float_bits, min_size=1, max_size=40),
        split=st.integers(min_value=0, max_value=39),
        count=st.integers(min_value=0, max_value=200),
    )
    @example(bits=SPECIAL_BITS[:6], split=2, count=6)  # count == len(block)
    @example(bits=SPECIAL_BITS[:6], split=4, count=3)  # count < len(block)
    @example(bits=SPECIAL_BITS[:6], split=3, count=3)  # count == start
    @example(bits=SPECIAL_BITS[4:9], split=4, count=57)  # a run of one value
    @example(bits=SPECIAL_BITS, split=0, count=200)  # the whole block repeats
    @settings(max_examples=200, deadline=None)
    def test_a_repeating_column_is_its_tile_formatted_per_row(self, form, bits, split, count):
        """A repeating column, first or last, reads as per-row ``.17g`` of
        ``_tile(block, start, count)``: -0.0, NaN, +-inf and subnormals
        included."""
        block, start = np.array(bits, dtype=np.int64).view(np.float64), split % len(bits)
        column = self.REPEATING[form](block, start, count)
        values = _tile(block, start, count)
        expected = "h1,h2\n" + "".join(f"{x:.17g},{x:.17g}\n" for x in values)
        assert csv_columns("h1,h2", column, column) == expected
        assert csv_columns("h1,h2", column, values) == expected

    @given(
        bits=st.lists(float_bits, min_size=1, max_size=40),
        split=st.integers(min_value=0, max_value=39),
        count=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_signal_column_is_its_samples_written_over_its_run(self, bits, split, count):
        """A lazy signal is written without tiling its samples."""
        block = np.array(bits, dtype=np.int64).view(np.float64)
        signal = lab.SampledSignal._fresh(4000.0, block, 0.0, split % block.size, count)
        text = csv_columns("h", signal)
        assert ("samples" in vars(signal)) == (block.size >= count)
        assert text == csv_columns("h", signal.samples)

    @pytest.mark.parametrize("form", sorted(REPEATING))
    @pytest.mark.parametrize("start", [3, 4, -1])
    def test_a_repeating_column_with_no_run_raises(self, form, start):
        with pytest.raises(ValueError, match=f"run must start inside the block: start {start}"):
            csv_columns("h", self.REPEATING[form](np.ones(3), start, 5))

    def test_repeated_values_keep_their_per_row_text(self):
        """Repeats come back in row order, and -0.0 stays apart from 0.0."""
        cycle = np.array([0.0, -0.0, 0.1, np.nan, np.inf, -np.inf, 0.1, 1e-310, -0.0])
        first = np.tile(cycle, 5)
        second = np.roll(first, 3) * 3.0
        expected = "h1,h2\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(first, second))
        cache = {}
        assert csv_columns("h1,h2", first, second, cache=cache) == expected
        assert csv_columns("h1,h2", first, second, cache=cache) == expected
