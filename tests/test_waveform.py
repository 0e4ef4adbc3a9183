import dataclasses
import functools
import math
import pickle
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctfm_lab as lab
from ctfm_lab import waveform
from oracles import SYNTHESIS_GRIDS, frac, sweep_phase_pi

REL = 1e-9


def reference_chirp(phase0=0.0):
    return lab.ChirpSpec(100.0, 200.0, 0.3, phase0)


def reference_schedule(cycles=12):
    return lab.make_schedule(reference_chirp(), 240.0, 0.12, cycles)


class TestSweepRate:
    def test_reference_sweep(self):
        rate = lab.sweep_rate(reference_chirp())
        assert rate == pytest.approx(1000.0 / 3.0, rel=1e-12)
        assert round(rate, 1) == 333.3

    def test_constant_frequency(self):
        assert lab.sweep_rate(lab.ChirpSpec(100.0, 100.0, 1.0)) == 0.0

    def test_oscillator_extension_has_the_same_slope(self):
        rate = lab.sweep_rate(lab.LocalOscSpec(200.0, 240.0, 0.12, 0.0))
        assert rate == pytest.approx(1000.0 / 3.0, rel=1e-12)


class TestTxPhase:
    def test_zero_time(self):
        assert lab.tx_phase(reference_chirp(), 0.0) == 0.0

    def test_sweep_end_is_90_pi(self):
        phase = lab.tx_phase(reference_chirp(), 0.3)
        assert phase == pytest.approx(90.0 * math.pi, rel=REL)

    def test_midpoint_matches_exact_arithmetic(self):
        expected = sweep_phase_pi(100, 200, "0.3", "0.15")
        assert expected == frac("37.5")
        phase = lab.tx_phase(reference_chirp(), 0.15)
        assert phase == pytest.approx(float(expected) * math.pi, rel=1e-12)

    def test_initial_phase_offsets_the_whole_sweep(self):
        base = lab.tx_phase(reference_chirp(), 0.2)
        shifted = lab.tx_phase(reference_chirp(phase0=1.25), 0.2)
        assert shifted - base == pytest.approx(1.25, rel=1e-12)

    @pytest.mark.parametrize("t", [-0.01, 0.3000001, 1.0])
    def test_rejects_times_outside_the_sweep(self, t):
        with pytest.raises(lab.DomainError):
            lab.tx_phase(reference_chirp(), t)

    @pytest.mark.parametrize(
        "read", [lab.tx_phase, lab.lo_phase, lab.instantaneous_frequency],
        ids=["tx_phase", "lo_phase", "instantaneous_frequency"],
    )
    @pytest.mark.parametrize(
        "t", [math.nan, np.array([0.1, math.nan, 0.2]), np.array([math.nan])],
        ids=["scalar", "array", "all-nan"],
    )
    def test_rejects_nan_local_times(self, read, t):
        """NaN lies in no interval; it used to come back as the phase."""
        with pytest.raises(lab.DomainError, match="local time must lie in"):
            read(reference_chirp(), t)

    def test_an_empty_array_reads_as_empty(self):
        assert lab.tx_phase(reference_chirp(), np.array([])).shape == (0,)

    def test_vectorized_evaluation(self):
        t = np.linspace(0.0, 0.3, 7)
        phases = lab.tx_phase(reference_chirp(), t)
        assert phases.shape == t.shape
        assert phases[0] == 0.0
        assert phases[-1] == pytest.approx(90.0 * math.pi, rel=REL)


class TestLoPhase:
    def test_window_start_is_the_transmit_end_phase(self):
        schedule = reference_schedule()
        assert lab.lo_phase(schedule.lo, 0.0) == pytest.approx(
            90.0 * math.pi, rel=REL
        )

    def test_93ms_into_the_window(self):
        expected = sweep_phase_pi(200, 240, "0.12", "0.093", phase0_pi=90)
        assert expected == frac("130.083")
        schedule = reference_schedule()
        assert lab.lo_phase(schedule.lo, 0.093) == pytest.approx(
            float(expected) * math.pi, rel=REL
        )

    @given(t=st.floats(min_value=0.0, max_value=0.3))
    @settings(max_examples=50, deadline=None)
    def test_identical_parameterization_matches_tx_phase(self, t):
        chirp = reference_chirp()
        osc = lab.LocalOscSpec(100.0, 200.0, 0.3, 0.0)
        assert lab.lo_phase(osc, t) == lab.tx_phase(chirp, t)


class TestScheduleInvariants:
    def test_derived_schedule_is_valid(self):
        schedule = reference_schedule()
        assert schedule.lo.f_start == 200.0
        assert schedule.lo.phase0 == pytest.approx(90.0 * math.pi, rel=REL)
        assert schedule.period == 0.3
        assert schedule.total_duration == pytest.approx(3.6)

    def test_rejects_oscillator_start_frequency_mismatch(self):
        lo = lab.LocalOscSpec(205.0, 245.0, 0.12, lab.tx_phase(reference_chirp(), 0.3))
        with pytest.raises(lab.ConfigurationError, match="end frequency"):
            lab.SweepSchedule(reference_chirp(), lo, 2)

    def test_rejects_slope_mismatch(self):
        lo = lab.LocalOscSpec(200.0, 250.0, 0.12, lab.tx_phase(reference_chirp(), 0.3))
        with pytest.raises(lab.ConfigurationError, match="slope"):
            lab.SweepSchedule(reference_chirp(), lo, 2)

    def test_rejects_phase_discontinuity(self):
        lo = lab.LocalOscSpec(200.0, 240.0, 0.12, 1.0)
        with pytest.raises(lab.ConfigurationError, match="continuity"):
            lab.SweepSchedule(reference_chirp(), lo, 2)

    def test_accepts_phase_equal_modulo_two_pi(self):
        wrapped = lab.wrap_phase(lab.tx_phase(reference_chirp(), 0.3))
        lo = lab.LocalOscSpec(200.0, 240.0, 0.12, wrapped)
        schedule = lab.SweepSchedule(reference_chirp(), lo, 2)
        assert schedule.cycles == 2

    def test_rejects_window_longer_than_the_sweep(self):
        with pytest.raises(lab.ConfigurationError, match="window"):
            lab.make_schedule(reference_chirp(), 540.0, 0.32, 2)

    @pytest.mark.parametrize("cycles", [0, -1, 2.0])
    def test_rejects_bad_cycle_counts(self, cycles):
        with pytest.raises(lab.DomainError):
            lab.make_schedule(reference_chirp(), 240.0, 0.12, cycles)


@st.composite
def valid_sweeps(draw):
    f_start = draw(st.floats(min_value=0.5, max_value=5e3))
    bandwidth = draw(st.floats(min_value=0.1, max_value=1e4))
    return lab.ChirpSpec(
        f_start=f_start,
        f_end=f_start + bandwidth,
        duration=draw(st.floats(min_value=1e-2, max_value=5.0)),
        phase0=draw(st.floats(min_value=-10.0, max_value=10.0)),
    )


@st.composite
def valid_schedules(draw):
    tx = draw(valid_sweeps())
    rate = lab.sweep_rate(tx)
    window = tx.duration * draw(st.floats(min_value=0.05, max_value=1.0))
    return lab.make_schedule(tx, tx.f_end + rate * window, window, draw(st.integers(2, 16)))


class TestPhaseProperties:
    @given(schedule=valid_schedules())
    @settings(max_examples=60, deadline=None)
    def test_handoff_phase_continuity(self, schedule):
        mismatch = lab.wrap_phase(
            lab.lo_phase(schedule.lo, 0.0) - lab.tx_phase(schedule.tx, schedule.period)
        )
        assert abs(mismatch) < 1e-9

    @given(
        schedule=valid_schedules(),
        fraction=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_instantaneous_frequency_by_finite_difference(self, schedule, fraction):
        h = 1e-6
        for spec, phase_fn in (
            (schedule.tx, lab.tx_phase),
            (schedule.lo, lab.lo_phase),
        ):
            t = fraction * (spec.duration - 2 * h) + h
            derivative = (phase_fn(spec, t + h) - phase_fn(spec, t - h)) / (2 * h)
            expected = spec.f_start + lab.sweep_rate(spec) * t
            assert derivative / (2 * math.pi) == pytest.approx(expected, abs=1e-3)

    @given(t=st.lists(st.floats(min_value=0.0, max_value=0.3), min_size=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_phase_is_strictly_increasing_for_up_chirps(self, t):
        ordered = sorted(set(t))
        if len(ordered) < 2:
            return
        phases = [lab.tx_phase(reference_chirp(), ti) for ti in ordered]
        assert all(b > a for a, b in zip(phases, phases[1:]))

    @given(
        t=st.floats(min_value=0.0, max_value=100.0),
        period=st.floats(min_value=1e-2, max_value=10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_cycle_split_recombines(self, t, period):
        k, local = lab.cycle_split(t, period)
        assert 0.0 <= local <= period
        assert k * period + local == pytest.approx(t, rel=1e-12, abs=1e-12)


    @given(
        t=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40),
        period=st.floats(min_value=1e-2, max_value=10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_cycle_split_of_an_array_is_per_element(self, t, period):
        k, local = lab.cycle_split(np.array(t), period)
        pairs = [lab.cycle_split(x, period) for x in t]
        assert k.tolist() == [cycle for cycle, _ in pairs]
        assert local.tolist() == [value for _, value in pairs]

    @pytest.mark.parametrize(
        "t", [math.nan, math.inf, -math.inf, np.array([1.0, math.nan]), np.array([0.0, math.inf])],
        ids=["nan", "inf", "-inf", "array-nan", "array-inf"],
    )
    def test_cycle_split_rejects_non_finite_times(self, t):
        with pytest.raises(lab.DomainError, match="times must be finite"):
            lab.cycle_split(t, 0.3)

    @pytest.mark.parametrize("period", [0.0, -0.3, math.nan, math.inf, -math.inf])
    def test_cycle_split_rejects_the_period(self, period):
        """Refused before any division: no RuntimeWarning escapes."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(lab.DomainError, match="period must be finite and positive"):
                lab.cycle_split(np.array([0.0, 1.0]), period)


def clamped_local_times(index, sample_rate, period, cycles):
    """The grid's local times as first written, with the cycle index
    clamped to the record: the reference ``local_times_on_grid`` keeps."""
    idx = np.asarray(index, dtype=float)
    per_cycle = period * sample_rate
    k = np.floor(idx / per_cycle)
    np.clip(k, 0, cycles - 1, out=k)
    return np.clip((idx - k * per_cycle) / sample_rate, 0.0, period)


class TestLocalTimesOnGrid:
    @given(
        grid=st.sampled_from(SYNTHESIS_GRIDS),
        cycles=st.integers(min_value=1, max_value=12),
        fraction=st.floats(min_value=0.0, max_value=0.8),
        whole=st.booleans(),
        nudge=st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_grid_index_matches_the_clamped_formula(
        self, grid_schedule, grid, cycles, fraction, whole, nudge
    ):
        """Bit for bit, at every index the grid passes from a delay's
        arrival: whole-sample delays, fractional ones, and either moved by
        one float."""
        period, fs = grid
        schedule = grid_schedule(period, cycles)
        delay = fraction * period
        if whole:
            delay = round(delay * fs) / fs
        if nudge:
            delay = max(0.0, math.nextafter(delay, math.inf * nudge))
        count = waveform.sample_count(schedule, fs)
        src = np.arange(min(math.ceil(delay * fs), count), count, dtype=float)
        src -= delay * fs
        got = waveform.local_times_on_grid(src, fs, period)
        expected = clamped_local_times(src, fs, period, cycles)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestNonFiniteRates:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_sampled_signal_refuses_the_rate(self, rate):
        with pytest.raises(lab.DomainError, match="sample_rate must be finite"):
            lab.SampledSignal(rate, np.ones(4))

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_sampled_signal_refuses_the_start_time(self, t0):
        """Through the public constructor and ``_fresh`` alike; else
        ``time_slice`` fails later with a ValueError or OverflowError."""
        with pytest.raises(lab.DomainError, match="t0 must be finite"):
            lab.SampledSignal(4000.0, np.ones(8), t0=t0)
        with pytest.raises(lab.DomainError, match="t0 must be finite"):
            lab.SampledSignal._fresh(4000.0, np.ones(8), t0)


class TestSynthesizeTransmit:
    def test_first_sample_is_unity(self, reference_tx):
        assert reference_tx.samples[0] == 1.0

    def test_sample_count_covers_all_cycles(self, reference_tx):
        assert len(reference_tx) == 14400
        assert reference_tx.duration == pytest.approx(3.6)

    def test_every_cycle_restarts_identically(self, reference_tx):
        per_cycle = reference_tx.samples.reshape(12, 1200)
        for k in range(1, 12):
            np.testing.assert_array_equal(per_cycle[k], per_cycle[0])

    def test_rejects_undersampling(self):
        with pytest.raises(lab.ConfigurationError, match="sample rate"):
            lab.synthesize_transmit(reference_schedule(), 700.0)

    def test_constructor_copies_the_callers_array(self):
        values = np.arange(5.0)
        signal = lab.SampledSignal(4000.0, values)
        values[0] = 99.0
        assert signal.samples[0] == 0.0
        assert values.flags.writeable

    def test_signal_is_immutable(self, reference_tx):
        with pytest.raises(ValueError):
            reference_tx.samples[0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            reference_tx.t0 = 1.0


class TestSynthesizeLo:
    def test_window_start_sample(self, reference_lo):
        # cos of the transmit end phase; 90 pi wraps to zero, so exactly 1.
        index = int(round(0.3 * 4000))
        assert reference_lo.samples[index] == pytest.approx(1.0, abs=1e-9)

    def test_inactive_region_is_exactly_zero(self, reference_lo):
        index = int(round(0.43 * 4000))
        assert reference_lo.samples[index] == 0.0
        per_cycle = reference_lo.samples.reshape(12, 1200)
        active = int(round(0.12 * 4000))
        assert np.all(per_cycle[:, active:] == 0.0)

    def test_sample_93ms_into_the_second_window(self, reference_lo):
        expected = math.cos(
            float(sweep_phase_pi(200, 240, "0.12", "0.093", phase0_pi=90) % 2)
            * math.pi
        )
        index = int(round((0.3 + 0.093) * 4000))
        assert reference_lo.samples[index] == pytest.approx(expected, abs=1e-9)

    def test_rejects_undersampling_of_the_extension(self):
        # 900 Hz oversamples the 200 Hz transmit peak but not the 240 Hz
        # oscillator peak.
        schedule = reference_schedule()
        lab.synthesize_transmit(schedule, 900.0)
        with pytest.raises(lab.ConfigurationError, match="sample rate"):
            lab.synthesize_lo(schedule, 900.0)


def per_sample_local(schedule, sample_rate):
    """The local time of every sample, each computed on its own."""
    index = np.arange(waveform.sample_count(schedule, sample_rate), dtype=float)
    return waveform.local_times_on_grid(index, sample_rate, schedule.period)


class TestTiledSynthesis:
    @given(
        grid=st.sampled_from(SYNTHESIS_GRIDS),
        cycles=st.integers(min_value=1, max_value=30),
        phase0=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_sample_evaluation_exactly(
        self, grid_schedule, grid, cycles, phase0
    ):
        """Tiling one run repeats values that per-sample evaluation computes
        identically: a local time n - k * P is exact for P = 1,200 and
        1,200.5, and with no whole-sample run every sample is evaluated."""
        period, fs = grid
        schedule = grid_schedule(period, cycles, phase0)
        local = per_sample_local(schedule, fs)
        tx = lab.synthesize_transmit(schedule, fs)
        np.testing.assert_array_equal(
            tx.samples, np.cos(lab.tx_phase(schedule.tx, local))
        )
        active = local < schedule.lo.duration
        expected = np.zeros_like(local)
        expected[active] = np.cos(lab.lo_phase(schedule.lo, local[active]))
        np.testing.assert_array_equal(lab.synthesize_lo(schedule, fs).samples, expected)

    @pytest.mark.parametrize("grid, stop", zip(SYNTHESIS_GRIDS, (1200, 2401, 12003)))
    def test_one_run_is_evaluated(self, grid_schedule, grid, stop):
        """One cycle, two cycles, or the whole 10-cycle record."""
        period, fs = grid
        sampled = waveform.sample_grid(grid_schedule(period, 10), fs)
        assert (sampled.start, sampled.stop) == (0, stop)


def lazy_signal(block, start, count, t0=0.25):
    return lab.SampledSignal._fresh(4000.0, np.asarray(block, dtype=float), t0, start, count)


@st.composite
def runs(draw):
    """(block, start, count): a block of 1-12 values whose run starts inside
    it, and a record shorter than, as long as or longer than the block."""
    values = st.floats(allow_nan=True, allow_infinity=True, width=64)
    block = draw(st.lists(values, min_size=1, max_size=12))
    start = draw(st.integers(min_value=0, max_value=len(block) - 1))
    count = draw(st.integers(min_value=1, max_value=60))
    return np.array(block, dtype=float), start, count


class TestLazySamples:
    """A signal ``_fresh`` builds from a shorter run tiles its record on the
    first read of ``samples`` and nowhere else."""

    @given(run=runs(), stop=st.integers(min_value=0, max_value=70))
    @settings(max_examples=200, deadline=None)
    def test_head_and_samples_equal_the_tile(self, run, stop):
        block, start, count = run
        full = waveform._tile(block, start, count)
        signal = lazy_signal(block, start, count)
        assert signal._head(stop).tobytes() == full[:stop].tobytes()
        assert signal.samples.tobytes() == full.tobytes()
        assert signal.samples is signal.samples
        assert not signal.samples.flags.writeable

    def test_run_outside_the_block_refused_at_construction(self):
        block = np.arange(5.0)
        with pytest.raises(ValueError, match="must start inside the block"):
            lazy_signal(block, len(block), 2 * len(block))

    def test_size_and_clock_read_no_samples(self):
        signal = lazy_signal([1.0, 2.0, 3.0], 1, 10)
        eager = lab.SampledSignal(4000.0, signal._head(10), t0=0.25)
        assert (len(signal), signal.duration) == (len(eager), eager.duration) == (10, 0.0025)
        np.testing.assert_array_equal(signal.times(), eager.times())
        assert "samples" not in vars(signal)
        np.testing.assert_array_equal(signal.samples, [1, 2, 3, 2, 3, 2, 3, 2, 3, 2])

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickle_and_replace_act_as_on_an_eager_signal(self, read_first):
        signal = lazy_signal([1.0, 2.0, 3.0], 1, 10)
        eager = lab.SampledSignal(4000.0, signal._head(10), t0=0.25)
        if read_first:
            signal.samples
        restored = pickle.loads(pickle.dumps(signal))
        assert (len(restored), restored.t0, restored._repeat) == (10, 0.25, (1, 2))
        np.testing.assert_array_equal(restored.samples, eager.samples)
        for source in (signal, eager):
            moved = dataclasses.replace(source, t0=1.0)
            assert (len(moved), moved.t0, moved._repeat) == (10, 1.0, (0, 10))
            np.testing.assert_array_equal(moved.samples, eager.samples)

    def test_other_missing_attributes_still_raise(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            lazy_signal([1.0, 2.0], 0, 5).nope


@st.composite
def derivations(draw):
    """1-3 lazy signals on one record and a causal op on them: a pointwise
    sum or product, then an FIR of 1-5 taps, which settles taps - 1 samples
    after its inputs repeat."""
    count = draw(st.integers(min_value=1, max_value=60))
    values = st.floats(min_value=-1e3, max_value=1e3, width=64)
    inputs = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        block = draw(st.lists(values, min_size=1, max_size=12))
        start = draw(st.integers(min_value=0, max_value=len(block) - 1))
        inputs.append((np.array(block, dtype=float), start))
    combine = draw(st.sampled_from([np.add, np.multiply]))
    taps = np.array(draw(st.lists(values, min_size=1, max_size=5)), dtype=float)

    def op(*xs):
        return np.convolve(functools.reduce(combine, xs), taps)[: xs[0].size]

    return inputs, count, op, taps.size - 1


class TestDerive:
    """``_derive``, the one rule for the run of a record computed from
    repeating records."""

    @given(case=derivations())
    @settings(max_examples=300, deadline=None)
    def test_one_run_of_the_op_tiled_is_the_op_of_the_tiled_records(self, case):
        """Bit-equal to the op over the full records, repeating from the
        latest start plus the settle with the least common multiple of the
        runs, read-only, and computed from heads that end with that run."""
        inputs, count, op, settle = case
        signals = [lazy_signal(block, start, count) for block, start in inputs]
        tiled, tile = [], waveform._tile

        def recording(block, start, stop):
            tiled.append(stop)
            return tile(block, start, stop)

        with mock.patch.object(waveform, "_tile", recording):
            result = signals[0]._derive(op, *signals[1:], settle=settle)
        start = max(signal._repeat[0] for signal in signals) + settle
        run = math.lcm(*(signal._repeat[1] for signal in signals))
        assert result._repeat == ((start, run) if start + run < count else (0, count))
        assert all(stop <= min(count, start + run) for stop in tiled)
        full = op(*(waveform._tile(block, start, count) for block, start in inputs))
        assert result.samples.tobytes() == full.tobytes()
        assert not result.samples.flags.writeable
        assert (len(result), result.t0, result.sample_rate) == (count, 0.25, 4000.0)

    def test_inputs_off_one_clock_are_refused(self):
        with pytest.raises(lab.ShapeError, match="share sample rate, length"):
            lazy_signal([1.0, 2.0], 0, 6)._derive(np.add, lazy_signal([1.0], 0, 5))


class TestTimeSlice:
    def test_half_open_interval(self, reference_tx):
        part = lab.time_slice(reference_tx, 0.1, 0.2)
        assert part.t0 == pytest.approx(0.1)
        assert len(part) == 400
        np.testing.assert_array_equal(part.samples, reference_tx.samples[400:800])

    @given(run=runs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_cut_keeps_the_run_shifted_by_the_cut(self, run, data):
        """A cut [i0, i1) of a lazy signal holds the source's samples and
        clock, is read-only, and repeats with the source's run from
        ``max(i0, start) - i0``, unless that run ends at or past the cut.
        It keeps the source's block or an array of at most two runs past
        ``start``, however late it starts."""
        signal = lazy_signal(*run)
        i1 = data.draw(st.integers(min_value=1, max_value=len(signal)))
        i0 = data.draw(st.integers(min_value=0, max_value=i1 - 1))
        fs, t0 = signal.sample_rate, signal.t0
        part = lab.time_slice(signal, t0 + i0 / fs, t0 + i1 / fs)
        start, length = signal._repeat
        first = max(i0, start)
        expected = (first - i0, length) if first + length < i1 else (0, i1 - i0)
        assert (part._repeat, part.t0) == (expected, t0 + i0 / fs)
        assert part.samples.tobytes() == signal.samples[i0:i1].tobytes()
        assert not part.samples.flags.writeable
        kept = part._block.base
        assert kept is signal._block or kept.size <= start + 2 * length

    def test_rejects_empty_slices(self, reference_tx):
        with pytest.raises(lab.DomainError):
            lab.time_slice(reference_tx, 0.2, 0.2)

    @pytest.mark.parametrize(
        "bounds, name",
        [
            ((math.nan, 1.0), "t_start"),
            ((0.0, math.nan), "t_stop"),
            ((0.0, math.inf), "t_stop"),
            ((-math.inf, 1.0), "t_start"),
            ((math.nan, math.inf), "t_start"),
        ],
    )
    def test_rejects_non_finite_bounds(self, reference_tx, bounds, name):
        """Once a ValueError or OverflowError from ``math.ceil``."""
        with pytest.raises(lab.DomainError, match=f"{name} must be finite"):
            lab.time_slice(reference_tx, *bounds)
