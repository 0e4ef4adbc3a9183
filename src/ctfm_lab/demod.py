"""The dual-channel receiver chain: two mixers, two low-pass filters, an adder.

Channel 1 mixes the received signal with the transmit sweep (the
conventional CTFM path); channel 2 mixes it with the oscillator extension.
The shared low-pass filter performs the implicit channel gating: during
blind time channel 1's product sits at the jump frequency (stopband) while
channel 2's sits at the beat (passband), and the roles reverse outside the
blind window, so a plain sample-wise sum concatenates the valid segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError
from .waveform import GRID_SLACK, SampledSignal, SweepSchedule, _require_finite, sweep_rate


@dataclass(frozen=True)
class LowpassSpec:
    """Design parameters for the linear-phase FIR low-pass filter."""

    cutoff: float
    tap_count: int = 257
    sample_rate: float = 4000.0

    def __post_init__(self):
        if _require_finite("sample_rate", self.sample_rate, ConfigurationError) <= 0.0:
            raise ConfigurationError(
                f"sample_rate must be positive, got {self.sample_rate}"
            )
        if not 0.0 < self.cutoff < self.sample_rate / 2.0:
            raise ConfigurationError(
                f"cutoff must lie in (0, Nyquist) = (0, {self.sample_rate / 2}), "
                f"got {self.cutoff}"
            )
        if not isinstance(self.tap_count, int) or self.tap_count < 3 or self.tap_count % 2 == 0:
            raise ConfigurationError(
                f"tap_count must be an odd integer >= 3, got {self.tap_count}"
            )

    @property
    def group_delay(self) -> float:
        """Delay of the linear-phase filter in seconds."""
        return (self.tap_count - 1) / (2.0 * self.sample_rate)

    @property
    def impulse_duration(self) -> float:
        """Length of the impulse response in seconds."""
        return self.tap_count / self.sample_rate


def design_lowpass(spec: LowpassSpec) -> np.ndarray:
    """Hamming-windowed-sinc impulse response, normalized to unit DC gain."""
    mid = (spec.tap_count - 1) // 2
    n = np.arange(spec.tap_count) - mid
    h = np.sinc(2.0 * spec.cutoff * n / spec.sample_rate)
    h *= np.hamming(spec.tap_count)
    return h / h.sum()


def frequency_response(coeffs: np.ndarray, freqs_hz, sample_rate: float) -> np.ndarray:
    """Complex response of an FIR filter at the given frequencies."""
    freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=float))
    n = np.arange(len(coeffs))
    phase = -2j * np.pi * np.outer(freqs, n) / sample_rate
    return np.exp(phase) @ np.asarray(coeffs)


def feasible_cutoff_interval(schedule: SweepSchedule) -> tuple[float, float]:
    """Open interval of cutoffs that pass every beat and stop every jump.

    Delays up to the oscillator window produce beats up to slope * window,
    while the smallest jump frequency is bandwidth - slope * window; the
    cutoff must separate the two.
    """
    mu = sweep_rate(schedule.tx)
    bandwidth = schedule.tx.f_end - schedule.tx.f_start
    max_beat = mu * schedule.lo.duration
    return (max_beat, bandwidth - max_beat)


def check_cutoff(schedule: SweepSchedule, lowpass: LowpassSpec) -> None:
    """Reject cutoffs outside the feasible interval for this schedule."""
    low, high = feasible_cutoff_interval(schedule)
    if low >= high:
        raise ConfigurationError(
            f"no feasible cutoff: oscillator window supports beats up to {low} Hz "
            f"but the smallest jump frequency is {high} Hz"
        )
    if not low < lowpass.cutoff < high:
        raise ConfigurationError(
            f"cutoff {lowpass.cutoff} Hz outside the feasible interval "
            f"({low}, {high}) Hz: the correct beat must pass and the jump "
            f"frequency must be stopped"
        )


def _check_aligned(*signals: SampledSignal) -> None:
    """Same rate and length, and start times on one sample grid.

    Start times may differ by rounding, up to ``GRID_SLACK`` of a sample
    period, the slack ``time_slice`` allows.
    """
    first = signals[0]
    for other in signals[1:]:
        if (
            other.sample_rate != first.sample_rate
            or len(other) != len(first)
            or not abs(other.t0 - first.t0) * first.sample_rate < GRID_SLACK
        ):
            raise ShapeError(
                "signals must share sample rate, length, and start time: "
                f"({first.sample_rate} Hz, {len(first)}, t0={first.t0}) vs "
                f"({other.sample_rate} Hz, {len(other)}, t0={other.t0})"
            )


def _elementwise(op, a: SampledSignal, b: SampledSignal) -> SampledSignal:
    """``op`` of two aligned signals, sample by sample.

    Where both inputs repeat, from the later start with a run both runs
    divide, so does the result: it is computed over one such run of the
    inputs' heads (``_head``), and tiled only when its samples are read.
    """
    _check_aligned(a, b)
    (start_a, run_a), (start_b, run_b) = a._repeat, b._repeat
    start, run = max(start_a, start_b), math.lcm(run_a, run_b)
    stop = min(len(a), start + run)
    block = op(a._head(stop), b._head(stop))
    return SampledSignal._fresh(a.sample_rate, block, a.t0, start, len(a))


def mix(a: SampledSignal, b: SampledSignal) -> SampledSignal:
    """Element-wise product of two aligned signals, over one common run
    of their repetitions (``_elementwise``)."""
    return _elementwise(np.multiply, a, b)


def lowpass_filter(signal: SampledSignal, spec: LowpassSpec) -> SampledSignal:
    """Causal FIR filtering; output keeps the input's length and clock.

    The output is not advanced to compensate the filter delay: callers
    shift their analysis windows by ``spec.group_delay`` instead.

    Output n depends only on inputs up to n, so an input that repeats from
    ``start`` with period ``run`` gives an output that repeats from
    ``start + taps - 1``.  Only the first ``start + taps - 1 + run`` input
    samples are read (``_head``) and filtered, and the output is tiled when
    read.  Each full-overlap output is one contiguous dot product over the
    taps, so equal input windows give bit-equal outputs.  A signal with no
    known repetition, or one whose run does not end before the record, is
    filtered in full.
    """
    return _filter(signal, spec, design_lowpass(spec))


def _filter(signal: SampledSignal, spec: LowpassSpec, h: np.ndarray) -> SampledSignal:
    """``lowpass_filter`` with the taps ``h`` of ``spec`` already designed."""
    if spec.sample_rate != signal.sample_rate:
        raise ShapeError(
            f"filter designed for {spec.sample_rate} Hz, signal is "
            f"{signal.sample_rate} Hz"
        )
    start, run = signal._repeat
    settled = start + h.size - 1  # the first output whose taps all repeat
    stop = min(len(signal), settled + run)
    filtered = np.convolve(signal._head(stop), h)[:stop]
    return SampledSignal._fresh(
        signal.sample_rate, filtered, signal.t0, settled, len(signal)
    )


@dataclass(frozen=True, eq=False)
class DemodOutput:
    """Both filtered channels and their sum, all sharing one clock."""

    channel1: SampledSignal
    channel2: SampledSignal
    sum: SampledSignal
    group_delay: float


def demodulate(
    tx: SampledSignal,
    lo: SampledSignal,
    rx: SampledSignal,
    lowpass: LowpassSpec,
) -> DemodOutput:
    """Run the full dual-channel chain and add the channel outputs.

    Each channel is mixed and filtered over one run of its repeating inputs
    (``mix``, ``lowpass_filter``), bit-identical to filtering the whole
    record; the sum adds one run of the channels.  The taps are designed
    once.  No full record is built: each signal's ``samples`` are tiled on
    their first read.
    """
    _check_aligned(tx, lo, rx)
    h = design_lowpass(lowpass)
    channel1 = _filter(mix(tx, rx), lowpass, h)
    channel2 = _filter(mix(lo, rx), lowpass, h)
    return DemodOutput(
        channel1=channel1,
        channel2=channel2,
        sum=_elementwise(np.add, channel1, channel2),
        group_delay=lowpass.group_delay,
    )


def ctfm_demodulate(
    tx: SampledSignal, rx: SampledSignal, lowpass: LowpassSpec
) -> SampledSignal:
    """Single-channel baseline: mix with the transmit sweep and filter.

    The output carries the blind-time corruption in every cycle; it is
    channel 1 of the dual chain on its own.
    """
    return lowpass_filter(mix(tx, rx), lowpass)
