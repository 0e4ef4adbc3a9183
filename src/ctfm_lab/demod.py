"""The dual-channel receiver chain: two mixers, two low-pass filters, an adder.

Channel 1 mixes the received signal with the transmit sweep (the
conventional CTFM path); channel 2 mixes it with the oscillator extension.
The shared low-pass filter performs the implicit channel gating: during
blind time channel 1's product sits at the jump frequency (stopband) while
channel 2's sits at the beat (passband), and the roles reverse outside the
blind window, so a plain sample-wise sum concatenates the valid segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError
from .waveform import SampledSignal, SweepSchedule, _check_aligned, _require_finite, sweep_rate


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


def mix(a: SampledSignal, b: SampledSignal) -> SampledSignal:
    """Element-wise product of two aligned signals, over one common run
    of their repetitions (``SampledSignal._derive``)."""
    return a._derive(np.multiply, b)


def lowpass_filter(signal: SampledSignal, spec: LowpassSpec) -> SampledSignal:
    """Causal FIR filtering; output keeps the input's length and clock.

    The output is not advanced to compensate the filter delay: callers
    shift their analysis windows by ``spec.group_delay`` instead.

    Output n reads inputs n - taps + 1 to n alone, so the filter is a
    ``SampledSignal._derive`` with ``settle = taps - 1``: it filters one run
    of its input and tiles the output when read.  Each full-overlap output
    is one contiguous dot product over the taps, so equal input windows give
    bit-equal outputs, as filtering the whole record does.
    """
    return _filter(signal, spec, design_lowpass(spec))


def _filter(signal: SampledSignal, spec: LowpassSpec, h: np.ndarray) -> SampledSignal:
    """``lowpass_filter`` with the taps ``h`` of ``spec`` already designed."""
    if spec.sample_rate != signal.sample_rate:
        raise ShapeError(
            f"filter designed for {spec.sample_rate} Hz, signal is "
            f"{signal.sample_rate} Hz"
        )
    return signal._derive(lambda x: np.convolve(x, h)[: x.size], settle=h.size - 1)


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
        sum=channel1._derive(np.add, channel2),
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
