"""Target echoes and range bookkeeping.

An echo is a delayed, scaled copy of the full multi-cycle transmit stream,
so during the first ``delay`` seconds of every cycle the receiver still
hears the tail of the previous sweep.  That overlap is the blind-time
mechanism the dual-demodulator receiver exists to fix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedRangeError
from .waveform import SampledSignal, SweepSchedule, _check_sample_rate, sample_grid


@dataclass(frozen=True)
class Echo:
    """One reflector: two-way delay in seconds and a dimensionless gain."""

    delay: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.delay) or self.delay < 0.0:
            raise DomainError(f"echo delay must be finite and >= 0, got {self.delay}")
        if not math.isfinite(self.amplitude):
            raise DomainError(f"echo amplitude must be finite, got {self.amplitude}")


@dataclass(frozen=True)
class Scene:
    """An ordered collection of echoes plus the propagation speed."""

    echoes: tuple[Echo, ...]
    sound_speed: float = 1500.0

    def __post_init__(self):
        object.__setattr__(self, "echoes", tuple(self.echoes))
        _check_positive("sound_speed", self.sound_speed)


def synthesize_received(
    schedule: SweepSchedule, scene: Scene, sample_rate: float
) -> SampledSignal:
    """Sample the received signal: the sum of delayed transmit copies.

    Each echo is evaluated in closed form at sample instants (no
    resampling), all of them in one array pass over the grid's rows, and
    samples before its first arrival are zero.  The sum, echoes added in
    scene order onto zero, is evaluated up to the end of the first
    whole-sample run after the last arrival and tiled from there
    (``waveform.sample_grid``).  Whole-sample delays give exactly the
    per-sample values.  A fractional delay's local time is read near the
    record start, where it carries less rounding than at a late sample; it
    stays within 1e-10 * sum(|amplitude|) of per-sample evaluation.
    """
    grid = sample_grid(schedule, sample_rate, [echo.delay for echo in scene.echoes])
    return _received(schedule, scene, sample_rate, grid, grid.copies(schedule.tx))


def _received(schedule: SweepSchedule, scene: Scene, sample_rate: float, grid, copies):
    """The echoes of ``scene`` summed from ``copies``, their rows of
    ``grid.copies(schedule.tx)`` in scene order."""
    _check_sample_rate(sample_rate, schedule.tx)
    for i, echo in enumerate(scene.echoes):
        if echo.delay >= schedule.period:
            raise UnsupportedRangeError(
                f"echo {i} delay {echo.delay} s must be below the sweep period "
                f"{schedule.period} s; longer delays leave no valid beat segment"
            )
    block = np.zeros(grid.stop)
    for (first, term), echo in zip(copies, scene.echoes):
        block[first:] += term * echo.amplitude
    return SampledSignal._fresh(sample_rate, block, start=grid.start, count=grid.count)


def _check_delay(delay: float) -> None:
    if not math.isfinite(delay) or delay < 0.0:
        raise DomainError(f"delay must be finite and >= 0, got {delay}")


def _check_positive(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be finite and positive, got {value}")


def beat_frequency(sweep_slope: float, delay: float) -> float:
    """Difference frequency slope * delay produced by a settled echo."""
    if not math.isfinite(sweep_slope):
        raise DomainError(f"sweep_slope must be finite, got {sweep_slope}")
    _check_delay(delay)
    return sweep_slope * delay


def delay_to_range(delay: float, sound_speed: float = 1500.0) -> float:
    """Two-way travel: range = sound_speed * delay / 2."""
    _check_delay(delay)
    _check_positive("sound_speed", sound_speed)
    return sound_speed * delay / 2.0


def ctfm_resolution(bandwidth: float, sound_speed: float = 1500.0) -> float:
    """Baseline range resolution sound_speed / (2 * bandwidth)."""
    _check_positive("bandwidth", bandwidth)
    _check_positive("sound_speed", sound_speed)
    return sound_speed / (2.0 * bandwidth)
