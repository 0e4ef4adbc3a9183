"""Linear FM sweep synthesis with exact instantaneous-phase evaluation.

The transmitter repeats an up-chirp as a sawtooth: every cycle restarts at
the same initial phase.  A local oscillator extends each sweep past its end
frequency with the same slope and in phase continuity, covering the
worst-case blind interval at the start of the next cycle.

All phase values are unwrapped (reported as accumulated radians); wrapping
into (-pi, pi] is a separate, explicit operation, ``wrap_phase``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, ShapeError

TWO_PI = 2.0 * math.pi

# Relative tolerance for the phase/slope continuity invariants of a schedule.
CONTINUITY_TOL = 1e-9

# Offsets below this fraction of a sample period count as on the sample grid.
GRID_SLACK = 1e-9


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ChirpSpec:
    """One linear frequency sweep: f_start -> f_end over ``duration`` seconds.

    The transmit chirp and the oscillator extension that continues it past
    its end are both sweeps of this kind; ``LocalOscSpec`` is an alias.
    """

    f_start: float
    f_end: float
    duration: float
    phase0: float = 0.0

    def __post_init__(self):
        for name in ("f_start", "f_end", "duration", "phase0"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.duration <= 0.0:
            raise DomainError(f"duration must be positive, got {self.duration}")
        if self.f_start < 0.0 or self.f_end < 0.0:
            raise DomainError("sweep frequencies must be nonnegative")


LocalOscSpec = ChirpSpec


def sweep_rate(spec: ChirpSpec) -> float:
    """Frequency slope of a sweep in Hz/s: (f_end - f_start) / duration."""
    return (spec.f_end - spec.f_start) / spec.duration


def _local_time(spec: ChirpSpec, t_local) -> np.ndarray:
    t = np.asarray(t_local, dtype=float)
    # NaN fails both comparisons; ``initial`` lets an empty array through.
    if not (np.min(t, initial=0.0) >= 0.0 and np.max(t, initial=0.0) <= spec.duration):
        raise DomainError(
            f"local time must lie in [0, {spec.duration}], got {t_local!r}"
        )
    return t


def sweep_phase(spec: ChirpSpec, t_local):
    """Unwrapped phase of a sweep at local time ``t_local``.

    ``t_local`` is measured from the start of the sweep (for the oscillator,
    from the transmit sweep's reset instant) and must lie in
    [0, spec.duration].  Accepts a scalar or an ndarray.
    """
    t = _local_time(spec, t_local)
    mu = sweep_rate(spec)
    phase = spec.phase0 + TWO_PI * (spec.f_start * t + 0.5 * mu * t * t)
    return float(phase) if np.isscalar(t_local) else phase


tx_phase = lo_phase = sweep_phase


def instantaneous_frequency(spec: ChirpSpec, t_local):
    """Instantaneous frequency f_start + rate * t of a sweep, in Hz."""
    freq = spec.f_start + sweep_rate(spec) * _local_time(spec, t_local)
    return float(freq) if np.isscalar(t_local) else freq


def wrap_phase(theta):
    """Reduce an angle to its unique representative in (-pi, pi]."""
    arr = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"phase must be finite, got {theta!r}")
    wrapped = np.mod(arr, TWO_PI)
    wrapped = np.where(wrapped > math.pi, wrapped - TWO_PI, wrapped)
    return float(wrapped) if np.isscalar(theta) else wrapped


def phase_continuous_extension(
    tx: ChirpSpec, f_end: float, duration: float
) -> ChirpSpec:
    """Derive the oscillator sweep that continues ``tx`` seamlessly.

    Start frequency and initial phase are never chosen by the caller: the
    sweep starts where the transmit chirp ends, at the transmit chirp's
    final (unwrapped) phase.
    """
    return ChirpSpec(
        f_start=tx.f_end,
        f_end=f_end,
        duration=duration,
        phase0=sweep_phase(tx, tx.duration),
    )


@dataclass(frozen=True)
class SweepSchedule:
    """A repeating transmit sweep paired with its oscillator extension."""

    tx: ChirpSpec
    lo: ChirpSpec
    cycles: int

    def __post_init__(self):
        if isinstance(self.cycles, bool) or not isinstance(self.cycles, int) or self.cycles < 1:
            raise DomainError(f"cycles must be a positive integer, got {self.cycles}")
        tx, lo = self.tx, self.lo
        if lo.duration > tx.duration:
            raise ConfigurationError(
                "oscillator window must not exceed the sweep period "
                f"({lo.duration} > {tx.duration})"
            )
        scale = max(1.0, abs(tx.f_end))
        if abs(lo.f_start - tx.f_end) > CONTINUITY_TOL * scale:
            raise ConfigurationError(
                f"oscillator must start at the transmit end frequency "
                f"({lo.f_start} != {tx.f_end})"
            )
        mu_tx, mu_lo = sweep_rate(tx), sweep_rate(lo)
        if abs(mu_lo - mu_tx) > CONTINUITY_TOL * max(1.0, abs(mu_tx)):
            raise ConfigurationError(
                f"oscillator slope {mu_lo} Hz/s must match transmit slope {mu_tx} Hz/s"
            )
        mismatch = wrap_phase(lo.phase0 - sweep_phase(tx, tx.duration))
        if abs(mismatch) > CONTINUITY_TOL:
            raise ConfigurationError(
                f"oscillator initial phase breaks continuity with the transmit "
                f"sweep by {mismatch} rad (mod 2*pi)"
            )

    @property
    def period(self) -> float:
        return self.tx.duration

    @property
    def total_duration(self) -> float:
        return self.cycles * self.tx.duration


def make_schedule(
    tx: ChirpSpec, lo_f_end: float, lo_duration: float, cycles: int
) -> SweepSchedule:
    """Build a schedule whose oscillator parameters are derived from ``tx``."""
    return SweepSchedule(
        tx=tx, lo=phase_continuous_extension(tx, lo_f_end, lo_duration), cycles=cycles
    )


def cycle_split(t, period: float):
    """Map global time to (cycle index, local time): k = floor(t/period).

    Samples that land exactly on a cycle boundary belong to the starting
    cycle.  Accepts scalars or ndarrays; local times are clipped to
    [0, period] against floating-point fuzz at the boundaries.  Times must
    be finite and ``period`` finite and positive.
    """
    if not 0.0 < period < math.inf:
        raise DomainError(f"period must be finite and positive, got {period!r}")
    t_arr = np.asarray(t, dtype=float)
    if not np.isfinite(t_arr).all():
        raise DomainError(f"times must be finite, got {t!r}")
    k = np.floor(t_arr / period)
    local = np.clip(t_arr - k * period, 0.0, period)
    if np.isscalar(t):
        return int(k), float(local)
    return k.astype(int), local


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """A uniformly sampled real waveform.  Immutable after construction.

    ``_repeat`` is a private ``(start, run)``: from ``start + run`` on, each
    sample equals the one ``run`` earlier.  Only ``_fresh`` records a
    shorter run; every other signal, and any run that does not end before
    the record does, has ``(0, len)``: the run is the whole record.

    Such a signal keeps its block (``_block``) and length (``_count``): its
    ``samples`` are tiled (``_tile``) on their first read, once, and
    ``len``, ``duration``, ``times()`` and ``_head`` never tile the record.
    A record computed from others gets its run from ``_derive``,
    ``csv_columns`` writes it over that run, and the spectrum zooms it as
    ``_copies`` splits it: no other module reads a run.
    """

    sample_rate: float
    samples: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        arr = np.array(self.samples, dtype=float)
        self._adopt(arr, 0, arr.size)

    def _adopt(self, block: np.ndarray, start: int, count: int) -> None:
        check_sample_rate(self.sample_rate)
        _require_finite("t0", self.t0)
        if block.ndim != 1 or block.size < 1:
            raise ShapeError(
                f"samples must be a non-empty 1-d sequence, got shape {block.shape}"
            )
        block.setflags(write=False)
        if block.size >= count:
            start = 0
            object.__setattr__(self, "samples", block[:count])
        else:
            _check_run(start, block.size)
        object.__setattr__(self, "_block", block)
        object.__setattr__(self, "_repeat", (start, min(block.size, count) - start))
        object.__setattr__(self, "_count", count)

    def __getattr__(self, name: str):
        """Tile ``samples`` on their first read; only a lazy signal lacks them."""
        if name != "samples" or "_block" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        samples = self._head(self._count)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        return samples

    @classmethod
    def _fresh(
        cls,
        sample_rate: float,
        samples: np.ndarray,
        t0: float = 0.0,
        start: int = 0,
        count: int | None = None,
    ):
        """Wrap an array the package has just built, without copying it.

        Only for arrays no caller holds: the public constructor copies, so
        that later writes to the caller's array cannot leak in.  With a
        ``count`` beyond its length, ``samples`` is the first run of a
        longer record that repeats ``samples[start:]`` out to ``count``
        samples: the signal records that repetition, refuses a run that
        does not start inside ``samples``, and tiles the record only when
        it is read.
        """
        block = np.asarray(samples, dtype=float)
        signal = object.__new__(cls)
        object.__setattr__(signal, "sample_rate", sample_rate)
        object.__setattr__(signal, "t0", t0)
        signal._adopt(block, start, block.size if count is None else count)
        return signal

    def _head(self, stop: int) -> np.ndarray:
        """The first ``stop`` samples (all, if fewer), tiled no further."""
        return _tile(self._block, self._repeat[0], min(stop, self._count))

    def _copies(self) -> tuple[int, int, int]:
        """(lead, run, copies): the record is its first ``lead`` samples, then
        ``copies`` whole copies of the ``run`` samples that follow them, with
        lead = start + (len - start) mod run.  A record with no shorter run
        is one copy with no lead-in."""
        start, run = self._repeat
        lead = start + (self._count - start) % run
        return lead, run, (self._count - lead) // run

    def _derive(self, op, *others: SampledSignal, settle: int = 0) -> SampledSignal:
        """``op`` of this signal and the aligned ``others``, on this clock.

        Output n of ``op`` may read inputs n - ``settle`` to n alone, so the
        result repeats from the inputs' latest start plus ``settle`` with the
        lcm of their runs; ``op`` reads each ``_head`` to the end of that run
        (or of the record), and the result is tiled only when read.
        """
        signals = (self, *others)
        _check_aligned(*signals)
        start = max(signal._repeat[0] for signal in signals) + settle
        run = math.lcm(*(signal._repeat[1] for signal in signals))
        stop = min(self._count, start + run)
        block = op(*(signal._head(stop) for signal in signals))
        return self._fresh(self.sample_rate, block, self.t0, start, self._count)

    def __len__(self) -> int:
        return self._count

    @property
    def duration(self) -> float:
        return self._count / self.sample_rate

    def times(self) -> np.ndarray:
        """Sample instants ``t0 + i / sample_rate``."""
        return self.t0 + np.arange(self._count) / self.sample_rate


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


def _check_run(start: int, size: int) -> None:
    if not 0 <= start < size:
        raise ValueError(f"the run must start inside the block: start {start}, {size} values")


def _tile(block: np.ndarray, start: int, count: int) -> np.ndarray:
    """The ``count``-sample record whose first ``len(block)`` are ``block``.

    Later samples repeat ``block[start:]``, copied in doubling chunks, of
    any dtype (samples, masks, row positions and a repeating column's
    texts).  A block that already spans the record is cut to it.
    """
    if block.size >= count:
        return block[:count]
    _check_run(start, block.size)
    record = np.empty(count, dtype=block.dtype)
    record[: block.size] = block
    filled = block.size
    while filled < count:
        chunk = min(filled - start, count - filled)
        record[filled : filled + chunk] = record[start : start + chunk]
        filled += chunk
    return record


class Rows(NamedTuple):
    """The column ``values[rows]``, written with those rows' texts of ``values``."""

    values: np.ndarray
    rows: object


def _format_all(values: np.ndarray, sep: str) -> list[str]:
    """Each value as ``.17g`` text and ``sep``, in one printf-style pass over
    the column, split at the NUL after each.

    ``"%.17g" % x`` and ``format(x, ".17g")`` call the same
    ``PyOS_double_to_string(x, 'g', 17)``, so the texts are the same.
    """
    return ((f"%.17g{sep}\0" * values.size) % tuple(values.tolist())).split("\0")[:-1]


def _formatted(column, sep: str, cache: dict) -> list[str]:
    values = np.asarray(column, dtype=float)
    key = (sep, values.tobytes())
    if key not in cache:
        cache[key] = _format_all(values, sep)
    return cache[key]


def _cells(column, sep: str, cache: dict) -> list[str]:
    """One column's texts, each followed by ``sep``."""
    if isinstance(column, SampledSignal):
        start, run = column._repeat
        texts = np.array(_formatted(column._head(start + run), sep, cache), dtype=object)
        return _tile(texts, start, column._count).tolist()
    if isinstance(column, Rows):
        texts = np.array(_formatted(column.values, sep, cache), dtype=object)
        return texts[column.rows].tolist()
    if not isinstance(column, list):
        return _formatted(column, sep, cache)
    numbers = [x for x in column if not (x is None or isinstance(x, str))]
    texts = iter(_formatted(numbers, sep, cache))
    return [x + sep if isinstance(x, str) else sep if x is None else next(texts) for x in column]


def csv_columns(header: str, *columns, cache: dict | None = None) -> str:
    """Columns of one length as CSV text: the one place artifact numbers
    become text.

    A column is an array of numbers; the ``Rows`` of an array, whose values
    are formatted once and read at its rows; a ``SampledSignal``, whose
    run's texts are tiled over the record; or a list, written cell
    by cell: a ``str`` as it stands, ``None`` as an empty cell, and its
    numbers formatted in one pass.  Every number is in round-trip ``.17g``
    and carries its separator, a comma or the line break, so each row is
    one piece per column.  ``cache`` maps a separator and an array's exact
    float64 bytes to its texts; texts that share a cache format an array
    they have in common once.  No column, or columns of different lengths,
    raise ``ValueError``.
    """
    if not columns:
        raise ValueError("csv_columns needs at least one column, got 0")
    cache = {} if cache is None else cache
    seps = [","] * (len(columns) - 1) + ["\n"]
    texts = [_cells(column, sep, cache) for column, sep in zip(columns, seps)]
    rows = len(texts[0])
    cells = [header + "\n"] + [""] * (rows * len(texts))
    for j, column in enumerate(texts):
        if len(column) != rows:
            raise ValueError(f"columns of different lengths: {rows} and {len(column)} rows")
        cells[1 + j :: len(texts)] = column
    return "".join(cells)


def time_slice(signal: SampledSignal, t_start: float, t_stop: float) -> SampledSignal:
    """Samples with t_start <= t < t_stop (relative to the signal's clock).

    The cut is read-only and keeps its source's run, shifted by the cut: it
    is a view of the source's block where that block reaches, holds at most
    ``start + 2 * run`` samples of the source's ``_repeat`` otherwise, and is
    tiled only when its samples are read.
    """
    fs = signal.sample_rate
    i0, i1 = _slice_indices(len(signal), fs, t_start, t_stop, signal.t0)
    start, run = signal._repeat
    first = max(i0, start)
    skip = (first - start) // run * run  # whole runs before the cut, never read
    head = signal._head(min(i1, first + run) - skip)[i0 - skip :]
    return SampledSignal._fresh(fs, head, signal.t0 + i0 / fs, first - i0, i1 - i0)


def _slice_indices(
    count: int, sample_rate: float, t_start: float, t_stop: float, t0: float = 0.0
) -> tuple[int, int]:
    """Indices [i0, i1) of the samples of a ``count``-sample record from
    ``t0`` with t_start <= t < t_stop; raises if there are none."""
    _require_finite("t_start", t_start)
    _require_finite("t_stop", t_stop)
    if t_stop <= t_start:
        raise DomainError(f"empty slice [{t_start}, {t_stop})")
    i0 = max(0, math.ceil((t_start - t0) * sample_rate - GRID_SLACK))
    i1 = min(count, math.ceil((t_stop - t0) * sample_rate - GRID_SLACK))
    if i1 <= i0:
        raise DomainError(f"slice [{t_start}, {t_stop}) contains no samples")
    return i0, i1


def check_sample_rate(sample_rate: float, *sweeps: ChirpSpec) -> None:
    """The one sample-rate rule: ``DomainError`` unless finite and positive, then
    ``ConfigurationError`` for the first of ``sweeps`` peaking above rate / 4."""
    if not 0.0 < sample_rate < math.inf:
        raise DomainError(f"sample_rate must be finite and positive, got {sample_rate!r}")
    for spec in sweeps:
        if sample_rate < 4.0 * (f_max := max(spec.f_start, spec.f_end)):
            raise ConfigurationError(
                f"sample rate {sample_rate} Hz is below 4x the peak instantaneous "
                f"frequency ({f_max} Hz)"
            )


def sample_count(schedule: SweepSchedule, sample_rate: float) -> int:
    return int(round(schedule.total_duration * sample_rate))


def local_times_on_grid(index, sample_rate: float, period: float) -> np.ndarray:
    """Per-cycle local time of (possibly fractional) sample indices:
    ``cycle_split`` in sample-index units, divided by the rate.

    Working in index units keeps every cycle bit-identical whenever the
    period spans a whole number of samples, and makes whole-sample delays
    exact: period * sample_rate rounds to that integer when both are the
    decimal values they were specified as.
    """
    _, local = cycle_split(index, period * sample_rate)
    return local / sample_rate


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Delayed copies of the sweep stream on the first ``stop`` samples.

    A copy delayed by d is zero before sample ceil(d * sample_rate), the
    first index with index - d * sample_rate >= 0.  From ``start``, the
    latest arrival, the record repeats every ``run`` samples, whole cycles
    spanning whole samples, and ``stop`` ends the first such run (or the
    record, if no shorter run exists).  ``local`` lays the rows end to end:
    delay j's row holds its local times (``local_times_on_grid``) from its
    arrival index ``firsts[j]`` to ``stop``, and nothing more.
    """

    count: int
    start: int
    stop: int
    run: int
    firsts: tuple[int, ...]
    local: np.ndarray

    def rows(self, values: np.ndarray) -> tuple[tuple[int, np.ndarray], ...]:
        """Each arrival index with its row of ``values``, laid out as ``local``:
        ``rows(local)`` pairs each arrival with its copy's local times."""
        starts = itertools.accumulate((self.stop - n for n in self.firsts), initial=0)
        return tuple((n, values[s : s + self.stop - n]) for n, s in zip(self.firsts, starts))

    def copies(self, spec: ChirpSpec) -> tuple[tuple[int, np.ndarray], ...]:
        """``rows`` of the cosine of ``spec``'s phase, one pass over every row."""
        return self.rows(np.cos(sweep_phase(spec, self.local)))


def sample_grid(
    schedule: SweepSchedule, sample_rate: float, delays=(0.0,)
) -> SampleGrid:
    """The one grid and arrival rule every synthesizer and track samples by.

    A period spans ``period * sample_rate`` samples, a binary fraction
    num/den, so the shortest run spanning whole samples is den cycles, num
    samples: one cycle at 1,200 samples per period, two at 1,200.5.  Every
    delay's local times come from one pass over its row and no further,
    each element through the same float operations as one delay's on its own.
    """
    check_sample_rate(sample_rate)
    count = sample_count(schedule, sample_rate)
    run = (schedule.period * sample_rate).as_integer_ratio()[0]
    shifts = [d * sample_rate for d in delays]
    firsts = [min(math.ceil(shift), count) for shift in shifts]
    start = max(firsts, default=0)
    stop = min(count, start + run)
    # Row j: samples firsts[j] to stop, less delay j in samples ([] lets no rows join).
    rows = [np.arange(first, stop, dtype=float) - shift for first, shift in zip(firsts, shifts)]
    local = local_times_on_grid(np.concatenate([[], *rows]), sample_rate, schedule.period)
    return SampleGrid(count, start, stop, run, tuple(firsts), local)


def _transmit(schedule: SweepSchedule, sample_rate: float, grid: SampleGrid, copies):
    """The transmit sweep from ``grid.copies(schedule.tx)``: its first row,
    which has delay 0, over its own run ``(0, run)``."""
    check_sample_rate(sample_rate, schedule.tx)
    return SampledSignal._fresh(sample_rate, copies[0][1][: grid.run], count=grid.count)


def _oscillator(schedule: SweepSchedule, sample_rate: float, grid: SampleGrid):
    """The oscillator on ``grid``'s first row, which has delay 0, over its
    own run ``(0, run)``: zero outside its window."""
    check_sample_rate(sample_rate, schedule.lo)
    local = grid.rows(grid.local)[0][1][: grid.run]
    active = local < schedule.lo.duration
    block = np.zeros_like(local)
    block[active] = np.cos(sweep_phase(schedule.lo, local[active]))
    return SampledSignal._fresh(sample_rate, block, count=grid.count)


def synthesize_transmit(schedule: SweepSchedule, sample_rate: float) -> SampledSignal:
    """Sample the sawtooth-repeated transmit sweep.

    Within every cycle the waveform is cos(tx_phase at local time); the
    phase resets to ``phase0`` at each cycle start.
    """
    grid = sample_grid(schedule, sample_rate)
    return _transmit(schedule, sample_rate, grid, grid.copies(schedule.tx))


def synthesize_lo(schedule: SweepSchedule, sample_rate: float) -> SampledSignal:
    """Sample the oscillator: active for ``lo.duration`` after each reset.

    Outside its window the output is exactly zero, so channel arithmetic can
    treat transmit and oscillator signals as equal-length streams.
    """
    return _oscillator(schedule, sample_rate, sample_grid(schedule, sample_rate))
