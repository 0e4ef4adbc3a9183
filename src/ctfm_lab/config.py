"""Flat key = value experiment configuration.

Format: one ``key = value`` pair per line, ``#`` starts a comment, keys use
dots for grouping (``tx.f_start``, ``echoes.0.delay``).  The oscillator's
start frequency and initial phase are always derived from the transmit
sweep and cannot be set.  Every check is made at load time, and a refusal
names one key: a value outside its own range under that key (checked before
the constructor that would refuse it), the oscillator window
(``lo.duration`` <= ``tx.duration``) under ``lo.duration``, the slope rule
under ``lo.f_end`` with the value that continues the slope, and a missing
or skipped echo under the first missing ``echoes.K.delay``.  ``tx.phase0``
must be below 2**23 rad in magnitude, where float64 still spaces phases by
at most the 1e-9 rad continuity tolerance.  The first echo's delay
must not exceed ``lo.duration``, so that the handoff ledger exists, the
echo amplitudes at some delay must not sum to zero, so that the echoes do
not cancel and the spectra have a peak, and
every analysis window (``SimConfig.analysis_spans``) must put at least
three bins of its readout transform in the band, which may not reach past
that transform's last bin; a transform with more bins than ``sys.maxsize``
is refused under ``tx.duration``.  Values are plain ASCII decimal;
non-finite numbers are refused.

Keys, defaults and canonical order: ``_SWEEP_KEYS`` and ``_RECEIVER_KEYS``
below, the one key table that the parser and ``serialize_config`` both read.
Echoes are ``echoes.N.delay`` (required) and ``echoes.N.amplitude`` (1.0),
N = 0, 1, ... contiguous and written in plain ASCII decimal without a
leading zero; any other spelling is an unknown key.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .demod import LowpassSpec, check_cutoff
from .errors import ConfigLoadError, CtfmLabError
from .phase_analysis import check_ledger_delay
from .scene import Echo, Scene, check_delay
from .spectrum import band_bins, readout_grid
from .waveform import CONTINUITY_TOL, ChirpSpec, SweepSchedule, make_schedule, sample_count
from .waveform import _slice_indices, check_sample_rate, sweep_phase, sweep_rate

# The key table.  Each global key maps to its default (None: required) and
# to how a ``SimConfig`` gives its value back; the order is the canonical
# text's, with the echoes written between the two groups.
_SWEEP_KEYS = {
    "tx.f_start": (None, lambda c: c.tx.f_start),  # Hz
    "tx.f_end": (None, lambda c: c.tx.f_end),  # Hz
    "tx.duration": (None, lambda c: c.tx.duration),  # s
    "tx.phase0": (0.0, lambda c: c.tx.phase0),  # rad
    "lo.f_end": (None, lambda c: c.lo_f_end),  # Hz
    "lo.duration": (None, lambda c: c.lo_duration),  # s
    "cycles": (None, lambda c: c.cycles),  # positive integer
}
_RECEIVER_KEYS = {
    "sample_rate": (4000.0, lambda c: c.sample_rate),  # Hz
    "lowpass.cutoff": (50.0, lambda c: c.lowpass.cutoff),  # Hz
    "lowpass.taps": (257, lambda c: c.lowpass.tap_count),
    "spectrum.zero_pad_factor": (4, lambda c: c.zero_pad_factor),
    "spectrum.band_low": (10.0, lambda c: c.band[0]),  # Hz
    "spectrum.band_high": (50.0, lambda c: c.band[1]),  # Hz
    "sound_speed": (1500.0, lambda c: c.sound_speed),  # m/s
}
_KEYS = {**_SWEEP_KEYS, **_RECEIVER_KEYS}

_ECHO_KEY = re.compile(r"echoes\.(?:0|[1-9][0-9]*)\.(?:delay|amplitude)")

_INT_KEYS = {"cycles", "lowpass.taps", "spectrum.zero_pad_factor"}

# Values in plain ASCII decimal, the grammar ``serialize_config`` writes in:
# no underscores, no other script's digits, no nan or inf.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")

# Least zero-pad factor used when measuring mainlobe widths of short
# observation windows, whose native grids are far too coarse for a -3 dB
# readout; ``spectrum.mainlobe_width`` reads ``factor * N`` points and
# evaluates only the bins around the band.
WIDTH_PAD_FACTOR = 64

_DERIVED_KEYS = {
    "lo.f_start": "derived from tx.f_end; not configurable",
    "lo.phase0": "derived from the transmit sweep's end phase; not configurable",
}


@dataclass(frozen=True)
class SimConfig:
    """A fully validated experiment description."""

    tx: ChirpSpec
    lo_f_end: float
    lo_duration: float
    cycles: int
    echoes: tuple[Echo, ...]
    sample_rate: float
    lowpass: LowpassSpec
    zero_pad_factor: int
    band: tuple[float, float]
    sound_speed: float

    # The loader keeps the schedule and scene it validated (``_build``); a
    # ``dataclasses.replace`` copy builds its own from its fields on first read.
    @functools.cached_property
    def schedule(self) -> SweepSchedule:
        return make_schedule(self.tx, self.lo_f_end, self.lo_duration, self.cycles)

    @functools.cached_property
    def scene(self) -> Scene:
        return Scene(echoes=self.echoes, sound_speed=self.sound_speed)

    @property
    def width_pad_factor(self) -> int:
        """Least pad factor of every observation window's -3 dB width."""
        return max(self.zero_pad_factor, WIDTH_PAD_FACTOR)

    def analysis_spans(self) -> dict[str, tuple[float, float]]:
        """(start, stop) in s of the settled ``record`` every spectrum is read
        from, and of each mode's observation window around mid-record.

        The record drops the filter's delay and ring-in.  ddctfm is coherent
        between consecutive handoffs (one period), ctfm within one valid beat
        segment (period minus delay), ideal over the whole record.  The ctfm
        and ddctfm windows start at the first echo's arrival, as the phase
        ledger does; later echoes do not move them.
        """
        period, shift = self.tx.duration, self.lowpass.group_delay
        record = (shift + self.lowpass.impulse_duration, self.cycles * period)
        k = self.cycles // 2
        start = k * period + self.echoes[0].delay + shift
        return {
            "record": record,
            "ctfm": (start, (k + 1) * period + shift),
            "ddctfm": (start, (k + 1) * period + self.echoes[0].delay + shift),
            "ideal": record,
        }


def _parse_number(key: str, raw: str) -> float | int:
    raw = raw.strip()
    integer = key in _INT_KEYS
    try:
        if (_INTEGER if integer else _DECIMAL).fullmatch(raw):
            value = int(raw) if integer else float(raw)
            if integer or math.isfinite(value):
                return value
    except ValueError:  # an integer past Python's digit limit
        pass
    kind = "an integer" if integer else "a finite decimal number"
    raise ConfigLoadError(f"expected {kind}, got {raw!r}", field=key)


def parse_config(text: str) -> SimConfig:
    """Parse and fully validate a configuration document."""
    values: dict[str, float | int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigLoadError(
                f"line {lineno}: expected 'key = value', got {line.strip()!r}"
            )
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in _DERIVED_KEYS:
            raise ConfigLoadError(_DERIVED_KEYS[key], field=key)
        if key not in _KEYS and not _ECHO_KEY.fullmatch(key):
            raise ConfigLoadError("unknown key", field=key)
        if key in values:
            raise ConfigLoadError(f"line {lineno}: duplicate key", field=key)
        values[key] = _parse_number(key, raw)

    for key, (default, _) in _KEYS.items():
        if key not in values and default is None:
            raise ConfigLoadError("missing required key", field=key)
        values.setdefault(key, default)
    return _build(values)


def _domain(field: str, factory):
    """``factory()``, with a library error reported under ``field``."""
    try:
        return factory()
    except CtfmLabError as exc:
        raise ConfigLoadError(str(exc), field=field) from exc


def _check(values: dict, key: str, ok: bool, rule: str) -> None:
    """Refuse ``key``'s value, stating the ``rule`` it breaks, unless ``ok``."""
    if not ok:
        raise ConfigLoadError(f"must be {rule}, got {values[key]}", field=key)


def _collect_echoes(values: dict, period: float) -> tuple[Echo, ...]:
    indices = sorted({int(k.split(".")[1]) for k in values if k.startswith("echoes.")})
    echoes = []
    for n in range(indices[-1] + 1 if indices else 1):
        key = f"echoes.{n}.delay"
        if key not in values:
            gap = f" (at least one echo, indices contiguous from 0, got {indices})"
            raise ConfigLoadError("missing required key" + ("" if n in indices else gap), field=key)
        _domain(key, lambda: check_delay(values[key], period))
        echoes.append(Echo(values[key], values.get(f"echoes.{n}.amplitude", 1.0)))
    amplitudes: dict[float, list[float]] = {}
    for echo in echoes:
        amplitudes.setdefault(echo.delay, []).append(echo.amplitude)
    if not any(a[0] if len(a) == 1 else _exact_sum(a) for a in amplitudes.values()):
        raise ConfigLoadError(
            "the echo amplitudes sum to zero at every delay, so the echoes cancel",
            field=f"echoes.{len(echoes) - 1}.amplitude",
        )
    return tuple(echoes)


def _exact_sum(values: list[float]):
    """The sum of ``values`` with no rounding, so that none hides or fakes a
    cancellation; ``fractions`` is imported only for echoes sharing a delay,
    as it costs ~3 ms."""
    from fractions import Fraction

    return sum(map(Fraction, values))


def _build(values: dict) -> SimConfig:
    for key in ("tx.f_start", "tx.f_end"):
        _check(values, key, values[key] >= 0.0, "nonnegative")
    _check(values, "tx.duration", values["tx.duration"] > 0.0, "positive")
    phase0 = values["tx.phase0"]
    _check(
        values,
        "tx.phase0",
        math.ulp(abs(phase0)) <= CONTINUITY_TOL,
        f"below 2**23 rad in magnitude, so float64 holds it to {CONTINUITY_TOL} rad",
    )
    tx = ChirpSpec(values["tx.f_start"], values["tx.f_end"], values["tx.duration"], phase0)
    with np.errstate(over="ignore"):  # an overflow is refused on the next line
        end = sweep_phase(tx, tx.duration)  # the oscillator's start phase
    _check(values, "tx.duration", math.isfinite(end), "short enough to end on a finite phase")
    echoes = _collect_echoes(values, tx.duration)
    cycles = values["cycles"]
    if cycles < 2:
        raise ConfigLoadError("at least two sweep cycles are required", field="cycles")
    lo_f_end, lo_duration = values["lo.f_end"], values["lo.duration"]
    _check(values, "lo.duration", lo_duration > 0.0, "positive")
    _check(values, "lo.duration", lo_duration <= tx.duration, f"<= tx.duration ({tx.duration} s)")
    _check(values, "lo.f_end", lo_f_end >= 0.0, "nonnegative")
    rate = sweep_rate(tx)
    _check(
        values,
        "lo.f_end",
        abs((lo_f_end - tx.f_end) / lo_duration - rate) <= CONTINUITY_TOL * max(1.0, abs(rate)),
        f"{tx.f_end + rate * lo_duration}, tx.f_end + rate * lo.duration, so that the "
        f"oscillator continues the transmit slope ({rate} Hz/s)",
    )
    schedule = make_schedule(tx, lo_f_end, lo_duration, cycles)
    _domain("echoes.0.delay", lambda: check_ledger_delay(schedule, echoes[0].delay))
    sample_rate = values["sample_rate"]
    _domain("sample_rate", lambda: check_sample_rate(sample_rate, schedule.tx, schedule.lo))
    taps = values["lowpass.taps"]
    if taps < 3 or taps % 2 == 0:
        raise ConfigLoadError(f"must be an odd integer >= 3, got {taps}", field="lowpass.taps")
    lowpass = _domain(  # the taps are checked above, and the rate against the sweeps
        "lowpass.cutoff",
        lambda: LowpassSpec(values["lowpass.cutoff"], taps, sample_rate),
    )
    _domain("lowpass.cutoff", lambda: check_cutoff(schedule, lowpass))
    zero_pad_factor = values["spectrum.zero_pad_factor"]
    _check(values, "spectrum.zero_pad_factor", zero_pad_factor >= 1, ">= 1")
    band = (values["spectrum.band_low"], values["spectrum.band_high"])
    if not 0.0 <= band[0] < band[1] <= sample_rate / 2.0:
        raise ConfigLoadError(
            f"band must satisfy 0 <= low < high <= Nyquist, got {band}",
            field="spectrum.band_low",
        )
    sound_speed = values["sound_speed"]
    scene = _domain("sound_speed", lambda: Scene(echoes=echoes, sound_speed=sound_speed))
    config = SimConfig(
        tx=tx,
        lo_f_end=lo_f_end,
        lo_duration=lo_duration,
        cycles=cycles,
        echoes=echoes,
        sample_rate=sample_rate,
        lowpass=lowpass,
        zero_pad_factor=zero_pad_factor,
        band=band,
        sound_speed=sound_speed,
    )
    vars(config).update(schedule=schedule, scene=scene)  # read by the cached properties
    _check(
        values,
        "tx.duration",
        math.isfinite(schedule.total_duration * sample_rate),
        "short enough that the record's sample count is finite",
    )
    count = sample_count(schedule, sample_rate)
    for name, span in config.analysis_spans().items():
        try:
            i0, i1 = _slice_indices(count, sample_rate, *span)
        except CtfmLabError as exc:
            raise ConfigLoadError(
                f"the {name} analysis window is empty ({exc}): the filter's delay "
                "and ring-in push it past the record's end; use fewer taps or "
                "more cycles",
                field="lowpass.taps",
            ) from exc
        # The walk reads the record's spectrum and each window's -3 dB width.
        factor = zero_pad_factor if name == "record" else config.width_pad_factor
        _, size, freq = _domain("tx.duration", lambda: readout_grid(i1 - i0, sample_rate, factor))
        top = freq(size - 1)
        if band[1] > top:
            raise ConfigLoadError(
                f"{band[1]} Hz lies above the last bin ({top} Hz) of the "
                f"{name} analysis window's readout grid ({i1 - i0} samples): lower "
                "it or raise spectrum.zero_pad_factor",
                field="spectrum.band_high",
            )
        bins = len(band_bins(size, freq, band))
        if bins < 3:
            raise ConfigLoadError(
                f"the {name} analysis window ({i1 - i0} samples) puts {bins} "
                f"transform bins in band {band}, and a readout needs >= 3: use "
                "fewer taps or more cycles",
                field="lowpass.taps",
            )
    return config


def serialize_config(config: SimConfig) -> str:
    """Emit a document that parses back to an equivalent configuration."""
    def lines(keys: dict) -> list[str]:
        return [f"{key} = {value(config)!r}" for key, (_, value) in keys.items()]

    echoes = [
        f"echoes.{n}.{field} = {getattr(echo, field)!r}"
        for n, echo in enumerate(config.echoes)
        for field in ("delay", "amplitude")
    ]
    return "\n".join(lines(_SWEEP_KEYS) + echoes + lines(_RECEIVER_KEYS)) + "\n"


def derive(config: SimConfig, values: dict[str, str | float]) -> SimConfig:
    """``config`` with the named keys set to ``values``, loaded as a file is.

    Each value replaces its key's line in ``serialize_config(config)``, or is
    appended where the text has no such key (a new echo index), and the text
    goes through ``parse_config``: every load check applies, a refusal names
    the key as given, and no other key is adjusted.
    """
    lines = dict(line.split(" = ", 1) for line in serialize_config(config).splitlines())
    lines.update((key, str(value)) for key, value in values.items())
    return parse_config("".join(f"{key} = {value}\n" for key, value in lines.items()))


def load_config(path: str | Path) -> SimConfig:
    """Read and parse a configuration file, decoded as UTF-8 past a leading
    byte-order mark, if any."""
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigLoadError(f"not UTF-8: undecodable byte at offset {exc.start}") from exc
    return parse_config(text)
