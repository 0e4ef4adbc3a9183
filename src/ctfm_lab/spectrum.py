"""DFT magnitude analysis: peak estimation, sidelobes, mainlobe width.

The transform uses a rectangular window on purpose: the sidelobe structure
created by periodic phase discontinuities is the object under study, and a
taper would suppress it.  Sub-bin peak readout comes from zero padding plus
a three-point parabolic fit on the log magnitude.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NoPeakError, ShapeError
from .waveform import SampledSignal, csv_columns

_LOG_FLOOR = 1e-300
# More than the 3.75 dB a parabolic refinement can add to its bin; see
# ``sidelobe_report``.
_VERTEX_MARGIN_DB = 4.0
# Chirp-z plans, and bin-frequency grids, kept, least recently used dropped
# first: a sweep reads many records of a few lengths, and a ``compare``
# builds four to six plans.  A plan holds 16 * (max(lead, run) + FFT length
# + bins) bytes and its grid 8 * bins, at most about 115 per record sample for
# a full grid at factor 4.
_PLANS = 16


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One-sided DFT magnitude on a uniform frequency grid.

    ``zero_pad_factor`` is the transform length over the record length, the
    integer factor of every spectrum the package builds: ``dft_magnitude``'s,
    ``band_magnitude``'s and the zooms ``mainlobe_width`` reads.

    ``dft_magnitude``'s spectrum keeps its record and transform length
    (``_source``): its ``magnitudes`` are transformed on their first read,
    once, and ``find_peak`` and ``sidelobe_report`` read its ``_head``, a
    zoom of the low bins alone, until then.  Until that read it keeps its
    record, and any block the record is a view of, alive; the read drops
    the record and the head.
    """

    bin_frequencies: np.ndarray
    magnitudes: np.ndarray
    record_duration: float
    zero_pad_factor: float

    def __post_init__(self):
        """Copy the arrays; the grid must rise strictly through finite
        frequencies over at least two bins, as every readout bisects it."""
        freqs = np.array(self.bin_frequencies, dtype=float)
        self._adopt(freqs, np.array(self.magnitudes, dtype=float))
        if freqs.size < 2:
            raise ShapeError(f"a spectrum needs at least two bins, got {freqs.size}")
        if not (np.isfinite(freqs).all() and (np.diff(freqs) > 0.0).all()):
            raise DomainError("bin frequencies must be finite and strictly rising")

    def _adopt(self, freqs: np.ndarray, mags: np.ndarray | None) -> None:
        """Take the arrays read-only; ``mags`` None leaves them to
        ``__getattr__``."""
        duration, factor = self.record_duration, self.zero_pad_factor
        if not 0.0 < duration < math.inf:
            raise DomainError(f"record_duration must be finite and positive, got {duration}")
        if not 1.0 <= factor < math.inf:
            raise DomainError(f"zero_pad_factor must be finite and >= 1, got {factor}")
        shape = freqs.shape if mags is None else mags.shape
        if freqs.shape != shape or freqs.ndim != 1:
            raise ShapeError(
                f"frequency grid {freqs.shape} and magnitudes {shape} must be "
                "1-d and equal-length"
            )
        freqs.setflags(write=False)
        object.__setattr__(self, "bin_frequencies", freqs)
        if mags is not None:
            mags.setflags(write=False)
            object.__setattr__(self, "magnitudes", mags)

    def __getattr__(self, name: str):
        """Transform ``magnitudes`` on their first read, by one
        ``np.fft.rfft``; only a lazy spectrum lacks them."""
        if name != "magnitudes" or "_source" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        signal, points = self._source
        mags = np.abs(np.fft.rfft(signal.samples, points))
        mags.setflags(write=False)
        object.__setattr__(self, "magnitudes", mags)
        del self.__dict__["_source"]
        self.__dict__.pop("_kept", None)
        return mags

    @classmethod
    def _fresh(cls, freqs, mags, record_duration: float, zero_pad_factor: float):
        """Wrap float64 arrays the package has just built and no caller holds,
        read-only and uncopied, as ``SampledSignal._fresh`` does; spectra on
        one grid share its cached bin frequencies."""
        spec = object.__new__(cls)
        object.__setattr__(spec, "record_duration", record_duration)
        object.__setattr__(spec, "zero_pad_factor", zero_pad_factor)
        spec._adopt(freqs, mags)
        return spec

    def _head(self, stop: int) -> Spectrum:
        """A spectrum of at least the grid's first ``stop`` bins (all, if
        fewer), read as the grid reads them.

        A spectrum with its ``magnitudes`` is its own head, and so is a lazy
        one asked for every bin: a read of it transforms its ``magnitudes``.
        Any other lazy spectrum zooms bins [0, ``stop``) alone (``_zoom``),
        on a view of its grid, and keeps that head for the next read that it
        holds.
        """
        if "magnitudes" in self.__dict__ or stop >= self.bin_frequencies.size:
            return self
        kept = self.__dict__.get("_kept")
        if kept is not None and kept.bin_frequencies.size >= stop:
            return kept
        signal, points = self._source
        mags = _zoom(signal, points, range(stop))
        head = Spectrum._fresh(
            self.bin_frequencies[:stop], mags, self.record_duration, self.zero_pad_factor
        )
        object.__setattr__(self, "_kept", head)
        return head

    @property
    def bin_spacing(self) -> float:
        return float(self.bin_frequencies[1] - self.bin_frequencies[0])

    @property
    def native_bin(self) -> float:
        """Resolution of the un-padded record, 1 / record_duration."""
        return 1.0 / self.record_duration

    def to_csv(self, cache: dict | None = None) -> str:
        return csv_columns(
            "freq_hz,magnitude", self.bin_frequencies, self.magnitudes, cache=cache
        )


class PeakEstimate(NamedTuple):
    frequency: float
    magnitude: float


class Sidelobe(NamedTuple):
    frequency: float
    ratio_db: float


@dataclass(frozen=True)
class SpectrumReport:
    """Peak readout plus the detected sidelobe population."""

    peak_frequency: float
    peak_magnitude: float
    sidelobes: tuple[Sidelobe, ...]
    mainlobe_width_3db: float


def dft_magnitude(signal: SampledSignal, zero_pad_factor: int = 4) -> Spectrum:
    """Rectangular-window DFT magnitude, zero padded, on [0, Nyquist].

    The grid is ``readout_grid``'s, built once per transform length and
    rate and shared read-only.  No transform runs here: the magnitudes are
    transformed on their first read, and ``find_peak`` and
    ``sidelobe_report`` read only the low bins they need (``Spectrum._head``).
    """
    factor = _check_padding("zero_pad_factor", zero_pad_factor)
    points, size, _ = readout_grid(len(signal), signal.sample_rate, factor)
    freqs = _bin_frequencies(points, signal.sample_rate, 0, size)
    spec = Spectrum._fresh(freqs, None, signal.duration, factor)
    object.__setattr__(spec, "_source", (signal, points))
    return spec


def band_magnitude(signal: SampledSignal, zero_pad_factor: int, band) -> Spectrum:
    """``dft_magnitude`` on ``band``'s bins and one bin either side alone.

    The grid is ``dft_magnitude``'s, so each bin frequency is bit for bit its
    own; the magnitudes come from a ``_zoom`` and differ by FFT rounding
    only.  Its plan is cached by the record's split into a lead-in and
    copies of one run (``SampledSignal._copies``), the transform length and
    the bins, so records with one split read on one band build it once.
    ``band`` must satisfy low < high; its reach is clipped at 0 Hz and
    Nyquist.  On a ``band`` that reaches ``search_span`` past each edge of a
    peak band, ``find_peak`` and ``sidelobe_report`` read what they read on
    the full grid:

    - ``find_peak`` returns a peak inside the peak band, so the sidelobe
      span, peak +/- ``search_span``, lies inside ``band``;
    - the one-bin margin gives every scanned bin both neighbours, so
      scanned bins stay off the zoom's edges, which ``_interpolate_bin`` is
      never passed;
    - a ``_mainlobe_extent`` walk that hits a zoom edge excludes every scanned
      bin on that side, as the full grid's walk, which goes at least as far,
      does.
    """
    factor = _check_padding("zero_pad_factor", zero_pad_factor)
    _check_band(band)
    points, size, freq = readout_grid(len(signal), signal.sample_rate, factor)
    run = band_bins(size, freq, band)
    bins = range(max(run.start - 1, 0), min(run.stop + 1, size))
    freqs = _bin_frequencies(points, signal.sample_rate, bins.start, bins.stop)
    return Spectrum._fresh(freqs, _zoom(signal, points, bins), signal.duration, factor)


def band_bins(size: int, freq, band) -> range:
    """The k < ``size`` with low <= freq(k) <= high, one run of a rising grid,
    found by bisection: ``find_peak``'s band, the loader's count, the
    sidelobe search span and the width zoom's run."""
    bins = range(size)
    return range(bisect_left(bins, band[0], key=freq), bisect_right(bins, band[1], key=freq))


def readout_grid(samples: int, sample_rate: float, factor: int):
    """(points, size, freq) of a readout transform: ``factor`` times the record,
    ``size`` one-sided bins, ``freq(k)`` their ``k * step`` Hz, computed on
    demand."""
    points = factor * samples
    step = 1.0 / (points * (1.0 / sample_rate))  # numpy's rounding of its rfft grid
    return points, points // 2 + 1, lambda k: k * step


def _check_padding(name: str, factor) -> int:
    """``factor`` as an ``int``: any integer type but ``bool``, at least 1."""
    try:
        value = None if isinstance(factor, bool) else operator.index(factor)
    except TypeError:
        value = None
    if value is None or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {factor!r}")
    return value


def _parabolic_vertex(db_left: float, db_mid: float, db_right: float) -> tuple[float, float]:
    """Vertex (bin offset, dB value) of the parabola through three points."""
    denom = db_left - 2.0 * db_mid + db_right
    if denom == 0.0:
        return 0.0, db_mid
    offset = 0.5 * (db_left - db_right) / denom
    value = db_mid - 0.25 * (db_left - db_right) * offset
    return offset, value


def _interpolate_bin(spec: Spectrum, index: int) -> PeakEstimate:
    mags = spec.magnitudes
    # Callers pass interior bins only: band-interior maxima, or [1, size - 2].
    neighborhood = mags[index - 1 : index + 2]
    # A genuine lobe sampled on the padded grid has neighbors within a few
    # dB of its crest; a neighbor tens of dB down means the bin sits next to
    # an interference null, where the log-domain parabola is meaningless.
    if np.min(neighborhood) < 10.0 ** (-30.0 / 20.0) * neighborhood[1]:
        return PeakEstimate(float(spec.bin_frequencies[index]), float(mags[index]))
    db = 20.0 * np.log10(np.maximum(neighborhood, _LOG_FLOOR))
    offset, value = _parabolic_vertex(db[0], db[1], db[2])
    freq = spec.bin_frequencies[index] + offset * spec.bin_spacing
    return PeakEstimate(float(freq), float(10.0 ** (value / 20.0)))


def find_peak(spec: Spectrum, band: tuple[float, float]) -> PeakEstimate:
    """Largest magnitude within ``band``, refined to sub-bin accuracy.

    On an exact tie between bins the lower frequency wins, which makes the
    readout deterministic; the parabolic fit then lands on the midpoint of
    a symmetric pair.
    """
    freqs = spec.bin_frequencies
    _check_band(band, freqs[0], freqs[-1])
    selected = band_bins(freqs.size, freqs.__getitem__, band)
    if len(selected) < 3:
        raise DomainError(f"band {band} covers only {len(selected)} bins; need >= 3")
    head = spec._head(selected.stop + 1)
    sub = head.magnitudes[selected.start : selected.stop]
    if not np.any(sub > 0.0):
        raise NoPeakError(f"no spectral energy inside band {band}")
    # np.argmax returns the first maximum: the lower-frequency bin on ties.
    # A maximum on a band edge is read at that bin, as the grid's ends are.
    first = int(np.argmax(sub))
    if first in (0, len(sub) - 1):
        return PeakEstimate(float(freqs[selected[first]]), float(sub[first]))
    return _interpolate_bin(head, selected[first])


def _check_band(band: tuple[float, float], first=-math.inf, last=math.inf) -> None:
    low, high = band
    if not low < high:
        raise DomainError(f"band must satisfy low < high, got {band}")
    if low < first or high > last:
        raise DomainError(f"band {band} exceeds the frequency grid [{first}, {last}]")


def _peak_bin(spec: Spectrum, peak: PeakEstimate) -> int:
    """The grid bin nearest a refined peak, the lower one on an exact tie, as
    ``np.argmin`` of the distances picks it: the lobe the extents grow from.
    Found by bisection on the rising grid."""
    freqs, f = spec.bin_frequencies, peak.frequency
    i = int(np.searchsorted(freqs, f))  # freqs[i - 1] < f <= freqs[i]
    if i > 0 and (i == freqs.size or f - freqs[i - 1] <= freqs[i] - f):
        return i - 1
    return i


def _mainlobe_extent(spec: Spectrum, peak_index: int) -> tuple[float, float, float]:
    """(-3 dB width, left edge, right edge) of the lobe around a bin."""
    mags = spec.magnitudes
    freqs = spec.bin_frequencies
    threshold = mags[peak_index] / math.sqrt(2.0)

    def crossing(step: int) -> float:
        i = peak_index
        while 0 < i + step < len(mags) - 1 and mags[i + step] > threshold:
            i += step
        j = i + step
        j = min(max(j, 0), len(mags) - 1)
        if mags[j] > threshold:  # ran off the grid while still above -3 dB
            return float(freqs[j])
        # Linear interpolation between the last bin above and first below.
        f_hi, f_lo = freqs[i], freqs[j]
        m_hi, m_lo = mags[i], mags[j]
        if m_hi == m_lo:
            return float(f_lo)
        frac = (m_hi - threshold) / (m_hi - m_lo)
        return float(f_hi + frac * (f_lo - f_hi))

    left = crossing(-1)
    right = crossing(+1)
    return right - left, left, right


def sidelobe_report(
    spec: Spectrum,
    peak: PeakEstimate,
    search_span: float,
    floor_db: float = -15.0,
) -> SpectrumReport:
    """Catalog local maxima near the peak that rise above ``floor_db``.

    The mainlobe itself is excluded, as is the guard region where the
    rectangular window's own leakage lobes can exceed the floor (their
    envelope is 1 / (pi * offset * record_duration) relative to the peak).

    Only a maximum that can reach the floor is refined: one mask over the
    span keeps the local maxima outside the excluded region whose bin lies
    at most ``_VERTEX_MARGIN_DB`` under the floor, and ``_interpolate_bin``
    reads those alone.  A maximum further down is never cataloged, since a
    refined maximum exceeds its bin by at most 3.75 dB:

    - both neighbours of a maximum are at most its bin; if either is more
      than 30 dB down, ``_interpolate_bin`` returns the bin itself;
    - otherwise, with x and y the neighbours' drops in dB, x, y in [0, 30],
      the parabola's vertex exceeds the bin by
      0.125 * (x - y)**2 / (x + y) <= 0.125 * max(x, y) <= 3.75 dB.

    The fit reads magnitudes raised to ``_LOG_FLOOR``, so the mask does too.
    Bins are read on ``spec._head`` to one past the span, or on the whole
    grid when the mainlobe walk reaches the head's last bin short of the
    grid's end.
    """
    if not search_span > 0.0:
        raise DomainError(f"search_span must be positive, got {search_span}")
    if not math.isfinite(floor_db):
        raise DomainError(f"floor_db must be finite, got {floor_db}")
    freqs = spec.bin_frequencies
    for field in ("frequency", "magnitude"):
        value = getattr(peak, field)
        if not math.isfinite(value):
            raise DomainError(f"peak.{field} must be finite, got {value}")
    if not freqs[0] <= peak.frequency <= freqs[-1]:
        raise DomainError(
            f"peak.frequency {peak.frequency} lies outside the frequency grid "
            f"[{freqs[0]}, {freqs[-1]}]"
        )
    if peak.magnitude <= 0.0:
        raise NoPeakError("peak magnitude must be positive")
    low = max(peak.frequency - search_span, float(freqs[0]))
    high = min(peak.frequency + search_span, float(freqs[-1]))
    span = band_bins(freqs.size, freqs.__getitem__, (low, high))
    head = spec._head(span.stop + 1)
    width, lobe_left, lobe_right = _mainlobe_extent(head, _peak_bin(head, peak))
    if lobe_right == head.bin_frequencies[-1] < freqs[-1]:  # the lobe runs past the head
        head = spec
        width, lobe_left, lobe_right = _mainlobe_extent(spec, _peak_bin(spec, peak))
    mags = head.magnitudes

    floor_ratio = 10.0 ** (floor_db / 20.0)
    window_guard = 1.0 / (math.pi * floor_ratio * spec.record_duration)
    exclude_left = min(lobe_left, peak.frequency - window_guard)
    exclude_right = max(lobe_right, peak.frequency + window_guard)

    lo = max(span.start, 1)
    hi = max(min(span.stop, freqs.size - 1), lo)
    f, m = freqs[lo:hi], mags[lo:hi]
    reachable = peak.magnitude * floor_ratio * 10.0 ** (-_VERTEX_MARGIN_DB / 20.0)
    candidates = (
        (m > mags[lo - 1 : hi - 1])
        & (m >= mags[lo + 1 : hi + 1])
        & ~((exclude_left <= f) & (f <= exclude_right))
        & (np.maximum(m, _LOG_FLOOR) >= reachable)
    )
    sidelobes = []
    for i in (lo + np.flatnonzero(candidates)).tolist():
        # i is a strict local maximum, so its refined magnitude is positive.
        estimate = _interpolate_bin(head, i)
        ratio_db = 20.0 * math.log10(estimate.magnitude / peak.magnitude)
        if ratio_db >= floor_db:
            sidelobes.append(Sidelobe(estimate.frequency, min(ratio_db, 0.0)))
    return SpectrumReport(
        peak_frequency=peak.frequency,
        peak_magnitude=peak.magnitude,
        sidelobes=tuple(sidelobes),
        mainlobe_width_3db=width,
    )


def mainlobe_width(
    signal: SampledSignal, band: tuple[float, float], zero_pad_factor: int
) -> float:
    """-3 dB width of the strongest lobe inside ``band``, and nothing else.

    The lobe is read on ``band_magnitude`` of ``band`` and one native bin
    (1 / duration) either side, so a lobe peaking on a band edge is read in
    one zoom: ``dft_magnitude``'s grid, ``zero_pad_factor`` times the
    record.  While a -3 dB crossing sits on a zoom edge that is not the
    grid's, the reach widens by its own span each side, so the readout is
    the full grid's.  The peak bin is picked as ``sidelobe_report`` picks
    it; no sidelobe is cataloged.
    """
    factor = _check_padding("zero_pad_factor", zero_pad_factor)
    _, size, freq = readout_grid(len(signal), signal.sample_rate, factor)
    last = freq(size - 1)
    _check_band(band, 0.0, last)  # the grid's edges, not the zoom's
    low, high = band[0] - 1.0 / signal.duration, band[1] + 1.0 / signal.duration
    while True:
        spec = band_magnitude(signal, factor, (low, high))
        width, left, right = _mainlobe_extent(spec, _peak_bin(spec, find_peak(spec, band)))
        edges = spec.bin_frequencies[[0, -1]]
        if not (left == edges[0] > 0.0 or right == edges[1] < last):
            return width
        low, high = low - (high - low), high + (high - low)


@functools.lru_cache(maxsize=_PLANS)
def _zoom_plan(lead: int, run: int, copies: int, points: int, start: int, stop: int):
    """(weights, kernel, comb) that ``_zoom`` zooms any record split into
    ``lead``, ``run`` and ``copies`` (``SampledSignal._copies``) with,
    read-only and shared: |DFT| of ``points`` points on bins ``start`` to
    ``stop`` - 1 alone.

    With L = ``points``, a = ``lead``, r = ``run`` and Q = ``copies``, the
    record is x[:a] and then Q copies of x[a:a + r], so with w = e^(-2πi/L)
    X[k] = A[k] + w^(ka) · D_Q[k] · B[k]: A is the DFT of the lead-in, B of
    one run, and the copies, each r samples after the last, sum to the
    Dirichlet factor D_Q[k] = e^(-iπ(Q - 1)θ) · sin(πQθ) / sin(πθ), with
    θ = (k·r mod L) / L centred into [-1/2, 1/2), and D_Q = Q where θ = 0,
    on the comb lines.  ``comb`` is w^(ka) · D_Q[k].  With k = k0 + m, A
    and B are each e^(-iπm²/L) · sum_n y[n] e^(-iπ(n² + 2·k0·n)/L) ·
    e^(iπ(m - n)²/L) for their row y, one Bluestein chirp-z pass (Rabiner,
    Schafer & Rader, 1969) with FFTs of the ``kernel``'s length, the least
    7-smooth F >= max(a, r) + M - 1 (``_smooth_length``; numpy's pocketfft
    runs such lengths on its fastest passes); the leading chirp has unit
    modulus and is common to both rows, so it is skipped.  Each integer
    phase is reduced mod L or 2L in int64 before it is scaled, so it is
    exact at any k0 for L < 2**31.
    """
    n, m, k0 = max(lead, run), stop - start, start
    i, d = np.arange(n, dtype=np.int64), np.arange(1 - n, m, dtype=np.int64)
    radians = np.pi / points
    weights = np.exp(-1j * radians * ((i * i + 2 * k0 * i) % (2 * points)))
    chirp = np.exp(1j * radians * (d * d % (2 * points)))
    kernel = np.fft.fft(chirp, _smooth_length(n + m - 1))
    k = np.arange(start, stop, dtype=np.int64)
    j = (k * run + points // 2) % points - points // 2  # θ = j / L
    gain = np.sin(radians * ((copies * j + points) % (2 * points) - points))
    dirichlet = np.divide(gain, np.sin(radians * j), out=np.full(m, float(copies)), where=j != 0)
    turn = (2 * (k * lead % points) + (copies - 1) * j) % (2 * points)
    comb = np.exp(-1j * radians * turn) * dirichlet
    for array in (weights, kernel, comb):
        array.setflags(write=False)
    return weights, kernel, comb


@functools.lru_cache(maxsize=_PLANS)
def _bin_frequencies(points: int, sample_rate: float, start: int, stop: int) -> np.ndarray:
    """``readout_grid``'s frequencies of bins ``start`` to ``stop`` - 1 of a
    ``points``-point transform, read-only and shared, so a sweep over records
    of one length builds each grid once."""
    freqs = readout_grid(points, sample_rate, 1)[2](np.arange(start, stop))
    freqs.setflags(write=False)
    return freqs


def _smooth_length(n: int) -> int:
    """The least 7-smooth integer >= ``n`` >= 1."""
    while True:
        rest = n
        for prime in (2, 3, 5, 7):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return n
        n += 1


def _zoom(signal: SampledSignal, points: int, bins: range) -> np.ndarray:
    """``signal``'s ``points``-point |DFT| on ``bins`` alone, through the
    cached ``_zoom_plan`` of its split (``SampledSignal._copies``): the
    lead-in and one run, read from the record's ``_head`` and never tiled
    further, as the rows of one FFT pair of the plan's ``kernel.size``
    points, then |A + comb · B|.  A record with no shorter run is one row
    and one copy, whose ``comb`` is exactly 1."""
    lead, run, copies = signal._copies()
    n = max(lead, run)
    weights, kernel, comb = _zoom_plan(lead, run, copies, points, bins.start, bins.stop)
    head = signal._head(lead + run)
    rows = np.zeros((2 if lead else 1, n), dtype=complex)  # the lead-in, if any, and the run
    rows[0, :lead] = head[:lead] * weights[:lead]
    rows[-1, :run] = head[lead:] * weights[:run]
    work = np.fft.fft(rows, kernel.size)
    work *= kernel
    zoomed = np.fft.ifft(work)[:, n - 1 : n - 1 + len(bins)]
    total = zoomed[-1] * comb
    if lead:
        total += zoomed[0]
    return np.abs(total)
