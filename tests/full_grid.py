"""The full-grid readout: the whole [0, Nyquist] rfft grid of a record, then
``find_peak`` and ``sidelobe_report``, as ``cli.measure`` read a record
before it read the band spectrum ``spectrum.band_magnitude``.

It is the reference the band readouts, and ``dft_magnitude``'s low-bin head,
are held to; it takes ``np.fft.rfft`` itself, never ``dft_magnitude``, whose
readouts zoom the low bins with the chirp-z that the band readouts use.
Bounds fixed before tuning: the peak within 1e-9 Hz, and the same number of
sidelobes, each within 1e-9 Hz and 1e-9 dB.
"""

import numpy as np
import pytest

from ctfm_lab import cli, spectrum, waveform

READOUT_TOL = 1e-9


def full_rfft(signal, points) -> spectrum.Spectrum:
    """The whole one-sided grid of a ``points``-point rfft: the path each
    zoom replaced, and the reference it is held to."""
    return spectrum.Spectrum(
        np.fft.rfftfreq(points, 1.0 / signal.sample_rate),
        np.abs(np.fft.rfft(signal.samples, points)),
        record_duration=signal.duration,
        zero_pad_factor=points / len(signal),
    )


def main_record(config, output) -> waveform.SampledSignal:
    return waveform.time_slice(output, *config.analysis_spans()["record"])


def main_report(config, spec) -> spectrum.SpectrumReport:
    """``spec``'s peak and sidelobes as ``cli.measure`` reads them."""
    peak = spectrum.find_peak(spec, config.band)
    return spectrum.sidelobe_report(spec, peak, 3.0 / config.tx.duration, cli.SIDELOBE_FLOOR_DB)


def full_grid_report(config, output) -> spectrum.SpectrumReport:
    """The main readout of ``output``'s record on its full rfft grid."""
    record = main_record(config, output)
    return main_report(config, full_rfft(record, config.zero_pad_factor * len(record)))


def assert_same_readout(report, reference) -> None:
    """``report``'s peak and sidelobes are ``reference``'s within ``READOUT_TOL``."""
    assert report.peak_frequency == pytest.approx(reference.peak_frequency, abs=READOUT_TOL)
    assert len(report.sidelobes) == len(reference.sidelobes)
    for lobe, expected in zip(report.sidelobes, reference.sidelobes):
        assert lobe.frequency == pytest.approx(expected.frequency, abs=READOUT_TOL)
        assert lobe.ratio_db == pytest.approx(expected.ratio_db, abs=READOUT_TOL)
