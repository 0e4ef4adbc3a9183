"""The full-grid readout: ``dft_magnitude`` over [0, Nyquist], then
``find_peak`` and ``sidelobe_report``, as ``cli.measure`` read a record
before it read the band spectrum ``spectrum.band_magnitude``.

It is the reference the band readouts are held to.  Bounds fixed before
tuning: the peak within 1e-9 Hz, and the same number of sidelobes, each
within 1e-9 Hz and 1e-9 dB.
"""

import pytest

from ctfm_lab import cli, spectrum, waveform

READOUT_TOL = 1e-9


def full_grid_report(config, output) -> spectrum.SpectrumReport:
    """The main readout of ``output``'s record on the full ``dft_magnitude`` grid."""
    record = waveform.time_slice(output, *config.analysis_spans()["record"])
    spec = spectrum.dft_magnitude(record, config.zero_pad_factor)
    peak = spectrum.find_peak(spec, config.band)
    return spectrum.sidelobe_report(spec, peak, 3.0 / config.tx.duration, cli.SIDELOBE_FLOOR_DB)


def assert_same_readout(report, reference) -> None:
    """``report``'s peak and sidelobes are ``reference``'s within ``READOUT_TOL``."""
    assert report.peak_frequency == pytest.approx(reference.peak_frequency, abs=READOUT_TOL)
    assert len(report.sidelobes) == len(reference.sidelobes)
    for lobe, expected in zip(report.sidelobes, reference.sidelobes):
        assert lobe.frequency == pytest.approx(expected.frequency, abs=READOUT_TOL)
        assert lobe.ratio_db == pytest.approx(expected.ratio_db, abs=READOUT_TOL)
