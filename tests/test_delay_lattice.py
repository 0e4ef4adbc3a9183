"""What the pinned acceptance checks 4a and 5b measure, read through ``measure``.

4a pins a 31.01 Hz stitched-sum peak and 5b a -7.26 dB strongest sidelobe.
The stitched output is sweep-periodic, so every ctfm and ddctfm peak lies
on a comb line n/T, while the ideal beat sits at rate * delay.  These tests
state that on the 93 ms walkthrough (``paper_phase.cfg``) and over a 1 ms
lattice of echo delays on ``paper.cfg``.  Tolerances were fixed before the
readouts were taken: 0.01 Hz for every peak, 5b's own +/-1.5 dB for the lobe.
Over the same lattice, each readout from the band spectrum, and from
``dft_magnitude``'s spectrum, is the full rfft grid's, within
``full_grid.READOUT_TOL``.  The comb's strongest lines follow the segment
law of ``oracles.segment_lines``, within 2.0 dB fixed before the first run.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import ctfm_lab as lab
from ctfm_lab import cli, spectrum
import sweeps
from full_grid import assert_same_readout, full_grid_report, main_record, main_report
from oracles import segment_lines

PEAK_TOL_HZ = 0.01
LOBE_DB, LOBE_TOL_DB = -7.26, 1.5  # acceptance check 5b
DELAYS_MS = range(80, 121)


def comb_error(frequency: float, period: float) -> float:
    """Distance from ``frequency`` to its nearest comb line n / period."""
    return abs(frequency - round(frequency * period) / period)


def beat(config: lab.SimConfig) -> float:
    """The ideal beat rate * delay of the first echo, in closed form."""
    tx = config.tx
    return (tx.f_end - tx.f_start) / tx.duration * config.echoes[0].delay


class TestWalkthrough93ms:
    @pytest.fixture(scope="class")
    def readouts(self, paper_config_path):
        config = lab.load_config(Path(paper_config_path).with_name("paper_phase.cfg"))
        return config, {r.mode: r for r in cli.measure(config, cli.MODES).readouts}

    def test_ddctfm_peak_is_the_comb_line_at_30_hz(self, readouts):
        config, by_mode = readouts
        line = 9 / config.tx.duration
        assert line == pytest.approx(30.0, abs=1e-12)
        assert by_mode["ddctfm"].peak_frequency == pytest.approx(line, abs=PEAK_TOL_HZ)

    def test_ddctfm_strongest_lobe_is_inside_5b_band(self, readouts):
        strongest = readouts[1]["ddctfm"].strongest_sidelobe_db
        assert strongest is not None
        assert strongest == pytest.approx(LOBE_DB, abs=LOBE_TOL_DB)

    def test_ideal_peak_is_the_31_hz_beat(self, readouts):
        config, by_mode = readouts
        assert beat(config) == pytest.approx(31.0, abs=1e-12)
        assert by_mode["ideal"].peak_frequency == pytest.approx(31.0, abs=PEAK_TOL_HZ)


class TestDelayLattice:
    @pytest.fixture(scope="class")
    def sweep(self, paper_config_path):
        """``paper.cfg`` with ``echoes.0.delay`` stepped 80..120 ms: one
        (config, {mode: readout}, measurement) per delay."""
        paper = lab.load_config(paper_config_path)
        delays = [ms / 1000 for ms in DELAYS_MS]
        results = list(sweeps.sweep(paper, "echoes.0.delay", delays))
        assert [config.echoes[0].delay for config, _, _ in results] == delays
        return results

    @pytest.mark.parametrize("mode", ["ctfm", "ddctfm"])
    def test_receiver_peaks_lie_on_the_comb(self, sweep, mode):
        errors = {
            config.echoes[0].delay: comb_error(by_mode[mode].peak_frequency, config.tx.duration)
            for config, by_mode, _ in sweep
        }
        assert len(errors) == len(DELAYS_MS)
        worst = max(errors, key=errors.get)
        assert errors[worst] <= PEAK_TOL_HZ, f"{mode} at {worst} s: {errors[worst]:.4f} Hz"

    def test_ideal_peaks_lie_on_the_beat(self, sweep):
        errors = {
            config.echoes[0].delay: abs(by_mode["ideal"].peak_frequency - beat(config))
            for config, by_mode, _ in sweep
        }
        worst = max(errors, key=errors.get)
        assert errors[worst] <= PEAK_TOL_HZ, f"ideal at {worst} s: {errors[worst]:.5f} Hz"

    def test_readouts_match_the_full_grid(self, sweep):
        """The band readouts, and those of ``dft_magnitude``'s spectrum
        (56,060 points, read on its low-bin head), are the rfft grid's."""
        for config, by_mode, state in sweep:
            for mode, readout in by_mode.items():
                reference = full_grid_report(config, state.output(mode))
                assert_same_readout(readout.report, reference)
                record = main_record(config, state.output(mode))
                whole = spectrum.dft_magnitude(record, config.zero_pad_factor)
                assert_same_readout(main_report(config, whole), reference)


SEGMENT_LAW_TOL_DB = 2.0  # fixed before the first run
FC_46_5 = {"tx.f_start": "105", "tx.f_end": "205", "lo.f_end": "245"}  # f_c * T = 46.5
SEGMENT_CASES = [
    *[({}, tau) for tau in (0.083, 0.093, 0.096, 0.104, 0.108)],
    *[(FC_46_5, tau) for tau in (0.093, 0.096)],
]


@pytest.mark.parametrize(
    "values, tau",
    SEGMENT_CASES,
    ids=[f"{'fcT-46.5' if values else 'paper'}-{tau * 1e3:g}ms" for values, tau in SEGMENT_CASES],
)
def test_the_stitched_lines_follow_the_segment_law(paper_config_path, values, tau):
    """The three strongest in-band lines of one settled period of the
    stitched output, each divided by the filter's gain there, lie within
    ``SEGMENT_LAW_TOL_DB`` of ``oracles.segment_lines``, whether or not
    f_c * T is an integer.  The period [k T, (k + 1) T) starts a period
    after the first echo's arrival and the filter's delay and span."""
    config = lab.derive(lab.load_config(paper_config_path), {**values, "echoes.0.delay": tau})
    period, rate, lowpass = config.tx.duration, config.sample_rate, config.lowpass
    k = math.ceil((tau + lowpass.group_delay + lowpass.impulse_duration) / period) + 1
    output = cli.measure(config).output("ddctfm")
    samples = lab.time_slice(output, k * period, (k + 1) * period).samples
    assert samples.size == round(period * rate)
    n = np.arange(samples.size // 2 + 1)
    freqs = n * rate / samples.size  # line n at n / T
    low, high = config.band
    band = n[(freqs >= low) & (freqs <= high)]
    gain = np.abs(lab.frequency_response(lab.design_lowpass(lowpass), freqs[band], rate))
    lines = 2.0 * np.abs(np.fft.rfft(samples))[band] / samples.size / gain
    for i in np.argsort(lines)[::-1][:3]:
        law = segment_lines(config, tau, int(band[i]))
        error_db = 20.0 * math.log10(lines[i] / law)
        assert abs(error_db) <= SEGMENT_LAW_TOL_DB, (
            f"line {band[i]} ({freqs[band[i]]:.3f} Hz): {error_db:+.2f} dB from the law"
        )
