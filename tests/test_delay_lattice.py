"""What the pinned acceptance checks 4a and 5b measure, read through ``measure``.

4a pins a 31.01 Hz stitched-sum peak and 5b a -7.26 dB strongest sidelobe.
The stitched output is sweep-periodic, so every ctfm and ddctfm peak lies
on a comb line n/T, while the ideal beat sits at rate * delay.  These tests
state that on the 93 ms walkthrough (``paper_phase.cfg``) and over a 1 ms
lattice of echo delays on ``paper.cfg``.  Tolerances were fixed before the
readouts were taken: 0.01 Hz for every peak, 5b's own +/-1.5 dB for the lobe.
Over the same lattice, each readout from the band spectrum, and from
``dft_magnitude``'s spectrum, is the full rfft grid's, within
``full_grid.READOUT_TOL``.
"""

from pathlib import Path

import pytest

import ctfm_lab as lab
from ctfm_lab import cli, spectrum
import sweeps
from full_grid import assert_same_readout, full_grid_report, main_record, main_report

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
